"""The columnar executor: compiled kernel pipelines → :class:`Relation`.

The engine's only production executor.  Each plan is compiled once per
(structure, domain) into a tree of generated kernel closures over
integer-coded rows (:mod:`repro.engine.columnar.compile`), cached on the
structure for as long as the plan object lives, and re-executions just
walk that tree.  Element objects only reappear at the plan root, where
the (usually small) answer key set is bulk-decoded.

It keeps the contract of the reference interpreter
:class:`repro.engine.executor.Executor` (same constructor, same ``run``):

* per-node observability — ``executor.{ops,rows,ms}.<Op>``
  counters/histograms under telemetry, ``NodeActuals`` per pipeline
  step when a recorder is attached.  A step fused from several plan
  nodes records under the outermost one; :meth:`CompiledPlan.fused_into`
  names that owner for every node fusion swallowed, which is how
  EXPLAIN ANALYZE reports them;
* budget semantics — ``CancelToken.consume_rows`` per materialized
  step, so row budgets and deadlines trip at the operator that blew up;
* the semijoin pre-filter policy — ``semijoin_filtering`` plus the
  :data:`~repro.engine.executor.SEMIJOIN_THRESHOLD` size gate, counted
  in ``ExecutionStats.semijoin_filters`` — applied at run time so one
  cached pipeline serves every engine configuration.

Answer-set agreement with the reference interpreter and the naive
evaluator is held by the tier-1 tests and the conformance campaign.
"""

from __future__ import annotations

import time
import weakref
from typing import MutableMapping

from repro.resilience.budget import CancelToken
from repro.engine.columnar.codec import codec_for
from repro.engine.columnar.compile import CompiledPlan, PipelineNode, compile_plan
from repro.engine.executor import (
    SEMIJOIN_THRESHOLD,
    ExecutionStats,
    NodeActuals,
)
from repro.engine.plan import Plan
from repro.eval.algebra import Relation
from repro.structures.structure import Element, Structure
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.metrics import histogram as _histogram
from repro.telemetry.tracer import is_enabled as _telemetry_enabled

__all__ = ["ColumnarExecutor"]


class ColumnarExecutor:
    """Execute compiled kernel pipelines against one structure and domain."""

    def __init__(
        self,
        structure: Structure,
        domain: tuple[Element, ...],
        stats: ExecutionStats | None = None,
        recorder: MutableMapping[int, NodeActuals] | None = None,
        semijoin_filtering: bool = True,
        cancel_token: CancelToken | None = None,
    ) -> None:
        self.structure = structure
        self.domain = domain
        self.stats = stats if stats is not None else ExecutionStats()
        self.recorder = recorder
        self.semijoin_filtering = semijoin_filtering
        self.cancel_token = cancel_token

    def run(self, plan: Plan) -> Relation:
        compiled = self._compiled(plan)
        keys = self._exec(compiled.root)
        recorder = self.recorder
        if recorder is not None and compiled.root.plan_id != id(plan):
            # Compilation dropped the root itself (identity projection,
            # double complement): its output is the root step's output.
            recorder[id(plan)] = recorder[compiled.root.plan_id]
        rows = compiled.codec.decode_rows(keys, plan.arity, compiled.packed)
        return Relation._make(plan.attributes, rows)

    def fused_into(self, plan: Plan) -> dict[int, Plan]:
        """:meth:`CompiledPlan.fused_into` for this executor's pipeline."""
        return self._compiled(plan).fused_into(plan)

    # -- pipeline cache -------------------------------------------------------

    def _compiled(self, plan: Plan) -> CompiledPlan:
        key = ("columnar-pipeline", id(plan), self.domain)
        compiled = self.structure._cache.get(key)
        if compiled is None or compiled.plan() is not plan:
            compiled = self._compile(plan)
            self._store(key, plan, compiled)
        elif compiled.epoch != self.structure.epoch:
            compiled = self._refresh(plan, compiled, key)
        return compiled

    def _store(self, key: tuple, plan: Plan, compiled: CompiledPlan) -> None:
        """Cache ``compiled`` on the structure for the lifetime of ``plan``.

        The entry holds the plan only weakly; when the plan dies (the
        engine's plan cache evicted it, or an ad-hoc caller dropped it)
        the weakref callback removes the entry, so the pipelines cached
        on a structure never outnumber the live plans.
        """
        structure_ref = weakref.ref(self.structure)

        def evict(dead: weakref.ref) -> None:
            structure = structure_ref()
            if structure is not None:
                entry = structure._cache.get(key)
                if entry is not None and entry.plan is dead:
                    structure._cache.pop(key, None)

        compiled.plan = weakref.ref(plan, evict)
        self.structure._cache[key] = compiled

    def _refresh(
        self, plan: Plan, compiled: CompiledPlan, key: tuple
    ) -> CompiledPlan:
        """Bring a cached pipeline forward across structure updates.

        The cheap path: the delta log covers the gap and ``codec_for``
        patched the same codec object the pipeline compiled against — the
        generated kernels read the patched columns directly, so only the
        leaf memos of relations the deltas touched are dropped
        (:meth:`CompiledPlan.refresh`).  If the codec had to be rebuilt
        (log outrun, foreign codec), the captured column references are
        orphaned and the whole pipeline is recompiled.
        """
        structure = self.structure
        deltas = structure.deltas_since(compiled.epoch)
        codec = codec_for(structure, self.domain)
        if deltas is None or codec is not compiled.codec:
            compiled = self._compile(plan)
            self._store(key, plan, compiled)
            return compiled
        compiled.refresh(deltas, structure.epoch)
        if _telemetry_enabled():
            _counter("columnar.pipeline.refreshes").inc()
        return compiled

    def _compile(self, plan: Plan) -> CompiledPlan:
        if not _telemetry_enabled():
            return compile_plan(plan, self.structure, self.domain)
        start = time.perf_counter()
        compiled = compile_plan(plan, self.structure, self.domain)
        _counter("columnar.pipeline.compiles").inc()
        _histogram("columnar.compile.ms").observe(
            (time.perf_counter() - start) * 1000.0
        )
        return compiled

    # -- interpretation -------------------------------------------------------

    def _exec(self, node: PipelineNode) -> set:
        token = self.cancel_token
        recorder = self.recorder
        if recorder is None and not _telemetry_enabled():
            rows = self._apply(node)
            if token is not None:
                token.consume_rows(len(rows), node.kind)
            return rows
        start = time.perf_counter()
        rows = self._apply(node)
        elapsed = time.perf_counter() - start
        if token is not None:
            token.consume_rows(len(rows), node.kind)
        if _telemetry_enabled():
            kind = node.kind
            _counter(f"executor.ops.{kind}").inc()
            _counter(f"executor.rows.{kind}").inc(len(rows))
            _histogram(f"executor.ms.{kind}").observe(elapsed * 1000.0)
            _counter(f"columnar.kernel.{kind}").inc()
        if recorder is not None:
            recorder[node.plan_id] = NodeActuals(rows=len(rows), seconds=elapsed)
        return rows

    def _apply(self, node: PipelineNode) -> set:
        stats = self.stats
        children = node.children
        if not children:
            # Leaves (scans, domain columns, constant sets) depend only
            # on the immutable structure and the pipeline's domain:
            # materialize once, reuse the set on every execution.
            rows = node.cache
            if rows is None:
                rows = node.fn()
                node.cache = rows
        elif node.kind == "Join":
            left = self._exec(children[0])
            right = self._exec(children[1])
            stats.joins += 1
            if (
                node.shared
                and self.semijoin_filtering
                and len(left) > SEMIJOIN_THRESHOLD
                and len(right) > SEMIJOIN_THRESHOLD
            ):
                stats.semijoin_filters += 1
                before = max(len(left), len(right))
                if len(left) >= len(right):
                    left = node.semi_left(left, right)
                    after = len(left)
                else:
                    right = node.semi_right(right, left)
                    after = len(right)
                if _telemetry_enabled():
                    _counter("executor.semijoin.filters").inc()
                    _counter("executor.semijoin.rows_filtered").inc(before - after)
            rows = node.fn(left, right)
        elif node.kind == "AntiJoin":
            stats.antijoins += 1
            rows = node.fn(self._exec(children[0]), self._exec(children[1]))
        else:
            rows = node.fn(*[self._exec(child) for child in children])
        stats.rows_materialized += len(rows)
        return rows
