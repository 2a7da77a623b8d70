"""The reference interpreter for tests and benchmarks: plans → :class:`Relation`.

Production never runs this module's :class:`Executor` — the engine
executes every plan on :class:`repro.engine.columnar.executor.ColumnarExecutor`.
It stays as the plain row-at-a-time reading of a plan (one
:class:`Relation` per node, no compilation, no fusion) that tests and
``benchmarks/bench_engine.py`` compare the columnar tier against, and it
owns the shared vocabulary both executors use: :class:`ExecutionStats`,
:class:`NodeActuals` and :data:`SEMIJOIN_THRESHOLD`.

Joins are hash-based (via :meth:`Relation.join`) with a semijoin
pre-filter: when both inputs are large and share attributes, the bigger
side is first reduced to the rows that can possibly match. Negative
conjuncts execute as hash antijoins, so safe negation never
materializes a domain complement. Passing a ``recorder`` dict stores a
:class:`NodeActuals` (output rows, inclusive seconds) per plan node,
keyed by ``id(node)``; with telemetry enabled every node execution also
feeds ``executor.rows.<Op>`` / ``executor.ms.<Op>``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import MutableMapping

from repro.errors import EvaluationError
from repro.resilience.budget import CancelToken
from repro.engine.plan import (
    AntiJoin,
    AtomScan,
    Complement,
    ConstEq,
    ConstPair,
    Diagonal,
    DomainColumn,
    Extend,
    Join,
    NullaryTruth,
    Plan,
    Project,
    Union,
)
from repro.eval.algebra import Relation
from repro.structures.structure import Element, Structure
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.metrics import histogram as _histogram
from repro.telemetry.tracer import is_enabled as _telemetry_enabled

__all__ = ["Executor", "ExecutionStats", "NodeActuals"]

#: Minimum input size before a join bothers with a semijoin pre-filter.
SEMIJOIN_THRESHOLD = 64


@dataclass
class ExecutionStats:
    """Row counters for one (or several) plan executions."""

    rows_materialized: int = 0
    joins: int = 0
    semijoin_filters: int = 0
    antijoins: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "rows_materialized": self.rows_materialized,
            "joins": self.joins,
            "semijoin_filters": self.semijoin_filters,
            "antijoins": self.antijoins,
        }

    def _observe(self, relation: Relation) -> Relation:
        self.rows_materialized += len(relation)
        return relation


@dataclass(frozen=True)
class NodeActuals:
    """What one plan node actually did: output rows and inclusive seconds.

    ``seconds`` covers the node *and* its children (EXPLAIN ANALYZE's
    convention for tree rendering); subtract child times for exclusive
    cost.
    """

    rows: int
    seconds: float

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1000.0


class Executor:
    """Execute plans against one structure and quantification domain."""

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
        self._domain_set = frozenset(domain)
        self.stats = stats if stats is not None else ExecutionStats()
        self.recorder = recorder
        # The engine turns the pre-filter off for trivially small plans,
        # where building the extra hash sets costs more than it saves.
        self.semijoin_filtering = semijoin_filtering
        # Budget enforcement: checked once per operator batch (every plan
        # node), with materialized rows charged against the row budget —
        # a join that blows up trips the budget at the operator that
        # produced it, not after the fact.
        self.cancel_token = cancel_token

    def run(self, plan: Plan) -> Relation:
        relation = self._run(plan)
        if relation.attributes != plan.attributes:  # pragma: no cover - invariant
            raise EvaluationError(
                f"executor produced {relation.attributes}, plan promised {plan.attributes}"
            )
        return relation

    def _run(self, plan: Plan) -> Relation:
        token = self.cancel_token
        recorder = self.recorder
        if recorder is None and not _telemetry_enabled():
            relation = self._execute(plan)
            if token is not None:
                token.consume_rows(len(relation), plan.__class__.__name__)
            return relation
        start = time.perf_counter()
        relation = self._execute(plan)
        elapsed = time.perf_counter() - start
        if token is not None:
            token.consume_rows(len(relation), plan.__class__.__name__)
        if _telemetry_enabled():
            kind = plan.__class__.__name__
            _counter(f"executor.ops.{kind}").inc()
            _counter(f"executor.rows.{kind}").inc(len(relation))
            _histogram(f"executor.ms.{kind}").observe(elapsed * 1000.0)
        if recorder is not None:
            recorder[id(plan)] = NodeActuals(rows=len(relation), seconds=elapsed)
        return relation

    def _execute(self, plan: Plan) -> Relation:
        observe = self.stats._observe
        if isinstance(plan, AtomScan):
            return observe(self._scan(plan))
        if isinstance(plan, NullaryTruth):
            return observe(Relation.nullary(plan.truth))
        if isinstance(plan, DomainColumn):
            return observe(
                Relation(plan.attributes, frozenset((d,) for d in self.domain))
            )
        if isinstance(plan, Diagonal):
            return observe(
                Relation(plan.attributes, frozenset((d, d) for d in self.domain))
            )
        if isinstance(plan, ConstEq):
            value = self.structure.constant(plan.constant)
            rows = frozenset({(value,)} if value in self._domain_set else set())
            return observe(Relation(plan.attributes, rows))
        if isinstance(plan, ConstPair):
            left = self.structure.constant(plan.left)
            right = self.structure.constant(plan.right)
            return observe(Relation.nullary(left == right))
        if isinstance(plan, Join):
            return observe(self._join(plan))
        if isinstance(plan, AntiJoin):
            self.stats.antijoins += 1
            left = self._run(plan.left)
            right = self._run(plan.right)
            return observe(left.antijoin(right))
        if isinstance(plan, Project):
            return observe(self._run(plan.child).project(plan.attributes))
        if isinstance(plan, Complement):
            return observe(self._run(plan.child).complement(self.domain))
        if isinstance(plan, Extend):
            return observe(
                self._run(plan.child).extend_columns(plan.new_attributes, self.domain)
            )
        if isinstance(plan, Union):
            # One result set filled from every part — pairwise
            # Relation.union would re-hash the accumulated rows once per
            # part (quadratic for wide unions).
            rows: set[tuple] = set()
            for part in plan.parts:
                relation = self._run(part)
                if relation.attributes != plan.attributes:
                    raise EvaluationError(
                        f"union part produced {relation.attributes}, "
                        f"expected {plan.attributes}"
                    )
                rows.update(relation.rows)
            return observe(Relation._make(plan.attributes, frozenset(rows)))
        raise EvaluationError(f"unknown plan node {plan!r}")

    def _scan(self, plan: AtomScan) -> Relation:
        rows = self.structure.tuples(plan.relation)
        if plan.const_selects:
            pins = [
                (position, self.structure.constant(name))
                for position, name in plan.const_selects
            ]
            rows = {r for r in rows if all(r[i] == v for i, v in pins)}
        if plan.equalities:
            rows = {
                r for r in rows if all(r[i] == r[j] for i, j in plan.equalities)
            }
        indices = [position for position, _ in plan.projection]
        return Relation(
            plan.attributes, frozenset(tuple(r[i] for i in indices) for r in rows)
        )

    def _join(self, plan: Join) -> Relation:
        self.stats.joins += 1
        left = self._run(plan.left)
        right = self._run(plan.right)
        shared = [a for a in left.attributes if a in right.attributes]
        if (
            shared
            and self.semijoin_filtering
            and len(left) > SEMIJOIN_THRESHOLD
            and len(right) > SEMIJOIN_THRESHOLD
        ):
            # Reduce the bigger side to the rows that can find a partner
            # before building the join output.
            self.stats.semijoin_filters += 1
            before = max(len(left), len(right))
            if len(left) >= len(right):
                left = left.semijoin(right)
                after = len(left)
            else:
                right = right.semijoin(left)
                after = len(right)
            if _telemetry_enabled():
                _counter("executor.semijoin.filters").inc()
                _counter("executor.semijoin.rows_filtered").inc(before - after)
        joined = left.join(right)
        if joined.attributes != plan.attributes:
            joined = joined.project(plan.attributes)
        return joined
