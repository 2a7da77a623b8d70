"""Plan → pipeline compilation: costed plan trees to generated closures.

:func:`compile_plan` walks a planner tree bottom-up and builds one
:class:`PipelineNode` per *materialized* operator, where each node's
``fn`` is a kernel closure generated by
:mod:`repro.engine.columnar.kernels` — so executing the pipeline is a
tree of direct calls with zero per-node ``isinstance`` dispatch and zero
intermediate :class:`~repro.eval.algebra.Relation` allocation.

Fusion collapses nodes the reference interpreter materializes separately:

* ``Project(Join)`` — the projection becomes the join kernel's emit
  expression, so the joined row never exists; only the projected key is
  ever built (π fused into the probe loop);
* ``Project(AtomScan)`` — composed into the scan's emit positions;
* identity ``Project`` — dropped entirely;
* identity ``AtomScan`` (no pins, no equalities, column order untouched)
  — becomes a reference to the codec's cached packed relation: a scan
  with zero per-row work after the first execution.

The compiled pipeline is specific to one (structure, domain) pair:
constants are resolved to ids at compile time, strides are inlined into
the generated sources, and the whole tree is cached on the structure by
the columnar executor, so re-running a cached plan pays only kernel
calls.
"""

from __future__ import annotations

import weakref
from typing import Callable

from repro.errors import EvaluationError
from repro.engine.columnar import kernels
from repro.engine.columnar.codec import DomainCodec, codec_for
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
    join_attributes,
)
from repro.structures.structure import Element, Structure

__all__ = ["PipelineNode", "CompiledPlan", "compile_plan"]


class PipelineNode:
    """One materialized step of a compiled pipeline.

    ``fn`` consumes the children's key sets and returns this node's key
    set; ``kind`` names the primary operator (the fused ``Project(Join)``
    keeps kind ``"Join"``) for stats and telemetry; ``plan_id`` is the
    ``id()`` of the outermost plan node this step realizes, which is what
    EXPLAIN recorders key on (an id, not the node: a cached pipeline must
    not keep its plan alive, see :class:`CompiledPlan`). Join nodes
    additionally carry the two semijoin pre-filter kernels — whether to
    apply them is the *executor's* runtime decision (it depends on
    engine configuration and input sizes), so one cached pipeline serves
    every configuration.

    ``cache`` memoizes *leaf* results: a leaf's output depends only on
    the structure at the pipeline's epoch and the pipeline's fixed
    domain, so the executor materializes it once per compiled pipeline
    and reuses the set on every later execution — scans become indexes,
    like the codec's cached packed relations. Interior nodes are never
    memoized here; whole-answer reuse is the engine answer cache's job.

    ``relation`` names the base relation a leaf reads, or ``None`` for
    leaves derived from the domain and constants alone (DomainColumn,
    Diagonal, ConstEq, …).  It is the invalidation key of the delta
    path: after an update the executor clears the memo of exactly the
    scan leaves whose relation a delta touched and keeps the rest.
    """

    __slots__ = (
        "plan_id",
        "kind",
        "fn",
        "children",
        "shared",
        "semi_left",
        "semi_right",
        "cache",
        "relation",
    )

    def __init__(
        self,
        plan: Plan,
        kind: str,
        fn: Callable,
        children: tuple["PipelineNode", ...] = (),
        shared: bool = False,
        semi_left: Callable | None = None,
        semi_right: Callable | None = None,
        relation: str | None = None,
    ) -> None:
        self.plan_id = id(plan)
        self.kind = kind
        self.fn = fn
        self.children = children
        self.shared = shared
        self.semi_left = semi_left
        self.semi_right = semi_right
        self.cache: set | None = None
        self.relation = relation


class CompiledPlan:
    """A plan compiled against one (structure, domain): root + codec.

    ``plan`` is a weak reference to the compiled plan: the executor's
    pipeline cache keys by ``id(plan)`` and evicts the entry when the
    plan dies, so a pipeline lives exactly as long as the plan-cache
    entry that owns its plan.

    ``epoch`` stamps the structure state the leaf memos were (or will
    be) materialized against.  The executor compares it on every fetch:
    a mismatch routes through :meth:`refresh`, which drops exactly the
    leaf memos whose relation the interim deltas touched (the generated
    kernels themselves read the codec's patched columns, so they never
    go stale), then re-stamps.
    """

    __slots__ = ("plan", "root", "codec", "packed", "epoch")

    def __init__(
        self, plan: Plan, root: PipelineNode, codec: DomainCodec, packed: bool
    ) -> None:
        self.plan = weakref.ref(plan)
        self.root = root
        self.codec = codec
        self.packed = packed
        self.epoch = codec.epoch

    def refresh(self, deltas: list[tuple[str, str, tuple]], epoch: int) -> None:
        """Invalidate leaf memos touched by ``deltas``; re-stamp ``epoch``."""
        touched = {relation for _, relation, _ in deltas}
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(node.children)
            elif node.relation in touched:
                node.cache = None
        self.epoch = epoch

    def fused_into(self, plan: Plan) -> dict[int, Plan]:
        """Where each plan node without a pipeline step of its own went.

        Maps ``id()`` of every node of ``plan`` that fusion folded away
        (the ``Join`` under a fused projection, a dropped identity
        ``Project``, the ``Union`` under a De Morgan complement, ...) to
        its nearest ancestor that does own a step — the node whose
        recorded actuals include its work.  The root always counts as a
        step: the executor records the root's actuals even when
        compilation dropped the root node itself.
        """
        steps = {id(plan)}
        stack = [self.root]
        while stack:
            node = stack.pop()
            steps.add(node.plan_id)
            stack.extend(node.children)
        fused: dict[int, Plan] = {}
        pending = [(plan, plan)]
        while pending:
            node, owner = pending.pop()
            for child in node.children():
                if id(child) in steps:
                    pending.append((child, child))
                else:
                    fused[id(child)] = owner
                    pending.append((child, owner))
        return fused


def _walk(plan: Plan):
    yield plan
    for child in plan.children():
        yield from _walk(child)


def compile_plan(
    plan: Plan, structure: Structure, domain: tuple[Element, ...]
) -> CompiledPlan:
    """Compile ``plan`` into a kernel pipeline over integer-coded rows.

    The row encoding is chosen once per plan: packed single-int keys
    when every node's arity fits :data:`~repro.engine.columnar.codec.PACK_MAX_ARITY`
    (and the mixed-radix key fits a machine word), tuple-of-int keys
    otherwise — mixing encodings inside one plan would force conversions
    at exactly the operator boundaries fusion removes.
    """
    codec = codec_for(structure, domain)
    max_arity = max(node.arity for node in _walk(plan))
    packed = codec.can_pack(max_arity)
    root = _Builder(structure, codec, packed).build(plan)
    return CompiledPlan(plan, root, codec, packed)


class _Builder:
    def __init__(self, structure: Structure, codec: DomainCodec, packed: bool) -> None:
        self.structure = structure
        self.codec = codec
        self.packed = packed
        self.base = codec.base
        #: the key of the empty row — what 0-ary truth materializes as.
        self.nullk = 0 if packed else ()

    # -- dispatch -------------------------------------------------------------

    def build(self, plan: Plan) -> PipelineNode:
        if isinstance(plan, AtomScan):
            return self._scan(plan)
        if isinstance(plan, Project):
            return self._project(plan)
        if isinstance(plan, Join):
            return self._join(plan)
        if isinstance(plan, AntiJoin):
            return self._antijoin(plan)
        if isinstance(plan, Complement):
            child = plan.child
            if isinstance(child, Complement):
                # ¬¬X = X: every pipeline set lives inside domain^arity,
                # so double complements cancel exactly.
                return self.build(child.child)
            if isinstance(child, Union):
                fused = self._complement_union(plan, child)
                if fused is not None:
                    return fused
            fn = kernels.build_complement(
                plan.arity, self.base, self.packed, self.codec.universes
            )
            return PipelineNode(plan, "Complement", fn, (self.build(child),))
        if isinstance(plan, Extend):
            return self._extend(plan)
        if isinstance(plan, Union):
            for part in plan.parts:
                if part.attributes != plan.attributes:
                    raise EvaluationError(
                        f"union part attributes {part.attributes} != {plan.attributes}"
                    )
            return PipelineNode(
                plan,
                "Union",
                kernels.build_union(),
                tuple(self.build(part) for part in plan.parts),
            )
        if isinstance(plan, NullaryTruth):
            return self._constant(plan, "NullaryTruth", plan.truth)
        if isinstance(plan, DomainColumn):
            if self.packed:
                rows: frozenset = frozenset(range(self.base))
            else:
                rows = frozenset((ident,) for ident in range(self.base))
            return PipelineNode(plan, "DomainColumn", lambda: rows)
        if isinstance(plan, Diagonal):
            if self.packed:
                stride = self.base + 1  # id·n + id
                diag: frozenset = frozenset(ident * stride for ident in range(self.base))
            else:
                diag = frozenset((ident, ident) for ident in range(self.base))
            return PipelineNode(plan, "Diagonal", lambda: diag)
        if isinstance(plan, ConstEq):
            ident = self.codec.encode(self.structure.constant(plan.constant))
            if ident is None:
                return self._constant(plan, "ConstEq", False)
            single: frozenset = frozenset({ident} if self.packed else {(ident,)})
            return PipelineNode(plan, "ConstEq", lambda: single)
        if isinstance(plan, ConstPair):
            truth = self.structure.constant(plan.left) == self.structure.constant(
                plan.right
            )
            return self._constant(plan, "ConstPair", truth)
        raise EvaluationError(f"unknown plan node {plan!r}")

    def _constant(self, plan: Plan, kind: str, truth: bool) -> PipelineNode:
        rows: frozenset = frozenset({self.nullk}) if truth else frozenset()
        return PipelineNode(plan, kind, lambda: rows)

    # -- operators ------------------------------------------------------------

    def _scan(self, scan: AtomScan, out_plan: Plan | None = None) -> PipelineNode:
        """σπ-fused scan, with a parent Project composed in when given."""
        structure, codec = self.structure, self.codec
        target = out_plan if out_plan is not None else scan
        raw_arity = structure.signature.arity(scan.relation)
        pins: list[tuple[int, int]] = []
        dead = False
        for position, name in scan.const_selects:
            ident = codec.encode(structure.constant(name))
            if ident is None:
                # Constant outside the domain: under active-domain
                # semantics no relation row can mention it either.
                dead = True
                break
            pins.append((position, ident))
        if dead:
            return PipelineNode(target, "AtomScan", lambda: set())
        if raw_arity == 0:
            # Truth is read at execution time (not baked in at compile
            # time) so the delta path can revalidate a nullary scan by
            # clearing its leaf memo like any other relation leaf.
            nullary, nullk = scan.relation, self.nullk
            return PipelineNode(
                target,
                "AtomScan",
                lambda: frozenset({nullk})
                if structure.tuples(nullary)
                else frozenset(),
                relation=nullary,
            )
        name_to_raw = {name: position for position, name in scan.projection}
        positions = tuple(name_to_raw[attribute] for attribute in target.attributes)
        identity = (
            not pins
            and not scan.equalities
            and positions == tuple(range(raw_arity))
        )
        if identity and self.packed:
            relation = scan.relation
            return PipelineNode(
                target,
                "AtomScan",
                lambda: codec.packed_relation(relation),
                relation=relation,
            )
        columns = codec.columns(scan.relation)
        if identity:
            return PipelineNode(
                target,
                "AtomScan",
                lambda: set(zip(*columns)),
                relation=scan.relation,
            )
        kernel = kernels.build_scan(
            raw_arity,
            tuple(pins),
            scan.equalities,
            positions,
            self.base,
            self.packed,
        )
        return PipelineNode(
            target, "AtomScan", lambda: kernel(columns), relation=scan.relation
        )

    def _constant_scan(self, plan: Plan, truth: bool) -> PipelineNode:
        rows: frozenset = frozenset({self.nullk}) if truth else frozenset()
        return PipelineNode(plan, "AtomScan", lambda: rows)

    def _project(self, plan: Project) -> PipelineNode:
        child = plan.child
        if plan.attributes == child.attributes:
            return self.build(child)
        if isinstance(child, Join):
            return self._join(child, out_plan=plan)
        if isinstance(child, AtomScan):
            return self._scan(child, out_plan=plan)
        if isinstance(child, Extend) and self.packed:
            fused = self._extend_insert(plan, child)
            if fused is not None:
                return fused
        positions = tuple(
            child.attributes.index(attribute) for attribute in plan.attributes
        )
        fn = kernels.build_project(positions, child.arity, self.base, self.packed)
        return PipelineNode(plan, "Project", fn, (self.build(child),))

    def _join(self, join: Join, out_plan: Plan | None = None) -> PipelineNode:
        left, right = join.left, join.right
        lattrs, rattrs = left.attributes, right.attributes
        shared_names = [a for a in lattrs if a in rattrs]
        left_shared = tuple(lattrs.index(a) for a in shared_names)
        right_shared = tuple(rattrs.index(a) for a in shared_names)
        right_extras = tuple(
            position for position, a in enumerate(rattrs) if a not in lattrs
        )
        target = out_plan if out_plan is not None else join
        projection: tuple[tuple[str, int], ...] | None = None
        if target.attributes != join_attributes(lattrs, rattrs):
            projection = tuple(
                ("l", lattrs.index(a)) if a in lattrs else ("r", rattrs.index(a))
                for a in target.attributes
            )
        fn = kernels.build_join(
            len(lattrs),
            len(rattrs),
            left_shared,
            right_shared,
            right_extras,
            self.base,
            self.packed,
            projection,
        )
        semi_left = semi_right = None
        if shared_names:
            semi_left = kernels.build_half_join(
                len(lattrs), len(rattrs), left_shared, right_shared,
                self.base, self.packed, True,
            )
            semi_right = kernels.build_half_join(
                len(rattrs), len(lattrs), right_shared, left_shared,
                self.base, self.packed, True,
            )
        return PipelineNode(
            target,
            "Join",
            fn,
            (self.build(left), self.build(right)),
            shared=bool(shared_names),
            semi_left=semi_left,
            semi_right=semi_right,
        )

    def _antijoin(self, plan: AntiJoin) -> PipelineNode:
        left, right = plan.left, plan.right
        if plan.attributes != left.attributes:
            raise EvaluationError(
                f"antijoin attributes {plan.attributes} != left {left.attributes}"
            )
        lattrs, rattrs = left.attributes, right.attributes
        shared_names = [a for a in lattrs if a in rattrs]
        fn = kernels.build_half_join(
            len(lattrs),
            len(rattrs),
            tuple(lattrs.index(a) for a in shared_names),
            tuple(rattrs.index(a) for a in shared_names),
            self.base,
            self.packed,
            False,
        )
        return PipelineNode(
            plan, "AntiJoin", fn, (self.build(left), self.build(right))
        )

    def _complement_union(
        self, plan: Complement, union: Union
    ) -> PipelineNode | None:
        """De Morgan fusion: ``¬(P₁ ∪ … ∪ Pₖ) = ¬Pᵢ ∖ P₁ ∖ … ∖ Pₖ``.

        Applies when some part ``Pᵢ`` has a *cheap* negation — it is a
        complement (so ``¬Pᵢ`` is its child), or a cylinder of a
        complement (``Extend``/``Project∘Extend`` over ``Complement(X)``,
        whose negation is the cylinder of ``X``: a key avoids every
        slice of the cylinder iff its child digits avoid ``¬X``). The
        ∀-as-¬∃¬ pattern produces exactly this shape, and the fusion
        replaces a domain^k materialization plus a full-universe
        difference with one ``set.difference`` over the small side.
        """
        for pick, part in enumerate(union.parts):
            negated = self._negated(part, plan)
            if negated is None:
                continue
            others = tuple(
                self.build(other)
                for position, other in enumerate(union.parts)
                if position != pick
            )

            def fn(base: set, *rest: set) -> set:
                return base.difference(*rest)

            return PipelineNode(plan, "Complement", fn, (negated,) + others)
        return None

    def _negated(self, part: Plan, owner: Complement) -> PipelineNode | None:
        """A pipeline computing ``¬part``, when that is cheap — else None.

        The cylinder step computes ``¬part``, which no plan node denotes,
        so it records under ``owner`` (the fused complement); the owner's
        own step runs later and overwrites that entry, leaving ``part``
        and its ``Extend``/``Complement`` reported as fused into it.
        """
        if isinstance(part, Complement):
            return self.build(part.child)
        if isinstance(part, Project) and isinstance(part.child, Extend):
            extend = part.child
        elif isinstance(part, Extend):
            extend = part
        else:
            return None
        if not self.packed or not isinstance(extend.child, Complement):
            return None
        inner = extend.child.attributes
        new = extend.new_attributes
        for insert_at in range(len(inner) + 1):
            if part.attributes == inner[:insert_at] + new + inner[insert_at:]:
                fn = kernels.build_extend_insert(
                    len(inner), len(new), insert_at, self.base
                )
                return PipelineNode(
                    owner, "Extend", fn, (self.build(extend.child.child),)
                )
        return None

    def _extend_insert(self, plan: Project, extend: Extend) -> PipelineNode | None:
        """Fuse ``Project(Extend(child))`` into one strided-range kernel.

        Applies when the projection keeps the extend child's attributes
        in their original order and splices ``new_attributes`` in (still
        in order) as one contiguous block — the shape the planner emits
        when aligning union branches. Returns ``None`` for any other
        permutation, which falls back to the generic project kernel.
        """
        inner = extend.child.attributes
        new = extend.new_attributes
        for insert_at in range(len(inner) + 1):
            if plan.attributes == inner[:insert_at] + new + inner[insert_at:]:
                fn = kernels.build_extend_insert(
                    len(inner), len(new), insert_at, self.base
                )
                return PipelineNode(plan, "Extend", fn, (self.build(extend.child),))
        return None

    def _extend(self, plan: Extend) -> PipelineNode:
        child = plan.child
        if plan.attributes != child.attributes + plan.new_attributes:
            raise EvaluationError(
                f"extend attributes {plan.attributes} do not append "
                f"{plan.new_attributes} to {child.attributes}"
            )
        fn = kernels.build_extend(
            child.arity, len(plan.new_attributes), self.base, self.packed
        )
        return PipelineNode(plan, "Extend", fn, (self.build(child),))
