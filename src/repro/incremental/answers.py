"""Cached-answer maintenance for quantifier-free AND quantified queries.

A cached answer set ans(φ, A) can be *patched* under a tuple delta
instead of recomputed.  Three tiers, in decreasing order of strength:

**Quantifier-free** (the original tier).  Whether ā ∈ ans(φ, A) depends
only on which atoms of φ hold of ā — and a delta (op, R, t) can only
flip the truth of an R-atom R(τ̄) on assignments where τ̄ evaluates to
exactly t.  Unifying each R-atom's term tuple against t therefore
enumerates a *complete* candidate set; each candidate is verified
point-wise and spliced into the cached set.

**Local existential** (Kazana–Segoufin style, arXiv:1105.3583).  For
φ(x) = ∃y₁…y_k ψ with ψ quantifier-free and every yᵢ *anchored* — each
witness variable reachable from x in the variable co-occurrence graph
built from atoms guaranteed to hold in any satisfying assignment — every
witness tuple lies inside the Gaifman ball B_k(x).  The verdict of a is
therefore a function of B_k(a) and of the rows over {a} ∪ B_k(a), so
after a batch of deltas only elements in the radius-k ball around the
touched elements (in the *patched* graph — the same dirty-set lemma the
census index proves in :mod:`repro.incremental.census`) can change
verdict, and each is re-decided by quantifying over its ball instead of
the universe.  On bounded-degree structures this is O(deltas), the
bounded-degree delta algorithm the ROADMAP asks for.

**Hanf census gate** (general rank-q, at most one free variable).  For
arbitrary quantified φ(x) of rank q, A ⊨ φ(a) iff the *marked* structure
(A, {a}) satisfies the rank-(q+1) sentence ∃x (P(x) ∧ φ(x)); by Hanf
locality (Libkin, *Elements of Finite Model Theory*, Thm 4.12) that
sentence is determined by the exact multiset of radius-r ball types of
(A, {a}) with r = (3^{q+1} − 1)/2.  That census decomposes as

    census_r(A, {a}) = census_r(A)
                       − {unmarked types of b ∈ B_r(a)}
                       + {marked types of b ∈ B_r(a)},

and both correction terms are determined by the isomorphism type of the
*pointed* ball (B_2r(a), a): every B_r(b) with d(a, b) ≤ r lies inside
B_2r(a), and every path of length ≤ r from b stays inside it, so the
induced substructure is distance-faithful up to r.  Hence the

    **verdict-transfer rule**: equal census fingerprint at radius r and
    equal pointed ball key at radius 2r  ⟹  equal verdict

— sound for *all* finite structures (degree bounds only gate the cost).
The record keeps every element's pointed key, the census fingerprint,
and a (key, fingerprint) → verdict cache, so a delta re-keys only the
dirty ball and re-evaluates at most one representative per new class.

All tiers share the commit-at-end discipline: nothing in the record is
mutated until the whole patch has been computed, so a candidate/dirty
overflow, an injected fault, or a mid-patch budget expiry leaves the
record exactly as it was (the ``incremental.answers.fallback`` counter
makes the recompute escape hatch visible).
"""

from __future__ import annotations

import itertools
from collections import Counter, OrderedDict, deque

from repro.errors import FMTError
from repro.eval.evaluator import evaluate as naive_evaluate
from repro.logic.analysis import free_variables, quantifier_rank, subformulas
from repro.logic.syntax import (
    And,
    Atom,
    Const,
    Eq,
    Exists,
    Forall,
    Formula,
    Or,
    Var,
)
from repro.resilience.budget import CancelToken
from repro.resilience.faults import fault_point
from repro.structures.gaifman import ball, ball_distances, gaifman_adjacency
from repro.structures.structure import Structure, _sort_key
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.tracer import is_enabled as _telemetry_enabled
from repro.telemetry.tracer import span as _span

__all__ = [
    "AnswerIndex",
    "is_maintainable",
    "local_existential_scope",
    "hanf_scope",
    "CANDIDATE_LIMIT",
    "ANSWER_RECORDS_LIMIT",
    "LOCAL_WITNESS_LIMIT",
    "QUANT_BALL_LIMIT",
    "QUANT_WORK_LIMIT",
    "QUANT_EVAL_LIMIT",
    "VERDICT_CACHE_LIMIT",
]

#: Patch at most this many candidate answer tuples (or dirty elements)
#: per maintenance pass; above it recomputing through the planned
#: pipeline is the better deal.
CANDIDATE_LIMIT = 2048

#: How many (structure uid, query) answer records the index retains.
ANSWER_RECORDS_LIMIT = 256

#: The local-existential tier enumerates at most ``|ball|^k`` witness
#: tuples per re-decided element; past this the element's ball is too
#: dense for local evaluation to beat a recompute.
LOCAL_WITNESS_LIMIT = 4096

#: Hanf-tier promotion requires ``min(max_ball_size(degree, 2r), n)``
#: at most this large — the per-element key cost bound.
QUANT_BALL_LIMIT = 64

#: ... and ``n × ball_bound`` at most this — the total promotion cost.
QUANT_WORK_LIMIT = 250_000

#: At most this many representative evaluations per Hanf-tier patch.
QUANT_EVAL_LIMIT = 256

#: (key, fingerprint) → verdict entries retained per Hanf record.
VERDICT_CACHE_LIMIT = 4096

#: How many formula → scope classifications the index memoizes.
_SCOPE_CACHE_LIMIT = 512


def is_maintainable(formula: Formula) -> bool:
    """Whether the formula is quantifier-free (the strongest tier)."""
    return not any(
        isinstance(node, (Exists, Forall)) for node in subformulas(formula)
    )


# -- scope classification -----------------------------------------------------


class _LocalScope:
    """φ(x) = ∃ȳ ψ with every witness variable anchored to x."""

    __slots__ = ("name", "witnesses", "body", "depth")

    def __init__(self, name: str, witnesses: tuple[str, ...], body: Formula) -> None:
        self.name = name
        self.witnesses = witnesses
        self.body = body
        self.depth = len(witnesses)


class _HanfScope:
    """General rank-q formula with at most one free variable."""

    __slots__ = ("name", "radius", "key_radius")

    def __init__(self, name: str | None, radius: int, key_radius: int) -> None:
        self.name = name
        self.radius = radius
        self.key_radius = key_radius


def _mentions_const_or_nullary(formula: Formula) -> bool:
    for node in subformulas(formula):
        if isinstance(node, Atom):
            if not node.terms:
                return True
            if any(isinstance(term, Const) for term in node.terms):
                return True
        elif isinstance(node, Eq):
            if isinstance(node.left, Const) or isinstance(node.right, Const):
                return True
    return False


def _anchored_pairs(formula: Formula) -> set[frozenset]:
    """Variable pairs guaranteed Gaifman-adjacent (or equal) in every
    satisfying assignment of ``formula``.

    An atom that must hold puts all its variables within distance 1 of
    each other; an equality that must hold makes its sides coincide.
    Conjunction accumulates guarantees, disjunction keeps only the pairs
    *every* branch guarantees, and anything under a negation (or other
    connective) guarantees nothing.
    """
    if isinstance(formula, Atom):
        names = {term.name for term in formula.terms if isinstance(term, Var)}
        return {frozenset(pair) for pair in itertools.combinations(sorted(names), 2)}
    if isinstance(formula, Eq):
        if isinstance(formula.left, Var) and isinstance(formula.right, Var):
            if formula.left.name != formula.right.name:
                return {frozenset({formula.left.name, formula.right.name})}
        return set()
    if isinstance(formula, And):
        pairs: set[frozenset] = set()
        for child in formula.children:
            pairs |= _anchored_pairs(child)
        return pairs
    if isinstance(formula, Or):
        if not formula.children:
            return set()
        pairs = _anchored_pairs(formula.children[0])
        for child in formula.children[1:]:
            pairs &= _anchored_pairs(child)
        return pairs
    return set()


def local_existential_scope(formula: Formula) -> _LocalScope | None:
    """Classify φ as local-existential, or ``None`` if out of fragment.

    Requires exactly one free variable x, a pure ∃-prefix over a
    quantifier-free body with no constants or nullary atoms, distinct
    witness names, and every witness variable connected to x in the
    anchored co-occurrence graph — which bounds every witness value to
    Gaifman distance ≤ k from x (k = number of witnesses): each edge of
    an anchoring path joins values that co-occur in a row that holds.
    """
    free = free_variables(formula)
    if len(free) != 1:
        return None
    name = next(iter(free)).name
    witnesses: list[str] = []
    body: Formula = formula
    while isinstance(body, Exists):
        witnesses.append(body.var.name)
        body = body.body
    if not witnesses or not is_maintainable(body):
        return None
    if len(set(witnesses)) != len(witnesses) or name in witnesses:
        return None
    if _mentions_const_or_nullary(body):
        return None
    adjacency: dict[str, set[str]] = {}
    for pair in _anchored_pairs(body):
        a, b = tuple(pair)
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    reached = {name}
    frontier = deque([name])
    while frontier:
        for neighbor in adjacency.get(frontier.popleft(), ()):
            if neighbor not in reached:
                reached.add(neighbor)
                frontier.append(neighbor)
    if not set(witnesses) <= reached:
        return None
    return _LocalScope(name, tuple(witnesses), body)


def hanf_scope(formula: Formula) -> _HanfScope | None:
    """Classify φ for the census-gated tier, or ``None``.

    Requires at most one free variable, at least one quantifier, and a
    purely relational reading — no constants (they would be unmarked
    named points the census cannot see) and no nullary atoms (a global
    bit invisible to ball types).
    """
    from repro.locality.hanf import hanf_locality_radius

    if is_maintainable(formula):
        return None
    free = free_variables(formula)
    if len(free) > 1:
        return None
    if _mentions_const_or_nullary(formula):
        return None
    radius = hanf_locality_radius(quantifier_rank(formula) + 1)
    name = next(iter(free)).name if free else None
    return _HanfScope(name, radius, 2 * radius)


# -- records ------------------------------------------------------------------


class _LocalRecord:
    __slots__ = ("epoch", "rows", "scope")

    def __init__(self, epoch: int, rows: frozenset, scope: _LocalScope) -> None:
        self.epoch = epoch
        self.rows = rows
        self.scope = scope


class _HanfRecord:
    """``keys is None`` marks a *light* record: rows + epoch only.

    Light records cost nothing to carry; the index promotes one to a
    full record (per-element pointed keys, census counts, verdict cache)
    the first time a patch is attempted against it — so the O(n·ball)
    keying cost is paid only by workloads that actually update and
    re-query, never by one-shot evaluations.
    """

    __slots__ = (
        "epoch",
        "rows",
        "scope",
        "keys",
        "counts",
        "fingerprint",
        "verdicts",
    )

    def __init__(self, epoch: int, rows: frozenset, scope: _HanfScope) -> None:
        self.epoch = epoch
        self.rows = rows
        self.scope = scope
        self.keys: dict | None = None
        self.counts: Counter | None = None
        self.fingerprint: frozenset | None = None
        self.verdicts: dict | None = None


class _Overflow(Exception):
    """Internal: a patch exceeded its work limits; fall back, no commit."""


#: Sentinel element for sentence verdict cache entries (no free var).
_SENTENCE = "__sentence__"


class AnswerIndex:
    """Epoch-stamped answer sets, patched under the owning structure's deltas.

    Keys are ``(structure.uid, formula, order_names)`` — identity-based,
    because a mutated structure changes content hash on every delta while
    its uid names the same evolving object.  The engine's content-hash
    answer cache stays the source of truth for "have I answered this
    exact structure"; this index answers "I answered an earlier epoch of
    this object — which rows may have flipped?".
    """

    def __init__(
        self,
        capacity: int = ANSWER_RECORDS_LIMIT,
        candidate_limit: int = CANDIDATE_LIMIT,
    ) -> None:
        self.capacity = capacity
        self.candidate_limit = candidate_limit
        self._records: OrderedDict[tuple, tuple[int, frozenset]] = OrderedDict()
        self._quants: OrderedDict[tuple, _LocalRecord | _HanfRecord] = OrderedDict()
        self._scopes: dict[Formula, _LocalScope | _HanfScope | None] = {}
        self._promote_pending: set[tuple] = set()
        self.patched = 0
        self.quant_patched = 0
        self.promoted = 0
        self.fallbacks = 0

    # -- bookkeeping ----------------------------------------------------------

    def _scope(self, formula: Formula) -> _LocalScope | _HanfScope | None:
        if formula in self._scopes:
            return self._scopes[formula]
        scope = local_existential_scope(formula) or hanf_scope(formula)
        if len(self._scopes) >= _SCOPE_CACHE_LIMIT:
            self._scopes.clear()
        self._scopes[formula] = scope
        return scope

    def _trim(self, records: OrderedDict) -> None:
        while len(records) > self.capacity:
            records.popitem(last=False)

    def forget(self, structure: Structure) -> int:
        """Drop every maintained record for ``structure``; return the count.

        Backs :meth:`Engine.invalidate` — an explicit invalidation must
        force re-execution, so the maintenance layer may not answer the
        next read from a surviving record.
        """
        dropped = 0
        for records in (self._records, self._quants):
            stale = [key for key in records if key[0] == structure.uid]
            for key in stale:
                del records[key]
                self._promote_pending.discard(key)
            dropped += len(stale)
        return dropped

    def clear(self) -> None:
        self._records.clear()
        self._quants.clear()
        self._scopes.clear()
        self._promote_pending.clear()

    def _note_fallback(self) -> None:
        self.fallbacks += 1
        if _telemetry_enabled():
            _counter("incremental.answers.fallback").inc()

    # -- remember -------------------------------------------------------------

    def remember(
        self,
        structure: Structure,
        formula: Formula,
        order_names: tuple[str, ...],
        rows: frozenset,
    ) -> None:
        """Stamp ``rows`` as the answers at the structure's current epoch."""
        if is_maintainable(formula):
            key = (structure.uid, formula, order_names)
            self._records[key] = (structure.epoch, rows)
            self._records.move_to_end(key)
            self._trim(self._records)
            return
        names = tuple(sorted(var.name for var in free_variables(formula)))
        if order_names != names:
            return  # bespoke column orders never take the maintenance path
        scope = self._scope(formula)
        if scope is None:
            return
        key = (structure.uid, formula, order_names)
        if isinstance(scope, _LocalScope):
            self._quants[key] = _LocalRecord(structure.epoch, rows, scope)
        else:
            self._remember_hanf(structure, formula, key, scope, rows)
        self._quants.move_to_end(key)
        self._trim(self._quants)

    def _remember_hanf(
        self,
        structure: Structure,
        formula: Formula,
        key: tuple,
        scope: _HanfScope,
        rows: frozenset,
    ) -> None:
        record = self._quants.get(key)
        full = isinstance(record, _HanfRecord) and record.keys is not None
        if full and record.epoch == structure.epoch:
            record.rows = rows
            self._seed_verdicts(record, rows)
            return
        if full and self._advance_hanf(record, structure, rows):
            return
        if (full or key in self._promote_pending) and self._hanf_promotable(
            structure, scope
        ):
            self._promote_pending.discard(key)
            self._quants[key] = self._build_hanf(structure, scope, rows)
            self.promoted += 1
            if _telemetry_enabled():
                _counter("incremental.answers.promoted").inc()
            return
        self._promote_pending.discard(key)
        self._quants[key] = _HanfRecord(structure.epoch, rows, scope)

    def _hanf_promotable(self, structure: Structure, scope: _HanfScope) -> bool:
        from repro.locality.neighborhoods import max_ball_size

        size = structure.size
        if not size:
            return False
        adjacency = gaifman_adjacency(structure)
        degree = max((len(nbrs) for nbrs in adjacency.values()), default=0)
        bound = min(max_ball_size(degree, scope.key_radius), size)
        return bound <= QUANT_BALL_LIMIT and size * bound <= QUANT_WORK_LIMIT

    def _build_hanf(
        self, structure: Structure, scope: _HanfScope, rows: frozenset
    ) -> _HanfRecord:
        from repro.locality.neighborhoods import ball_key

        record = _HanfRecord(structure.epoch, rows, scope)
        record.keys = {
            element: ball_key(structure, (element,), scope.key_radius)
            for element in structure.universe
        }
        record.counts = Counter(record.keys.values())
        record.fingerprint = frozenset(record.counts.items())
        record.verdicts = {}
        self._seed_verdicts(record, rows)
        return record

    def _seed_verdicts(self, record: _HanfRecord, rows: frozenset) -> None:
        """Pre-populate (key, fingerprint) → verdict from known answers.

        Within one structure, equal pointed keys imply equal verdicts
        (the verdict-transfer rule with a trivially equal census), so
        every element's known membership is a valid cache entry — the
        first patch after a toggle usually needs zero evaluations.
        """
        fp = record.fingerprint
        verdicts = record.verdicts
        if verdicts is None:
            return
        if len(verdicts) >= VERDICT_CACHE_LIMIT:
            verdicts.clear()
        if record.scope.name is None:
            verdicts[(_SENTENCE, fp)] = bool(rows)
            return
        for element, key in record.keys.items():
            verdicts[(key, fp)] = (element,) in rows

    def _advance_hanf(
        self, record: _HanfRecord, structure: Structure, rows: frozenset
    ) -> bool:
        """Re-key a full record to the current epoch given fresh rows."""
        from repro.locality.neighborhoods import ball_key

        deltas = structure.deltas_since(record.epoch)
        if deltas is None or any(not row for _, _, row in deltas):
            return False
        seeds: set = set()
        for _, _, row in deltas:
            seeds.update(row)
        dirty = ball_distances(structure, seeds, record.scope.key_radius)
        if len(dirty) > self.candidate_limit:
            return False
        for element in dirty:
            new_key = ball_key(structure, (element,), record.scope.key_radius)
            old_key = record.keys[element]
            if new_key != old_key:
                record.counts[old_key] -= 1
                if not record.counts[old_key]:
                    del record.counts[old_key]
                record.counts[new_key] += 1
                record.keys[element] = new_key
        record.fingerprint = frozenset(record.counts.items())
        record.rows = rows
        record.epoch = structure.epoch
        self._seed_verdicts(record, rows)
        return True

    # -- patch ----------------------------------------------------------------

    def patch(
        self,
        structure: Structure,
        formula: Formula,
        order_names: tuple[str, ...],
        cancel_token: CancelToken | None = None,
    ) -> frozenset | None:
        """Answers at the current epoch, patched from a recorded epoch.

        Returns ``None`` when maintenance cannot apply — no record, the
        delta log has been outrun, or the work limits trip — and the
        caller recomputes (and then calls :meth:`remember`).  A budget
        expiry mid-patch raises with the record untouched (commit is a
        single block at the end of every tier).
        """
        key = (structure.uid, formula, order_names)
        record = self._records.get(key)
        if record is not None:
            return self._patch_qf(structure, formula, order_names, key, cancel_token)
        quant = self._quants.get(key)
        if quant is None:
            return None
        deltas = structure.deltas_since(quant.epoch)
        if deltas is None:
            del self._quants[key]
            self._note_fallback()
            return None
        self._quants.move_to_end(key)
        if not deltas:
            return quant.rows
        if any(not row for _, _, row in deltas):
            # A nullary flip is invisible to ball neighborhoods; the
            # record cannot be maintained across it.
            del self._quants[key]
            self._note_fallback()
            return None
        if isinstance(quant, _LocalRecord):
            return self._patch_local(structure, quant, deltas, cancel_token)
        if quant.keys is None:
            # Light record: ask the next recompute to pay the promotion.
            self._promote_pending.add(key)
            self._note_fallback()
            return None
        return self._patch_hanf(structure, formula, quant, deltas, cancel_token)

    def _patch_qf(
        self,
        structure: Structure,
        formula: Formula,
        order_names: tuple[str, ...],
        key: tuple,
        cancel_token: CancelToken | None,
    ) -> frozenset | None:
        epoch, rows = self._records[key]
        deltas = structure.deltas_since(epoch)
        if deltas is None:
            del self._records[key]
            self._note_fallback()
            return None
        self._records.move_to_end(key)
        if not deltas:
            return rows
        names = tuple(sorted(var.name for var in free_variables(formula)))
        if names != order_names:
            # Bespoke column orders never take the maintenance path —
            # candidates below are built in sorted-name order.
            return None
        candidates = _candidates(
            structure, formula, names, deltas, self.candidate_limit
        )
        if candidates is None:
            self._note_fallback()
            return None
        with _span("incremental.answers.patch") as patch_span:
            patch_span.set("deltas", len(deltas)).set("candidates", len(candidates))
            added = set()
            removed = set()
            variables = tuple(Var(name) for name in names)
            for candidate in candidates:
                if cancel_token is not None:
                    cancel_token.tick("incremental.answers")
                fault_point("incremental.answers.verify")
                assignment = dict(zip(variables, candidate))
                if naive_evaluate(structure, formula, assignment):
                    added.add(candidate)
                else:
                    removed.add(candidate)
            new_rows = frozenset((set(rows) - removed) | added)
        fault_point("incremental.answers.commit")
        self._records[key] = (structure.epoch, new_rows)
        self.patched += 1
        if _telemetry_enabled():
            _counter("incremental.answers.patched").inc()
        return new_rows

    def _patch_local(
        self,
        structure: Structure,
        record: _LocalRecord,
        deltas: list[tuple[str, str, tuple]],
        cancel_token: CancelToken | None,
    ) -> frozenset | None:
        scope = record.scope
        seeds: set = set()
        for _, _, row in deltas:
            seeds.update(row)
        # Every element whose verdict can have changed lies within the
        # scope's radius of the touched elements in the patched graph (the
        # delta-sequence lemma of :mod:`repro.incremental.census`).
        dirty = ball_distances(structure, seeds, scope.depth)
        if len(dirty) > self.candidate_limit:
            self._note_fallback()
            return None
        with _span("incremental.answers.patch_local") as patch_span:
            patch_span.set("deltas", len(deltas)).set("dirty", len(dirty))
            new_rows = set(record.rows)
            variables = (Var(scope.name),) + tuple(
                Var(name) for name in scope.witnesses
            )
            for element in sorted(dirty, key=_sort_key):
                if cancel_token is not None:
                    cancel_token.tick("incremental.answers")
                fault_point("incremental.answers.verify")
                verdict = _local_verdict(structure, scope, variables, element)
                if verdict is None:
                    self._note_fallback()
                    return None
                if verdict:
                    new_rows.add((element,))
                else:
                    new_rows.discard((element,))
        fault_point("incremental.answers.commit")
        record.rows = frozenset(new_rows)
        record.epoch = structure.epoch
        self.quant_patched += 1
        if _telemetry_enabled():
            _counter("incremental.answers.quant_patched").inc()
            _counter("incremental.answers.dirty_elements").inc(len(dirty))
        return record.rows

    def _patch_hanf(
        self,
        structure: Structure,
        formula: Formula,
        record: _HanfRecord,
        deltas: list[tuple[str, str, tuple]],
        cancel_token: CancelToken | None,
    ) -> frozenset | None:
        from repro.locality.neighborhoods import ball_key

        scope = record.scope
        seeds: set = set()
        for _, _, row in deltas:
            seeds.update(row)
        dirty = ball_distances(structure, seeds, scope.key_radius)
        if len(dirty) > self.candidate_limit:
            self._note_fallback()
            return None
        with _span("incremental.answers.patch_hanf") as patch_span:
            patch_span.set("deltas", len(deltas)).set("dirty", len(dirty))
            new_keys: dict = {}
            counts = Counter(record.counts)
            for element in sorted(dirty, key=_sort_key):
                if cancel_token is not None:
                    cancel_token.tick("incremental.answers")
                fault_point("incremental.answers.verify")
                new_key = ball_key(structure, (element,), scope.key_radius)
                new_keys[element] = new_key
                old_key = record.keys[element]
                if new_key != old_key:
                    counts[old_key] -= 1
                    if not counts[old_key]:
                        del counts[old_key]
                    counts[new_key] += 1
            fingerprint = frozenset(counts.items())
            verdicts = record.verdicts
            evals = 0

            def verdict_for(element, element_key) -> bool:
                nonlocal evals
                cached = verdicts.get((element_key, fingerprint))
                if cached is not None:
                    return cached
                evals += 1
                if evals > QUANT_EVAL_LIMIT:
                    raise _Overflow
                if cancel_token is not None:
                    cancel_token.tick("incremental.answers")
                if element is _SENTENCE:
                    verdict = bool(naive_evaluate(structure, formula, {}))
                else:
                    verdict = bool(
                        naive_evaluate(structure, formula, {Var(scope.name): element})
                    )
                if len(verdicts) >= VERDICT_CACHE_LIMIT:
                    verdicts.clear()
                verdicts[(element_key, fingerprint)] = verdict
                return verdict

            try:
                if scope.name is None:
                    if fingerprint == record.fingerprint:
                        new_rows = set(record.rows)
                    else:
                        new_rows = (
                            {()} if verdict_for(_SENTENCE, _SENTENCE) else set()
                        )
                elif fingerprint == record.fingerprint:
                    # Census unchanged: only dirty elements (whose pointed
                    # key may have moved) can change verdict.
                    new_rows = set(record.rows)
                    for element in sorted(dirty, key=_sort_key):
                        if verdict_for(element, new_keys[element]):
                            new_rows.add((element,))
                        else:
                            new_rows.discard((element,))
                else:
                    # Census moved: every verdict is suspect, but the
                    # cache collapses the pass to one evaluation per
                    # *new* (key, fingerprint) class.
                    new_rows = set()
                    for element in structure.universe:
                        element_key = (
                            new_keys[element]
                            if element in new_keys
                            else record.keys[element]
                        )
                        if verdict_for(element, element_key):
                            new_rows.add((element,))
            except _Overflow:
                self._note_fallback()
                return None
            patch_span.set("evals", evals)
        fault_point("incremental.answers.commit")
        record.keys.update(new_keys)
        record.counts = counts
        record.fingerprint = fingerprint
        record.rows = frozenset(new_rows)
        record.epoch = structure.epoch
        self.quant_patched += 1
        if _telemetry_enabled():
            _counter("incremental.answers.quant_patched").inc()
            _counter("incremental.answers.dirty_elements").inc(len(dirty))
        return record.rows

    # -- change detection ------------------------------------------------------

    def changed(
        self,
        structure: Structure,
        formula: Formula,
        order_names: tuple[str, ...],
        cancel_token: CancelToken | None = None,
    ) -> bool | None:
        """Did the maintained answers change across the pending deltas?

        ``True``/``False`` when the record could be patched to the
        current epoch, ``None`` when maintenance could not decide (no
        record, log outrun, work limits) — callers that must not miss a
        change treat ``None`` as "assume changed".
        """
        key = (structure.uid, formula, order_names)
        record = self._records.get(key)
        if record is not None:
            before = record[1]
        else:
            quant = self._quants.get(key)
            if quant is None:
                return None
            before = quant.rows
        after = self.patch(structure, formula, order_names, cancel_token)
        if after is None:
            return None
        return after != before


# -- local evaluation ---------------------------------------------------------


def _local_verdict(
    structure: Structure,
    scope: _LocalScope,
    variables: tuple[Var, ...],
    element,
) -> bool | None:
    """Decide ∃ȳ ψ(a, ȳ) by quantifying over B_k(a) instead of the universe.

    Sound for anchored scopes: every satisfying witness tuple lies in
    the ball (anchoring chains of held rows bound each witness to Gaifman
    distance ≤ k from a), and the body is evaluated against the *full*
    structure, so restricting only the quantifier range loses nothing.
    Returns ``None`` when the witness space exceeds the work limit.
    """
    near = ball(structure, element, scope.depth)
    if len(near) ** scope.depth > LOCAL_WITNESS_LIMIT:
        return None
    witnesses = sorted(near, key=_sort_key)
    for combo in itertools.product(witnesses, repeat=scope.depth):
        assignment = dict(zip(variables, (element,) + combo))
        if naive_evaluate(structure, scope.body, assignment):
            return True
    return False


# -- quantifier-free candidates ----------------------------------------------


def _candidates(
    structure: Structure,
    formula: Formula,
    names: tuple[str, ...],
    deltas: list[tuple[str, str, tuple]],
    limit: int,
) -> set[tuple] | None:
    """Every answer tuple whose membership one of the deltas may flip.

    For each delta (op, R, t) and each R-atom of the formula, unify the
    atom's terms against t; each successful unifier, extended over the
    universe on the formula's remaining free variables, is a candidate.
    Returns ``None`` when the extension would exceed ``limit``.
    """
    atoms_by_relation: dict[str, list[Atom]] = {}
    for node in subformulas(formula):
        if isinstance(node, Atom):
            atoms_by_relation.setdefault(node.relation, []).append(node)
    universe = structure.universe
    candidates: set[tuple] = set()
    for _, relation, row in deltas:
        for atom in atoms_by_relation.get(relation, ()):
            binding = _unify(structure, atom, row)
            if binding is None:
                continue
            unbound = [name for name in names if name not in binding]
            growth = len(universe) ** len(unbound) if unbound else 1
            if len(candidates) + growth > limit:
                return None
            for combo in itertools.product(universe, repeat=len(unbound)):
                env = dict(binding)
                env.update(zip(unbound, combo))
                candidates.add(tuple(env[name] for name in names))
    return candidates


def _unify(structure: Structure, atom: Atom, row: tuple) -> dict | None:
    """Match the atom's term tuple against a concrete row, or ``None``."""
    binding: dict[str, object] = {}
    for term, value in zip(atom.terms, row):
        if isinstance(term, Var):
            bound = binding.get(term.name, _MISSING)
            if bound is _MISSING:
                binding[term.name] = value
            elif bound != value:
                return None
        elif isinstance(term, Const):
            if structure.constant(term.name) != value:
                return None
        else:  # pragma: no cover - the syntax has only Var/Const terms
            raise FMTError(f"unsupported term {term!r}")
    return binding


_MISSING = object()
