"""Gaifman's theorem machinery (Theorem 3.12).

Gaifman's theorem: every FO sentence is a Boolean combination of *basic
local sentences*

    ∃x₁ ... ∃xₙ ( ⋀ᵢ φ^{B_r(xᵢ)}(xᵢ)  ∧  ⋀_{i≠j} d(xᵢ, xⱼ) > 2r ),

asserting a scattered sequence of n points whose r-neighborhoods all
satisfy the same r-local formula φ. This module makes the ingredients
executable:

* :func:`local_satisfies` — evaluate φ(x) *inside* N_r(a) (relativized
  quantification);
* :func:`scattered_tuple_exists` — find n pairwise 2r-distant witnesses;
* :class:`BasicLocalSentence` — the sentence itself, evaluable directly
  and compilable (:meth:`~BasicLocalSentence.to_formula`) to an ordinary
  FO sentence via explicit distance formulas, so both evaluation routes
  can be cross-checked (experiment E11);
* :func:`distance_at_most` / :func:`distance_greater` — FO definitions
  of bounded Gaifman distance for any relational signature, built by
  recursive doubling so the quantifier rank grows only logarithmically
  in r.
"""

from __future__ import annotations

from repro.errors import LocalityError
from repro.logic.analysis import free_variables
from repro.logic.builder import and_, exists, exists_many, neq, not_, or_
from repro.logic.signature import Signature
from repro.logic.syntax import Atom, Eq, Formula, Var
from repro.logic.transform import fresh_variable, rename_free
from repro.eval.evaluator import evaluate
from repro.structures.gaifman import ball
from repro.structures.structure import Element, Structure

__all__ = [
    "adjacency_formula",
    "distance_at_most",
    "distance_greater",
    "local_satisfies",
    "scattered_tuple_exists",
    "BasicLocalSentence",
]


def adjacency_formula(signature: Signature, x: Var, y: Var) -> Formula:
    """An FO formula asserting x ≠ y co-occur in some tuple (Gaifman edge).

    Disjunction over every relation R and every ordered pair of distinct
    positions (i, j): ∃(other coordinates) R(..., x at i, ..., y at j, ...).
    """
    disjuncts: list[Formula] = []
    for name in signature.relation_names():
        arity = signature.arity(name)
        for i in range(arity):
            for j in range(arity):
                if i == j:
                    continue
                terms: list[Var] = []
                others: list[Var] = []
                for position in range(arity):
                    if position == i:
                        terms.append(x)
                    elif position == j:
                        terms.append(y)
                    else:
                        fresh = Var(f"_adj{position}")
                        terms.append(fresh)
                        others.append(fresh)
                disjuncts.append(exists_many(others, Atom(name, tuple(terms))))
    return and_(neq(x, y), or_(*disjuncts))


def distance_at_most(signature: Signature, r: int, x: Var, y: Var) -> Formula:
    """The FO formula d(x, y) ≤ r, by recursive doubling.

    d ≤ 0 is x = y; d ≤ 1 is x = y ∨ adjacent; d ≤ r splits as
    ∃z (d(x,z) ≤ ⌈r/2⌉ ∧ d(z,y) ≤ ⌊r/2⌋), giving quantifier rank
    O(log r) + (arity of the signature).
    """
    if r < 0:
        raise LocalityError(f"distance bound must be non-negative, got {r}")
    if r == 0:
        return Eq(x, y)
    if r == 1:
        return or_(Eq(x, y), adjacency_formula(signature, x, y))
    half_up = (r + 1) // 2
    half_down = r // 2
    taken = {x, y}
    z = fresh_variable(taken, "_d")
    left = distance_at_most(signature, half_up, x, z)
    right = distance_at_most(signature, half_down, z, y)
    return exists(z, and_(left, right))


def distance_greater(signature: Signature, r: int, x: Var, y: Var) -> Formula:
    """The FO formula d(x, y) > r."""
    return not_(distance_at_most(signature, r, x, y))


def local_satisfies(
    structure: Structure,
    formula: Formula,
    center: Element,
    radius: int,
    center_var: Var | None = None,
) -> bool:
    """Whether φ(x) holds of ``center`` with quantifiers restricted to B_r(x).

    Implemented by inducing the substructure on the ball and evaluating
    there — the semantics of r-local formulas in Theorem 3.12. ``formula``
    must have exactly one free variable (``center_var`` or the unique
    free variable).
    """
    free = free_variables(formula)
    if center_var is None:
        if len(free) != 1:
            names = sorted(var.name for var in free)
            raise LocalityError(f"local formula must have exactly one free variable, has {names}")
        center_var = next(iter(free))
    members = ball(structure, center, radius)
    restricted = structure.induced(members)
    return evaluate(restricted, formula, {center_var: center})


def scattered_tuple_exists(
    structure: Structure,
    candidates: list[Element],
    count: int,
    min_distance: int,
) -> tuple[Element, ...] | None:
    """Find ``count`` candidates pairwise more than ``min_distance`` apart.

    Exact backtracking over the candidate list (the scattered-sequence
    search of a basic local sentence). Returns a witness tuple or None.
    Each chosen element's radius-``min_distance`` ball is computed once,
    when it is chosen; a candidate is admissible iff it lies in none of
    the chosen balls.
    """
    if count < 0:
        raise LocalityError(f"count must be non-negative, got {count}")
    if min_distance < 0:
        raise LocalityError(f"min_distance must be non-negative, got {min_distance}")
    if count == 0:
        return ()
    chosen: list[Element] = []
    chosen_balls: list[frozenset[Element]] = []

    def backtrack(start: int) -> bool:
        if len(chosen) == count:
            return True
        for index in range(start, len(candidates)):
            candidate = candidates[index]
            if all(candidate not in near for near in chosen_balls):
                chosen.append(candidate)
                chosen_balls.append(ball(structure, candidate, min_distance))
                if backtrack(index + 1):
                    return True
                chosen.pop()
                chosen_balls.pop()
        return False

    if backtrack(0):
        return tuple(chosen)
    return None


class BasicLocalSentence:
    """A basic local sentence ∃ scattered x₁..xₙ with φ true r-locally.

    Parameters
    ----------
    local_formula:
        φ(x): a formula with one free variable, interpreted inside
        B_r(x).
    radius:
        The locality radius r; witnesses must be pairwise > 2r apart.
    count:
        The number n of scattered witnesses.
    """

    def __init__(self, local_formula: Formula, radius: int, count: int) -> None:
        free = free_variables(local_formula)
        if len(free) != 1:
            names = sorted(var.name for var in free)
            raise LocalityError(f"local formula must have exactly one free variable, has {names}")
        if radius < 0:
            raise LocalityError(f"radius must be non-negative, got {radius}")
        if count < 1:
            raise LocalityError(f"count must be at least 1, got {count}")
        self.local_formula = local_formula
        self.center_var = next(iter(free))
        self.radius = radius
        self.count = count

    def witnesses(self, structure: Structure) -> tuple[Element, ...] | None:
        """A scattered witness tuple, or None if the sentence is false."""
        candidates = [
            element
            for element in structure.universe
            if local_satisfies(structure, self.local_formula, element, self.radius, self.center_var)
        ]
        return scattered_tuple_exists(structure, candidates, self.count, 2 * self.radius)

    def evaluate(self, structure: Structure) -> bool:
        """Direct (geometric) evaluation of the basic local sentence."""
        return self.witnesses(structure) is not None

    __call__ = evaluate

    def to_formula(self, signature: Signature) -> Formula:
        """Compile to an ordinary FO sentence over ``signature``.

        Quantifiers of φ are relativized to the ball via explicit
        d(x, ·) ≤ r subformulas, and scatteredness becomes pairwise
        d(xᵢ, xⱼ) > 2r. Direct evaluation and ordinary evaluation of the
        compiled sentence agree on every structure — experiment E11's
        check.
        """
        from repro.logic.transform import standardize_apart

        witnesses = [Var(f"_w{index}") for index in range(self.count)]
        # Rule out capture: bound variables of φ must not collide with the
        # witness variables (or with the '_'-prefixed distance helpers).
        prepared = standardize_apart(self.local_formula, reserved=set(witnesses))
        parts: list[Formula] = []
        for index, witness in enumerate(witnesses):
            local = rename_free(prepared, {self.center_var: witness})
            parts.append(_relativize_to_ball(local, witness, self.radius, signature))
            for other in witnesses[:index]:
                parts.append(distance_greater(signature, 2 * self.radius, other, witness))
        return exists_many(witnesses, and_(*parts))


def _relativize_to_ball(formula: Formula, center: Var, radius: int, signature: Signature) -> Formula:
    """Restrict every quantifier in ``formula`` to B_radius(center)."""
    from repro.logic.syntax import (
        And,
        Atom,
        Bottom,
        Eq,
        Exists,
        Forall,
        Iff,
        Implies,
        Not,
        Or,
        Top,
    )

    def walk(node: Formula) -> Formula:
        if isinstance(node, (Atom, Eq, Top, Bottom)):
            return node
        if isinstance(node, Not):
            return Not(walk(node.body))
        if isinstance(node, And):
            return And(tuple(walk(child) for child in node.children))
        if isinstance(node, Or):
            return Or(tuple(walk(child) for child in node.children))
        if isinstance(node, Implies):
            return Implies(walk(node.premise), walk(node.conclusion))
        if isinstance(node, Iff):
            return Iff(walk(node.left), walk(node.right))
        if isinstance(node, Exists):
            guard = distance_at_most(signature, radius, center, node.var)
            return Exists(node.var, and_(guard, walk(node.body)))
        if isinstance(node, Forall):
            guard = distance_at_most(signature, radius, center, node.var)
            return Forall(node.var, Implies(guard, walk(node.body)))
        raise LocalityError(f"unknown formula node {node!r}")

    return walk(formula)
