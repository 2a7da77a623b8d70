"""Relational-algebra plan trees produced by the planner.

A plan is an immutable operator tree whose leaves scan base relations (or
synthesize equality/constant relations) and whose inner nodes are the
algebra operators of :mod:`repro.eval.algebra`. Every node carries the
attribute list of its output and the planner's cardinality estimate, so
``explain`` can render the full costed tree. Plans are structure-agnostic
— constants are stored by name and resolved at execution time — which is
what makes them cacheable across structures with the same statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Plan",
    "AtomScan",
    "NullaryTruth",
    "DomainColumn",
    "Diagonal",
    "ConstEq",
    "ConstPair",
    "Join",
    "AntiJoin",
    "Project",
    "Complement",
    "Extend",
    "Union",
    "join_attributes",
    "explain_plan",
]


def join_attributes(left: tuple[str, ...], right: tuple[str, ...]) -> tuple[str, ...]:
    """Output attribute order of a natural join (matches ``Relation.join``)."""
    return left + tuple(a for a in right if a not in left)


@dataclass(frozen=True)
class Plan:
    """Base class: every node knows its output attributes and row estimate."""

    attributes: tuple[str, ...]
    estimated_rows: float

    def children(self) -> tuple["Plan", ...]:
        return ()

    def label(self) -> str:
        return type(self).__name__

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def total_estimated_rows(self) -> float:
        """Sum of row estimates over the whole subtree (the plan's cost)."""
        return self.estimated_rows + sum(
            child.total_estimated_rows() for child in self.children()
        )


@dataclass(frozen=True)
class AtomScan(Plan):
    """Scan a base relation with selections pushed into the scan.

    ``const_selects`` pins positions to named constants, ``equalities``
    pins pairs of positions to each other (repeated variables), and
    ``projection`` maps the surviving positions to variable-named output
    attributes — i.e. σ and π are fused into the leaf.
    """

    relation: str = ""
    const_selects: tuple[tuple[int, str], ...] = ()
    equalities: tuple[tuple[int, int], ...] = ()
    projection: tuple[tuple[int, str], ...] = ()

    def label(self) -> str:
        parts = [self.relation]
        for position, name in self.const_selects:
            parts.append(f"#{position}=!{name}")
        for first, second in self.equalities:
            parts.append(f"#{first}=#{second}")
        return f"Scan[{' '.join(parts)}]"


@dataclass(frozen=True)
class NullaryTruth(Plan):
    """The 0-ary relation: {()} for true, {} for false."""

    truth: bool = True

    def label(self) -> str:
        return f"Nullary[{self.truth}]"


@dataclass(frozen=True)
class DomainColumn(Plan):
    """One column holding every element of the quantification domain."""

    def label(self) -> str:
        return f"Domain[{self.attributes[0]}]"


@dataclass(frozen=True)
class Diagonal(Plan):
    """The equality relation {(d, d) : d ∈ domain} over two attributes."""

    def label(self) -> str:
        return f"Diagonal[{self.attributes[0]} = {self.attributes[1]}]"


@dataclass(frozen=True)
class ConstEq(Plan):
    """The singleton {(c,)} for a variable pinned to a named constant."""

    constant: str = ""

    def label(self) -> str:
        return f"ConstEq[{self.attributes[0]} = !{self.constant}]"


@dataclass(frozen=True)
class ConstPair(Plan):
    """0-ary truth of ``c = d`` for two named constants (resolved at run time)."""

    left: str = ""
    right: str = ""

    def label(self) -> str:
        return f"ConstPair[!{self.left} = !{self.right}]"


@dataclass(frozen=True)
class Join(Plan):
    """Hash natural join (with semijoin pre-filtering in the executor)."""

    left: Plan = field(default=None)  # type: ignore[assignment]
    right: Plan = field(default=None)  # type: ignore[assignment]

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        shared = [a for a in self.left.attributes if a in self.right.attributes]
        return f"Join[{', '.join(shared) or '×'}]"


@dataclass(frozen=True)
class AntiJoin(Plan):
    """▷: rows of the left with no matching right row (safe negation)."""

    left: Plan = field(default=None)  # type: ignore[assignment]
    right: Plan = field(default=None)  # type: ignore[assignment]

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        shared = [a for a in self.left.attributes if a in self.right.attributes]
        return f"AntiJoin[{', '.join(shared)}]"


@dataclass(frozen=True)
class Project(Plan):
    """π onto (and reordering to) the node's attribute list."""

    child: Plan = field(default=None)  # type: ignore[assignment]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Project[{', '.join(self.attributes) or '()'}]"


@dataclass(frozen=True)
class Complement(Plan):
    """domain^arity minus the child — negation as active/universe complement."""

    child: Plan = field(default=None)  # type: ignore[assignment]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Complement[{', '.join(self.attributes) or '()'}]"


@dataclass(frozen=True)
class Extend(Plan):
    """Pad with new columns ranging over the domain (vacuous variables)."""

    child: Plan = field(default=None)  # type: ignore[assignment]
    new_attributes: tuple[str, ...] = ()

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Extend[+{', '.join(self.new_attributes)}]"


@dataclass(frozen=True)
class Union(Plan):
    """∪ of children over identical attribute lists (disjunction)."""

    parts: tuple[Plan, ...] = ()

    def children(self) -> tuple[Plan, ...]:
        return self.parts

    def label(self) -> str:
        return f"Union[{len(self.parts)}]"


def explain_plan(
    plan: Plan,
    indent: int = 0,
    actuals: dict | None = None,
    fused: dict | None = None,
) -> str:
    """Render a plan as an indented tree with cost annotations.

    ``actuals`` is an optional EXPLAIN ANALYZE overlay: a mapping from
    ``id(node)`` to an object with ``rows`` and ``milliseconds``
    attributes (the executor's :class:`~repro.engine.executor.NodeActuals`).
    Nodes present in the mapping render ``actual=... rows in ...ms``
    next to the planner's estimate; durations are inclusive of children.
    ``fused`` maps ``id(node)`` to the plan node a fused node's work was
    recorded under; such nodes render ``fused into <label>``.
    """
    pad = "  " * indent
    line = (
        f"{pad}{plan.label()}  "
        f"attrs=({', '.join(plan.attributes)})  est={plan.estimated_rows:.1f}"
    )
    if actuals is not None:
        recorded = actuals.get(id(plan))
        if recorded is not None:
            line += f"  actual={recorded.rows} rows in {recorded.milliseconds:.3f}ms"
    if fused is not None:
        owner = fused.get(id(plan))
        if owner is not None:
            line += f"  fused into {owner.label()}"
    lines = [line]
    for child in plan.children():
        lines.append(explain_plan(child, indent + 1, actuals, fused))
    return "\n".join(lines)
