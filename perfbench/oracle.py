"""Reference answers computed from the generated edge lists.

Each reference is a set comprehension over the edge set, written from
the formula's meaning and independent of the code being measured.  Rows
are tuples whose columns follow the formula's free variables x, y in
that order; :func:`reorder` maps them to another column order.
"""

from __future__ import annotations

from collections import defaultdict


class Graph:
    """A directed graph on ``range(n)`` with adjacency sets."""

    def __init__(self, n: int, edges) -> None:
        self.n = n
        self.edges = set(edges)
        self.out: dict[int, set[int]] = defaultdict(set)
        self.into: dict[int, set[int]] = defaultdict(set)
        for a, b in self.edges:
            self.out[a].add(b)
            self.into[b].add(a)


def _out_dominated(g: Graph) -> set[tuple[int, int]]:
    rows = set()
    everyone = set(range(g.n))
    for x in range(g.n):
        targets = g.out.get(x, set())
        if targets:
            dominators = set.intersection(*(g.into.get(z, set()) for z in targets))
        else:
            dominators = everyone
        rows.update((x, y) for y in dominators if y != x)
    return rows


def graph_query(name: str, g: Graph) -> set[tuple]:
    """ans(φ, G) for one query of the FO graph corpus."""
    U, E, out = range(g.n), g.edges, g.out
    if name == "has-out-edge":
        return {(x,) for x in U if out.get(x)}
    if name == "has-in-edge":
        return {(x,) for x in U if g.into.get(x)}
    if name == "has-loop":
        return {(x,) for x in U if (x, x) in E}
    if name == "on-triangle":
        return {
            (x,)
            for x in U
            if any((z, x) in E for y in out.get(x, ()) for z in out.get(y, ()))
        }
    if name == "out-edges-reciprocated":
        return {(x,) for x in U if all((y, x) in E for y in out.get(x, ()))}
    if name == "edge":
        return set(E)
    if name == "mutual-edge":
        return {(x, y) for x, y in E if (y, x) in E}
    if name == "distance-two":
        return {
            (x, y)
            for x in U
            for z in out.get(x, ())
            for y in out.get(z, ())
            if (x, y) not in E
        }
    if name == "out-dominated":
        return _out_dominated(g)
    raise KeyError(name)


def boolean_query(name: str, g: Graph) -> bool:
    """A ⊨ φ for one sentence of the FO Boolean corpus."""
    E, out = g.edges, g.out
    if name == "has-some-loop":
        return any(a == b for a, b in E)
    if name == "has-mutual-pair":
        return any((b, a) in E for a, b in E)
    if name == "no-isolated-node":
        return all(out.get(x) or g.into.get(x) for x in range(g.n))
    if name == "has-triangle":
        return any((z, x) in E for x, y in E for z in out.get(y, ()))
    if name == "has-out-degree-exactly-one":
        return any(len(out.get(x, ())) == 1 for x in range(g.n))
    raise KeyError(name)


def enumeration(name: str, g: Graph) -> set[tuple]:
    """The answer set of one bounded-degree enumeration query."""
    E, out = g.edges, g.out
    if name == "atom":
        return set(E)
    if name == "one-variable-types":
        return {(x,) for x in range(g.n) if any((y, x) not in E for y in out.get(x, ()))}
    if name == "two-variable-types":
        return E | {(b, a) for a, b in E}
    if name == "materialized":
        return {(x, y) for x in range(g.n) for z in out.get(x, ()) for y in out.get(z, ())}
    raise KeyError(name)


def reorder(rows: set[tuple], columns: tuple[int, ...]) -> set[tuple]:
    """Project every row onto ``columns`` (a permutation of positions)."""
    return {tuple(row[i] for i in columns) for row in rows}


def canonical(rows) -> list[tuple]:
    """Rows in the wire format's paging order (sorted by ``repr``)."""
    return sorted(rows, key=repr)
