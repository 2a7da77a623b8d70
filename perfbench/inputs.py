"""Seeded input generators for the benchmark workloads.

Everything a workload sends to the system is derived here from one
integer seed.  The structures a workload serves are fixed: its graphs
and the ``update-mix`` delta stream are drawn once from ``BASE_SEED``.
The seed draws what a client asks: the order of the ops in each round,
the answer pages and the fresh variable names of ad-hoc formulas.  The
work of a run then does not depend on which random graph a seed
happened to draw.  It does not depend on the element labels either:
the maintenance cost of ``update-mix`` differs by a third between
relabelings of the same graph, which made runs with different seeds
incomparable.  The generators use only ``random.Random`` and the
standard library, so the inputs do not depend on the code measured.
"""

from __future__ import annotations

import random
import re

#: The nine FO graph queries of ``repro.queries.zoo.fo_graph_corpus``, as
#: concrete syntax, in corpus order (name, text, free variables).
GRAPH_QUERIES: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("has-out-edge", "exists y E(x, y)", ("x",)),
    ("has-in-edge", "exists y E(y, x)", ("x",)),
    ("has-loop", "E(x, x)", ("x",)),
    ("on-triangle", "exists y exists z (E(x, y) & E(y, z) & E(z, x))", ("x",)),
    ("out-edges-reciprocated", "forall y (~E(x, y) | E(y, x))", ("x",)),
    ("edge", "E(x, y)", ("x", "y")),
    ("mutual-edge", "E(x, y) & E(y, x)", ("x", "y")),
    ("distance-two", "exists z (E(x, z) & E(z, y)) & ~E(x, y)", ("x", "y")),
    ("out-dominated", "~(x = y) & forall z ((~E(x, z) | E(y, z)))", ("x", "y")),
)

#: The five sentences of ``repro.queries.zoo.fo_boolean_corpus``.
BOOLEAN_QUERIES: tuple[tuple[str, str], ...] = (
    ("has-some-loop", "exists x E(x, x)"),
    ("has-mutual-pair", "exists x exists y (E(x, y) & E(y, x))"),
    ("no-isolated-node", "forall x exists y (E(x, y) | E(y, x))"),
    ("has-triangle", "exists x exists y exists z (E(x, y) & E(y, z) & E(z, x))"),
    (
        "has-out-degree-exactly-one",
        "exists x (exists y E(x, y) & forall y forall z (~E(x, y) | ~E(x, z) | y = z))",
    ),
)

#: The four enumeration queries of the bounded-degree workload, one per
#: ``Engine.enumerate`` mode (name, text, free variables).
ENUMERATIONS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("atom", "E(x, y)", ("x", "y")),
    ("one-variable-types", "exists y (E(x, y) & ~E(y, x))", ("x",)),
    ("two-variable-types", "E(x, y) | E(y, x)", ("x", "y")),
    ("materialized", "exists z (E(x, z) & E(z, y))", ("x", "y")),
)

Edges = set[tuple[int, int]]

#: Seed of the fixed structures and delta stream.
BASE_SEED = 2009


def shuffled(items, rng: random.Random) -> list:
    """``items`` in a seeded random order."""
    items = list(items)
    rng.shuffle(items)
    return items


def gnm_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """A loop-free directed graph with exactly ``m`` edges drawn uniformly
    from the n·(n−1) ordered pairs, sorted.

    This is G(n, p) conditioned on its expected edge count: fixing the
    count removes the largest source of run-to-run variation between
    seeds (query costs grow faster than linearly in the edge count).
    """
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((a, b))
    return sorted(edges)


def sparse_graph(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """``random_graph(n, 3/n)`` with its expected 3·(n−1) edges."""
    return gnm_edges(n, 3 * (n - 1), rng)


def bounded_degree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A connected digraph of Gaifman degree ≤ 3: a directed Hamiltonian
    cycle through a shuffled order plus a random matching of chords.

    The cycle gives every element two Gaifman neighbours and each element
    is in at most one chord.  A chord that reverses a cycle edge adds a
    mutual pair without adding a neighbour.
    """
    order = list(range(n))
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    matched = list(range(n))
    rng.shuffle(matched)
    for i in range(0, n - 1, 2):
        a, b = matched[i], matched[i + 1]
        if rng.random() < 0.5:
            a, b = b, a
        edges.add((a, b))
    return sorted(edges)


def structure_wire(n: int, edges) -> dict:
    """The wire-format v1 upload body for a graph on ``range(n)``."""
    return {
        "signature": {"relations": {"E": 2}, "constants": []},
        "universe": list(range(n)),
        "relations": {"E": [list(edge) for edge in sorted(edges)]},
        "constants": {},
    }


def page_count(total_rows: int, page_size: int) -> int:
    return max(1, -(-total_rows // page_size))


_VARIABLE = re.compile(r"\b([xyz])\b")


def fresh_names(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct fresh variable names."""
    names: set[str] = set()
    while len(names) < count:
        names.add("v" + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6)))
    ordered = sorted(names)
    rng.shuffle(ordered)
    return ordered


def rename(text: str, mapping: dict[str, str]) -> str:
    """Rename the variables x, y, z of a corpus formula."""
    return _VARIABLE.sub(lambda match: mapping[match.group(1)], text)


def balanced_deltas(
    mirror: Edges, n: int, rng: random.Random, count: int = 4
) -> list[tuple[str, tuple[int, int]]]:
    """``count`` deltas, half deletes of present edges and half inserts of
    absent loop-free pairs, in a shuffled order; all touch distinct pairs,
    so the edge count is the same before and after the batch."""
    present = sorted(mirror)
    deletes = rng.sample(present, count // 2)
    inserts: list[tuple[int, int]] = []
    while len(inserts) < count - count // 2:
        pair = (rng.randrange(n), rng.randrange(n))
        if pair[0] != pair[1] and pair not in mirror and pair not in inserts:
            inserts.append(pair)
    deltas = [("delete", pair) for pair in deletes] + [("insert", pair) for pair in inserts]
    rng.shuffle(deltas)
    return deltas


def apply_deltas(mirror: Edges, deltas) -> None:
    for op, pair in deltas:
        if op == "insert":
            mirror.add(pair)
        else:
            mirror.discard(pair)
