"""The seeded input generators: same seed, same bytes; other seed, other bytes."""

import json
import random

import bd_child
import http_workloads
import inputs
import pytest


def stream(name: str, seed: int, rounds: int = 4) -> bytes:
    """Every request body a workload sends in set-up and ``rounds`` rounds."""
    if name == "bounded-degree":
        rng = random.Random(seed)
        return json.dumps([bd_child.op_order(rng) for _ in range(rounds)]).encode()
    workload = http_workloads.WORKLOADS[name](seed)
    specs = workload.setup_specs() + [
        spec for index in range(rounds) for spec in workload.round_specs(index)
    ]
    return json.dumps(specs, sort_keys=True).encode()


@pytest.mark.parametrize("name", ["prepared-read", "adhoc-read", "update-mix", "bounded-degree"])
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    assert stream(name, 11) == stream(name, 11)
    assert stream(name, 11) != stream(name, 12)


def test_sparse_graph_has_expected_edge_count_and_no_loops():
    edges = inputs.sparse_graph(200, random.Random(3))
    assert len(edges) == len(set(edges)) == 3 * 199
    assert all(a != b and 0 <= a < 200 and 0 <= b < 200 for a, b in edges)


def test_bounded_degree_graph_is_connected_with_gaifman_degree_at_most_3():
    n = 300
    edges = inputs.bounded_degree_edges(n, random.Random(5))
    neighbours = {v: set() for v in range(n)}
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    assert max(len(v) for v in neighbours.values()) <= 3
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [w for v in frontier for w in neighbours[v] if w not in seen]
        seen.update(frontier)
    assert len(seen) == n


def test_balanced_deltas_keep_the_edge_count():
    rng = random.Random(9)
    mirror = set(inputs.sparse_graph(100, rng))
    size = len(mirror)
    for _ in range(50):
        deltas = inputs.balanced_deltas(mirror, 100, rng)
        assert len({pair for _, pair in deltas}) == 4
        inputs.apply_deltas(mirror, deltas)
        assert len(mirror) == size


def test_fresh_names_rename_every_variable():
    names = inputs.fresh_names(random.Random(1), 3)
    assert len(set(names)) == 3
    text = inputs.rename("exists z (E(x, z) & E(z, y))", dict(zip("xyz", names)))
    assert text == f"exists {names[2]} (E({names[0]}, {names[2]}) & E({names[2]}, {names[1]}))"
