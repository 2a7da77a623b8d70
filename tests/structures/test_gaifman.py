"""Tests for the Gaifman graph, distances, balls and neighborhoods."""

import math
from collections.abc import Mapping

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.engine import Engine
from repro.errors import StructureError
from repro.locality.neighborhoods import _row_incidence
from repro.logic.parser import parse
from repro.logic.signature import SET, Signature
from repro.structures.builders import (
    directed_chain,
    directed_cycle,
    disjoint_cycles,
    empty_graph,
    undirected_chain,
    undirected_cycle,
)
from repro.structures.gaifman import (
    ball,
    ball_distances,
    connected_components,
    diameter,
    distance,
    eccentricity,
    gaifman_adjacency,
    gaifman_graph,
    is_connected,
    neighborhood,
)
from repro.structures.isomorphism import are_isomorphic
from repro.structures.structure import Structure

import strategies


class TestGaifmanGraph:
    def test_directed_edges_become_undirected(self):
        chain = directed_chain(3)
        adjacency = gaifman_adjacency(chain)
        assert 1 in adjacency[0]
        assert 0 in adjacency[1]

    def test_no_self_loops(self):
        loop = Structure(Signature({"E": 2}), [0], {"E": [(0, 0)]})
        assert gaifman_adjacency(loop)[0] == frozenset()

    def test_ternary_relation_connects_all_coordinates(self):
        sig = Signature({"R": 3})
        structure = Structure(sig, [0, 1, 2, 3], {"R": [(0, 1, 2)]})
        adjacency = gaifman_adjacency(structure)
        assert adjacency[0] == {1, 2}
        assert adjacency[3] == frozenset()

    def test_gaifman_graph_structure(self):
        graph = gaifman_graph(directed_chain(3))
        assert graph.holds("E", (1, 0))
        assert graph.holds("E", (0, 1))


class TestDistance:
    def test_distance_zero_to_self(self):
        chain = undirected_chain(5)
        assert distance(chain, 2, 2) == 0

    def test_distance_ignores_orientation(self):
        chain = directed_chain(5)
        assert distance(chain, 4, 0) == 4

    def test_distance_from_tuple_is_min(self):
        chain = undirected_chain(7)
        assert distance(chain, (0, 6), 5) == 1

    def test_unreachable_is_infinite(self):
        graph = empty_graph(3)
        assert math.isinf(distance(graph, 0, 2))

    def test_unknown_element_rejected(self):
        with pytest.raises(StructureError):
            distance(undirected_chain(3), 0, 99)


class TestBalls:
    def test_radius_zero_is_center(self):
        chain = undirected_chain(5)
        assert ball(chain, 2, 0) == {2}

    def test_radius_one_on_chain(self):
        chain = undirected_chain(5)
        assert ball(chain, 2, 1) == {1, 2, 3}

    def test_large_radius_covers_component(self):
        two = disjoint_cycles([4, 4])
        center = (0, 0)
        assert len(ball(two, center, 10)) == 4

    def test_negative_radius_rejected(self):
        with pytest.raises(StructureError):
            ball(undirected_chain(3), 0, -1)

    def test_tuple_center(self):
        chain = undirected_chain(9)
        members = ball(chain, (0, 8), 1)
        assert members == {0, 1, 7, 8}

    def test_source_outside_universe_rejected(self):
        chain = undirected_chain(5)
        with pytest.raises(StructureError):
            ball(chain, (0, 99), 1)
        with pytest.raises(StructureError):
            ball_distances(chain, (0, 99), 1)
        with pytest.raises(StructureError):
            ball_distances(chain, (99,))

    def test_ball_distances_are_in_bfs_order(self):
        chain = undirected_chain(9)
        distances = ball_distances(chain, (4,), 2)
        assert distances == {4: 0, 3: 1, 5: 1, 2: 2, 6: 2}
        assert list(distances.values()) == sorted(distances.values())


class _CountingAdjacency(Mapping):
    """A stand-in for the ``("gaifman",)`` memo that counts entry reads."""

    def __init__(self, adjacency):
        self._adjacency = adjacency
        self.reads = 0

    def __getitem__(self, element):
        self.reads += 1
        return self._adjacency[element]

    def __iter__(self):
        return iter(self._adjacency)

    def __len__(self):
        return len(self._adjacency)


def _count_adjacency_reads(structure: Structure) -> _CountingAdjacency:
    counting = _CountingAdjacency(gaifman_adjacency(structure))
    structure._cache[("gaifman",)] = counting
    return counting


class TestBallsAreRadiusBounded:
    """A radius-r ball reads only the adjacency of B_{r-1}, never the component."""

    def test_small_ball_on_long_cycle_reads_constant_entries(self):
        cycle = directed_cycle(4000)
        counting = _count_adjacency_reads(cycle)
        assert ball(cycle, 0, 1) == {3999, 0, 1}
        assert counting.reads <= 3

    def test_pair_types_preprocessing_is_linear(self):
        # E(x, y) | E(y, x) has quantifier rank 0, so r = 0 and the near
        # sets are B_{2r+1} = B_1 balls of 3 elements on a directed cycle.
        n = 2000
        near_ball = 3
        cycle = directed_cycle(n)
        counting = _count_adjacency_reads(cycle)
        stream = Engine().enumerate(cycle, parse("E(x, y) | E(y, x)"))
        assert stream.mode == "types"
        assert sum(1 for _ in stream) == 2 * n
        assert counting.reads <= 4 * n * near_ball


def _cold_copy(structure: Structure) -> Structure:
    return Structure(
        structure.signature,
        structure.universe,
        {name: set(rows) for name, rows in structure.relations.items()},
    )


@st.composite
def _ball_cases(draw):
    structure = draw(strategies.graphs(min_size=1, max_size=7))
    universe = list(structure.universe)
    centers = tuple(
        draw(st.lists(st.sampled_from(universe), min_size=1, max_size=3, unique=True))
    )
    radius = draw(st.integers(min_value=0, max_value=4))
    edge = st.tuples(st.sampled_from(universe), st.sampled_from(universe))
    updates = draw(st.lists(st.tuples(st.booleans(), edge), max_size=6))
    return structure, centers, radius, updates


@given(case=_ball_cases(), patched=st.booleans())
def test_ball_and_ball_distances_agree_with_distance(case, patched):
    structure, centers, radius, updates = case
    if patched:
        # Both memos present, so inserts *and* deletes patch the adjacency.
        gaifman_adjacency(structure)
        _row_incidence(structure)
        for insert, row in updates:
            if insert:
                structure.insert("E", row)
            else:
                structure.delete("E", row)
        assert ("gaifman",) in structure._cache
    reference = _cold_copy(structure)
    expected = {
        element: distance(reference, centers, element)
        for element in reference.universe
    }
    within = {element: d for element, d in expected.items() if d <= radius}
    assert ball(structure, centers, radius) == frozenset(within)
    assert ball_distances(structure, centers, radius) == within
    reachable = {element: d for element, d in expected.items() if not math.isinf(d)}
    assert ball_distances(structure, centers) == reachable


class TestNeighborhoods:
    def test_center_marked(self):
        chain = undirected_chain(5)
        nbhd = neighborhood(chain, 2, 1)
        assert nbhd.tuples("@0") == {(2,)}

    def test_interior_points_of_long_cycles_isomorphic(self):
        first = neighborhood(undirected_cycle(10), 3, 2)
        second = neighborhood(undirected_cycle(14), 8, 2)
        assert are_isomorphic(first, second)

    def test_endpoint_differs_from_interior(self):
        chain = undirected_chain(7)
        end = neighborhood(chain, 0, 1)
        middle = neighborhood(chain, 3, 1)
        assert not are_isomorphic(end, middle)

    def test_distinguished_marking_prevents_swaps(self):
        # Marks matter: pairing an endpoint with an interior node is not
        # isomorphic to the swapped pairing, because h(a_i) = b_i forces
        # the endpoint onto the interior node.
        chain = undirected_chain(9)
        forward = neighborhood(chain, (0, 4), 1)
        backward = neighborhood(chain, (4, 0), 1)
        assert not are_isomorphic(forward, backward)

    def test_pair_neighborhood_on_long_chain_is_symmetric(self):
        # The paper's Gaifman example: on a long chain the r-neighborhood
        # of (a, b) IS isomorphic to that of (b, a) — two disjoint chains.
        chain = directed_chain(13)
        forward = neighborhood(chain, (4, 8), 1)
        backward = neighborhood(chain, (8, 4), 1)
        assert are_isomorphic(forward, backward)

    def test_tuple_valued_elements_supported(self):
        two = disjoint_cycles([5, 5])
        nbhd = neighborhood(two, (0, 2), 1)
        assert nbhd.size == 3


class TestConnectivity:
    def test_connected_cycle(self):
        assert is_connected(undirected_cycle(6))

    def test_disconnected_components(self):
        two = disjoint_cycles([3, 4])
        components = connected_components(two)
        assert sorted(len(component) for component in components) == [3, 4]

    def test_single_node_connected(self):
        assert is_connected(empty_graph(1))

    def test_bare_set_components(self):
        structure = Structure(SET, range(4))
        assert len(connected_components(structure)) == 4


class TestMetrics:
    def test_eccentricity_of_chain_end(self):
        assert eccentricity(undirected_chain(5), 0) == 4

    def test_diameter_of_cycle(self):
        assert diameter(undirected_cycle(8)) == 4

    def test_diameter_infinite_when_disconnected(self):
        assert math.isinf(diameter(empty_graph(2)))
