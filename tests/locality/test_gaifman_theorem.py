"""Tests for Gaifman's theorem machinery (Theorem 3.12)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LocalityError
from repro.eval.evaluator import evaluate
from repro.locality.gaifman_theorem import (
    BasicLocalSentence,
    adjacency_formula,
    distance_at_most,
    distance_greater,
    local_satisfies,
    scattered_tuple_exists,
)
from repro.logic.builder import V, atom, exists
from repro.logic.parser import parse
from repro.logic.signature import GRAPH, Signature
from repro.logic.syntax import Var
from repro.structures.builders import (
    disjoint_cycles,
    random_graph,
    undirected_chain,
    undirected_cycle,
)
from repro.structures.gaifman import distance

import strategies


class TestDistanceFormulas:
    def test_adjacency_matches_gaifman_graph(self):
        graph = random_graph(5, 0.4, seed=21)
        formula = adjacency_formula(GRAPH, Var("x"), Var("y"))
        for a in graph.universe:
            for b in graph.universe:
                expected = distance(graph, a, b) == 1
                assert evaluate(graph, formula, {Var("x"): a, Var("y"): b}) == expected

    def test_adjacency_on_ternary_signature(self):
        sig = Signature({"R": 3})
        from repro.structures.structure import Structure

        structure = Structure(sig, [0, 1, 2, 3], {"R": [(0, 1, 2)]})
        formula = adjacency_formula(sig, Var("x"), Var("y"))
        assert evaluate(structure, formula, {Var("x"): 0, Var("y"): 2})
        assert not evaluate(structure, formula, {Var("x"): 0, Var("y"): 3})

    @pytest.mark.parametrize("r", [0, 1, 2, 3, 5])
    def test_distance_at_most_matches_bfs(self, r):
        chain = undirected_chain(7)
        formula = distance_at_most(GRAPH, r, Var("x"), Var("y"))
        for a in (0, 3):
            for b in chain.universe:
                expected = distance(chain, a, b) <= r
                assert evaluate(chain, formula, {Var("x"): a, Var("y"): b}) == expected

    def test_distance_greater(self):
        chain = undirected_chain(6)
        formula = distance_greater(GRAPH, 2, Var("x"), Var("y"))
        assert evaluate(chain, formula, {Var("x"): 0, Var("y"): 5})
        assert not evaluate(chain, formula, {Var("x"): 0, Var("y"): 2})

    def test_negative_bound_rejected(self):
        with pytest.raises(LocalityError):
            distance_at_most(GRAPH, -1, Var("x"), Var("y"))


class TestLocalSatisfaction:
    def test_quantifiers_restricted_to_ball(self):
        # "some neighbor of x has degree 1" is true of chain node 1
        # within radius 1 (node 0 qualifies), and the far end is invisible.
        chain = undirected_chain(5)
        x = V("x")
        formula = exists("y", atom("E", x, "y") & ~exists("z", atom("E", "y", "z") & ~(V("z") == x)))
        assert local_satisfies(chain, formula, 1, radius=1)

    def test_global_fact_invisible_locally(self):
        # ∃y distinct non-adjacent from x: true globally on a long chain,
        # false within radius 1 of an interior node... radius-1 ball of
        # node 2 on a 5-chain is {1,2,3}: 1 and 3 are non-adjacent to
        # each other but both adjacent to 2 — so it IS false.
        chain = undirected_chain(5)
        x = V("x")
        formula = exists("y", ~(V("y") == x) & ~atom("E", x, "y") & ~atom("E", "y", x))
        assert not local_satisfies(chain, formula, 2, radius=1)
        assert evaluate(chain, exists("x", formula))

    def test_requires_single_free_variable(self):
        with pytest.raises(LocalityError):
            local_satisfies(undirected_chain(3), parse("E(x, y)"), 0, radius=1)


class TestScatteredTuples:
    def test_finds_far_apart_nodes(self):
        chain = undirected_chain(10)
        witness = scattered_tuple_exists(chain, list(chain.universe), 2, 4)
        assert witness is not None
        a, b = witness
        assert distance(chain, a, b) > 4

    def test_none_when_impossible(self):
        chain = undirected_chain(4)
        assert scattered_tuple_exists(chain, list(chain.universe), 2, 10) is None

    def test_zero_count(self):
        assert scattered_tuple_exists(undirected_chain(3), [0], 0, 1) == ()

    def test_negative_min_distance_rejected(self):
        with pytest.raises(LocalityError, match="min_distance"):
            scattered_tuple_exists(undirected_chain(3), [0, 2], 2, -1)

    def test_backtracking_needed_case(self):
        # A greedy pick of 0 then 5 would block a third witness; the
        # search must backtrack to (0, 4, 8).
        chain = undirected_chain(9)
        witness = scattered_tuple_exists(chain, [0, 4, 5, 8], 3, 3)
        assert witness is not None


def _scattered_by_distance(structure, candidates, count, min_distance):
    """Reference search: pairwise ``distance`` checks, same backtracking order."""
    chosen = []

    def backtrack(start):
        if len(chosen) == count:
            return True
        for index in range(start, len(candidates)):
            candidate = candidates[index]
            if all(distance(structure, previous, candidate) > min_distance for previous in chosen):
                chosen.append(candidate)
                if backtrack(index + 1):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if backtrack(0) else None


@given(
    structure=strategies.graphs(min_size=1, max_size=8),
    count=st.integers(min_value=1, max_value=4),
    min_distance=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_scattered_tuples_match_pairwise_distance_search(structure, count, min_distance, data):
    candidates = data.draw(st.permutations(list(structure.universe)))
    assert scattered_tuple_exists(
        structure, candidates, count, min_distance
    ) == _scattered_by_distance(structure, candidates, count, min_distance)


class TestBasicLocalSentences:
    def test_direct_evaluation(self):
        # Two scattered nodes with an incident edge.
        x = V("x")
        sentence = BasicLocalSentence(exists("y", atom("E", x, "y")), radius=1, count=2)
        assert sentence.evaluate(undirected_cycle(10))
        assert not sentence.evaluate(undirected_cycle(4))  # no 2 nodes > 2 apart

    def test_witnesses_are_scattered(self):
        x = V("x")
        sentence = BasicLocalSentence(exists("y", atom("E", x, "y")), radius=1, count=3)
        cycle = undirected_cycle(12)
        witnesses = sentence.witnesses(cycle)
        assert witnesses is not None
        for i, a in enumerate(witnesses):
            for b in witnesses[:i]:
                assert distance(cycle, a, b) > 2

    def test_validation(self):
        x = V("x")
        good = exists("y", atom("E", x, "y"))
        with pytest.raises(LocalityError):
            BasicLocalSentence(parse("E(x, y)"), 1, 1)
        with pytest.raises(LocalityError):
            BasicLocalSentence(good, -1, 1)
        with pytest.raises(LocalityError):
            BasicLocalSentence(good, 1, 0)

    def test_compiled_formula_agrees_with_direct_evaluation(self):
        """E11's core check: geometric and FO evaluation coincide."""
        x = V("x")
        local = exists("y", atom("E", x, "y"))
        for radius, count in [(1, 1), (1, 2), (2, 2)]:
            sentence = BasicLocalSentence(local, radius=radius, count=count)
            compiled = sentence.to_formula(GRAPH)
            for structure in [
                undirected_cycle(8),
                undirected_cycle(12),
                disjoint_cycles([5, 7]),
                undirected_chain(9),
                random_graph(6, 0.3, seed=31),
            ]:
                assert sentence.evaluate(structure) == evaluate(structure, compiled), (
                    radius,
                    count,
                    structure,
                )

    def test_compiled_formula_with_degree_condition(self):
        # φ(x) = "x has at least two distinct neighbors", r-local at r=1.
        x, y, z = V("x"), V("y"), V("z")
        local = exists("y", exists("z", atom("E", x, "y") & atom("E", x, "z") & ~(y == z)))
        sentence = BasicLocalSentence(local, radius=1, count=2)
        compiled = sentence.to_formula(GRAPH)
        for structure in [undirected_cycle(10), undirected_chain(10), disjoint_cycles([4, 6])]:
            assert sentence.evaluate(structure) == evaluate(structure, compiled)
