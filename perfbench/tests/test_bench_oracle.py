"""The benchmark's reference answers agree with the library's naive evaluator.

The oracle never calls the library while the benchmark runs; these tests
cross-check it once against ``repro.eval.evaluator`` on small graphs,
and check that the benchmark's formula texts are the library's corpora.
"""

import random

import inputs
import oracle
import pytest

from repro.eval.evaluator import answers, evaluate
from repro.logic.parser import parse
from repro.logic.syntax import Var
from repro.queries import fo_boolean_corpus, fo_graph_corpus
from repro.structures.builders import GRAPH
from repro.structures.structure import Structure


def graphs():
    rng = random.Random(4)
    yield 12, inputs.sparse_graph(12, rng)
    yield 10, inputs.bounded_degree_edges(10, rng)
    yield 6, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (3, 4)]


def test_texts_are_the_library_corpora():
    assert [(q.name, q.formula) for q in fo_graph_corpus()] == [
        (name, parse(text)) for name, text, _ in inputs.GRAPH_QUERIES
    ]
    assert [(q.name, q.formula) for q in fo_boolean_corpus()] == [
        (name, parse(text)) for name, text in inputs.BOOLEAN_QUERIES
    ]


@pytest.mark.parametrize("n, edges", list(graphs()))
def test_graph_queries_and_enumerations(n, edges):
    structure = Structure(GRAPH, range(n), {"E": edges})
    g = oracle.Graph(n, edges)
    queries = [(name, text, free, oracle.graph_query) for name, text, free in inputs.GRAPH_QUERIES]
    queries += [(name, text, free, oracle.enumeration) for name, text, free in inputs.ENUMERATIONS]
    for name, text, free, reference in queries:
        order = tuple(Var(v) for v in free)
        assert reference(name, g) == set(answers(structure, parse(text), order)), name


@pytest.mark.parametrize("n, edges", list(graphs()))
def test_boolean_queries(n, edges):
    structure = Structure(GRAPH, range(n), {"E": edges})
    g = oracle.Graph(n, edges)
    for name, text in inputs.BOOLEAN_QUERIES:
        assert oracle.boolean_query(name, g) == evaluate(structure, parse(text)), name


def test_reorder_and_canonical_order():
    rows = {(1, 10), (2, 3)}
    assert oracle.reorder(rows, (1, 0)) == {(10, 1), (3, 2)}
    assert oracle.canonical({(10,), (9,)}) == [(10,), (9,)]
