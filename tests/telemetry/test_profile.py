"""EXPLAIN ANALYZE tests: ``Engine.profile`` actuals vs ``Engine.answers``."""

import pytest

from repro.engine import Engine, ProfiledExplanation
from repro.errors import EvaluationError
from repro.eval.evaluator import answers as naive_answers
from repro.logic.parser import parse
from repro.logic.syntax import Var
from repro.queries.zoo import fo_graph_corpus
from repro.structures.builders import random_graph

DISTANCE_TWO = parse("exists z (E(x, z) & E(z, y)) & ~E(x, y)")


def plan_nodes(plan):
    yield plan
    for child in plan.children():
        yield from plan_nodes(child)


class TestProfile:
    def test_profile_answers_match_engine_and_naive(self):
        engine = Engine()
        graph = random_graph(12, 0.3, seed=3)
        profile = engine.profile(graph, DISTANCE_TWO)
        assert isinstance(profile, ProfiledExplanation)
        assert profile.answers == engine.answers(graph, DISTANCE_TWO)
        assert profile.answers == naive_answers(graph, DISTANCE_TWO)

    def test_every_plan_node_has_actuals(self):
        """Every node has actuals of its own, or names (``fused_into``)
        an ancestor with actuals whose pipeline step absorbed it."""
        engine = Engine()
        graph = random_graph(12, 0.3, seed=3)
        for query in fo_graph_corpus():
            profile = engine.profile(graph, query.formula)
            document = profile.to_dict()
            fused_seen = 0

            def check(node, wire, ancestors):
                nonlocal fused_seen
                actuals = profile.node_actuals(node)
                if actuals is not None:
                    assert actuals.rows >= 0
                    assert actuals.seconds >= 0.0
                    assert wire["fused_into"] is None
                    assert wire["actual_rows"] == actuals.rows
                else:
                    owner = profile.fused_into.get(id(node))
                    assert owner is not None, (query.name, node.label())
                    assert any(owner is ancestor for ancestor in ancestors)
                    assert profile.node_actuals(owner) is not None
                    assert wire["fused_into"] == owner.label()
                    assert wire["actual_rows"] is None
                    fused_seen += 1
                for child, child_wire in zip(node.children(), wire["children"]):
                    check(child, child_wire, ancestors + (node,))

            check(profile.plan, document["plan"], ())
            assert profile.node_actuals(profile.plan) is not None
            assert str(profile).count("fused into") == fused_seen

    def test_fused_nodes_are_reported(self):
        """The shapes the compiler fuses name the step that absorbed
        them: on-triangle's joins and out-dominated's union, extends and
        inner complement."""
        engine = Engine()
        graph = random_graph(12, 0.3, seed=3)
        corpus = {query.name: query.formula for query in fo_graph_corpus()}
        for name, labels in (
            ("on-triangle", {"Join"}),
            ("out-dominated", {"Union", "Extend", "Complement"}),
        ):
            profile = engine.profile(graph, corpus[name])
            fused = {
                node.label().split("[")[0]
                for node in plan_nodes(profile.plan)
                if id(node) in profile.fused_into
            }
            assert labels <= fused, (name, fused)

    def test_root_actual_rows_equal_answer_count(self):
        engine = Engine()
        graph = random_graph(12, 0.3, seed=3)
        profile = engine.profile(graph, DISTANCE_TWO)
        assert profile.node_actuals(profile.plan).rows == len(profile.answers)

    def test_estimates_preserved_next_to_actuals(self):
        engine = Engine()
        profile = engine.profile(random_graph(12, 0.3, seed=3), DISTANCE_TWO)
        explanation = engine.explain(random_graph(12, 0.3, seed=3), DISTANCE_TWO)
        assert profile.plan == explanation.plan  # same cached plan, same estimates
        text = str(profile)
        assert "est=" in text
        assert "actual=" in text
        assert "answer rows" in text

    def test_profile_works_without_telemetry_enabled(self):
        # EXPLAIN ANALYZE must not require the global switch: the
        # recorder rides on the executor, not on the tracer.
        from repro import telemetry

        assert_was = telemetry.is_enabled()
        telemetry.disable()
        try:
            engine = Engine()
            profile = engine.profile(random_graph(10, 0.25, seed=4), DISTANCE_TWO)
            assert profile.actuals
        finally:
            if assert_was:
                telemetry.enable()

    def test_profile_bypasses_answer_cache(self):
        engine = Engine()
        graph = random_graph(10, 0.25, seed=4)
        engine.answers(graph, DISTANCE_TWO)
        executions = engine.stats.executions
        engine.profile(graph, DISTANCE_TWO)
        assert engine.stats.executions == executions + 1

    def test_profile_sentence_and_custom_free_order(self):
        engine = Engine()
        graph = random_graph(8, 0.4, seed=5)
        sentence = parse("exists x exists y (E(x, y) & E(y, x))")
        profile = engine.profile(graph, sentence)
        assert profile.answers in (frozenset(), frozenset({()}))
        reordered = engine.profile(
            graph, DISTANCE_TWO, free_order=(Var("y"), Var("x"))
        )
        assert reordered.answers == engine.answers(
            graph, DISTANCE_TWO, free_order=(Var("y"), Var("x"))
        )

    def test_profile_rejects_bad_free_order(self):
        engine = Engine()
        graph = random_graph(8, 0.4, seed=5)
        with pytest.raises(EvaluationError):
            engine.profile(graph, DISTANCE_TWO, free_order=(Var("x"),))
        with pytest.raises(EvaluationError):
            engine.profile(
                graph, DISTANCE_TWO, free_order=(Var("x"), Var("x"), Var("y"))
            )

    def test_profile_across_the_query_zoo(self):
        engine = Engine()
        graph = random_graph(10, 0.2, seed=6)
        for query in fo_graph_corpus():
            profile = engine.profile(graph, query.formula, query.variables)
            assert profile.answers == naive_answers(
                graph, query.formula, query.variables
            ), query.name
