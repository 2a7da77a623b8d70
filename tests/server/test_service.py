"""QueryService: tenants, prepared queries, paging, admission control."""

from __future__ import annotations

import pytest

from repro.errors import BudgetExceededError, ServerError, UnknownResourceError
from repro.eval.evaluator import answers as naive_answers
from repro.logic.parser import parse
from repro.logic.signature import GRAPH
from repro.resilience.budget import Budget
from repro.server.service import (
    DEFAULT_PAGE_SIZE,
    QueryService,
    _tightest,
)
from repro.server import wire
from repro.structures.builders import random_graph, undirected_cycle
from repro.structures.structure import Structure


@pytest.fixture()
def service() -> QueryService:
    return QueryService()


@pytest.fixture()
def cycle_id(service: QueryService) -> str:
    return service.add_structure(undirected_cycle(6), tenant="t1")


# -- tenants -----------------------------------------------------------------


def test_auto_register_creates_session(service: QueryService):
    session = service.tenant("fresh")
    assert session.name == "fresh"
    assert service.tenant("fresh") is session


def test_auto_register_off_is_404():
    strict = QueryService(auto_register=False)
    with pytest.raises(UnknownResourceError):
        strict.tenant("nobody")


def test_register_tenant_idempotent_unless_exist_ok_false(service: QueryService):
    first = service.register_tenant("t", budget=Budget(max_rows=5))
    assert service.register_tenant("t") is first
    with pytest.raises(ServerError) as excinfo:
        service.register_tenant("t", exist_ok=False)
    assert excinfo.value.status == 409


def test_tenant_name_must_be_nonempty(service: QueryService):
    with pytest.raises(ServerError):
        service.register_tenant("")


def test_tenant_inherits_default_budget():
    budgeted = QueryService(default_budget=Budget(max_rows=7))
    assert budgeted.tenant("anon").budget.max_rows == 7


# -- structures --------------------------------------------------------------


def test_add_structure_content_addressed(service: QueryService):
    a = service.add_structure(undirected_cycle(5))
    b = service.add_structure(undirected_cycle(5))
    assert a == b
    assert service.structure(a) == undirected_cycle(5)


def test_add_structure_accepts_wire_dict(service: QueryService):
    structure = undirected_cycle(4)
    from_dict = service.add_structure(wire.structure_to_dict(structure))
    from_object = service.add_structure(structure)
    assert from_dict == from_object


def test_unknown_structure_is_404(service: QueryService):
    with pytest.raises(UnknownResourceError):
        service.structure("s-deadbeef00000000")


# -- prepared queries --------------------------------------------------------


def test_prepare_auto_name_is_deterministic(service: QueryService, cycle_id: str):
    p1 = service.prepare("t1", "exists y. E(x, y)", structure_id=cycle_id)
    p2 = service.prepare("t1", "exists y. E(x, y)", structure_id=cycle_id)
    assert p1.name == p2.name
    assert p1.name.startswith("q-")
    assert p1.free_names == ("x",)


def test_prepare_conflicting_text_is_409(service: QueryService, cycle_id: str):
    service.prepare("t1", "exists y. E(x, y)", name="q", structure_id=cycle_id)
    # Same name, same text: idempotent.
    service.prepare("t1", "exists y. E(x, y)", name="q", structure_id=cycle_id)
    with pytest.raises(ServerError) as excinfo:
        service.prepare("t1", "forall y. E(x, y)", name="q", structure_id=cycle_id)
    assert excinfo.value.status == 409


def test_prepare_rejects_empty_formula(service: QueryService):
    with pytest.raises(ServerError):
        service.prepare("t1", "   ")


def test_prepare_validates_against_structure(service: QueryService, cycle_id: str):
    with pytest.raises(Exception):
        service.prepare("t1", "R(x, y, z)", structure_id=cycle_id)


def test_prepared_queries_are_per_tenant(service: QueryService, cycle_id: str):
    prepared = service.prepare("t1", "E(x, y)", structure_id=cycle_id)
    with pytest.raises(UnknownResourceError):
        service.prepared_query("t2", prepared.name)


def test_prepare_with_constants(service: QueryService):
    structure = Structure(
        GRAPH.extend(constants=["c"]), [1, 2, 3], {"E": [(1, 2), (2, 3)]}, {"c": 1}
    )
    structure_id = service.add_structure(structure)
    prepared = service.prepare("t1", "E(c, x)", structure_id=structure_id)
    assert prepared.constants == ("c",)
    assert prepared.free_names == ("x",)
    page = service.answers("t1", structure_id, query=prepared.name)
    assert page.rows == ((2,),)


# -- answers: prepared, ad-hoc, paging ---------------------------------------


def test_prepared_answers_match_naive(service: QueryService, cycle_id: str):
    structure = undirected_cycle(6)
    text = "exists y. E(x, y)"
    prepared = service.prepare("t1", text, structure_id=cycle_id)
    page = service.answers("t1", cycle_id, query=prepared.name)
    expected = naive_answers(structure, parse(text))
    assert frozenset(page.rows) == expected
    assert page.total_rows == len(expected)
    assert not page.has_more


def test_adhoc_answers_match_naive(service: QueryService, cycle_id: str):
    structure = undirected_cycle(6)
    text = "E(x, y) & ~(x = y)"
    page = service.answers("t1", cycle_id, formula=text)
    assert frozenset(page.rows) == naive_answers(structure, parse(text))


def test_exactly_one_of_query_or_formula(service: QueryService, cycle_id: str):
    with pytest.raises(ServerError):
        service.answers("t1", cycle_id)
    with pytest.raises(ServerError):
        service.answers("t1", cycle_id, query="q", formula="E(x, y)")


def test_paging_partitions_canonically(service: QueryService, cycle_id: str):
    structure = undirected_cycle(6)
    expected = sorted(naive_answers(structure, parse("E(x, y)")), key=repr)
    pages = []
    page_index = 0
    while True:
        page = service.answers(
            "t1", cycle_id, formula="E(x, y)", page=page_index, page_size=5
        )
        pages.append(page)
        if not page.has_more:
            break
        page_index += 1
    rows = [row for page in pages for row in page.rows]
    assert rows == expected
    assert all(page.page_size == 5 for page in pages)
    assert {page.total_rows for page in pages} == {len(expected)}


def test_page_defaults_and_validation(service: QueryService, cycle_id: str):
    page = service.answers("t1", cycle_id, formula="E(x, y)")
    assert page.page_size == DEFAULT_PAGE_SIZE
    with pytest.raises(ServerError):
        service.answers("t1", cycle_id, formula="E(x, y)", page=-1)
    with pytest.raises(ServerError):
        service.answers("t1", cycle_id, formula="E(x, y)", page_size=0)


def test_page_size_clamped_to_max():
    small = QueryService(max_page_size=8)
    structure_id = small.add_structure(undirected_cycle(6))
    page = small.answers("t", structure_id, formula="E(x, y)", page_size=4096)
    assert page.page_size == 8


def test_sentence_answers(service: QueryService, cycle_id: str):
    page = service.answers("t1", cycle_id, formula="exists x. exists y. E(x, y)")
    assert page.rows == ((),)
    assert page.free_names == ()


# -- admission control -------------------------------------------------------


def test_max_rows_refusal_is_typed(service: QueryService, cycle_id: str):
    with pytest.raises(BudgetExceededError) as excinfo:
        service.answers("t1", cycle_id, formula="E(x, y)", max_rows=1)
    assert excinfo.value.spent > excinfo.value.budget == 1
    assert service.tenant("t1").counters["refused"] == 1


def test_tenant_budget_applies_without_request_override():
    budgeted = QueryService(default_budget=Budget(max_rows=1))
    structure_id = budgeted.add_structure(undirected_cycle(6))
    with pytest.raises(BudgetExceededError):
        budgeted.answers("t", structure_id, formula="E(x, y)")


def test_request_can_tighten_but_not_loosen():
    budgeted = QueryService(default_budget=Budget(max_rows=2))
    structure_id = budgeted.add_structure(undirected_cycle(6))
    # Asking for a looser envelope keeps the tenant's tighter one.
    with pytest.raises(BudgetExceededError) as excinfo:
        budgeted.answers("t", structure_id, formula="E(x, y)", max_rows=10_000)
    assert excinfo.value.budget == 2


def test_bad_overrides_rejected(service: QueryService, cycle_id: str):
    with pytest.raises(ServerError):
        service.answers("t1", cycle_id, formula="E(x, y)", deadline_ms=0)
    with pytest.raises(ServerError):
        service.answers("t1", cycle_id, formula="E(x, y)", max_rows=0)


def test_tightest_helper():
    assert _tightest(None, None) is None
    assert _tightest(5, None) == 5
    assert _tightest(None, 7) == 7
    assert _tightest(5, 7) == 5
    assert _tightest(7, 5) == 5


# -- batch -------------------------------------------------------------------


def test_batch_matches_singles(service: QueryService, cycle_id: str):
    structure = undirected_cycle(6)
    prepared = service.prepare("t1", "exists y. E(x, y)", structure_id=cycle_id)
    requests = [
        {"structure_id": cycle_id, "query": prepared.name},
        {"structure_id": cycle_id, "formula": "E(x, y)"},
    ]
    pages = service.answers_batch("t1", requests)
    assert frozenset(pages[0].rows) == naive_answers(
        structure, parse("exists y. E(x, y)")
    )
    assert frozenset(pages[1].rows) == naive_answers(structure, parse("E(x, y)"))


def test_batch_shares_one_budget(service: QueryService, cycle_id: str):
    # Each request alone fits in 8 rows; their sum does not.
    requests = [
        {"structure_id": cycle_id, "formula": "E(x, y)"},
        {"structure_id": cycle_id, "formula": "E(x, y)"},
    ]
    with pytest.raises(BudgetExceededError):
        service.answers_batch("t1", requests, max_rows=15)
    pages = service.answers_batch("t1", requests, max_rows=24)
    assert len(pages) == 2


def test_batch_validates_shape(service: QueryService, cycle_id: str):
    with pytest.raises(ServerError):
        service.answers_batch("t1", [])
    with pytest.raises(ServerError):
        service.answers_batch("t1", [{"structure_id": cycle_id}])
    with pytest.raises(ServerError):
        service.answers_batch("t1", ["not-a-dict"])


def test_batch_per_request_paging(service: QueryService, cycle_id: str):
    pages = service.answers_batch(
        "t1",
        [
            {"structure_id": cycle_id, "formula": "E(x, y)", "page": 0, "page_size": 5},
            {"structure_id": cycle_id, "formula": "E(x, y)", "page": 1, "page_size": 5},
        ],
    )
    assert len(pages[0].rows) == 5
    assert pages[0].rows != pages[1].rows
    assert pages[0].total_rows == pages[1].total_rows == 12


# -- counters, health, metrics ----------------------------------------------


def test_counters_track_outcomes(service: QueryService, cycle_id: str):
    service.answers("t1", cycle_id, formula="E(x, y)")
    with pytest.raises(BudgetExceededError):
        service.answers("t1", cycle_id, formula="E(x, y)", max_rows=1)
    with pytest.raises(Exception):
        service.answers("t1", cycle_id, formula="E(x, (")
    counters = service.tenant("t1").snapshot()["counters"]
    assert counters["answered"] == 1
    assert counters["refused"] == 1
    assert counters["errors"] == 1
    assert counters["requests"] == 3
    assert counters["rows_returned"] == 12


def test_health_shape(service: QueryService, cycle_id: str):
    health = service.health()
    assert health["ok"] is True
    assert health["wire_version"] == wire.WIRE_VERSION
    assert health["structures"] == 1
    assert health["uptime_s"] >= 0


def test_metrics_shape(service: QueryService, cycle_id: str):
    service.answers("t1", cycle_id, formula="E(x, y)")
    metrics = service.metrics()
    assert metrics["wire_version"] == wire.WIRE_VERSION
    assert metrics["requests_served"] == 1
    assert "plan" in metrics["caches"] and "answer" in metrics["caches"]
    assert "t1" in metrics["tenants"]
    tenant = metrics["tenants"]["t1"]
    assert tenant["counters"]["answered"] == 1
    assert set(tenant["breakers"]) == {"engine", "bounded-degree", "naive"}


def test_cross_tenant_plan_cache_shared(service: QueryService):
    """The second tenant's first execution hits the plan the first
    tenant's prepare already paid for."""
    structure_id = service.add_structure(random_graph(8, 2, seed=3))
    service.prepare("alice", "exists y. E(x, y)", structure_id=structure_id)
    hits_before = service.engine.plan_cache.snapshot()["hits"]
    service.answers(
        "bob",
        structure_id,
        query=service.prepare(
            "bob", "exists y. E(x, y)", structure_id=structure_id
        ).name,
    )
    assert service.engine.plan_cache.snapshot()["hits"] > hits_before


# -- executor ----------------------------------------------------------------


def test_columnar_engine_serves_identical_answers():
    """The service's one executor (columnar) serves wire-level rows equal
    to the naive evaluator's, for prepared and ad-hoc queries alike."""
    graph = random_graph(10, 0.3, seed=4)
    text = "exists z (E(x, z) & E(z, y))"
    expected = sorted(naive_answers(graph, parse(text)))
    service = QueryService()
    sid = service.add_structure(graph, tenant="t")
    prepared = service.prepare("t", text)
    for page in (
        service.answers("t", sid, query=prepared.name, page_size=1000),
        service.answers("t", sid, formula=text, page_size=1000),
    ):
        assert sorted(tuple(row) for row in page.rows) == expected
