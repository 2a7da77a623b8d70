"""End-to-end observability: trace echo, explain, /metrics negotiation,
concurrent trace isolation, and access-log degradation joins."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.resilience.faults import FaultInjector, reset_injector, set_injector
from repro.server import wire
from repro.server.http import serve
from repro.server.service import QueryService
from repro.structures.builders import undirected_cycle
from repro.telemetry.context import normalize_trace_id
from repro.telemetry.logs import AccessLog
from repro.telemetry.prometheus import parse_exposition


@pytest.fixture(scope="module")
def server_url():
    # Always-sampled so span trees are present in every explain payload.
    server, thread = serve(QueryService(trace_sample=1.0))
    yield server.url
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _request(
    url: str, payload: dict | None = None, headers: dict | None = None
) -> tuple[int, dict, dict]:
    """(status, body, response-headers) for a GET (payload=None) or POST."""
    request = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


@pytest.fixture(scope="module")
def cycle_id(server_url: str) -> str:
    status, body, _ = _request(
        server_url + "/v1/structures",
        {"tenant": "t", "structure": wire.structure_to_dict(undirected_cycle(6))},
    )
    assert status == 200
    return body["structure_id"]


def _span_trace_ids(node: dict) -> set:
    ids = {node.get("trace_id")}
    for child in node.get("children", ()):
        ids |= _span_trace_ids(child)
    return ids


class TestTraceEcho:
    def test_success_echoes_client_trace_id(self, server_url, cycle_id):
        status, body, headers = _request(
            server_url + "/v1/answers",
            {
                "tenant": "t",
                "structure_id": cycle_id,
                "formula": "E(x, y)",
                "trace_id": "abc123",
            },
        )
        assert status == 200
        assert body["trace_id"] == "abc123"
        assert headers["X-Trace-Id"] == "abc123"

    def test_typed_429_echoes_trace_id(self, server_url, cycle_id):
        status, body, headers = _request(
            server_url + "/v1/answers",
            {
                "tenant": "t",
                "structure_id": cycle_id,
                "formula": "E(x, y)",
                "max_rows": 1,
                "trace_id": "feed01",
            },
        )
        assert status == 429
        assert body["error"]["type"] == "BudgetExceededError"
        assert body["error"]["refusal"] is True
        assert body["trace_id"] == "feed01"
        assert headers["X-Trace-Id"] == "feed01"

    def test_server_mints_when_client_sends_none(self, server_url, cycle_id):
        status, body, _ = _request(
            server_url + "/v1/answers",
            {"tenant": "t", "structure_id": cycle_id, "formula": "E(x, y)"},
        )
        assert status == 200
        minted = body["trace_id"]
        assert normalize_trace_id(minted) == minted

    def test_invalid_client_id_is_replaced_not_echoed(self, server_url, cycle_id):
        status, body, _ = _request(
            server_url + "/v1/answers",
            {
                "tenant": "t",
                "structure_id": cycle_id,
                "formula": "E(x, y)",
                "trace_id": "NOT HEX!",
            },
        )
        assert status == 200
        assert body["trace_id"] != "NOT HEX!"
        assert normalize_trace_id(body["trace_id"]) == body["trace_id"]

    def test_header_seeds_trace_when_body_has_none(self, server_url, cycle_id):
        status, body, _ = _request(
            server_url + "/v1/answers",
            {"tenant": "t", "structure_id": cycle_id, "formula": "E(x, y)"},
            headers={"X-Trace-Id": "beefcafe"},
        )
        assert status == 200
        assert body["trace_id"] == "beefcafe"


class TestExplain:
    def test_explain_payload_shape(self, server_url, cycle_id):
        status, body, _ = _request(
            server_url + "/v1/answers",
            {
                "tenant": "t",
                "structure_id": cycle_id,
                "formula": "E(x, y)",
                "explain": True,
                "trace_id": "deadbeef",
            },
        )
        assert status == 200
        explain = body["explain"]
        assert explain["trace_id"] == "deadbeef"
        assert explain["sampled"] is True
        plan = explain["profile"]["plan"]
        assert plan["op"]
        assert plan["actual_rows"] is not None
        assert isinstance(explain["profile"]["rows"], int)
        (root,) = explain["spans"]
        assert root["name"] == "server.request"
        assert _span_trace_ids(root) == {"deadbeef"}

    def test_explained_prepared_query_serves_the_same_rows(self, server_url, cycle_id):
        """explain:true profiles on the executor that serves the plain
        request: the same rows come back, and every plan node carries
        actuals or names the node it was fused into."""
        status, prepared, _ = _request(
            server_url + "/v1/queries",
            {
                "tenant": "t",
                "formula": "exists z. (E(x, z) & E(z, y)) & ~E(x, y)",
                "structure_id": cycle_id,
            },
        )
        assert status == 200
        request = {"tenant": "t", "structure_id": cycle_id, "query": prepared["query"]}
        status, plain, _ = _request(server_url + "/v1/answers", request)
        assert status == 200
        status, explained, _ = _request(
            server_url + "/v1/answers", {**request, "explain": True}
        )
        assert status == 200
        assert explained["rows"] == plain["rows"]
        assert explained["total_rows"] == plain["total_rows"] > 0
        profile = explained["explain"]["profile"]
        assert profile["rows"] == plain["total_rows"]
        stack = [profile["plan"]]
        while stack:
            node = stack.pop()
            assert (node["actual_rows"] is None) == (node["fused_into"] is not None)
            stack.extend(node["children"])

    def test_explain_absent_by_default(self, server_url, cycle_id):
        status, body, _ = _request(
            server_url + "/v1/answers",
            {"tenant": "t", "structure_id": cycle_id, "formula": "E(x, y)"},
        )
        assert status == 200
        assert "explain" not in body


class TestMetricsNegotiation:
    def test_default_stays_json(self, server_url):
        status, body, headers = _request(server_url + "/metrics")
        assert status == 200
        assert "application/json" in headers["Content-Type"]
        assert body["wire_version"] == wire.WIRE_VERSION

    def test_accept_header_selects_prometheus(self, server_url, cycle_id):
        request = urllib.request.Request(
            server_url + "/metrics", headers={"Accept": "text/plain"}
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert "text/plain; version=0.0.4" in response.headers["Content-Type"]
            text = response.read().decode()
        families = parse_exposition(text)  # strict: raises on malformed output
        assert families["server_requests_total"]["type"] == "counter"
        tenant_series = [
            key
            for key in families["server_requests_total"]["samples"]
            if 'tenant="t"' in key
        ]
        assert tenant_series

    def test_query_param_overrides_accept(self, server_url):
        request = urllib.request.Request(
            server_url + "/metrics?format=prometheus",
            headers={"Accept": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            text = response.read().decode()
        assert parse_exposition(text)
        status, body, _ = _request(server_url + "/metrics?format=json")
        assert status == 200
        assert "requests_served" in body


class TestConcurrentTraceIsolation:
    def test_hammering_tenants_never_cross_traces(self, server_url, cycle_id):
        # Satellite: 8 threads x 2 tenants, every span tree exactly one
        # trace id, no span adopted across tenants.
        rounds = 5
        failures: list[str] = []
        barrier = threading.Barrier(8)

        def hammer(worker: int) -> None:
            tenant = f"iso-{worker % 2}"
            barrier.wait()
            for round_no in range(rounds):
                trace_id = f"{worker:02d}{round_no:02d}abcd"
                status, body, headers = _request(
                    server_url + "/v1/answers",
                    {
                        "tenant": tenant,
                        "structure_id": cycle_id,
                        "formula": "exists y. E(x, y)",
                        "explain": True,
                        "trace_id": trace_id,
                    },
                )
                if status != 200:
                    failures.append(f"{trace_id}: status {status}")
                    continue
                if body["trace_id"] != trace_id:
                    failures.append(f"{trace_id}: echoed {body['trace_id']}")
                if headers.get("X-Trace-Id") != trace_id:
                    failures.append(f"{trace_id}: header {headers.get('X-Trace-Id')}")
                for root in body["explain"]["spans"]:
                    ids = _span_trace_ids(root)
                    if ids != {trace_id}:
                        failures.append(f"{trace_id}: span tree carried {ids}")

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert failures == []


class TestAccessLogJoins:
    def _service(self) -> tuple[QueryService, AccessLog, str]:
        log = AccessLog(slow_ms=0.0)
        service = QueryService(trace_sample=1.0, access_log=log)
        structure_id = service.add_structure(undirected_cycle(6), tenant="t")
        service.prepare("t", "exists y. E(x, y)", name="q", structure_id=structure_id)
        return service, log, structure_id

    def test_every_request_logs_one_line(self):
        service, log, structure_id = self._service()
        service.answers("t", structure_id, query="q", trace_id="aa01")
        service.answers("t", structure_id, formula="E(x, y)", trace_id="aa02")
        entries = log.recent()
        assert [entry["trace_id"] for entry in entries] == ["aa01", "aa02"]
        assert entries[0]["query_hash"] is not None
        assert entries[0]["tenant"] == "t"
        assert entries[0]["status"] == 200
        assert entries[0]["outcome"] == "ok"
        assert entries[0]["rows"] == 6
        assert entries[0]["budget_rows_spent"] is None  # no budget set
        assert "engine" in entries[0]["breakers"]

    def test_refusal_logged_with_trace_id(self):
        service, log, structure_id = self._service()
        from repro.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            service.answers(
                "t", structure_id, formula="E(x, y)", max_rows=1, trace_id="bb01"
            )
        (entry,) = log.recent()
        assert entry["trace_id"] == "bb01"
        assert entry["status"] == 429
        assert entry["outcome"] == "refused"
        assert entry["budget_rows_spent"] is not None

    def test_degradations_resolve_to_request_trace_ids(self):
        # The acceptance-criteria join: every degradation event in the log
        # belongs to the exact request whose line carries it.
        service, log, structure_id = self._service()
        # Distinct formulas per request: cache hits never reach a rung, so
        # a repeated prepared query would see no faults at all.
        texts = [
            "E(x, y)",
            "exists y. E(x, y)",
            "forall y. E(x, y)",
            "E(x, y) & E(y, x)",
            "E(x, y) | E(y, x)",
            "~(E(x, x))",
            "exists z. (E(x, z) & E(z, y))",
            "forall z. (E(x, z) -> E(z, y))",
        ]
        for index, text in enumerate(texts):
            service.prepare("t", text, name=f"q{index}", structure_id=structure_id)
        set_injector(FaultInjector(period=2))
        try:
            for index in range(len(texts)):
                service.answers(
                    "t", structure_id, query=f"q{index}", trace_id=f"cc{index:02d}"
                )
        finally:
            reset_injector()
        entries = log.recent()
        assert len(entries) == 8
        degraded = [entry for entry in entries if entry["degradations"]]
        assert degraded, "period-2 fault injection must force degradations"
        for entry in degraded:
            for event in entry["degradations"]:
                assert event["trace_id"] == entry["trace_id"]
                assert event["rung"]
