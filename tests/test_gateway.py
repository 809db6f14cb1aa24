"""Tests for the live-mode gateway: interceptors, HTTP endpoints, loadgen."""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.core.config import ArgusConfig
from repro.core.system import ArgusSystem
from repro.gateway.interceptors import RequestContext, compose, tenant_resolution
from repro.gateway.loadgen import replay_async
from repro.gateway.server import Gateway, prompt_from_payload
from repro.gateway.workers import StubWorker, least_backlog_worker
from repro.metrics.prometheus import render_prometheus
from repro.models.zoo import ModelZoo
from repro.prompts import memo
from repro.prompts.dataset import PromptDataset
from repro.prompts.generator import Prompt
from repro.runtime.wall import WallClockRuntime
from repro.scenarios import get_scenario, verify_report, violations


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _prompt(tenant: str = "") -> Prompt:
    return replace(PromptDataset.synthetic(count=1, seed=7).prompts[0], tenant=tenant)


# --------------------------------------------------------------------- #
# Interceptor chain
# --------------------------------------------------------------------- #


def test_compose_runs_interceptors_outermost_first():
    order: list[str] = []

    def make(tag):
        async def layer(ctx, call_next):
            order.append(f"{tag}:in")
            await call_next(ctx)
            order.append(f"{tag}:out")

        return layer

    async def terminal(ctx):
        order.append("terminal")

    handler = compose([make("a"), make("b")], terminal)
    asyncio.run(handler(RequestContext(prompt=_prompt(), received_at_s=0.0)))
    assert order == ["a:in", "b:in", "terminal", "b:out", "a:out"]


def test_tenant_resolution_drops_unknown_tenant():
    async def terminal(ctx):
        ctx.response["reached"] = True

    handler = compose([tenant_resolution(frozenset({"gold"}))], terminal)

    ctx = RequestContext(prompt=_prompt(tenant="intruder"), received_at_s=0.0)
    asyncio.run(handler(ctx))
    assert ctx.dropped and "intruder" in ctx.drop_reason

    ok = RequestContext(prompt=_prompt(tenant="gold"), received_at_s=0.0)
    asyncio.run(handler(ok))
    assert not ok.dropped and ok.response["reached"]


def test_least_backlog_worker_prefers_idle_then_lowest_id():
    zoo = ModelZoo()
    runtime = WallClockRuntime()
    workers = [
        StubWorker(worker_id=i, gpu="A100", zoo=zoo, runtime=runtime) for i in range(3)
    ]
    assert least_backlog_worker(workers).worker_id == 0
    workers[0].backlog_s = 5.0
    assert least_backlog_worker(workers).worker_id == 1


def test_prompt_from_payload_round_trips_and_accepts_text_shorthand():
    original = PromptDataset.synthetic(count=3, seed=11).prompts[2]
    rebuilt = prompt_from_payload(asdict(original))
    assert rebuilt == original
    nested = prompt_from_payload({"prompt": asdict(original)})
    assert nested == original
    shorthand = prompt_from_payload({"text": "a cat", "tenant": "gold"})
    assert shorthand.text == "a cat" and shorthand.tenant == "gold"


def test_text_shorthand_prompt_id_is_stable_across_processes():
    # The built-in hash() is salted per process; the id (and so the cache
    # key) of a curl prompt must not change with the server's start.
    script = (
        "from repro.gateway.server import prompt_from_payload; "
        "print(prompt_from_payload({'text': 'a cat'}).prompt_id)"
    )
    ids = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout.strip()
        for hash_seed in ("1", "2")
    }
    assert ids == {str(prompt_from_payload({"text": "a cat"}).prompt_id)}


# --------------------------------------------------------------------- #
# Prometheus rendering
# --------------------------------------------------------------------- #


def test_render_prometheus_shape():
    gateway = Gateway(config=ArgusConfig(num_workers=2), time_scale=100.0)
    text = render_prometheus(gateway.collector, extra_gauges={"fleet_workers": 2.0})
    assert "# TYPE repro_requests_offered_total counter" in text
    assert "repro_fleet_workers 2.0" in text
    assert text.endswith("\n")


# --------------------------------------------------------------------- #
# Gateway end-to-end over HTTP
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "config",
    [None, ArgusConfig(cache_shards=2, cache_replication=1)],
    ids=["default", "tier"],
)
def test_gateway_smoke_replay_satisfies_contracts(config):
    """A time-compressed live replay of steady-baseline satisfies the same
    contract set the simulated run certifies, over the flat cache and over
    a cache tier (whose per-shard accounting must then be conserved)."""
    scenario = get_scenario("steady-baseline")
    result = asyncio.run(
        replay_async(
            scenario,
            preset="small",
            time_scale=300.0,
            max_minutes=2.0,
            config=config,
            check_contracts=True,
        )
    )
    assert result.requests_sent > 0
    assert result.requests_ok == result.requests_sent
    assert not violations(result.contract_results)
    summary = result.report["summary"]
    assert summary["total_completions"] == result.requests_ok
    assert "repro_requests_served_total" in result.metrics_text
    if config is not None:
        checks = verify_report(result.report, ("conservation", "cache-tier"))
        assert all(check.passed and not check.vacuous for check in checks), checks


def test_gateway_config_endpoint_round_trips():
    async def scenario():
        config = ArgusConfig(num_workers=3, seed=42)
        gateway = Gateway(config=config, time_scale=200.0)
        await gateway.start()
        try:
            reader, writer = await asyncio.open_connection(gateway.host, gateway.port)
            writer.write(b"GET /config HTTP/1.1\r\nConnection: close\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
        finally:
            await gateway.stop()
        body = raw.split(b"\r\n\r\n", 1)[1]
        return config, json.loads(body)

    config, payload = asyncio.run(scenario())
    assert ArgusConfig.from_dict(payload) == config


def test_gateway_rejects_unknown_route_and_bad_json():
    async def scenario():
        gateway = Gateway(config=ArgusConfig(num_workers=1), time_scale=200.0)
        await gateway.start()
        try:
            status_404, _, _ = await gateway.handle("GET", "/nope", b"")
            status_400, _, body = await gateway.handle("POST", "/v1/generate", b"{broken")
        finally:
            await gateway.stop()
        return status_404, status_400, body

    status_404, status_400, body = asyncio.run(scenario())
    assert status_404 == 404
    assert status_400 == 400
    assert b"invalid JSON" in body


def _handle(method: str, target: str, body: bytes = b"") -> tuple[int, dict]:
    async def scenario():
        gateway = Gateway(config=ArgusConfig(num_workers=1), time_scale=200.0)
        await gateway.start()
        try:
            status, _, payload = await gateway.handle(method, target, body)
        finally:
            await gateway.stop()
        return status, json.loads(payload)

    return asyncio.run(scenario())


@pytest.mark.parametrize("body", [b"[1, 2]", b'"hello"'], ids=["array", "string"])
def test_gateway_rejects_non_object_json_body(body):
    status, payload = _handle("POST", "/v1/generate", body)
    assert status == 400
    assert "JSON object" in payload["error"]


@pytest.mark.parametrize("query", ["seed=abc", "duration_minutes=abc"])
def test_gateway_rejects_non_numeric_report_parameters(query):
    status, payload = _handle("GET", f"/report?{query}")
    assert status == 400
    assert "abc" in payload["error"]


def test_gateway_answers_bad_content_length_over_socket():
    async def scenario():
        gateway = Gateway(config=ArgusConfig(num_workers=1), time_scale=200.0)
        await gateway.start()
        try:
            reader, writer = await asyncio.open_connection(gateway.host, gateway.port)
            writer.write(b"POST /v1/generate HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
        finally:
            await gateway.stop()
        return raw

    head, _, body = asyncio.run(scenario()).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    assert "Content-Length" in json.loads(body)["error"]


def test_gateway_report_passes_verify_report_dict_shape():
    async def scenario():
        gateway = Gateway(config=ArgusConfig(num_workers=2), time_scale=500.0)
        await gateway.start()
        try:
            status, payload = await gateway.handle_generate(
                {"text": "a quiet harbor at dawn"}
            )
            assert status == 200 and payload["latency_s"] > 0
            return gateway.report_dict()
        finally:
            await gateway.stop()

    report = asyncio.run(scenario())
    results = verify_report(report, ("conservation",))
    assert not violations(results)
    assert report["system"] == "gateway"
    assert report["extras"]["outstanding"] == {
        "worker_queues": 0,
        "admission_backlog": 0,
    }


def test_gateway_tenanted_config_reports_cache_tenants():
    config = ArgusConfig(
        num_workers=2,
        tenants=[
            {"name": "gold", "weight": 2.0, "traffic_share": 0.5, "cache_quota": 50},
            {"name": "bronze", "weight": 1.0, "traffic_share": 0.5, "cache_quota": 25},
        ],
    )

    async def scenario():
        gateway = Gateway(config=config, time_scale=500.0)
        await gateway.start()
        try:
            status, payload = await gateway.handle_generate(
                {"text": "tenant traffic", "tenant": "gold"}
            )
            assert status == 200
            status_bad, payload_bad = await gateway.handle_generate(
                {"text": "who dis", "tenant": "intruder"}
            )
            return gateway.report_dict(), status_bad, payload_bad
        finally:
            await gateway.stop()

    report, status_bad, payload_bad = asyncio.run(scenario())
    assert status_bad == 422 and payload_bad["dropped"]
    cache_tenants = report["extras"]["cache_tenants"]
    assert set(cache_tenants) == {"gold", "bronze"}
    assert cache_tenants["gold"]["entries"] <= cache_tenants["gold"]["quota"]
    results = verify_report(report, ("conservation", "cache-quota"))
    assert not violations(results)
    assert all(r.passed for r in results)


@pytest.mark.parametrize("warm, training", [(300, 2000), (500, 200)])
def test_gateway_warms_the_prompts_the_simulator_warms(warm, training):
    """Both warm the head of the offline training set, which holds
    ``classifier_training_prompts`` prompts."""
    config = ArgusConfig(
        num_workers=2,
        cache_warm_prompts=warm,
        classifier_training_prompts=training,
        profiling_prompts=100,
    )
    gateway = Gateway(config=config, time_scale=100.0)
    system = ArgusSystem(config=config, prompt_aware=False)
    expected = list(range(min(warm, training)))
    assert list(gateway.cache._stores[""]._entries) == expected
    assert list(system.cache._stores[""]._entries) == expected


def test_gateway_memos_stay_bounded_on_free_text(monkeypatch):
    """Distinct free-text posts cannot grow a per-prompt memo or a word
    table past the shared bound, and a prompt whose entries were evicted
    gets the same embedding and PickScores again."""
    cap = 16
    monkeypatch.setattr(memo, "MAX_ENTRIES", cap)
    texts = [f"free text number {i}, a harbor at dawn" for i in range(3 * cap)]
    first = prompt_from_payload({"text": texts[0]})

    async def scenario():
        gateway = Gateway(config=ArgusConfig(num_workers=2), time_scale=500.0)
        await gateway.start()
        try:
            before = None
            for text in texts:
                status, _, _ = await gateway.handle(
                    "POST", "/v1/generate", json.dumps({"text": text}).encode()
                )
                assert status == 200
                if before is None:
                    before = _prompt_results(gateway, first)
        finally:
            await gateway.stop()
        return gateway, before

    gateway, before = asyncio.run(scenario())
    embedder, pickscore = gateway.cache.embedder, gateway.pickscore
    memos = {
        "embeddings": embedder._cache,
        "topic vectors": embedder._topic_cache,
        "embedder words": embedder._words,
        "best scores": pickscore._best_cache,
        "tolerances": pickscore._tolerance_cache,
        "scores": pickscore._score_cache,
        "nearest matches": gateway.cache._nearest_memo,
    }
    for name, table in memos.items():
        assert 0 < len(table) <= cap, name
    key = first.content_hash()
    assert (key, first.topic) not in embedder._cache
    assert key not in pickscore._best_cache
    assert ("", key) not in gateway.cache._nearest_memo
    again = _prompt_results(gateway, first)
    assert again[0].tobytes() == before[0].tobytes()
    assert again[1:] == before[1:]


def _prompt_results(gateway, prompt):
    pickscore = gateway.pickscore
    scores = [
        pickscore.score(prompt, gateway.strategy, rank).hex()
        for rank in range(pickscore.num_levels)
    ]
    return gateway.cache.embedder.embed(prompt).copy(), scores, pickscore.best_score(prompt).hex()


@pytest.mark.bench
def test_gateway_full_small_scenario_live():
    """Full steady-baseline small preset over the wire (the CI smoke run)."""
    result = asyncio.run(
        replay_async("steady-baseline", preset="small", time_scale=120.0, check_contracts=True)
    )
    assert result.requests_ok == result.requests_sent > 500
    assert not violations(result.contract_results)
