"""Replay registered scenarios against a live gateway.

The load generator takes the exact request stream a simulated scenario run
would see — same trace, same datasets, same per-tenant seed derivations via
:func:`repro.scenarios.runtime.build_stream` — and fires it at the gateway
over HTTP at a time-compressed rate (``time_scale`` model-seconds per wall
second).  Because the gateway's ``/report`` endpoint emits the same
:class:`~repro.metrics.report.ScenarioReport` dict shape the simulator does,
the scenario's PR-8 invariant contracts certify the live run unchanged.

Used in-process (``replay()`` spins up a loopback gateway on an ephemeral
port) or against an external server (``url=...``), which is what the CI
``gateway-smoke`` job does.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import asdict, dataclass, field
from urllib.parse import urlencode, urlsplit

from repro.core.config import ArgusConfig
from repro.gateway.server import Gateway
from repro.scenarios.contracts import ContractResult, verify_report
from repro.scenarios.registry import get_scenario
from repro.scenarios.runtime import build_config, build_stream
from repro.scenarios.spec import Scenario


@dataclass
class LoadgenResult:
    """Outcome of one replay: the live report plus transport counters."""

    scenario: str
    preset: str
    seed: int
    #: ScenarioReport-shaped dict fetched from the gateway's ``/report``.
    report: dict
    #: Raw Prometheus exposition scraped from ``/metrics``.
    metrics_text: str
    requests_sent: int
    requests_ok: int
    requests_dropped: int
    #: Contract verdicts (empty unless ``check_contracts=True``).
    contract_results: list[ContractResult] = field(default_factory=list)


# --------------------------------------------------------------------------- #
# Minimal HTTP/1.1 client (stdlib-only, one connection per call)
# --------------------------------------------------------------------------- #


async def _request(
    host: str, port: int, method: str, path: str, payload: dict | None = None
) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split(maxsplit=2)
        status = int(parts[1]) if len(parts) >= 2 else 500
        length = None
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        data = await (reader.readexactly(length) if length is not None else reader.read())
        return status, data
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _get_json(host: str, port: int, path: str) -> dict:
    status, data = await _request(host, port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} returned HTTP {status}: {data[:200]!r}")
    return json.loads(data)


# --------------------------------------------------------------------------- #
# Replay
# --------------------------------------------------------------------------- #


async def replay_async(
    scenario: Scenario | str,
    preset: str = "small",
    seed: int | None = None,
    time_scale: float = 60.0,
    url: str | None = None,
    config: ArgusConfig | None = None,
    check_contracts: bool = False,
    max_minutes: float | None = None,
) -> LoadgenResult:
    """Replay ``scenario``'s request stream against a gateway.

    With ``url=None`` an in-process :class:`Gateway` is started on an
    ephemeral loopback port (and stopped afterwards); otherwise requests go
    to the external server at ``url``.  ``time_scale`` compresses model time:
    60 replays one scenario-minute per wall-second.  ``max_minutes`` truncates
    the stream (useful for smoke tests over long traces).

    Every request is awaited before the report is fetched, so the run drains
    fully and the conservation contract's ``outstanding`` block is exact.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    preset_spec = scenario.preset(preset)
    if seed is None:
        seed = scenario.default_seed
    seed = int(seed)
    resolved = config or build_config(scenario, preset_spec, seed)
    trace = scenario.trace.build(seed=seed, **preset_spec.trace_params)
    stream = build_stream(scenario, preset_spec, resolved, trace, seed)
    cutoff_s = None if max_minutes is None else float(max_minutes) * 60.0

    gateway: Gateway | None = None
    if url is None:
        gateway = Gateway(config=resolved, time_scale=time_scale)
        await gateway.start()
        host, port = gateway.host, gateway.port
    else:
        parsed = urlsplit(url if "//" in url else f"//{url}")
        host, port = parsed.hostname or "127.0.0.1", parsed.port or 80

    try:
        loop = asyncio.get_running_loop()
        origin = loop.time()
        tasks: list[asyncio.Task] = []
        sent = 0
        for timed in stream:
            if cutoff_s is not None and timed.arrival_time_s > cutoff_s:
                break
            fire_at = origin + timed.arrival_time_s / time_scale
            delay = fire_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(
                loop.create_task(
                    _request(host, port, "POST", "/v1/generate", asdict(timed.prompt))
                )
            )
            sent += 1
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        ok = sum(
            1 for out in outcomes if not isinstance(out, BaseException) and out[0] == 200
        )
        dropped = sum(
            1 for out in outcomes if not isinstance(out, BaseException) and out[0] == 422
        )
        errors = [out for out in outcomes if isinstance(out, BaseException)]
        if errors:
            raise RuntimeError(f"{len(errors)} requests failed in transport: {errors[0]!r}")

        minutes = max_minutes if max_minutes is not None else trace.duration_minutes
        query = urlencode(
            {
                "scenario": scenario.name,
                "preset": preset,
                "seed": seed,
                "workload": trace.name,
                "duration_minutes": minutes,
            }
        )
        report = await _get_json(host, port, f"/report?{query}")
        status, metrics_raw = await _request(host, port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics returned HTTP {status}")

        contract_results: list[ContractResult] = []
        if check_contracts:
            contract_results = verify_report(report, scenario.contracts)
        return LoadgenResult(
            scenario=scenario.name,
            preset=preset,
            seed=seed,
            report=report,
            metrics_text=metrics_raw.decode(),
            requests_sent=sent,
            requests_ok=ok,
            requests_dropped=dropped,
            contract_results=contract_results,
        )
    finally:
        if gateway is not None:
            await gateway.stop()


def replay(
    scenario: Scenario | str,
    preset: str = "small",
    seed: int | None = None,
    time_scale: float = 60.0,
    url: str | None = None,
    config: ArgusConfig | None = None,
    check_contracts: bool = False,
    max_minutes: float | None = None,
) -> LoadgenResult:
    """Synchronous wrapper around :func:`replay_async`."""
    return asyncio.run(
        replay_async(
            scenario,
            preset=preset,
            seed=seed,
            time_scale=time_scale,
            url=url,
            config=config,
            check_contracts=check_contracts,
            max_minutes=max_minutes,
        )
    )
