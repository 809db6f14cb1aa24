"""The ``live-gateway`` workload: an open-loop replay into an in-process Gateway.

The request stream is the ``steady-baseline`` full-preset stream for the
seed.  A client coroutine on the same asyncio loop sends each request at its
due time (arrival time divided by the time scale) by calling
``Gateway.handle("POST", "/v1/generate", body)`` directly, without sockets:
the gateway's HTTP server answers one request at a time per connection, so
an HTTP client limited to a few connections could not keep the load
open-loop.  Every latency is timed from the request's due time, so a stall
also charges the requests queued behind it, and the client records how late
it started each request (its lateness).
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.gateway.server import Gateway
from repro.scenarios.registry import get_scenario
from repro.scenarios.runtime import build_config, build_stream

from perfledger.sim import check_report

SCENARIO = "steady-baseline"
PRESET = "full"
#: Reference compression: 120 model-seconds per wall-second (~180 req/s).
#: The latency figures are taken here, far below saturation: a wall-clock
#: stall of the host adds REFERENCE_SCALE times its length to the model-time
#: latency of every request in flight.
REFERENCE_SCALE = 120.0
#: Model minutes replayed at the reference rate (~1,080 requests).
REFERENCE_MINUTES = 12
#: Capacity: a closed loop of this many clients, each sending its next
#: request as soon as the last one returns, at a compression high enough
#: that the modelled GPU time is a small part of each request's wall time.
#: Its completion rate is the most the gateway serves per wall-second.
CAPACITY_CLIENTS = 64
CAPACITY_SCALE = 3840.0
CAPACITY_MINUTES = 24
#: Completions per timed chunk of a closed-loop rung (tens of ms each).
CHUNK_REQUESTS = 64
#: A rung whose client lateness p99 exceeds this share of its latency p99
#: measured the client, not the gateway: it is reported as invalid.
MAX_LATENESS_SHARE = 1 / 3
#: Distance between the stream seeds of a run's reference rungs.
REFERENCE_SEED_STRIDE = 100_003


@dataclass
class Rung:
    """One replay with its own fresh gateway: open loop at the stream's
    rate, or closed loop with ``clients`` clients."""

    time_scale: float
    minutes: int
    setup_s: float
    clients: int | None = None
    sent: int = 0
    ok: int = 0
    refused: int = 0
    errored: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Closed loop: wall seconds from the start to the CHUNK_REQUESTS-th
    #: completion, from there to the next CHUNK_REQUESTS-th, and so on; the
    #: tail after the last whole chunk, with fewer clients busy, is left out.
    chunks_s: list = field(default_factory=list, repr=False)
    #: Per-request wall seconds from due time to response.
    latency_s: list = field(default_factory=list, repr=False)
    #: Per-request wall seconds from due time to the call into the gateway.
    lateness_s: list = field(default_factory=list, repr=False)
    #: Per-request handle() wall time minus the modelled service time.
    overhead_s: list = field(default_factory=list, repr=False)
    #: Model-time latency of each served request, as its response gives it.
    model_latency_s: list = field(default_factory=list, repr=False)
    summary: dict = field(default_factory=dict, repr=False)
    #: Layer counters read off the gateway (see perfledger.sim.layer_state).
    state: dict = field(default_factory=dict, repr=False)
    slo_budget_s: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def offered_rps(self) -> float | None:
        if self.clients is not None:
            return None
        return self.sent * self.time_scale / (self.minutes * 60.0)

    @property
    def achieved_rps(self) -> float:
        return self.ok / self.wall_s if self.wall_s > 0 else 0.0

    def http_ms(self, q: float) -> float:
        return float(np.percentile(self.latency_s, q)) * 1e3

    def lateness_ms(self, q: float) -> float:
        return float(np.percentile(self.lateness_s, q)) * 1e3

    def overhead_ms(self, q: float) -> float:
        return float(np.percentile(self.overhead_s, q)) * 1e3 if self.overhead_s else 0.0

    @property
    def model_p99_s(self) -> float:
        return float(self.summary["p99_latency_s"])

    @property
    def lateness_share(self) -> float:
        return self.lateness_ms(99) / self.http_ms(99)

    @property
    def valid(self) -> bool:
        return self.lateness_share <= MAX_LATENESS_SHARE

    @property
    def meets_slo(self) -> bool:
        """Every request served and the model-time p99 within the SLO."""
        return self.ok == self.sent and self.model_p99_s <= self.slo_budget_s

    def accounting(self) -> dict:
        return {
            "time_scale": self.time_scale,
            "clients": self.clients,
            "offered_rps": self.offered_rps,
            "achieved_rps": round(self.achieved_rps, 3),
            "cpu_s": round(self.cpu_s, 4),
            "sent": self.sent,
            "ok": self.ok,
            "refused": self.refused,
            "errored": self.errored,
            "http_p50_ms": round(self.http_ms(50), 3),
            "http_p99_ms": round(self.http_ms(99), 3),
            "lateness_p99_ms": round(self.lateness_ms(99), 3),
            "overhead_p99_ms": round(self.overhead_ms(99), 3),
            "model_p99_s": round(self.model_p99_s, 3),
            "slo_budget_s": self.slo_budget_s,
            "valid": self.valid,
            "meets_slo": self.meets_slo,
            "problems": self.problems,
        }


async def _replay(seed: int, time_scale: float, minutes: int, clients, tracer) -> Rung:
    gc.collect()
    start = time.perf_counter()
    scenario = get_scenario(SCENARIO)
    preset = scenario.preset(PRESET)
    config = build_config(scenario, preset, seed)
    trace = scenario.trace.build(seed=seed, **preset.trace_params).window(0, minutes)
    stream = build_stream(scenario, preset, config, trace, seed)
    schedule = [
        (timed.arrival_time_s / time_scale, json.dumps(asdict(timed.prompt)).encode())
        for timed in stream
    ]
    gateway = Gateway(config=config, time_scale=time_scale)
    gateway.runtime.start()
    for worker in gateway.workers:
        worker.start()
    rung = Rung(
        time_scale=time_scale,
        minutes=minutes,
        setup_s=time.perf_counter() - start,
        clients=clients,
        slo_budget_s=config.slo.budget_s,
    )
    loop = asyncio.get_running_loop()
    count = len(schedule)
    latency, lateness = [0.0] * count, [0.0] * count
    statuses = [0] * count
    finished: list[float] = []

    async def send(index: int, due: float, body: bytes) -> None:
        called = loop.time()
        lateness[index] = called - due
        status, _, payload = await gateway.handle("POST", "/v1/generate", body)
        done = loop.time()
        finished.append(done)
        latency[index] = done - due
        statuses[index] = status
        if status == 200:
            served = json.loads(payload)
            rung.overhead_s.append((done - called) - served["service_time_s"] / time_scale)
            rung.model_latency_s.append(served["latency_s"])

    try:
        if tracer is not None:
            tracer.phase = "serve"
        cpu = time.process_time()
        origin = loop.time()
        tasks = []
        if clients is None:
            for index, (offset, body) in enumerate(schedule):
                due = origin + offset
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(loop.create_task(send(index, due, body)))
        else:
            pending = iter(range(count))

            async def client() -> None:
                for index in pending:
                    await send(index, loop.time(), schedule[index][1])

            tasks = [loop.create_task(client()) for _ in range(clients)]
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        rung.wall_s = loop.time() - origin
        rung.cpu_s = time.process_time() - cpu
        if clients is not None:
            marks = [origin] + finished[CHUNK_REQUESTS - 1 :: CHUNK_REQUESTS]
            rung.chunks_s = [end - start for start, end in zip(marks, marks[1:])]
        if tracer is not None:
            tracer.phase = "report"
        report = gateway.report_dict(
            scenario=SCENARIO,
            preset=PRESET,
            seed=seed,
            workload=trace.name,
            duration_minutes=minutes,
        )
    finally:
        await gateway.stop()

    errors = [out for out in outcomes if isinstance(out, BaseException)]
    rung.sent = count
    rung.ok = statuses.count(200)
    rung.refused = statuses.count(422)
    rung.errored = count - rung.ok - rung.refused
    rung.latency_s, rung.lateness_s = latency, lateness
    rung.summary = report["summary"]
    rung.state = {"cache.retrieval_hit_ratio": report["extras"]["retrieval_hit_rate"]}
    rung.problems = check_report(report, scenario.contracts)
    if errors:
        rung.problems.append(f"{len(errors)} requests raised, first: {errors[0]!r}")
    return rung


def replay(seed: int, time_scale: float, minutes: int, clients=None, tracer=None) -> Rung:
    """Build a fresh gateway and replay ``minutes`` of the stream into it,
    open loop, or closed loop with ``clients`` clients."""
    return asyncio.run(_replay(seed, time_scale, minutes, clients, tracer))
