"""Asyncio HTTP gateway serving the modeled stack in wall-clock time.

The gateway is the live-mode counterpart of a simulated serving system: the
same :class:`~repro.core.config.ArgusConfig`, model zoo, approximate cache,
fair-share admission controller and metrics collector, running on a
:class:`~repro.runtime.wall.WallClockRuntime` with sleep-based executors
(:class:`~repro.gateway.workers.StubWorker`) instead of the event-heap
cluster.  It keeps only what the wall clock changes: the HTTP server, the
:class:`AdmissionGate` that turns admission callbacks into futures, and the
executors.  Each ``POST /v1/generate`` takes one straight path through the
simulator's own rules:

    tenant check -> AdmissionGate.offer (FairShareAdmission)
      -> WorkerSelector.select (Eq. 3, cache affinity)
      -> service_profile (cache retrieval + latency model)
      -> await the executor -> record (PickScore, collector, TenantDrift)

The stub fleet serves every request at the zoo's fastest level (the exact
level under SM, or when the fastest AC level skips nothing), with no
service jitter.

The HTTP layer is a minimal dependency-free HTTP/1.1 server on
``asyncio.start_server`` (keep-alive, Content-Length framing only), which is
all the loopback load generator and a Prometheus scraper need.

Endpoints:

- ``GET /healthz`` — liveness plus headline counters.
- ``GET /metrics`` — Prometheus text exposition of the collector.
- ``GET /config`` — the gateway's resolved ``ArgusConfig.to_dict()``.
- ``GET /report`` — a :class:`~repro.metrics.report.ScenarioReport` dict,
  built by the simulator's own builder (:mod:`repro.metrics.record`).
- ``POST /v1/generate`` — serve one prompt; body is the prompt's fields
  (``dataclasses.asdict(prompt)`` round-trips).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
from functools import partial
from typing import Mapping
from urllib.parse import parse_qs

from repro.cache import build_cache, warm_cache
from repro.cache.network import NetworkModel
from repro.classifier.drift import TenantDrift
from repro.cluster.cluster import FleetMinute
from repro.cluster.requests import CompletedRequest, Request
from repro.cluster.worker import service_profile
from repro.core.admission import FairShareAdmission, hit_corrected_capacity_qps
from repro.core.config import ArgusConfig
from repro.core.scheduler import WorkerSelector
from repro.gateway.workers import StubWorker
from repro.metrics.collector import MetricsCollector
from repro.metrics.prometheus import render_prometheus
from repro.metrics.record import RunRecord, build_report
from repro.metrics.report import ScenarioReport, summarize
from repro.models.gpus import gpu_by_name
from repro.models.zoo import ModelZoo, Strategy
from repro.prompts.dataset import PromptDataset
from repro.prompts.generator import Prompt
from repro.quality.pickscore import PickScoreModel
from repro.runtime.wall import WallClockRuntime
from repro.simulation.randomness import stable_hash


def prompt_from_payload(payload: Mapping) -> Prompt:
    """Build a :class:`Prompt` from a request body.

    Accepts the full field dict (``dataclasses.asdict(prompt)``, possibly
    nested under ``"prompt"``) or a ``{"text": ...}`` shorthand for manual
    curls, which synthesises neutral feature values.  Raises ``TypeError``
    or ``ValueError`` on a malformed body.
    """
    if not isinstance(payload, Mapping):
        raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
    data = dict(payload.get("prompt", payload))
    if "text" in data and "prompt_id" not in data:
        return Prompt(
            prompt_id=stable_hash(data["text"], bits=31),
            text=str(data["text"]),
            num_entities=int(data.get("num_entities", 1)),
            num_attributes=int(data.get("num_attributes", 0)),
            num_style_tags=int(data.get("num_style_tags", 0)),
            has_action=bool(data.get("has_action", False)),
            has_scene=bool(data.get("has_scene", False)),
            complexity=float(data.get("complexity", 0.5)),
            topic=int(data.get("topic", 0)),
            tenant=str(data.get("tenant", "")),
        )
    return Prompt(**data)


class AdmissionGate:
    """Adapts the synchronous DRR admission controller to async callers.

    ``FairShareAdmission.offer`` either admits immediately or parks the
    prompt in a tenant queue and later invokes its ``admit`` callback from a
    runtime-scheduled drain pump.  Here each parked prompt gets an
    :class:`asyncio.Future`; the pump's callback (which runs in-loop, via
    ``loop.call_later``) resolves it with the original offer time, and the
    awaiting request task resumes.  The same controller object, the same
    token buckets and quanta — only the notification mechanism differs.
    """

    def __init__(self) -> None:
        self.controller: FairShareAdmission | None = None
        self._waiters: dict[int, asyncio.Future] = {}

    def attach(self, controller: FairShareAdmission | None) -> None:
        self.controller = controller

    def on_admit(self, prompt: Prompt, offer_time_s: float) -> None:
        """``admit`` callback handed to :class:`FairShareAdmission`."""
        future = self._waiters.pop(id(prompt), None)
        if future is not None and not future.done():
            future.set_result(offer_time_s)

    async def offer(self, now: float, prompt: Prompt) -> tuple[float, bool]:
        """Admit ``prompt``, waiting out any fair-share delay.

        Returns ``(offer_time_s, delayed)``: the latency clock start (always
        the original offer time, so queueing at admission is charged to the
        request) and whether the request actually waited.
        """
        if self.controller is None:
            return now, False
        if self.controller.offer(now, prompt):
            return now, False
        future = asyncio.get_running_loop().create_future()
        self._waiters[id(prompt)] = future
        try:
            return await future, True
        finally:
            self._waiters.pop(id(prompt), None)


class Gateway:
    """Live serving gateway over the stub executor fleet.

    Construction wires the same component set as
    :class:`~repro.core.base.BaseServingSystem`, swapping the simulation
    engine for a wall-clock runtime: ``time_scale`` model-seconds elapse per
    wall-second, so a scenario minute replays in ``60 / time_scale`` real
    seconds while every latency and SLO stays in model time.
    """

    name = "gateway"

    def __init__(self, config: ArgusConfig | None = None, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.config = config or ArgusConfig()
        self.time_scale = float(time_scale)
        self.runtime = WallClockRuntime(time_scale=self.time_scale)
        self.zoo = ModelZoo(gpu=self.config.gpu)
        self.pickscore = PickScoreModel(
            num_levels=self.zoo.num_levels(Strategy.AC), seed=self.config.seed
        )
        self.network = NetworkModel(seed=self.config.seed + 1)
        self.cache = build_cache(
            self.config, network=self.network, on_lookup=self._record_cache_lookup
        )
        #: Shard-aware routing over a cache tier (None for the flat cache).
        self._prefers = getattr(self.cache, "worker_prefers", None)
        self.collector = MetricsCollector(slo=self.config.slo)
        self.strategy = self.config.default_strategy
        level = self.zoo.fastest_level(self.strategy)
        if self.strategy is not Strategy.AC or level.skip_steps in (None, 0):
            # SM (or an AC zoo whose fastest level skips nothing): serve the
            # exact variant so quality matches the modeled baseline.
            level = self.zoo.exact_level(self.strategy)
        #: The one level the stub fleet serves at.
        self.level = level
        self.workers = [
            StubWorker(worker_id=i, runtime=self.runtime)
            for i in range(self.config.num_workers)
        ]
        self.gate = AdmissionGate()
        self.admission: FairShareAdmission | None = None
        if self.config.admission_enabled:
            self.admission = FairShareAdmission(
                runtime=self.runtime,
                tenants=self.config.tenants,
                capacity_qps=self._admission_capacity_qps,
                admit=self.gate.on_admit,
                rate_factor=self.config.admission_rate_factor,
                burst_s=self.config.admission_burst_s,
            )
        self.gate.attach(self.admission)
        self.drift = TenantDrift(self.config.tenants)
        self._request_ids = itertools.count()
        #: Configured tenant names; empty for the anonymous deployment.
        self._known_tenants = frozenset(spec.name for spec in self.config.tenants)
        self._server: asyncio.base_events.Server | None = None
        self.host: str | None = None
        self.port: int | None = None
        if self.config.cache_warm_prompts > 0:
            # The head of the offline training set, as ArgusSystem warms it
            # (same seed; it has at most classifier_training_prompts).
            warm = PromptDataset.synthetic(
                count=min(self.config.classifier_training_prompts, self.config.cache_warm_prompts),
                seed=self.config.seed + 101,
            )
            warm_cache(self.cache, warm.prompts, self.config.tenants)

    def _record_cache_lookup(self, shard: int, hit: bool, latency_s: float) -> None:
        self.collector.record_cache_lookup(shard, hit, latency_s)

    def _admission_capacity_qps(self) -> float:
        """Hit-rate-corrected fleet throughput, the simulator's rule (see
        :func:`~repro.core.admission.hit_corrected_capacity_qps`)."""
        ceiling = self.zoo.max_cluster_throughput_qpm(self.strategy, len(self.workers)) / 60.0
        return hit_corrected_capacity_qps(ceiling, self.zoo, self.strategy, self.cache)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def record(self, duration_minutes: float) -> RunRecord:
        """The gateway's :class:`~repro.metrics.record.RunRecord` over
        ``duration_minutes``: a fixed fleet of stub workers, billed like a
        cluster that never scales, which never switches strategy or retrains."""
        duration_s = duration_minutes * 60.0
        size = len(self.workers)
        gpu = gpu_by_name(self.config.gpu)
        gpu_hours = size * duration_s / 3600.0
        busy_s = sum(w.busy_s for w in self.workers)
        return RunRecord(
            system=self.name,
            workers=size,
            cluster_utilization=min(1.0, busy_s / max(duration_s * max(size, 1), 1e-9)),
            fleet_peak_workers=size,
            fleet_mean_workers=float(size),
            gpu_hours=gpu_hours,
            cost_usd=gpu_hours * gpu.hourly_cost_usd,
            fleet_minutes={
                minute: FleetMinute(minute, float(size))
                for minute in range(math.ceil(duration_minutes))
            },
            strategy_switches=0,
            retraining_events=0,
            drift_events=self.drift.events(),
            worker_queues=sum(w.outstanding for w in self.workers),
            **self.cache.record_fields(self.config.tenants),
            **({} if self.admission is None else self.admission.record_fields()),
        )

    def report_dict(
        self,
        scenario: str = "live",
        preset: str = "live",
        seed: int | None = None,
        workload: str = "live",
        duration_minutes: float | None = None,
    ) -> dict:
        """Report dict over everything served so far, built as a simulated run's."""
        now = self.runtime.now()
        minutes = float(duration_minutes) if duration_minutes else max(now / 60.0, 1.0 / 60.0)
        record = self.record(minutes)
        inputs, extras = build_report(self.collector, record, self.config)
        extras["gateway"] = {
            "time_scale": self.time_scale,
            "model_time_s": now,
            "strategy": self.strategy.value,
        }
        return ScenarioReport(
            scenario=scenario,
            preset=preset,
            seed=self.config.seed if seed is None else int(seed),
            system=self.name,
            workload=workload,
            summary=summarize(self.name, workload, self.collector, minutes, **inputs),
            minutes=ScenarioReport.minute_rows(
                self.collector.minute_series(fleet=record.fleet_minutes)
            ),
            extras=extras,
        ).to_dict()

    def metrics_text(self) -> str:
        """Prometheus exposition of the collector plus gateway gauges."""
        gauges = {
            "fleet_workers": float(len(self.workers)),
            "worker_queue_depth": float(sum(w.outstanding for w in self.workers)),
            "admission_backlog": float(0 if self.admission is None else self.admission.backlog()),
            "model_time_seconds": self.runtime.now(),
            "cache_retrieval_hit_rate": self.cache.retrieval_hit_rate,
        }
        return render_prometheus(self.collector, extra_gauges=gauges)

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #
    async def handle_generate(self, payload: Mapping) -> tuple[int, dict]:
        """Serve one prompt: tenant check, fair-share admission, Eq. 3
        worker choice, pricing, the GPU pass, then the record."""
        try:
            prompt = prompt_from_payload(payload)
        except (KeyError, TypeError, ValueError) as exc:
            return 400, {"error": f"bad prompt payload: {exc}"}
        tenant = prompt.tenant
        now = self.runtime.now()
        self.collector.record_arrival(now, tenant=tenant)
        if self._known_tenants and tenant not in self._known_tenants:
            # The live analogue of a 403, untagged posts included unless ""
            # is configured; the anonymous deployment serves every tag.
            self.collector.record_drop(tenant=tenant)
            return 422, {"dropped": True, "reason": f"unknown tenant {tenant!r}"}
        arrival_s, delayed = await self.gate.offer(now, prompt)
        prefer = None if self._prefers is None else partial(self._prefers, prompt)
        worker = WorkerSelector.select(self.workers, prefer=prefer)
        profile = service_profile(
            self.zoo, self.zoo.latency_model, self.cache, self.level, prompt, self.runtime.now()
        )
        request = Request(
            request_id=next(self._request_ids),
            prompt=prompt,
            arrival_time_s=arrival_s,
            strategy=self.strategy,
            predicted_rank=self.level.rank,
            assigned_rank=self.level.rank,
        )
        start_s, end_s = await worker.submit(profile.service_time_s)
        completed = CompletedRequest(
            request=request,
            worker_id=worker.worker_id,
            start_time_s=start_s,
            completion_time_s=end_s,
            effective_rank=profile.effective_rank,
            service_time_s=profile.service_time_s,
            retrieval_latency_s=profile.retrieval_latency_s,
            cache_hit=profile.cache_hit,
            retrieval_failed=profile.retrieval_failed,
        )
        if self.strategy is Strategy.AC:
            self.cache.store_states(prompt)
        score = self.pickscore.score(prompt, self.strategy, profile.effective_rank)
        best = self.pickscore.best_score(prompt)
        sample = self.collector.record_completion(completed, score, best)
        self.drift.detector_for(tenant).observe(score)
        return 200, {
            "request_id": request.request_id,
            "tenant": tenant,
            "worker_id": worker.worker_id,
            "strategy": self.strategy.value,
            "effective_rank": profile.effective_rank,
            "cache_hit": profile.cache_hit,
            "admission_delayed": delayed,
            "service_time_s": profile.service_time_s,
            "latency_s": completed.latency_s,
            "relative_quality": sample.relative_quality,
        }

    async def handle(self, method: str, target: str, body: bytes) -> tuple[int, str, bytes]:
        """Route one HTTP request; returns (status, content-type, payload)."""
        path, _, query = target.partition("?")
        params = {key: values[-1] for key, values in parse_qs(query).items()}
        if method == "GET" and path == "/healthz":
            return _json_response(
                200,
                {
                    "status": "ok",
                    "model_time_s": self.runtime.now(),
                    "offered": self.collector.total_arrivals,
                    "served": self.collector.total_completions,
                },
            )
        if method == "GET" and path == "/metrics":
            return 200, "text/plain; version=0.0.4; charset=utf-8", self.metrics_text().encode()
        if method == "GET" and path == "/config":
            return _json_response(200, self.config.to_dict())
        if method == "GET" and path == "/report":
            duration = params.get("duration_minutes")
            try:
                seed = int(params["seed"]) if "seed" in params else None
                duration_minutes = float(duration) if duration else None
            except ValueError as exc:
                return _json_response(400, {"error": f"bad report parameter: {exc}"})
            if duration_minutes is not None and not (
                math.isfinite(duration_minutes) and duration_minutes > 0
            ):
                message = f"duration_minutes={duration} must be finite and positive"
                return _json_response(400, {"error": f"bad report parameter: {message}"})
            return _json_response(
                200,
                self.report_dict(
                    scenario=params.get("scenario", "live"),
                    preset=params.get("preset", "live"),
                    seed=seed,
                    workload=params.get("workload", "live"),
                    duration_minutes=duration_minutes,
                ),
            )
        if method == "POST" and path == "/v1/generate":
            try:
                payload = json.loads(body or b"{}")
            except json.JSONDecodeError as exc:
                return _json_response(400, {"error": f"invalid JSON body: {exc}"})
            status, response = await self.handle_generate(payload)
            return _json_response(status, response)
        return _json_response(404, {"error": f"no route for {method} {path}"})

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Start the worker fleet and listen on ``host:port`` (0 = ephemeral)."""
        self.runtime.start()
        for worker in self.workers:
            worker.start()
        self._server = await asyncio.start_server(self._serve_connection, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for worker in self.workers:
            await worker.stop()

    @property
    def url(self) -> str:
        if self.port is None:
            raise RuntimeError("gateway is not started")
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() before serve_forever()")
        await self._server.serve_forever()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, target, _version = request_line.decode("latin-1").split()
                except ValueError:
                    break
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", 0) or 0)
                except ValueError:
                    length = -1
                if length < 0:
                    # The body cannot be framed, so the connection cannot
                    # carry another request after this answer.
                    status, content_type, payload = _json_response(
                        400, {"error": "invalid Content-Length header"}
                    )
                    close = True
                else:
                    body = await reader.readexactly(length) if length else b""
                    status, content_type, payload = await self.handle(
                        method.upper(), target, body
                    )
                    close = headers.get("connection", "").lower() == "close"
                writer.write(
                    (
                        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                        f"Content-Type: {content_type}\r\n"
                        f"Content-Length: {len(payload)}\r\n"
                        f"Connection: {'close' if close else 'keep-alive'}\r\n"
                        "\r\n"
                    ).encode("latin-1")
                )
                writer.write(payload)
                await writer.drain()
                if close:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
}


def _json_response(status: int, payload: dict) -> tuple[int, str, bytes]:
    return status, "application/json", json.dumps(payload, sort_keys=True).encode()
