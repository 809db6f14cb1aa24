"""Asyncio HTTP gateway serving the modeled stack in wall-clock time.

The gateway is the live-mode counterpart of a simulated serving system: the
same :class:`~repro.core.config.ArgusConfig`, model zoo, approximate cache,
fair-share admission controller and metrics collector — but running on a
:class:`~repro.runtime.wall.WallClockRuntime` with sleep-based stub workers
instead of the event-heap cluster.  Requests enter over HTTP, travel the
interceptor chain (tenant resolution -> admission -> routing -> cache
lookup -> dispatch), and land on the worker with the least backlog.

The HTTP layer is a minimal dependency-free HTTP/1.1 server on
``asyncio.start_server`` (keep-alive, Content-Length framing only), which is
all the loopback load generator and a Prometheus scraper need.

Endpoints:

- ``GET /healthz`` — liveness plus headline counters.
- ``GET /metrics`` — Prometheus text exposition of the collector.
- ``GET /config`` — the gateway's resolved ``ArgusConfig.to_dict()``.
- ``GET /report`` — a :class:`~repro.metrics.report.ScenarioReport` dict
  (same shape the simulator emits, so PR-8 contracts certify live runs).
- ``POST /v1/generate`` — serve one prompt; body is the prompt's fields
  (``dataclasses.asdict(prompt)`` round-trips).
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Mapping
from urllib.parse import parse_qs

from repro.cache import build_cache, warm_cache
from repro.cache.network import NetworkModel
from repro.classifier.drift import DriftDetector
from repro.cluster.requests import CompletedRequest, Request
from repro.cluster.worker import FAILED_RETRIEVAL_PENALTY_S
from repro.core.admission import FairShareAdmission, hit_corrected_capacity_qps
from repro.core.config import ArgusConfig
from repro.core.scheduler import CACHE_AFFINITY_TOLERANCE_S
from repro.gateway.interceptors import (
    AdmissionGate,
    Interceptor,
    RequestContext,
    admission,
    cache_lookup,
    compose,
    routing,
    tenant_resolution,
)
from repro.gateway.workers import (
    StubJob,
    StubWorker,
    fleet_ceiling_qps,
    least_backlog_worker,
)
from repro.metrics.collector import MetricsCollector
from repro.metrics.prometheus import render_prometheus
from repro.metrics.report import ScenarioReport, summarize, tenant_breakdown
from repro.models.zoo import ModelZoo, Strategy
from repro.prompts.dataset import PromptDataset
from repro.prompts.generator import Prompt
from repro.quality.pickscore import PickScoreModel
from repro.runtime.wall import WallClockRuntime
from repro.simulation.randomness import stable_hash
from repro.workloads.tenants import build_runtimes


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


class Gateway:
    """Live serving gateway over the stub worker fleet.

    Construction wires the same component set as
    :class:`~repro.core.base.BaseServingSystem`, swapping the simulation
    engine for a wall-clock runtime: ``time_scale`` model-seconds elapse per
    wall-second, so a scenario minute replays in ``60 / time_scale`` real
    seconds while every latency and SLO stays in model time.
    """

    name = "gateway"

    def __init__(
        self,
        config: ArgusConfig | None = None,
        time_scale: float = 1.0,
        interceptors: list[Interceptor] | None = None,
    ) -> None:
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
        self.tenant_runtimes = build_runtimes(self.config.tenants, self.config.slo)
        self.collector = MetricsCollector(slo=self.config.slo)
        self.strategy = self.config.default_strategy
        self.workers = [
            StubWorker(worker_id=i, gpu=self.config.gpu, zoo=self.zoo, runtime=self.runtime)
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
        self._drift = DriftDetector()
        self._drift_detectors: dict[str, DriftDetector] = {}
        self.drift_events = 0
        self._request_ids = itertools.count()
        self._known_tenants = frozenset(
            spec.name for spec in self.config.tenants if spec.name
        )
        chain = interceptors if interceptors is not None else self.default_interceptors()
        self._handler = compose(list(chain), self._dispatch)
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

    # ------------------------------------------------------------------ #
    # Interceptor chain
    # ------------------------------------------------------------------ #
    def default_interceptors(self) -> list[Interceptor]:
        """The standard chain; operators may prepend/replace stages."""
        return [
            tenant_resolution(self._known_tenants),
            admission(self.gate),
            routing(self._pick_worker),
            cache_lookup(self._profile),
        ]

    def _record_cache_lookup(self, shard: int, hit: bool, latency_s: float) -> None:
        self.collector.record_cache_lookup(shard, hit, latency_s)

    def _pick_worker(self, ctx: RequestContext) -> int | None:
        if not self.workers:
            return None
        best = least_backlog_worker(self.workers)
        if hasattr(self.cache, "worker_prefers"):
            # Shard-aware routing, same rule as the simulator's scheduler:
            # the cheapest worker near the likely-hit cache shard wins when
            # its backlog is within the tolerance of the global minimum.
            preferred = [
                w
                for w in self.workers
                if self.cache.worker_prefers(ctx.prompt, w.worker_id)
            ]
            if preferred:
                near = least_backlog_worker(preferred)
                limit = best.estimated_backlog_s() + CACHE_AFFINITY_TOLERANCE_S
                if near.estimated_backlog_s() <= limit:
                    return near.worker_id
        return best.worker_id

    def _profile(self, ctx: RequestContext) -> None:
        """Cache retrieval + latency model: the stub analogue of
        :meth:`repro.cluster.worker.Worker._service_profile` (no jitter)."""
        worker = self.workers[ctx.worker_id]
        level = self.zoo.fastest_level(self.strategy)
        ctx.level = level
        if self.strategy is not Strategy.AC or level.skip_steps in (None, 0):
            # SM (or an AC zoo whose fastest level skips nothing): serve the
            # exact variant so quality matches the modeled baseline.
            level = self.zoo.exact_level(self.strategy)
            ctx.level = level
            ctx.service_time_s = worker.level_latency_s(level)
            ctx.effective_rank = level.rank
            return
        outcome = self.cache.retrieve(ctx.prompt, level.skip_steps, self.runtime.now())
        spec = self.zoo.ac_level_spec(outcome.effective_skip) if outcome.effective_skip else None
        base_variant = self.zoo.sm_variant(level.variant_name or "SD-XL")
        if spec is None:
            latency = self.zoo.latency_model.variant_latency(base_variant)
            ctx.effective_rank = 0
        else:
            latency = self.zoo.latency_model.ac_latency(
                spec, base_variant, outcome.retrieval_latency_s
            )
            ctx.effective_rank = spec.approximation_rank
        if outcome.network_failed:
            latency += FAILED_RETRIEVAL_PENALTY_S
        ctx.cache_hit = outcome.hit
        ctx.retrieval_latency_s = outcome.retrieval_latency_s
        ctx.retrieval_failed = outcome.network_failed
        ctx.service_time_s = latency * worker.speed_scale

    async def _dispatch(self, ctx: RequestContext) -> None:
        """Terminal stage: queue on the chosen worker, await completion."""
        worker = self.workers[ctx.worker_id]
        request = Request(
            request_id=next(self._request_ids),
            prompt=ctx.prompt,
            arrival_time_s=ctx.arrival_time_s,
            strategy=self.strategy,
            predicted_rank=ctx.level.rank,
            assigned_rank=ctx.level.rank,
        )
        done = asyncio.get_running_loop().create_future()

        def finish(worker_id: int, start_s: float) -> None:
            completed = CompletedRequest(
                request=request,
                worker_id=worker_id,
                start_time_s=start_s,
                completion_time_s=self.runtime.now(),
                effective_rank=ctx.effective_rank,
                service_time_s=ctx.service_time_s,
                retrieval_latency_s=ctx.retrieval_latency_s,
                cache_hit=ctx.cache_hit,
                retrieval_failed=ctx.retrieval_failed,
            )
            if self.strategy is Strategy.AC:
                self.cache.store_states(ctx.prompt)
            score = self.pickscore.score(ctx.prompt, self.strategy, ctx.effective_rank)
            best = self.pickscore.best_score(ctx.prompt)
            sample = self.collector.record_completion(completed, score, best)
            if self._drift_for(ctx.tenant).observe(score) is not None:
                self.drift_events += 1
            ctx.response = {
                "request_id": request.request_id,
                "tenant": ctx.tenant,
                "worker_id": worker_id,
                "strategy": self.strategy.value,
                "effective_rank": ctx.effective_rank,
                "cache_hit": ctx.cache_hit,
                "admission_delayed": ctx.admission_delayed,
                "service_time_s": ctx.service_time_s,
                "latency_s": completed.latency_s,
                "relative_quality": sample.relative_quality,
            }
            if not done.done():
                done.set_result(None)

        worker.enqueue(StubJob(service_time_s=ctx.service_time_s, done=finish))
        await done

    # ------------------------------------------------------------------ #
    # Control-plane helpers
    # ------------------------------------------------------------------ #
    def _admission_capacity_qps(self) -> float:
        """Hit-rate-corrected fleet throughput, the simulator's rule (see
        :func:`~repro.core.admission.hit_corrected_capacity_qps`)."""
        ceiling = fleet_ceiling_qps(self.workers, self.zoo, self.strategy)
        return hit_corrected_capacity_qps(ceiling, self.zoo, self.strategy, self.cache)

    def _drift_for(self, tenant: str) -> DriftDetector:
        if not tenant:
            return self._drift
        detector = self._drift_detectors.get(tenant)
        if detector is None:
            detector = DriftDetector()
            self._drift_detectors[tenant] = detector
        return detector

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def report_dict(
        self,
        scenario: str = "live",
        preset: str = "live",
        seed: int | None = None,
        workload: str = "live",
        duration_minutes: float | None = None,
    ) -> dict:
        """Scenario-shaped report dict over everything served so far.

        The dict has the exact shape of a simulated
        :class:`~repro.metrics.report.ScenarioReport` — including the
        ``extras.outstanding`` and ``extras.cache_tenants`` blocks the PR-8
        contracts read — so ``verify_report`` certifies live runs unchanged.
        """
        now = self.runtime.now()
        minutes_elapsed = (
            float(duration_minutes) if duration_minutes else max(now / 60.0, 1.0 / 60.0)
        )
        duration_s = minutes_elapsed * 60.0
        busy = sum(w.busy_s for w in self.workers)
        utilization = busy / max(duration_s * max(len(self.workers), 1), 1e-9)
        summary = summarize(
            system=self.name,
            workload=workload,
            collector=self.collector,
            duration_minutes=minutes_elapsed,
            cluster_utilization=min(1.0, utilization),
            fleet_peak_workers=len(self.workers),
            fleet_mean_workers=float(len(self.workers)),
            tenants=tenant_breakdown(
                self.collector, self.tenant_runtimes, self.cache, self.admission
            ),
        )
        extras: dict = {
            "gateway": {
                "time_scale": self.time_scale,
                "model_time_s": now,
                "strategy": self.strategy.value,
            },
            "outstanding": {
                "worker_queues": sum(w.outstanding for w in self.workers),
                "admission_backlog": self.gate.backlog(),
            },
            "drift_events": self.drift_events,
            **self.cache.report_extras(self.config.tenants),
        }
        report = ScenarioReport(
            scenario=scenario,
            preset=preset,
            seed=self.config.seed if seed is None else int(seed),
            system=self.name,
            workload=workload,
            summary=summary,
            minutes=ScenarioReport.minute_rows(self.collector.minute_series()),
            extras=extras,
        )
        return report.to_dict()

    def metrics_text(self) -> str:
        """Prometheus exposition of the collector plus gateway gauges."""
        gauges = {
            "fleet_workers": float(len(self.workers)),
            "worker_queue_depth": float(sum(w.outstanding for w in self.workers)),
            "admission_backlog": float(self.gate.backlog()),
            "model_time_seconds": self.runtime.now(),
            "cache_retrieval_hit_rate": self.cache.retrieval_hit_rate,
        }
        return render_prometheus(self.collector, extra_gauges=gauges)

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #
    async def handle_generate(self, payload: Mapping) -> tuple[int, dict]:
        """Serve one prompt through the interceptor chain."""
        try:
            prompt = prompt_from_payload(payload)
        except (KeyError, TypeError, ValueError) as exc:
            return 400, {"error": f"bad prompt payload: {exc}"}
        now = self.runtime.now()
        self.collector.record_arrival(now, tenant=prompt.tenant)
        ctx = RequestContext(prompt=prompt, received_at_s=now)
        await self._handler(ctx)
        if ctx.dropped:
            self.collector.record_drop(tenant=ctx.tenant)
            return 422, {"dropped": True, "reason": ctx.drop_reason}
        return 200, ctx.response

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
