"""Common scaffolding shared by Argus and every baseline serving system.

A serving system owns a simulation engine, the model zoo, a GPU cluster, an
(optional) approximate cache and a metrics collector.  Subclasses implement
the routing policy and any periodic control loops; the base class handles
request bookkeeping and quality accounting so all systems are measured
identically.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import asdict, dataclass

from repro.cache import build_cache
from repro.cache.network import NetworkModel
from repro.cluster.cluster import GpuCluster
from repro.cluster.requests import CompletedRequest, Request
from repro.core.admission import FairShareAdmission, hit_corrected_capacity_qps
from repro.core.config import ArgusConfig
from repro.metrics.collector import MetricsCollector, ServedSample
from repro.metrics.record import RunRecord, build_report
from repro.metrics.report import RunSummary, summarize
from repro.models.zoo import ApproximationLevel, ModelZoo, Strategy
from repro.prompts.generator import Prompt
from repro.quality.pickscore import PickScoreModel
from repro.runtime.sim import SimRuntime
from repro.simulation.engine import SimulationEngine
from repro.workloads.tenants import build_runtimes

#: Completions whose quality waits to be settled, at most: enough for one
#: seeding batch to cover hundreds of new prompts, few enough to keep the
#: queue small.
MAX_PENDING_COMPLETIONS = 1024

#: Arrivals read ahead of the engine at most: each block's prompts go to
#: :meth:`BaseServingSystem.prepare` together.
PREPARE_BLOCK = 256


@dataclass(frozen=True)
class Route:
    """Routing outcome: where one prompt should be served."""

    worker_id: int
    predicted_rank: int
    assigned_rank: int
    strategy: Strategy


class BaseServingSystem(ABC):
    """Abstract serving system running on the simulated GPU cluster."""

    name = "base"

    def __init__(
        self,
        config: ArgusConfig | None = None,
        pickscore: PickScoreModel | None = None,
        network: NetworkModel | None = None,
        initial_level: ApproximationLevel | None = None,
        use_cache: bool = True,
    ) -> None:
        self.config = config or ArgusConfig()
        self.engine = SimulationEngine(seed=self.config.seed)
        #: Clock-agnostic scheduling facade every control loop goes through;
        #: in simulation it is a zero-cost veneer over the engine.
        self.runtime = SimRuntime(self.engine)
        self.zoo = ModelZoo(gpu=self.config.gpu)
        self.pickscore = pickscore or PickScoreModel(
            num_levels=self.zoo.num_levels(Strategy.AC), seed=self.config.seed
        )
        self.network = network or NetworkModel(seed=self.config.seed + 1)
        self.cache = (
            build_cache(
                self.config,
                network=self.network,
                on_lookup=self._record_cache_lookup,
            )
            if use_cache
            else None
        )
        #: Resolved per-tenant runtime table (budgets, shares); empty when
        #: the deployment serves the anonymous single-tenant workload.
        self.tenant_runtimes = build_runtimes(self.config.tenants, self.config.slo)
        self.collector = MetricsCollector(slo=self.config.slo)
        self.cluster = GpuCluster(
            engine=self.engine,
            zoo=self.zoo,
            num_workers=self.config.num_workers,
            initial_level=initial_level or self.default_initial_level(),
            cache=self.cache,
            on_complete=self._handle_completion,
            on_requeue=self._handle_requeue,
            blocking_loads=self.config.blocking_model_loads,
            queue_policy=(
                "tenant-priority" if self.config.priority_queues_enabled else "fifo"
            ),
            tenant_weights={
                spec.name: spec.weight for spec in self.config.tenants
            }
            if self.config.priority_queues_enabled
            else None,
        )
        #: Weighted fair-share admission controller; None admits everything
        #: immediately (fewer than two tenants).
        self.admission: FairShareAdmission | None = None
        if self.config.admission_enabled:
            self.admission = FairShareAdmission(
                runtime=self.runtime,
                tenants=self.config.tenants,
                capacity_qps=self._admission_capacity_qps,
                admit=self._dispatch_admitted,
                rate_factor=self.config.admission_rate_factor,
                burst_s=self.config.admission_burst_s,
            )
        self._request_ids = itertools.count()
        self._started = False
        #: Completions not yet settled, oldest first, each as
        #: ``(completed, prompt, strategy, effective_rank)``.
        self._pending: list[tuple[CompletedRequest, Prompt, Strategy, int]] = []

    def _record_cache_lookup(self, shard: int, hit: bool, latency_s: float) -> None:
        """Cache-tier per-shard accounting hook (fires once per retrieval)."""
        self.collector.record_cache_lookup(shard, hit, latency_s)

    # ------------------------------------------------------------------ #
    # Hooks for subclasses
    # ------------------------------------------------------------------ #
    def default_initial_level(self) -> ApproximationLevel:
        """Level every worker starts at (SD-XL / K=0 by default)."""
        return self.zoo.exact_level(self.config.default_strategy)

    @abstractmethod
    def route(self, prompt: Prompt) -> Route | None:
        """Decide where to serve a prompt; None drops the request."""

    def start(self) -> None:
        """Install periodic control loops on the engine (optional)."""

    def on_sample(self, sample: ServedSample, completed: CompletedRequest) -> None:
        """Hook invoked after each completion is recorded (optional); it runs
        when the completion is settled (see :meth:`settle`)."""

    def _settle_due(self, completed: CompletedRequest) -> bool:
        """Whether the just-queued ``completed`` must be settled at once
        (optional): a subclass whose control reads qualities says so before
        it would read one that is still queued."""
        return False

    # ------------------------------------------------------------------ #
    # Request lifecycle
    # ------------------------------------------------------------------ #
    def submit(self, prompt: Prompt) -> Request | None:
        """Offer a prompt at the current simulated time.

        With fair-share admission configured, a prompt whose tenant is over
        its share is parked in the admission queue and dispatched later (the
        wait is charged against the request's own latency); otherwise the
        prompt is routed and dispatched immediately.
        """
        now = self.engine.now
        self.collector.record_arrival(now, tenant=prompt.tenant)
        self.observe_arrival(now, prompt)
        if self.admission is not None and not self.admission.offer(now, prompt):
            return None
        return self._dispatch_prompt(prompt, arrival_time_s=now)

    def _dispatch_admitted(self, prompt: Prompt, offer_time_s: float) -> None:
        """Admission-queue drain callback: dispatch with the original offer
        time so admission delay counts into the request's latency."""
        self._dispatch_prompt(prompt, arrival_time_s=offer_time_s)

    def _dispatch_prompt(self, prompt: Prompt, arrival_time_s: float) -> Request | None:
        """Route and dispatch one admitted prompt."""
        route = self.route(prompt)
        if route is None:
            self.collector.record_drop(tenant=prompt.tenant)
            return None
        request = Request(
            request_id=next(self._request_ids),
            prompt=prompt,
            arrival_time_s=arrival_time_s,
            strategy=route.strategy,
            predicted_rank=route.predicted_rank,
            assigned_rank=route.assigned_rank,
            deadline_s=self._deadline_for(prompt, arrival_time_s),
        )
        self.cluster.dispatch(request, route.worker_id)
        return request

    def _deadline_for(self, prompt: Prompt, arrival_time_s: float) -> float | None:
        """Absolute SLO deadline for priority queueing (None when disabled)."""
        if not self.config.priority_queues_enabled:
            return None
        runtime = self.tenant_runtimes.get(prompt.tenant)
        budget = runtime.budget_s if runtime is not None else self.config.slo.budget_s
        return arrival_time_s + budget

    def observe_arrival(self, now: float, prompt: Prompt) -> None:
        """Hook for load estimators (optional)."""

    def prepare(self, prompts: list[Prompt]) -> None:
        """Fill, in one batch, the memos that serving ``prompts`` will read
        (called by :meth:`schedule_arrivals` for each block it reads ahead).

        Only memos of pure per-prompt functions fill, so what is served is
        the same without it: here the cache embeddings, while the system
        serves AC from a cache.
        """
        strategy = getattr(self, "active_strategy", self.config.default_strategy)
        if self.cache is not None and strategy is Strategy.AC:
            self.cache.embedder.embed_batch(prompts)

    def _admission_capacity_qps(self) -> float:
        """Hit-rate-corrected fleet throughput (see
        :func:`~repro.core.admission.hit_corrected_capacity_qps`)."""
        strategy = getattr(self, "active_strategy", self.config.default_strategy)
        ceiling = self.cluster.fleet_ceiling_qpm(strategy) / 60.0
        return hit_corrected_capacity_qps(ceiling, self.zoo, strategy, self.cache)

    def _handle_completion(self, completed: CompletedRequest) -> None:
        """Queue the completion's quality accounting, settling when due."""
        request = completed.request
        rank = completed.effective_rank
        self._pending.append((completed, request.prompt, request.strategy, rank))
        if len(self._pending) >= MAX_PENDING_COMPLETIONS or self._settle_due(completed):
            self.settle()

    def settle(self) -> None:
        """Score, record and hand to :meth:`on_sample` every queued
        completion, in completion order.

        A completion's PickScore is settled later than it is served, so the
        streams of many new prompts are seeded as one batch
        (:meth:`PickScoreModel.score_many`).  It is settled no later than
        :meth:`_settle_due` asks, when :data:`MAX_PENDING_COMPLETIONS` are
        queued, at the end of :meth:`run` and in :meth:`record`; whoever
        reads :attr:`collector` in the middle of a run settles first.
        """
        pending, self._pending = self._pending, []
        if not pending:
            return
        qualities = self.pickscore.score_many([item[1:] for item in pending])
        record = self.collector.record_completion
        for (completed, _, _, _), (score, best) in zip(pending, qualities):
            self.on_sample(record(completed, score, best), completed)

    def _handle_requeue(self, request: Request) -> None:
        """Re-route requests orphaned by a worker failure."""
        route = self.route(request.prompt)
        if route is None:
            self.collector.record_drop(tenant=request.prompt.tenant)
            return
        request.predicted_rank = route.predicted_rank
        request.assigned_rank = route.assigned_rank
        request.strategy = route.strategy
        self.cluster.dispatch(request, route.worker_id)

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def schedule_arrivals(self, timed_prompts) -> None:
        """Stream a request source onto the engine lazily.

        Only the next arrival is ever resident in the event heap: each
        arrival callback submits its prompt and schedules the one after it.
        The source is read ahead in blocks of :data:`PREPARE_BLOCK`, so at
        most that many arrivals wait in a buffer, and a block's prompts go
        to :meth:`prepare` before its first arrival is scheduled.
        Million-request traces therefore cost O(1) memory instead of one
        pre-materialised event per request.  Every source owns its random
        streams, so reading ahead draws nothing out of order.

        ``timed_prompts`` must yield arrivals in nondecreasing time order
        (every arrival process in :mod:`repro.workloads` does).
        """
        iterator = iter(timed_prompts)
        block: deque = deque()

        def schedule_next() -> None:
            if not block:
                block.extend(itertools.islice(iterator, PREPARE_BLOCK))
                if not block:
                    return
                self.prepare([timed.prompt for timed in block])
            timed = block.popleft()
            if timed.arrival_time_s < self.engine.now:
                raise ValueError(
                    "schedule_arrivals requires nondecreasing arrival times: "
                    f"got {timed.arrival_time_s:.6f}s after {self.engine.now:.6f}s"
                )

            def arrive(_engine, prompt=timed.prompt) -> None:
                schedule_next()
                self.submit(prompt)

            self.engine.schedule_at(timed.arrival_time_s, arrive, name="arrival")

        schedule_next()

    def run(self, duration_s: float, drain_s: float = 120.0) -> None:
        """Run the simulation for ``duration_s`` plus a drain period."""
        if not self._started:
            self.start()
            self._started = True
        self.engine.run(until=duration_s + drain_s)
        self.settle()

    def record(self, duration_minutes: float) -> RunRecord:
        """This run's :class:`~repro.metrics.record.RunRecord`; the fleet is
        billed and averaged over the first ``duration_minutes`` (the trace's,
        drain excluded)."""
        self.settle()
        duration_s = duration_minutes * 60.0
        cluster = self.cluster
        fleet_peak, fleet_mean = cluster.fleet_stats(duration_s)
        cache = {} if self.cache is None else self.cache.record_fields(self.config.tenants)
        scheduler = getattr(self, "scheduler", None)
        if "cache_tier" in cache and hasattr(scheduler, "affinity_routed"):
            cache["cache_tier"]["affinity_routed"] = scheduler.affinity_routed
        switches = getattr(self, "num_strategy_switches", None)
        drift = getattr(self, "drift_events", None)
        autoscaler = getattr(self, "autoscaler", None)
        return RunRecord(
            system=self.name,
            workers=self.config.num_workers,
            cluster_utilization=cluster.utilization(duration_s),
            model_loads=cluster.total_model_loads(),
            fleet_peak_workers=fleet_peak,
            fleet_mean_workers=fleet_mean,
            workers_added=cluster.workers_added,
            workers_retired=cluster.workers_retired,
            gpu_hours=cluster.gpu_hours(duration_s),
            cost_usd=cluster.total_cost_usd(duration_s),
            fleet_minutes={m.minute: m for m in cluster.fleet_minute_series(duration_minutes)},
            strategy_switches=None if switches is None else switches(),
            retraining_events=getattr(self, "retraining_events", None),
            drift_events=None if drift is None else drift(),
            worker_queues=sum(w.outstanding for w in cluster.workers),
            autoscale_events=(
                None if autoscaler is None else [asdict(event) for event in autoscaler.events]
            ),
            **cache,
            **({} if self.admission is None else self.admission.record_fields()),
        )

    def report(
        self, workload: str, duration_minutes: float
    ) -> tuple[RunSummary, RunRecord, dict]:
        """Report the run: its summary, its record and the report's extras."""
        record = self.record(duration_minutes)
        inputs, extras = build_report(self.collector, record, self.config)
        summary = summarize(self.name, workload, self.collector, duration_minutes, **inputs)
        return summary, record, extras
