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
from dataclasses import dataclass

from repro.cache import build_cache
from repro.cache.network import NetworkModel
from repro.cluster.cluster import GpuCluster
from repro.cluster.requests import CompletedRequest, Request
from repro.core.admission import FairShareAdmission, hit_corrected_capacity_qps
from repro.core.config import ArgusConfig
from repro.metrics.collector import MetricsCollector, ServedSample
from repro.metrics.report import RunSummary, summarize, tenant_breakdown
from repro.models.zoo import ApproximationLevel, ModelZoo, Strategy
from repro.prompts.generator import Prompt
from repro.quality.pickscore import PickScoreModel
from repro.runtime.sim import SimRuntime
from repro.simulation.engine import SimulationEngine
from repro.workloads.tenants import build_runtimes


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
    #: Whether this system's serving runtime can execute dynamic batches.
    #: Systems that model single-request designs (e.g. NIRVANA) set this to
    #: False and always serve batch-size-1 regardless of the config, so
    #: batched-vs-unbatched comparisons stay faithful.
    supports_batching = True

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
        max_batch = self.config.max_batch_size if self.supports_batching else 1
        self.cluster = GpuCluster(
            engine=self.engine,
            zoo=self.zoo,
            num_workers=self.config.num_workers,
            initial_level=initial_level or self.default_initial_level(),
            cache=self.cache,
            memory_capacity_gib=self.config.worker_memory_gib,
            on_complete=self._handle_completion,
            on_requeue=self._handle_requeue,
            blocking_loads=self.config.blocking_model_loads,
            max_batch_size=max_batch,
            batch_timeout_s=self.config.batch_timeout_s if max_batch > 1 else 0.0,
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
        #: immediately (single-tenant, or fair_share_admission=False).
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
        """Hook invoked after each completion is recorded (optional)."""

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

    def _admission_capacity_qps(self) -> float:
        """Hit-rate-corrected fleet throughput (see
        :func:`~repro.core.admission.hit_corrected_capacity_qps`)."""
        strategy = getattr(self, "active_strategy", self.config.default_strategy)
        ceiling = self.cluster.fleet_ceiling_qpm(strategy) / 60.0
        return hit_corrected_capacity_qps(ceiling, self.zoo, strategy, self.cache)

    def _handle_completion(self, completed: CompletedRequest) -> None:
        prompt = completed.request.prompt
        strategy = completed.request.strategy
        score = self.pickscore.score(prompt, strategy, completed.effective_rank)
        best = self.pickscore.best_score(prompt)
        sample = self.collector.record_completion(completed, score, best)
        self.on_sample(sample, completed)

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
        Million-request traces therefore cost O(1) heap space instead of one
        pre-materialised event per request.

        ``timed_prompts`` must yield arrivals in nondecreasing time order
        (every arrival process in :mod:`repro.workloads` does).
        """
        iterator = iter(timed_prompts)

        def schedule_next() -> None:
            timed = next(iterator, None)
            if timed is None:
                return
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

    def summary(self, workload: str, duration_minutes: float) -> RunSummary:
        """Summarise the run for reporting."""
        duration_s = duration_minutes * 60.0
        fleet_peak, fleet_mean = self.cluster.fleet_stats(duration_s)
        return summarize(
            system=self.name,
            workload=workload,
            collector=self.collector,
            duration_minutes=duration_minutes,
            cluster_utilization=self.cluster.utilization(duration_s),
            model_loads=self.cluster.total_model_loads(),
            mean_batch_occupancy=self.cluster.mean_batch_occupancy(),
            fleet_peak_workers=fleet_peak,
            fleet_mean_workers=fleet_mean,
            workers_added=self.cluster.workers_added,
            workers_retired=self.cluster.workers_retired,
            gpu_hours=self.cluster.gpu_hours(duration_s),
            cost_usd=self.cluster.total_cost_usd(duration_s),
            tenants=tenant_breakdown(
                self.collector, self.tenant_runtimes, self.cache, self.admission
            ),
        )
