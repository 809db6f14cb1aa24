"""ArgusSystem: the end-to-end quality-aware serving system.

Wires together every component of Fig. 3: the per-strategy classifiers, the
Allocator (Solver + Workload Distribution Predictor + ODA), the Prompt
Scheduler with its PASM, the strategy switcher, drift-triggered classifier
retraining, and the simulated GPU cluster with approximate caching.

``ArgusSystem(prompt_aware=False)`` is the PAC ablation from §5.1: it keeps
the AC/SM switching and the load-aware solver but routes prompts agnostic of
their individual approximation tolerance.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.cache import warm_cache
from repro.classifier.drift import DriftDetector, TenantDrift
from repro.classifier.trainer import ClassifierTrainer, TrainedPredictor
from repro.cluster.requests import CompletedRequest
from repro.core.allocator import Allocator
from repro.core.autoscaler import Autoscaler
from repro.core.base import BaseServingSystem, Route
from repro.core.config import ArgusConfig
from repro.core.scheduler import PromptScheduler
from repro.core.strategy import StrategySwitcher
from repro.metrics.collector import ServedSample
from repro.models.zoo import Strategy
from repro.prompts.dataset import PromptDataset
from repro.prompts.generator import Prompt
from repro.quality.profiles import QualityProfiler


class ArgusSystem(BaseServingSystem):
    """Quality-aware high-throughput T2I serving (the paper's system)."""

    name = "Argus"

    #: Switch-event reason used when load (not network health) forces AC->SM.
    LOAD_SWITCH_REASON = "load exceeds AC capacity"

    def __init__(
        self,
        config: ArgusConfig | None = None,
        prompt_aware: bool = True,
        allow_strategy_switching: bool = True,
        training_dataset: PromptDataset | None = None,
        **kwargs,
    ) -> None:
        super().__init__(config=config, **kwargs)
        self.prompt_aware = bool(prompt_aware)
        if not self.prompt_aware:
            self.name = "PAC"

        # ------------------------------------------------------------ #
        # Offline phase: classifier training and per-level profiling
        # ------------------------------------------------------------ #
        dataset = training_dataset or PromptDataset.synthetic(
            count=self.config.classifier_training_prompts,
            seed=self.config.seed + 101,
        )
        self._training_prompts = dataset.prompts
        trainer = ClassifierTrainer(self.pickscore)
        self.trainer = trainer
        self.classifiers: dict[Strategy, TrainedPredictor] = {}
        if self.prompt_aware:
            self.classifiers = trainer.train_both_strategies(
                self._training_prompts,
                epochs=self.config.classifier_epochs,
                seed=self.config.seed,
            )
        profiler = QualityProfiler(self.zoo, self.pickscore)
        profiling_prompts = self._training_prompts[: self.config.profiling_prompts]
        quality_vectors = {
            strategy: profiler.quality_vector(strategy, profiling_prompts)
            for strategy in (Strategy.AC, Strategy.SM)
        }

        # ------------------------------------------------------------ #
        # Online components
        # ------------------------------------------------------------ #
        self.scheduler = PromptScheduler(
            cluster=self.cluster,
            num_levels=self.zoo.num_levels(self.config.default_strategy),
            rng=np.random.default_rng(self.config.seed + 7),
            slo_budget_s=self.config.slo.budget_s,
        )
        if self.tenant_runtimes:
            # SLO-class budgets and quality floors for per-tenant routing.
            self.scheduler.set_tenants(self.tenant_runtimes)
        if self.cache is not None and self.config.cache_tier_enabled:
            # Shard-aware routing: prefer workers near the cache shard the
            # prompt's retrieval will land on, within a backlog tolerance.
            self.scheduler.set_cache_affinity(self.cache.worker_prefers)
        self.allocator = Allocator(
            config=self.config,
            zoo=self.zoo,
            cluster=self.cluster,
            scheduler=self.scheduler,
            quality_vectors=quality_vectors,
            prompt_aware=self.prompt_aware,
        )
        self.switcher = StrategySwitcher(
            retrieval_latency_threshold_s=self.config.retrieval_latency_threshold_s,
            violations_to_switch=self.config.retrieval_violations_to_switch,
            allow_switching=allow_strategy_switching,
            active=self.config.default_strategy,
        )
        #: Drift state per tenant namespace (one shared detector when
        #: untenanted).
        self.drift = TenantDrift(self.config.tenants)
        #: Closed-loop horizontal scaler (§6); None keeps the fixed pool.
        self.autoscaler: Autoscaler | None = None
        if self.config.autoscale_enabled:
            self.autoscaler = Autoscaler(
                config=self.config,
                zoo=self.zoo,
                cluster=self.cluster,
                allocator=self.allocator,
                active_strategy=lambda: self.active_strategy,
            )
        self.retraining_events = 0
        #: True while the system runs SM purely because load outgrew AC's
        #: throughput ceiling (suppresses the probe-based switch-back).
        self._load_switched = False
        #: Debounce: one high-demand observation arms the switch, the second
        #: consecutive one fires it (filters cold-start estimate noise).
        self._load_switch_armed = False
        self._recent_prompts: deque[Prompt] = deque(maxlen=self.config.classifier_training_prompts)

        self._apply_strategy(self.config.default_strategy)
        if self.cache is not None and self.config.cache_warm_prompts > 0:
            warm_cache(
                self.cache,
                self._training_prompts[: self.config.cache_warm_prompts],
                self.config.tenants,
            )

        # Seed the affinity predictor with the training prompts so the first
        # PASM is informative rather than uniform.
        if self.prompt_aware:
            for strategy, predictor in self.classifiers.items():
                ranks = predictor.predict_ranks(
                    self._training_prompts[: self.config.affinity_lookback]
                )
                for rank in ranks:
                    self.allocator.observe_affinity(strategy, rank)

    # ------------------------------------------------------------------ #
    # Strategy handling
    # ------------------------------------------------------------------ #
    @property
    def active_strategy(self) -> Strategy:
        """The approximation strategy currently in force."""
        return self.switcher.active

    def _apply_strategy(self, strategy: Strategy) -> None:
        strategy = Strategy(strategy)
        self.scheduler.set_strategy(strategy)
        predictor = self.classifiers.get(strategy) if self.prompt_aware else None
        self.scheduler.set_predictor(predictor)

    def _on_strategy_change(self, strategy: Strategy) -> None:
        self._apply_strategy(strategy)
        self._load_switch_armed = False
        self.allocator.switching_in_progress = True
        self.allocator.recalibrate(self.engine.now, strategy)

    # ------------------------------------------------------------------ #
    # BaseServingSystem hooks
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Install the periodic allocation / probing loop (clock-agnostic)."""
        self.allocator.recalibrate(self.runtime.now(), self.active_strategy)
        if self.autoscaler is not None:
            self.autoscaler.install(self.runtime)

        def tick() -> None:
            now = self.runtime.now()
            was_switching = self.allocator.switching_in_progress
            if (
                self.active_strategy is Strategy.SM
                and self.cache is not None
                and not self._load_switched
            ):
                probe = self.cache.probe_network(now)
                previous = self.switcher.active
                self.switcher.observe_probe(probe, now)
                if self.switcher.active is not previous:
                    self._on_strategy_change(self.switcher.active)
                    return
            record = self.allocator.recalibrate(now, self.active_strategy)
            if self._consider_load_switch(record):
                return
            if was_switching:
                self.allocator.switching_in_progress = False

        # The first re-calibration runs a few seconds in (once some arrivals
        # have been observed) so a cold start under load does not wait a full
        # interval before approximating; after that, ticks follow the
        # configured interval.
        def first_tick() -> None:
            tick()
            self.runtime.schedule_every(
                self.config.reallocation_interval_s, tick, name="argus-allocator"
            )

        self.runtime.schedule_in(
            min(10.0, self.config.reallocation_interval_s), first_tick, name="argus-allocator-warmup"
        )

    def prepare(self, prompts: list[Prompt]) -> None:
        """Also fill the active classifier's rank memo (see
        :meth:`TrainedPredictor.remember_ranks`)."""
        super().prepare(prompts)
        predictor = self.classifiers.get(self.active_strategy)
        if predictor is not None:
            predictor.remember_ranks(prompts)

    def observe_arrival(self, now: float, prompt: Prompt) -> None:
        """Feed the load estimator and watch for backlog build-up."""
        self.allocator.observe_arrival(now)
        self._maybe_recalibrate_on_backlog(now)

    def _maybe_recalibrate_on_backlog(self, now: float) -> None:
        """Out-of-band recalibration when queues outgrow the last plan.

        The periodic tick reacts within a minute; a sharp spike can queue
        hundreds of requests in that window.  When the backlog exceeds the
        configured per-worker threshold, re-solve immediately (rate-limited
        so a sustained overload does not thrash the solver).
        """
        threshold = self.config.backlog_recalibration_per_worker
        if threshold <= 0:
            return
        # Cheapest check first: this runs on every arrival.
        last = self.allocator.last_record
        if last is not None and now - last.time_s < self.config.backlog_recalibration_min_gap_s:
            return
        if not self.cluster.healthy_workers:
            return
        if self.cluster.total_queued_requests() <= self.cluster.backlog_slack(threshold):
            return
        record = self.allocator.recalibrate(now, self.active_strategy)
        self._consider_load_switch(record)

    def _cluster_ceiling_qpm(self, strategy: Strategy) -> float:
        """Max sustainable QPM with every healthy worker at the fastest level.

        Heterogeneity-aware: each worker contributes its own GPU's speed (on
        a homogeneous reference fleet this is exactly ``peak x num_workers``).
        """
        return self.cluster.fleet_ceiling_qpm(strategy)

    def _consider_load_switch(self, record) -> bool:
        """Load-driven strategy switching (the §4.6 switch, capacity edition).

        AC's throughput ceiling (everything runs on the SD-XL base) is below
        SM's (Tiny-SD workers).  When the solver reports the target load is
        infeasible under AC, switch to SM — the model loads happen in the
        background, so the switch is hitless — and switch back once the load
        estimate again fits comfortably under the AC ceiling.
        """
        if not self.switcher.allow_switching:
            return False
        now = self.engine.now
        ac_ceiling = self._cluster_ceiling_qpm(Strategy.AC)
        if self.active_strategy is Strategy.AC:
            # Hysteresis high side: the raw demand (no safety padding) must
            # press against AC's ceiling before giving up AC quality.
            if record.demand_qpm <= 0.95 * ac_ceiling:
                self._load_switch_armed = False
                return False
            if self._cluster_ceiling_qpm(Strategy.SM) <= ac_ceiling * 1.01:
                return False
            if not self._load_switch_armed:
                self._load_switch_armed = True
                return False
            self._load_switch_armed = False
            self._load_switched = True
            self.switcher.force_strategy(Strategy.SM, now, reason=self.LOAD_SWITCH_REASON)
            self._on_strategy_change(Strategy.SM)
            return True
        # Hysteresis low side: return to AC once demand clearly fits again.
        if self._load_switched and record.demand_qpm <= 0.85 * ac_ceiling:
            self._load_switched = False
            if self.cache is not None:
                probe = self.cache.probe_network(now)
                if probe is None or probe > self.config.retrieval_latency_threshold_s:
                    # The cache network degraded while we were on SM for load
                    # reasons: stay on SM and let the regular probe-recovery
                    # gate (now re-enabled) decide when AC is safe again.
                    return False
            self.switcher.force_strategy(Strategy.AC, now, reason="load fits AC again")
            self._on_strategy_change(Strategy.AC)
            return True
        return False

    def route(self, prompt: Prompt) -> Route | None:
        """Classifier + PASM + worker-selector routing."""
        decision = self.scheduler.route(prompt)
        if decision is None:
            return None
        weight = 1.0
        if self.tenant_runtimes:
            runtime = self.tenant_runtimes.get(prompt.tenant)
            if runtime is not None:
                weight = runtime.weight
        self.allocator.observe_affinity(
            self.active_strategy, decision.predicted_rank, weight=weight
        )
        return Route(
            worker_id=decision.worker_id,
            predicted_rank=decision.predicted_rank,
            assigned_rank=decision.assigned_rank,
            strategy=decision.strategy,
        )

    def _handle_completion(self, completed: CompletedRequest) -> None:
        """Remember the prompt for retraining, queue its quality (settled at
        once when it may close a drift window), then watch its retrieval."""
        self._recent_prompts.append(completed.request.prompt)
        super()._handle_completion(completed)
        attempted_retrieval = (
            completed.request.strategy is Strategy.AC
            and (completed.retrieval_failed or completed.retrieval_latency_s > 0.0)
        )
        if attempted_retrieval:
            previous = self.switcher.active
            observed = None if completed.retrieval_failed else completed.retrieval_latency_s
            self.switcher.observe_retrieval(observed, self.engine.now)
            if self.switcher.active is not previous:
                self._on_strategy_change(self.switcher.active)

    def _settle_due(self, completed: CompletedRequest) -> bool:
        """Whether a drift window may close with the completions queued so
        far: settling then observes drift, and retrains, before the next
        request is routed, just as scoring each completion at once would."""
        if not self.prompt_aware:
            return False
        # Every detector a queued completion feeds exists by now.
        self.drift.detector_for(completed.request.prompt.tenant)
        return len(self._pending) >= self.drift.until_window_closes

    def on_sample(self, sample: ServedSample, completed: CompletedRequest) -> None:
        """Drift detection on a settled completion's PickScore."""
        if self.prompt_aware:
            detector = self.drift.detector_for(completed.request.prompt.tenant)
            drift = detector.observe(sample.pickscore)
            if drift is not None:
                self._retrain_classifiers(detector)

    # ------------------------------------------------------------------ #
    # Classifier retraining (off the critical path)
    # ------------------------------------------------------------------ #
    def _retrain_classifiers(self, detector: DriftDetector) -> None:
        prompts = list(self._recent_prompts)
        if len(prompts) < 50 or not self.prompt_aware:
            return
        self.retraining_events += 1
        for strategy in (Strategy.AC, Strategy.SM):
            self.classifiers[strategy] = self.trainer.train(
                prompts,
                strategy,
                epochs=max(4, self.config.classifier_epochs // 2),
                seed=self.config.seed + self.retraining_events,
            )
        self._apply_strategy(self.active_strategy)
        # Retraining is global (the classifiers are shared) but only the
        # detector that fired resets: the other tenants' windows keep
        # accumulating evidence against their own history.
        detector.reset()

    # ------------------------------------------------------------------ #
    # Introspection helpers used by the benchmarks
    # ------------------------------------------------------------------ #
    def shift_fraction(self) -> float:
        """Fraction of requests shifted off their predicted optimal level."""
        return self.scheduler.shift_fraction

    def num_strategy_switches(self) -> int:
        """How many AC<->SM switches occurred during the run."""
        return self.switcher.num_switches

    def drift_events(self) -> dict[str, int]:
        """Drift events observed, keyed by tenant ("" = shared detector)."""
        return self.drift.events()
