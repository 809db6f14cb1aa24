"""The Allocator: Argus's periodic calibration loop (block A+B of Fig. 3).

Every ``reallocation_interval_s`` (one minute by default) the Allocator:

1. estimates the near-term offered load ``R_t`` from recent arrivals;
2. reads the affinity distribution ``f(l)`` from the Workload Distribution
   Predictor;
3. solves Eq. 1 for the active strategy to get worker placements and the
   feasible load distribution ``g(l)``;
4. runs ODA to align ``f`` with ``g`` and installs the resulting PASM in the
   Prompt Scheduler;
5. applies the worker placement to the cluster (model loads happen in the
   background on the affected workers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import GpuCluster
from repro.core.config import ArgusConfig
from repro.core.oda import OptimizedDistributionAligner, ShiftMap
from repro.core.predictor import LoadEstimator, WorkloadDistributionPredictor
from repro.core.scheduler import PromptScheduler
from repro.core.solver import AllocationPlan, AllocationSolver
from repro.models.zoo import ModelZoo, Strategy


@dataclass
class AllocationRecord:
    """What the Allocator decided on one calibration tick."""

    time_s: float
    strategy: Strategy
    target_qpm: float
    plan: AllocationPlan
    shift_map: ShiftMap
    #: Estimated arrival rate before backlog drain, safety factor and switch
    #: margin are applied; the strategy switcher compares this against the
    #: per-strategy capacity ceilings (transient queue build-up must not
    #: masquerade as sustained overload).
    demand_qpm: float = 0.0


@dataclass
class Allocator:
    """Periodic solver + ODA loop."""

    config: ArgusConfig
    zoo: ModelZoo
    cluster: GpuCluster
    scheduler: PromptScheduler
    #: Profiled mean quality per level, per strategy (from QualityProfiler).
    quality_vectors: dict[Strategy, np.ndarray]
    #: The config's load_safety_factor is applied at recalibration time, so
    #: the estimator itself stays neutral (no double safety margin).
    load_estimator: LoadEstimator = field(
        default_factory=lambda: LoadEstimator(safety_factor=1.0)
    )
    solver: AllocationSolver = field(default_factory=AllocationSolver)
    aligner: OptimizedDistributionAligner = field(default_factory=OptimizedDistributionAligner)
    #: True while a strategy switch is in flight (adds the 1.5x margin).
    switching_in_progress: bool = False
    history: list[AllocationRecord] = field(default_factory=list)
    prompt_aware: bool = True

    def __post_init__(self) -> None:
        num_levels = self.zoo.num_levels(self.config.default_strategy)
        self.predictors: dict[Strategy, WorkloadDistributionPredictor] = {
            strategy: WorkloadDistributionPredictor(
                num_levels=self.zoo.num_levels(strategy),
                lookback=self.config.affinity_lookback,
            )
            for strategy in (Strategy.AC, Strategy.SM)
        }
        self._num_levels = num_levels
        #: Solver memo-key tag: plans are interpreted through tenant floors
        #: and weights, so deployments with different tenant contracts must
        #: never share cached plans (None for the anonymous workload).
        self._tenant_signature: tuple | None = (
            tuple(
                (spec.name, spec.weight, spec.quality_floor_rank)
                for spec in self.config.tenants
            )
            if self.config.tenants
            else None
        )

    # ------------------------------------------------------------------ #
    # Observations
    # ------------------------------------------------------------------ #
    def observe_arrival(self, time_s: float) -> None:
        """Record an arrival for load estimation."""
        self.load_estimator.observe_arrival(time_s)

    def observe_affinity(
        self, strategy: Strategy, predicted_rank: int, weight: float = 1.0
    ) -> None:
        """Record a classifier prediction for the affinity histogram.

        ``weight`` is the prompt's tenant fair-share weight, so the PASM the
        planner aligns against is the *tenant-weighted* affinity histogram
        (heavier tenants pull the plan harder); 1.0 for anonymous traffic.
        """
        self.predictors[Strategy(strategy)].observe(predicted_rank, weight=weight)

    # ------------------------------------------------------------------ #
    # Calibration
    # ------------------------------------------------------------------ #
    def recalibrate(self, now_s: float, strategy: Strategy) -> AllocationRecord:
        """Run one calibration tick for the given active strategy."""
        strategy = Strategy(strategy)
        # Backlog drain term: plan enough extra capacity to clear any queue
        # build-up within one reallocation interval, so a burst does not
        # leave a lingering tail.  Requests in a GPU pass are excluded —
        # they are normal in-flight work — and one request per worker may
        # wait behind each in-flight pass.
        excess_backlog = max(
            0, self.cluster.total_queued_requests() - self.cluster.backlog_slack()
        )
        demand_qpm = self.load_estimator.estimated_qpm(now_s)
        drain_qpm = excess_backlog * 60.0 / self.config.reallocation_interval_s
        target_qpm = (demand_qpm + drain_qpm) * self.config.load_safety_factor
        if self.switching_in_progress:
            target_qpm *= self.config.switch_margin
        target_qpm = max(target_qpm, 1.0)

        quality = self.quality_vectors[strategy]
        levels = self.zoo.levels(strategy)
        peak_qpm = np.array([level.peak_throughput_qpm for level in levels])
        healthy = self.cluster.healthy_workers
        num_healthy = len(healthy)
        if num_healthy == 0:
            shift_map = ShiftMap.identity(len(levels))
            plan = AllocationPlan(
                workers_per_level=tuple(0 for _ in levels),
                qpm_per_level=tuple(0.0 for _ in levels),
                feasible=False,
                target_qpm=target_qpm,
                expected_quality=0.0,
            )
            record = AllocationRecord(
                now_s, strategy, target_qpm, plan, shift_map, demand_qpm=demand_qpm
            )
            self.history.append(record)
            return record

        # Heterogeneity-aware capacity model: per-worker GPU speeds replace
        # the uniform ``num_workers x rate`` assumption.  The homogeneous
        # fast path (all speeds 1.0) is the seed solve, bit-for-bit.
        speeds = [w.speed_factor for w in healthy]
        plan = self.solver.solve(
            target_qpm,
            quality,
            peak_qpm,
            num_healthy,
            speed_factors=None if all(s == 1.0 for s in speeds) else speeds,
            signature=self._tenant_signature,
        )
        load_distribution = plan.load_distribution()

        if self.prompt_aware:
            affinity = self.predictors[strategy].affinity_distribution()
            shift_map = self.aligner.align(affinity, load_distribution)
        else:
            shift_map = ShiftMap.load_proportional(load_distribution)

        self._apply_plan(plan, strategy)
        self.scheduler.set_shift_map(shift_map)
        self.scheduler.set_strategy(strategy)

        record = AllocationRecord(
            time_s=now_s,
            strategy=strategy,
            target_qpm=target_qpm,
            plan=plan,
            shift_map=shift_map,
            demand_qpm=demand_qpm,
        )
        self.history.append(record)
        return record

    def _apply_plan(self, plan: AllocationPlan, strategy: Strategy) -> None:
        """Push the plan's worker placement to the cluster.

        Workers are handed to the plan fastest-GPU-first so the solver's
        heterogeneous capacity model (fastest workers on the lowest ranks)
        matches the realised placement; on a homogeneous fleet the stable
        sort preserves the original id order exactly.
        """
        ordered = sorted(
            self.cluster.healthy_workers, key=lambda w: (-w.speed_factor, w.worker_id)
        )
        healthy_ids = [w.worker_id for w in ordered]
        assignment = plan.worker_assignment(healthy_ids)
        levels = self.zoo.levels(strategy)
        level_assignment = {
            worker_id: levels[rank] for worker_id, rank in assignment.items()
        }
        self.cluster.apply_assignment(level_assignment)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def last_record(self) -> AllocationRecord | None:
        """The most recent calibration outcome."""
        return self.history[-1] if self.history else None
