"""Closed-loop horizontal autoscaler (§6 promoted from a print to a loop).

The paper's discussion ends with an observation: once every worker serves at
the most approximate level and offered load still exceeds the fleet's
throughput ceiling, quality can no longer be traded for throughput and the
operator must scale horizontally.  This module turns that signal — plus
queued-backlog pressure — into a control loop that provisions workers (with
a realistic node-provisioning delay and model warm-up before they enter
rotation) and drains them back out when load subsides.

The loop mirrors the hysteresis/debounce discipline of
:mod:`repro.core.strategy`: scale-out arms only after consecutive overloaded
observations, scale-in after a longer run of underloaded ones, and each
direction has its own cooldown so the fleet never flaps.  New workers run
the deployment's ``gpu``; scale-in removes the most recently added worker
first, so the baseline fleet survives transients untouched.

A shard of a sharded run runs this same loop over its fleet partition,
inside the ``[min_workers, max_workers]`` share its plan gave it
(:func:`~repro.simulation.shard.plan_shards`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.cluster import GpuCluster
from repro.cluster.worker import Worker
from repro.core.allocator import Allocator
from repro.core.config import ArgusConfig
from repro.models.zoo import ModelZoo, Strategy
from repro.runtime.base import Runtime, as_runtime
from repro.simulation.engine import SimulationEngine


@dataclass(frozen=True)
class ScalingEvent:
    """One autoscaler action (for §6-style fleet timelines)."""

    time_s: float
    action: str  # "scale_out" | "scale_in"
    delta: int
    #: Workers right after the action: in rotation, provisioning or
    #: failed for a scale-out (the count its cap bounds), in rotation for a
    #: scale-in.
    fleet_size: int
    reason: str


@dataclass
class Autoscaler:
    """Drives the elastic fleet from saturation and backlog signals."""

    config: ArgusConfig
    zoo: ModelZoo
    cluster: GpuCluster
    allocator: Allocator
    #: Callable returning the active strategy (it switches at runtime).
    active_strategy: Callable[[], Strategy]
    events: list[ScalingEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.min_workers = self.config.effective_min_workers
        self.max_workers = self.config.effective_max_workers
        self._overload_streak = 0
        self._underload_streak = 0
        self._last_scale_out_s = -math.inf
        self._last_scale_in_s = -math.inf
        #: Ids of autoscaler-added workers still in the fleet (LIFO pool).
        self._added_ids: list[int] = []

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def install(self, runtime: Runtime | SimulationEngine) -> None:
        """Schedule the periodic evaluation loop on an engine or runtime."""
        runtime = as_runtime(runtime)
        runtime.schedule_every(
            self.config.autoscale_interval_s,
            lambda: self.tick(runtime.now()),
            name="autoscaler",
        )

    # ------------------------------------------------------------------ #
    # Control loop
    # ------------------------------------------------------------------ #
    def tick(self, now: float) -> None:
        """Evaluate the scaling signals once."""
        strategy = self.active_strategy()
        demand_qpm = self.allocator.load_estimator.estimated_qpm(now)
        ceiling = self.cluster.fleet_ceiling_qpm(strategy)
        ceiling_with_pending = self.cluster.fleet_ceiling_qpm(
            strategy, include_provisioning=True
        )
        queued = self.cluster.total_queued_requests()
        backlog_pressure = queued > self.config.autoscale_backlog_factor * max(
            1.0, self.cluster.backlog_slack()
        )
        saturated = (
            self.cluster.all_at_fastest_level(strategy) and demand_qpm > ceiling
        )
        overloaded = demand_qpm > self.config.scale_up_threshold * ceiling_with_pending and (
            saturated or backlog_pressure
        )

        if overloaded:
            self._overload_streak += 1
            self._underload_streak = 0
        else:
            self._overload_streak = 0

        if (
            overloaded
            and self._overload_streak >= self.config.scale_out_consecutive_ticks
            and now - self._last_scale_out_s >= self.config.scale_out_cooldown_s
        ):
            if self._scale_out(now, demand_qpm, ceiling_with_pending, strategy):
                return

        self._consider_scale_in(now, demand_qpm, ceiling, strategy, backlog_pressure)

    # ------------------------------------------------------------------ #
    # Scale-out
    # ------------------------------------------------------------------ #
    def _scale_out(
        self, now: float, demand_qpm: float, projected_qpm: float, strategy: Strategy
    ) -> bool:
        # Failed workers count against the cap: they rejoin the rotation
        # when they recover, which must not carry the fleet past its max.
        in_fleet = (
            self.cluster.fleet_size
            + len(self.cluster.provisioning_workers)
            + sum(1 for w in self.cluster.workers if w.is_failed)
        )
        fastest = self.zoo.fastest_level(strategy)
        # New workers run the deployment's GPU, the one the zoo's levels are
        # priced on, so each adds its level's full peak throughput.
        peak = fastest.peak_throughput_qpm
        added = 0
        # Add workers until the projected ceiling clears demand (with the
        # scale-up threshold as headroom), the step cap, or the fleet cap.
        while (
            added < self.config.max_scale_step
            and in_fleet + added < self.max_workers
            and (added == 0 or projected_qpm * self.config.scale_up_threshold < demand_qpm)
        ):
            worker = self.cluster.provision_worker(
                gpu=self.config.gpu,
                level=fastest,
                provision_delay_s=self.config.provision_delay_s,
                on_ready=self._on_worker_ready,
            )
            self._added_ids.append(worker.worker_id)
            projected_qpm += peak
            added += 1
        if added == 0:
            return False
        self._overload_streak = 0
        self._last_scale_out_s = now
        reason = f"demand {demand_qpm:.0f} QPM above fleet ceiling (saturation/backlog)"
        self.events.append(
            ScalingEvent(
                time_s=now,
                action="scale_out",
                delta=added,
                fleet_size=in_fleet + added,
                reason=reason,
            )
        )
        return True

    def _on_worker_ready(self, worker: Worker) -> None:
        """Fold a freshly provisioned worker into the current plan."""
        self.allocator.recalibrate(worker.engine.now, self.active_strategy())

    # ------------------------------------------------------------------ #
    # Scale-in
    # ------------------------------------------------------------------ #
    def _scale_in_candidate(self) -> Worker | None:
        """Most recently added worker still in rotation (LIFO), falling back
        to the highest-id active worker when ``min_workers`` allows shrinking
        below the initial fleet."""
        active_ids = {w.worker_id: w for w in self.cluster.healthy_workers}
        for worker_id in reversed(self._added_ids):
            if worker_id in active_ids:
                return active_ids[worker_id]
        if not active_ids:
            return None
        return active_ids[max(active_ids)]

    def _consider_scale_in(
        self,
        now: float,
        demand_qpm: float,
        ceiling: float,
        strategy: Strategy,
        backlog_pressure: bool,
    ) -> None:
        if self.cluster.provisioning_workers:
            # Never shrink while growth is still in flight.
            self._underload_streak = 0
            return
        if self.cluster.fleet_size <= self.min_workers:
            self._underload_streak = 0
            return
        candidate = self._scale_in_candidate()
        if candidate is None:
            return
        ceiling_after = ceiling - candidate.peak_qpm(self.zoo.fastest_level(strategy))
        underloaded = (
            not backlog_pressure
            and demand_qpm < self.config.scale_down_threshold * ceiling_after
        )
        if not underloaded:
            self._underload_streak = 0
            return
        self._underload_streak += 1
        if self._underload_streak < self.config.scale_in_consecutive_ticks:
            return
        if now - self._last_scale_in_s < self.config.scale_in_cooldown_s:
            return
        self.cluster.drain_worker(candidate.worker_id)
        if candidate.worker_id in self._added_ids:
            self._added_ids.remove(candidate.worker_id)
        self._underload_streak = 0
        self._last_scale_in_s = now
        self.events.append(
            ScalingEvent(
                time_s=now,
                action="scale_in",
                delta=-1,
                fleet_size=self.cluster.fleet_size,
                reason=f"demand {demand_qpm:.0f} QPM fits the smaller fleet",
            )
        )
        self.allocator.recalibrate(now, strategy)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_scale_outs(self) -> int:
        """Scale-out actions taken."""
        return sum(1 for e in self.events if e.action == "scale_out")

    @property
    def num_scale_ins(self) -> int:
        """Scale-in actions taken."""
        return sum(1 for e in self.events if e.action == "scale_in")
