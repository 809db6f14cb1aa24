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
direction has its own cooldown so the fleet never flaps.  GPU types for new
workers cycle through the configured ``gpu_mix``; scale-in removes the most
recently added worker first, so the baseline fleet survives transients
untouched.

Sharded runs flip ``brokered`` on: the signals, streaks and cooldowns are
evaluated identically over the shard's fleet partition, but instead of
provisioning/draining directly the loop emits :class:`ScaleRequest`
records.  The shard ships them at the next autoscale-epoch barrier; the
coordinator's budget broker grants against the *global*
``min_workers``/``max_workers``/``gpu_mix`` budget, answering each with a
:class:`ScaleOutcome`, and the shard applies the grants (provision/drain +
events) at exactly the epoch time via :meth:`Autoscaler.apply_outcomes`.
While a request is pending or awaiting a grant the loop holds still — the
same "never shrink while growth is in flight" rule the sequential loop
applies to provisioning workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.cluster import GpuCluster
from repro.cluster.worker import Worker
from repro.core.allocator import Allocator
from repro.core.config import ArgusConfig
from repro.models.gpus import gpu_by_name
from repro.models.zoo import ModelZoo, Strategy
from repro.runtime.base import Runtime, as_runtime
from repro.simulation.engine import SimulationEngine


@dataclass(frozen=True)
class ScaleRequest:
    """One brokered-mode autoscaler ask, shipped to the budget broker.

    ``seq`` is the shard-local emission sequence; the broker grants in
    (shard id, seq) order, which is what makes N-shard autoscaled runs
    reproducible regardless of process timing.
    """

    seq: int
    action: str  # "scale_out" | "scale_in"
    time_s: float
    #: Workers asked for (scale_out) or offered back (scale_in, always 1).
    count: int
    reason: str = ""


@dataclass(frozen=True)
class ScaleOutcome:
    """The budget broker's answer to one :class:`ScaleRequest`."""

    seq: int
    action: str
    #: Workers granted (0 = denied outright).
    granted: int
    #: GPU types for granted scale-out workers, assigned from the *global*
    #: ``gpu_mix`` cycle so the fleet mix matches a sequential deployment.
    gpus: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScalingEvent:
    """One autoscaler action (for §6-style fleet timelines)."""

    time_s: float
    action: str  # "scale_out" | "scale_in"
    delta: int
    #: Workers in rotation or provisioning right after the action.
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
    #: Brokered mode (sharded runs): emit ScaleRequests instead of acting;
    #: the coordinator's budget broker grants, :meth:`apply_outcomes` acts.
    brokered: bool = False

    def __post_init__(self) -> None:
        self.min_workers = self.config.effective_min_workers
        self.max_workers = self.config.effective_max_workers
        self._mix = self.config.effective_gpu_mix
        self._mix_index = 0
        self._overload_streak = 0
        self._underload_streak = 0
        self._last_scale_out_s = -math.inf
        self._last_scale_in_s = -math.inf
        #: Ids of autoscaler-added workers still in the fleet (LIFO pool).
        self._added_ids: list[int] = []
        #: Brokered-mode request bookkeeping: emitted-but-unshipped asks,
        #: shipped-awaiting-grant asks, the emission sequence, denial count.
        self._pending: list[ScaleRequest] = []
        self._awaiting: dict[int, ScaleRequest] = {}
        self._request_seq = 0
        self.denied_requests = 0
        #: Pre-emission (cooldown stamp, streak) per in-flight request seq,
        #: restored on denial so a denied ask does not consume the cooldown.
        self._denial_restore: dict[int, tuple[float, int]] = {}
        #: Scale-in grants skipped at apply time (candidate failed meanwhile);
        #: the shard ships this to the coordinator so the broker ledger can
        #: be reconciled at the next barrier.
        self.unapplied_scale_ins = 0

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
        if self.brokered and (self._pending or self._awaiting):
            # A request is still in flight to the broker: neither direction
            # moves until it is answered (the brokered analogue of "never
            # shrink while growth is in flight").
            self._underload_streak = 0
            return
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
    def _next_gpu(self) -> str:
        gpu = self._mix[self._mix_index % len(self._mix)]
        self._mix_index += 1
        return gpu

    def _scale_out(
        self, now: float, demand_qpm: float, projected_qpm: float, strategy: Strategy
    ) -> bool:
        in_fleet = self.cluster.fleet_size + len(self.cluster.provisioning_workers)
        fastest = self.zoo.fastest_level(strategy)
        peak = fastest.peak_throughput_qpm
        reference_speed = self.zoo.latency_model.gpu.relative_speed
        added = 0
        # Add workers until the projected ceiling clears demand (with the
        # scale-up threshold as headroom), the step cap, or the fleet cap.
        # Brokered mode sizes the ask with the same loop (the local mix
        # cycle projects speeds) but defers provisioning to the grant.
        while (
            added < self.config.max_scale_step
            and in_fleet + added < self.max_workers
            and (added == 0 or projected_qpm * self.config.scale_up_threshold < demand_qpm)
        ):
            gpu_name = self._next_gpu()
            speed = gpu_by_name(gpu_name).relative_speed / reference_speed
            if not self.brokered:
                worker = self.cluster.provision_worker(
                    gpu=gpu_name,
                    level=fastest,
                    provision_delay_s=self.config.provision_delay_s,
                    on_ready=self._on_worker_ready,
                )
                self._added_ids.append(worker.worker_id)
            projected_qpm += peak * speed
            added += 1
        if added == 0:
            return False
        reason = f"demand {demand_qpm:.0f} QPM above fleet ceiling (saturation/backlog)"
        if self.brokered:
            seq = self._emit_request("scale_out", now, added, reason)
            self._denial_restore[seq] = (self._last_scale_out_s, self._overload_streak)
            self._overload_streak = 0
            self._last_scale_out_s = now
            return True
        self._overload_streak = 0
        self._last_scale_out_s = now
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
        if self.brokered:
            seq = self._emit_request(
                "scale_in",
                now,
                1,
                f"demand {demand_qpm:.0f} QPM fits the smaller fleet",
            )
            self._denial_restore[seq] = (self._last_scale_in_s, self._underload_streak)
            self._underload_streak = 0
            self._last_scale_in_s = now
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
    # Brokered mode (sharded runs)
    # ------------------------------------------------------------------ #
    def _emit_request(self, action: str, now: float, count: int, reason: str) -> int:
        self._request_seq += 1
        self._pending.append(
            ScaleRequest(
                seq=self._request_seq, action=action, time_s=now, count=count, reason=reason
            )
        )
        return self._request_seq

    def take_requests(self) -> tuple:
        """Pending :class:`ScaleRequest`s, in emission order, moved to the
        awaiting-grant set.  The shard calls this when building its
        epoch-boundary barrier reply."""
        requests = tuple(self._pending)
        for request in requests:
            self._awaiting[request.seq] = request
        self._pending.clear()
        return requests

    def take_unapplied_scale_ins(self) -> int:
        """Scale-in grants skipped since the last barrier (and reset).

        The shard ships this count in its next barrier reply; the
        coordinator adds it back to the broker's committed ledger, which
        otherwise runs one worker low per skipped drain."""
        count = self.unapplied_scale_ins
        self.unapplied_scale_ins = 0
        return count

    def apply_outcomes(self, now: float, outcomes) -> None:
        """Apply the broker's grants at the epoch boundary (clock == now).

        Granted scale-outs provision with the broker-assigned GPU types
        (the *global* mix cycle); granted scale-ins re-pick the LIFO drain
        candidate at apply time — if faults removed it meanwhile the grant
        is skipped rather than draining an arbitrary worker, and the skip
        is counted in :attr:`unapplied_scale_ins` so the coordinator can
        reconcile the broker ledger at the next barrier.  A denial restores
        the pre-emission cooldown stamp and streak, so a denied ask retries
        on the next eligible tick instead of waiting out a cooldown it
        never earned.
        """
        for outcome in outcomes:
            request = self._awaiting.pop(outcome.seq, None)
            if request is None:
                continue
            if outcome.granted <= 0:
                self.denied_requests += 1
                restore = self._denial_restore.pop(outcome.seq, None)
                if restore is not None:
                    if outcome.action == "scale_out":
                        self._last_scale_out_s, self._overload_streak = restore
                    else:
                        self._last_scale_in_s, self._underload_streak = restore
                continue
            self._denial_restore.pop(outcome.seq, None)
            if outcome.action == "scale_out":
                fastest = self.zoo.fastest_level(self.active_strategy())
                for gpu_name in outcome.gpus[: outcome.granted]:
                    worker = self.cluster.provision_worker(
                        gpu=gpu_name,
                        level=fastest,
                        provision_delay_s=self.config.provision_delay_s,
                        on_ready=self._on_worker_ready,
                    )
                    self._added_ids.append(worker.worker_id)
                self.events.append(
                    ScalingEvent(
                        time_s=now,
                        action="scale_out",
                        delta=outcome.granted,
                        fleet_size=self.cluster.fleet_size
                        + len(self.cluster.provisioning_workers),
                        reason=f"{request.reason} [broker grant]",
                    )
                )
            else:
                candidate = self._scale_in_candidate()
                if candidate is None or self.cluster.fleet_size <= 1:
                    self.unapplied_scale_ins += 1
                    continue
                self.cluster.drain_worker(candidate.worker_id)
                if candidate.worker_id in self._added_ids:
                    self._added_ids.remove(candidate.worker_id)
                self.events.append(
                    ScalingEvent(
                        time_s=now,
                        action="scale_in",
                        delta=-1,
                        fleet_size=self.cluster.fleet_size,
                        reason=f"{request.reason} [broker grant]",
                    )
                )
                self.allocator.recalibrate(now, self.active_strategy())

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
