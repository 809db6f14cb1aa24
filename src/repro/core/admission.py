"""Weighted fair-share admission control (the multi-tenant front door).

Sits between request arrival and the Prompt Scheduler.  Each tenant owns a
token bucket whose sustained rate is its weight share of the fleet's current
throughput ceiling; a request is admitted immediately when its tenant has a
token and no backlog, and is otherwise parked in the tenant's admission
queue.  Queued requests drain by deficit round-robin — quanta proportional
to tenant weights — in two passes: a *guaranteed* pass spending each
tenant's own tokens, then a work-conserving *surplus* pass that hands
leftover aggregate capacity to whoever still has backlog.  A flash-crowd
tenant therefore queues behind its own share while quiet tenants keep
admitting at line rate; when the crowd is alone, it gets the whole fleet.

Admission delay is charged to the delayed request: its recorded arrival
time is the original offer time, so time spent in the admission queue
counts against the offending tenant's own latency SLO, not anyone else's.

Drain pumps are scheduled on a :class:`~repro.runtime.base.Runtime`: the
simulator passes a ``SimRuntime`` and the live gateway a
``WallClockRuntime``, and both run the same logic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.models.zoo import ModelZoo, Strategy
from repro.prompts.generator import Prompt
from repro.runtime.base import Runtime
from repro.workloads.tenants import TenantSpec


def hit_corrected_capacity_qps(
    ceiling_qps: float, zoo: ModelZoo, strategy: Strategy, cache
) -> float:
    """Fleet throughput in requests/second the admission rate is based on.

    ``ceiling_qps`` assumes every request serves at the fastest level's
    nominal cost — for AC that means a cache *hit* on every request.  A
    miss falls back to full generation, so real AC capacity degrades with
    the miss rate; the estimate blends the fastest and exact level
    latencies by the cache's smoothed retrieval hit rate so admission does
    not wave through a crowd the fleet cannot actually serve.
    """
    if strategy is Strategy.AC and cache is not None:
        fastest = zoo.fastest_level(strategy).latency_s
        exact = zoo.exact_level(strategy).latency_s
        hit = cache.smoothed_hit_rate
        effective = hit * fastest + (1.0 - hit) * exact
        ceiling_qps *= fastest / effective
    return ceiling_qps


@dataclass
class TenantAdmissionStats:
    """Per-tenant admission accounting."""

    offered: int = 0
    admitted_immediately: int = 0
    admitted_after_wait: int = 0
    total_wait_s: float = 0.0
    max_wait_s: float = 0.0

    @property
    def admitted(self) -> int:
        """Total requests admitted for this tenant."""
        return self.admitted_immediately + self.admitted_after_wait

    @property
    def delayed(self) -> int:
        """Requests that waited in the admission queue."""
        return self.admitted_after_wait

    @property
    def mean_wait_s(self) -> float:
        """Mean admission delay over delayed requests (0 when none)."""
        if self.admitted_after_wait == 0:
            return 0.0
        return self.total_wait_s / self.admitted_after_wait


@dataclass
class _TenantState:
    spec: TenantSpec
    tokens: float
    deficit: float = 0.0
    queue: deque = field(default_factory=deque)


class FairShareAdmission:
    """Per-tenant token buckets + deficit round-robin over admission queues."""

    #: Smallest spacing between scheduled drain pumps (guards against
    #: pathological tiny-rate schedules flooding the event heap).
    MIN_PUMP_DELAY_S = 0.01
    #: Largest spacing: even a fully token-starved backlog is re-examined
    #: this often so capacity changes (autoscaling) are picked up.
    MAX_PUMP_DELAY_S = 1.0

    def __init__(
        self,
        runtime: Runtime,
        tenants: tuple[TenantSpec, ...],
        capacity_qps: Callable[[], float],
        admit: Callable[[Prompt, float], None],
        rate_factor: float = 1.0,
        burst_s: float = 2.0,
    ) -> None:
        """Args:
        runtime: clock-agnostic scheduler for drain pumps; on a
            :class:`~repro.runtime.wall.WallClockRuntime` the same DRR logic
            gates the live gateway.
        tenants: the tenant contracts (weights drive rates and quanta).
        capacity_qps: live fleet throughput ceiling in requests/second;
            re-read on every refill so autoscaling moves admission rates.
        admit: callback ``admit(prompt, offer_time_s)`` dispatching an
            admitted request; ``offer_time_s`` is the original arrival so
            admission delay counts into the request's latency.
        rate_factor: aggregate admission rate as a multiple of capacity.
        burst_s: per-tenant bucket depth in seconds of its guaranteed rate.
        """
        if len(tenants) < 2:
            raise ValueError("fair-share admission needs at least two tenants")
        self.runtime = runtime
        self.capacity_qps = capacity_qps
        self.admit = admit
        self.rate_factor = float(rate_factor)
        self.burst_s = float(burst_s)
        total_weight = sum(spec.weight for spec in tenants)
        self._order = tuple(spec.name for spec in tenants)
        max_weight = max(spec.weight for spec in tenants)
        #: DRR quantum per round, normalised so the heaviest tenant's
        #: quantum is exactly one request.  Floored at 1/64 so extreme
        #: weight ratios cannot spin the drain loop (or, past float
        #: precision, hang it) — beyond 64:1 the round-robin *order*
        #: saturates while the token rates still honor the exact weights.
        self._quantum = {
            spec.name: max(spec.weight / max_weight, 1.0 / 64.0) for spec in tenants
        }
        self._weight_share = {spec.name: spec.weight / total_weight for spec in tenants}
        self._tenants: dict[str, _TenantState] = {
            spec.name: _TenantState(spec=spec, tokens=1.0) for spec in tenants
        }
        self._global_tokens = 1.0
        self._last_refill_s = 0.0
        self._pump_scheduled = False
        self.stats: dict[str, TenantAdmissionStats] = {
            spec.name: TenantAdmissionStats() for spec in tenants
        }

    # ------------------------------------------------------------------ #
    # Rates
    # ------------------------------------------------------------------ #
    def _global_rate_qps(self) -> float:
        return max(self.rate_factor * float(self.capacity_qps()), 1e-9)

    def _tenant_rate_qps(self, name: str, global_rate: float) -> float:
        return self._weight_share[name] * global_rate

    def _refill(self, now: float) -> None:
        dt = now - self._last_refill_s
        if dt <= 0:
            return
        self._last_refill_s = now
        global_rate = self._global_rate_qps()
        # The global bucket can be *negative*: guaranteed-share admissions
        # have reservation priority and overdraw it, which suppresses the
        # work-conserving surplus pass until the debt refills.  Quiet
        # tenants are therefore never delayed by a noisy tenant's backlog.
        self._global_tokens = min(
            self._global_tokens + dt * global_rate,
            max(self.burst_s * global_rate, 1.0),
        )
        for name, state in self._tenants.items():
            rate = self._tenant_rate_qps(name, global_rate)
            state.tokens = min(state.tokens + dt * rate, max(self.burst_s * rate, 1.0))

    # ------------------------------------------------------------------ #
    # Offer path
    # ------------------------------------------------------------------ #
    def backlog(self, tenant: str | None = None) -> int:
        """Queued (not yet admitted) requests, per tenant or in total."""
        if tenant is not None:
            return len(self._tenants[tenant].queue)
        return sum(len(state.queue) for state in self._tenants.values())

    def offer(self, now: float, prompt: Prompt) -> bool:
        """Offer one request; returns True when admitted immediately.

        Unknown tenants (e.g. hand-injected prompts) bypass fair-share: they
        have no contract to enforce, so they are admitted directly.
        """
        state = self._tenants.get(prompt.tenant)
        if state is None:
            return True
        self._refill(now)
        stats = self.stats[prompt.tenant]
        stats.offered += 1
        if not state.queue and state.tokens >= 1.0:
            state.tokens -= 1.0
            self._global_tokens -= 1.0
            stats.admitted_immediately += 1
            return True
        state.queue.append((now, prompt))
        self._schedule_pump()
        return False

    # ------------------------------------------------------------------ #
    # Drain (deficit round-robin)
    # ------------------------------------------------------------------ #
    def _admit_from(self, state: _TenantState, now: float) -> None:
        offered_at, prompt = state.queue.popleft()
        stats = self.stats[state.spec.name]
        wait = now - offered_at
        stats.admitted_after_wait += 1
        stats.total_wait_s += wait
        stats.max_wait_s = max(stats.max_wait_s, wait)
        self.admit(prompt, offered_at)

    def _drain_pass(self, now: float, can_admit, spend_tenant_tokens: bool) -> None:
        """One DRR drain pass: weight-proportional quanta, capped deficits.

        ``can_admit(state)`` is the token predicate gating each admission;
        ``spend_tenant_tokens`` says whether admissions consume the tenant's
        own bucket (guaranteed pass) or only the aggregate one (surplus).
        The pass runs rounds until no backlogged tenant satisfies the
        predicate.
        """
        tenants = self._tenants
        while any(state.queue and can_admit(state) for state in tenants.values()):
            for name in self._order:
                state = tenants[name]
                if not state.queue:
                    state.deficit = 0.0
                    continue
                # Cap carried deficit so a token-starved tenant cannot bank
                # unbounded credit while others drain (standard DRR hygiene).
                state.deficit = min(state.deficit + self._quantum[name], 2.0)
                while state.queue and state.deficit >= 1.0 and can_admit(state):
                    state.deficit -= 1.0
                    if spend_tenant_tokens:
                        state.tokens -= 1.0
                    self._global_tokens -= 1.0
                    self._admit_from(state, now)

    def _drain(self, now: float) -> None:
        # Pass 1 — guaranteed shares: spend each tenant's own tokens.
        # Reserved tokens have priority over the aggregate bucket (which
        # they may overdraw).
        self._drain_pass(now, lambda state: state.tokens >= 1.0, spend_tenant_tokens=True)
        # Pass 2 — work-conserving surplus: leftover aggregate tokens go to
        # whoever still has backlog, same weighted order.
        self._drain_pass(
            now, lambda _state: self._global_tokens >= 1.0, spend_tenant_tokens=False
        )

    def _next_pump_delay(self) -> float:
        """Time until some backlogged tenant can plausibly admit again.

        A backlogged tenant drains via its own guaranteed tokens (no global
        requirement) or via the surplus pass once the aggregate bucket
        recovers — whichever comes first.
        """
        global_rate = self._global_rate_qps()
        global_need = max(0.0, 1.0 - self._global_tokens) / global_rate
        best = None
        for name, state in self._tenants.items():
            if not state.queue:
                continue
            rate = self._tenant_rate_qps(name, global_rate)
            need = max(0.0, 1.0 - state.tokens) / max(rate, 1e-9)
            wait = min(need, global_need)
            best = wait if best is None else min(best, wait)
        if best is None:
            return self.MAX_PUMP_DELAY_S
        return min(max(best, self.MIN_PUMP_DELAY_S), self.MAX_PUMP_DELAY_S)

    def _schedule_pump(self) -> None:
        if self._pump_scheduled:
            return
        self._pump_scheduled = True
        self.runtime.schedule_in(self._next_pump_delay(), self._pump, name="admission-pump")

    def _pump(self) -> None:
        self._pump_scheduled = False
        now = self.runtime.now()
        self._refill(now)
        self._drain(now)
        if self.backlog():
            self._schedule_pump()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats_for(self, tenant: str) -> TenantAdmissionStats:
        """Admission stats for one tenant (empty stats for unknown names)."""
        return self.stats.get(tenant, TenantAdmissionStats())
