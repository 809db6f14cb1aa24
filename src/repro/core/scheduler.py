"""Prompt Scheduler and Worker Selector (blocks C/D/E of Fig. 3, Eq. 3).

For each incoming prompt the scheduler asks the classifier for the prompt's
optimal approximation level, shifts it through the PASM to a level the
cluster can actually absorb, and then picks the concrete worker at that
level with the smallest expected wait (queue length x per-request latency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.classifier.trainer import TrainedPredictor
from repro.cluster.cluster import GpuCluster
from repro.cluster.worker import Worker
from repro.core.oda import ShiftMap
from repro.models.zoo import Strategy
from repro.prompts.generator import Prompt
from repro.workloads.tenants import TenantRuntime

#: Extra estimated backlog (seconds) a worker near the likely-hit cache
#: shard may carry and still win routing over a farther, emptier worker.
CACHE_AFFINITY_TOLERANCE_S = 0.5


@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of routing one prompt."""

    predicted_rank: int
    assigned_rank: int
    worker_id: int
    strategy: Strategy


class WorkerSelector:
    """Implements Eq. 3: pick the worker minimising queued work.

    A worker serves one request per GPU pass, so its backlog estimate is
    ``outstanding * level_latency_s()``: the level's latency on that
    worker's GPU, times the requests it holds.  The scheduler reads the
    plain Eq. 3 choice from the cluster's fleet index and scans candidates
    here only for a cache-affinity preference.
    The live gateway selects among its sleep-based executors here too; a
    candidate needs only ``worker_id`` and ``estimated_backlog_s()``.
    """

    @staticmethod
    def select(candidates: Sequence[Worker], prefer=None) -> Worker:
        """Worker with the smallest expected completion time for a new request.

        ``prefer`` (a ``worker_id -> bool`` predicate) marks workers placed
        near the cache shard the request is likely to hit; the cheapest
        preferred worker wins as long as its backlog is within
        :data:`CACHE_AFFINITY_TOLERANCE_S` of the global minimum.  Locality
        never overrides a real load imbalance — past the tolerance the plain
        Eq. 3 choice stands.
        """
        if not candidates:
            raise ValueError("no candidate workers")
        best = min(candidates, key=lambda w: (w.estimated_backlog_s(), w.worker_id))
        if prefer is None:
            return best
        preferred = [w for w in candidates if prefer(w.worker_id)]
        if not preferred:
            return best
        near = min(preferred, key=lambda w: (w.estimated_backlog_s(), w.worker_id))
        if near.estimated_backlog_s() <= best.estimated_backlog_s() + CACHE_AFFINITY_TOLERANCE_S:
            return near
        return best


class PromptScheduler:
    """Routes prompts to workers using the classifier and the PASM."""

    def __init__(
        self,
        cluster: GpuCluster,
        num_levels: int,
        rng: np.random.Generator | None = None,
        slo_budget_s: float | None = None,
    ) -> None:
        self.cluster = cluster
        self.num_levels = int(num_levels)
        self.rng = rng or np.random.default_rng(0)
        #: Latency budget used for tail-latency protection (§4.7): when the
        #: chosen worker's expected wait would blow the SLO, the prompt is
        #: escalated to a faster level that still has headroom.  None
        #: disables the protection.
        self.slo_budget_s = slo_budget_s
        self._predictor: TrainedPredictor | None = None
        self._shift_map: ShiftMap = ShiftMap.identity(num_levels)
        self._strategy: Strategy = Strategy.AC
        #: Per-tenant runtime table: budgets for SLO-class-aware protection
        #: and quality floors for routing.  Empty = anonymous workload.
        self._tenants: dict[str, TenantRuntime] = {}
        #: Per-tenant PASMs (the base map clamped at each tenant's floor),
        #: rebuilt by the allocator alongside every base map.
        self._tenant_shift_maps: dict[str, ShiftMap] = {}
        #: Counters for §5.7's switching-overhead analysis.
        self.shifted_requests = 0
        self.routed_requests = 0
        #: Requests served above a tenant's contracted level because no
        #: worker at an allowed level was healthy (capacity emergencies).
        self.floor_breaches = 0
        #: Shard-aware routing: ``(prompt, worker_id) -> bool`` marking
        #: workers near the cache shard likely to hit (installed when the
        #: distributed cache tier is on; None keeps routing byte-identical
        #: to the affinity-free scheduler).
        self._cache_affinity = None
        #: Routed requests that landed on a shard-preferred worker.
        self.affinity_routed = 0

    # ------------------------------------------------------------------ #
    # Configuration (updated by the Allocator / strategy switcher)
    # ------------------------------------------------------------------ #
    def set_predictor(self, predictor: TrainedPredictor | None) -> None:
        """Install the classifier for the active strategy (None = agnostic)."""
        self._predictor = predictor

    def set_shift_map(self, shift_map: ShiftMap) -> None:
        """Install a freshly computed PASM.

        Clamped per-tenant variants are derived immediately so routing never
        mixes a fresh base map with stale tenant maps.
        """
        if shift_map.num_levels != self.num_levels:
            raise ValueError("PASM level count does not match the scheduler")
        self._shift_map = shift_map
        self._tenant_shift_maps = {
            name: shift_map.clamped(runtime.max_rank)
            for name, runtime in self._tenants.items()
            if runtime.max_rank is not None
        }

    def set_tenants(self, tenants: dict[str, TenantRuntime]) -> None:
        """Install the tenant runtime table (budgets and quality floors)."""
        self._tenants = dict(tenants)
        for runtime in self._tenants.values():
            if runtime.max_rank is not None and runtime.max_rank >= self.num_levels:
                raise ValueError(
                    f"tenant {runtime.name!r}: quality_floor_rank {runtime.max_rank} "
                    f"outside the {self.num_levels}-level zoo"
                )
        # Re-derive tenant maps against the current base map.
        self.set_shift_map(self._shift_map)

    def set_cache_affinity(self, prefers) -> None:
        """Install shard-aware routing against the distributed cache tier.

        ``prefers(prompt, worker_id)`` says whether a worker sits near the
        shard the prompt's retrieval will land on; locality may cost up to
        :data:`CACHE_AFFINITY_TOLERANCE_S` of extra backlog.
        """
        self._cache_affinity = prefers

    def set_strategy(self, strategy: Strategy) -> None:
        """Record the active approximation strategy."""
        self._strategy = Strategy(strategy)

    @property
    def shift_map(self) -> ShiftMap:
        """The PASM currently in force."""
        return self._shift_map

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def predict_rank(self, prompt: Prompt) -> int:
        """Classifier prediction of the prompt's optimal level.

        Falls back to the least approximate level when no classifier is
        installed (prompt-agnostic mode).
        """
        if self._predictor is None:
            return 0
        rank = self._predictor.predict_rank(prompt)
        return int(min(max(rank, 0), self.num_levels - 1))

    def _tenant_runtime(self, prompt: Prompt) -> TenantRuntime | None:
        """The routing contract for this prompt's tenant, if one exists."""
        if not self._tenants:
            return None
        return self._tenants.get(prompt.tenant)

    def route(self, prompt: Prompt) -> RoutingDecision | None:
        """Route one prompt; returns None when no healthy worker exists."""
        predicted = self.predict_rank(prompt)
        runtime = self._tenant_runtime(prompt)
        shift_map = self._shift_map
        max_rank: int | None = None
        budget_s = self.slo_budget_s
        if runtime is not None:
            shift_map = self._tenant_shift_maps.get(runtime.name, self._shift_map)
            max_rank = runtime.max_rank
            budget_s = runtime.budget_s
        assigned = shift_map.sample_target(predicted, self.rng)
        if max_rank is not None and assigned > max_rank:
            assigned = max_rank
        prefer = None
        if self._cache_affinity is not None:
            affinity = self._cache_affinity
            prefer = lambda worker_id: affinity(prompt, worker_id)  # noqa: E731
        worker = self._find_worker(assigned, max_rank=max_rank, prefer=prefer)
        if worker is None:
            return None
        worker = self._protect_slo(worker, budget_s=budget_s, max_rank=max_rank)
        if prefer is not None and prefer(worker.worker_id):
            self.affinity_routed += 1
        self.routed_requests += 1
        if worker.level.rank != predicted:
            self.shifted_requests += 1
        if max_rank is not None and worker.level.rank > max_rank:
            self.floor_breaches += 1
        return RoutingDecision(
            predicted_rank=predicted,
            assigned_rank=worker.level.rank,
            worker_id=worker.worker_id,
            strategy=worker.strategy,
        )

    def _find_worker(
        self, target_rank: int, max_rank: int | None = None, prefer=None
    ) -> Worker | None:
        """Worker at the target rank, or the nearest rank with healthy workers.

        Nearest is measured in rank distance with preference for slower
        (lower-rank, higher-quality) levels on ties — shifting down never
        hurts quality.  ``max_rank`` restricts candidates to a tenant's
        allowed levels when any are in rotation; otherwise serving above the
        contracted level beats dropping the request outright (the breach is
        counted in ``floor_breaches``).  Within the rank, Eq. 3 picks the
        worker from the cluster's backlog index; only a cache-affinity
        preference scans that rank's members.
        """
        fleet = self.cluster.fleet_index
        ranks = fleet.members.keys()
        if not ranks:
            return None
        if max_rank is not None:
            ranks = [rank for rank in ranks if rank <= max_rank] or ranks
        if target_rank in ranks:
            rank = target_rank
        else:
            rank = min(ranks, key=lambda r: (abs(r - target_rank), r))
        if prefer is None:
            return fleet.least_backlogged(rank)
        return WorkerSelector.select(self.cluster.workers_at_level(rank), prefer=prefer)

    def _protect_slo(
        self,
        worker: Worker,
        budget_s: float | None = None,
        max_rank: int | None = None,
    ) -> Worker:
        """Escalate to a faster worker when the expected wait blows the SLO.

        Mirrors §4.7: "During tail latency conditions, Argus selects smaller
        variants to satisfy SLO constraints."  The escalation prefers the
        slowest (highest-quality) alternative that still fits the budget;
        when nothing fits, it falls back to the globally least-loaded worker.

        ``budget_s`` is the *request's own* latency budget (a tenant's SLO
        class, not the deployment default); None falls back to the global
        budget, and a fully unset budget disables the protection.
        ``max_rank`` keeps the escalation inside a tenant's allowed levels
        whenever such workers exist.
        """
        if budget_s is None:
            budget_s = self.slo_budget_s
        if budget_s is None:
            return worker
        budget = 0.85 * budget_s
        if worker.expected_wait_s() <= budget:
            return worker
        healthy = self.cluster.healthy_workers
        if not healthy:
            return worker
        if max_rank is not None:
            healthy = [w for w in healthy if w.level.rank <= max_rank] or healthy
        fitting = [w for w in healthy if w.expected_wait_s() <= budget]
        if fitting:
            # Among workers that meet the budget, keep as much quality as
            # possible (lowest rank), breaking ties by shortest wait.
            return min(fitting, key=lambda w: (w.level.rank, w.expected_wait_s(), w.worker_id))
        return min(healthy, key=lambda w: (w.expected_wait_s(), w.worker_id))

    @property
    def shift_fraction(self) -> float:
        """Fraction of routed requests that were shifted off their optimal level."""
        if self.routed_requests == 0:
            return 0.0
        return self.shifted_requests / self.routed_requests
