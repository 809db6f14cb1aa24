"""The elastic GPU cluster: heterogeneous workers, runtime scaling, failure
injection and utilisation/cost accounting.

The cluster started life as a fixed homogeneous pool; it now supports an
elastic fleet: workers carry a per-type :class:`~repro.models.gpus.GpuSpec`
(service times scale with the Fig. 5 relative speeds, memory is the GPU's
native HBM size), new workers can be provisioned at runtime (node
provisioning delay plus model warm-up before entering rotation) and drained
out on scale-in without dropping their in-flight request.  A fleet log records
every rotation change so experiments can report fleet-size minute series,
GPU-hours and dollar cost.  With a homogeneous reference-GPU fleet and no
scaling events the behaviour is bit-for-bit the original fixed pool.
Workers report their changes to a :class:`FleetIndex`, so fleet queries and
Eq. 3 worker selection cost O(1) and O(log W) rather than a fleet scan.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Callable, Sequence

from repro.cache.approximate import ApproximateCache
from repro.cluster.requests import CompletedRequest, Request
from repro.cluster.worker import Worker
from repro.models.gpus import GpuSpec
from repro.models.zoo import ApproximationLevel, ModelZoo, Strategy
from repro.simulation.engine import SimulationEngine


@dataclass(frozen=True)
class FleetLogEntry:
    """One change to the set of workers in rotation."""

    time_s: float
    #: Workers in rotation (healthy, not provisioning/draining/retired).
    active: int
    reason: str = ""


@dataclass(frozen=True)
class FleetMinute:
    """Time-weighted fleet size over one simulated minute."""

    minute: int
    mean_workers: float

    def __add__(self, other: FleetMinute) -> FleetMinute:
        """Two fleets' same minute, side by side (shards' fleets merge so)."""
        return FleetMinute(self.minute, self.mean_workers + other.mean_workers)


_worker_id = attrgetter("worker_id")


class FleetIndex:
    """The workers in rotation, kept current by the workers themselves.

    Each worker reports every change to its rotation membership, level,
    speed or outstanding requests through :meth:`update`, so fleet queries
    read maintained state instead of scanning the fleet.  Per rank, a
    min-heap of ``(estimated_backlog_s, worker_id, version)`` entries yields
    the Eq. 3 choice in O(log W): an update supersedes a worker's previous
    entry by bumping its version, superseded entries are dropped when they
    surface and the heap is rebuilt from live entries once they outnumber
    the live ones.
    """

    #: Superseded heap entries tolerated beyond one per live member.
    _STALE_SLACK = 16

    def __init__(self) -> None:
        #: Workers in rotation, in id order (replaced, never mutated).
        self.active: tuple[Worker, ...] = ()
        #: Rank -> {worker id: worker} for ranks with workers in rotation.
        self.members: dict[int, dict[int, Worker]] = {}
        #: Requests waiting in the queues of workers in rotation.
        self.queued = 0
        self._heaps: dict[int, list[tuple[float, int, int]]] = {}
        self._workers: list[Worker] = []
        #: Per worker id: (rank, backlog) of its live heap entry, None when
        #: out of rotation; the entry's version; its counted queue length.
        self._entry: list[tuple[int, float] | None] = []
        self._version: list[int] = []
        self._queued: list[int] = []

    def add(self, worker: Worker) -> None:
        """Index a new worker; ids are dense, in creation order."""
        if worker.worker_id != len(self._workers):
            raise ValueError(f"worker {worker.worker_id} added out of id order")
        self._workers.append(worker)
        self._entry.append(None)
        self._version.append(0)
        self._queued.append(0)
        worker._fleet = self
        self.update(worker)

    def update(self, worker: Worker) -> None:
        """Bring the worker's index position in line with its state."""
        wid = worker.worker_id
        entry = self._entry[wid]
        if not worker.is_active:
            if entry is not None:
                self._entry[wid] = None
                self._version[wid] += 1
                self.queued -= self._queued[wid]
                self._queued[wid] = 0
                self._leave_rank(wid, entry[0])
                self.active = tuple(w for w in self.active if w is not worker)
            return
        queued = worker.queue_length
        self.queued += queued - self._queued[wid]
        self._queued[wid] = queued
        rank = worker.level.rank
        backlog = worker.estimated_backlog_s()
        if entry is None:
            at = bisect(self.active, wid, key=_worker_id)
            self.active = (*self.active[:at], worker, *self.active[at:])
        elif entry[0] != rank:
            self._leave_rank(wid, entry[0])
        elif entry[1] == backlog:
            return
        members = self.members.get(rank)
        if members is None:
            members = self.members[rank] = {}
            self._heaps[rank] = []
        members[wid] = worker
        version = self._version[wid] + 1
        self._version[wid] = version
        self._entry[wid] = (rank, backlog)
        heap = self._heaps[rank]
        heappush(heap, (backlog, wid, version))
        if len(heap) > 2 * len(members) + self._STALE_SLACK:
            live = self._version
            heap[:] = [item for item in heap if live[item[1]] == item[2]]
            heapify(heap)

    def _leave_rank(self, wid: int, rank: int) -> None:
        members = self.members[rank]
        del members[wid]
        if not members:
            del self.members[rank]
            del self._heaps[rank]

    def least_backlogged(self, rank: int) -> Worker:
        """The worker in rotation at ``rank`` minimising
        ``(estimated_backlog_s, worker_id)`` (Eq. 3); ``rank`` must be one
        of :attr:`members`."""
        heap = self._heaps[rank]
        version = self._version
        while version[heap[0][1]] != heap[0][2]:
            heappop(heap)
        return self._workers[heap[0][1]]


class GpuCluster:
    """An elastic pool of GPU workers sharing one simulation engine."""

    def __init__(
        self,
        engine: SimulationEngine,
        zoo: ModelZoo,
        num_workers: int = 8,
        initial_level: ApproximationLevel | None = None,
        cache: ApproximateCache | None = None,
        on_complete: Callable[[CompletedRequest], None] | None = None,
        on_requeue: Callable[[Request], None] | None = None,
        blocking_loads: bool = False,
        gpu_types: Sequence[GpuSpec | str] | None = None,
        queue_policy: str = "fifo",
        tenant_weights: dict[str, float] | None = None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("cluster needs at least one worker")
        if gpu_types is not None and len(gpu_types) != num_workers:
            raise ValueError("gpu_types must list one GPU per initial worker")
        self.engine = engine
        self.zoo = zoo
        self.cache = cache
        # Construction parameters reused verbatim for workers added later.
        self._on_complete = on_complete
        self._on_requeue = on_requeue
        self._blocking_loads = blocking_loads
        self._queue_policy = queue_policy
        self._tenant_weights = dict(tenant_weights) if tenant_weights else None
        level = initial_level or zoo.exact_level(Strategy.AC)
        self._initial_level = level
        #: The workers in rotation, indexed for O(1) fleet queries and
        #: O(log W) Eq. 3 selection.
        self.fleet_index = FleetIndex()
        self.workers: list[Worker] = []
        for i in range(num_workers):
            self._make_worker(
                level=level,
                gpu=gpu_types[i] if gpu_types is not None else None,
                provisioning=False,
            )
        #: Scale events observed (provisioned workers entering rotation /
        #: workers drained out); failures do not count as scaling.
        self.workers_added = 0
        self.workers_retired = 0
        #: Gray-failure injections applied over the run's lifetime.
        self.workers_degraded = 0
        self.fleet_log: list[FleetLogEntry] = []
        self._log_fleet("initial fleet")

    def _make_worker(
        self,
        level: ApproximationLevel,
        gpu: GpuSpec | str | None,
        provisioning: bool,
    ) -> Worker:
        """Create the next worker and add it to the fleet and its index."""
        worker = Worker(
            worker_id=len(self.workers),
            engine=self.engine,
            zoo=self.zoo,
            level=level,
            cache=self.cache,
            on_complete=self._on_complete,
            on_requeue=self._on_requeue,
            blocking_load=self._blocking_loads,
            gpu=gpu,
            provisioning=provisioning,
            queue_policy=self._queue_policy,
            tenant_weights=self._tenant_weights,
        )
        self.workers.append(worker)
        self.fleet_index.add(worker)
        return worker

    # ------------------------------------------------------------------ #
    # Topology queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.workers)

    @property
    def healthy_workers(self) -> tuple[Worker, ...]:
        """Workers currently in rotation and able to serve, in id order."""
        return self.fleet_index.active

    @property
    def provisioning_workers(self) -> list[Worker]:
        """Workers allocated but not yet in rotation."""
        return [w for w in self.workers if w.is_provisioning]

    @property
    def fleet_size(self) -> int:
        """Number of workers currently in rotation."""
        return len(self.fleet_index.active)

    def total_speed_factor(self, include_provisioning: bool = False) -> float:
        """Sum of relative GPU speeds over the active fleet (Eq. 1 units).

        On a homogeneous reference-GPU fleet this equals the worker count
        exactly, so capacity formulas written against it reproduce the old
        ``num_workers × rate`` model bit-for-bit.
        """
        total = sum(w.speed_factor for w in self.healthy_workers)
        if include_provisioning:
            total += sum(w.speed_factor for w in self.provisioning_workers)
        return total

    def fleet_ceiling_qpm(
        self, strategy: Strategy | str, include_provisioning: bool = False
    ) -> float:
        """Max sustainable QPM with every worker at the fastest level.

        Heterogeneity-aware: each worker contributes the fastest level's
        peak scaled by its GPU speed.
        """
        return self.zoo.max_cluster_throughput_qpm(
            strategy, self.total_speed_factor(include_provisioning)
        )

    def workers_at_level(self, rank: int, strategy: Strategy | str | None = None) -> list[Worker]:
        """Healthy workers serving at approximation rank ``rank``, in id order."""
        strategy = Strategy(strategy) if strategy is not None else None
        members = self.fleet_index.members.get(rank, {}).values()
        return sorted(
            (w for w in members if strategy is None or w.strategy == strategy),
            key=_worker_id,
        )

    def all_at_fastest_level(self, strategy: Strategy | str) -> bool:
        """The §6 saturation signal: every healthy worker already serves at
        the most approximate level, so quality can no longer buy throughput."""
        healthy = self.healthy_workers
        if not healthy:
            return False
        fastest_rank = self.zoo.fastest_level(strategy).rank
        return all(w.level.rank >= fastest_rank for w in healthy)

    def level_assignment(self) -> dict[int, int]:
        """Mapping worker id -> current approximation rank (healthy only)."""
        return {w.worker_id: w.level.rank for w in self.healthy_workers}

    def total_queue_length(self) -> int:
        """Total requests queued **or in service** across healthy workers.

        Includes requests in a GPU pass; for a backlog signal use
        :meth:`total_queued_requests`, which counts only waiting requests.
        """
        return sum(w.outstanding for w in self.healthy_workers)

    def total_queued_requests(self) -> int:
        """Requests waiting in queues (excluding those in a GPU pass): the
        backlog signal for control loops, which must not read a busy
        worker's in-flight request as backlog."""
        return self.fleet_index.queued

    def backlog_slack(self, per_worker: float = 1.0) -> float:
        """Queued requests the cluster holds in normal operation.

        ``per_worker`` requests may wait behind each worker's in-flight GPU
        pass; control loops treat only queue depth beyond this as backlog.
        """
        return per_worker * len(self.fleet_index.active)

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def apply_assignment(self, ranks_per_worker: dict[int, ApproximationLevel]) -> dict[int, float]:
        """Set each worker's level; returns per-worker switching delays."""
        delays = {}
        for worker in self.healthy_workers:
            if worker.worker_id in ranks_per_worker:
                delays[worker.worker_id] = worker.set_level(ranks_per_worker[worker.worker_id])
        return delays

    def dispatch(self, request: Request, worker_id: int) -> None:
        """Send a request to a specific worker.

        A routing decision can race with a failure or a scale-in drain on
        its target; when a requeue hook is configured the request is handed
        back for re-routing instead of being lost to a ``RuntimeError``.
        """
        worker = self.workers[worker_id]
        if not worker.is_active:
            if self._on_requeue is not None:
                self._on_requeue(request)
                return
            raise RuntimeError(
                f"cannot dispatch to worker {worker_id} ({worker.state.value})"
            )
        worker.enqueue(request)

    # ------------------------------------------------------------------ #
    # Elastic scaling
    # ------------------------------------------------------------------ #
    def provision_worker(
        self,
        gpu: GpuSpec | str | None = None,
        level: ApproximationLevel | None = None,
        provision_delay_s: float = 0.0,
        on_ready: Callable[[Worker], None] | None = None,
    ) -> Worker:
        """Add a worker to the fleet at runtime (scale-out).

        The worker exists immediately (and is billed from now) but stays
        outside the rotation for ``provision_delay_s`` plus the Table-2
        warm-up load of its serving model; only then does it start taking
        requests.  Returns the new worker.
        """
        if provision_delay_s < 0:
            raise ValueError("provision_delay_s must be non-negative")
        level = level or self._initial_level
        worker = self._make_worker(level=level, gpu=gpu, provisioning=True)
        warmup_s = worker.load_time_for_level(level)

        def enroll() -> None:
            worker.enter_rotation()
            self.workers_added += 1
            self._log_fleet(f"worker {worker.worker_id} ({worker.gpu.name}) joined")
            if on_ready is not None:
                on_ready(worker)

        def ready(_engine: SimulationEngine) -> None:
            if worker.is_provisioning:
                enroll()
            elif worker.is_failed and worker.enrolled_at_s is None:
                # Failed during provisioning: enroll when it recovers.
                worker._deferred_enroll = enroll

        self.engine.schedule_in(
            provision_delay_s + warmup_s, ready, name=f"provision-w{worker.worker_id}"
        )
        return worker

    def drain_worker(self, worker_id: int) -> list[Request]:
        """Remove a worker from rotation gracefully (scale-in).

        The worker stops taking new requests immediately; queued requests
        are requeued for re-routing and the in-flight request completes before
        the worker retires.  Returns the requeued requests.
        """
        worker = self.workers[worker_id]
        was_active = worker.is_active
        # Only workers that actually joined the rotation count as retired
        # (once): cancelling a still-provisioning scale-out is not a
        # scale-in, and draining/failed-never-enrolled workers were already
        # out of rotation.
        counts_as_retired = was_active or (
            worker.is_failed and worker.enrolled_at_s is not None
        )
        orphans = worker.begin_drain()
        if counts_as_retired:
            self.workers_retired += 1
        if was_active:
            self._log_fleet(f"worker {worker_id} drained")
        return orphans

    # ------------------------------------------------------------------ #
    # Failure injection
    # ------------------------------------------------------------------ #
    def fail_worker(self, worker_id: int) -> list[Request]:
        """Fail a worker immediately, returning orphaned requests."""
        orphans = self.workers[worker_id].fail()
        self._log_fleet(f"worker {worker_id} failed")
        return orphans

    def recover_worker(self, worker_id: int, level: ApproximationLevel | None = None) -> None:
        """Recover a failed worker."""
        self.workers[worker_id].recover(level)
        self._log_fleet(f"worker {worker_id} recovered")

    def schedule_failure(
        self, worker_id: int, fail_at_s: float, recover_at_s: float | None = None
    ) -> None:
        """Schedule a failure (and optional recovery) on the engine."""
        self.engine.schedule_at(
            fail_at_s, lambda _e: self.fail_worker(worker_id), name=f"fail-w{worker_id}"
        )
        if recover_at_s is not None:
            if recover_at_s <= fail_at_s:
                raise ValueError("recovery must happen after the failure")
            self.engine.schedule_at(
                recover_at_s,
                lambda _e: self.recover_worker(worker_id),
                name=f"recover-w{worker_id}",
            )

    def degrade_worker(self, worker_id: int, factor: float) -> None:
        """Gray-fail a worker: in rotation, at ``factor`` of its speed."""
        self.workers[worker_id].degrade(factor)
        self.workers_degraded += 1
        self._log_fleet(f"worker {worker_id} degraded to {factor:g}x")

    def restore_worker(self, worker_id: int) -> None:
        """End a worker's gray failure, restoring full speed."""
        self.workers[worker_id].restore_speed()
        self._log_fleet(f"worker {worker_id} restored to full speed")

    def schedule_degradation(
        self,
        worker_id: int,
        factor: float,
        degrade_at_s: float,
        restore_at_s: float | None = None,
    ) -> None:
        """Schedule a gray failure (and optional restore) on the engine."""
        if not 0.0 < factor < 1.0:
            raise ValueError("degrade factor must be in (0, 1)")
        self.engine.schedule_at(
            degrade_at_s,
            lambda _e: self.degrade_worker(worker_id, factor),
            name=f"degrade-w{worker_id}",
        )
        if restore_at_s is not None:
            if restore_at_s <= degrade_at_s:
                raise ValueError("restore must happen after the degradation")
            self.engine.schedule_at(
                restore_at_s,
                lambda _e: self.restore_worker(worker_id),
                name=f"restore-w{worker_id}",
            )

    # ------------------------------------------------------------------ #
    # Fleet accounting
    # ------------------------------------------------------------------ #
    def _log_fleet(self, reason: str) -> None:
        self.fleet_log.append(
            FleetLogEntry(time_s=self.engine.now, active=self.fleet_size, reason=reason)
        )

    def fleet_minute_series(self, duration_minutes: int) -> list[FleetMinute]:
        """Time-weighted fleet size per minute."""
        series: list[FleetMinute] = []
        log = self.fleet_log
        if not log or duration_minutes <= 0:
            return series
        index = 0
        for minute in range(int(duration_minutes)):
            start, end = minute * 60.0, (minute + 1) * 60.0
            # Advance to the last entry at or before the minute start.
            while index + 1 < len(log) and log[index + 1].time_s <= start:
                index += 1
            total = 0.0
            cursor, i = start, index
            while cursor < end:
                entry = log[i]
                next_change = (
                    log[i + 1].time_s if i + 1 < len(log) and log[i + 1].time_s < end else end
                )
                span = max(0.0, next_change - cursor)
                total += entry.active * span
                cursor = next_change
                if i + 1 < len(log) and log[i + 1].time_s <= next_change:
                    i += 1
            series.append(FleetMinute(minute=minute, mean_workers=total / 60.0))
        return series

    def fleet_stats(self, until_s: float) -> tuple[int, float]:
        """(peak, time-weighted mean) workers in rotation over [0, until_s]."""
        log = self.fleet_log
        if not log or until_s <= 0:
            return 0, 0.0
        peak = 0
        weighted = 0.0
        for i, entry in enumerate(log):
            if entry.time_s >= until_s:
                break
            end = log[i + 1].time_s if i + 1 < len(log) else until_s
            end = min(end, until_s)
            if end > entry.time_s:
                weighted += entry.active * (end - entry.time_s)
            peak = max(peak, entry.active)
        return peak, weighted / until_s

    def gpu_hours(self, until_s: float) -> float:
        """Billable GPU-hours across the fleet up to ``until_s``."""
        return sum(w.billed_s(until_s) for w in self.workers) / 3600.0

    def total_cost_usd(self, until_s: float) -> float:
        """Dollar cost of the fleet up to ``until_s`` (per-GPU list prices)."""
        return sum(
            w.billed_s(until_s) / 3600.0 * w.gpu.hourly_cost_usd for w in self.workers
        )

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def utilization(self, elapsed_s: float | None = None) -> float:
        """Mean busy fraction across workers, each normalised by its own
        enrolled-and-healthy time (late joiners and failure downtime do not
        dilute the figure)."""
        elapsed = elapsed_s if elapsed_s is not None else self.engine.now
        if elapsed <= 0 or not self.workers:
            return 0.0
        enrolled = [w for w in self.workers if w.enrolled_healthy_s(elapsed) > 0]
        if not enrolled:
            return 0.0
        return sum(w.utilization(elapsed) for w in enrolled) / len(enrolled)

    def total_requests_served(self) -> int:
        """Requests completed across all workers."""
        return sum(w.stats.requests_served for w in self.workers)

    def total_model_loads(self) -> int:
        """Model load operations performed across all workers."""
        return sum(w.stats.model_loads for w in self.workers)
