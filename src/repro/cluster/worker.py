"""An event-driven GPU worker serving one request per GPU pass.

Diffusion models are compute-bound: their batching speed-up plateaus
below 2x (Fig. 14, Observation 5), so Argus serves batch size 1.  A worker
pops the next request from its queue, prices it with
:func:`service_profile` and completes it one service time later.

The worker operates at a single approximation level set by the allocator and
pays the model-load latency when asked to switch to a different SM variant.
The GPU has room for two resident diffusion models, so loads happen in the
background while the old model keeps serving — the mechanism behind Argus's
hitless strategy switch.

Workers are heterogeneity-aware: each carries a :class:`GpuSpec` and scales
every service time by its speed relative to the zoo's reference GPU (the
Fig. 5 latency matrix applied per worker).  They also have an elastic
lifecycle: a worker may be created in the ``PROVISIONING`` state (outside
the serving rotation until its node and model warm-up are ready) and later
drained out of rotation (``DRAINING`` → ``RETIRED``) without dropping its
in-flight request.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.cache.approximate import ApproximateCache
from repro.cluster.memory import GpuMemory
from repro.cluster.queues import TenantPriorityQueue
from repro.cluster.requests import CompletedRequest, Request
from repro.models.gpus import GpuSpec, gpu_by_name
from repro.models.latency import LatencyModel
from repro.models.variants import SM_VARIANTS
from repro.models.zoo import ApproximationLevel, ModelZoo, Strategy
from repro.prompts.generator import Prompt
from repro.simulation.engine import Event, SimulationEngine

#: Added seconds of service when a cache retrieval attempt hits a network
#: outage.
FAILED_RETRIEVAL_PENALTY_S = 0.25


class WorkerState(str, Enum):
    """Lifecycle state of a worker."""

    #: Node allocated but not yet in rotation (provisioning + model warm-up).
    PROVISIONING = "provisioning"
    IDLE = "idle"
    BUSY = "busy"
    FAILED = "failed"
    #: Finishing its in-flight request, accepting no new requests.
    DRAINING = "draining"
    #: Permanently removed from the fleet (scale-in completed).
    RETIRED = "retired"


@dataclass(frozen=True, slots=True)
class ServiceProfile:
    """Per-request serving cost computed when the GPU pass starts."""

    #: Full single-request wall time (compute + overheads), jittered.
    service_time_s: float
    effective_rank: int
    retrieval_latency_s: float
    cache_hit: bool
    retrieval_failed: bool


@dataclass
class WorkerStats:
    """Aggregate counters for one worker."""

    requests_served: int = 0
    busy_time_s: float = 0.0
    model_loads: int = 0
    load_time_s: float = 0.0


def service_profile(
    zoo: ModelZoo,
    latency_model: LatencyModel,
    cache: ApproximateCache | None,
    level: ApproximationLevel,
    prompt: Prompt,
    now_s: float,
    speed_factor: float = 1.0,
    degrade_factor: float | None = None,
    jitter: float = 1.0,
) -> ServiceProfile:
    """Price one request at ``level``: the simulator's workers and the live
    gateway both serve with this.

    An SM level, an AC level that skips nothing, or a deployment without a
    cache costs the level's latency on a GPU ``speed_factor`` times the
    reference speed.  Otherwise the prompt's cache retrieval sets the
    effective skip K, and ``latency_model`` prices SD-XL resumed from step
    K (the full base pass on a miss) plus the retrieval time, and the
    outage penalty when the network failed.  A gray failure
    (``degrade_factor``) slows the GPU compute, not the network time.
    ``jitter`` scales the whole cost.
    """
    if level.strategy is Strategy.SM or level.skip_steps in (None, 0) or cache is None:
        return ServiceProfile(
            service_time_s=level.latency_s / speed_factor * jitter,
            effective_rank=level.rank,
            retrieval_latency_s=0.0,
            cache_hit=False,
            retrieval_failed=False,
        )

    outcome = cache.retrieve(prompt, level.skip_steps, now_s)
    effective_skip = outcome.effective_skip
    spec = zoo.ac_level_spec(effective_skip) if effective_skip else None
    base_variant = zoo.sm_variant(level.variant_name or "SD-XL")
    # Network time inside ``latency``, which a gray failure does not slow.
    network_s = 0.0
    if spec is None:
        latency = latency_model.variant_latency(base_variant)
        effective_rank = 0
    else:
        latency = latency_model.ac_latency(spec, base_variant, outcome.retrieval_latency_s)
        effective_rank = spec.approximation_rank
        network_s = outcome.retrieval_latency_s
    if degrade_factor is not None:
        latency = network_s + (latency - network_s) / degrade_factor
    if outcome.network_failed:
        latency += FAILED_RETRIEVAL_PENALTY_S
    return ServiceProfile(
        service_time_s=latency * jitter,
        effective_rank=effective_rank,
        retrieval_latency_s=outcome.retrieval_latency_s,
        cache_hit=outcome.hit,
        retrieval_failed=outcome.network_failed,
    )


class Worker:
    """A single GPU worker in the serving cluster."""

    def __init__(
        self,
        worker_id: int,
        engine: SimulationEngine,
        zoo: ModelZoo,
        level: ApproximationLevel,
        cache: ApproximateCache | None = None,
        on_complete: Callable[[CompletedRequest], None] | None = None,
        on_requeue: Callable[[Request], None] | None = None,
        service_jitter: float = 0.03,
        honor_request_rank: bool = False,
        blocking_load: bool = False,
        gpu: GpuSpec | str | None = None,
        provisioning: bool = False,
        queue_policy: str = "fifo",
        tenant_weights: dict[str, float] | None = None,
    ) -> None:
        self.worker_id = int(worker_id)
        self.engine = engine
        self.zoo = zoo
        self.cache = cache
        #: Reference GPU the zoo's level latencies were built for.
        self._reference_gpu: GpuSpec = zoo.latency_model.gpu
        if gpu is None:
            self.gpu = self._reference_gpu
        elif isinstance(gpu, GpuSpec):
            self.gpu = gpu
        else:
            self.gpu = gpu_by_name(gpu)
        #: Service-rate multiplier relative to the zoo's reference GPU
        #: (1.0 on a homogeneous fleet; < 1.0 for slower generations).
        self.speed_factor = self.gpu.relative_speed / self._reference_gpu.relative_speed
        #: Gray-failure state: the healthy speed to restore to, and the
        #: active degradation multiplier (``None`` while healthy).
        self._base_speed_factor = self.speed_factor
        self._degrade_factor: float | None = None
        self.memory = GpuMemory(self.gpu.memory_gib)
        self.latency_model = LatencyModel(self.gpu)
        self.on_complete = on_complete
        self.on_requeue = on_requeue
        self.service_jitter = float(service_jitter)
        #: When True (NIRVANA-style serving) an AC worker uses the per-request
        #: assigned rank as its K instead of its own operating level.
        self.honor_request_rank = bool(honor_request_rank)
        #: When True, serving pauses while a model load is in progress.
        self.blocking_load = bool(blocking_load)

        self.state = WorkerState.PROVISIONING if provisioning else WorkerState.IDLE
        self.stats = WorkerStats()
        if queue_policy not in ("fifo", "tenant-priority"):
            raise ValueError(f"unknown queue policy {queue_policy!r}")
        self.queue_policy = queue_policy
        #: FIFO keeps the plain deque (the bit-pinned default); the tenant-
        #: priority discipline swaps in weighted-DRR + per-tenant EDF behind
        #: the same append/popleft/iter surface.
        self._queue: deque[Request] | TenantPriorityQueue = (
            TenantPriorityQueue(tenant_weights)
            if queue_policy == "tenant-priority"
            else deque()
        )
        #: The request in its GPU pass, and the event that completes it.
        self._current: Request | None = None
        self._serve_event: Event | None = None
        #: Hot-path caches: the jitter stream and event name are fixed per
        #: worker, so resolving them once avoids a registry lookup and an
        #: f-string format on every GPU pass.  The stream object is the
        #: registry's own singleton, so draws are bit-identical to looking
        #: it up by name each time.
        self._jitter_rng = engine.rng(f"jitter-w{self.worker_id}")
        self._serve_event_name = f"serve-w{self.worker_id}"
        self._level = level
        self._pending_level: ApproximationLevel | None = None
        self._load_complete_time: float | None = None
        self.memory.load(level.model_name, level.memory_gib)

        #: When the node started accruing cost (provisioning counts: the
        #: cloud bills from allocation, not from the first served request).
        self.billed_from_s = engine.now
        #: When the worker entered the serving rotation (None while still
        #: provisioning).  0.0 for workers present since the start.
        self.enrolled_at_s: float | None = None if provisioning else engine.now
        #: When the worker left the fleet for good (scale-in), None while alive.
        self.retired_at_s: float | None = None
        #: Closed failure intervals (downtime) while enrolled.
        self._downtime_intervals: list[tuple[float, float]] = []
        self._failed_at_s: float | None = None
        #: Set by the cluster when the provision timer elapsed while this
        #: worker was failed; invoked on recovery to enroll it then.
        self._deferred_enroll: Callable[[], None] | None = None
        #: The owning cluster's fleet index (None for a standalone worker).
        #: Every change to rotation membership, level, speed or outstanding
        #: requests is reported to it through :meth:`_changed`.
        self._fleet = None

    def _changed(self) -> None:
        """Report a change that can move this worker's routing position.

        Called before any callback that may route, so the index is current
        whenever a router reads it.
        """
        if self._fleet is not None:
            self._fleet.update(self)

    # ------------------------------------------------------------------ #
    # Level / strategy management
    # ------------------------------------------------------------------ #
    @property
    def level(self) -> ApproximationLevel:
        """The approximation level this worker currently serves at."""
        return self._level

    @property
    def strategy(self) -> Strategy:
        """The strategy of the current level."""
        return self._level.strategy

    @property
    def is_loading(self) -> bool:
        """Whether a background model load is in progress."""
        return self._pending_level is not None

    def set_level(self, level: ApproximationLevel) -> float:
        """Ask the worker to operate at ``level``.

        Returns the switching delay in seconds: zero when the required model
        is already resident (every AC level shares the SD-XL base, and
        switching K is free), otherwise the Table-2 load latency.  The load
        happens in the background; the worker keeps serving at its old level
        until the load completes.
        """
        if self.state in (WorkerState.FAILED, WorkerState.RETIRED):
            raise RuntimeError(f"worker {self.worker_id} is {self.state.value}")
        target_model = level.model_name
        if self.memory.is_resident(target_model):
            self._level = level
            self._pending_level = None
            self._changed()
            return 0.0
        if (
            self._pending_level is not None
            and self._pending_level.model_name == target_model
        ):
            self._pending_level = level
            return max(0.0, (self._load_complete_time or self.engine.now) - self.engine.now)

        load_time = self.load_time_for_level(level)
        self._start_background_load(level, target_model, load_time)
        return load_time

    def load_time_for_level(self, level: ApproximationLevel) -> float:
        """Table-2 time to make ``level``'s model resident on this worker.

        Used both for serving-path switches and for the provisioning warm-up
        of freshly added workers, so the two can never diverge.
        """
        return level.switch_cost_s or self._load_time_for(level.model_name)

    def _load_time_for(self, model_name: str) -> float:
        for variant in SM_VARIANTS:
            if variant.name == model_name:
                return variant.load_time_s
        return SM_VARIANTS[0].load_time_s

    def _start_background_load(
        self, level: ApproximationLevel, model_name: str, load_time: float
    ) -> None:
        # Make room if both slots are occupied: evict everything that is not
        # the active model (the previous background model).
        active = self._level.model_name
        for resident in self.memory.resident_models:
            if resident not in (active, model_name) or (
                not self.memory.can_fit(level.memory_gib) and resident != active
            ):
                self.memory.unload(resident)
        if not self.memory.can_fit(level.memory_gib):
            # Last resort: drop the active model too (switch is no longer
            # hitless, but only a GPU too small for two models gets here).
            self.memory.unload(active)
        self.memory.load(model_name, level.memory_gib)
        self._pending_level = level
        self._load_complete_time = self.engine.now + load_time
        self.stats.model_loads += 1
        self.stats.load_time_s += load_time
        self.engine.schedule_in(load_time, self._finish_load, name=f"load-w{self.worker_id}")

    def _finish_load(self, _engine: SimulationEngine) -> None:
        if self._pending_level is None or self.state in (
            WorkerState.FAILED,
            WorkerState.RETIRED,
        ):
            return
        old_model = self._level.model_name
        new_level = self._pending_level
        self._level = new_level
        self._pending_level = None
        self._load_complete_time = None
        new_model = new_level.model_name
        if old_model != new_model:
            self.memory.unload(old_model)
        self._changed()
        if self.blocking_load:
            self._start_next()

    # ------------------------------------------------------------------ #
    # Queueing
    # ------------------------------------------------------------------ #
    @property
    def queue_length(self) -> int:
        """Requests waiting (not counting those in service)."""
        return len(self._queue)

    @property
    def in_service(self) -> int:
        """Requests currently in a GPU pass (0 or 1)."""
        return int(self._current is not None)

    @property
    def outstanding(self) -> int:
        """Requests queued plus in service."""
        return len(self._queue) + (self._current is not None)

    def level_latency_s(self, level: ApproximationLevel | None = None) -> float:
        """Single-request latency of ``level`` on *this worker's* GPU.

        The zoo's level latencies are calibrated for the reference GPU; a
        slower generation stretches them by its Fig. 5 relative speed.  On a
        homogeneous fleet ``speed_factor == 1.0`` and this is exactly the
        level latency.
        """
        level = level or self._level
        return level.latency_s / self.speed_factor

    def peak_qpm(self, level: ApproximationLevel | None = None) -> float:
        """Sustained QPM this worker delivers at ``level`` (Eq. 1 capacity).

        The per-worker capacity term of the heterogeneity-aware allocator:
        the level's peak on the reference GPU scaled by this worker's
        relative speed.
        """
        level = level or self._level
        return level.peak_throughput_qpm * self.speed_factor

    def expected_wait_s(self) -> float:
        """Estimated time a new arrival would wait before completing (Eq. 3)."""
        return (self.outstanding + 1) * self.level_latency_s()

    def estimated_backlog_s(self) -> float:
        """Work already queued/in service, in seconds of GPU time (Eq. 3)."""
        return self.outstanding * self.level_latency_s()

    def enqueue(self, request: Request) -> None:
        """Admit a request to this worker's queue."""
        if not self.is_active:
            raise RuntimeError(
                f"worker {self.worker_id} cannot accept requests ({self.state.value})"
            )
        self._queue.append(request)
        if self._current is None:
            self._start_next()
        self._changed()

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def _start_next(self) -> None:
        """Start the next queued request's GPU pass, if the worker can."""
        if self.state is WorkerState.FAILED or self._current is not None:
            return
        if self.blocking_load and self._pending_level is not None:
            # A naive model swap blocks the serving path until the new model
            # is resident; _finish_load resumes the queue.
            self.state = WorkerState.IDLE
            return
        if not self._queue:
            self.state = WorkerState.IDLE
            return
        request = self._current = self._queue.popleft()
        self.state = WorkerState.BUSY
        self._changed()
        start = self.engine.now
        level = self._level
        profile = self._service_profile(request)

        def complete(_engine: SimulationEngine) -> None:
            self._serve_event = None
            self._finish(request, profile, start, level)

        self._serve_event = self.engine.schedule_in(
            profile.service_time_s, complete, name=self._serve_event_name
        )

    def _service_profile(self, request: Request) -> ServiceProfile:
        """Compute the serving cost of ``request`` at this worker's level."""
        level = self._level
        if (
            self.honor_request_rank
            and level.strategy is Strategy.AC
            and 0 <= request.assigned_rank < self.zoo.num_levels(Strategy.AC)
        ):
            level = self.zoo.level(Strategy.AC, request.assigned_rank)
        jitter = max(0.8, 1.0 + float(self._jitter_rng.normal(0.0, self.service_jitter)))
        return service_profile(
            self.zoo,
            self.latency_model,
            self.cache,
            level,
            request.prompt,
            self.engine.now,
            speed_factor=self.speed_factor,
            degrade_factor=self._degrade_factor,
            jitter=jitter,
        )

    def _finish(
        self,
        request: Request,
        profile: ServiceProfile,
        start: float,
        level: ApproximationLevel,
    ) -> None:
        if self.state in (WorkerState.FAILED, WorkerState.RETIRED):
            return
        self._current = None
        self._changed()
        self.stats.requests_served += 1
        self.stats.busy_time_s += profile.service_time_s
        if self.cache is not None and level.strategy is Strategy.AC:
            self.cache.store_states(request.prompt)
        if self.on_complete is not None:
            self.on_complete(
                CompletedRequest(
                    request=request,
                    worker_id=self.worker_id,
                    start_time_s=start,
                    completion_time_s=self.engine.now,
                    effective_rank=profile.effective_rank,
                    service_time_s=profile.service_time_s,
                    retrieval_latency_s=profile.retrieval_latency_s,
                    cache_hit=profile.cache_hit,
                    retrieval_failed=profile.retrieval_failed,
                )
            )
        if self.state is WorkerState.DRAINING:
            self._retire()
            return
        self._start_next()

    # ------------------------------------------------------------------ #
    # Elastic lifecycle (provision / drain / retire)
    # ------------------------------------------------------------------ #
    @property
    def is_active(self) -> bool:
        """Whether the worker is in the serving rotation (may take requests)."""
        return self.state in (WorkerState.IDLE, WorkerState.BUSY)

    @property
    def is_provisioning(self) -> bool:
        """Whether the worker is still being provisioned / warmed up."""
        return self.state is WorkerState.PROVISIONING

    @property
    def is_retired(self) -> bool:
        """Whether the worker has left the fleet permanently."""
        return self.state is WorkerState.RETIRED

    def enter_rotation(self) -> None:
        """Promote a provisioned worker into the serving rotation."""
        if self.state is not WorkerState.PROVISIONING:
            return
        self.state = WorkerState.IDLE
        self.enrolled_at_s = self.engine.now
        self._changed()

    def begin_drain(self) -> list[Request]:
        """Leave the rotation gracefully (scale-in).

        Queued requests are handed back for re-routing immediately; the
        in-flight request (if any) finishes normally, after which the worker
        retires.  Returns the requeued requests.
        """
        if self.state in (WorkerState.RETIRED, WorkerState.FAILED):
            if self.state is WorkerState.FAILED:
                self._retire()
            return []
        orphans = list(self._queue)
        self._queue.clear()
        # Leave the rotation before handing the orphans back, as fail()
        # does: a router would otherwise send them straight back here,
        # where retirement strands them.
        if self._current is not None:
            self.state = WorkerState.DRAINING
            self._changed()
        else:
            self._retire()
        if self.on_requeue is not None:
            for request in orphans:
                self.on_requeue(request)
        return orphans

    def _retire(self) -> None:
        now = self.engine.now
        if self._failed_at_s is not None:
            self._downtime_intervals.append((self._failed_at_s, now))
            self._failed_at_s = None
        self.state = WorkerState.RETIRED
        self.retired_at_s = now
        self._pending_level = None
        if self._serve_event is not None:
            self._serve_event.cancel()
            self._serve_event = None
        self._changed()

    # ------------------------------------------------------------------ #
    # Failures
    # ------------------------------------------------------------------ #
    @property
    def is_failed(self) -> bool:
        """Whether the worker is currently failed."""
        return self.state is WorkerState.FAILED

    def fail(self) -> list[Request]:
        """Fail the worker, returning requests that need re-dispatching."""
        if self.state in (WorkerState.RETIRED, WorkerState.FAILED):
            # Double-fail must not reset _failed_at_s: that would erase the
            # downtime accumulated since the first failure.
            return []
        draining = self.state is WorkerState.DRAINING
        orphans = [] if self._current is None else [self._current]
        self._current = None
        orphans.extend(self._queue)
        self._queue.clear()
        # Cancel the in-flight GPU pass: its request is being re-routed,
        # so letting the stale completion fire after a recovery would
        # double-complete it.
        if self._serve_event is not None:
            self._serve_event.cancel()
            self._serve_event = None
        self.state = WorkerState.FAILED
        if self.enrolled_at_s is not None:
            self._failed_at_s = self.engine.now
        self._pending_level = None
        self._changed()
        if self.on_requeue is not None:
            for request in orphans:
                self.on_requeue(request)
        if draining:
            # The worker was on its way out anyway: finish the removal.
            self._retire()
        return orphans

    # ------------------------------------------------------------------ #
    # Gray failures (slow-not-dead)
    # ------------------------------------------------------------------ #
    @property
    def is_degraded(self) -> bool:
        """Whether the worker is gray-failed (serving at reduced speed)."""
        return self._degrade_factor is not None

    def degrade(self, factor: float) -> None:
        """Gray-fail the worker: it stays in rotation but serves at
        ``factor`` of its healthy speed.

        The slowdown applies to GPU passes started from now on; an in-flight
        GPU pass keeps the service time it was launched with (the gray
        failure hits the machine, not physics already in motion).  Repeated
        calls replace the factor rather than compounding it.
        """
        if not 0.0 < factor < 1.0:
            raise ValueError("degrade factor must be in (0, 1)")
        self._degrade_factor = float(factor)
        self.speed_factor = self._base_speed_factor * self._degrade_factor
        self._changed()

    def restore_speed(self) -> None:
        """End a gray failure, returning the worker to full speed."""
        if self._degrade_factor is None:
            return
        self._degrade_factor = None
        self.speed_factor = self._base_speed_factor
        self._changed()

    def recover(self, level: ApproximationLevel | None = None) -> None:
        """Bring a failed worker back, optionally at a new level."""
        if self.state is not WorkerState.FAILED:
            return
        if self._failed_at_s is not None:
            self._downtime_intervals.append((self._failed_at_s, self.engine.now))
            self._failed_at_s = None
        self.memory.clear()
        target = level or self._level
        self._level = target
        self.memory.load(target.model_name, target.memory_gib)
        if self.enrolled_at_s is None:
            # The worker failed before ever entering rotation: resume
            # provisioning.  If the provision timer already elapsed while it
            # was down, the cluster left a deferred enrollment to run now.
            self.state = WorkerState.PROVISIONING
            if self._deferred_enroll is not None:
                enroll = self._deferred_enroll
                self._deferred_enroll = None
                enroll()
            return
        self.state = WorkerState.IDLE
        self._changed()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def enrolled_healthy_s(self, until_s: float) -> float:
        """Time in [0, ``until_s``] spent enrolled and healthy.

        The utilisation denominator: enrollment starts when the worker
        enters the rotation (not at fleet start for late joiners), stops at
        retirement, and excludes failed downtime.  Downtime is kept as
        intervals so the query is correct for any ``until_s``, including
        times before a later recovery.
        """
        if self.enrolled_at_s is None:
            return 0.0
        end = until_s if self.retired_at_s is None else min(until_s, self.retired_at_s)
        span = end - self.enrolled_at_s
        if span <= 0:
            return 0.0
        down = sum(
            max(0.0, min(stop, end) - max(start, self.enrolled_at_s))
            for start, stop in self._downtime_intervals
        )
        if self._failed_at_s is not None and self._failed_at_s < end:
            down += end - self._failed_at_s
        return max(0.0, span - down)

    def billed_s(self, until_s: float) -> float:
        """Billable node time in [0, ``until_s``] (provisioning and downtime
        included: the cloud charges from allocation to release)."""
        end = until_s if self.retired_at_s is None else min(until_s, self.retired_at_s)
        return max(0.0, end - self.billed_from_s)

    def utilization(self, elapsed_s: float) -> float:
        """Fraction of its enrolled-and-healthy time this worker spent serving.

        Normalised by :meth:`enrolled_healthy_s`, not wall time: a worker
        that joined late or sat failed for part of the run is judged only on
        the time it could actually serve.  For an always-healthy worker
        present since the start this is exactly ``busy / elapsed``.
        """
        denominator = self.enrolled_healthy_s(elapsed_s)
        if denominator <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time_s / denominator)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Worker(id={self.worker_id}, level={self._level}, state={self.state.value}, "
            f"queue={self.queue_length}, in_service={self.in_service})"
        )
