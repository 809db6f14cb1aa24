"""Sharded parallel execution of scenario runs.

A sharded run partitions one scenario across N shard processes.  Each shard
owns a slice of the arrival stream and a partition of the fleet and runs its
own :class:`~repro.simulation.engine.SimulationEngine` event loop over its
slice.  No request ever crosses a shard boundary, so an N-shard run
simulates N isolated sub-fleets, not the sequential fleet faster: its
latency and SLO figures diverge from the sequential run's.

Partitioning
    *Tenant mode* (two or more tenants): tenants are greedy-bin-packed onto
    shards by offered load, and each shard serves only its tenant set.
    Every tenant lives wholly on one shard, so per-tenant SLO accounting,
    admission fair-share and cache namespaces stay exact.

    *Hash mode* (single-tenant workloads): requests are partitioned by a
    stable hash of the prompt content, so a given prompt always lands on the
    same shard and its cache locality survives the split.

    In both modes the union of the shard slices is exactly the sequential
    arrival sequence.

Protocol
    The coordinator and the shards share no objects; the pipes between them
    carry pickled records.  A *run-window* (:class:`_RunWindow`) makes every
    shard run its loop up to the window end and answer with a *barrier
    reply* (:class:`_BarrierReply`): the window's arrival and completion
    counts, the shard's fleet counts and, at an autoscale epoch, its pending
    scale requests.  At an epoch the coordinator then sends each shard the
    budget broker's *grants* (a tuple of
    :class:`~repro.core.autoscaler.ScaleOutcome`), applied at exactly the
    epoch time.  *Finalize* (``None``) ends the run: each shard answers with
    its :class:`_ShardResult`.

    Barriers sit only where the broker needs them: an autoscaled run
    barriers on the ``autoscale_epoch_s`` grid and at its end; a fixed-fleet
    run has nothing to exchange mid-run and barriers once, at its end.

Control plane
    Autoscaled sharded runs put a budget broker on the coordinator: each
    shard runs its own :class:`~repro.core.autoscaler.Autoscaler` over its
    fleet partition in *brokered* mode, and the broker grants the shipped
    requests in (shard id, request seq) order against the global
    ``min_workers``/``max_workers``/``gpu_mix`` budget — a pure function of
    the simulated runs, never of process timing.

Merging
    Each shard's :class:`_ShardResult` carries its collector's columnar
    snapshot.  The coordinator absorbs the snapshots (in shard order —
    deterministic) into one measurement-only
    :class:`~repro.metrics.collector.MetricsCollector` and calls the *same*
    ``summarize()`` / ``minute_series()`` paths as a sequential run, so the
    merged report uses identical summary math.

``shards=1`` never enters this module's process machinery: it routes back
to the plain sequential :func:`~repro.scenarios.runtime.run_scenario`,
which is what pins bit-identity between the two modes.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.autoscaler import ScaleOutcome, ScaleRequest
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import TenantSummary, summarize, tenant_breakdown
from repro.workloads.tenants import resolve_shares


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of the run: its fleet share and its stream filter."""

    shard_id: int
    num_shards: int
    #: Workers in this shard's fleet partition (>= 1).
    num_workers: int
    #: Tenants this shard serves, or None for hash-of-prompt partitioning.
    tenant_names: tuple[str, ...] | None = None

    def accepts(self, prompt) -> bool:
        """Whether a prompt belongs to this shard's stream slice."""
        if self.tenant_names is not None:
            return prompt.tenant in self.tenant_names
        return prompt.content_hash() % self.num_shards == self.shard_id


@dataclass(frozen=True)
class ShardPlan:
    """The full partition: one :class:`ShardSpec` per shard process."""

    mode: str  # "tenant" or "hash"
    shards: tuple[ShardSpec, ...]


def _split_workers(total: int, weights: list[float]) -> list[int]:
    """Largest-remainder proportional split with a floor of 1 worker/shard."""
    n = len(weights)
    if total < n:
        raise ValueError(f"cannot split {total} workers across {n} shards")
    if sum(weights) <= 0:
        weights = [1.0] * n
    weight_sum = sum(weights)
    counts = [1] * n
    remaining = total - n
    raw = [remaining * w / weight_sum for w in weights]
    floors = [int(r) for r in raw]
    for i in range(n):
        counts[i] += floors[i]
    leftover = remaining - sum(floors)
    order = sorted(range(n), key=lambda i: (-(raw[i] - floors[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def plan_shards(config, trace=None) -> ShardPlan:
    """Partition a config's workload and fleet into ``config.shards`` slices.

    Multi-tenant deployments partition by tenant (greedy bin-pack by offered
    load, heaviest first, onto the lightest shard); single-tenant workloads
    fall back to hashing the prompt content.  Workers are split across
    shards by largest-remainder proportional to each shard's load, with at
    least one worker per shard.  ``trace`` sharpens the tenant load estimate
    with each tenant's ``extra_qpm`` series; without it the bin-pack uses
    base-trace shares alone.
    """
    n = int(config.shards)
    if len(config.tenants) >= 2:
        if n > len(config.tenants):
            raise ValueError(
                f"shards={n} exceeds the {len(config.tenants)} tenants: tenant "
                "partitioning places whole tenants on shards, so a run cannot "
                "use more shards than it has tenants"
            )
        shares = resolve_shares(config.tenants)
        base_total = float(sum(trace.qpm)) if trace is not None else 1.0
        loads = {
            spec.name: shares[spec.name] * (base_total if trace is not None else 1.0)
            + (sum(spec.extra_qpm) if trace is not None else 0.0)
            for spec in config.tenants
        }
        bins: list[list[str]] = [[] for _ in range(n)]
        bin_loads = [0.0] * n
        heaviest_first = sorted(config.tenants, key=lambda t: (-loads[t.name], t.name))
        for spec in heaviest_first:
            target = min(range(n), key=lambda i: (bin_loads[i], i))
            bins[target].append(spec.name)
            bin_loads[target] += loads[spec.name]
        # Keep each shard's tenant list in the config's tenant order so the
        # shard config's tenant tuple is a stable subsequence of the full one.
        config_order = {spec.name: i for i, spec in enumerate(config.tenants)}
        worker_counts = _split_workers(config.num_workers, bin_loads)
        specs = tuple(
            ShardSpec(
                shard_id=i,
                num_shards=n,
                num_workers=worker_counts[i],
                tenant_names=tuple(sorted(bins[i], key=config_order.__getitem__)),
            )
            for i in range(n)
        )
        return ShardPlan(mode="tenant", shards=specs)
    worker_counts = _split_workers(config.num_workers, [1.0] * n)
    specs = tuple(
        ShardSpec(shard_id=i, num_shards=n, num_workers=worker_counts[i])
        for i in range(n)
    )
    return ShardPlan(mode="hash", shards=specs)


# --------------------------------------------------------------------------- #
# Protocol records
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _RunWindow:
    """Coordinator -> shard: run the event loop up to ``end_s``, then reply."""

    end_s: float
    #: True on the ``autoscale_epoch_s`` grid: the reply carries the shard's
    #: pending scale requests, and the broker's grants follow it.
    epoch: bool


@dataclass(frozen=True)
class _BarrierReply:
    """Shard -> coordinator at a window end: what the barrier log records."""

    shard_id: int
    #: Arrivals and completions during the window just run.
    arrivals: int
    completions: int
    #: Workers in rotation, provisioning, and failed at the window end.
    #: Failed workers are still owned by the shard (they may recover), so
    #: the broker ledger keeps counting them.
    active_workers: int
    provisioning_workers: int
    failed_workers: int
    #: Pending autoscaler asks, shipped only at epoch windows.
    scale_requests: tuple[ScaleRequest, ...] = ()
    #: Scale-in grants the shard skipped at apply time since the last
    #: barrier (drain candidate failed meanwhile); the coordinator adds the
    #: count back to the broker's committed ledger.
    unapplied_scale_ins: int = 0


@dataclass(frozen=True)
class _ShardResult:
    """Shard -> coordinator at finalize: everything the merge reads.

    ``collector_state`` is a
    :meth:`~repro.metrics.collector.MetricsCollector.export_state` snapshot;
    the scalar fields mirror the inputs of
    :func:`repro.metrics.report.summarize` so the coordinator can build the
    merged :class:`~repro.metrics.report.RunSummary` with the exact
    sequential summary math.
    """

    shard_id: int
    system_name: str
    num_workers: int
    collector_state: dict
    requests_served: int
    model_loads: int
    utilization: float
    fleet_peak_workers: int
    fleet_mean_workers: float
    workers_added: int
    workers_retired: int
    gpu_hours: float
    cost_usd: float
    #: Requests still queued or in flight when the run (drain included) ended.
    outstanding_requests: int
    #: The shard's :class:`~repro.cluster.cluster.FleetMinute` series.
    fleet_minutes: list
    #: Shard-local observations (cache counters, switches, retraining, ...).
    extras: dict
    #: Per-tenant observations keyed by tenant name (tenant-partitioned runs).
    tenant_extras: dict


# --------------------------------------------------------------------------- #
# Shard process
# --------------------------------------------------------------------------- #


def _build_shard_system(payload: dict):
    """Build one shard's serving system and schedule its arrival slice."""
    # Imports are deferred so a spawn-context child only pays them once.
    from repro.experiments.runner import build_system
    from repro.scenarios.runtime import _apply_schedules, build_config, build_stream
    from repro.scenarios.spec import Scenario

    scenario = Scenario.from_dict(payload["scenario"])
    preset_spec = scenario.preset(payload["preset"])
    seed = int(payload["seed"])
    spec = ShardSpec(
        shard_id=int(payload["shard_id"]),
        num_shards=int(payload["num_shards"]),
        num_workers=int(payload["num_workers"]),
        tenant_names=(
            tuple(payload["tenant_names"]) if payload["tenant_names"] is not None else None
        ),
    )
    # The *full* config (and stream) use the scenario's own fleet/tenant
    # settings, so seeds and arrival interleaves match the sequential run;
    # the shard's own system gets the fleet slice and its tenant subset.
    full_config = build_config(scenario, preset_spec, seed)
    trace = scenario.trace.build(seed=seed, **preset_spec.trace_params)
    stream = build_stream(scenario, preset_spec, full_config, trace, seed)

    extra: dict = {"num_workers": spec.num_workers, "shards": 1}
    if spec.tenant_names is not None:
        extra["tenants"] = tuple(
            t for t in full_config.tenants if t.name in set(spec.tenant_names)
        )
    if full_config.autoscale_enabled:
        # The shard autoscaler sizes asks over its partition with the full
        # global headroom; the coordinator's budget broker is what enforces
        # the global min/max, so the local bounds must not pre-clamp them.
        extra["min_workers"] = 1
        extra["max_workers"] = full_config.effective_max_workers
    shard_config = build_config(scenario, preset_spec, seed, extra=extra)
    serving = build_system(payload["system"] or scenario.system, config=shard_config)
    autoscaler = getattr(serving, "autoscaler", None)
    if autoscaler is not None:
        autoscaler.brokered = True
    # Network windows and cache events are global timelines, replicated
    # identically on every shard.  Fault schedules arrive pre-mapped to
    # shard-local worker ids (the coordinator splits each fleet-fraction
    # event across the partitions); worker-id faults are rejected
    # coordinator-side.
    _apply_schedules(serving, scenario, preset_spec, faults=False)
    for local_id, fail_at_s, recover_at_s, degrade_factor in payload["faults"]:
        if degrade_factor is not None:
            serving.cluster.schedule_degradation(
                int(local_id),
                float(degrade_factor),
                degrade_at_s=float(fail_at_s),
                restore_at_s=None if recover_at_s is None else float(recover_at_s),
            )
        else:
            serving.cluster.schedule_failure(
                int(local_id),
                fail_at_s=float(fail_at_s),
                recover_at_s=None if recover_at_s is None else float(recover_at_s),
            )

    arrivals = payload["arrivals"]
    if arrivals is None:
        # No coordinator-side split (e.g. phased streams): filter shard-side.
        serving.schedule_arrivals(tp for tp in stream if spec.accepts(tp.prompt))
    elif arrivals["kind"] == "replay":
        serving.schedule_arrivals(
            _replay_arrivals(stream, (arrivals["times"], arrivals["slots"]))
        )
    else:
        serving.schedule_arrivals(_tenant_sliced_stream(stream, arrivals["indices"]))
    return serving, spec, trace


def _replay_arrivals(stream, arrivals):
    """Yield a coordinator-partitioned arrival slice as timed prompts.

    ``arrivals`` is the ``(times, slots)`` pair produced by
    :func:`_partition_arrivals`; the floats are the exact sequential arrival
    times, so the yielded sequence is bit-identical to filtering the full
    stream shard-side — without this shard paying the full-stream walk.
    """
    from repro.workloads.replay import TimedPrompt

    times, slots = arrivals
    dataset = stream.dataset

    def iterate():
        for arrival, slot in zip(times.tolist(), slots.tolist()):
            yield TimedPrompt(arrival_time_s=arrival, prompt=dataset[slot])

    return iterate()


def _tenant_sliced_stream(stream, indices):
    """Heap-merge only this shard's tenants' per-tenant arrival streams.

    The full multi-tenant stream is a ``heapq.merge`` of every tenant's
    ``(arrival, tenant_index, sequence)``-keyed lazy stream; merging just
    this shard's subset yields the identical sorted subsequence (per-tenant
    seeds and cursors are untouched), so the slice is bit-identical to
    filtering the full interleave — without paying the O(full-stream) walk
    per shard that made tenant mode the slowest partitioning path.
    """
    import heapq

    from repro.workloads.replay import TimedPrompt

    def iterate():
        streams = [stream._iter_tenant(index) for index in indices]
        for arrival, _index, _sequence, prompt in heapq.merge(*streams):
            yield TimedPrompt(arrival_time_s=arrival, prompt=prompt)

    return iterate()


def _partition_arrivals(stream, plan: ShardPlan):
    """Split the full arrival sequence into per-shard slices, one pass.

    Returns one descriptor per shard, or None when no coordinator-side
    split applies (phased/drift streams, or a slot matching no shard) —
    those fall back to shard-side filtering of the full stream.

    ``{"kind": "replay", "times": ..., "slots": ...}``
        Plain cyclic streams: the prompt at arrival ``i`` is
        ``dataset[i % len(dataset)]`` and shard membership is a pure
        function of the dataset slot, so the coordinator assigns every
        arrival in a single vectorized pass.  Without this, each of the N
        shard processes walks all ~n arrivals to keep its 1/N slice; on one
        core those N walks serialize into the dominant fixed overhead of a
        sharded run (~60% of the non-fleet per-request cost at N=8).

    ``{"kind": "tenant_indices", "indices": [...]}``
        Tenant mode: arrival times are lazy per-tenant Poisson draws, so
        there is no precomputed sequence to slice — instead each shard
        heap-merges only its own tenants' streams
        (:func:`_tenant_sliced_stream`), which removes the same
        O(shards × full-stream) redundancy on the tenant path.
    """
    from repro.workloads.arrival import ArrivalProcess
    from repro.workloads.replay import RequestStream
    from repro.workloads.tenants import MultiTenantRequestStream

    if isinstance(stream, MultiTenantRequestStream):
        if plan.mode != "tenant":
            return None
        index_of = {spec.name: i for i, spec in enumerate(stream.tenants)}
        return [
            {
                "kind": "tenant_indices",
                "indices": [index_of[name] for name in shard.tenant_names],
            }
            for shard in plan.shards
        ]
    if type(stream) is not RequestStream:
        return None
    dataset = stream.dataset
    size = len(dataset)
    shard_of_slot = np.empty(size, dtype=np.int64)
    for slot in range(size):
        prompt = dataset[slot]
        for spec in plan.shards:
            if spec.accepts(prompt):
                shard_of_slot[slot] = spec.shard_id
                break
        else:
            return None
    process = ArrivalProcess(seed=stream.seed)
    times = np.fromiter(
        process.iter_arrivals(stream.trace, stream.arrival_kind), dtype=np.float64
    )
    slots = np.arange(len(times), dtype=np.int64) % size
    owners = shard_of_slot[slots]
    return [
        {
            "kind": "replay",
            "times": times[owners == spec.shard_id],
            "slots": slots[owners == spec.shard_id],
        }
        for spec in plan.shards
    ]


def _shard_main(payload: dict, conn) -> None:
    """Shard process entry point: the barrier loop over the connection.

    A :class:`_RunWindow` advances the shard to the window end and is
    answered with a :class:`_BarrierReply`; a grants tuple (sent after an
    epoch reply) is applied at exactly the epoch time, where the clock sits;
    ``None`` is answered with the shard's :class:`_ShardResult` and ends the
    loop.
    """
    serving, spec, trace = _build_shard_system(payload)
    serving.start()
    collector = serving.collector
    cluster = serving.cluster
    autoscaler = getattr(serving, "autoscaler", None)
    last_arrivals = last_completions = 0
    window_end_s = 0.0
    try:
        while True:
            message = conn.recv()
            if message is None:
                conn.send(_finalize(serving, spec, trace))
                return
            if isinstance(message, _RunWindow):
                window_end_s = message.end_s
                serving.engine.run(until=window_end_s)
                # The reply counts the collector's completions.
                serving.settle()
                scale_requests: tuple = ()
                unapplied_scale_ins = 0
                if autoscaler is not None:
                    if message.epoch:
                        scale_requests = autoscaler.take_requests()
                    # Shipped every barrier (not just epochs) so the broker
                    # ledger reconciles at the first opportunity after a
                    # skipped drain.
                    unapplied_scale_ins = autoscaler.take_unapplied_scale_ins()
                arrivals = collector.total_arrivals
                completions = collector.total_completions
                conn.send(
                    _BarrierReply(
                        shard_id=spec.shard_id,
                        arrivals=arrivals - last_arrivals,
                        completions=completions - last_completions,
                        active_workers=cluster.fleet_size,
                        provisioning_workers=len(cluster.provisioning_workers),
                        failed_workers=sum(1 for w in cluster.workers if w.is_failed),
                        scale_requests=scale_requests,
                        unapplied_scale_ins=unapplied_scale_ins,
                    )
                )
                last_arrivals, last_completions = arrivals, completions
            elif autoscaler is not None:
                # The broker's grants for the epoch window just reached.
                autoscaler.apply_outcomes(window_end_s, message)
    finally:
        conn.close()


def _finalize(serving, spec: ShardSpec, trace) -> _ShardResult:
    """Assemble the shard's closing :class:`_ShardResult`."""
    serving.settle()
    duration_s = trace.duration_minutes * 60.0
    cluster = serving.cluster
    fleet_peak, fleet_mean = cluster.fleet_stats(duration_s)
    admission = getattr(serving, "admission", None)
    extras: dict = {
        "arrivals": serving.collector.total_arrivals,
        "strategy_switches": (
            serving.num_strategy_switches()
            if hasattr(serving, "num_strategy_switches")
            else None
        ),
        "retraining_events": getattr(serving, "retraining_events", None),
        "drift_events": (
            serving.drift_events() if hasattr(serving, "drift_events") else None
        ),
        # Conservation inputs for the contract layer: every worker's
        # outstanding work (draining/failed included — total_queue_length()
        # counts only healthy workers) plus the shard's admission backlog.
        "outstanding_workers": sum(w.outstanding for w in cluster.workers),
        "admission_backlog": admission.backlog() if admission is not None else 0,
    }
    autoscaler = getattr(serving, "autoscaler", None)
    if autoscaler is not None:
        extras["autoscale_events"] = [asdict(event) for event in autoscaler.events]
        extras["scale_denials"] = int(autoscaler.denied_requests)
    if serving.cache is not None:
        # store_counts() folds every namespace (flat cache) or every cache
        # node (distributed tier) into one hit/miss pair.
        hits, misses = serving.cache.store_counts()
        extras["cache_store_hits"] = int(hits)
        extras["cache_store_misses"] = int(misses)
        extras["retrieval_hits"] = int(serving.cache.retrieval_hits)
        extras["retrieval_attempts"] = int(serving.cache.retrieval_attempts)
    tenant_extras: dict = {}
    if serving.config.tenants:
        for row in tenant_breakdown(
            serving.collector, serving.tenant_runtimes, serving.cache, serving.admission
        ):
            tenant_extras[row.name] = {"summary": row}
        if serving.admission is not None:
            for name, stats in serving.admission.stats.items():
                tenant_extras.setdefault(name, {})["admission"] = {
                    "offered": stats.offered,
                    "delayed": stats.delayed,
                    "mean_wait_s": stats.mean_wait_s,
                    "max_wait_s": stats.max_wait_s,
                }
        if serving.cache is not None:
            # Per-shard quota accounting: each shard's cache enforces the
            # tenant quota independently, so the merged cache-quota contract
            # checks every shard's entry count against the quota.
            block = serving.cache.report_extras(serving.config.tenants)
            for name, row in block["cache_tenants"].items():
                tenant_extras.setdefault(name, {})["cache"] = row
    return _ShardResult(
        shard_id=spec.shard_id,
        system_name=serving.name,
        num_workers=spec.num_workers,
        collector_state=serving.collector.export_state(),
        requests_served=cluster.total_requests_served(),
        model_loads=cluster.total_model_loads(),
        utilization=cluster.utilization(duration_s),
        fleet_peak_workers=fleet_peak,
        fleet_mean_workers=fleet_mean,
        workers_added=cluster.workers_added,
        workers_retired=cluster.workers_retired,
        gpu_hours=cluster.gpu_hours(duration_s),
        cost_usd=cluster.total_cost_usd(duration_s),
        outstanding_requests=cluster.total_queue_length(),
        fleet_minutes=cluster.fleet_minute_series(trace.duration_minutes),
        extras=extras,
        tenant_extras=tenant_extras,
    )


# --------------------------------------------------------------------------- #
# Coordinator
# --------------------------------------------------------------------------- #


def _window_boundaries(total_s: float, epoch_s: float | None) -> list[tuple[float, bool]]:
    """Barrier times covering (0, total_s], ending exactly at ``total_s``.

    Returns ``(time, epoch)`` pairs.  A fixed-fleet run (``epoch_s`` None)
    has one barrier, at its end.  An autoscaled run barriers on the
    ``autoscale_epoch_s`` grid and at its end; the flag marks the grid
    points, the only places scale requests and grants cross.  Grid points
    are exact multiples, not accumulated sums.
    """
    if epoch_s is None:
        return [(total_s, False)]
    tol = 1e-6
    boundaries: list[tuple[float, bool]] = []
    k = 1
    while k * epoch_s < total_s - tol:
        boundaries.append((k * epoch_s, True))
        k += 1
    boundaries.append((total_s, abs(total_s - round(total_s / epoch_s) * epoch_s) <= tol))
    return boundaries


class _BudgetBroker:
    """Coordinator-side grant authority for brokered per-shard autoscaling.

    Keeps a committed-workers ledger per shard (seeded with the plan's
    initial partitions) and answers the shards'
    :class:`~repro.core.autoscaler.ScaleRequest`s against the *global*
    budget: scale-outs are
    clamped to the ``max_workers`` headroom and draw GPU types from the
    global ``gpu_mix`` cycle (so the fleet mix matches a sequential
    deployment); scale-ins are granted only while the global fleet stays at
    or above ``min_workers`` and the shard keeps at least one worker.
    Requests are processed in (shard id, seq) order — a pure function of
    the simulated runs, never of process timing — which is what makes
    autoscaled N-shard runs reproducible.
    """

    def __init__(self, config, plan: ShardPlan) -> None:
        self.min_workers = int(config.effective_min_workers)
        self.max_workers = int(config.effective_max_workers)
        self._mix = tuple(config.effective_gpu_mix)
        self._mix_index = 0
        self.committed: dict[int, int] = {
            spec.shard_id: spec.num_workers for spec in plan.shards
        }
        self.grant_log: list[dict] = []

    @property
    def total_committed(self) -> int:
        return sum(self.committed.values())

    def _next_gpu(self) -> str:
        gpu = self._mix[self._mix_index % len(self._mix)]
        self._mix_index += 1
        return gpu

    def grant(self, window_end_s: float, replies) -> dict[int, tuple[ScaleOutcome, ...]]:
        """Decide every shard's asks for one epoch boundary.

        Returns a grants tuple per shard — for *all* shards, empty or not,
        so the reply fan-out stays lockstep with the barrier.
        """
        outcomes: dict[int, list] = {reply.shard_id: [] for reply in replies}
        asks = [
            (reply.shard_id, request)
            for reply in replies
            for request in reply.scale_requests
        ]
        asks.sort(key=lambda item: (item[0], item[1].seq))
        for shard_id, request in asks:
            if request.action == "scale_out":
                headroom = self.max_workers - self.total_committed
                granted = max(0, min(int(request.count), headroom))
                gpus = tuple(self._next_gpu() for _ in range(granted))
                self.committed[shard_id] += granted
                outcome = ScaleOutcome(
                    seq=request.seq, action="scale_out", granted=granted, gpus=gpus
                )
            else:
                allowed = (
                    self.total_committed - 1 >= self.min_workers
                    and self.committed[shard_id] > 1
                )
                granted = 1 if allowed else 0
                self.committed[shard_id] -= granted
                outcome = ScaleOutcome(seq=request.seq, action="scale_in", granted=granted)
            outcomes[shard_id].append(outcome)
            self.grant_log.append(
                {
                    "window_end_s": window_end_s,
                    "shard": shard_id,
                    "seq": request.seq,
                    "action": request.action,
                    "requested": int(request.count),
                    "granted": granted,
                    "committed_total": self.total_committed,
                }
            )
        return {shard_id: tuple(decided) for shard_id, decided in outcomes.items()}


def _map_faults(faults, plan: ShardPlan, num_workers: int) -> dict[int, list]:
    """Map fleet-fraction fault events onto shard-local worker ids.

    A fleet-fraction event faults the lowest ``round(frac × num_workers)``
    *global* worker ids — exactly the set the sequential run faults.
    Global ids map onto shards in shard order (shard s owns the contiguous
    id block after the earlier partitions), so the per-shard fault lists
    and times are a deterministic function of the plan alone.  Each entry
    is ``(local_id, fail_at_s, recover_at_s, degrade_factor)`` — the last
    element is ``None`` for hard crashes and the gray-failure speed factor
    otherwise.
    """
    starts: dict[int, int] = {}
    offset = 0
    for spec in plan.shards:
        starts[spec.shard_id] = offset
        offset += spec.num_workers
    per_shard: dict[int, list] = {spec.shard_id: [] for spec in plan.shards}
    for event in faults:
        recover_s = (
            None if event.recover_at_minute is None else event.recover_at_minute * 60.0
        )
        for worker_id in event.worker_ids(num_workers):
            for spec in plan.shards:
                start = starts[spec.shard_id]
                if start <= worker_id < start + spec.num_workers:
                    per_shard[spec.shard_id].append(
                        (
                            worker_id - start,
                            event.fail_at_minute * 60.0,
                            recover_s,
                            event.degrade_factor,
                        )
                    )
                    break
    return per_shard


def _merge_fleet_minutes(results) -> tuple[list, dict]:
    """Sum per-shard fleet minute series into a fleet-wide series."""
    from repro.cluster.cluster import FleetMinute

    minutes: dict[int, dict] = {}
    for result in results:
        for row in result.fleet_minutes:
            entry = minutes.setdefault(row.minute, {"mean_workers": 0.0, "by_gpu": {}})
            entry["mean_workers"] += row.mean_workers
            for gpu, value in row.by_gpu.items():
                entry["by_gpu"][gpu] = entry["by_gpu"].get(gpu, 0.0) + value
    series = [
        FleetMinute(
            minute=minute,
            mean_workers=minutes[minute]["mean_workers"],
            by_gpu=dict(minutes[minute]["by_gpu"]),
        )
        for minute in sorted(minutes)
    ]
    return series, {fm.minute: fm for fm in series}


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def run_scenario_sharded(
    scenario,
    preset: str = "full",
    seed: int | None = None,
    system: str | None = None,
    shards: int | None = None,
):
    """Run a scenario partitioned across shard processes.

    Returns the same :class:`~repro.scenarios.runtime.ScenarioRun` shape as
    the sequential runner (``run.system`` is None for N > 1 — there is no
    single live system object), with a ``"sharding"`` block in the extras.
    ``shards=1`` delegates straight to the sequential path and is
    bit-identical to it.
    """
    from repro.experiments.runner import ExperimentResult
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runtime import ScenarioRun, build_config, build_stream, run_scenario

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    preset_name = preset
    preset_spec = scenario.preset(preset_name)
    if seed is None:
        seed = scenario.default_seed
    seed = int(seed)

    extra: dict = {}
    if shards is not None:
        extra["shards"] = int(shards)
    config = build_config(scenario, preset_spec, seed, extra=extra)
    if config.shards <= 1:
        return run_scenario(
            scenario, preset=preset_name, seed=seed, system=system, shards=1
        )

    faults, _, _ = scenario.schedule(preset_spec)
    for event in faults:
        if event.worker_id is not None:
            raise ValueError(
                "sharded runs cannot schedule worker faults by worker_id: "
                "global worker ids do not exist in a partitioned fleet; use a "
                "fleet_fraction fault instead, which maps onto the shard "
                "partitions deterministically"
            )

    trace = scenario.trace.build(seed=seed, **preset_spec.trace_params)
    plan = plan_shards(config, trace=trace)
    fault_map = _map_faults(faults, plan, config.num_workers)
    autoscale = bool(config.autoscale_enabled)
    scenario_dict = scenario.to_dict()
    # Built once: partitioning reads the stream without consuming it, and
    # the merge below reads its offered load.
    stream = build_stream(scenario, preset_spec, config, trace, seed)
    arrival_split = _partition_arrivals(stream, plan)

    start_methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in start_methods else "spawn")
    processes = []
    conns = []
    try:
        for spec in plan.shards:
            parent_conn, child_conn = ctx.Pipe()
            payload = {
                "scenario": scenario_dict,
                "preset": preset_name,
                "seed": seed,
                "system": system,
                "shard_id": spec.shard_id,
                "num_shards": spec.num_shards,
                "num_workers": spec.num_workers,
                "tenant_names": (
                    list(spec.tenant_names) if spec.tenant_names is not None else None
                ),
                "arrivals": (
                    arrival_split[spec.shard_id] if arrival_split is not None else None
                ),
                "faults": fault_map[spec.shard_id],
            }
            process = ctx.Process(
                target=_shard_main, args=(payload, child_conn), daemon=True
            )
            process.start()
            child_conn.close()
            processes.append(process)
            conns.append(parent_conn)

        duration_s = trace.duration_minutes * 60.0
        boundaries = _window_boundaries(
            duration_s + preset_spec.drain_s,
            config.autoscale_epoch_s if autoscale else None,
        )
        broker = _BudgetBroker(config, plan) if autoscale else None
        barrier_log: list[dict] = []
        for end, epoch in boundaries:
            window = _RunWindow(end_s=end, epoch=epoch)
            for conn in conns:
                conn.send(window)
            # The recv below is the barrier: the window's merged counts exist
            # only once every shard has reached the boundary.
            replies = [conn.recv() for conn in conns]
            entry = {
                "window_end_s": end,
                "epoch": epoch,
                "completions": sum(r.completions for r in replies),
                "arrivals": sum(r.arrivals for r in replies),
                "active_workers": sum(r.active_workers for r in replies),
                "failed_workers": sum(r.failed_workers for r in replies),
                "in_fleet": sum(r.active_workers + r.provisioning_workers for r in replies),
            }
            if broker is not None:
                # Reconcile before granting: a scale-in grant the shard could
                # not apply (candidate failed meanwhile) left the ledger one
                # worker low per skip; the worker it would have drained is
                # still in the fleet, so hand the budget back.
                for reply in replies:
                    broker.committed[reply.shard_id] += reply.unapplied_scale_ins
                # Every earlier grant has been applied by now and this
                # barrier's grants have not, so the reconciled ledger must
                # equal the live fleet (the ledger-matches-fleet contract).
                entry["committed_before_grant"] = broker.total_committed
                if epoch:
                    grants = broker.grant(end, replies)
                    for spec, conn in zip(plan.shards, conns):
                        conn.send(grants[spec.shard_id])
                entry["committed_workers"] = broker.total_committed
            barrier_log.append(entry)
        for conn in conns:
            conn.send(None)  # finalize
        results = sorted((conn.recv() for conn in conns), key=lambda r: r.shard_id)
        for process in processes:
            process.join(timeout=60.0)
    finally:
        for conn in conns:
            conn.close()
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join()

    # ------------------------------------------------------------------ #
    # Deterministic merge (shard order)
    # ------------------------------------------------------------------ #
    merged = MetricsCollector(slo=config.slo)
    for result in results:
        merged.absorb_state(result.collector_state)

    duration_minutes = trace.duration_minutes
    # The same full stream the shards filtered knows the exact offered load
    # (including per-tenant extra_qpm series), matching the sequential view.
    offered = {minute: stream.offered_qpm(minute) for minute in range(duration_minutes)}
    fleet_minutes, fleet_by_minute = _merge_fleet_minutes(results)
    minute_series = merged.minute_series(offered=offered, fleet=fleet_by_minute)

    total_workers = sum(r.num_workers for r in results)
    tenants: tuple[TenantSummary, ...] = ()
    if config.tenants:
        rows = {
            name: entry["summary"]
            for result in results
            for name, entry in result.tenant_extras.items()
            if "summary" in entry
        }
        tenants = tuple(rows[spec.name] for spec in config.tenants if spec.name in rows)

    summary = summarize(
        system=results[0].system_name,
        workload=trace.name,
        collector=merged,
        duration_minutes=duration_minutes,
        cluster_utilization=sum(r.utilization * r.num_workers for r in results)
        / max(total_workers, 1),
        model_loads=sum(r.model_loads for r in results),
        fleet_peak_workers=sum(r.fleet_peak_workers for r in results),
        fleet_mean_workers=sum(r.fleet_mean_workers for r in results),
        workers_added=sum(r.workers_added for r in results),
        workers_retired=sum(r.workers_retired for r in results),
        gpu_hours=sum(r.gpu_hours for r in results),
        cost_usd=sum(r.cost_usd for r in results),
        tenants=tenants,
    )

    has_cache = any("cache_store_hits" in r.extras for r in results)
    store_hits = sum(r.extras.get("cache_store_hits", 0) for r in results)
    store_misses = sum(r.extras.get("cache_store_misses", 0) for r in results)
    retrieval_hits = sum(r.extras.get("retrieval_hits", 0) for r in results)
    retrieval_attempts = sum(r.extras.get("retrieval_attempts", 0) for r in results)
    cache_hit_rate = _ratio(store_hits, store_hits + store_misses) if has_cache else None
    experiment = ExperimentResult(
        system=results[0].system_name,
        workload=trace.name,
        summary=summary,
        minute_series=minute_series,
        extras={
            "cache_hit_rate": cache_hit_rate,
            "total_requests": merged.total_arrivals,
            "fleet_minutes": fleet_minutes,
        },
    )

    extras: dict = {
        "cache_hit_rate": cache_hit_rate,
        "total_requests": merged.total_arrivals,
        # Same shape as the sequential runtime's conservation extras, so the
        # contract layer verifies sharded reports with the same checks.
        "outstanding": {
            "worker_queues": sum(r.extras.get("outstanding_workers", 0) for r in results),
            "admission_backlog": sum(r.extras.get("admission_backlog", 0) for r in results),
        },
    }
    if has_cache:
        extras["retrieval_hit_rate"] = _ratio(retrieval_hits, retrieval_attempts)
        extras["retrieval_attempts"] = retrieval_attempts
        if config.tenants:
            # One entry count per shard under "shards" (instead of the
            # sequential report's single "entries") — quotas are enforced
            # per shard cache, so that is the granularity the cache-quota
            # contract must check.
            cache_tenants: dict = {}
            for result in results:
                for name, entry in result.tenant_extras.items():
                    cache = entry.get("cache")
                    if cache is None:
                        continue
                    row = cache_tenants.setdefault(
                        name, {"quota": cache["quota"], "shards": {}}
                    )
                    row["shards"][str(result.shard_id)] = cache["entries"]
            if cache_tenants:
                extras["cache_tenants"] = cache_tenants
    switches = [r.extras.get("strategy_switches") for r in results]
    if any(s is not None for s in switches):
        extras["strategy_switches"] = sum(s or 0 for s in switches)
    retrains = [r.extras.get("retraining_events") for r in results]
    if any(s is not None for s in retrains):
        extras["retraining_events"] = sum(s or 0 for s in retrains)
    drifts = [r.extras.get("drift_events") for r in results]
    if any(d is not None for d in drifts):
        merged: dict[str, int] = {}
        for events in drifts:
            for name, count in (events or {}).items():
                merged[name] = merged.get(name, 0) + count
        extras["drift_events"] = dict(sorted(merged.items()))
    if config.tenants:
        extras["fair_share_index"] = summary.fair_share_index
        admission = {
            name: entry["admission"]
            for result in results
            for name, entry in result.tenant_extras.items()
            if "admission" in entry
        }
        if admission:
            extras["admission"] = admission
    extras["sharding"] = {
        "shards": config.shards,
        # The merged summary reads like a sequential run's; it is not one.
        "simulated": (
            f"{config.shards} isolated sub-fleets, their results merged: "
            "no request was routed or queued across shards"
        ),
        "mode": plan.mode,
        "windows": len(boundaries),
        "plan": [
            {
                "shard": spec.shard_id,
                "workers": spec.num_workers,
                "tenants": list(spec.tenant_names) if spec.tenant_names else None,
            }
            for spec in plan.shards
        ],
        "per_shard": [
            {
                "shard": r.shard_id,
                "arrivals": r.extras.get("arrivals", 0),
                "requests_served": r.requests_served,
                "outstanding_requests": r.outstanding_requests,
                "gpu_hours": r.gpu_hours,
            }
            for r in results
        ],
        "barriers": barrier_log,
    }
    # Barrier-aligned global fleet peak: the summed per-shard peaks in the
    # merged summary need not be simultaneous, but every barrier records the
    # true global in-fleet count at one synchronized instant — the peak over
    # those samples is what the fleet-budget contract bounds.
    extras["sharding"]["fleet_peak_barrier_aligned"] = max(
        entry["in_fleet"] for entry in barrier_log
    )
    if broker is not None:
        extras["fleet_budget"] = {
            "min_workers": broker.min_workers,
            "max_workers": broker.max_workers,
        }
        extras["sharding"]["autoscale"] = {
            "epoch_s": config.autoscale_epoch_s,
            "min_workers": broker.min_workers,
            "max_workers": broker.max_workers,
            "committed": dict(broker.committed),
            "grants": broker.grant_log,
            "denied_requests": sum(r.extras.get("scale_denials", 0) for r in results),
            "events": {
                r.shard_id: r.extras.get("autoscale_events", []) for r in results
            },
        }
    return ScenarioRun(
        scenario=scenario,
        preset_name=preset_name,
        seed=seed,
        trace=trace,
        config=config,
        system=None,
        result=experiment,
        extras=extras,
    )
