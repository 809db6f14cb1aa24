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
    Every tenant lives wholly on one shard, so per-tenant SLO accounting
    and cache namespaces stay exact.  Fair-share admission does not: it
    needs two tenants, so a shard holding one tenant admits everything at
    once, and each ``sharding.plan`` entry says whether its shard admitted
    by fair share.

    *Hash mode* (single-tenant workloads): requests are partitioned by a
    stable hash of the prompt content, so a given prompt always lands on the
    same shard and its cache locality survives the split.

    In both modes the union of the shard slices is exactly the sequential
    arrival sequence.

Protocol
    The coordinator and the shards share no objects.  Each shard process
    starts with one payload (its :class:`ShardSpec`, arrival slice and
    fault list), runs its system to the end of the trace and drain, and
    sends one pickled :class:`_ShardResult` (collector snapshot, run record
    and the facts only the ``sharding`` block shows) back over its pipe.
    Nothing crosses between shards mid-run.

Control plane
    An autoscaled shard runs its own
    :class:`~repro.core.autoscaler.Autoscaler` over its fleet partition,
    inside a static share of the global ``min_workers``/``max_workers``
    budget that :func:`plan_shards` fixes before the run.  The shares' maxes
    sum to the global max, so the shards' fleets together stay within it.

Merging
    The coordinator absorbs the shards' collector snapshots (in shard order,
    so deterministically) into one measurement-only
    :class:`~repro.metrics.collector.MetricsCollector`, merges their
    :class:`~repro.metrics.record.RunRecord` objects by the rule each
    field declares, and builds the report with the sequential run's builder
    (:func:`~repro.metrics.record.build_report`).

``shards=1`` never enters this module's process machinery: it routes back
to the plain sequential :func:`~repro.scenarios.runtime.run_scenario`,
which is what pins bit-identity between the two modes.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

import numpy as np

from repro.metrics.collector import MetricsCollector
from repro.metrics.record import RunRecord, build_report, merge_records
from repro.metrics.report import summarize
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
    #: This shard's share of the global autoscaling budget (None when
    #: autoscaling is off): it scales within ``[min_workers, max_workers]``.
    min_workers: int | None = None
    max_workers: int | None = None

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


def _largest_remainder(total: int, weights: list[float]) -> list[int]:
    """Split ``total`` in proportion to ``weights`` by largest remainder
    (ties to the lower index); equal weights when they sum to zero."""
    n = len(weights)
    if sum(weights) <= 0:
        weights = [1.0] * n
    weight_sum = sum(weights)
    raw = [total * w / weight_sum for w in weights]
    counts = [int(r) for r in raw]
    order = sorted(range(n), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _split_workers(total: int, weights: list[float]) -> list[int]:
    """Largest-remainder proportional split with a floor of 1 worker/shard."""
    n = len(weights)
    if total < n:
        raise ValueError(f"cannot split {total} workers across {n} shards")
    return [1 + share for share in _largest_remainder(total - n, weights)]


def _autoscale_budgets(workers: list[int], low: int, high: int) -> list[tuple[int, int]]:
    """Each shard's static ``(min_workers, max_workers)`` share of the
    global autoscaling budget ``[low, high]``.

    A shard with ``n_i`` of the ``N`` initial workers may grow by its
    largest-remainder share of the headroom ``high - N``, split in
    proportion to ``n_i``, and shrink by its share of ``N - max(low,
    shards)``, split in proportion to ``n_i - 1``.  So the maxes sum to
    ``high``, the mins to ``max(low, shards)``, and every shard keeps
    ``1 <= min_i <= n_i <= max_i``.
    """
    total = sum(workers)
    growth = _largest_remainder(high - total, workers)
    shrink = _largest_remainder(total - max(low, len(workers)), [n - 1 for n in workers])
    return [(n - down, n + up) for n, up, down in zip(workers, growth, shrink)]


def plan_shards(config, trace=None) -> ShardPlan:
    """Partition a config's workload and fleet into ``config.shards`` slices.

    Multi-tenant deployments partition by tenant (greedy bin-pack by offered
    load, heaviest first, onto the lightest shard); single-tenant workloads
    fall back to hashing the prompt content.  Workers are split across
    shards by largest-remainder proportional to each shard's load, with at
    least one worker per shard; with autoscaling on, each shard also gets
    its static share of the global worker budget (:func:`_autoscale_budgets`).
    ``trace`` sharpens the tenant load estimate with each tenant's
    ``extra_qpm`` series; without it the bin-pack uses base-trace shares
    alone.
    """
    n = int(config.shards)
    mode, tenant_names = "hash", [None] * n
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
        mode = "tenant"
        tenant_names = [tuple(sorted(names, key=config_order.__getitem__)) for names in bins]
        worker_counts = _split_workers(config.num_workers, bin_loads)
    else:
        worker_counts = _split_workers(config.num_workers, [1.0] * n)
    budgets = [(None, None)] * n
    if config.autoscale_enabled:
        budgets = _autoscale_budgets(
            worker_counts, config.effective_min_workers, config.effective_max_workers
        )
    specs = tuple(
        ShardSpec(
            shard_id=i,
            num_shards=n,
            num_workers=worker_counts[i],
            tenant_names=tenant_names[i],
            min_workers=budgets[i][0],
            max_workers=budgets[i][1],
        )
        for i in range(n)
    )
    return ShardPlan(mode=mode, shards=specs)


@dataclass(frozen=True)
class _ShardResult:
    """Shard -> coordinator at its run's end: everything the merge reads."""

    shard_id: int
    #: A :meth:`~repro.metrics.collector.MetricsCollector.export_state` snapshot.
    collector_state: dict
    record: RunRecord
    #: What only the ``sharding`` block shows of this shard: its
    #: ``arrivals``, ``requests_served`` and ``outstanding_requests``
    #: (healthy workers' queues).
    facts: dict


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
    spec = payload["spec"]
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
    if spec.max_workers is not None:
        extra["min_workers"] = spec.min_workers
        extra["max_workers"] = spec.max_workers
    shard_config = build_config(scenario, preset_spec, seed, extra=extra)
    serving = build_system(payload["system"] or scenario.system, config=shard_config)
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
    return serving, spec, trace, preset_spec.drain_s


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
    """Shard process entry point: run the shard's slice through the trace
    and its drain, then send the coordinator its :class:`_ShardResult`."""
    try:
        serving, spec, trace, drain_s = _build_shard_system(payload)
        serving.run(trace.duration_minutes * 60.0, drain_s)
        conn.send(_finalize(serving, spec, trace))
    finally:
        conn.close()


def _finalize(serving, spec: ShardSpec, trace) -> _ShardResult:
    """Assemble the shard's closing :class:`_ShardResult`."""
    record = serving.record(trace.duration_minutes)  # settles the collector
    cluster = serving.cluster
    return _ShardResult(
        shard_id=spec.shard_id,
        collector_state=serving.collector.export_state(),
        record=record,
        facts={
            "arrivals": serving.collector.total_arrivals,
            "requests_served": cluster.total_requests_served(),
            "outstanding_requests": cluster.total_queue_length(),
        },
    )


# --------------------------------------------------------------------------- #
# Coordinator
# --------------------------------------------------------------------------- #


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


def run_sharded(scenario, preset_name: str, seed: int, system: str | None, config):
    """Run a resolved scenario over ``config.shards`` shard processes.

    Returns the same :class:`~repro.scenarios.runtime.ScenarioRun` shape as
    the sequential runner (``run.system`` is None: there is no single live
    system object), with a ``"sharding"`` block in the extras.
    """
    from repro.experiments.runner import ExperimentResult
    from repro.scenarios.runtime import ScenarioRun, build_stream

    preset_spec = scenario.preset(preset_name)
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
                "spec": spec,
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
    record = merge_records({result.shard_id: result.record for result in results})
    inputs, extras = build_report(merged, record, config)
    summary = summarize(record.system, trace.name, merged, trace.duration_minutes, **inputs)
    # The same full stream the shards filtered knows the exact offered load
    # (including per-tenant extra_qpm series), matching the sequential view.
    offered = {minute: stream.offered_qpm(minute) for minute in range(trace.duration_minutes)}
    minute_series = merged.minute_series(offered=offered, fleet=record.fleet_minutes)

    plan_rows = []
    for spec, result in zip(plan.shards, results):
        row = {
            "shard": spec.shard_id,
            "workers": spec.num_workers,
            "tenants": list(spec.tenant_names) if spec.tenant_names else None,
            # Fair-share admission needs two tenants on the shard.
            "admission": result.record.admission is not None,
        }
        if spec.max_workers is not None:
            row["min_workers"] = spec.min_workers
            row["max_workers"] = spec.max_workers
        plan_rows.append(row)
    per_shard = []
    for r in results:
        row = {
            "shard": r.shard_id,
            "arrivals": r.facts["arrivals"],
            "requests_served": r.facts["requests_served"],
            "outstanding_requests": r.facts["outstanding_requests"],
            "gpu_hours": r.record.gpu_hours,
        }
        if r.record.autoscale_events is not None:
            row["autoscale_events"] = r.record.autoscale_events
        per_shard.append(row)
    extras["sharding"] = {
        "shards": config.shards,
        # The merged summary reads like a sequential run's; it is not one.
        "simulated": (
            f"{config.shards} isolated sub-fleets, their results merged: "
            "no request was routed or queued across shards"
        ),
        "mode": plan.mode,
        "plan": plan_rows,
        "per_shard": per_shard,
    }
    experiment = ExperimentResult(
        system=record.system,
        workload=trace.name,
        summary=summary,
        minute_series=minute_series,
        extras=extras,
    )
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
