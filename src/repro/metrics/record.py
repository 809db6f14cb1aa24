"""The run record and the one report builder.

A report reads two things: the :class:`~repro.metrics.collector.MetricsCollector`
(one row per request) and a :class:`RunRecord` (everything else).  A
simulated system (:meth:`~repro.core.base.BaseServingSystem.record`), each
shard of a sharded run and the live gateway fill a record; the shard
coordinator merges its shards' records with :func:`merge_records`, by the
rule declared on each field; and :func:`build_report` turns (collector,
record) into the summary's inputs, the tenant rows and the extras for all
three.  Hit rates are computed by the builder, from merged counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping

from repro.metrics.collector import MetricsCollector
from repro.metrics.report import TenantSummary, fair_share_index
from repro.workloads.tenants import build_runtimes

# Merge rules: how the coordinator folds its shards' values of one field.
#: Every shard holds the same value.
SAME = "same"
#: Summed; None (the producer has no such mechanism) only if every shard's is.
SUM = "sum"
#: A mapping summed key by key (per tenant, per minute): values add with ``+``.
KEYED_SUM = "keyed-sum"
#: Kept per shard: the merged value maps shard id to each shard's value.
PER_SHARD = "per-shard"
#: The mean over shards weighted by their ``workers``.
WORKER_WEIGHTED = "worker-weighted"
#: Not merged: a merged record holds None, so its key is absent.
NOT_MERGED = "not-merged"
#: The merged shards' ids.
SHARD_IDS = "shard-ids"

#: Extras keys one mode writes beside the builder's: mode -> key.
MODE_KEYS = {"sharded": "sharding", "live": "gateway"}
#: Extras keys a mode's report lacks where a sequential report of the same
#: scenario has them: mode -> keys.  A merged record holds no cache tier
#: (each shard's tier is its own) and keeps autoscale events per shard, for
#: the ``sharding`` block; the gateway's fleet is fixed, so it has no
#: autoscaler.  Tenant partitioning also drops ``admission`` when no shard
#: holds two tenants (each ``sharding.plan`` entry says whether its shard
#: admitted by fair share).
MODE_ABSENT_KEYS = {
    "sharded": frozenset({"cache_tier", "autoscale_events"}),
    "live": frozenset({"autoscale_events", "fleet_budget"}),
}


def _field(merge: str, default=None, summary: bool = False):
    """A record field: its merge rule and whether it is a
    :func:`~repro.metrics.report.summarize` input of that name."""
    return field(default=default, metadata={"merge": merge, "summary": summary})


@dataclass(frozen=True)
class RunRecord:
    """Everything a report reads besides the collector.

    Picklable, so a shard ships its record to the coordinator.  A field
    that reads None is a mechanism the producer does not have, and the keys
    it feeds are absent from the report.
    """

    system: str = _field(SAME, default="")

    # Fleet: the summary's inputs, plus the fleet-minute series.
    #: Workers the run started with (a shard: its partition).
    workers: int = _field(SUM, default=0)
    #: Mean busy fraction of the fleet's workers; a merge weights each
    #: shard's figure by its initial ``workers``.
    cluster_utilization: float = _field(WORKER_WEIGHTED, default=0.0, summary=True)
    model_loads: int = _field(SUM, default=0, summary=True)
    #: Shards' peaks are summed even where they did not coincide, so the
    #: sum bounds any fleet the shards held at one instant.
    fleet_peak_workers: int = _field(SUM, default=0, summary=True)
    fleet_mean_workers: float = _field(SUM, default=0.0, summary=True)
    workers_added: int = _field(SUM, default=0, summary=True)
    workers_retired: int = _field(SUM, default=0, summary=True)
    gpu_hours: float = _field(SUM, default=0.0, summary=True)
    cost_usd: float = _field(SUM, default=0.0, summary=True)
    #: Minute -> :class:`~repro.cluster.cluster.FleetMinute` over the trace
    #: minutes (the minute rows' ``fleet_workers``).
    fleet_minutes: Mapping | None = _field(KEYED_SUM)

    # Cache (all None without a cache).
    #: State-store lookups that hit and missed.
    store_hits: int | None = _field(SUM)
    store_misses: int | None = _field(SUM)
    #: Retrievals that produced a usable state, and all attempted.
    retrieval_hits: int | None = _field(SUM)
    retrieval_attempts: int | None = _field(SUM)
    #: The same two per configured tenant (the tenant rows' hit rate).
    tenant_retrieval_hits: Mapping | None = _field(KEYED_SUM)
    tenant_retrieval_attempts: Mapping | None = _field(KEYED_SUM)
    #: Entries each configured tenant holds; quotas are enforced per cache,
    #: so a sharded report shows every shard's count.  None untenanted.
    cache_entries: Mapping | None = _field(PER_SHARD)
    #: The distributed tier's placement and traffic; None for the flat
    #: cache.  Each shard's tier is its own, so a sharded report has none.
    cache_tier: dict | None = _field(NOT_MERGED)

    # Control plane.
    strategy_switches: int | None = _field(SUM)
    retraining_events: int | None = _field(SUM)
    #: Drift events per tenant namespace ("" = the shared detector).
    drift_events: Mapping | None = _field(KEYED_SUM)

    # Outstanding work, admission and autoscaling.
    #: Requests queued or in service on any worker (draining and failed
    #: ones included) when the run ended.
    worker_queues: int = _field(SUM, default=0)
    #: Requests parked at admission per tenant; None without a controller.
    admission_backlog: Mapping | None = _field(KEYED_SUM)
    #: Per-tenant :class:`~repro.core.admission.TenantAdmissionStats`.
    admission: Mapping | None = _field(KEYED_SUM)
    #: The autoscaler's actions as dicts; None without an autoscaler.  A
    #: sharded report shows each shard's in its ``sharding`` block.
    autoscale_events: list | None = _field(PER_SHARD)

    #: The shard ids a merged record covers; empty for one system's record.
    shards: tuple = _field(SHARD_IDS, default=())


def _keyed_sum(mappings: list) -> dict:
    merged: dict = {}
    for mapping in mappings:
        for key, value in mapping.items():
            merged[key] = merged[key] + value if key in merged else value
    return dict(sorted(merged.items()))


def merge_records(records: Mapping[int, RunRecord]) -> RunRecord:
    """One record over shards' records (shard id -> record), each field
    merged by its declared rule, in shard-id order."""
    ids = sorted(records)
    ordered = [records[shard] for shard in ids]
    merged: dict = {}
    for spec in fields(RunRecord):
        rule = spec.metadata["merge"]
        values = [getattr(record, spec.name) for record in ordered]
        present = [value for value in values if value is not None]
        if rule == SAME:
            if any(value != values[0] for value in values):
                raise ValueError(f"shards disagree on {spec.name}: {values}")
            merged[spec.name] = values[0]
        elif rule == WORKER_WEIGHTED:
            weights = [record.workers for record in ordered]
            merged[spec.name] = sum(v * w for v, w in zip(values, weights)) / max(sum(weights), 1)
        elif rule == SHARD_IDS:
            merged[spec.name] = tuple(ids)
        elif rule == NOT_MERGED or not present:
            merged[spec.name] = None
        elif rule == SUM:
            merged[spec.name] = sum(present)
        elif rule == KEYED_SUM:
            merged[spec.name] = _keyed_sum(present)
        else:  # PER_SHARD
            merged[spec.name] = {
                shard: value for shard, value in zip(ids, values) if value is not None
            }
    return RunRecord(**merged)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tenant_breakdown(
    collector: MetricsCollector, tenant_runtimes, record: RunRecord
) -> tuple[TenantSummary, ...]:
    """Per-tenant outcome rows (empty for the anonymous workload) over
    resolved tenant runtimes (spec plus SLO budget)."""
    hits = record.tenant_retrieval_hits or {}
    attempts = record.tenant_retrieval_attempts or {}
    admission = record.admission or {}
    backlog = record.admission_backlog or {}
    rows = []
    for runtime in tenant_runtimes.values():
        spec = runtime.spec
        stats = collector.tenant_stats(spec.name, budget_s=runtime.budget_s)
        admitted = admission.get(spec.name)
        rows.append(
            TenantSummary(
                name=spec.name,
                slo_class=spec.slo_class,
                weight=spec.weight,
                slo_budget_s=runtime.budget_s,
                arrivals=stats["arrivals"],
                completions=stats["completions"],
                dropped=stats["dropped"],
                slo_violation_ratio=stats["violation_ratio"],
                mean_relative_quality=stats["mean_relative_quality"],
                p99_latency_s=stats["p99_latency_s"],
                quality_floor=spec.quality_floor,
                cache_hit_rate=_ratio(hits.get(spec.name, 0), attempts.get(spec.name, 0)),
                admission_delayed=0 if admitted is None else admitted.delayed,
                mean_admission_wait_s=0.0 if admitted is None else admitted.mean_wait_s,
                admission_backlog=backlog.get(spec.name, 0),
            )
        )
    return tuple(rows)


def build_report(collector: MetricsCollector, record: RunRecord, config) -> tuple[dict, dict]:
    """Turn a run's collector and record into its report's parts: the
    keyword arguments of :func:`~repro.metrics.report.summarize` besides
    system, workload, collector and duration (the tenant rows included), and
    the extras.

    ``config`` is the run's :class:`~repro.core.config.ArgusConfig` (a
    sharded run's full one): its tenants and SLO give the tenant rows and
    quotas, and its autoscaling bounds the fleet budget.
    """
    tenants = tenant_breakdown(collector, build_runtimes(config.tenants, config.slo), record)
    summary_inputs = {
        spec.name: getattr(record, spec.name)
        for spec in fields(RunRecord)
        if spec.metadata["summary"]
    }
    summary_inputs["tenants"] = tenants
    store_hits = record.store_hits
    extras: dict = {
        "cache_hit_rate": (
            None if store_hits is None else _ratio(store_hits, store_hits + record.store_misses)
        ),
        "total_requests": collector.total_arrivals,
        # Conservation inputs (contracts): requests in flight at the end.
        "outstanding": {
            "worker_queues": record.worker_queues,
            "admission_backlog": sum((record.admission_backlog or {}).values()),
        },
    }
    if record.retrieval_attempts is not None:
        extras["retrieval_hit_rate"] = _ratio(record.retrieval_hits, record.retrieval_attempts)
        extras["retrieval_attempts"] = record.retrieval_attempts
    if record.cache_entries is not None:
        quotas = {spec.name: spec.cache_quota for spec in config.tenants}
        if record.shards:
            cache_tenants: dict = {}
            for shard, entries in record.cache_entries.items():
                for name, count in entries.items():
                    row = cache_tenants.setdefault(name, {"quota": quotas[name], "shards": {}})
                    row["shards"][str(shard)] = count
        else:
            cache_tenants = {
                name: {"entries": count, "quota": quotas[name]}
                for name, count in record.cache_entries.items()
            }
        extras["cache_tenants"] = cache_tenants
    for key in ("cache_tier", "strategy_switches", "retraining_events", "drift_events"):
        if getattr(record, key) is not None:
            extras[key] = getattr(record, key)
    if record.autoscale_events is not None:
        extras["fleet_budget"] = {
            "min_workers": config.effective_min_workers,
            "max_workers": config.effective_max_workers,
        }
        if not record.shards:
            extras["autoscale_events"] = record.autoscale_events
    if config.tenants:
        extras["fair_share_index"] = fair_share_index(tenants)
        if record.admission is not None:
            extras["admission"] = {
                name: {
                    "offered": stats.offered,
                    "delayed": stats.delayed,
                    "mean_wait_s": stats.mean_wait_s,
                    "max_wait_s": stats.max_wait_s,
                }
                for name, stats in record.admission.items()
            }
    return summary_inputs, extras
