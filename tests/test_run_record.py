"""One report builder over one run record, for every way a run is made.

The sequential runner, the shard coordinator and the live gateway each fill
a :class:`~repro.metrics.record.RunRecord` and report through
:func:`~repro.metrics.record.build_report`.  These tests hold the three to
one key set, apart from the declared mode keys and absences, check the
declared merge rules and pin the defects the three separate producers had.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.cluster.cluster import FleetMinute
from repro.core.admission import TenantAdmissionStats
from repro.core.config import ArgusConfig
from repro.gateway.loadgen import replay_async
from repro.gateway.server import Gateway
from repro.metrics.collector import MetricsCollector
from repro.metrics.record import (
    MODE_ABSENT_KEYS,
    MODE_KEYS,
    RunRecord,
    build_report,
    merge_records,
)
from repro.models.gpus import gpu_by_name
from repro.scenarios import get_scenario
from repro.scenarios.runtime import run_scenario

#: Scenario -> the extras keys of its sequential report that another mode's
#: report lacks: admission under tenant partitioning, the unmerged cache
#: tier, and the autoscaler's events (per shard when sharded; the gateway
#: has no autoscaler, so no fleet budget either).
PARITY_SCENARIOS = {
    "steady-baseline": set(),
    "tenant-fair-share": {"admission"},
    "cache-node-failure": {"cache_tier"},
    "sharded-autoscale": {"autoscale_events", "fleet_budget"},
}


def _reports(name: str) -> dict[str, dict]:
    """The scenario's small seed-0 report, made three ways."""
    live = asyncio.run(
        replay_async(name, preset="small", seed=0, time_scale=300.0, max_minutes=2.0)
    )
    return {
        "sequential": run_scenario(name, preset="small", seed=0).report().to_dict(),
        "sharded": run_scenario(name, preset="small", seed=0, shards=2).report().to_dict(),
        "live": live.report,
    }


@pytest.fixture(scope="module", params=sorted(PARITY_SCENARIOS))
def reports(request):
    return request.param, _reports(request.param)


def test_three_producers_emit_one_key_set(reports):
    name, made = reports
    sequential = made["sequential"]
    for mode, report in made.items():
        assert set(report["summary"]) == set(sequential["summary"]), mode
        assert report["minutes"], mode
        for row in report["minutes"]:
            assert set(row) == set(sequential["minutes"][0]), mode
        assert set(report["extras"]["outstanding"]) == {"worker_queues", "admission_backlog"}
        expected = set(sequential["extras"]) - MODE_ABSENT_KEYS.get(mode, set())
        if mode in MODE_KEYS:
            expected.add(MODE_KEYS[mode])
        if mode == "sharded" and name == "tenant-fair-share":
            # Each tenant is alone on its shard, and fair-share admission
            # needs two: no shard admitted by fair share, so no admission.
            plan = report["extras"]["sharding"]["plan"]
            assert [entry["admission"] for entry in plan] == [False, False]
            expected.discard("admission")
        assert set(report["extras"]) == expected, mode
    dropped = set().union(*(set(sequential["extras"]) - set(r["extras"]) for r in made.values()))
    assert dropped == PARITY_SCENARIOS[name]
    # The live stub fleet never switches strategy or retrains.
    assert made["live"]["extras"]["strategy_switches"] == 0
    assert made["live"]["extras"]["retraining_events"] == 0
    # cache_tenants rows: one count per cache; a sharded run has one per shard.
    rows = {mode: report["extras"].get("cache_tenants") for mode, report in made.items()}
    if name == "tenant-fair-share":
        for mode in ("sequential", "live"):
            assert all(set(row) == {"entries", "quota"} for row in rows[mode].values())
        assert all(set(row) == {"quota", "shards"} for row in rows["sharded"].values())
    else:
        assert set(rows.values()) == {None}


def _builder_keys() -> set[str]:
    """Every extras key the builder writes: its extras over a record with
    every field present, under a tenanted, autoscaled config."""
    config = ArgusConfig(tenants=[{"name": "a"}, {"name": "b"}], autoscale_enabled=True)
    stats = {name: TenantAdmissionStats() for name in ("a", "b")}
    record = RunRecord(
        fleet_minutes={},
        store_hits=0,
        store_misses=0,
        retrieval_hits=0,
        retrieval_attempts=0,
        tenant_retrieval_hits={},
        tenant_retrieval_attempts={},
        cache_entries={"a": 0, "b": 0},
        cache_tier={},
        strategy_switches=0,
        retraining_events=0,
        drift_events={},
        admission_backlog={},
        admission=stats,
        autoscale_events=[],
    )
    assert all(getattr(record, spec.name) is not None for spec in dataclasses.fields(record))
    _, extras = build_report(MetricsCollector(slo=config.slo), record, config)
    return set(extras)


def test_every_key_a_producer_emits_comes_from_the_builder(reports):
    _, made = reports
    declared = _builder_keys() | set(MODE_KEYS.values())
    for mode, report in made.items():
        assert set(report["extras"]) <= declared, mode


def test_merge_applies_each_declared_rule():
    events = [{"time_s": 60.0, "action": "scale_out", "delta": 1, "fleet_size": 3, "reason": ""}]
    first = RunRecord(
        system="argus",
        workers=2,
        cluster_utilization=0.5,
        gpu_hours=1.0,
        fleet_minutes={0: FleetMinute(0, 2.0)},
        store_hits=3,
        store_misses=1,
        cache_entries={"a": 3},
        cache_tier={"shards": 1},
        drift_events={"": 1},
        admission={"a": TenantAdmissionStats(offered=4, admitted_after_wait=2, total_wait_s=1.0)},
        autoscale_events=events,
    )
    second = RunRecord(
        system="argus",
        workers=6,
        cluster_utilization=0.25,
        gpu_hours=2.0,
        fleet_minutes={0: FleetMinute(0, 6.0), 1: FleetMinute(1, 6.0)},
        store_hits=5,
        store_misses=0,
        cache_entries={"a": 4},
        cache_tier={"shards": 1},
        drift_events={"": 2, "b": 1},
        admission={"a": TenantAdmissionStats(offered=6, admitted_after_wait=2, total_wait_s=3.0)},
        autoscale_events=[],
    )
    merged = merge_records({1: second, 0: first})
    assert merged.system == "argus" and merged.shards == (0, 1)
    assert merged.workers == 8 and merged.gpu_hours == 3.0
    assert merged.cluster_utilization == (0.5 * 2 + 0.25 * 6) / 8
    assert merged.store_hits == 8 and merged.store_misses == 1
    assert merged.strategy_switches is None  # no shard has a switcher
    assert merged.cache_tier is None  # not merged
    assert merged.drift_events == {"": 3, "b": 1}
    assert merged.cache_entries == {0: {"a": 3}, 1: {"a": 4}}
    assert merged.autoscale_events == {0: events, 1: []}
    assert merged.fleet_minutes == {0: FleetMinute(0, 8.0), 1: FleetMinute(1, 6.0)}
    stats = merged.admission["a"]
    assert (stats.offered, stats.delayed, stats.mean_wait_s) == (10, 4, 1.0)
    with pytest.raises(ValueError, match="disagree on system"):
        merge_records({0: first, 1: dataclasses.replace(second, system="pac")})


def test_sharded_single_tenant_row_counts_every_shard():
    # Hash mode splits one named tenant's traffic across both shards; its
    # row must count all of it, not the last shard's slice.
    base = get_scenario("steady-baseline")
    tenants = [{"name": "solo", "traffic_share": 1.0, "cache_quota": 300}]
    scenario = dataclasses.replace(base, config={**base.config, "tenants": tenants})
    run = run_scenario(scenario, preset="small", seed=0, shards=2)
    assert run.extras["sharding"]["mode"] == "hash"
    shard_arrivals = [entry["arrivals"] for entry in run.extras["sharding"]["per_shard"]]
    assert min(shard_arrivals) > 0
    row = run.summary.tenant("solo")
    assert row.arrivals == run.summary.total_arrivals == sum(shard_arrivals)
    assert row.completions == run.summary.total_completions
    sequential = run_scenario(scenario, preset="small", seed=0)
    assert row.arrivals == sequential.summary.tenant("solo").arrivals


def test_live_report_bills_its_fixed_fleet():
    async def serve():
        gateway = Gateway(config=ArgusConfig(num_workers=3), time_scale=500.0)
        await gateway.start()
        try:
            status, _ = await gateway.handle_generate({"text": "a lighthouse in fog"})
            assert status == 200
            return gateway.report_dict(duration_minutes=2.0)
        finally:
            await gateway.stop()

    report = asyncio.run(serve())
    assert [row["fleet_workers"] for row in report["minutes"]] == [3.0, 3.0]
    summary = report["summary"]
    assert summary["fleet_mean_workers"] == 3.0
    assert summary["gpu_hours"] == pytest.approx(3 * 2.0 / 60.0)
    price = gpu_by_name(ArgusConfig().gpu).hourly_cost_usd
    assert summary["cost_usd"] == pytest.approx(summary["gpu_hours"] * price)
