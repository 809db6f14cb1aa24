"""Sharded parallel execution: partitioning, barriers, brokering, parity.

The load-bearing guarantees under test:

* ``shards=1`` is *hex-identical* to the sequential runner (same RunSummary
  digest), so sharding is opt-in risk only at N > 1.
* An N-shard run is deterministic (byte-identical reports across repeats),
  and a pinned sharded digest guards the shard protocol against drift.
* The union of the shard arrival slices is exactly the sequential arrival
  sequence, whichever filtering path produced them (coordinator-partitioned
  fast path or shard-side stream filtering).
* The budget broker's ledger matches the live fleet at every barrier.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import re

import pytest

from repro.classifier.drift import TenantDrift
from repro.core.config import ArgusConfig
from repro.scenarios.spec import FaultEvent, Preset, Scenario, TraceSpec
from repro.scenarios.runtime import build_config, build_stream, run_scenario
from repro.simulation import shard as shard_mod
from repro.simulation.shard import (
    ShardSpec,
    _map_faults,
    _partition_arrivals,
    _split_workers,
    _tenant_sliced_stream,
    plan_shards,
    run_scenario_sharded,
)


def _scenario(
    num_workers: int = 8,
    tenants=None,
    dataset_size: int = 120,
    duration: int = 8,
    base_qpm: float = 30.0,
    peak_qpm: float = 48.0,
    faults=(),
    **config_extra,
):
    config = {"num_workers": num_workers, **config_extra}
    if tenants is not None:
        config["tenants"] = tenants
    preset = Preset(
        dataset_size=dataset_size,
        trace_params={
            "duration_minutes": duration,
            "base_qpm": base_qpm,
            "peak_qpm": peak_qpm,
        },
    )
    return Scenario(
        name="shard-test",
        description="inline sharding test scenario",
        trace=TraceSpec(source="library", name="twitter"),
        config=config,
        faults=faults,
        presets={"full": preset, "small": preset},
    )


_TENANTS = [
    {"name": "alpha", "traffic_share": 0.5},
    {"name": "beta", "traffic_share": 0.3},
    {"name": "gamma", "traffic_share": 0.2},
]


def _digest(run) -> str:
    return hashlib.sha256(
        json.dumps(run.summary.as_dict(), sort_keys=True, default=str).encode()
    ).hexdigest()


def _report(run) -> str:
    """Full deterministic report: summary + extras (barrier log included)."""
    return json.dumps(
        {"summary": run.summary.as_dict(), "extras": run.extras},
        sort_keys=True,
        default=str,
    )


# --------------------------------------------------------------------------- #
# Partition planning
# --------------------------------------------------------------------------- #


class TestPlanning:
    def test_split_workers_sums_and_floors(self):
        counts = _split_workers(10, [5.0, 1.0, 0.0])
        assert sum(counts) == 10
        assert min(counts) >= 1
        assert counts[0] > counts[1]

    def test_split_workers_even_for_equal_weights(self):
        assert _split_workers(8, [1.0, 1.0, 1.0, 1.0]) == [2, 2, 2, 2]

    def test_split_workers_rejects_too_few(self):
        with pytest.raises(ValueError, match="cannot split"):
            _split_workers(2, [1.0, 1.0, 1.0])

    def test_hash_mode_for_single_tenant(self):
        config = ArgusConfig(num_workers=8, shards=4)
        plan = plan_shards(config)
        assert plan.mode == "hash"
        assert [s.num_workers for s in plan.shards] == [2, 2, 2, 2]
        assert all(s.tenant_names is None for s in plan.shards)

    def test_tenant_mode_places_whole_tenants(self):
        config = ArgusConfig(num_workers=8, shards=2, tenants=_TENANTS)
        plan = plan_shards(config)
        assert plan.mode == "tenant"
        placed = [name for spec in plan.shards for name in spec.tenant_names]
        assert sorted(placed) == ["alpha", "beta", "gamma"]
        assert sum(s.num_workers for s in plan.shards) == 8

    def test_hash_spec_accepts_partitions_prompts(self):
        from repro.prompts.dataset import PromptDataset

        specs = [ShardSpec(shard_id=i, num_shards=3, num_workers=1) for i in range(3)]
        for prompt in PromptDataset.synthetic(count=50, seed=1).prompts:
            owners = [spec.shard_id for spec in specs if spec.accepts(prompt)]
            assert len(owners) == 1


class TestConfigValidation:
    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            ArgusConfig(num_workers=4, shards=0)

    def test_rejects_more_shards_than_workers(self):
        with pytest.raises(ValueError):
            ArgusConfig(num_workers=2, shards=4)

    def test_rejects_more_shards_than_tenants(self):
        with pytest.raises(ValueError):
            ArgusConfig(num_workers=8, shards=3, tenants=_TENANTS[:2])

    def test_accepts_autoscaling_with_shards(self):
        # PR 7 lifted the shards × autoscale rejection: per-shard loops run
        # in brokered mode under the coordinator's global budget.
        config = ArgusConfig(num_workers=8, shards=2, autoscale_enabled=True)
        assert config.autoscale_enabled and config.shards == 2

    def test_rejects_nonpositive_autoscale_epoch(self):
        with pytest.raises(ValueError, match="autoscale_epoch_s"):
            ArgusConfig(num_workers=4, autoscale_epoch_s=0.0)


# --------------------------------------------------------------------------- #
# Stream slicing
# --------------------------------------------------------------------------- #


def _stream_for(scenario, seed=0):
    preset = scenario.preset("full")
    config = build_config(scenario, preset, seed)
    trace = scenario.trace.build(seed=seed, **preset.trace_params)
    return build_stream(scenario, preset, config, trace, seed)


class TestStreamSlicing:
    def test_partitioned_slices_union_to_full_stream(self):
        scenario = _scenario()
        stream = _stream_for(scenario)
        config = build_config(
            scenario, scenario.preset("full"), 0, extra={"shards": 3}
        )
        plan = plan_shards(config)
        split = _partition_arrivals(stream, plan)
        assert split is not None and len(split) == 3
        assert all(entry["kind"] == "replay" for entry in split)
        merged = sorted(
            (float(t), int(slot))
            for entry in split
            for t, slot in zip(entry["times"], entry["slots"])
        )
        full = [
            (tp.arrival_time_s, tp.prompt.prompt_id % len(stream.dataset))
            for tp in stream
        ]
        assert [t for t, _ in merged] == [t for t, _ in full]
        # each arrival keeps its exact sequential prompt slot
        dataset = stream.dataset
        for (_, slot), (_, expected_slot) in zip(merged, full):
            assert dataset[slot].prompt_id % len(dataset) == expected_slot

    def test_partition_arrivals_declines_phased_streams(self):
        scenario = _scenario()
        stream = _stream_for(scenario)
        config = build_config(scenario, scenario.preset("full"), 0, extra={"shards": 2})
        plan = plan_shards(config)

        class NotARequestStream:
            pass

        assert _partition_arrivals(NotARequestStream(), plan) is None

    def test_partition_arrivals_slices_tenant_streams(self):
        # Tenant arrivals are lazy per-tenant draws, so the coordinator
        # hands each shard its tenant *indices* and the shard heap-merges
        # only those streams — no per-shard walk of the full interleave.
        scenario = _scenario(tenants=_TENANTS)
        stream = _stream_for(scenario)
        config = build_config(scenario, scenario.preset("full"), 0, extra={"shards": 3})
        plan = plan_shards(config)
        split = _partition_arrivals(stream, plan)
        assert split is not None and len(split) == 3
        assert all(entry["kind"] == "tenant_indices" for entry in split)
        covered = sorted(index for entry in split for index in entry["indices"])
        assert covered == [0, 1, 2]

    def test_tenant_sliced_stream_matches_generic_filter(self):
        scenario = _scenario(tenants=_TENANTS)
        stream = _stream_for(scenario)
        config = build_config(scenario, scenario.preset("full"), 0, extra={"shards": 2})
        plan = plan_shards(config)
        split = _partition_arrivals(stream, plan)
        for spec, entry in zip(plan.shards, split):
            sliced = [
                (tp.arrival_time_s, tp.prompt.tenant, tp.prompt.prompt_id)
                for tp in _tenant_sliced_stream(stream, entry["indices"])
            ]
            filtered = [
                (tp.arrival_time_s, tp.prompt.tenant, tp.prompt.prompt_id)
                for tp in stream
                if spec.accepts(tp.prompt)
            ]
            assert sliced == filtered


# --------------------------------------------------------------------------- #
# End-to-end sharded runs
# --------------------------------------------------------------------------- #


class TestShardedRuns:
    def test_one_shard_hex_identical_to_sequential(self):
        sequential = run_scenario("fig16-xl", preset="small", seed=7)
        sharded = run_scenario_sharded("fig16-xl", preset="small", seed=7, shards=1)
        assert _digest(sharded) == _digest(sequential)

    def test_nshard_run_is_deterministic(self):
        scenario = _scenario()
        first = run_scenario_sharded(scenario, preset="full", seed=3, shards=3)
        second = run_scenario_sharded(scenario, preset="full", seed=3, shards=3)
        assert _report(first) == _report(second)

    def test_fixed_fleet_run_barriers_once_and_keeps_its_pinned_digest(self):
        # The fig16-xl small leg (2 shards, seed 0).  A protocol change that
        # moves a sharded result fails here.  The digest recorded in
        # benchmarks/perf/baseline_shard_small.json predates the removal of
        # mean_batch_occupancy from the summary, and no check reads it.
        run = run_scenario_sharded("fig16-xl", preset="small", seed=0, shards=2)
        assert run.extras["sharding"]["windows"] == 1
        assert _digest(run) == (
            "6c89f272cca4a7f6afce555c65ac1c610c45f70c34495a45b35a7aba8739aa04"
        )

    def test_drift_events_merge_per_tenant(self, monkeypatch):
        run = run_scenario_sharded("tenant-fair-share", preset="small", seed=0, shards=2)
        assert set(run.extras["drift_events"]) == {"alpha", "beta"}
        run = run_scenario_sharded("fig16-xl", preset="small", seed=0, shards=2)
        assert run.extras["drift_events"] == {"": 0}
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("shards inherit the patch below only when forked")
        # Each forked shard reports one event; the merge sums them.
        monkeypatch.setattr(TenantDrift, "events", lambda self: {"": 1})
        run = run_scenario_sharded("fig16-xl", preset="small", seed=0, shards=2)
        assert run.extras["drift_events"] == {"": 2}

    def test_coordinator_builds_the_stream_once(self, monkeypatch):
        import repro.scenarios.runtime as runtime_mod

        calls = []
        build_stream = runtime_mod.build_stream

        def counting_build_stream(*args, **kwargs):
            calls.append(args[0].name)
            return build_stream(*args, **kwargs)

        # Shard processes rebuild the stream too, but in their own memory.
        monkeypatch.setattr(runtime_mod, "build_stream", counting_build_stream)
        run_scenario_sharded(_scenario(), preset="full", seed=1, shards=2)
        assert len(calls) == 1

    def test_coordinator_partitioning_matches_shard_side_filtering(self, monkeypatch):
        scenario = _scenario()
        fast = run_scenario_sharded(scenario, preset="full", seed=5, shards=3)
        monkeypatch.setattr(shard_mod, "_partition_arrivals", lambda stream, plan: None)
        slow = run_scenario_sharded(scenario, preset="full", seed=5, shards=3)
        assert _report(fast) == _report(slow)

    def test_arrivals_conserved_across_shards(self):
        scenario = _scenario()
        sequential = run_scenario(scenario, preset="full", seed=4)
        sharded = run_scenario_sharded(scenario, preset="full", seed=4, shards=3)
        per_shard = sharded.extras["sharding"]["per_shard"]
        assert (
            sum(row["arrivals"] for row in per_shard)
            == sequential.summary.total_arrivals
        )
        assert sharded.summary.total_arrivals == sequential.summary.total_arrivals

    def test_tenant_mode_preserves_per_tenant_arrivals(self):
        scenario = _scenario(tenants=_TENANTS)
        sequential = run_scenario(scenario, preset="full", seed=2)
        sharded = run_scenario_sharded(scenario, preset="full", seed=2, shards=3)
        seq_tenants = {t.name: t.arrivals for t in sequential.summary.tenants}
        shard_tenants = {t.name: t.arrivals for t in sharded.summary.tenants}
        assert shard_tenants == seq_tenants

    def test_worker_id_faults_are_rejected_naming_the_alternative(self):
        scenario = _scenario(faults=(FaultEvent(fail_at_minute=2.0, worker_id=0),))
        with pytest.raises(ValueError, match="worker faults") as excinfo:
            run_scenario_sharded(scenario, preset="full", seed=0, shards=2)
        assert "fleet_fraction" in str(excinfo.value)

    def test_sharding_extras_describe_the_plan(self):
        run = run_scenario_sharded(_scenario(), preset="full", seed=1, shards=2)
        sharding = run.extras["sharding"]
        assert sharding["shards"] == 2
        assert sharding["simulated"] == (
            "2 isolated sub-fleets, their results merged: "
            "no request was routed or queued across shards"
        )
        assert sharding["mode"] == "hash"
        assert len(sharding["plan"]) == 2
        assert sum(p["workers"] for p in sharding["plan"]) == 8
        assert sharding["barriers"][-1]["window_end_s"] >= 8 * 60.0
        # knobs-off runs carry no control-plane blocks (pinned no-op)
        assert "autoscale" not in sharding


# --------------------------------------------------------------------------- #
# Fault injection in sharded runs
# --------------------------------------------------------------------------- #


class TestShardedFaults:
    def test_map_faults_covers_the_sequential_fault_set(self):
        scenario = _scenario()
        config = build_config(scenario, scenario.preset("full"), 0, extra={"shards": 3})
        plan = plan_shards(config)
        event = FaultEvent(fail_at_minute=1.0, recover_at_minute=3.0, fleet_fraction=0.5)
        mapped = _map_faults((event,), plan, config.num_workers)
        # reconstruct global ids from the shard-local ones: shard s owns the
        # contiguous block after the earlier partitions
        starts, offset = {}, 0
        for spec in plan.shards:
            starts[spec.shard_id] = offset
            offset += spec.num_workers
        reconstructed = sorted(
            starts[shard_id] + local_id
            for shard_id, entries in mapped.items()
            for local_id, _fail, _recover, _degrade in entries
        )
        assert reconstructed == sorted(event.worker_ids(config.num_workers))
        for entries in mapped.values():
            for _local, fail_s, recover_s, degrade in entries:
                assert fail_s == 60.0 and recover_s == 180.0
                assert degrade is None  # hard crash, not a gray failure

    def test_fleet_fraction_faults_run_deterministically(self):
        scenario = _scenario(
            faults=(
                FaultEvent(fail_at_minute=2.0, recover_at_minute=5.0, fleet_fraction=0.5),
            )
        )
        baseline = run_scenario(
            _scenario(), preset="full", seed=4
        )  # same workload, no faults
        first = run_scenario_sharded(scenario, preset="full", seed=4, shards=2)
        second = run_scenario_sharded(scenario, preset="full", seed=4, shards=2)
        assert _report(first) == _report(second)
        # the fault window visibly degrades service relative to no faults
        assert first.summary.total_arrivals == baseline.summary.total_arrivals
        assert _digest(first) != _digest(baseline)

    def test_map_faults_leaves_unfaulted_shards_empty(self):
        # A 10% fraction of 8 workers faults exactly worker 0: the shards
        # owning the later id blocks must get an entry list, but an empty
        # one — never a spurious local fault.
        scenario = _scenario()
        config = build_config(scenario, scenario.preset("full"), 0, extra={"shards": 3})
        plan = plan_shards(config)
        event = FaultEvent(fail_at_minute=1.0, fleet_fraction=0.1)
        mapped = _map_faults((event,), plan, config.num_workers)
        assert set(mapped) == {spec.shard_id for spec in plan.shards}
        first = plan.shards[0].shard_id
        assert [local for local, *_ in mapped[first]] == [0]
        assert all(not mapped[spec.shard_id] for spec in plan.shards[1:])

    @pytest.mark.parametrize("fraction", [0.1, 0.33, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("num_workers,shards", [(7, 3), (8, 3), (9, 4)])
    def test_map_faults_rounding_parity_with_sequential(
        self, fraction, num_workers, shards
    ):
        # Whatever round(frac x fleet) resolves to — including uneven worker
        # splits where shard blocks differ in size — the union of shard-local
        # faults must be exactly the sequential run's faulted id set.
        scenario = _scenario(num_workers=num_workers)
        config = build_config(
            scenario, scenario.preset("full"), 0, extra={"shards": shards}
        )
        plan = plan_shards(config)
        event = FaultEvent(fail_at_minute=1.0, fleet_fraction=fraction)
        mapped = _map_faults((event,), plan, config.num_workers)
        starts, offset = {}, 0
        for spec in plan.shards:
            starts[spec.shard_id] = offset
            offset += spec.num_workers
        reconstructed = sorted(
            starts[shard_id] + local_id
            for shard_id, entries in mapped.items()
            for local_id, *_ in entries
        )
        assert reconstructed == sorted(event.worker_ids(num_workers))

    def test_map_faults_carries_the_degrade_factor(self):
        scenario = _scenario()
        config = build_config(scenario, scenario.preset("full"), 0, extra={"shards": 2})
        plan = plan_shards(config)
        event = FaultEvent(
            fail_at_minute=1.0, recover_at_minute=2.0, fleet_fraction=0.5,
            degrade_factor=0.4,
        )
        mapped = _map_faults((event,), plan, config.num_workers)
        factors = [
            degrade
            for entries in mapped.values()
            for _local, _fail, _recover, degrade in entries
        ]
        assert factors and all(factor == 0.4 for factor in factors)

    def test_worker_id_faults_are_rejected_with_guidance(self):
        scenario = _scenario(
            faults=(FaultEvent(fail_at_minute=1.0, worker_id=3),)
        )
        with pytest.raises(ValueError, match="worker faults by worker_id"):
            run_scenario_sharded(scenario, preset="full", seed=0, shards=2)


# --------------------------------------------------------------------------- #
# Brokered autoscaling
# --------------------------------------------------------------------------- #


def _autoscaled_scenario():
    """A fig16-xl-class overload: demand far above the initial fleet, so the
    per-shard loops must ask the broker for workers to keep up."""
    return _scenario(
        num_workers=4,
        base_qpm=60.0,
        peak_qpm=240.0,
        duration=8,
        autoscale_enabled=True,
        min_workers=2,
        max_workers=10,
        provision_delay_s=30.0,
        autoscale_epoch_s=60.0,
    )


class TestBrokeredAutoscaling:
    def test_autoscaled_run_is_deterministic(self):
        scenario = _autoscaled_scenario()
        for shards in (2, 4):
            first = run_scenario_sharded(scenario, preset="full", seed=3, shards=shards)
            repeat = run_scenario_sharded(scenario, preset="full", seed=3, shards=shards)
            assert _report(first) == _report(repeat)
            # Barriers sit on the autoscale epoch grid (plus the run's end).
            barriers = first.extras["sharding"]["barriers"]
            assert all(b["epoch"] for b in barriers[:-1])
            assert [b["window_end_s"] for b in barriers[:-1]] == [
                60.0 * k for k in range(1, len(barriers))
            ]

    def test_autoscaled_run_never_exceeds_the_global_budget(self):
        scenario = _autoscaled_scenario()
        run = run_scenario_sharded(scenario, preset="full", seed=3, shards=4)
        auto = run.extras["sharding"]["autoscale"]
        granted = [g for g in auto["grants"] if g["granted"] > 0]
        assert granted, "overload scenario must produce at least one grant"
        assert auto["max_workers"] == 10
        for barrier in run.extras["sharding"]["barriers"]:
            assert barrier["in_fleet"] <= auto["max_workers"]
            assert barrier["committed_workers"] <= auto["max_workers"]
            assert barrier["committed_workers"] >= 0
        assert sum(auto["committed"].values()) <= auto["max_workers"]

    def test_broker_ledger_matches_fleet_under_fault_storm(self):
        # Under overload and overlapping fleet faults, the ledger read
        # before each barrier's grants == active + provisioning + failed
        # workers at every barrier; the post-grant ledger stays inside the
        # budget.
        scenario = _scenario(
            num_workers=4,
            base_qpm=60.0,
            peak_qpm=240.0,
            duration=8,
            autoscale_enabled=True,
            min_workers=2,
            max_workers=10,
            provision_delay_s=30.0,
            autoscale_epoch_s=60.0,
            faults=(
                FaultEvent(fail_at_minute=2.0, recover_at_minute=5.0, fleet_fraction=0.5),
                FaultEvent(fail_at_minute=3.0, recover_at_minute=6.0, fleet_fraction=0.25),
            ),
        )
        run = run_scenario_sharded(scenario, preset="full", seed=3, shards=2)
        barriers = run.extras["sharding"]["barriers"]
        assert any(b["failed_workers"] for b in barriers)
        assert any(b["committed_workers"] != b["committed_before_grant"] for b in barriers)
        for barrier in barriers:
            assert (
                barrier["committed_before_grant"]
                == barrier["in_fleet"] + barrier["failed_workers"]
            ), f"ledger drift at t={barrier['window_end_s']}"
        max_workers = run.extras["sharding"]["autoscale"]["max_workers"]
        for barrier in barriers:
            assert barrier["in_fleet"] <= max_workers
            assert barrier["committed_workers"] <= max_workers

    def test_skipped_scale_in_grant_is_handed_back_to_the_ledger(self):
        # A light load earns a scale-in grant at the 240 s epoch, but the
        # whole fleet fails at 210 s: the shard finds no worker to drain and
        # skips the grant.  Unless the coordinator hands that worker back to
        # the broker ledger, the ledger runs one worker low from then on.
        scenario = _scenario(
            num_workers=4,
            base_qpm=4.0,
            peak_qpm=6.0,
            duration=8,
            autoscale_enabled=True,
            min_workers=2,
            max_workers=4,
            autoscale_interval_s=25.0,
            faults=(
                FaultEvent(fail_at_minute=3.5, recover_at_minute=6.0, fleet_fraction=1.0),
            ),
        )
        run = run_scenario_sharded(scenario, preset="full", seed=3, shards=2)
        auto = run.extras["sharding"]["autoscale"]
        granted = sum(g["granted"] for g in auto["grants"] if g["action"] == "scale_in")
        applied = sum(
            1
            for events in auto["events"].values()
            for event in events
            if event["action"] == "scale_in"
        )
        assert applied < granted, "the scenario must skip a granted scale-in"
        for barrier in run.extras["sharding"]["barriers"]:
            assert (
                barrier["committed_before_grant"]
                == barrier["in_fleet"] + barrier["failed_workers"]
            ), f"ledger drift at t={barrier['window_end_s']}"

    def test_scaled_fleet_serves_more_than_the_static_fleet(self):
        scenario = _autoscaled_scenario()
        static = _scenario(
            num_workers=4, base_qpm=60.0, peak_qpm=240.0, duration=8
        )
        scaled_run = run_scenario_sharded(scenario, preset="full", seed=9, shards=2)
        static_run = run_scenario_sharded(static, preset="full", seed=9, shards=2)
        assert scaled_run.summary.fleet_peak_workers > static_run.summary.fleet_peak_workers
        assert scaled_run.summary.total_completions >= static_run.summary.total_completions


# --------------------------------------------------------------------------- #
# Contract verification over sharded merges
# --------------------------------------------------------------------------- #


class TestShardedContracts:
    def test_sharded_report_satisfies_contracts_non_vacuously(self):
        # The contracts are functions of the report dict, so the sharded
        # merge must carry enough accounting (outstanding queues, admission
        # backlog, broker budget, barrier ledger) for conservation,
        # fleet-budget and ledger-matches-fleet to engage for real.
        from repro.scenarios.contracts import verify_report, violations

        run = run_scenario_sharded(
            _autoscaled_scenario(), preset="full", seed=3, shards=2
        )
        contracts = ("conservation", "fleet-budget", "ledger-matches-fleet")
        results = verify_report(run.report(), contracts)
        assert not violations(results), [str(r) for r in results]
        assert all(not r.vacuous for r in results), [str(r) for r in results]
        ledger = next(r for r in results if r.contract == "ledger-matches-fleet")
        compared = int(re.search(r"at (\d+) barriers", ledger.detail).group(1))
        assert compared == len(run.extras["sharding"]["barriers"]) > 0
