"""Tests for the declarative scenario engine, shapes and the repro CLI."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.config import ArgusConfig
from repro.experiments.runner import ExperimentRunner, build_system
from repro.prompts.dataset import PromptDataset
from repro.scenarios import (
    DriftPhase,
    FaultEvent,
    NetworkWindow,
    Preset,
    Scenario,
    TraceSpec,
    get_scenario,
    list_scenarios,
    register,
    run_scenario,
    scenario_names,
    verify_report,
    violations,
)
from repro.scenarios.cli import main as cli_main
from repro.scenarios.contracts import (
    check_load_fleet_scaling,
    check_weight_scaling_noop,
    contract_names,
    parse_contract,
)
from repro.scenarios.runtime import build_config, build_stream
from repro.workloads import tenants as tenants_module
from repro.workloads.replay import PhasedRequestStream
from repro.workloads.shapes import SHAPES, build_shape
from repro.workloads.traces import TraceLibrary


# --------------------------------------------------------------------- #
# Workload shapes
# --------------------------------------------------------------------- #
class TestShapes:
    def test_registry_names(self):
        assert {"steady", "diurnal", "flash-crowd", "ramp", "updown"} <= set(SHAPES)

    def test_unknown_shape(self):
        with pytest.raises(KeyError):
            build_shape("nope")

    def test_steady(self):
        trace = build_shape("steady", duration_minutes=10, qpm=50.0)
        assert trace.duration_minutes == 10
        assert all(q == 50.0 for q in trace.qpm)

    def test_diurnal_trough_to_peak(self):
        trace = build_shape(
            "diurnal", duration_minutes=60, base_qpm=20.0, peak_qpm=100.0, noise=0.0
        )
        assert trace.duration_minutes == 60
        assert trace.qpm[0] == pytest.approx(20.0, abs=1.0)
        assert trace.peak_qpm == pytest.approx(100.0, rel=0.02)

    def test_flash_crowd_spike(self):
        trace = build_shape(
            "flash-crowd",
            duration_minutes=30,
            base_qpm=40.0,
            spike_start_minute=10,
            spike_minutes=5,
            spike_multiplier=3.0,
            noise=0.0,
        )
        assert trace.qpm[9] == pytest.approx(40.0)
        assert trace.qpm[12] == pytest.approx(120.0)
        # Decay tail returns towards baseline.
        assert trace.qpm[-1] == pytest.approx(40.0)

    def test_updown_shape(self):
        trace = build_shape(
            "updown", ramp_minutes=20, descent_minutes=10, start_qpm=10, peak_qpm=100, noise=0.0
        )
        assert trace.duration_minutes == 30
        assert trace.qpm[19] == pytest.approx(100.0)
        assert trace.qpm[-1] < trace.qpm[19]

    def test_shapes_deterministic_per_seed(self):
        a = build_shape("diurnal", seed=3, duration_minutes=40)
        b = build_shape("diurnal", seed=3, duration_minutes=40)
        c = build_shape("diurnal", seed=4, duration_minutes=40)
        assert a.qpm == b.qpm
        assert a.qpm != c.qpm


# --------------------------------------------------------------------- #
# Spec layer
# --------------------------------------------------------------------- #
class TestSpec:
    def test_trace_spec_validation(self):
        with pytest.raises(ValueError):
            TraceSpec(source="weird")
        with pytest.raises(ValueError):
            TraceSpec(source="shape", name="nope")
        with pytest.raises(ValueError):
            TraceSpec(source="replay")

    def test_replay_trace(self):
        spec = TraceSpec(source="replay", qpm=(10.0, 20.0, 30.0), scale=2.0)
        trace = spec.build(seed=0)
        assert trace.qpm == (20.0, 40.0, 60.0)

    def test_preset_trace_param_overrides(self):
        spec = TraceSpec(source="library", name="constant", params={"qpm": 50.0})
        trace = spec.build(seed=0, duration_minutes=5)
        assert trace.duration_minutes == 5
        assert trace.qpm[0] == 50.0

    def test_fault_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(fail_at_minute=5.0)  # neither worker nor fraction
        with pytest.raises(ValueError):
            FaultEvent(fail_at_minute=5.0, worker_id=1, fleet_fraction=0.5)
        with pytest.raises(ValueError):
            FaultEvent(fail_at_minute=5.0, recover_at_minute=4.0, worker_id=1)

    def test_fault_event_worker_ids(self):
        assert FaultEvent(fail_at_minute=1.0, worker_id=3).worker_ids(8) == (3,)
        assert FaultEvent(fail_at_minute=1.0, fleet_fraction=0.5).worker_ids(8) == (0, 1, 2, 3)
        assert FaultEvent(fail_at_minute=1.0, fleet_fraction=0.1).worker_ids(4) == (0,)

    def test_scenario_requires_presets(self):
        with pytest.raises(ValueError):
            Scenario(
                name="x",
                description="d",
                trace=TraceSpec(source="library", name="constant"),
                presets={"small": Preset()},
            )

    def test_preset_drift_override_is_validated(self):
        # Preset-level drift overrides must satisfy the same schedule rules
        # as scenario-level ones (phase 0 at t=0, increasing starts).
        with pytest.raises(ValueError):
            Preset(drift=(DriftPhase(start_minute=30.0, complexity_bias=0.5),))
        with pytest.raises(ValueError):
            Preset(
                drift=(
                    DriftPhase(start_minute=0.0),
                    DriftPhase(start_minute=0.0, complexity_bias=0.5),
                )
            )

    def test_network_window_validation(self):
        with pytest.raises(ValueError):
            NetworkWindow(start_minute=5.0, end_minute=5.0, condition="outage")
        with pytest.raises(ValueError):
            NetworkWindow(start_minute=0.0, end_minute=5.0, condition="weird")

    @pytest.mark.parametrize("name", scenario_names())
    def test_dict_round_trip(self, name):
        scenario = get_scenario(name)
        payload = scenario.to_dict()
        json.dumps(payload)  # must be JSON-serialisable
        assert Scenario.from_dict(payload) == scenario


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_catalog_size(self):
        assert len(list_scenarios()) >= 8

    def test_required_presets(self):
        for scenario in list_scenarios():
            assert {"small", "full"} <= set(scenario.presets)

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            get_scenario("nope")

    @pytest.mark.parametrize("name", scenario_names())
    @pytest.mark.parametrize("preset", ["small", "full"])
    def test_traces_build(self, name, preset):
        scenario = get_scenario(name)
        trace = scenario.trace.build(seed=0, **scenario.preset(preset).trace_params)
        assert trace.duration_minutes > 0


# --------------------------------------------------------------------- #
# Drifting request streams
# --------------------------------------------------------------------- #
class TestPhasedRequestStream:
    def test_phase_validation(self):
        trace = TraceLibrary(seed=0).constant(duration_minutes=2, qpm=30.0)
        ds = PromptDataset.synthetic(count=10, seed=0)
        with pytest.raises(ValueError):
            PhasedRequestStream(trace, phases=[])
        with pytest.raises(ValueError):
            PhasedRequestStream(trace, phases=[(60.0, ds)])
        with pytest.raises(ValueError):
            PhasedRequestStream(trace, phases=[(0.0, ds), (0.0, ds)])

    def test_switches_dataset_at_boundary(self):
        trace = TraceLibrary(seed=0).constant(duration_minutes=4, qpm=60.0)
        early = PromptDataset.synthetic(count=50, seed=1)
        late = PromptDataset.synthetic(count=50, seed=2)
        stream = PhasedRequestStream(trace, phases=[(0.0, early), (120.0, late)], seed=0)
        early_texts = {p.text for p in early}
        late_texts = {p.text for p in late}
        for timed in stream:
            expected = early_texts if timed.arrival_time_s < 120.0 else late_texts
            assert timed.prompt.text in expected

    def test_same_arrival_times_as_plain_stream(self):
        trace = TraceLibrary(seed=0).constant(duration_minutes=3, qpm=40.0)
        ds = PromptDataset.synthetic(count=30, seed=1)
        other = PromptDataset.synthetic(count=30, seed=2)
        plain = [
            t.arrival_time_s
            for t in PhasedRequestStream(trace, phases=[(0.0, ds)], seed=5)
        ]
        phased = [
            t.arrival_time_s
            for t in PhasedRequestStream(trace, phases=[(0.0, ds), (90.0, other)], seed=5)
        ]
        assert plain == phased


# --------------------------------------------------------------------- #
# Running scenarios
# --------------------------------------------------------------------- #
def _min_fleet(run):
    return min(m.fleet_workers for m in run.result.minute_series[1:-1])


#: Behavioural assertion per scenario: the small preset must not just
#: complete, it must exercise what the catalog says it exercises.
SCENARIO_CHECKS = {
    "steady-baseline": lambda run: run.summary.slo_violation_ratio < 0.1,
    "flash-crowd": lambda run: run.trace.peak_qpm > 2.0 * run.trace.qpm[0],
    "diurnal-24h": lambda run: run.trace.peak_qpm > 2.0 * min(run.trace.qpm),
    "autoscale-updown": lambda run: run.summary.workers_added > 0
    and run.summary.fleet_peak_workers > run.config.num_workers,
    "fault-storm": lambda run: _min_fleet(run) < run.config.num_workers,
    "drift-recalibration": lambda run: run.extras["retraining_events"] >= 1,
    "degraded-network": lambda run: run.extras["strategy_switches"] >= 2,
    "cache-cold-start": lambda run: run.config.cache_warm_prompts == 0
    and run.extras["retrieval_hit_rate"] < 1.0,
    "bursty-load-switch": lambda run: run.extras["strategy_switches"] >= 2,
    "fig16-xl": lambda run: run.summary.slo_violation_ratio < 0.1
    and run.summary.total_completions > 500,
    # Sequential leg of the sharded scenario: the elastic fleet must
    # actually scale.
    "sharded-autoscale": lambda run: run.summary.workers_added > 0
    and run.summary.fleet_peak_workers > run.config.num_workers,
    "tenant-fair-share": lambda run: _fair_share_ok(run),
    "tenant-noisy-neighbor": lambda run: _noisy_neighbor_ok(run),
    "tenant-tiered-slo": lambda run: _tiered_slo_ok(run),
    # Chaos family: each check pins the *injected* failure actually biting
    # (the contracts certify the invariants that must survive it).
    "chaos-gray-failure": lambda run: run.system.cluster.workers_degraded >= 2
    and _min_fleet(run) == run.config.num_workers,  # slow, not gone
    "chaos-correlated-failure": lambda run: _min_fleet(run)
    <= run.config.num_workers / 2
    and run.system.cluster.workers_degraded >= 1,
    "chaos-cache-partition": lambda run: run.extras["strategy_switches"] >= 2
    and run.extras["cache_tenants"]["beta"]["entries"]
    == run.extras["cache_tenants"]["beta"]["quota"],
    "chaos-admission-storm": lambda run: _admission_storm_ok(run),
    "chaos-eviction-storm": lambda run: all(
        row["entries"] == row["quota"]
        for row in run.extras["cache_tenants"].values()
    ),
    # Cache-tier family: each check pins the tier mechanism under test
    # actually firing (the cache-tier contract certifies the ledgers).
    "cache-node-failure": lambda run: run.extras["cache_tier"]["shards"] == 3
    and _replica_reads(run) > 0,
    "cache-shard-rebalance": lambda run: run.extras["cache_tier"]["shards"] == 3
    and run.extras["cache_tier"]["moved_entries"] > 0,
    "cache-hot-shard": lambda run: run.extras["cache_tier"]["replication"] == 2
    and _replica_reads(run) > 0,
    "chaos-cache-poison": lambda run: run.extras["cache_tier"]["poison"][
        "entries_poisoned"
    ]
    > 0
    and run.extras["cache_tier"]["poison"]["served"] == 0,
}


def _replica_reads(run) -> int:
    return sum(
        row["replica_reads"]
        for row in run.extras["cache_tier"]["per_shard"].values()
    )


def _admission_storm_ok(run):
    """The flash crowd piles up behind the storm tenant's share alone."""
    storm = run.summary.tenant("storm")
    gold = run.summary.tenant("gold")
    return (
        storm.admission_delayed > 500
        and storm.slo_violation_ratio > 0.3
        and gold.slo_violation_ratio < 0.05
    )


def _fair_share_ok(run):
    """Equal-weight tenants are served near-identically."""
    summary = run.summary
    alpha, beta = summary.tenant("alpha"), summary.tenant("beta")
    balanced = abs(alpha.completions - beta.completions) <= 0.25 * max(
        alpha.completions, beta.completions
    )
    return (
        summary.fair_share_index > 0.98
        and alpha.slo_violation_ratio < 0.05
        and beta.slo_violation_ratio < 0.05
        and balanced
    )


def _noisy_neighbor_ok(run):
    """The flash crowd hurts only the tenant that caused it."""
    quiet = run.summary.tenant("quiet")
    noisy = run.summary.tenant("noisy")
    return (
        quiet.slo_violation_ratio < 0.05
        and noisy.slo_violation_ratio > 0.3
        and noisy.admission_delayed > 100
        and quiet.completions == quiet.arrivals  # nothing of the trickle lost
    )


def _tiered_slo_ok(run):
    """SLO classes order both violations (against own budgets) and latency."""
    gold = run.summary.tenant("gold")
    standard = run.summary.tenant("standard")
    best_effort = run.summary.tenant("best-effort")
    return (
        gold.slo_violation_ratio <= standard.slo_violation_ratio + 0.02
        and standard.slo_violation_ratio <= best_effort.slo_violation_ratio + 0.02
        and gold.p99_latency_s < best_effort.p99_latency_s
        and gold.mean_relative_quality >= gold.quality_floor
    )


#: First 16 hex digits of the sha256 of each cache-tier scenario's small,
#: seed-0 report (``json.dumps(report.to_dict(), sort_keys=True,
#: default=str)``).  A change to the tier's placement, index or tie order
#: that alters any retrieval moves them.
TIER_REPORT_DIGESTS = {
    "cache-node-failure": "c2bb1a6a7a8d4b06",
    "cache-shard-rebalance": "3f9ce05a2ee26c68",
    "cache-hot-shard": "d13982e60191ec17",
    "chaos-cache-poison": "071d2abef53ead65",
}


class TestRunScenarios:
    @pytest.mark.parametrize("name", scenario_names())
    def test_small_preset_completes_and_exercises(self, name):
        run = run_scenario(name, preset="small", seed=0)
        assert run.summary.total_completions > 0
        assert run.summary.total_arrivals >= run.summary.total_completions
        report = run.report()
        assert report.scenario == name
        assert report.preset == "small"
        assert report.seed == 0
        assert len(report.minutes) >= run.trace.duration_minutes
        if name in TIER_REPORT_DIGESTS:
            encoded = json.dumps(report.to_dict(), sort_keys=True, default=str).encode()
            digest = hashlib.sha256(encoded).hexdigest()[:16]
            assert digest == TIER_REPORT_DIGESTS[name]
        check = SCENARIO_CHECKS.get(name)
        if check is not None:
            assert check(run), f"behavioural check failed for {name}"
        # Every registered scenario certifies: its declared contracts must
        # verify straight from the report it just produced.
        failed = violations(verify_report(report, get_scenario(name).contracts))
        assert not failed, f"contract violations for {name}: {[str(r) for r in failed]}"

    def test_pinned_report_holds_when_numpy_makes_every_draw(self, decoder_off):
        name = "cache-node-failure"
        report = run_scenario(name, preset="small", seed=0).report()
        encoded = json.dumps(report.to_dict(), sort_keys=True, default=str).encode()
        assert hashlib.sha256(encoded).hexdigest()[:16] == TIER_REPORT_DIGESTS[name]

    def test_system_override(self):
        run = run_scenario("steady-baseline", preset="small", seed=0, system="clipper-ht")
        assert run.summary.system == "Clipper-HT"

    def test_baselines_honor_cache_warm_prompts(self):
        # cache-cold-start sets cache_warm_prompts=0; every caching system
        # must start with an empty vector index, not just Argus.
        run = run_scenario("cache-cold-start", preset="small", seed=0, system="nirvana")
        assert run.extras["retrieval_hit_rate"] < 1.0

    def test_registry_catalog_matches_checks(self):
        # Every registered scenario should carry a behavioural check so new
        # entries are forced to declare what they exercise.
        assert set(SCENARIO_CHECKS) == set(scenario_names())


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        first = run_scenario("steady-baseline", preset="small", seed=7)
        second = run_scenario("steady-baseline", preset="small", seed=7)
        assert first.summary == second.summary
        assert first.report().to_json() == second.report().to_json()

    def test_different_seed_differs(self):
        first = run_scenario("steady-baseline", preset="small", seed=7)
        other = run_scenario("steady-baseline", preset="small", seed=8)
        assert first.summary != other.summary

    def test_matches_hand_wired_runner(self):
        """steady-baseline small == the equivalent manual ExperimentRunner call."""
        scenario = get_scenario("steady-baseline")
        preset = scenario.preset("small")
        config = ArgusConfig(**{**scenario.config, **preset.config}, seed=7)
        trace = TraceLibrary(seed=7).constant(**preset.trace_params)
        system = build_system("argus", config=config)
        runner = ExperimentRunner(seed=7, dataset_size=preset.dataset_size, drain_s=preset.drain_s)
        hand_wired = runner.run(system, trace)

        via_scenario = run_scenario(scenario, preset="small", seed=7)
        assert via_scenario.summary == hand_wired.summary

    def test_drifting_scenario_deterministic(self):
        first = run_scenario("drift-recalibration", preset="small", seed=3)
        second = run_scenario("drift-recalibration", preset="small", seed=3)
        assert first.summary == second.summary
        assert first.report().to_json() == second.report().to_json()


# --------------------------------------------------------------------- #
# Contracts: the certification layer
# --------------------------------------------------------------------- #
def _contract_report(summary=None, extras=None, minutes=()):
    """A minimal report dict in the exact ScenarioReport JSON shape."""
    payload = {
        "summary": {
            "total_arrivals": 100,
            "total_completions": 90,
            "dropped_requests": 6,
            "fleet_peak_workers": 4,
        },
        "extras": dict(extras or {}),
        "minutes": list(minutes),
    }
    payload["summary"].update(summary or {})
    return payload


def _one(report, contract):
    (result,) = verify_report(report, (contract,))
    return result


class TestContracts:
    def test_vocabulary(self):
        assert contract_names() == [
            "cache-poison",
            "cache-quota",
            "cache-tier",
            "conservation",
            "fairness",
            "fleet-budget",
            "ledger-matches-fleet",
            "slo-ordering",
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            "nope",
            "conservation:1",  # takes no parameter
            "fairness:high",  # not a number
            "fairness:0",  # bound must be in (0, 1]
            "fairness:1.5",
            "slo-ordering:-0.1",  # tolerance must be non-negative
        ],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_contract(bad)

    def test_parse_accepts_parameters(self):
        assert parse_contract("fairness") == ("fairness", None)
        assert parse_contract("fairness:0.9") == ("fairness", 0.9)
        assert parse_contract("slo-ordering:0") == ("slo-ordering", 0.0)

    def test_conservation(self):
        balanced = {"outstanding": {"worker_queues": 3, "admission_backlog": 1}}
        assert _one(_contract_report(extras=balanced), "conservation").passed
        leaky = {"outstanding": {"worker_queues": 0, "admission_backlog": 0}}
        result = _one(_contract_report(extras=leaky), "conservation")
        assert not result.passed and "leaked" in result.detail

    def test_conservation_vacuous_without_accounting(self):
        result = _one(_contract_report(), "conservation")
        assert result.passed and result.vacuous

    def test_fairness_bound(self):
        report = _contract_report(summary={"fair_share_index": 0.85})
        assert _one(report, "fairness").passed  # default bound 0.8
        assert not _one(report, "fairness:0.9").passed
        vacuous = _one(_contract_report(), "fairness")
        assert vacuous.passed and vacuous.vacuous

    def test_slo_ordering(self):
        def tenants(gold, standard):
            return {
                "tenants": [
                    {"slo_class": "gold", "slo_violation_ratio": gold},
                    {"slo_class": "standard", "slo_violation_ratio": standard},
                ]
            }

        # A small inversion sits inside the default 0.02 slack (a tighter
        # class graded against a tighter budget can invert by noise)…
        assert _one(_contract_report(summary=tenants(0.01, 0.0)), "slo-ordering").passed
        # …a real inversion does not, and a zero tolerance allows none.
        assert not _one(
            _contract_report(summary=tenants(0.5, 0.1)), "slo-ordering"
        ).passed
        assert not _one(
            _contract_report(summary=tenants(0.01, 0.0)), "slo-ordering:0"
        ).passed
        single = _contract_report(
            summary={"tenants": [{"slo_class": "gold", "slo_violation_ratio": 0.0}]}
        )
        assert _one(single, "slo-ordering").vacuous

    def test_cache_quota(self):
        within = {"cache_tenants": {"a": {"entries": 10, "quota": 10}}}
        assert _one(_contract_report(extras=within), "cache-quota").passed
        over = {"cache_tenants": {"a": {"entries": 11, "quota": 10}}}
        assert not _one(_contract_report(extras=over), "cache-quota").passed
        unbounded = {"cache_tenants": {"a": {"entries": 999, "quota": None}}}
        assert _one(_contract_report(extras=unbounded), "cache-quota").passed
        assert _one(_contract_report(), "cache-quota").vacuous

    def test_fleet_budget(self):
        budget = {"fleet_budget": {"min_workers": 2, "max_workers": 4}}
        ok = _contract_report(extras=budget, minutes=[{"minute": 0, "fleet_workers": 4.0}])
        assert _one(ok, "fleet-budget").passed
        over_peak = _contract_report(summary={"fleet_peak_workers": 5}, extras=budget)
        assert not _one(over_peak, "fleet-budget").passed
        over_minute = _contract_report(
            extras=budget, minutes=[{"minute": 3, "fleet_workers": 5.0}]
        )
        assert not _one(over_minute, "fleet-budget").passed
        under_min = _contract_report(
            extras={
                **budget,
                "autoscale_events": [
                    {"action": "scale_in", "fleet_size": 1, "time_s": 60.0}
                ],
            }
        )
        assert not _one(under_min, "fleet-budget").passed
        assert _one(_contract_report(), "fleet-budget").vacuous

    def test_fleet_budget_sharded_peak_exemption(self):
        # A sharded merge sums per-shard peaks that need not be simultaneous,
        # so only the sequential peak is held to the global max.
        extras = {
            "sharding": {"autoscale": {"min_workers": 2, "max_workers": 4}},
        }
        report = _contract_report(summary={"fleet_peak_workers": 6}, extras=extras)
        assert _one(report, "fleet-budget").passed

    def test_ledger_matches_fleet(self):
        def barriers(*entries):
            return {
                "sharding": {
                    "autoscale": {"min_workers": 2, "max_workers": 6},
                    "barriers": list(entries),
                }
            }

        good = barriers(
            {"window_end_s": 60.0, "epoch": True, "committed_before_grant": 4,
             "committed_workers": 4, "in_fleet": 3, "failed_workers": 1},
            # The pre-grant ledger is compared with the live fleet; the
            # post-grant ledger (grants not yet applied) only with the budget.
            {"window_end_s": 120.0, "epoch": True, "committed_before_grant": 4,
             "committed_workers": 6, "in_fleet": 3, "failed_workers": 1},
        )
        result = _one(_contract_report(extras=good), "ledger-matches-fleet")
        assert result.passed and not result.vacuous
        assert "at 2 barriers" in result.detail
        drifted = barriers(
            {"window_end_s": 60.0, "epoch": True, "committed_before_grant": 5,
             "committed_workers": 5, "in_fleet": 3, "failed_workers": 1},
        )
        result = _one(_contract_report(extras=drifted), "ledger-matches-fleet")
        assert not result.passed and "live fleet" in result.detail
        out_of_budget = barriers(
            {"window_end_s": 60.0, "epoch": True, "committed_before_grant": 7,
             "committed_workers": 7, "in_fleet": 7, "failed_workers": 0},
        )
        assert not _one(_contract_report(extras=out_of_budget), "ledger-matches-fleet").passed
        # Barriers without a pre-grant ledger compare nothing: vacuous.
        uncompared = barriers(
            {"window_end_s": 60.0, "epoch": True, "committed_workers": 4,
             "in_fleet": 3, "failed_workers": 1},
        )
        assert _one(_contract_report(extras=uncompared), "ledger-matches-fleet").vacuous
        assert _one(_contract_report(), "ledger-matches-fleet").vacuous

    def test_verify_report_accepts_report_objects(self):
        class Boxed:
            def to_dict(self):
                return _contract_report(summary={"fair_share_index": 0.99})

        (result,) = verify_report(Boxed(), ("fairness",))
        assert result.passed and not result.vacuous

    def test_every_scenario_declares_contracts(self):
        for scenario in list_scenarios():
            assert scenario.contracts, f"{scenario.name} declares no contracts"

    def test_registry_rejects_uncertified_scenarios(self):
        def scenario(contracts):
            return Scenario(
                name="uncertified",
                description="d",
                trace=TraceSpec(source="library", name="constant"),
                contracts=contracts,
                presets={"small": Preset(), "full": Preset()},
            )

        with pytest.raises(ValueError, match="declares no contracts"):
            register(scenario(()))
        with pytest.raises(ValueError, match="unknown contract"):
            register(scenario(("conservaton",)))
        assert "uncertified" not in scenario_names()  # rejected before insert


# --------------------------------------------------------------------- #
# Metamorphic contracts: relations between pairs of runs
# --------------------------------------------------------------------- #
class TestMetamorphic:
    def test_weight_doubling_is_a_noop_for_admission(self):
        result = check_weight_scaling_noop("tenant-fair-share", preset="small", seed=0)
        assert result.passed and not result.vacuous, result.detail

    def test_weight_doubling_is_a_noop_for_priority_queues(self):
        # tenant-tiered-slo runs the DRR priority queues with 3:2:1 weights;
        # doubling them must not change the interleaving (the DRR quantum is
        # the weight *ratio*, not the raw weight).
        result = check_weight_scaling_noop("tenant-tiered-slo", preset="small", seed=0)
        assert result.passed and not result.vacuous, result.detail

    def test_weight_scaling_vacuous_without_tenants(self):
        result = check_weight_scaling_noop("steady-baseline", preset="small", seed=0)
        assert result.passed and result.vacuous

    def test_load_and_fleet_scale_together(self):
        # flash-crowd has a real violation spike, so this checks the ratio
        # is preserved under stress, not just that zero stays zero.
        result = check_load_fleet_scaling("flash-crowd", preset="small", seed=0)
        assert result.passed, result.detail


# --------------------------------------------------------------------- #
# Tenancy composed with drift (per-tenant detector state)
# --------------------------------------------------------------------- #
class TestTenantDrift:
    def test_tenants_and_drift_compose(self):
        # Two equal tenants, a mid-run shift to harder prompts: each
        # tenant's *own* detector must notice and trigger a retrain.
        # (This composition used to be rejected outright.)
        scenario = Scenario(
            name="tenants-with-drift",
            description="tenancy composed with classifier drift",
            trace=TraceSpec(
                source="library",
                name="constant",
                params={"duration_minutes": 30, "qpm": 120.0},
            ),
            config={
                "num_workers": 4,
                "classifier_training_prompts": 400,
                "profiling_prompts": 200,
                "classifier_epochs": 8,
                "tenants": [
                    {"name": "alpha", "weight": 1.0, "traffic_share": 0.5},
                    {"name": "beta", "weight": 1.0, "traffic_share": 0.5},
                ],
            },
            drift=(
                DriftPhase(start_minute=0.0, complexity_bias=0.0),
                DriftPhase(start_minute=15.0, complexity_bias=0.55),
            ),
            contracts=("conservation", "fairness:0.9"),
            presets={"small": Preset(dataset_size=1200), "full": Preset(dataset_size=4000)},
        )
        run = run_scenario(scenario, preset="small", seed=0)
        events = run.extras["drift_events"]
        assert set(events) == {"alpha", "beta"}
        assert all(count >= 1 for count in events.values())
        assert run.extras["retraining_events"] >= 2
        assert not violations(verify_report(run.report(), scenario.contracts))


    def test_tenant_prompts_are_tagged_where_they_are_generated(self, monkeypatch):
        """Tenant and phase datasets come out of the generator tagged, so
        the tenant stream copies no prompt to tag it."""
        scenario = replace(
            get_scenario("tenant-fair-share"),
            drift=(DriftPhase(start_minute=0.0), DriftPhase(start_minute=2.0, complexity_bias=0.5)),
        )
        preset = scenario.preset("small")
        config = build_config(scenario, preset, 0)
        trace = scenario.trace.build(seed=0, **preset.trace_params)

        def copied(prompt, **changes):
            raise AssertionError(f"prompt {prompt.prompt_id} copied to tag it")

        monkeypatch.setattr(tenants_module, "replace", copied)
        stream = build_stream(scenario, preset, config, trace, 0)
        assert set(stream._tagged_phases) == {"alpha", "beta"}
        assert {timed.prompt.tenant for timed in stream} == {"alpha", "beta"}


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestCli:
    def test_list_json(self, capsys):
        assert cli_main(["list", "--json"]) == 0
        names = json.loads(capsys.readouterr().out)
        assert names == scenario_names()

    def test_list_table(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_describe(self, capsys):
        assert cli_main(["describe", "fault-storm"]) == 0
        out = capsys.readouterr().out
        assert "fault-storm" in out and "preset" in out

    def test_describe_json_round_trips(self, capsys):
        assert cli_main(["describe", "fault-storm", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert Scenario.from_dict(payload) == get_scenario("fault-storm")

    def test_unknown_scenario_exit_code(self, capsys):
        assert cli_main(["describe", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = cli_main(
            [
                "run",
                "--scenario",
                "steady-baseline",
                "--preset",
                "small",
                "--seed",
                "0",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["scenario"] == "steady-baseline"
        assert payload["preset"] == "small"
        assert payload["summary"]["total_completions"] > 0
        assert len(payload["minutes"]) > 0

    def test_run_check_contracts(self, capsys):
        code = cli_main(
            [
                "run",
                "--scenario",
                "steady-baseline",
                "--preset",
                "small",
                "--seed",
                "0",
                "--check-contracts",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "contracts (steady-baseline):" in out
        assert "conservation ok" in out

    def test_run_check_contracts_quiet_on_pass(self, capsys):
        # --quiet suppresses passing contract output; violations would still
        # print (to stderr) and flip the exit code — that is the CI mode.
        code = cli_main(
            [
                "run",
                "--scenario",
                "steady-baseline",
                "--preset",
                "small",
                "--seed",
                "0",
                "--check-contracts",
                "--quiet",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "" and captured.err == ""


# --------------------------------------------------------------------- #
# Supporting pieces
# --------------------------------------------------------------------- #
class TestSupportingPieces:
    def test_cache_warm_prompts_validation(self):
        with pytest.raises(ValueError):
            ArgusConfig(cache_warm_prompts=-1)

    def test_runner_rejects_stream_for_other_trace(self):
        trace = TraceLibrary(seed=0).constant(duration_minutes=2, qpm=10.0)
        other = TraceLibrary(seed=0).constant(duration_minutes=3, qpm=10.0)
        ds = PromptDataset.synthetic(count=20, seed=0)
        stream = PhasedRequestStream(other, phases=[(0.0, ds)], seed=0)
        runner = ExperimentRunner(seed=0, dataset_size=20)
        config = ArgusConfig(
            num_workers=2, classifier_training_prompts=200, profiling_prompts=100
        )
        system = build_system("clipper-ha", config=config)
        with pytest.raises(ValueError):
            runner.run(system, trace, stream=stream)

    def test_modified_scenario_runs(self):
        """dataclasses.replace composes with the runtime (the example's trick)."""
        scenario = get_scenario("autoscale-updown")
        fixed = replace(
            scenario,
            name="autoscale-updown-fixed",
            config={**scenario.config, "autoscale_enabled": False},
        )
        run = run_scenario(fixed, preset="small", seed=0)
        assert run.summary.workers_added == 0
        assert run.summary.fleet_peak_workers == run.config.num_workers
