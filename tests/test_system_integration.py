"""Integration tests: ArgusSystem and the baselines serving real workloads.

These run short (a few simulated minutes) end-to-end simulations, so they
exercise the full path: arrival -> classifier -> PASM -> worker selection ->
cache retrieval -> completion -> metrics.
"""

from __future__ import annotations

import pytest

from repro.baselines.clipper import ClipperSystem
from repro.baselines.nirvana import NirvanaSystem
from repro.baselines.pac import PacSystem
from repro.baselines.proteus import ProteusSystem
from repro.baselines.sommelier import SommelierSystem
from repro.cache.network import NetworkCondition
from repro.core.config import ArgusConfig
from repro.core.system import ArgusSystem
from repro.experiments.runner import ExperimentRunner, build_system
from repro.models.zoo import Strategy
from repro.prompts.dataset import PromptDataset
from repro.workloads.traces import TraceLibrary


def small_config(**overrides) -> ArgusConfig:
    defaults = dict(
        num_workers=4,
        classifier_training_prompts=300,
        profiling_prompts=150,
        classifier_epochs=8,
    )
    defaults.update(overrides)
    return ArgusConfig(**defaults)


@pytest.fixture(scope="module")
def training_dataset():
    return PromptDataset.synthetic(count=300, seed=77)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(seed=0, dataset_size=400, drain_s=60.0)


@pytest.fixture(scope="module")
def light_trace():
    return TraceLibrary(seed=0).constant(duration_minutes=8, qpm=40.0)


@pytest.fixture(scope="module")
def heavy_trace():
    # ~75% of the 4-worker cluster's fastest-level capacity: high enough to
    # force approximation, low enough that the SLO is attainable.
    return TraceLibrary(seed=0).constant(duration_minutes=8, qpm=78.0)


class TestArgusSystem:
    def test_serves_light_load_at_full_quality(self, runner, light_trace, training_dataset):
        system = ArgusSystem(config=small_config(), training_dataset=training_dataset)
        result = runner.run(system, light_trace)
        assert result.summary.total_completions > 250
        assert result.summary.slo_violation_ratio < 0.02
        assert result.summary.mean_relative_quality > 0.95
        assert result.summary.dropped_requests == 0

    def test_adapts_under_heavy_load(self, runner, heavy_trace, training_dataset):
        # 78 QPM on 4 workers exceeds the K=0 capacity (~57 QPM), so Argus
        # must raise approximation levels to keep serving within the SLO.
        system = ArgusSystem(config=small_config(), training_dataset=training_dataset)
        served_ranks = set()
        on_sample = system.on_sample

        def record_rank(sample, completed):
            served_ranks.add(completed.effective_rank)
            on_sample(sample, completed)

        system.on_sample = record_rank
        result = runner.run(system, heavy_trace)
        assert result.summary.mean_served_qpm > 70.0
        assert result.summary.slo_violation_ratio < 0.15
        assert max(served_ranks) > 0

    def test_uses_approximate_caching_by_default(self, runner, heavy_trace, training_dataset):
        system = ArgusSystem(config=small_config(), training_dataset=training_dataset)
        result = runner.run(system, heavy_trace)
        assert system.active_strategy is Strategy.AC
        assert result.extras["cache_hit_rate"] > 0.5
        assert system.cluster.total_model_loads() == 0

    def test_quality_beats_prompt_agnostic_under_load(self, runner, heavy_trace, training_dataset):
        argus = ArgusSystem(config=small_config(), training_dataset=training_dataset)
        pac = PacSystem(config=small_config(), training_dataset=training_dataset)
        argus_result = runner.run(argus, heavy_trace)
        pac_result = runner.run(pac, heavy_trace)
        assert (
            argus_result.summary.mean_pickscore
            >= pac_result.summary.mean_pickscore - 0.05
        )

    def test_switches_to_sm_on_cache_outage(self, training_dataset):
        config = small_config(retrieval_violations_to_switch=5)
        system = ArgusSystem(config=config, training_dataset=training_dataset)
        system.network.schedule_condition(120.0, 100000.0, NetworkCondition.OUTAGE)
        trace = TraceLibrary(seed=0).constant(duration_minutes=10, qpm=60.0)
        runner = ExperimentRunner(seed=1, dataset_size=300, drain_s=60.0)
        runner.run(system, trace)
        assert system.num_strategy_switches() >= 1
        assert system.active_strategy is Strategy.SM

    def test_switches_back_when_network_recovers(self, training_dataset):
        config = small_config(retrieval_violations_to_switch=5)
        system = ArgusSystem(config=config, training_dataset=training_dataset)
        system.network.schedule_condition(100.0, 220.0, NetworkCondition.OUTAGE)
        trace = TraceLibrary(seed=0).constant(duration_minutes=12, qpm=60.0)
        ExperimentRunner(seed=1, dataset_size=300, drain_s=60.0).run(system, trace)
        assert system.num_strategy_switches() >= 2
        assert system.active_strategy is Strategy.AC

    def test_gpu_failure_recovery(self, training_dataset):
        system = ArgusSystem(config=small_config(), training_dataset=training_dataset)
        system.cluster.schedule_failure(0, fail_at_s=120.0, recover_at_s=300.0)
        system.cluster.schedule_failure(1, fail_at_s=120.0, recover_at_s=300.0)
        trace = TraceLibrary(seed=0).constant(duration_minutes=10, qpm=50.0)
        result = ExperimentRunner(seed=2, dataset_size=300, drain_s=60.0).run(system, trace)
        # The system keeps serving through the failure window.
        assert result.summary.total_completions > 0.9 * result.summary.total_arrivals

    def test_prompt_agnostic_flag_renames_system(self, training_dataset):
        pac = ArgusSystem(
            config=small_config(), prompt_aware=False, training_dataset=training_dataset
        )
        assert pac.name == "PAC"
        assert pac.classifiers == {}


class TestBaselines:
    def test_clipper_ha_overloads_under_heavy_load(self, runner, heavy_trace):
        system = ClipperSystem(mode="HA", config=small_config())
        result = runner.run(system, heavy_trace)
        assert result.summary.slo_violation_ratio > 0.3
        assert result.summary.mean_relative_quality > 0.95

    def test_clipper_ht_fast_but_low_quality(self, runner, heavy_trace):
        system = ClipperSystem(mode="HT", config=small_config())
        result = runner.run(system, heavy_trace)
        assert result.summary.slo_violation_ratio < 0.1
        assert result.summary.mean_relative_quality < 0.9

    def test_clipper_invalid_mode(self):
        with pytest.raises(ValueError):
            ClipperSystem(mode="XX")

    def test_proteus_switches_models(self, runner, training_dataset):
        trace = TraceLibrary(seed=0).bursty(duration_minutes=12, low_qpm=35, high_qpm=90)
        system = ProteusSystem(config=small_config(), training_dataset=training_dataset)
        result = runner.run(system, trace)
        assert system.active_strategy is Strategy.SM
        assert result.summary.model_loads > 0
        assert result.summary.total_completions > 0

    def test_nirvana_is_prompt_aware_but_not_load_adaptive(
        self, runner, heavy_trace, training_dataset
    ):
        system = NirvanaSystem(config=small_config(), training_dataset=training_dataset)
        result = runner.run(system, heavy_trace)
        # High quality but many SLO violations under load (Fig. 16/17).
        assert result.summary.mean_relative_quality > 0.9
        assert result.summary.slo_violation_ratio > 0.3

    def test_sommelier_adjusts_per_worker(self, runner, heavy_trace):
        system = SommelierSystem(config=small_config())
        result = runner.run(system, heavy_trace)
        ranks = set(system.cluster.level_assignment().values())
        assert len(ranks) >= 1
        assert result.summary.model_loads > 0

    def test_build_system_factory(self, training_dataset):
        for name in ("argus", "pac", "proteus", "sommelier", "nirvana", "clipper-ha", "clipper-ht"):
            system = build_system(
                name, config=small_config(), training_dataset=training_dataset
            )
            assert system.config.num_workers == 4
        with pytest.raises(KeyError):
            build_system("unknown")


class TestEndToEndComparison:
    def test_argus_dominates_scalable_baselines(self, training_dataset):
        """Core Fig. 16 claim on a short bursty slice: Argus keeps SLO
        violations low while holding quality above the SM-only baselines."""
        trace = TraceLibrary(seed=3).bursty(duration_minutes=14, low_qpm=40, high_qpm=80)
        runner = ExperimentRunner(seed=3, dataset_size=500, drain_s=60.0)
        results = {}
        for name in ("argus", "proteus", "clipper-ht"):
            system = build_system(name, config=small_config(), training_dataset=training_dataset)
            results[name] = runner.run(system, trace)
        argus = results["argus"].summary
        proteus = results["proteus"].summary
        clipper_ht = results["clipper-ht"].summary
        assert argus.slo_violation_ratio <= proteus.slo_violation_ratio + 0.02
        assert argus.mean_pickscore > proteus.mean_pickscore
        assert argus.mean_pickscore > clipper_ht.mean_pickscore
        assert argus.mean_served_qpm >= 0.95 * proteus.mean_served_qpm
