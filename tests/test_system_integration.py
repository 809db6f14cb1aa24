"""Integration tests: ArgusSystem and the baselines serving real workloads.

These run short (a few simulated minutes) end-to-end simulations, so they
exercise the full path: arrival -> classifier -> PASM -> worker selection ->
cache retrieval -> completion -> metrics.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing

import pytest

from repro.baselines.clipper import ClipperSystem
from repro.baselines.nirvana import NirvanaSystem
from repro.baselines.pac import PacSystem
from repro.baselines.proteus import ProteusSystem
from repro.baselines.sommelier import SommelierSystem
from repro.cache.network import NetworkCondition
from repro.core import base
from repro.core.base import BaseServingSystem, Route
from repro.core.config import ArgusConfig
from repro.core.system import ArgusSystem
from repro.experiments.runner import ExperimentRunner, build_system
from repro.models.zoo import Strategy
from repro.prompts.dataset import PromptDataset
from repro.scenarios import run_scenario
from repro.workloads.replay import RequestStream, TimedPrompt
from repro.workloads.traces import TraceLibrary, WorkloadTrace


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


@pytest.fixture()
def prompts():
    return PromptDataset.synthetic(count=40, seed=11).prompts


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


def _report_digest(run) -> str:
    encoded = json.dumps(run.report().to_dict(), sort_keys=True, default=str).encode()
    return hashlib.sha256(encoded).hexdigest()


class TestDeferredQuality:
    """Completions' PickScores are settled in batches, which no report may
    notice: settling each completion at once gives the same bytes."""

    #: (scenario, shards): a retrain; a retrain and load switches; retrieval
    #: switches; per-tenant detectors; requeues; a 2-shard run.
    CASES = [
        ("drift-recalibration", None),
        ("bursty-load-switch", None),
        ("degraded-network", None),
        ("tenant-noisy-neighbor", None),
        ("fault-storm", None),
        pytest.param(
            "fig16-xl",
            2,
            marks=pytest.mark.skipif(
                "fork" not in multiprocessing.get_all_start_methods(),
                reason="shard processes see the patched bound only when forked",
            ),
        ),
    ]

    @staticmethod
    def _run(name, shards):
        return run_scenario(name, preset="small", seed=0, shards=shards)

    @pytest.mark.parametrize("name, shards", CASES)
    def test_settling_each_completion_at_once_gives_the_same_report(
        self, monkeypatch, name, shards
    ):
        deferred = _report_digest(self._run(name, shards))
        monkeypatch.setattr(base, "MAX_PENDING_COMPLETIONS", 1)
        assert _report_digest(self._run(name, shards)) == deferred

    def test_on_sample_sees_each_completion_once_in_completion_order(self, monkeypatch):
        completed_order, sampled_order, batch_sizes = [], [], []
        handle, on_sample, settle = (
            ArgusSystem._handle_completion,
            ArgusSystem.on_sample,
            ArgusSystem.settle,
        )

        def record_completion(self, completed):
            completed_order.append(completed.request.request_id)
            handle(self, completed)

        def record_sample(self, sample, completed):
            sampled_order.append(completed.request.request_id)
            on_sample(self, sample, completed)

        def record_batch(self):
            if self._pending:
                batch_sizes.append(len(self._pending))
            settle(self)

        monkeypatch.setattr(ArgusSystem, "_handle_completion", record_completion)
        monkeypatch.setattr(ArgusSystem, "on_sample", record_sample)
        monkeypatch.setattr(ArgusSystem, "settle", record_batch)
        run = run_scenario("drift-recalibration", preset="small", seed=0)
        assert run.system.retraining_events == 1
        assert sampled_order == completed_order
        assert len(set(completed_order)) == len(completed_order)
        assert len(completed_order) == run.report().to_dict()["summary"]["total_completions"]
        assert run.system._pending == []
        # Deferred for real: completions are settled hundreds at a time.
        assert sum(batch_sizes) == len(completed_order)
        assert len(batch_sizes) < len(completed_order) / 100


def _no_read_ahead(monkeypatch) -> None:
    """Serve without filling any memo ahead: every derivation per request."""
    for system in (base.BaseServingSystem, ArgusSystem):
        monkeypatch.setattr(system, "prepare", lambda self, prompts: None)


class TestReadAhead:
    """Arrivals are read ahead in blocks whose ranks and embeddings are
    derived together, which no report may notice."""

    #: (scenario, shards): a retrain, strategy switches (retrieval and
    #: load), per-tenant admission and a 2-shard run, each in mid-block.
    CASES = [
        ("drift-recalibration", None),
        ("degraded-network", None),
        ("bursty-load-switch", None),
        ("tenant-noisy-neighbor", None),
        pytest.param(
            "fig16-xl",
            2,
            marks=pytest.mark.skipif(
                "fork" not in multiprocessing.get_all_start_methods(),
                reason="shard processes see the patched hook only when forked",
            ),
        ),
    ]

    @pytest.mark.parametrize("name, shards", CASES)
    def test_serving_without_read_ahead_gives_the_same_report(self, monkeypatch, name, shards):
        run = TestDeferredQuality._run(name, shards)
        if name == "drift-recalibration":
            assert run.system.retraining_events >= 1
        if name in ("degraded-network", "bursty-load-switch"):
            assert run.system.num_strategy_switches() >= 1
        ahead = _report_digest(run)
        _no_read_ahead(monkeypatch)
        assert _report_digest(TestDeferredQuality._run(name, shards)) == ahead

    def test_prepare_sees_each_block_once_in_stream_order(self, monkeypatch):
        log = []
        prepare, submit = ArgusSystem.prepare, ArgusSystem.submit

        def record_prepare(self, prompts):
            log.append(("prepare", list(prompts)))
            prepare(self, prompts)

        def record_submit(self, prompt):
            log.append(("submit", prompt))
            return submit(self, prompt)

        monkeypatch.setattr(ArgusSystem, "prepare", record_prepare)
        monkeypatch.setattr(ArgusSystem, "submit", record_submit)
        run = run_scenario("drift-recalibration", preset="small", seed=0)
        blocks = [prompts for kind, prompts in log if kind == "prepare"]
        submitted = [prompt for kind, prompt in log if kind == "submit"]
        read = [prompt for block in blocks for prompt in block]
        assert len(read) == len(submitted) == run.system.collector.total_arrivals
        assert all(a is b for a, b in zip(read, submitted))
        assert len(blocks) > 2
        assert all(len(block) == base.PREPARE_BLOCK for block in blocks[:-1])
        assert 0 < len(blocks[-1]) <= base.PREPARE_BLOCK
        # Each block is read while its predecessor's last arrival is being
        # served, just before that arrival is submitted.
        served_before, served = [], 0
        for kind, _ in log:
            if kind == "prepare":
                served_before.append(served)
            else:
                served += 1
        ends = list(itertools.accumulate(len(block) for block in blocks))
        assert served_before == [0] + [end - 1 for end in ends[:-1]]

    @pytest.mark.parametrize("read_ahead", [True, False])
    def test_a_decreasing_timestamp_raises_at_the_same_arrival(
        self, monkeypatch, training_dataset, read_ahead
    ):
        if not read_ahead:
            _no_read_ahead(monkeypatch)
        prompts = PromptDataset.synthetic(count=300, seed=5).prompts
        times = [0.1 * i for i in range(300)]
        times[270] = times[269] - 0.05
        system = ArgusSystem(config=small_config(), training_dataset=training_dataset)
        submitted = []
        submit = system.submit

        def record(prompt):
            submitted.append(prompt)
            return submit(prompt)

        monkeypatch.setattr(system, "submit", record)
        system.schedule_arrivals(TimedPrompt(t, p) for t, p in zip(times, prompts))
        with pytest.raises(ValueError, match=r"got 26\.850000s after 26\.900000s"):
            system.run(duration_s=60.0)
        assert submitted == prompts[:269]


class _ScriptedSystem(BaseServingSystem):
    """Minimal concrete system with scripted routing (for requeue tests)."""

    name = "scripted"

    def __init__(self, routes, **kwargs):
        super().__init__(**kwargs)
        self._routes = list(routes)

    def route(self, prompt):
        worker_id, predicted, assigned = self._routes.pop(0)
        return Route(
            worker_id=worker_id,
            predicted_rank=predicted,
            assigned_rank=assigned,
            strategy=Strategy.AC,
        )


class TestRequeueRouting:
    def test_requeue_refreshes_predicted_rank(self, prompts):
        # A request re-routed after a worker failure must carry the fresh
        # prediction; a stale predicted_rank corrupts shift-fraction and
        # affinity accounting downstream.
        system = _ScriptedSystem(
            routes=[(0, 3, 2), (1, 1, 0)],
            config=ArgusConfig(num_workers=2),
            use_cache=False,
        )
        request = system.submit(prompts[0])
        assert request.predicted_rank == 3
        system.cluster.fail_worker(0)
        assert request.predicted_rank == 1
        assert request.assigned_rank == 0


class TestLazyArrivals:
    def test_heap_never_holds_more_than_one_arrival(self, prompts):
        system = _ScriptedSystem(
            routes=[(0, 0, 0)] * 500,
            config=ArgusConfig(num_workers=2),
            use_cache=False,
        )
        trace = WorkloadTrace("t", (60.0, 60.0, 60.0))
        stream = RequestStream(
            trace, PromptDataset.synthetic(count=30, seed=3), arrival_kind="uniform"
        )
        system.schedule_arrivals(stream)
        engine = system.engine
        max_pending_arrivals = 0
        while True:
            pending = sum(
                1 for _, _, e in engine._heap if e.name == "arrival" and not e.cancelled
            )
            max_pending_arrivals = max(max_pending_arrivals, pending)
            if not engine.step():
                break
        assert max_pending_arrivals <= 1
        assert system.collector.total_arrivals == 180

    def test_stream_iteration_stays_lazy(self):
        trace = WorkloadTrace("t", (30.0, 30.0))
        stream = RequestStream(
            trace, PromptDataset.synthetic(count=10, seed=0), arrival_kind="uniform"
        )
        count = sum(1 for _ in stream)
        assert count == 60
        assert not stream.is_materialized
        assert len(stream) == 60  # random access materialises on demand
        assert stream.is_materialized

    def test_lazy_and_materialized_streams_agree(self):
        trace = WorkloadTrace("t", (25.0, 40.0))
        lazy = RequestStream(trace, PromptDataset.synthetic(count=7, seed=5), seed=9)
        materialized = RequestStream(trace, PromptDataset.synthetic(count=7, seed=5), seed=9)
        _ = len(materialized)
        for a, b in zip(lazy, materialized):
            assert a.arrival_time_s == b.arrival_time_s
            assert a.prompt.prompt_id == b.prompt.prompt_id
