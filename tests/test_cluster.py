"""Tests for GPU memory, workers and the cluster substrate."""

from __future__ import annotations

import pytest

from repro.cache.approximate import ApproximateCache
from repro.cluster.cluster import GpuCluster
from repro.cluster.memory import GpuMemory
from repro.cluster.requests import Request
from repro.cluster.worker import Worker, WorkerState
from repro.models.zoo import Strategy
from repro.prompts.dataset import PromptDataset
from repro.simulation.engine import SimulationEngine


def make_request(prompt, request_id=0, arrival=0.0, strategy=Strategy.AC, rank=0):
    return Request(
        request_id=request_id,
        prompt=prompt,
        arrival_time_s=arrival,
        strategy=strategy,
        predicted_rank=rank,
        assigned_rank=rank,
    )


@pytest.fixture()
def engine():
    return SimulationEngine(seed=0)


@pytest.fixture()
def prompts():
    return PromptDataset.synthetic(count=30, seed=9).prompts


class TestGpuMemory:
    def test_load_and_unload(self):
        memory = GpuMemory(capacity_gib=80.0)
        memory.load("SD-XL", 5.14)
        assert memory.is_resident("SD-XL")
        assert memory.used_gib == pytest.approx(5.14)
        assert memory.unload("SD-XL")
        assert not memory.is_resident("SD-XL")

    def test_two_models_fit_on_a100(self):
        # §4.6: 80 GiB holds SD-XL plus a smaller variant simultaneously.
        memory = GpuMemory(capacity_gib=80.0)
        memory.load("SD-XL", 5.14)
        memory.load("SD-1.5", 3.44)
        assert set(memory.resident_models) == {"SD-XL", "SD-1.5"}

    def test_overflow_raises(self):
        memory = GpuMemory(capacity_gib=6.0)
        memory.load("SD-XL", 5.14)
        with pytest.raises(MemoryError):
            memory.load("SD-1.5", 3.44)

    def test_double_load_is_noop(self):
        memory = GpuMemory(capacity_gib=10.0)
        memory.load("SD-XL", 5.14)
        memory.load("SD-XL", 5.14)
        assert memory.used_gib == pytest.approx(5.14)

    def test_unload_unknown_returns_false(self):
        assert not GpuMemory().unload("nothing")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            GpuMemory(capacity_gib=0)


class TestWorkerServing:
    def test_serves_single_request(self, engine, zoo, prompts):
        completed = []
        worker = Worker(
            worker_id=0,
            engine=engine,
            zoo=zoo,
            level=zoo.exact_level(Strategy.SM),
            on_complete=completed.append,
        )
        worker.enqueue(make_request(prompts[0], strategy=Strategy.SM))
        engine.run()
        assert len(completed) == 1
        record = completed[0]
        assert record.worker_id == 0
        assert 3.0 < record.service_time_s < 5.5
        assert record.effective_rank == 0

    def test_fifo_queueing_adds_latency(self, engine, zoo, prompts):
        completed = []
        worker = Worker(
            worker_id=0,
            engine=engine,
            zoo=zoo,
            level=zoo.exact_level(Strategy.SM),
            on_complete=completed.append,
        )
        for i in range(3):
            worker.enqueue(make_request(prompts[i], request_id=i, strategy=Strategy.SM))
        engine.run()
        assert len(completed) == 3
        latencies = sorted(c.latency_s for c in completed)
        assert latencies[2] > latencies[0] * 2

    def test_sm_level_switch_pays_load_latency(self, engine, zoo, prompts):
        worker = Worker(0, engine, zoo, level=zoo.exact_level(Strategy.SM))
        tiny = zoo.fastest_level(Strategy.SM)
        delay = worker.set_level(tiny)
        assert delay > 0
        assert worker.is_loading
        assert worker.level.rank == 0  # still serving on the old model
        engine.run()
        assert worker.level.rank == tiny.rank
        assert worker.stats.model_loads == 1

    def test_ac_level_switch_is_free(self, engine, zoo, prompts):
        worker = Worker(0, engine, zoo, level=zoo.exact_level(Strategy.AC))
        delay = worker.set_level(zoo.fastest_level(Strategy.AC))
        assert delay == 0.0
        assert worker.level.rank == 5
        assert worker.stats.model_loads == 0

    def test_ac_serving_uses_cache_hits(self, engine, zoo, prompts):
        cache = ApproximateCache()
        cache.warm(prompts)
        completed = []
        worker = Worker(
            worker_id=0,
            engine=engine,
            zoo=zoo,
            level=zoo.level(Strategy.AC, 4),
            cache=cache,
            on_complete=completed.append,
        )
        worker.enqueue(make_request(prompts[0], strategy=Strategy.AC, rank=4))
        engine.run()
        record = completed[0]
        assert record.cache_hit
        assert record.effective_rank == 4
        assert record.service_time_s < 3.5  # K=20 is much faster than K=0

    def test_ac_miss_falls_back_to_full_generation(self, engine, zoo, prompts):
        cache = ApproximateCache()  # empty: every lookup misses
        completed = []
        worker = Worker(
            worker_id=0,
            engine=engine,
            zoo=zoo,
            level=zoo.level(Strategy.AC, 5),
            cache=cache,
            on_complete=completed.append,
        )
        worker.enqueue(make_request(prompts[0], strategy=Strategy.AC, rank=5))
        engine.run()
        record = completed[0]
        assert not record.cache_hit
        assert record.effective_rank == 0
        assert record.service_time_s > 3.0

    def test_honor_request_rank(self, engine, zoo, prompts):
        cache = ApproximateCache()
        cache.warm(prompts)
        completed = []
        worker = Worker(
            worker_id=0,
            engine=engine,
            zoo=zoo,
            level=zoo.exact_level(Strategy.AC),
            cache=cache,
            on_complete=completed.append,
            honor_request_rank=True,
        )
        worker.enqueue(make_request(prompts[0], strategy=Strategy.AC, rank=3))
        engine.run()
        assert completed[0].effective_rank == 3

    def test_blocking_load_pauses_serving(self, engine, zoo, prompts):
        completed = []
        worker = Worker(
            worker_id=0,
            engine=engine,
            zoo=zoo,
            level=zoo.exact_level(Strategy.SM),
            on_complete=completed.append,
            blocking_load=True,
        )
        worker.set_level(zoo.fastest_level(Strategy.SM))
        worker.enqueue(make_request(prompts[0], strategy=Strategy.SM))
        engine.run()
        # The request only starts after the Tiny-SD load (2.91 s) completes.
        assert completed[0].start_time_s >= 2.9

    def test_expected_wait_grows_with_queue(self, engine, zoo, prompts):
        worker = Worker(0, engine, zoo, level=zoo.exact_level(Strategy.SM))
        baseline = worker.expected_wait_s()
        for i in range(3):
            worker.enqueue(make_request(prompts[i], request_id=i, strategy=Strategy.SM))
        assert worker.expected_wait_s() > baseline

    def test_utilization_bounded(self, engine, zoo, prompts):
        completed = []
        worker = Worker(
            0, engine, zoo, level=zoo.exact_level(Strategy.SM), on_complete=completed.append
        )
        for i in range(5):
            worker.enqueue(make_request(prompts[i], request_id=i, strategy=Strategy.SM))
        engine.run()
        assert 0.0 < worker.utilization(engine.now) <= 1.0


class TestWorkerFailure:
    def test_fail_requeues_outstanding_requests(self, engine, zoo, prompts):
        requeued = []
        worker = Worker(
            0, engine, zoo, level=zoo.exact_level(Strategy.SM), on_requeue=requeued.append
        )
        for i in range(3):
            worker.enqueue(make_request(prompts[i], request_id=i, strategy=Strategy.SM))
        orphans = worker.fail()
        assert len(orphans) == 3
        assert len(requeued) == 3
        assert worker.is_failed

    def test_failed_worker_rejects_requests(self, engine, zoo, prompts):
        worker = Worker(0, engine, zoo, level=zoo.exact_level(Strategy.SM))
        worker.fail()
        with pytest.raises(RuntimeError):
            worker.enqueue(make_request(prompts[0], strategy=Strategy.SM))
        with pytest.raises(RuntimeError):
            worker.set_level(zoo.fastest_level(Strategy.SM))

    def test_recover_restores_serving(self, engine, zoo, prompts):
        completed = []
        worker = Worker(
            0, engine, zoo, level=zoo.exact_level(Strategy.SM), on_complete=completed.append
        )
        worker.fail()
        worker.recover()
        assert worker.state is WorkerState.IDLE
        worker.enqueue(make_request(prompts[0], strategy=Strategy.SM))
        engine.run()
        assert len(completed) == 1

    def test_inflight_request_lost_on_failure(self, engine, zoo, prompts):
        completed = []
        worker = Worker(
            0, engine, zoo, level=zoo.exact_level(Strategy.SM), on_complete=completed.append
        )
        worker.enqueue(make_request(prompts[0], strategy=Strategy.SM))
        engine.schedule_at(1.0, lambda e: worker.fail())
        engine.run()
        assert completed == []


class TestGpuCluster:
    def test_cluster_construction(self, engine, zoo):
        cluster = GpuCluster(engine, zoo, num_workers=8)
        assert len(cluster) == 8
        assert len(cluster.healthy_workers) == 8
        assert set(cluster.level_assignment().values()) == {0}

    def test_dispatch_and_serve(self, engine, zoo, prompts):
        completed = []
        cluster = GpuCluster(
            engine, zoo, num_workers=2,
            initial_level=zoo.exact_level(Strategy.SM),
            on_complete=completed.append,
        )
        cluster.dispatch(make_request(prompts[0], strategy=Strategy.SM), worker_id=1)
        engine.run()
        assert len(completed) == 1
        assert cluster.total_requests_served() == 1

    def test_apply_assignment(self, engine, zoo):
        cluster = GpuCluster(engine, zoo, num_workers=4, initial_level=zoo.exact_level(Strategy.AC))
        levels = zoo.levels(Strategy.AC)
        delays = cluster.apply_assignment({0: levels[5], 1: levels[5], 2: levels[0], 3: levels[2]})
        assert set(delays) == {0, 1, 2, 3}
        assert len(cluster.workers_at_level(5)) == 2
        assert len(cluster.workers_at_level(0)) == 1

    def test_failure_injection_schedule(self, engine, zoo, prompts):
        cluster = GpuCluster(engine, zoo, num_workers=2, initial_level=zoo.exact_level(Strategy.SM))
        cluster.schedule_failure(0, fail_at_s=10.0, recover_at_s=50.0)
        engine.run(until=20.0)
        assert len(cluster.healthy_workers) == 1
        engine.run(until=60.0)
        assert len(cluster.healthy_workers) == 2

    def test_invalid_failure_schedule(self, engine, zoo):
        cluster = GpuCluster(engine, zoo, num_workers=2)
        with pytest.raises(ValueError):
            cluster.schedule_failure(0, fail_at_s=10.0, recover_at_s=5.0)

    def test_dispatch_to_failed_worker_raises(self, engine, zoo, prompts):
        cluster = GpuCluster(engine, zoo, num_workers=2, initial_level=zoo.exact_level(Strategy.SM))
        cluster.fail_worker(0)
        with pytest.raises(RuntimeError):
            cluster.dispatch(make_request(prompts[0], strategy=Strategy.SM), worker_id=0)

    def test_utilization_zero_before_work(self, engine, zoo):
        cluster = GpuCluster(engine, zoo, num_workers=2)
        assert cluster.utilization(100.0) == 0.0

    def test_needs_at_least_one_worker(self, engine, zoo):
        with pytest.raises(ValueError):
            GpuCluster(engine, zoo, num_workers=0)
