"""Tests for the elastic heterogeneous fleet and the closed-loop autoscaler.

Covers per-worker GPU specs (Fig. 5 speed scaling, native memory sizes),
the elastic worker lifecycle (provisioning delay + warm-up, drain-without-
drop, retirement), enrolled-and-healthy utilisation accounting, the
dispatch/requeue race fix, the heterogeneity-aware solver capacity model,
the autoscaler's hysteresis/debounce decisions, fleet/cost accounting in
RunSummary, and the end-to-end guarantee that an autoscaled fleet outgrows
the fixed pool's throughput ceiling under overload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import GpuCluster
from repro.cluster.requests import Request
from repro.cluster.worker import Worker
from repro.core.allocator import Allocator
from repro.core.autoscaler import Autoscaler
from repro.core.config import ArgusConfig
from repro.core.scheduler import PromptScheduler, WorkerSelector
from repro.core.solver import AllocationSolver
from repro.core.system import ArgusSystem
from repro.experiments.runner import ExperimentRunner
from repro.models.gpus import GPU_SPECS
from repro.models.zoo import Strategy
from repro.prompts.dataset import PromptDataset
from repro.simulation.engine import SimulationEngine
from repro.workloads.traces import TraceLibrary


def make_request(prompt, request_id=0, arrival=0.0, strategy=Strategy.SM, rank=0):
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
    return PromptDataset.synthetic(count=40, seed=13).prompts


class TestHeterogeneousWorkers:
    def test_default_gpu_is_reference_and_neutral(self, engine, zoo):
        worker = Worker(0, engine, zoo, level=zoo.exact_level(Strategy.SM))
        assert worker.gpu.name == "A100"
        assert worker.speed_factor == 1.0
        assert worker.level_latency_s() == worker.level.latency_s

    def test_slower_gpu_stretches_service_time(self, engine, zoo, prompts):
        completed = []
        level = zoo.exact_level(Strategy.SM)
        worker = Worker(
            0,
            engine,
            zoo,
            level=level,
            gpu="A10G",
            on_complete=completed.append,
            service_jitter=0.0,
        )
        worker.enqueue(make_request(prompts[0]))
        engine.run()
        expected = level.latency_s / GPU_SPECS["A10G"].relative_speed
        assert completed[0].service_time_s == pytest.approx(expected)

    def test_memory_defaults_to_gpu_native_size(self, engine, zoo):
        a10g = Worker(0, engine, zoo, level=zoo.exact_level(Strategy.SM), gpu="A10G")
        v100 = Worker(1, engine, zoo, level=zoo.exact_level(Strategy.SM), gpu="V100")
        assert a10g.memory.capacity_gib == pytest.approx(24.0)
        assert v100.memory.capacity_gib == pytest.approx(32.0)

    def test_peak_qpm_scales_with_gpu_speed(self, engine, zoo):
        level = zoo.fastest_level(Strategy.AC)
        fast = Worker(0, engine, zoo, level=level)
        slow = Worker(1, engine, zoo, level=level, gpu="V100")
        ratio = slow.peak_qpm(level) / fast.peak_qpm(level)
        assert ratio == pytest.approx(GPU_SPECS["V100"].relative_speed)

    def test_eq3_selector_prefers_faster_gpu_at_equal_queue(self, engine, zoo, prompts):
        level = zoo.exact_level(Strategy.SM)
        a100 = Worker(0, engine, zoo, level=level)
        v100 = Worker(1, engine, zoo, level=level, gpu="V100")
        for i in range(3):
            a100._queue.append(make_request(prompts[i], request_id=i))
            v100._queue.append(make_request(prompts[3 + i], request_id=3 + i))
        assert v100.estimated_backlog_s() > a100.estimated_backlog_s()
        assert WorkerSelector().select([v100, a100]) is a100

    def test_cluster_gpu_mix_construction(self, engine, zoo):
        cluster = GpuCluster(
            engine,
            zoo,
            num_workers=3,
            gpu_types=["A100", "A10G", "V100"],
        )
        assert [w.gpu.name for w in cluster.workers] == ["A100", "A10G", "V100"]
        assert [w.memory.capacity_gib for w in cluster.workers] == [80.0, 24.0, 32.0]
        assert cluster.total_speed_factor() == pytest.approx(1.0 + 0.42 + 0.38)

    def test_gpu_mix_length_validated(self, engine, zoo):
        with pytest.raises(ValueError):
            GpuCluster(engine, zoo, num_workers=2, gpu_types=["A100"])

    def test_heterogeneous_ceiling_sums_per_worker(self, engine, zoo):
        homo = GpuCluster(engine, zoo, num_workers=2)
        hetero = GpuCluster(engine, zoo, num_workers=2, gpu_types=["A100", "V100"])
        full = homo.fleet_ceiling_qpm(Strategy.AC)
        mixed = hetero.fleet_ceiling_qpm(Strategy.AC)
        assert mixed == pytest.approx(full / 2.0 * (1.0 + 0.38))


class TestHeterogeneousSolver:
    def test_homogeneous_speeds_match_uniform_solve(self):
        solver = AllocationSolver()
        quality = np.array([1.0, 0.8, 0.6])
        peak = np.array([10.0, 20.0, 40.0])
        uniform = solver.solve(70.0, quality, peak, 4)
        unit_speeds = solver.solve(70.0, quality, peak, 4, speed_factors=[1.0] * 4)
        assert uniform == unit_speeds

    def test_slow_fleet_needs_more_approximation(self):
        solver = AllocationSolver()
        quality = np.array([1.0, 0.8, 0.6])
        peak = np.array([10.0, 20.0, 40.0])
        fast = solver.solve(60.0, quality, peak, 4, speed_factors=[1.0] * 4)
        slow = solver.solve(60.0, quality, peak, 4, speed_factors=[0.5] * 4)
        assert fast.feasible and slow.feasible
        assert slow.expected_quality < fast.expected_quality

    def test_capacity_uses_per_worker_speeds(self):
        solver = AllocationSolver()
        quality = np.array([1.0, 0.5])
        peak = np.array([10.0, 30.0])
        # Two workers at speeds 1.0 and 0.5: everything at the fast level
        # caps at 30 + 15 = 45 QPM, not 2 x 30.
        plan = solver.solve(50.0, quality, peak, 2, speed_factors=[1.0, 0.5])
        assert not plan.feasible
        assert plan.total_capacity_qpm == pytest.approx(45.0)

    def test_speed_factor_validation(self):
        solver = AllocationSolver()
        quality = np.array([1.0])
        peak = np.array([10.0])
        with pytest.raises(ValueError):
            solver.solve(5.0, quality, peak, 2, speed_factors=[1.0])
        with pytest.raises(ValueError):
            solver.solve(5.0, quality, peak, 2, speed_factors=[1.0, -1.0])


class TestElasticLifecycle:
    def test_provisioned_worker_enters_rotation_after_delay(self, engine, zoo, prompts):
        cluster = GpuCluster(engine, zoo, num_workers=1, initial_level=zoo.exact_level(Strategy.SM))
        worker = cluster.provision_worker(provision_delay_s=30.0)
        assert worker.is_provisioning
        assert len(cluster.healthy_workers) == 1
        assert cluster.provisioning_workers == [worker]
        engine.run(until=29.0)
        assert worker.is_provisioning
        # Ready after the delay plus the SD-XL warm-up load.
        engine.run(until=30.0 + 10.0)
        assert worker.is_active
        assert len(cluster.healthy_workers) == 2
        assert cluster.workers_added == 1
        assert worker.enrolled_at_s > 30.0

    def test_provisioned_worker_serves_after_ready(self, engine, zoo, prompts):
        completed = []
        cluster = GpuCluster(
            engine, zoo, num_workers=1,
            initial_level=zoo.exact_level(Strategy.SM),
            on_complete=completed.append,
        )
        worker = cluster.provision_worker(provision_delay_s=5.0)
        engine.run(until=60.0)
        cluster.dispatch(make_request(prompts[0]), worker.worker_id)
        engine.run()
        assert len(completed) == 1
        assert completed[0].worker_id == worker.worker_id

    def test_drain_requeues_queue_and_finishes_batch(self, engine, zoo, prompts):
        completed, requeued = [], []
        cluster = GpuCluster(
            engine, zoo, num_workers=1,
            initial_level=zoo.exact_level(Strategy.SM),
            on_complete=completed.append,
            on_requeue=requeued.append,
        )
        for i in range(3):
            cluster.dispatch(make_request(prompts[i], request_id=i), 0)
        worker = cluster.workers[0]
        assert worker.in_service == 1 and worker.queue_length == 2
        orphans = cluster.drain_worker(0)
        # The two queued requests come back; the in-flight one finishes.
        assert sorted(r.request_id for r in orphans) == [1, 2]
        assert sorted(r.request_id for r in requeued) == [1, 2]
        assert not worker.is_active
        engine.run()
        assert [c.request.request_id for c in completed] == [0]
        assert worker.is_retired
        assert cluster.workers_retired == 1

    def test_drain_requeues_only_after_leaving_rotation(self, engine, zoo, prompts):
        # An Eq. 3 router sees the draining worker's short in-flight backlog;
        # were it still in rotation, the orphans would go straight back to
        # it and still be queued there when it retires, never served.
        completed = []
        cluster = GpuCluster(
            engine, zoo, num_workers=2,
            initial_level=zoo.exact_level(Strategy.SM),
            on_complete=completed.append,
        )

        def reroute(request):
            worker = WorkerSelector().select(cluster.healthy_workers)
            cluster.dispatch(request, worker.worker_id)

        for worker in cluster.workers:
            worker.on_requeue = reroute
        for i in range(6):
            cluster.dispatch(make_request(prompts[i], request_id=i), i // 3)
        cluster.drain_worker(1)
        engine.run()
        assert sorted(c.request.request_id for c in completed) == list(range(6))
        assert cluster.workers[1].is_retired

    def test_drain_idle_worker_retires_immediately(self, engine, zoo):
        cluster = GpuCluster(engine, zoo, num_workers=2)
        cluster.drain_worker(1)
        assert cluster.workers[1].is_retired
        assert len(cluster.healthy_workers) == 1

    def test_dispatch_race_requeues_instead_of_raising(self, engine, zoo, prompts):
        requeued = []
        cluster = GpuCluster(
            engine, zoo, num_workers=2,
            initial_level=zoo.exact_level(Strategy.SM),
            on_requeue=requeued.append,
        )
        cluster.fail_worker(0)
        cluster.dispatch(make_request(prompts[0], request_id=7), 0)
        assert [r.request_id for r in requeued] == [7]
        cluster.drain_worker(1)
        cluster.dispatch(make_request(prompts[1], request_id=8), 1)
        assert [r.request_id for r in requeued] == [7, 8]

    def test_dispatch_without_requeue_hook_still_raises(self, engine, zoo, prompts):
        cluster = GpuCluster(engine, zoo, num_workers=1)
        cluster.drain_worker(0)
        with pytest.raises(RuntimeError):
            cluster.dispatch(make_request(prompts[0]), 0)

    def test_retired_worker_rejects_requests(self, engine, zoo, prompts):
        worker = Worker(0, engine, zoo, level=zoo.exact_level(Strategy.SM))
        worker.begin_drain()
        assert worker.is_retired
        with pytest.raises(RuntimeError):
            worker.enqueue(make_request(prompts[0]))

    def test_failure_during_provisioning_resumes_provisioning(self, engine, zoo):
        # Recovery before the provision timer elapses must not leak the
        # worker into rotation early; it enrolls at the normal ready time.
        cluster = GpuCluster(engine, zoo, num_workers=1)
        worker = cluster.provision_worker(provision_delay_s=90.0)
        cluster.schedule_failure(worker.worker_id, fail_at_s=30.0, recover_at_s=40.0)
        engine.run(until=50.0)
        assert worker.is_provisioning
        assert len(cluster.healthy_workers) == 1
        engine.run(until=150.0)
        assert worker.is_active
        assert worker.enrolled_at_s is not None and worker.enrolled_at_s > 90.0
        assert cluster.workers_added == 1

    def test_recovery_after_missed_ready_enrolls_then(self, engine, zoo):
        # The provision timer elapsed while the worker was failed: it joins
        # the rotation at recovery time, exactly once.
        cluster = GpuCluster(engine, zoo, num_workers=1)
        worker = cluster.provision_worker(provision_delay_s=20.0)
        cluster.schedule_failure(worker.worker_id, fail_at_s=10.0, recover_at_s=200.0)
        engine.run(until=100.0)
        assert worker.is_failed
        assert cluster.workers_added == 0
        engine.run(until=250.0)
        assert worker.is_active
        assert worker.enrolled_at_s == pytest.approx(200.0)
        assert cluster.workers_added == 1
        assert worker.utilization(250.0) == 0.0  # enrolled 50 s, served nothing

    def test_cancelling_provisioning_scale_out_is_not_a_scale_in(self, engine, zoo):
        cluster = GpuCluster(engine, zoo, num_workers=1)
        worker = cluster.provision_worker(provision_delay_s=60.0)
        cluster.drain_worker(worker.worker_id)
        assert worker.is_retired
        assert cluster.workers_retired == 0
        assert cluster.workers_added == 0
        engine.run()  # the stale ready event must not resurrect it
        assert worker.is_retired

    def test_double_drain_counts_once(self, engine, zoo, prompts):
        cluster = GpuCluster(
            engine, zoo, num_workers=2, initial_level=zoo.exact_level(Strategy.SM)
        )
        cluster.dispatch(make_request(prompts[0]), 1)
        cluster.drain_worker(1)
        cluster.drain_worker(1)  # still DRAINING: must not double-count
        assert cluster.workers_retired == 1
        engine.run()
        cluster.drain_worker(1)  # RETIRED: no-op
        assert cluster.workers_retired == 1


class TestUtilizationAccounting:
    def test_late_joiner_normalized_by_enrolled_time(self, engine, zoo, prompts):
        cluster = GpuCluster(engine, zoo, num_workers=1, initial_level=zoo.exact_level(Strategy.SM))
        worker = cluster.provision_worker(provision_delay_s=100.0)
        engine.run(until=300.0)
        assert worker.is_active
        start = worker.enrolled_at_s
        # Keep the late joiner busy for the rest of the run (~4.2 s/request).
        for i in range(100):
            worker.enqueue(make_request(prompts[i % len(prompts)], request_id=i))
        engine.run(until=600.0)
        busy = worker.stats.busy_time_s
        # Normalised by the enrolled window, not the full 600 s of wall time
        # the old accounting divided by.
        assert worker.utilization(600.0) == pytest.approx(
            min(1.0, busy / (600.0 - start)), abs=1e-9
        )
        assert worker.utilization(600.0) > busy / 600.0

    def test_double_fail_preserves_downtime_clock(self, engine, zoo):
        worker = Worker(0, engine, zoo, level=zoo.exact_level(Strategy.SM))
        engine.schedule_at(100.0, lambda e: worker.fail())
        engine.schedule_at(500.0, lambda e: worker.fail())  # must not reset
        engine.schedule_at(600.0, lambda e: worker.recover())
        engine.run(until=700.0)
        assert worker.enrolled_healthy_s(700.0) == pytest.approx(200.0)

    def test_failed_downtime_excluded_from_denominator(self, engine, zoo, prompts):
        worker = Worker(0, engine, zoo, level=zoo.exact_level(Strategy.SM))
        engine.schedule_at(100.0, lambda e: worker.fail())
        engine.schedule_at(400.0, lambda e: worker.recover())
        engine.run(until=500.0)
        assert worker.enrolled_healthy_s(500.0) == pytest.approx(200.0)
        # Mid-failure queries subtract only the downtime so far.
        assert worker.enrolled_healthy_s(250.0) == pytest.approx(100.0)

    def test_cluster_utilization_ignores_failed_downtime(self, engine, zoo, prompts):
        completed = []
        cluster = GpuCluster(
            engine, zoo, num_workers=2,
            initial_level=zoo.exact_level(Strategy.SM),
            on_complete=completed.append,
        )
        # Worker 1 fails forever at t=0; worker 0 serves continuously.
        cluster.fail_worker(1)
        for i in range(20):
            cluster.dispatch(make_request(prompts[i % len(prompts)], request_id=i), 0)
        engine.run(until=80.0)
        busy = cluster.workers[0].stats.busy_time_s
        # The failed worker contributes no healthy time, so the mean is the
        # serving worker's utilisation alone — not halved by downtime.
        assert cluster.utilization(80.0) == pytest.approx(min(1.0, busy / 80.0))
        assert cluster.utilization(80.0) > 0.5

    def test_healthy_fixed_fleet_matches_seed_formula(self, engine, zoo, prompts):
        cluster = GpuCluster(
            engine, zoo, num_workers=2, initial_level=zoo.exact_level(Strategy.SM)
        )
        for i in range(4):
            cluster.dispatch(make_request(prompts[i], request_id=i), i % 2)
        engine.run()
        elapsed = engine.now
        expected = sum(
            min(1.0, w.stats.busy_time_s / elapsed) for w in cluster.workers
        ) / len(cluster.workers)
        assert cluster.utilization(elapsed) == pytest.approx(expected)

    def test_billing_includes_provisioning_and_downtime(self, engine, zoo):
        cluster = GpuCluster(engine, zoo, num_workers=1)
        engine.run(until=50.0)
        worker = cluster.provision_worker(provision_delay_s=100.0)
        engine.run(until=350.0)
        cluster.drain_worker(worker.worker_id)
        engine.run(until=500.0)
        # Billed from allocation (t=50) to retirement (t=350).
        assert worker.billed_s(500.0) == pytest.approx(300.0)
        assert cluster.gpu_hours(500.0) == pytest.approx((500.0 + 300.0) / 3600.0)
        assert cluster.total_cost_usd(500.0) == pytest.approx(
            (500.0 + 300.0) / 3600.0 * GPU_SPECS["A100"].hourly_cost_usd
        )


class TestFailureBatchingInteraction:
    def test_mid_batch_failure_orphans_batch_members_exactly_once(
        self, engine, zoo, prompts
    ):
        completed, requeued = [], []
        cluster = GpuCluster(
            engine, zoo, num_workers=1,
            initial_level=zoo.exact_level(Strategy.SM),
            on_complete=completed.append,
            on_requeue=requeued.append,
        )
        for i in range(5):
            cluster.dispatch(make_request(prompts[i], request_id=i), 0)
        worker = cluster.workers[0]
        assert worker.in_service == 1 and worker.queue_length == 4
        cluster.schedule_failure(0, fail_at_s=1.0)
        engine.run()
        # All five requests orphaned exactly once: the one in its GPU pass
        # and the 4 queued ones; nothing completes, nothing repeats.
        assert sorted(r.request_id for r in requeued) == [0, 1, 2, 3, 4]
        assert completed == []

    def test_recovery_into_resized_fleet_does_not_double_complete(
        self, engine, zoo, prompts
    ):
        completed = []
        requeued = []
        cluster = GpuCluster(
            engine, zoo, num_workers=1,
            initial_level=zoo.exact_level(Strategy.SM),
            on_complete=completed.append,
            on_requeue=requeued.append,
        )

        pending = []

        # Re-dispatch orphans to whatever worker is active (buffering until
        # the resized fleet is ready), like the base serving system would.
        def redispatch(request):
            requeued.append(request)
            active = cluster.healthy_workers
            if active:
                active[0].enqueue(request)
            else:
                pending.append(request)

        def flush(worker):
            while pending:
                worker.enqueue(pending.pop(0))

        cluster._on_requeue = redispatch
        cluster.workers[0].on_requeue = redispatch

        for i in range(2):
            cluster.dispatch(make_request(prompts[i], request_id=i), 0)
        cluster.schedule_failure(0, fail_at_s=1.0, recover_at_s=20.0)
        # The fleet is resized while worker 0 is down; orphans land on the
        # new worker once it is ready.
        cluster.provision_worker(provision_delay_s=1.5, on_ready=flush)
        engine.run()
        served = [c.request.request_id for c in completed]
        # Each request completes exactly once (no stale completion of the
        # failed pass after the recovery into the bigger fleet).
        assert sorted(served) == [0, 1]
        assert cluster.workers[0].stats.requests_served == 0
        assert cluster.workers[1].stats.requests_served == 2


def make_allocator(engine, zoo, cluster, config):
    scheduler = PromptScheduler(
        cluster=cluster,
        num_levels=zoo.num_levels(Strategy.AC),
        rng=np.random.default_rng(0),
    )
    quality = {
        Strategy.AC: np.linspace(1.0, 0.7, zoo.num_levels(Strategy.AC)),
        Strategy.SM: np.linspace(1.0, 0.6, zoo.num_levels(Strategy.SM)),
    }
    return Allocator(
        config=config,
        zoo=zoo,
        cluster=cluster,
        scheduler=scheduler,
        quality_vectors=quality,
    )


class TestAutoscalerDecisions:
    def make_stack(self, engine, zoo, **config_overrides):
        defaults = dict(
            num_workers=2,
            autoscale_enabled=True,
            max_workers=6,
            provision_delay_s=10.0,
            autoscale_interval_s=10.0,
            scale_out_consecutive_ticks=2,
            scale_in_consecutive_ticks=2,
            scale_out_cooldown_s=0.0,
            scale_in_cooldown_s=0.0,
        )
        defaults.update(config_overrides)
        config = ArgusConfig(**defaults)
        cluster = GpuCluster(engine, zoo, num_workers=config.num_workers)
        allocator = make_allocator(engine, zoo, cluster, config)
        scaler = Autoscaler(
            config=config,
            zoo=zoo,
            cluster=cluster,
            allocator=allocator,
            active_strategy=lambda: Strategy.AC,
        )
        return config, cluster, allocator, scaler

    def saturate(self, zoo, cluster, allocator, qpm, now):
        """Put every worker at the fastest level and pump arrivals at qpm."""
        fastest = zoo.fastest_level(Strategy.AC)
        for worker in cluster.healthy_workers:
            worker.set_level(fastest)
        for i in range(int(qpm)):
            allocator.observe_arrival(max(0.0, now - 60.0) + 60.0 * i / qpm)

    def test_saturation_scales_out_after_debounce(self, engine, zoo):
        config, cluster, allocator, scaler = self.make_stack(engine, zoo)
        ceiling = cluster.fleet_ceiling_qpm(Strategy.AC)
        self.saturate(zoo, cluster, allocator, ceiling * 1.5, now=60.0)
        scaler.tick(60.0)
        assert not cluster.provisioning_workers  # armed, not fired
        scaler.tick(70.0)
        assert cluster.provisioning_workers  # debounce satisfied
        assert scaler.num_scale_outs == 1
        assert scaler.events[0].action == "scale_out"

    def test_no_scale_out_when_quality_headroom_remains(self, engine, zoo):
        config, cluster, allocator, scaler = self.make_stack(engine, zoo)
        ceiling = cluster.fleet_ceiling_qpm(Strategy.AC)
        # Load above the slowest level but under the fleet ceiling, with
        # workers still at rank 0: approximation, not scaling, should absorb
        # the pressure.
        for i in range(int(ceiling * 0.5)):
            allocator.observe_arrival(60.0 * i / (ceiling * 0.5))
        scaler.tick(60.0)
        scaler.tick(70.0)
        scaler.tick(80.0)
        assert not cluster.provisioning_workers
        assert scaler.events == []

    def test_max_workers_caps_scale_out(self, engine, zoo):
        config, cluster, allocator, scaler = self.make_stack(
            engine, zoo, max_workers=3, max_scale_step=4
        )
        ceiling = cluster.fleet_ceiling_qpm(Strategy.AC)
        self.saturate(zoo, cluster, allocator, ceiling * 10, now=60.0)
        scaler.tick(60.0)
        scaler.tick(70.0)
        assert len(cluster.provisioning_workers) == 1  # 2 + 1 == max_workers
        self.saturate(zoo, cluster, allocator, ceiling * 10, now=80.0)
        scaler.tick(80.0)
        scaler.tick(90.0)
        assert len(cluster.workers) == 3

    def test_failed_workers_count_against_max_workers(self, engine, zoo):
        config, cluster, allocator, scaler = self.make_stack(
            engine, zoo, max_workers=3, max_scale_step=4
        )
        cluster.fail_worker(1)
        ceiling = cluster.fleet_ceiling_qpm(Strategy.AC)
        self.saturate(zoo, cluster, allocator, ceiling * 10, now=60.0)
        scaler.tick(60.0)
        scaler.tick(70.0)
        # One worker in rotation and one failed: room for one more.
        assert len(cluster.provisioning_workers) == 1
        assert scaler.events[0].fleet_size == 3
        engine.run(until=120.0)
        cluster.recover_worker(1)
        assert cluster.fleet_size == 3

    def test_scale_in_after_load_subsides(self, engine, zoo):
        config, cluster, allocator, scaler = self.make_stack(engine, zoo)
        ceiling = cluster.fleet_ceiling_qpm(Strategy.AC)
        self.saturate(zoo, cluster, allocator, ceiling * 1.5, now=60.0)
        scaler.tick(60.0)
        scaler.tick(70.0)
        engine.run(until=120.0)  # provisioning completes
        added = [w for w in cluster.healthy_workers if w.enrolled_at_s > 0]
        assert added
        # Demand collapses: nothing arrives after t=60.
        scaler.tick(300.0)
        assert scaler.num_scale_ins == 0  # debounce
        scaler.tick(310.0)
        assert scaler.num_scale_ins == 1
        # LIFO: the autoscaler-added worker drains, the baseline stays.
        assert not added[-1].is_active
        assert all(cluster.workers[i].is_active for i in range(2))

    def test_scale_in_respects_min_workers(self, engine, zoo):
        config, cluster, allocator, scaler = self.make_stack(engine, zoo, min_workers=2)
        scaler.tick(100.0)
        scaler.tick(110.0)
        scaler.tick(120.0)
        assert cluster.fleet_size == 2
        assert scaler.events == []

    def test_hysteresis_band_holds_fleet_steady(self, engine, zoo):
        config, cluster, allocator, scaler = self.make_stack(engine, zoo)
        ceiling = cluster.fleet_ceiling_qpm(Strategy.AC)
        # Demand between the scale-in and scale-out thresholds: no action.
        mid = 0.75 * ceiling
        for i in range(int(mid)):
            allocator.observe_arrival(60.0 * i / mid)
        fastest = zoo.fastest_level(Strategy.AC)
        for worker in cluster.healthy_workers:
            worker.set_level(fastest)
        for t in (60.0, 70.0, 80.0, 90.0, 100.0):
            scaler.tick(t)
        assert scaler.events == []
        assert cluster.fleet_size == 2


class TestConfigKnobs:
    def test_autoscale_validation(self):
        with pytest.raises(ValueError):
            ArgusConfig(min_workers=0)
        with pytest.raises(ValueError):
            ArgusConfig(num_workers=4, min_workers=5)
        with pytest.raises(ValueError):
            ArgusConfig(num_workers=4, max_workers=3)
        with pytest.raises(ValueError):
            ArgusConfig(provision_delay_s=-1.0)
        with pytest.raises(ValueError):
            ArgusConfig(scale_up_threshold=0.5, scale_down_threshold=0.6)
        with pytest.raises(KeyError):
            ArgusConfig(gpu="H100")

    def test_effective_defaults(self):
        config = ArgusConfig(num_workers=8)
        assert config.effective_min_workers == 8
        assert config.effective_max_workers == 32
        assert not config.autoscale_enabled


class TestAutoscalingEndToEnd:
    @pytest.fixture(scope="class")
    def overload_results(self):
        """Argus on an overloaded 2-worker cluster, fixed vs autoscaled."""
        trace = TraceLibrary(seed=0).constant(duration_minutes=8, qpm=80.0)
        dataset = PromptDataset.synthetic(count=200, seed=21)
        results = {}
        for autoscale in (False, True):
            config = ArgusConfig(
                num_workers=2,
                classifier_training_prompts=150,
                profiling_prompts=80,
                classifier_epochs=5,
                autoscale_enabled=autoscale,
                max_workers=6,
                provision_delay_s=30.0,
                autoscale_interval_s=10.0,
                scale_out_cooldown_s=20.0,
            )
            system = ArgusSystem(config=config, training_dataset=dataset)
            runner = ExperimentRunner(seed=0, dataset_size=250, drain_s=60.0)
            results[autoscale] = (runner.run(system, trace), system)
        return results

    def test_autoscaling_beats_fixed_fleet_under_overload(self, overload_results):
        fixed = overload_results[False][0].summary
        scaled = overload_results[True][0].summary
        assert scaled.mean_served_qpm > fixed.mean_served_qpm
        assert scaled.fleet_peak_workers > fixed.fleet_peak_workers

    def test_fleet_metrics_recorded(self, overload_results):
        fixed = overload_results[False][0].summary
        scaled = overload_results[True][0].summary
        assert fixed.fleet_peak_workers == 2
        assert fixed.fleet_mean_workers == pytest.approx(2.0)
        assert fixed.workers_added == 0
        assert fixed.gpu_hours > 0 and fixed.cost_usd > 0
        assert scaled.workers_added > 0
        assert scaled.fleet_mean_workers > 2.0
        assert scaled.gpu_hours > fixed.gpu_hours
        assert scaled.cost_per_image_usd > 0

    def test_fleet_minute_series_attached(self, overload_results):
        result, _system = overload_results[True]
        series = result.fleet_size_series
        assert series[0] >= 2.0
        assert max(series) > 2.0

    def test_disabled_autoscaler_keeps_fleet_fixed(self, overload_results):
        result, system = overload_results[False]
        assert system.autoscaler is None
        assert all(
            abs(v - 2.0) < 1e-9
            for v in result.fleet_size_series[: result.minute_series[-1].minute]
            if v > 0
        )
        assert len(system.cluster.workers) == 2
