"""Multi-tenant serving: tenant specs, multiplexed streams, fair-share
admission, per-tenant SLO/quality/cache accounting, and the isolation
properties the tenancy layer exists to provide.

The two load-bearing guarantees pinned here:

* **Identity**: with tenancy unconfigured — or configured as the single
  default tenant — a seeded run is bit-identical to the pre-tenancy system.
* **Isolation**: under a flash crowd from one tenant, fair-share admission
  keeps the quiet tenant's SLO violation ratio within 2x its isolated-run
  value, while the same workload without fair-share degrades it >= 5x.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.cache import build_cache, warm_cache
from repro.cache.approximate import ApproximateCache
from repro.cache.network import NetworkCondition, NetworkModel
from repro.cache.store import NoiseStateStore
from repro.core.admission import FairShareAdmission
from repro.core.config import ArgusConfig
from repro.core.oda import ShiftMap
from repro.experiments.runner import ExperimentRunner, build_system
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import TenantSummary, fair_share_index
from repro.metrics.slo import SloPolicy
from repro.prompts.dataset import PromptDataset
from repro.prompts.generator import Prompt
from repro.runtime.sim import SimRuntime
from repro.simulation.engine import SimulationEngine
from repro.workloads.replay import RequestStream
from repro.workloads.tenants import (
    MultiTenantRequestStream,
    TenantSpec,
    build_runtimes,
    resolve_shares,
    tenant_trace,
)
from repro.workloads.traces import TraceLibrary


def _prompt(tenant: str = "", prompt_id: int = 0, text: str = "a red apple") -> Prompt:
    return Prompt(
        prompt_id=prompt_id,
        text=text,
        num_entities=1,
        num_attributes=1,
        num_style_tags=0,
        has_action=False,
        has_scene=False,
        complexity=0.2,
        tenant=tenant,
    )


# --------------------------------------------------------------------- #
# TenantSpec and share resolution
# --------------------------------------------------------------------- #
class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(name="t", weight=0.0)
        with pytest.raises(ValueError):
            TenantSpec(name="t", traffic_share=1.5)
        with pytest.raises(ValueError):
            TenantSpec(name="t", slo_class="platinum")
        with pytest.raises(ValueError):
            TenantSpec(name="t", slo_multiplier=-1.0)
        with pytest.raises(ValueError):
            TenantSpec(name="t", quality_floor_rank=-1)
        with pytest.raises(ValueError):
            TenantSpec(name="t", quality_floor=1.5)
        with pytest.raises(ValueError):
            TenantSpec(name="t", cache_quota=0)
        with pytest.raises(ValueError):
            TenantSpec(name="t", extra_qpm=(5.0, -1.0))

    def test_slo_policy_resolution(self):
        base = SloPolicy(multiplier=4.0)
        # standard inherits the deployment policy unchanged.
        assert TenantSpec(name="t").slo_policy(base) is base
        # a named class pins its own multiplier.
        assert TenantSpec(name="t", slo_class="gold").slo_policy(base).multiplier == 2.0
        assert (
            TenantSpec(name="t", slo_class="best-effort").slo_policy(base).multiplier == 6.0
        )
        # an explicit multiplier wins over the class.
        spec = TenantSpec(name="t", slo_class="gold", slo_multiplier=9.0)
        assert spec.slo_policy(base).multiplier == 9.0

    def test_unique_names_enforced(self):
        with pytest.raises(ValueError):
            ArgusConfig(tenants=(TenantSpec(name="a"), TenantSpec(name="a")))

    def test_anonymous_tenant_only_alone(self):
        with pytest.raises(ValueError):
            ArgusConfig(tenants=(TenantSpec(name=""), TenantSpec(name="b")))

    def test_shares_must_be_feasible(self):
        with pytest.raises(ValueError):
            ArgusConfig(
                tenants=(
                    TenantSpec(name="a", traffic_share=0.7),
                    TenantSpec(name="b", traffic_share=0.7),
                )
            )

    def test_share_resolution_splits_remainder(self):
        tenants = (
            TenantSpec(name="a", traffic_share=0.5),
            TenantSpec(name="b"),
            TenantSpec(name="c"),
        )
        shares = resolve_shares(tenants)
        assert shares == {"a": 0.5, "b": 0.25, "c": 0.25}

    def test_config_coerces_dict_specs(self):
        config = ArgusConfig(tenants=[{"name": "a", "weight": 2.0}])
        assert config.tenants[0] == TenantSpec(name="a", weight=2.0)
        assert config.multi_tenant
        assert not config.admission_enabled  # fairness needs >= 2 tenants

    def test_runtimes_resolve_budgets(self):
        base = SloPolicy()
        runtimes = build_runtimes(
            (TenantSpec(name="g", slo_class="gold"), TenantSpec(name="b")), base
        )
        assert runtimes["g"].budget_s == pytest.approx(2.0 * base.base_latency_s)
        assert runtimes["b"].budget_s == pytest.approx(base.budget_s)


# --------------------------------------------------------------------- #
# Multiplexed streams
# --------------------------------------------------------------------- #
class TestMultiTenantStream:
    def _tenants(self):
        return (
            TenantSpec(name="a", traffic_share=0.5),
            TenantSpec(name="b", traffic_share=0.5),
        )

    def _datasets(self, tenants):
        return {
            spec.name: PromptDataset.synthetic(count=50, seed=10 + i)
            for i, spec in enumerate(tenants)
        }

    def test_deterministic_interleave(self):
        trace = TraceLibrary(seed=0).constant(duration_minutes=3, qpm=30.0)
        tenants = self._tenants()
        datasets = self._datasets(tenants)
        first = list(MultiTenantRequestStream(trace, tenants, datasets, seed=4))
        second = list(MultiTenantRequestStream(trace, tenants, datasets, seed=4))
        assert first == second
        assert all(
            first[i].arrival_time_s <= first[i + 1].arrival_time_s
            for i in range(len(first) - 1)
        )
        tenant_tags = {tp.prompt.tenant for tp in first}
        assert tenant_tags == {"a", "b"}

    def test_prompts_tagged_at_generation_are_kept(self):
        trace = TraceLibrary(seed=0).constant(duration_minutes=3, qpm=30.0)
        tenants = self._tenants()
        tagged = {
            spec.name: PromptDataset.synthetic(count=50, seed=10 + i, tenant=spec.name)
            for i, spec in enumerate(tenants)
        }
        stream = MultiTenantRequestStream(trace, tenants, tagged, seed=4)
        for spec in tenants:
            kept = stream._tagged_prompts[spec.name]
            assert all(a is b for a, b in zip(kept, tagged[spec.name], strict=True))
        # Untagged datasets are still tagged, into the same stream.
        untagged = MultiTenantRequestStream(trace, tenants, self._datasets(tenants), seed=4)
        assert list(untagged) == list(stream)

    def test_single_default_tenant_equals_plain_stream(self):
        trace = TraceLibrary(seed=0).constant(duration_minutes=3, qpm=30.0)
        dataset = PromptDataset.synthetic(count=50, seed=10)
        plain = list(RequestStream(trace=trace, dataset=dataset, seed=4))
        multi = list(
            MultiTenantRequestStream(
                trace, (TenantSpec.default(),), {"": dataset}, seed=4
            )
        )
        assert multi == plain

    def test_extra_qpm_adds_traffic(self):
        base = TraceLibrary(seed=0).constant(duration_minutes=4, qpm=60.0)
        spec = TenantSpec(name="n", traffic_share=0.5, extra_qpm=(0.0, 100.0))
        trace = tenant_trace(base, spec, share=0.5)
        assert trace.qpm == (30.0, 130.0, 30.0, 30.0)

    def test_stream_requires_datasets_for_all_tenants(self):
        trace = TraceLibrary(seed=0).constant(duration_minutes=2, qpm=10.0)
        tenants = self._tenants()
        with pytest.raises(ValueError):
            MultiTenantRequestStream(trace, tenants, {"a": PromptDataset.synthetic(10, 1)})


# --------------------------------------------------------------------- #
# Fair-share admission controller
# --------------------------------------------------------------------- #
class TestFairShareAdmission:
    def _controller(self, engine=None, capacity_qps=10.0, weights=(1.0, 1.0)):
        engine = engine or SimulationEngine(seed=0)
        admitted = []
        tenants = tuple(
            TenantSpec(name=name, weight=weight)
            for name, weight in zip(("a", "b"), weights)
        )
        controller = FairShareAdmission(
            runtime=SimRuntime(engine),
            tenants=tenants,
            capacity_qps=lambda: capacity_qps,
            admit=lambda prompt, offered_at: admitted.append((prompt.tenant, offered_at)),
            rate_factor=1.0,
            burst_s=1.0,
        )
        return engine, controller, admitted

    def test_within_share_admits_immediately(self):
        engine, controller, admitted = self._controller()
        # Tenant a's guaranteed rate is 5 qps; offer at 2 qps.
        for i in range(10):
            assert controller.offer(i * 0.5, _prompt("a", prompt_id=i))
        assert controller.backlog() == 0
        assert controller.stats_for("a").admitted_immediately == 10

    def test_flood_queues_offender_not_victim(self):
        engine, controller, admitted = self._controller()
        # Tenant a floods far beyond its 5 qps share within one second.
        flood_queued = 0
        for i in range(50):
            if not controller.offer(0.01 * i, _prompt("a", prompt_id=i)):
                flood_queued += 1
        assert flood_queued > 30
        # Tenant b, arriving mid-flood at its own trickle, is untouched.
        assert controller.offer(0.6, _prompt("b", prompt_id=100))
        assert controller.backlog("b") == 0
        assert controller.backlog("a") == flood_queued

    def test_queue_drains_at_guaranteed_rate(self):
        engine, controller, admitted = self._controller()
        for i in range(30):
            controller.offer(0.0, _prompt("a", prompt_id=i))
        engine.run(until=3.0)
        # ~5 qps guaranteed + surplus (b idle) ~10 qps total for 3 s.
        drained = controller.stats_for("a").admitted
        assert drained >= 25
        waits = controller.stats_for("a")
        assert waits.max_wait_s > 0.0

    def test_weighted_shares(self):
        engine, controller, admitted = self._controller(weights=(3.0, 1.0))
        for i in range(40):
            controller.offer(0.0, _prompt("a", prompt_id=i))
            controller.offer(0.0, _prompt("b", prompt_id=100 + i))
        engine.run(until=2.0)
        served_a = controller.stats_for("a").admitted
        served_b = controller.stats_for("b").admitted
        assert served_a > served_b  # 3x the weight, ~3x the drain rate
        assert served_a >= 2 * served_b

    def test_unknown_tenant_bypasses(self):
        engine, controller, admitted = self._controller()
        assert controller.offer(0.0, _prompt("mystery"))

    def test_needs_two_tenants(self):
        with pytest.raises(ValueError):
            FairShareAdmission(
                runtime=SimRuntime(SimulationEngine(seed=0)),
                tenants=(TenantSpec(name="solo"),),
                capacity_qps=lambda: 1.0,
                admit=lambda p, t: None,
            )


# --------------------------------------------------------------------- #
# Planning: PASM clamps and weighted affinity
# --------------------------------------------------------------------- #
class TestQualityFloors:
    def test_shift_map_clamped_folds_mass(self):
        base = ShiftMap.load_proportional(np.array([0.1, 0.2, 0.3, 0.4]))
        clamped = base.clamped(1)
        matrix = clamped.matrix
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)
        assert np.all(matrix[:, 2:] == 0.0)
        # All the rank>=2 mass landed on rank 1.
        np.testing.assert_allclose(matrix[:, 1], base.matrix[:, 1:].sum(axis=1))

    def test_clamp_at_top_rank_is_identity(self):
        base = ShiftMap.identity(4)
        assert base.clamped(3) is base

    def test_scheduler_respects_floor(self):
        from repro.cluster.cluster import GpuCluster
        from repro.core.scheduler import PromptScheduler
        from repro.models.zoo import ModelZoo, Strategy

        engine = SimulationEngine(seed=0)
        zoo = ModelZoo()
        cluster = GpuCluster(engine, zoo, num_workers=4)
        levels = zoo.levels(Strategy.AC)
        cluster.apply_assignment({0: levels[1], 1: levels[1], 2: levels[5], 3: levels[5]})
        scheduler = PromptScheduler(cluster, num_levels=6, rng=np.random.default_rng(0))
        scheduler.set_tenants(
            build_runtimes(
                (
                    TenantSpec(name="floor", traffic_share=0.5, quality_floor_rank=2),
                    TenantSpec(name="free", traffic_share=0.5),
                ),
                SloPolicy(),
            )
        )
        # A PASM that pushes everything to the most approximate level.
        scheduler.set_shift_map(
            ShiftMap.load_proportional(np.array([0, 0, 0, 0, 0, 1.0]))
        )
        for i in range(20):
            decision = scheduler.route(_prompt("floor", prompt_id=i))
            assert decision.assigned_rank <= 2
            decision = scheduler.route(_prompt("free", prompt_id=100 + i))
            assert decision.assigned_rank == 5

    def test_floor_breach_counted_when_no_eligible_worker(self):
        from repro.cluster.cluster import GpuCluster
        from repro.core.scheduler import PromptScheduler
        from repro.models.zoo import ModelZoo, Strategy

        engine = SimulationEngine(seed=0)
        zoo = ModelZoo()
        cluster = GpuCluster(engine, zoo, num_workers=2)
        levels = zoo.levels(Strategy.AC)
        cluster.apply_assignment({0: levels[5], 1: levels[5]})
        scheduler = PromptScheduler(cluster, num_levels=6, rng=np.random.default_rng(0))
        scheduler.set_tenants(
            build_runtimes(
                (
                    TenantSpec(name="floor", traffic_share=0.5, quality_floor_rank=1),
                    TenantSpec(name="other", traffic_share=0.5),
                ),
                SloPolicy(),
            )
        )
        decision = scheduler.route(_prompt("floor"))
        # Better to serve above the floor than to drop the request.
        assert decision is not None
        assert decision.assigned_rank == 5
        assert scheduler.floor_breaches == 1

    def test_weighted_affinity_histogram(self):
        from repro.core.predictor import WorkloadDistributionPredictor

        predictor = WorkloadDistributionPredictor(num_levels=2, lookback=100)
        predictor.observe(0, weight=3.0)
        predictor.observe(1, weight=1.0)
        dist = predictor.affinity_distribution()
        assert dist[0] == pytest.approx(0.75)
        with pytest.raises(ValueError):
            predictor.observe(0, weight=0.0)


# --------------------------------------------------------------------- #
# Tenant-namespaced cache
# --------------------------------------------------------------------- #
class TestTenantCache:
    def _cache(self, tenants):
        network = NetworkModel(seed=0)
        network.set_default_condition(NetworkCondition.HEALTHY)
        return ApproximateCache(network=network, tenants=tenants)

    def test_namespaces_are_isolated(self):
        cache = self._cache((TenantSpec(name="a"), TenantSpec(name="b")))
        prompt_a = _prompt("a", prompt_id=1, text="a blue dragon in a forest")
        cache.store_states(prompt_a)
        # The *same* text from tenant b misses: b's namespace is empty.
        probe_b = _prompt("b", prompt_id=2, text="a blue dragon in a forest")
        outcome = cache.retrieve(probe_b, requested_skip=10, now_s=0.0)
        assert not outcome.hit
        # Tenant a itself hits.
        probe_a = _prompt("a", prompt_id=3, text="a blue dragon in a forest")
        outcome = cache.retrieve(probe_a, requested_skip=10, now_s=0.0)
        assert outcome.hit
        assert cache.retrieval_hit_rate_for("a") == 1.0
        assert cache.retrieval_hit_rate_for("b") == 0.0

    def test_quota_bounds_entries_and_evicts_vectors(self):
        cache = self._cache((TenantSpec(name="a", cache_quota=5), TenantSpec(name="b")))
        for i in range(20):
            cache.store_states(_prompt("a", prompt_id=i, text=f"unique text {i} xyz"))
        assert cache.tenant_entries("a") == 5
        # The vector index shrank in lockstep with the store evictions.
        assert len(cache._indexes["a"]) == 5

    def test_one_tenants_churn_cannot_evict_anothers_set(self):
        cache = self._cache(
            (TenantSpec(name="a", cache_quota=5), TenantSpec(name="b", cache_quota=5))
        )
        victim = _prompt("b", prompt_id=999, text="the protected working set entry")
        cache.store_states(victim)
        for i in range(200):
            cache.store_states(_prompt("a", prompt_id=i, text=f"churn churn {i}"))
        assert cache.tenant_entries("b") == 1
        probe = _prompt("b", prompt_id=1000, text="the protected working set entry")
        assert cache.retrieve(probe, requested_skip=10, now_s=0.0).hit

    def test_anonymous_tenant_uses_default_namespace(self):
        cache = self._cache(())
        prompt = _prompt("", prompt_id=5, text="plain old anonymous prompt")
        cache.store_states(prompt)
        assert len(cache._stores[""]) == 1
        assert cache.tenant_entries("") == 1

    def test_default_namespace_evictions_drop_their_vector_rows(self, monkeypatch):
        # Every store holds five entries here, so the default namespace
        # (anonymous and unconfigured tenants) overflows after five prompts.
        monkeypatch.setattr(
            NoiseStateStore,
            "capacity_entries",
            property(lambda store: 5, lambda store, value: None),
            raising=False,
        )
        cache = self._cache((TenantSpec(name="a"),))
        prompts = [
            _prompt(tenant, prompt_id=i, text=f"free text {i} {tenant}")
            for tenant in ("", "guest")
            for i in range(20)
        ]
        for _ in range(2):
            for prompt in prompts:
                cache.store_states(prompt)
        assert cache.tenant_entries("") == 5
        for prompt in prompts:
            cache.retrieve(prompt, requested_skip=10, now_s=0.0)
        # An evicted prompt's row went with its state: no retrieval matches
        # a row whose state is gone.
        _, store_misses = cache.store_counts()
        assert store_misses == 0

    @pytest.mark.parametrize("cache_shards", [1, 2])
    def test_anonymous_tenant_quota_is_enforced(self, cache_shards):
        config = ArgusConfig(cache_shards=cache_shards, tenants=[{"name": "", "cache_quota": 5}])
        cache = build_cache(config)
        prompts = PromptDataset.synthetic(count=40, seed=0).prompts
        warm_cache(cache, prompts, config.tenants)
        assert cache.tenant_entries("") == 5
        for prompt in prompts[::-1]:
            cache.store_states(prompt)
        assert cache.tenant_entries("") == 5


# --------------------------------------------------------------------- #
# Per-tenant metrics
# --------------------------------------------------------------------- #
class TestTenantMetrics:
    def test_collector_tenant_stats(self):
        from repro.cluster.requests import CompletedRequest, Request
        from repro.models.zoo import Strategy

        collector = MetricsCollector()
        for i, (tenant, latency) in enumerate(
            [("a", 1.0), ("a", 50.0), ("b", 1.0), ("b", 1.0)]
        ):
            collector.record_arrival(0.0, tenant=tenant)
            request = Request(
                request_id=i,
                prompt=_prompt(tenant, prompt_id=i),
                arrival_time_s=0.0,
                strategy=Strategy.AC,
                predicted_rank=0,
                assigned_rank=0,
            )
            completed = CompletedRequest(
                request=request,
                worker_id=0,
                start_time_s=0.0,
                completion_time_s=latency,
                effective_rank=0,
                service_time_s=latency,
            )
            collector.record_completion(completed, pickscore=0.8, best_pickscore=1.0)
        collector.record_drop(tenant="b")
        stats_a = collector.tenant_stats("a", budget_s=10.0)
        assert stats_a["arrivals"] == 2
        assert stats_a["completions"] == 2
        assert stats_a["violation_ratio"] == pytest.approx(0.5)
        stats_b = collector.tenant_stats("b", budget_s=10.0)
        assert stats_b["violation_ratio"] == 0.0
        assert stats_b["dropped"] == 1
        assert collector.tenant_stats("ghost")["completions"] == 0
        assert set(collector.tenant_names) == {"a", "b"}

    def test_fair_share_index(self):
        def row(name, completions, weight=1.0, arrivals=None):
            return TenantSummary(
                name=name,
                slo_class="standard",
                weight=weight,
                slo_budget_s=10.0,
                arrivals=arrivals if arrivals is not None else completions,
                completions=completions,
                dropped=0,
                slo_violation_ratio=0.0,
                mean_relative_quality=1.0,
                p99_latency_s=1.0,
            )

        assert fair_share_index((row("a", 100), row("b", 100))) == pytest.approx(1.0)
        skewed = fair_share_index((row("a", 190), row("b", 10)))
        assert skewed < 0.6
        # Weight-normalised: 3x weight serving 3x traffic is perfectly fair.
        weighted = fair_share_index((row("a", 300, weight=3.0), row("b", 100)))
        assert weighted == pytest.approx(1.0)
        # Idle tenants are excluded, not counted as starved.
        idle = fair_share_index((row("a", 100), row("b", 0, arrivals=0)))
        assert idle == pytest.approx(1.0)

    def test_slo_violation_ratio_accepts_array_likes(self):
        policy = SloPolicy()
        budget = policy.budget_s
        as_list = policy.violation_ratio([budget / 2, budget * 2])
        as_array = policy.violation_ratio(np.array([budget / 2, budget * 2]))
        as_tuple = policy.violation_ratio((budget / 2, budget * 2))
        assert as_list == as_array == as_tuple == 0.5
        assert isinstance(as_array, float)
        assert policy.violation_ratio(np.array([])) == 0.0
        assert isinstance(policy.violation_ratio(np.array([])), float)


# --------------------------------------------------------------------- #
# End-to-end: identity and isolation
# --------------------------------------------------------------------- #
def _small_config(tenants=(), **overrides):
    return ArgusConfig(
        num_workers=4,
        classifier_training_prompts=300,
        profiling_prompts=150,
        classifier_epochs=6,
        tenants=tenants,
        seed=5,
        **overrides,
    )


def _fig16_style_run(tenants=()):
    """A seeded fig16-style run (argus on a twitter-like trace)."""
    config = _small_config(tenants=tenants)
    trace = TraceLibrary(seed=5).twitter_like(
        duration_minutes=10, base_qpm=25.0, peak_qpm=50.0
    )
    runner = ExperimentRunner(seed=5, dataset_size=400)
    system = build_system("argus", config=config)
    if tenants:
        datasets = {tenants[0].name: runner.make_dataset()}
        stream = MultiTenantRequestStream(
            trace, tenants, datasets, seed=runner.seed + 2
        )
        return runner.run(system, trace, stream=stream)
    return runner.run(system, trace)


class TestIdentity:
    def test_default_tenant_bit_identical_to_untenanted(self):
        plain = _fig16_style_run()
        tenant = _fig16_style_run((TenantSpec.default(),))
        assert len(tenant.summary.tenants) == 1
        # Every pre-tenancy field (and the minute series) is bit-identical.
        assert replace(tenant.summary, tenants=()) == plain.summary
        plain_json = json.dumps(plain.summary.as_dict(), sort_keys=True)
        stripped_json = json.dumps(
            replace(tenant.summary, tenants=()).as_dict(), sort_keys=True
        )
        assert stripped_json == plain_json
        plain_minutes = [
            (m.minute, m.offered_qpm, m.served_qpm, m.violation_ratio)
            for m in plain.minute_series
        ]
        tenant_minutes = [
            (m.minute, m.offered_qpm, m.served_qpm, m.violation_ratio)
            for m in tenant.minute_series
        ]
        assert tenant_minutes == plain_minutes

    def test_untenanted_summary_json_has_no_tenant_keys(self):
        summary = _fig16_style_run().summary
        payload = summary.as_dict()
        assert "tenants" not in payload
        assert "fair_share_index" not in payload


NOISY_SPIKE = (0.0,) * 6 + (130.0,) * 5 + (0.0,) * 7
QUIET = TenantSpec(name="quiet", traffic_share=0.25)
NOISY = TenantSpec(name="noisy", traffic_share=0.75, extra_qpm=NOISY_SPIKE)


def _noisy_neighbor_run(tenants, fair_share=True):
    config = _small_config(
        tenants=tenants,
        fair_share_admission=fair_share,
        admission_rate_factor=0.65,
    )
    trace = TraceLibrary(seed=5).constant(duration_minutes=18, qpm=48.0)
    datasets = {
        spec.name: PromptDataset.synthetic(count=600, seed=6 + 7919 * i)
        for i, spec in enumerate(tenants)
    }
    stream = MultiTenantRequestStream(trace, tenants, datasets, seed=7)
    runner = ExperimentRunner(seed=5, dataset_size=600)
    system = build_system("argus", config=config)
    return runner.run(system, trace, stream=stream).summary


class TestNoisyNeighborIsolation:
    @pytest.fixture(scope="class")
    def runs(self):
        isolated = _noisy_neighbor_run((QUIET,))
        fair = _noisy_neighbor_run((QUIET, NOISY), fair_share=True)
        unfair = _noisy_neighbor_run((QUIET, NOISY), fair_share=False)
        return isolated, fair, unfair

    def test_quiet_tenant_offered_stream_is_identical(self, runs):
        isolated, fair, _ = runs
        assert isolated.tenant("quiet").arrivals == fair.tenant("quiet").arrivals

    def test_fair_share_preserves_quiet_tenant_slo(self, runs):
        """The acceptance bound: within 2x of the isolated-run value."""
        isolated, fair, _ = runs
        v_iso = isolated.tenant("quiet").slo_violation_ratio
        v_fair = fair.tenant("quiet").slo_violation_ratio
        assert v_fair <= 2.0 * v_iso + 0.02

    def test_without_fair_share_quiet_tenant_degrades_5x(self, runs):
        isolated, _, unfair = runs
        v_iso = isolated.tenant("quiet").slo_violation_ratio
        v_unfair = unfair.tenant("quiet").slo_violation_ratio
        assert v_unfair >= 5.0 * max(v_iso, 0.01)

    def test_fair_share_beats_no_fair_share_by_5x(self, runs):
        _, fair, unfair = runs
        v_fair = fair.tenant("quiet").slo_violation_ratio
        v_unfair = unfair.tenant("quiet").slo_violation_ratio
        assert v_unfair >= 5.0 * max(v_fair, 0.01)

    def test_noisy_tenant_bears_its_own_overload(self, runs):
        _, fair, _ = runs
        noisy = fair.tenant("noisy")
        assert noisy.slo_violation_ratio > 0.3
        assert noisy.admission_delayed > 100
        assert noisy.mean_admission_wait_s > 1.0
        # Offered requests end up served, dropped, parked at admission, or
        # still in-flight at worker queues when the run ends; the backlog
        # field surfaces the admission-parked remainder explicitly.
        assert noisy.admission_backlog > 0
        assert noisy.completions + noisy.dropped + noisy.admission_backlog <= noisy.arrivals

    def test_fair_run_is_deterministic(self):
        first = _noisy_neighbor_run((QUIET, NOISY), fair_share=True)
        second = _noisy_neighbor_run((QUIET, NOISY), fair_share=True)
        assert first == second
        assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
            second.as_dict(), sort_keys=True
        )


# --------------------------------------------------------------------- #
# Config validation satellites
# --------------------------------------------------------------------- #
class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"retrieval_latency_threshold_s": -0.5},
            {"retrieval_latency_threshold_s": 0.0},
            {"retrieval_violations_to_switch": 0},
            {"backlog_recalibration_min_gap_s": -1.0},
            {"scale_out_cooldown_s": -1.0},
            {"scale_in_cooldown_s": -1.0},
            {"autoscale_backlog_factor": -0.1},
            {"classifier_training_prompts": 0},
            {"classifier_epochs": 0},
            {"profiling_prompts": 0},
            {"max_scale_step": 0},
            {"scale_out_consecutive_ticks": 0},
            {"admission_rate_factor": 0.0},
            {"admission_burst_s": -1.0},
        ],
    )
    def test_nonsensical_knobs_rejected(self, overrides):
        with pytest.raises(ValueError):
            ArgusConfig(**overrides)

    def test_unknown_gpu_rejected(self):
        with pytest.raises(KeyError):
            ArgusConfig(gpu="TPU-v9")
        with pytest.raises(KeyError):
            ArgusConfig(gpu_mix=("A100", "TPU-v9"))

    def test_min_max_workers_cross_validated(self):
        # min > max is impossible through the existing per-field checks but
        # stays explicitly rejected should those bounds ever loosen.
        with pytest.raises(ValueError):
            ArgusConfig(num_workers=4, min_workers=5, max_workers=8)

    def test_valid_defaults_still_pass(self):
        config = ArgusConfig()
        assert config.tenants == ()
        assert not config.multi_tenant
