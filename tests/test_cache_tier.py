"""Tests for the distributed cache tier: ring, per-node index, replication,
tombstones, quotas, poisoning, per-node network windows, shard-aware routing,
and the factory's bit-identity gate."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.cache import build_cache
from repro.cache.approximate import ApproximateCache
from repro.cache.network import NetworkCondition, NetworkModel
from repro.cache.store import NoiseStateStore
from repro.cache.tier import CacheTier, HashRing, _key_hash
from repro.core.config import ArgusConfig
from repro.prompts.dataset import PromptDataset
from repro.prompts.embedding import PromptEmbedder
from repro.workloads.tenants import TenantSpec


def _prompts(count=40, seed=0):
    return PromptDataset.synthetic(count=count, seed=seed).prompts


class TestHashRing:
    def test_deterministic_placement(self):
        a = HashRing([0, 1, 2], vnodes=32)
        b = HashRing([0, 1, 2], vnodes=32)
        for h in range(0, 2**63, 2**58):
            assert a.owner(h) == b.owner(h)

    def test_preference_distinct_and_owner_first(self):
        ring = HashRing([0, 1, 2, 3], vnodes=32)
        for h in range(0, 2**63, 2**57):
            prefs = ring.preference(h, 3)
            assert len(prefs) == len(set(prefs)) == 3
            assert prefs[0] == ring.owner(h)

    def test_add_node_moves_bounded_fraction(self):
        ring = HashRing([0, 1, 2, 3], vnodes=64)
        hashes = [h for h in range(0, 2**63, 2**52)]
        before = {h: ring.owner(h) for h in hashes}
        ring.add_node(4)
        moved = sum(1 for h in hashes if ring.owner(h) != before[h])
        # Joining a 5th node should claim roughly 1/5 of the keyspace;
        # anything migrating that didn't move to the new node is a bug.
        assert moved / len(hashes) < 0.35
        for h in hashes:
            if ring.owner(h) != before[h]:
                assert ring.owner(h) == 4

    def test_remove_node_only_reassigns_its_keys(self):
        ring = HashRing([0, 1, 2], vnodes=64)
        hashes = [h for h in range(0, 2**63, 2**52)]
        before = {h: ring.owner(h) for h in hashes}
        ring.remove_node(1)
        for h in hashes:
            if before[h] != 1:
                assert ring.owner(h) == before[h]
            else:
                assert ring.owner(h) in (0, 2)

    def test_remove_last_node_rejected(self):
        ring = HashRing([0], vnodes=8)
        with pytest.raises(ValueError):
            ring.remove_node(0)

    def test_duplicate_node_rejected(self):
        ring = HashRing([0, 1], vnodes=8)
        with pytest.raises(ValueError):
            ring.add_node(1)


def _tier(**kwargs) -> CacheTier:
    defaults = dict(shards=3, replication=1, embedder=PromptEmbedder(), seed=0)
    defaults.update(kwargs)
    return CacheTier(**defaults)


class TestTierPlacementAndReplication:
    def test_store_places_owner_and_replicas(self):
        tier = _tier()
        prompts = _prompts(30)
        for p in prompts:
            tier.store_states(p, now_s=10.0)
        for p in prompts:
            key = tier.entry_key(p.tenant, p.prompt_id)
            owner = tier._nodes[tier.owner_shard(p.tenant, p.prompt_id)]
            assert key in owner.primaries
            copies = sum(1 for n in tier._nodes.values() if key in n.states)
            assert copies == 2  # owner + 1 replica

    def test_replica_invisible_until_lag_elapses(self):
        tier = _tier(replication_lag_s=30.0)
        [p] = _prompts(1)
        tier.store_states(p, now_s=100.0)
        owner_id = tier.owner_shard(p.tenant, p.prompt_id)
        # Darken the owner: before the staleness bound the replica copy is
        # not yet visible (stale miss); after it, the replica serves.
        tier.schedule_node_condition(owner_id, 0.0, 10_000.0, NetworkCondition.OUTAGE)
        early = tier.retrieve(p, requested_skip=10, now_s=110.0)
        assert not early.hit
        late = tier.retrieve(p, requested_skip=10, now_s=140.0)
        assert late.hit
        replica_reads = sum(n.replica_reads for n in tier._nodes.values())
        assert replica_reads == 1

    def test_warm_entries_visible_immediately(self):
        tier = _tier(replication_lag_s=1e9)
        prompts = _prompts(10)
        tier.warm(prompts)
        p = prompts[0]
        owner_id = tier.owner_shard(p.tenant, p.prompt_id)
        tier.schedule_node_condition(owner_id, 0.0, 10_000.0, NetworkCondition.OUTAGE)
        assert tier.retrieve(p, requested_skip=10, now_s=5.0).hit

    def test_hot_owner_spills_to_replica(self):
        tier = _tier(hot_shard_threshold=3, replication_lag_s=0.0)
        [p] = _prompts(1)
        tier.store_states(p, now_s=0.0)
        for i in range(8):
            out = tier.retrieve(p, requested_skip=10, now_s=1.0 + i)
            assert out.hit
        assert sum(n.replica_reads for n in tier._nodes.values()) > 0

    def test_equal_similarity_across_nodes_resolves_to_older_seq(self):
        # Two entries with the same text and topic embed identically; when
        # their owners differ, the fan-out merge must pick the older one,
        # whichever node it lives on.
        [template] = _prompts(1)
        twins = [replace(template, prompt_id=i) for i in range(1, 40)]
        tier = _tier(replication=0)
        first = twins[0]
        owner = tier.owner_shard(first.tenant, first.prompt_id)
        second = next(p for p in twins if tier.owner_shard(p.tenant, p.prompt_id) != owner)
        probe = replace(template, prompt_id=1000)
        for older, newer in ((first, second), (second, first)):
            tier = _tier(replication=0)
            tier.store_states(older, now_s=0.0)
            tier.store_states(newer, now_s=1.0)
            assert tier.retrieve(probe, requested_skip=10, now_s=100.0).hit
            hits = {
                int(node_id): shard["hits"]
                for node_id, shard in tier.tier_stats()["per_shard"].items()
            }
            assert hits[tier.owner_shard(older.tenant, older.prompt_id)] == 1
            assert sum(hits.values()) == 1

    def test_retrieval_matches_flat_cache_semantics(self):
        # Same prompt stream through the flat cache and a sharded tier:
        # identical hit/miss decisions and effective skips (network held
        # healthy so only placement differs).
        prompts = _prompts(60)
        flat = ApproximateCache(network=NetworkModel(jitter_fraction=0.0))
        tier = _tier(
            replication=0,
            network=NetworkModel(jitter_fraction=0.0),
            replication_lag_s=0.0,
        )
        for cache in (flat, tier):
            for i, p in enumerate(prompts):
                cache.store_states(p, *(() if cache is flat else (float(i),)))
        for i, p in enumerate(prompts):
            a = flat.retrieve(p, requested_skip=15, now_s=100.0 + i)
            b = tier.retrieve(p, requested_skip=15, now_s=100.0 + i)
            assert a.hit == b.hit
            assert a.effective_skip == b.effective_skip
            assert a.similarity == pytest.approx(b.similarity)


class TestRebalance:
    def test_add_node_migrates_and_preserves_data(self):
        tier = _tier()
        prompts = _prompts(60)
        for p in prompts:
            tier.store_states(p, now_s=0.0)
        new_id = tier.add_node(now_s=1.0)
        assert new_id == 3
        assert tier.moved_entries > 0
        stats = tier.tier_stats()
        assert stats["shards"] == 4
        assert stats["entries"] == len(prompts)
        for p in prompts:
            assert tier.retrieve(p, requested_skip=10, now_s=500.0).hit

    def test_remove_node_hands_off_primaries(self):
        tier = _tier()
        prompts = _prompts(60)
        for p in prompts:
            tier.store_states(p, now_s=0.0)
        tier.remove_node(0, now_s=1.0)
        stats = tier.tier_stats()
        assert stats["shards"] == 2
        assert stats["entries"] == len(prompts)
        assert not stats["per_shard"]["0"]["live"]
        for p in prompts:
            assert tier.owner_shard(p.tenant, p.prompt_id) != 0
            assert tier.retrieve(p, requested_skip=10, now_s=500.0).hit

    def test_replica_sets_follow_the_ring(self):
        tier = _tier(replication=2, shards=4)
        prompts = _prompts(40)
        for p in prompts:
            tier.store_states(p, now_s=0.0)
        tier.add_node(now_s=1.0)
        for p in prompts:
            key = tier.entry_key(p.tenant, p.prompt_id)
            prefs = set(tier.ring.preference(_key_hash(key), 3))
            holders = {nid for nid, n in tier._nodes.items() if key in n.states}
            assert holders == prefs


class TestQuotaAndTombstones:
    def test_quota_evicts_lru_across_shards(self):
        spec = TenantSpec(name="alpha", cache_quota=10)
        tier = _tier(tenants=(spec,))
        prompts = _prompts(25)
        for i, p in enumerate(prompts):
            object.__setattr__(p, "tenant", "alpha")
            tier.store_states(p, now_s=float(i))
        assert tier.tenant_entries("alpha") == 10
        assert tier.evictions == 15
        assert tier.tier_stats()["entries"] == 10
        # Survivors are the most recently stored.
        for p in prompts[-10:]:
            assert tier.retrieve(p, requested_skip=10, now_s=1000.0).hit

    def test_eviction_tombstones_replicas_then_compacts(self):
        spec = TenantSpec(name="alpha", cache_quota=5)
        tier = _tier(tenants=(spec,), replication_lag_s=10.0)
        prompts = _prompts(30)
        for i, p in enumerate(prompts):
            object.__setattr__(p, "tenant", "alpha")
            tier.store_states(p, now_s=float(i))
        live_tombstones = sum(len(n.tombstones) for n in tier._nodes.values())
        assert live_tombstones > 0
        tier._compact(now_s=10_000.0)
        assert sum(len(n.tombstones) for n in tier._nodes.values()) == 0
        assert tier.tombstones_compacted >= live_tombstones

    def test_tenant_name_with_colon_keeps_index_and_states_in_step(self):
        spec = TenantSpec(name="team:a", cache_quota=5)
        tier = _tier(shards=2, replication=1, tenants=(spec,))
        for i, p in enumerate(_prompts(40)):
            tier.store_states(replace(p, tenant="team:a"), now_s=float(i))
        copies = sum(len(node.states) for node in tier._nodes.values())
        rows = sum(len(index) for node in tier._nodes.values() for index in node.indexes.values())
        assert tier.tenant_entries("team:a") == 5
        assert copies == rows == 10


class TestPoisoning:
    def test_poison_detected_and_never_served(self):
        tier = _tier(seed=3)
        prompts = _prompts(40)
        for p in prompts:
            tier.store_states(p, now_s=0.0)
        poisoned = tier.poison(0.5, seed=1)
        assert 0 < poisoned < len(prompts)
        hits = 0
        for p in prompts:
            out = tier.retrieve(p, requested_skip=10, now_s=100.0)
            hits += out.hit
        stats = tier.tier_stats()["poison"]
        assert stats["entries_poisoned"] == poisoned
        assert stats["detected"] == poisoned
        assert stats["served"] == 0
        # Detected entries were deleted tier-wide, so they missed.
        assert hits == len(prompts) - poisoned
        assert tier.tier_stats()["entries"] == len(prompts) - poisoned

    def test_poison_deterministic_per_seed(self):
        picks = []
        for _ in range(2):
            tier = _tier()
            for p in _prompts(40):
                tier.store_states(p, now_s=0.0)
            picks.append(tier.poison(0.3, seed=9))
        assert picks[0] == picks[1]


class TestPerNodeNetworkWindows:
    """Condition windows composed per cache node (satellite: cache/network.py
    coverage — overlapping outage windows, later-wins segments)."""

    def test_only_scheduled_node_goes_dark(self):
        tier = _tier(replication=0)
        tier.schedule_node_condition(1, 100.0, 200.0, NetworkCondition.OUTAGE)
        for node_id, node in tier._nodes.items():
            expected = None if node_id == 1 else pytest.approx(0.05, abs=0.05)
            latency = node.network.retrieval_latency(150.0)
            if node_id == 1:
                assert latency is None
            else:
                assert latency is not None

    def test_overlapping_windows_later_wins(self):
        model = NetworkModel(seed=0)
        model.schedule_condition(0.0, 300.0, NetworkCondition.CONGESTED)
        model.schedule_condition(100.0, 200.0, NetworkCondition.OUTAGE)
        assert model.condition_at(50.0) is NetworkCondition.CONGESTED
        assert model.condition_at(150.0) is NetworkCondition.OUTAGE
        assert model.condition_at(250.0) is NetworkCondition.CONGESTED
        assert model.condition_at(350.0) is NetworkCondition.HEALTHY

    def test_overlapping_outages_union(self):
        model = NetworkModel(seed=0)
        model.schedule_condition(0.0, 150.0, NetworkCondition.OUTAGE)
        model.schedule_condition(100.0, 250.0, NetworkCondition.OUTAGE)
        for t in (0.0, 99.0, 100.0, 149.0, 150.0, 249.0):
            assert model.retrieval_latency(t) is None
        assert model.retrieval_latency(250.0) is not None

    def test_node_windows_compose_independently(self):
        tier = _tier(replication=0, shards=2)
        tier.schedule_node_condition(0, 0.0, 100.0, NetworkCondition.OUTAGE)
        tier.schedule_node_condition(0, 50.0, 150.0, NetworkCondition.OUTAGE)
        tier.schedule_node_condition(1, 120.0, 160.0, NetworkCondition.CONGESTED)
        n0, n1 = tier._nodes[0].network, tier._nodes[1].network
        assert n0.retrieval_latency(75.0) is None
        assert n0.retrieval_latency(125.0) is None
        assert n0.condition_at(155.0) is NetworkCondition.HEALTHY
        assert n1.condition_at(75.0) is NetworkCondition.HEALTHY
        assert n1.condition_at(130.0) is NetworkCondition.CONGESTED

    def test_unknown_node_rejected(self):
        tier = _tier()
        with pytest.raises(ValueError, match="no cache node"):
            tier.schedule_node_condition(99, 0.0, 1.0, NetworkCondition.OUTAGE)

    def test_all_nodes_dark_is_network_failure(self):
        tier = _tier(replication=0)
        [p] = _prompts(1)
        tier.store_states(p, now_s=0.0)
        for node_id in list(tier._nodes):
            tier.schedule_node_condition(node_id, 10.0, 20.0, NetworkCondition.OUTAGE)
        out = tier.retrieve(p, requested_skip=10, now_s=15.0)
        assert out.network_failed


class TestShardAwareRouting:
    def test_worker_prefers_partitions_workers(self):
        tier = _tier()
        prompts = _prompts(20)
        for p in prompts:
            preferred = [w for w in range(6) if tier.worker_prefers(p, w)]
            # Round-robin over 3 nodes: exactly 2 of 6 workers are near
            # any prompt's likely shard.
            assert len(preferred) == 2
            assert preferred[1] - preferred[0] == 3

    def test_likely_shard_is_key_owner(self):
        tier = _tier()
        for p in _prompts(20):
            assert tier.likely_shard(p) == tier.owner_shard(p.tenant, p.prompt_id)


class TestFactoryGating:
    def test_flat_cache_when_tier_disabled(self):
        config = ArgusConfig(cache_shards=1, cache_replication=0)
        assert not config.cache_tier_enabled
        assert isinstance(build_cache(config), ApproximateCache)

    def test_tier_when_sharded(self):
        config = ArgusConfig(cache_shards=3, cache_replication=1)
        assert config.cache_tier_enabled
        cache = build_cache(config)
        assert isinstance(cache, CacheTier)
        assert cache.num_shards == 3
        assert cache.replication == 1

    def test_config_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ArgusConfig(cache_shards=0)
        with pytest.raises(ValueError):
            ArgusConfig(cache_shards=2, cache_replication=2)

    def test_knobs_round_trip(self):
        config = ArgusConfig(
            cache_shards=4,
            cache_replication=2,
            cache_replication_lag_s=12.5,
            cache_hot_shard_threshold=99,
        )
        restored = ArgusConfig.from_dict(config.to_dict())
        assert restored == config


class TestBitIdentity:
    def test_single_shard_summary_digest_pinned(self):
        # cache_shards=1 with replication off must reproduce the flat-cache
        # run bit-for-bit: this digest was captured on the seed tree before
        # the tier existed.  If it moves, the tier leaked into the default
        # code path.
        from repro.scenarios.runtime import run_scenario

        run = run_scenario("steady-baseline", preset="small", seed=0)
        assert run.config.cache_shards == 1
        digest = hashlib.sha256(
            json.dumps(run.summary.as_dict(), sort_keys=True, default=str).encode()
        ).hexdigest()
        assert digest == (
            "bc58c23ad4ba57cf4e19edc8919963d3e8e8920d83706965809799a8c102b6d7"
        )


# One surface: the flat cache and the tier answer the same traffic alike.
_CACHE_SHAPES = {
    "flat": {},
    "tier-2": {"cache_shards": 2},
    "tier-3r1": {"cache_shards": 3, "cache_replication": 1},
}


def _cache(shape: str, tenants=()):
    return build_cache(ArgusConfig(tenants=list(tenants), **_CACHE_SHAPES[shape]))


class TestOneCacheSurface:
    @pytest.mark.parametrize("shape", ["flat", "tier-2"])
    def test_unconfigured_tags_share_the_anonymous_namespace(self, shape):
        cache = _cache(shape)
        prompts = _prompts(20)
        for p in prompts:
            cache.store_states(replace(p, tenant="x"))
        hits = sum(
            cache.retrieve(replace(p, tenant="y"), requested_skip=10, now_s=0.0).hit
            for p in prompts
        )
        assert hits == 20
        assert cache.tenant_entries("") == cache.tenant_entries("y") == 20

    @pytest.mark.parametrize("shape", list(_CACHE_SHAPES))
    def test_namespace_without_quota_is_bounded(self, shape, monkeypatch):
        # Every store holds five entries here, so the unbounded-by-quota
        # anonymous namespace overflows after five prompts.
        monkeypatch.setattr(
            NoiseStateStore,
            "capacity_entries",
            property(lambda store: 5, lambda store, value: None),
            raising=False,
        )
        cache = _cache(shape)
        prompts = _prompts(40)
        for p in prompts:
            cache.store_states(p)
        assert cache.tenant_entries("") == 5
        if isinstance(cache, CacheTier):
            assert cache.evictions == 35
            assert cache.tier_stats()["entries"] == 5
            copies = sum(len(node.states) for node in cache._nodes.values())
            rows = sum(len(i) for node in cache._nodes.values() for i in node.indexes.values())
            assert copies == rows == 5 * (1 + cache.replication)
        for p in prompts:
            cache.retrieve(p, requested_skip=10, now_s=0.0)
        # No index row outlived its state.
        assert cache.store_counts()[1] == 0

    def test_caches_agree_on_the_same_traffic(self):
        tenants = [{"name": "a", "cache_quota": 8}, {"name": "b"}]
        names = ("a", "b", "guest")
        readings = {}
        for shape in _CACHE_SHAPES:
            cache = _cache(shape, tenants)
            for p in _prompts(60):
                for name in names:
                    tagged = replace(p, tenant=name)
                    cache.retrieve(tagged, requested_skip=10, now_s=0.0)
                    cache.store_states(tagged)
            readings[shape] = (
                cache.retrieval_attempts,
                cache.retrieval_hits,
                [cache.retrieval_hit_rate_for(name) for name in names],
                [cache.tenant_entries(name) for name in (*names, "")],
            )
        assert readings["flat"][0] == 180
        assert readings["flat"][3] == [8, 60, 60, 60]
        assert readings["tier-2"] == readings["flat"]
        assert readings["tier-3r1"] == readings["flat"]
