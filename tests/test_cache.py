"""Tests for the approximate-caching substrate: VDB, store, network, pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.approximate import ApproximateCache
from repro.cache.network import NetworkCondition, NetworkModel
from repro.cache.store import NoiseStateStore, StoredState
from repro.cache.vectordb import VectorDatabase
from repro.prompts.embedding import PromptEmbedder


class TestVectorDatabase:
    def _random_vectors(self, n, dim=16, seed=0):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, dim))
        return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)

    def test_upsert_and_len(self):
        db = VectorDatabase(dim=16)
        for vector in self._random_vectors(10):
            db.upsert(vector)
        assert len(db) == 10

    def test_nearest_returns_exact_match(self):
        db = VectorDatabase(dim=16)
        vectors = self._random_vectors(50)
        keys = [db.upsert(v, payload={"i": i}) for i, v in enumerate(vectors)]
        hit = db.nearest(vectors[17])
        assert hit is not None
        assert hit.key == keys[17]
        assert hit.similarity == pytest.approx(1.0)
        assert hit.payload == {"i": 17}

    def test_search_top_k_ordering(self):
        db = VectorDatabase(dim=16)
        for vector in self._random_vectors(100):
            db.upsert(vector)
        query = self._random_vectors(1, seed=9)[0]
        hits = db.search(query, top_k=5)
        assert len(hits) == 5
        sims = [h.similarity for h in hits]
        assert sims == sorted(sims, reverse=True)

    def test_empty_database(self):
        db = VectorDatabase(dim=8)
        assert db.nearest(np.ones(8)) is None
        assert db.search(np.ones(8), top_k=3) == []

    def test_delete(self):
        db = VectorDatabase(dim=8)
        vectors = self._random_vectors(5, dim=8)
        keys = [db.upsert(v) for v in vectors]
        assert db.delete(keys[2])
        assert not db.delete(keys[2])
        assert len(db) == 4
        hit = db.nearest(vectors[2])
        assert hit.key != keys[2]

    def test_growth_beyond_initial_capacity(self):
        db = VectorDatabase(dim=8)
        vectors = self._random_vectors(1500, dim=8)
        for vector in vectors:
            db.upsert(vector)
        assert len(db) == 1500
        assert db.nearest(vectors[1400]).similarity == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        db = VectorDatabase(dim=8)
        with pytest.raises(ValueError):
            db.upsert(np.ones(9))

    def test_caller_key_already_stored_is_replaced(self):
        db = VectorDatabase(dim=8)
        a, b = self._random_vectors(2, dim=8)
        assert db.upsert(a, payload="first", key=7) == 7
        assert db.upsert(b, payload="second", key=7) == 7
        assert len(db) == 1
        hit = db.nearest(b)
        assert (hit.key, hit.payload) == (7, "second")
        assert hit.similarity == pytest.approx(1.0)

    def test_automatic_keys_continue_above_caller_keys(self):
        db = VectorDatabase(dim=8)
        vectors = self._random_vectors(4, dim=8)
        assert db.upsert(vectors[0]) == 0
        db.upsert(vectors[1], key=41)
        db.upsert(vectors[2], key=5)
        assert db.upsert(vectors[3]) == 42

    def test_delete_by_caller_key(self):
        db = VectorDatabase(dim=8)
        vectors = self._random_vectors(3, dim=8)
        for key, vector in zip((30, 10, 20), vectors):
            db.upsert(vector, key=key)
        assert db.delete(30)
        assert not db.delete(30)
        assert len(db) == 2
        # The last row moved into the freed slot and is still found by key.
        assert db.nearest(vectors[2]).key == 20
        assert db.delete(20)
        assert db.nearest(vectors[1]).key == 10


class TestNoiseStateStore:
    def test_put_and_get(self):
        store = NoiseStateStore(capacity_entries=10)
        store.put(StoredState(prompt_id=1, prompt_text="x", available_steps=(5, 10, 15)))
        assert 1 in store
        entry = store.get(1)
        assert entry is not None
        assert entry.available_steps == (5, 10, 15)

    def test_miss_recorded(self):
        store = NoiseStateStore()
        assert store.get(42) is None
        assert store.stats.misses == 1
        assert store.stats.hit_rate == 0.0

    def test_hit_rate(self):
        store = NoiseStateStore()
        store.put(StoredState(prompt_id=1, prompt_text="x", available_steps=(5,)))
        store.get(1)
        store.get(2)
        assert store.stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        store = NoiseStateStore(capacity_entries=2)
        for pid in (1, 2, 3):
            store.put(StoredState(prompt_id=pid, prompt_text="x", available_steps=(5,)))
        assert 1 not in store
        assert 2 in store and 3 in store
        assert store.stats.evictions == 1

    def test_get_refreshes_lru_order(self):
        store = NoiseStateStore(capacity_entries=2)
        store.put(StoredState(prompt_id=1, prompt_text="x", available_steps=(5,)))
        store.put(StoredState(prompt_id=2, prompt_text="y", available_steps=(5,)))
        store.get(1)
        store.put(StoredState(prompt_id=3, prompt_text="z", available_steps=(5,)))
        assert 1 in store and 2 not in store

    def test_best_step_for(self):
        state = StoredState(prompt_id=1, prompt_text="x", available_steps=(5, 10, 15))
        assert state.best_step_for(20) == 15
        assert state.best_step_for(10) == 10
        assert state.best_step_for(3) is None

    def test_total_size(self):
        state = StoredState(prompt_id=1, prompt_text="x", available_steps=(5, 10))
        assert state.total_size_kib == pytest.approx(288.0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            NoiseStateStore(capacity_entries=0)


class TestNetworkModel:
    def test_healthy_latency_small(self):
        network = NetworkModel(seed=0)
        for t in (0.0, 10.0, 100.0):
            latency = network.retrieval_latency(t)
            assert latency is not None and latency < 0.2

    def test_congestion_window(self):
        network = NetworkModel(seed=0)
        network.schedule_condition(100.0, 200.0, NetworkCondition.CONGESTED)
        assert network.condition_at(50.0) is NetworkCondition.HEALTHY
        assert network.condition_at(150.0) is NetworkCondition.CONGESTED
        assert network.retrieval_latency(150.0) > 0.5

    def test_outage_returns_none(self):
        network = NetworkModel(seed=0)
        network.schedule_condition(10.0, 20.0, NetworkCondition.OUTAGE)
        assert network.retrieval_latency(15.0) is None
        assert network.probe(15.0) is None

    def test_probe_mean_healthy(self):
        network = NetworkModel(seed=0)
        probe = network.probe(5.0)
        assert probe is not None and probe < 0.2

    def test_invalid_window(self):
        network = NetworkModel()
        with pytest.raises(ValueError):
            network.schedule_condition(10.0, 5.0, NetworkCondition.CONGESTED)

    def test_later_windows_take_precedence(self):
        network = NetworkModel(seed=0)
        network.schedule_condition(0.0, 100.0, NetworkCondition.CONGESTED)
        network.schedule_condition(40.0, 60.0, NetworkCondition.OUTAGE)
        assert network.condition_at(50.0) is NetworkCondition.OUTAGE
        assert network.condition_at(80.0) is NetworkCondition.CONGESTED


class TestApproximateCache:
    @pytest.fixture()
    def warm_cache(self, prompts_small):
        cache = ApproximateCache(embedder=PromptEmbedder(dim=32), network=NetworkModel(seed=0))
        cache.warm(prompts_small[:100])
        return cache

    def test_k0_never_retrieves(self, warm_cache, prompts_small):
        outcome = warm_cache.retrieve(prompts_small[0], requested_skip=0, now_s=0.0)
        assert outcome.effective_skip == 0
        assert outcome.retrieval_latency_s == 0.0
        assert not outcome.hit

    def test_hit_for_identical_prompt(self, warm_cache, prompts_small):
        outcome = warm_cache.retrieve(prompts_small[0], requested_skip=20, now_s=0.0)
        assert outcome.hit
        assert outcome.effective_skip == 20
        assert outcome.similarity == pytest.approx(1.0)
        assert outcome.retrieval_latency_s > 0.0

    def test_similar_topic_prompt_hits(self, warm_cache, prompts_medium, prompts_small):
        cached_topics = {p.topic for p in prompts_small[:100]}
        candidates = [p for p in prompts_medium if p.topic in cached_topics]
        hits = sum(
            1
            for p in candidates[:50]
            if warm_cache.retrieve(p, requested_skip=15, now_s=0.0).hit
        )
        assert hits > 25

    def test_miss_when_cache_empty(self, prompts_small):
        cache = ApproximateCache(embedder=PromptEmbedder(dim=32))
        outcome = cache.retrieve(prompts_small[0], requested_skip=20, now_s=0.0)
        assert not outcome.hit
        assert outcome.effective_skip == 0

    def test_network_outage_marks_failure(self, prompts_small):
        network = NetworkModel(seed=0)
        network.set_default_condition(NetworkCondition.OUTAGE)
        cache = ApproximateCache(embedder=PromptEmbedder(dim=32), network=network)
        cache.warm(prompts_small[:10])
        outcome = cache.retrieve(prompts_small[0], requested_skip=20, now_s=0.0)
        assert outcome.network_failed
        assert outcome.effective_skip == 0

    def test_store_states_is_idempotent(self, prompts_small):
        cache = ApproximateCache(embedder=PromptEmbedder(dim=32))
        cache.store_states(prompts_small[0])
        cache.store_states(prompts_small[0])
        assert len(cache._indexes[cache._namespace(prompts_small[0].tenant)]) == 1

    def test_effective_skip_capped_by_checkpoints(self, prompts_small):
        cache = ApproximateCache(
            embedder=PromptEmbedder(dim=32), checkpoint_steps=(5, 10)
        )
        cache.warm(prompts_small[:5])
        outcome = cache.retrieve(prompts_small[0], requested_skip=25, now_s=0.0)
        assert outcome.hit
        assert outcome.effective_skip == 10

    def test_probe_network_delegates(self, warm_cache):
        assert warm_cache.probe_network(0.0) is not None

    def test_hit_rate_tracking(self, warm_cache, prompts_small):
        warm_cache.retrieve(prompts_small[0], requested_skip=20, now_s=0.0)
        assert 0.0 <= warm_cache.hit_rate <= 1.0
