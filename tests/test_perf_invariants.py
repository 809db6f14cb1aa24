"""Equivalence and invariant tests for the PR-3 hot-path optimisations.

Every optimisation in this PR must be observationally equivalent to the
seed implementation (the fig16 acceptance gate is a bit-for-bit identical
``RunSummary``).  These tests pin the per-component equivalences against
the seed-faithful references preserved in :mod:`benchmarks.perf.legacy`.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.perf import legacy
from repro.cache.network import NetworkCondition, NetworkModel
from repro.cache.vectordb import VectorDatabase
from repro.cluster.cluster import FleetIndex, GpuCluster
from repro.cluster.requests import CompletedRequest, Request
from repro.core.oda import ShiftMap
from repro.core.scheduler import PromptScheduler
from repro.core.solver import AllocationSolver
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import summarize
from repro.models.zoo import Strategy
from repro.prompts import memo
from repro.prompts.embedding import PromptEmbedder
from repro.prompts.features import PromptFeaturizer
from repro.prompts.generator import Prompt, PromptGenerator
from repro.quality.optimal import OPTIMALITY_THRESHOLD, OptimalModelSelector
from repro.quality.pickscore import PickScoreModel
from repro.simulation.engine import SimulationEngine


def _clustered_vectors(n: int, dim: int = 32, clusters: int = 12, seed: int = 0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    vectors = centers[rng.integers(0, clusters, size=n)] + 0.3 * rng.normal(size=(n, dim))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


class TestIndexEquivalence:
    """The flat index against the seed brute-force search."""

    @pytest.fixture(scope="class")
    def workload(self):
        vectors = _clustered_vectors(4000, seed=3)
        rng = np.random.default_rng(4)
        queries = vectors[rng.choice(len(vectors), size=100, replace=False)]
        return vectors, queries

    def test_flat_matches_legacy_brute_force(self, workload):
        vectors, queries = workload
        db = VectorDatabase(dim=vectors.shape[1])
        for vector in vectors:
            db.upsert(vector)
        for query in queries:
            optimized = db.search(query, top_k=1)[0]
            key, _sim = legacy.legacy_flat_search(db, query, top_k=1)[0]
            assert optimized.key == key

    def test_delete_upsert_churn_keeps_search_correct(self):
        vectors = _clustered_vectors(600, seed=7)
        db = VectorDatabase(dim=vectors.shape[1])
        keys = [db.upsert(v, payload={"i": i}) for i, v in enumerate(vectors)]
        deleted = set(keys[::3]) | set(keys[1::3])
        for key in deleted:
            assert db.delete(key)
        assert len(db) == 600 - len(deleted)
        for key in list(deleted)[:5]:
            assert not db.delete(key)
        live = [i for i, key in enumerate(keys) if key not in deleted]
        rng = np.random.default_rng(8)
        for i in rng.choice(live, size=30, replace=False):
            hit = db.nearest(vectors[i])
            assert hit is not None
            assert hit.key == keys[i]
            assert hit.payload == {"i": i}
            assert hit.similarity == pytest.approx(1.0)
        # Fresh upserts after churn are findable.
        fresh = _clustered_vectors(50, seed=9)
        fresh_keys = [db.upsert(v, payload={"fresh": j}) for j, v in enumerate(fresh)]
        for j in (0, 17, 49):
            assert db.nearest(fresh[j]).key == fresh_keys[j]

    def test_top_k_deterministic_tie_break(self):
        db = VectorDatabase(dim=8)
        vector = np.ones(8) / np.sqrt(8.0)
        first = db.upsert(vector)
        db.upsert(vector)
        db.upsert(vector)
        hits = db.search(vector, top_k=3)
        # Exactly equal similarities resolve by insertion order.
        assert [h.key for h in hits] == [first, first + 1, first + 2]
        assert db.nearest(vector).key == first

    def test_top_k_ties_straddling_partition_boundary(self):
        """Equal sims crossing the k-th position must still resolve
        index-ascending (argpartition alone picks an arbitrary subset)."""
        from repro.cache.vectordb import _top_k_positions

        rng = np.random.default_rng(24)
        for _ in range(500):
            n = int(rng.integers(8, 60))
            sims = rng.choice([0.9, 0.7, 0.5], size=n)  # heavy exact ties
            top_k = int(rng.integers(2, n))
            got = _top_k_positions(sims, top_k).tolist()
            reference = sorted(range(n), key=lambda i: (-sims[i], i))[:top_k]
            assert got == reference


def _make_completion(i: int, prompt, arrival: float, latency: float) -> CompletedRequest:
    request = Request(
        request_id=i,
        prompt=prompt,
        arrival_time_s=arrival,
        strategy=Strategy.AC,
        predicted_rank=0,
        assigned_rank=0,
    )
    return CompletedRequest(
        request=request,
        worker_id=0,
        start_time_s=arrival,
        completion_time_s=arrival + latency,
        effective_rank=0,
        service_time_s=latency,
    )


class TestColumnarCollectorEquivalence:
    @pytest.fixture()
    def filled(self):
        rng = np.random.default_rng(11)
        prompts = PromptGenerator(seed=1).generate(16)
        new = MetricsCollector()
        old = legacy.LegacyMetricsCollector()
        arrival = 0.0
        for i in range(3000):
            arrival += float(rng.exponential(0.2))
            latency = float(rng.uniform(0.5, 20.0))
            score = float(rng.uniform(15.0, 22.0))
            best = score + float(rng.uniform(0.0, 2.0))
            completion = _make_completion(i, prompts[i % 16], arrival, latency)
            for collector in (new, old):
                collector.record_arrival(arrival)
                collector.record_completion(completion, score, best)
        return new, old

    def test_run_summary_bit_identical(self, filled):
        new, old = filled
        summary_new = summarize("argus", "unit", new, duration_minutes=10.0)
        summary_old = summarize("argus", "unit", old, duration_minutes=10.0)
        assert summary_new == summary_old  # dataclass equality: every field

    def test_scalar_summaries_bit_identical(self, filled):
        new, old = filled
        assert new.slo_violation_ratio() == old.slo_violation_ratio()
        assert new.effective_accuracy() == old.effective_accuracy()
        assert new.mean_pickscore() == old.mean_pickscore()
        assert new.mean_relative_quality() == old.mean_relative_quality()
        for percentile in (50, 90, 99, 100):
            assert new.latency_percentile(percentile) == old.latency_percentile(percentile)
        assert new.relative_qualities() == old.relative_qualities()

    def test_minute_series_matches(self, filled):
        new, old = filled
        series_new = new.minute_series()
        series_old = old.minute_series()
        assert [m.minute for m in series_new] == [m.minute for m in series_old]
        for stats_new, stats_old in zip(series_new, series_old):
            assert stats_new.completions == stats_old.completions
            assert stats_new.slo_violations == stats_old.slo_violations
            assert stats_new.arrivals == stats_old.arrivals
            assert stats_new.mean_pickscore == stats_old.mean_pickscore
            assert stats_new.mean_relative_quality == stats_old.mean_relative_quality
            assert list(stats_new.latencies) == list(stats_old.latencies)


class TestSolverCacheAndVectorization:
    QUALITY = np.array([21.0, 20.5, 20.0, 19.0, 18.0, 16.0])
    PEAK = np.array([14.3, 15.7, 17.5, 19.7, 22.6, 26.5])

    def test_cache_hit_returns_same_plan(self):
        solver = AllocationSolver()
        first = solver.solve(120.0, self.QUALITY, self.PEAK, 8)
        second = solver.solve(120.0, self.QUALITY, self.PEAK, 8)
        assert first is second
        assert solver.cache_hits == 1

    def test_cache_invalidation_on_fleet_change(self):
        solver = AllocationSolver()
        solver.solve(120.0, self.QUALITY, self.PEAK, 8)
        solver.solve(120.0, self.QUALITY, self.PEAK, 7)
        solver.solve(120.0, self.QUALITY, self.PEAK, 8, speed_factors=[1.0] * 7 + [2.0])
        assert solver.cache_misses == 3

    def test_cache_invalidation_on_profile_change(self):
        solver = AllocationSolver()
        solver.solve(120.0, self.QUALITY, self.PEAK, 8)
        solver.solve(120.0, self.QUALITY * 1.001, self.PEAK, 8)
        solver.solve(120.0, self.QUALITY, self.PEAK * 1.001, 8)
        assert solver.cache_misses == 3
        assert solver.cache_hits == 0

    def test_cache_eviction_bounded(self):
        solver = AllocationSolver(cache_size=4)
        for target in range(10):
            solver.solve(float(target + 1), self.QUALITY, self.PEAK, 4)
        assert len(solver._cache) <= 4

    def test_quantum_bucketing_rounds_target_up(self):
        solver = AllocationSolver(cache_quantum_qpm=10.0)
        plan_a = solver.solve(101.0, self.QUALITY, self.PEAK, 8)
        plan_b = solver.solve(109.0, self.QUALITY, self.PEAK, 8)
        assert plan_a is plan_b
        assert plan_a.target_qpm == pytest.approx(110.0)

    def test_vectorized_matches_scalar_enumeration(self):
        solver = AllocationSolver()
        rng = np.random.default_rng(13)
        for _ in range(300):
            num_levels = int(rng.integers(2, 7))
            num_workers = int(rng.integers(1, 9))
            quality = np.sort(rng.uniform(10, 25, size=num_levels))[::-1].copy()
            peak = np.sort(rng.uniform(5, 30, size=num_levels)).copy()
            if rng.random() < 0.25:
                quality[int(rng.integers(0, num_levels))] = quality[0]
            target = float(rng.uniform(0, peak.max() * num_workers * 1.3))
            vectorized = solver._best_counts_enumerated(target, quality, peak, num_workers)
            scalar = legacy.enumerate_best_counts_scalar(
                target,
                quality,
                num_workers,
                lambda counts: [counts[l] * peak[l] for l in range(num_levels)],
            )
            assert vectorized == scalar

    def test_incremental_greedy_matches_recomputed_reference(self):
        solver = AllocationSolver(enumerate_limit=1)
        rng = np.random.default_rng(14)
        for _ in range(100):
            num_levels = int(rng.integers(2, 7))
            num_workers = int(rng.integers(8, 64))
            quality = np.sort(rng.uniform(10, 25, size=num_levels))[::-1].copy()
            peak = np.sort(rng.uniform(5, 30, size=num_levels)).copy()
            target = float(rng.uniform(0, peak.max() * num_workers * 1.2))
            counts = solver._best_counts_greedy(target, quality, peak, num_workers)
            reference = self._seed_greedy(target, quality, peak, num_workers)
            assert counts == reference

    @staticmethod
    def _seed_greedy(target_qpm, quality, peak_qpm, num_workers):
        num_levels = len(quality)
        counts = [0] * num_levels
        counts[0] = num_workers
        levels_by_speed = np.argsort(peak_qpm)

        def capacity(c):
            return float(sum(c[l] * peak_qpm[l] for l in range(num_levels)))

        while capacity(counts) < target_qpm:
            upgraded = False
            for level in levels_by_speed:
                if counts[level] > 0:
                    faster = [
                        l for l in range(num_levels) if peak_qpm[l] > peak_qpm[level]
                    ]
                    if not faster:
                        continue
                    next_level = min(faster, key=lambda l: peak_qpm[l])
                    counts[level] -= 1
                    counts[next_level] += 1
                    upgraded = True
                    break
            if not upgraded:
                break
        return counts


class TestEngineTupleHeap:
    def test_pending_counter_tracks_cancellations(self):
        engine = SimulationEngine()
        events = [engine.schedule_at(float(i), lambda e: None) for i in range(10)]
        assert engine.pending_events == 10
        events[3].cancel()
        events[3].cancel()  # double-cancel must not double-decrement
        assert engine.pending_events == 9
        engine.run()
        assert engine.pending_events == 0
        assert engine.events_processed == 9

    def test_cancel_after_execution_is_noop(self):
        engine = SimulationEngine()
        event = engine.schedule_at(1.0, lambda e: None)
        engine.schedule_at(2.0, lambda e: None)
        engine.step()
        assert event.executed
        event.cancel()  # stale handle: must not corrupt the live counter
        assert engine.pending_events == 1
        engine.run()
        assert engine.pending_events == 0

    def test_order_matches_legacy_engine(self):
        rng = np.random.default_rng(15)
        times = rng.uniform(0, 100, size=200)

        def drive(engine_cls):
            engine = engine_cls(seed=0)
            order = []
            for i, t in enumerate(times):
                engine.schedule_at(float(t), lambda e, i=i: order.append(i))
            engine.run()
            return order

        assert drive(SimulationEngine) == drive(legacy.LegacySimulationEngine)


class TestNetworkBisectEquivalence:
    def test_matches_linear_scan_with_overlaps(self):
        rng = np.random.default_rng(16)
        network = NetworkModel(seed=0)
        conditions = [
            NetworkCondition.CONGESTED,
            NetworkCondition.OUTAGE,
            NetworkCondition.HEALTHY,
        ]
        edges = []
        for i in range(40):
            start = float(rng.uniform(0, 1000))
            end = start + float(rng.uniform(1, 200))
            network.schedule_condition(start, end, conditions[i % 3])
            edges.extend([start, end])
        probes = list(rng.uniform(-10, 1300, size=500)) + edges
        for time_s in probes:
            assert network.condition_at(time_s) is legacy.legacy_condition_at(
                network, time_s
            )

    def test_rebuild_after_new_window(self):
        network = NetworkModel(seed=0)
        network.schedule_condition(0.0, 100.0, NetworkCondition.CONGESTED)
        assert network.condition_at(50.0) is NetworkCondition.CONGESTED
        network.schedule_condition(40.0, 60.0, NetworkCondition.OUTAGE)
        assert network.condition_at(50.0) is NetworkCondition.OUTAGE
        network.set_default_condition(NetworkCondition.OUTAGE)
        assert network.condition_at(2000.0) is NetworkCondition.OUTAGE


class TestEmbedderEquivalence:
    def test_batch_matches_single_bitwise(self):
        prompts = PromptGenerator(seed=17).generate(60)
        single = PromptEmbedder(dim=32)
        batched = PromptEmbedder(dim=32)
        reference = np.stack([single.embed(p) for p in prompts])
        matrix = batched.embed_batch(prompts)
        assert matrix.tobytes() == reference.tobytes()

    def test_key_distinguishes_same_id_same_topic(self):
        base = PromptGenerator(seed=18).generate_one()
        other = Prompt(
            prompt_id=base.prompt_id,
            text=base.text + " extra tokens here",
            num_entities=base.num_entities,
            num_attributes=base.num_attributes,
            num_style_tags=base.num_style_tags,
            has_action=base.has_action,
            has_scene=base.has_scene,
            complexity=base.complexity,
            topic=base.topic,
        )
        embedder = PromptEmbedder(dim=32)
        assert not np.array_equal(embedder.embed(base), embedder.embed(other))

    def test_matches_legacy_embed(self):
        prompts = PromptGenerator(seed=19).generate(20)
        optimized = PromptEmbedder(dim=32)
        reference = PromptEmbedder(dim=32)
        for prompt in prompts:
            assert optimized.embed(prompt).tobytes() == (
                legacy.legacy_embed(reference, prompt).tobytes()
            )
            assert optimized.embed_text(prompt.text).tobytes() == (
                legacy.legacy_embed_text(32, prompt.text).tobytes()
            )


#: Arbitrary Unicode text, and text made of the words the tokenizer must
#: get right: empty and punctuation-only tokens, mixed case, Unicode
#: whitespace, and letters whose lowercase form is longer (İ, ǅ) or depends
#: on context (final Σ).
_TEXTS = st.one_of(
    st.text(max_size=60),
    st.lists(
        st.sampled_from(
            "|,|.|,.|..|AND|And|the|A|İ|İstanbul|Σ|ΑΣ|ΑΣ.|.Σ|ΟΔΟΣ,|Red|neon|8K|Forest."
            "|walking,|\u0085|\u00a0|\t|ß|ǅ".split("|")
        ),
        max_size=12,
    ).map(" ".join),
)


class TestTextEquivalence:
    """Free text (what the gateway accepts) through the word tables."""

    @given(text=_TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_embed_text_matches_legacy(self, text):
        embedder = PromptEmbedder(dim=24)
        expected = legacy.legacy_embed_text(24, text).tobytes()
        # The second call finds every word in the table.
        assert embedder.embed_text(text).tobytes() == expected
        assert embedder.embed_text(text).tobytes() == expected

    @given(text=_TEXTS, hashed_dim=st.sampled_from([0, 5, 48]))
    @settings(max_examples=300, deadline=None)
    def test_featurize_text_matches_legacy(self, text, hashed_dim):
        featurizer = PromptFeaturizer(hashed_dim=hashed_dim)
        expected = legacy.legacy_featurize(featurizer, text)
        assert expected.shape == (featurizer.dim,)
        assert featurizer.featurize(text).tobytes() == expected.tobytes()
        assert featurizer.featurize(text).tobytes() == expected.tobytes()


class TestScoringEquivalence:
    def test_pickscore_matches_legacy_keys_and_values(self):
        prompts = PromptGenerator(seed=20).generate(30)
        optimized = PickScoreModel(seed=3)
        reference = PickScoreModel(seed=3)
        for prompt in prompts:
            for strategy in (Strategy.AC, Strategy.SM):
                assert optimized.tolerance_rank(prompt, strategy) == (
                    legacy.legacy_pickscore_tolerance(reference, prompt, strategy)
                )
                for rank in range(optimized.num_levels):
                    score = optimized.score(prompt, strategy, rank)
                    expected = legacy.legacy_pickscore_score(reference, prompt, strategy, rank)
                    assert type(score) is float and score.hex() == expected.hex()
            best = optimized.best_score(prompt)
            expected = legacy.legacy_pickscore_best(reference, prompt)
            assert type(best) is float and best.hex() == expected.hex()

    @pytest.mark.parametrize("strategy", [Strategy.AC, Strategy.SM])
    def test_batch_labels_match_legacy(self, strategy):
        first: dict[str, Prompt] = {}
        for prompt in PromptGenerator(seed=24).generate(600):
            first.setdefault(prompt.text, prompt)
        distinct = list(first.values())
        # Repeated prompts, and a prompt sharing an earlier prompt's text but
        # not its complexity: the earlier one fixes the text's tolerance.
        source = min(distinct, key=lambda prompt: prompt.complexity)
        twin = dataclasses.replace(source, prompt_id=10_000, complexity=1.0)
        prompts = distinct + distinct[::9] + [twin]
        model, reference = PickScoreModel(seed=5), PickScoreModel(seed=5)
        other = Strategy.SM if strategy is Strategy.AC else Strategy.AC
        levels = model.num_levels
        # Memos partly filled through the scalar path first.
        for i, prompt in enumerate(distinct[:200]):
            if i % 3 == 0:
                model.best_score(prompt)
            if i % 4 == 0:
                model.tolerance_rank(prompt, strategy)
            if i % 5 == 0:
                model.score(prompt, strategy, i % levels)
            if i % 7 == 0:
                model.score(prompt, other, 1)

        ranks = OptimalModelSelector(model).optimal_ranks(prompts, strategy)

        expected = []
        for prompt in prompts:
            scores = [
                legacy.legacy_pickscore_score(reference, prompt, strategy, rank)
                for rank in range(levels)
            ]
            cutoff = OPTIMALITY_THRESHOLD * max(scores)
            expected.append(max(rank for rank in range(levels) if scores[rank] >= cutoff))
        assert ranks == expected
        assert len(model._score_cache) == len(distinct)
        first_of = {prompt.content_hash(): prompt for prompt in distinct}
        for key, best in model._best_cache.items():
            assert best.hex() == legacy.legacy_pickscore_best(reference, first_of[key]).hex()
        for (key, strat), tolerance in model._tolerance_cache.items():
            assert tolerance == legacy.legacy_pickscore_tolerance(reference, first_of[key], strat)
        for key, scores in model._score_cache.items():
            for strat, rank in itertools.product(Strategy, range(levels)):
                score = scores[model._slot(strat, rank)]
                if score is None:
                    assert strat is not strategy
                    continue
                want = legacy.legacy_pickscore_score(reference, first_of[key], strat, rank)
                assert type(score) is float and score.hex() == want.hex()

    def test_score_memo_keeps_one_entry_per_prompt(self, monkeypatch):
        """Scoring fewer prompts than the memo bound at every (strategy,
        rank) pair seeds each pair once: the memo never empties."""
        monkeypatch.setattr(memo, "MAX_ENTRIES", 16)
        first: dict[str, Prompt] = {}
        for prompt in PromptGenerator(seed=25).generate(40):
            first.setdefault(prompt.text, prompt)
        prompts = list(first.values())[:12]
        model = PickScoreModel(seed=6)
        seeded: Counter = Counter()
        prompt_rng = model._prompt_rng

        def counting_rng(prompt, salt):
            seeded[prompt.text, salt] += 1
            return prompt_rng(prompt, salt)

        monkeypatch.setattr(model, "_prompt_rng", counting_rng)
        for _ in range(2):
            for prompt in prompts:
                for strategy in (Strategy.AC, Strategy.SM):
                    for rank in range(model.num_levels):
                        model.score(prompt, strategy, rank)
        score_seeds = [count for (_, salt), count in seeded.items() if salt.startswith("score-")]
        assert len(score_seeds) == len(prompts) * 2 * model.num_levels
        assert set(score_seeds) == {1}
        assert len(model._score_cache) == len(prompts)

    def test_featurizer_cache_matches_legacy(self):
        prompts = PromptGenerator(seed=21).generate(20)
        featurizer = PromptFeaturizer()
        for prompt in prompts:
            cached = featurizer.featurize(prompt)
            again = featurizer.featurize(prompt)
            assert again is cached  # memoised
            assert cached.tobytes() == legacy.legacy_featurize(featurizer, prompt).tobytes()
        # Raw-text input bypasses the cache but still matches.
        vector = featurizer.featurize(prompts[0].text)
        assert vector.tobytes() == featurizer.featurize(prompts[0]).tobytes()

    def test_shift_map_sampling_matches_choice(self):
        rng_matrix = np.random.default_rng(22)
        matrix = rng_matrix.random((5, 5)) + 0.05
        matrix /= matrix.sum(axis=1, keepdims=True)
        shift_map = ShiftMap(matrix=matrix)
        rng_a = np.random.default_rng(23)
        rng_b = np.random.default_rng(23)
        draws_new = [shift_map.sample_target(i % 5, rng_a) for i in range(200)]
        draws_old = [
            legacy.legacy_sample_target(shift_map, i % 5, rng_b) for i in range(200)
        ]
        assert draws_new == draws_old
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


_GENERATOR_CASES = [
    (seed, num_topics, complexity_bias)
    for seed, (num_topics, complexity_bias) in enumerate(
        itertools.product((1, 8, 24, 40), (-2.0, 0.0, 0.3, 2.0))
    )
]


class TestPromptGeneratorEquivalence:
    """Choice-free draws against the ``Generator.choice`` generator; biases
    of -2 and 2 push every complexity onto a clip edge."""

    @pytest.mark.parametrize("seed, num_topics, complexity_bias", _GENERATOR_CASES)
    def test_prompts_and_final_state_match_legacy(self, seed, num_topics, complexity_bias):
        options = dict(seed=seed, num_topics=num_topics, complexity_bias=complexity_bias)
        generator = PromptGenerator(**options)
        reference = legacy.LegacyPromptGenerator(**options)
        names = [field.name for field in dataclasses.fields(Prompt)]
        pairs = zip(generator.generate(2000), reference.generate(2000), strict=True)
        for prompt, expected in pairs:
            values = [getattr(prompt, name) for name in names]
            expected_values = [getattr(expected, name) for name in names]
            assert values == expected_values
            assert [type(v) for v in values] == [type(v) for v in expected_values]
            assert prompt.complexity.hex() == expected.complexity.hex()
        assert generator._rng.bit_generator.state == reference._rng.bit_generator.state


def _scan_route(cluster, target_rank: int, max_rank: int | None):
    """The O(W) scan the fleet index replaced: the workers in rotation a
    tenant floor allows (all of them when it allows none), the target rank
    or else the nearest one (ties to the lower rank), then Eq. 3's least
    backlog with ties to the lowest id."""
    healthy = [w for w in cluster.workers if w.is_active]
    if max_rank is not None:
        healthy = [w for w in healthy if w.level.rank <= max_rank] or healthy
    if not healthy:
        return None
    at_rank = [w for w in healthy if w.level.rank == target_rank]
    if not at_rank:
        nearest = min(healthy, key=lambda w: (abs(w.level.rank - target_rank), w.level.rank))
        at_rank = [w for w in healthy if w.level.rank == nearest.level.rank]
    return min(at_rank, key=lambda w: (w.estimated_backlog_s(), w.worker_id))


def _assert_index_matches_scan(cluster, scheduler) -> None:
    active = tuple(w for w in cluster.workers if w.is_active)
    assert cluster.healthy_workers == active
    assert cluster.fleet_size == len(active)
    assert cluster.total_queued_requests() == sum(w.queue_length for w in active)
    assert cluster.backlog_slack(2.0) == 2.0 * len(active) * cluster.max_batch_size
    for max_rank in (None, 0, 2, 4):
        for target in range(6):
            chosen = scheduler._find_worker(target, max_rank=max_rank)
            assert chosen is _scan_route(cluster, target, max_rank)


class TestFleetIndexEquivalence:
    """The incrementally maintained fleet index routes exactly as the O(W)
    scan it replaced, through every kind of worker change."""

    GPUS = ("A100", "V100", "A10G")
    #: Drawn uniformly, so queue traffic and engine steps come three times
    #: as often as each lifecycle change.
    OPS = ("enqueue", "step") * 3 + (
        "set_level",
        "degrade",
        "restore",
        "fail",
        "recover",
        "provision",
        "drain",
    )

    def _build(self, zoo, seed: int):
        engine = SimulationEngine(seed=seed)
        prompts = PromptGenerator(seed=seed).generate(50)
        requests = iter(range(10**6))

        def make_request(prompt):
            return Request(
                request_id=next(requests),
                prompt=prompt,
                arrival_time_s=engine.now,
                strategy=Strategy.AC,
                predicted_rank=0,
                assigned_rank=0,
            )

        def on_complete(_completed) -> None:
            # Completion callbacks may route: the index is already current.
            _assert_index_matches_scan(cluster, scheduler)

        def on_requeue(request) -> None:
            _assert_index_matches_scan(cluster, scheduler)
            worker = scheduler._find_worker(request.assigned_rank)
            if worker is not None:
                cluster.dispatch(request, worker.worker_id)

        cluster = GpuCluster(
            engine,
            zoo,
            num_workers=6,
            gpu_types=[self.GPUS[i % len(self.GPUS)] for i in range(6)],
            max_batch_size=3,
            batch_timeout_s=0.4,
            on_complete=on_complete,
            on_requeue=on_requeue,
        )
        scheduler = PromptScheduler(cluster, num_levels=6, rng=np.random.default_rng(seed))
        return engine, cluster, scheduler, prompts, make_request

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_operations_route_as_the_scan(self, zoo, seed):
        engine, cluster, scheduler, prompts, make_request = self._build(zoo, seed)
        rng = np.random.default_rng(100 + seed)
        # Three ranks with a gap: ranks share members, and targets 1, 4
        # and 5 fall back to the nearest rank (1 ties between 0 and 2).
        levels = [
            level
            for level in zoo.levels(Strategy.AC) + zoo.levels(Strategy.SM)
            if level.rank in (0, 2, 3)
        ]
        floors = (None, None, 0, 1, 2, 3, 4, 5)
        for step in range(400):
            op = self.OPS[rng.integers(len(self.OPS))]
            pick = cluster.workers[rng.integers(len(cluster.workers))]
            if op in ("restore", "recover"):
                # Undo a gray or full failure, when there is one to undo.
                undoable = [w for w in cluster.workers if w.is_degraded or w.is_failed]
                pick = undoable[rng.integers(len(undoable))] if undoable else pick
            level = levels[rng.integers(len(levels))]
            if op == "enqueue":
                # A burst, partly routed by Eq. 3 and partly to random
                # workers, so that queues build up unevenly.
                for _ in range(rng.integers(1, 6)):
                    max_rank = floors[rng.integers(len(floors))]
                    worker = scheduler._find_worker(int(rng.integers(6)), max_rank=max_rank)
                    if worker is None:
                        break
                    if rng.random() < 0.4:
                        active = cluster.healthy_workers
                        worker = active[rng.integers(len(active))]
                    prompt = prompts[rng.integers(len(prompts))]
                    cluster.dispatch(make_request(prompt), worker.worker_id)
            elif op == "step":
                for _ in range(rng.integers(1, 8)):
                    if not engine.step():
                        break
            elif op == "set_level":
                if not (pick.is_failed or pick.is_retired):
                    pick.set_level(level)
            elif op == "degrade":
                cluster.degrade_worker(pick.worker_id, float(rng.uniform(0.2, 0.9)))
            elif op == "restore":
                cluster.restore_worker(pick.worker_id)
            elif op == "fail":
                cluster.fail_worker(pick.worker_id)
            elif op == "recover":
                cluster.recover_worker(pick.worker_id, level if rng.random() < 0.5 else None)
            elif op == "provision":
                if len(cluster.workers) < 12:
                    cluster.provision_worker(
                        gpu=self.GPUS[rng.integers(len(self.GPUS))],
                        level=level,
                        provision_delay_s=float(rng.uniform(0.0, 2.0)),
                    )
            elif cluster.fleet_size > 1:
                cluster.drain_worker(pick.worker_id)
            _assert_index_matches_scan(cluster, scheduler)
            if step % 100 == 99:
                self._assert_copy_is_independent(cluster, scheduler, prompts, make_request)
        assert cluster.total_requests_served() > 0
        assert cluster.workers_retired > 0 and cluster.workers_added > 0

    def _assert_copy_is_independent(self, cluster, scheduler, prompts, make_request):
        twin_cluster, twin_scheduler = copy.deepcopy((cluster, scheduler))
        _assert_index_matches_scan(twin_cluster, twin_scheduler)
        # The copy's workers report to the copy's index, not the original's.
        for worker in twin_cluster.healthy_workers[:3]:
            twin_cluster.dispatch(make_request(prompts[0]), worker.worker_id)
        _assert_index_matches_scan(twin_cluster, twin_scheduler)
        _assert_index_matches_scan(cluster, scheduler)

    def test_stale_heap_entries_are_compacted(self, zoo):
        engine = SimulationEngine(seed=0)
        cluster = GpuCluster(engine, zoo, num_workers=2, max_batch_size=4)
        prompt = PromptGenerator(seed=0).generate(1)[0]
        for i in range(500):
            request = Request(
                request_id=i,
                prompt=prompt,
                arrival_time_s=0.0,
                strategy=Strategy.AC,
                predicted_rank=0,
                assigned_rank=0,
            )
            cluster.dispatch(request, worker_id=0)
        (heap,) = cluster.fleet_index._heaps.values()
        assert len(heap) <= 2 * cluster.fleet_size + FleetIndex._STALE_SLACK
        assert cluster.fleet_index.least_backlogged(0) is cluster.workers[1]
        assert cluster.total_queued_requests() == 499
