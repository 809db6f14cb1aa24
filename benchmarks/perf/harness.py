"""Hot-path perf harness: times the optimised implementations against the
seed-faithful references in :mod:`benchmarks.perf.legacy`, on this machine,
in one process — so every "speedup" in ``BENCH_*.json`` is a genuine
before/after pair rather than a cross-machine comparison.

Run via ``python benchmarks/perf/run_perf.py``.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from benchmarks.perf import legacy
from repro.cache.network import NetworkCondition, NetworkModel
from repro.cache.vectordb import VectorDatabase
from repro.cluster.requests import CompletedRequest, Request
from repro.core.solver import AllocationSolver
from repro.metrics.collector import MetricsCollector
from repro.models.zoo import Strategy
from repro.prompts.dataset import PromptDataset
from repro.prompts.embedding import PromptEmbedder
from repro.simulation.engine import SimulationEngine


@dataclass(frozen=True)
class Preset:
    """Workload sizes for one harness run."""

    name: str
    vdb_entries: int
    vdb_queries: int
    collector_completions: int
    solver_rounds: int
    engine_events: int
    network_lookups: int
    embed_lookups: int
    e2e_trace_minutes: int


PRESETS = {
    # CI smoke preset: finishes in well under a minute.
    "small": Preset(
        name="small",
        vdb_entries=20_000,
        vdb_queries=50,
        collector_completions=20_000,
        solver_rounds=60,
        engine_events=100_000,
        network_lookups=20_000,
        embed_lookups=2_000,
        e2e_trace_minutes=12,
    ),
    # The numbers that go into the checked-in BENCH_PR3.json.
    "full": Preset(
        name="full",
        vdb_entries=100_000,
        vdb_queries=100,
        collector_completions=100_000,
        solver_rounds=200,
        engine_events=1_000_000,
        network_lookups=100_000,
        embed_lookups=10_000,
        e2e_trace_minutes=45,
    ),
}


def _timed(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _clustered_vectors(n: int, dim: int, clusters: int, seed: int) -> np.ndarray:
    """Topic-clustered unit vectors shaped like prompt embeddings."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assignments = rng.integers(0, clusters, size=n)
    vectors = centers[assignments] + 0.35 * rng.normal(size=(n, dim))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


# --------------------------------------------------------------------------- #
# 1. Vector search
# --------------------------------------------------------------------------- #


def bench_vectordb(preset: Preset) -> dict:
    dim = 64
    vectors = _clustered_vectors(preset.vdb_entries, dim, clusters=24, seed=1)
    queries = _clustered_vectors(preset.vdb_queries, dim, clusters=24, seed=2)
    db = VectorDatabase(dim=dim)
    for vector in vectors:
        db.upsert(vector)
    # Prime the legacy norms cache outside the timed region (the seed kept
    # norms incrementally, so rebuilding them is not part of its query cost).
    legacy.legacy_flat_search(db, queries[0])

    def run_optimized():
        for query in queries:
            db.search(query, top_k=1)

    def run_legacy():
        for query in queries:
            legacy.legacy_flat_search(db, query, top_k=1)

    optimized_s = _timed(run_optimized)
    legacy_s = _timed(run_legacy)
    agree = sum(
        1
        for query in queries
        if db.search(query, top_k=1)[0].key == legacy.legacy_flat_search(db, query)[0][0]
    )
    return {
        "entries": preset.vdb_entries,
        "queries": preset.vdb_queries,
        "legacy_s": legacy_s,
        "optimized_s": optimized_s,
        "speedup": legacy_s / optimized_s,
        "top1_agreement": agree / preset.vdb_queries,
    }


# --------------------------------------------------------------------------- #
# 2. Metrics collector
# --------------------------------------------------------------------------- #


def _synthetic_completions(n: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    dataset = PromptDataset.synthetic(count=64, seed=seed)
    prompts = dataset.prompts
    completions = []
    arrival = 0.0
    for i in range(n):
        arrival += float(rng.exponential(0.05))
        service = float(rng.uniform(0.4, 6.0))
        queue = float(rng.exponential(2.5))
        request = Request(
            request_id=i,
            prompt=prompts[i % len(prompts)],
            arrival_time_s=arrival,
            strategy=Strategy.AC,
            predicted_rank=0,
            assigned_rank=0,
        )
        completions.append(
            CompletedRequest(
                request=request,
                worker_id=i % 8,
                start_time_s=arrival + queue,
                completion_time_s=arrival + queue + service,
                effective_rank=0,
                service_time_s=service,
            )
        )
    scores = rng.uniform(18.0, 22.0, size=n)
    bests = scores + rng.uniform(0.0, 1.5, size=n)
    return completions, scores, bests


def _summary_pass(collector) -> tuple:
    return (
        collector.slo_violation_ratio(),
        collector.effective_accuracy(),
        collector.mean_pickscore(),
        collector.mean_relative_quality(),
        collector.latency_percentile(50),
        collector.latency_percentile(99),
        len(collector.minute_series()),
    )


def bench_collector(preset: Preset) -> dict:
    n = preset.collector_completions
    completions, scores, bests = _synthetic_completions(n)

    def fill(collector):
        for completed, score, best in zip(completions, scores, bests):
            collector.record_arrival(completed.request.arrival_time_s)
            collector.record_completion(completed, float(score), float(best))
        return collector

    legacy_collector = fill(legacy.LegacyMetricsCollector())
    new_collector = fill(MetricsCollector())

    legacy_s = _timed(lambda: _summary_pass(legacy_collector))
    optimized_s = _timed(lambda: _summary_pass(new_collector))
    results_match = _summary_pass(legacy_collector) == _summary_pass(new_collector)

    # Memory: bytes the collector keeps ALIVE after recording n completions,
    # including the per-request object graphs its design pins (the seed's
    # sample list holds every CompletedRequest; the lean columnar collector
    # lets them be freed).  Completions are allocated inside the traced
    # region and the external references dropped before measuring.
    def measure_retained(factory):
        gc.collect()
        tracemalloc.start()
        collector = factory()
        completed_list, score_arr, best_arr = _synthetic_completions(n, seed=11)
        for completed, score, best in zip(completed_list, score_arr, best_arr):
            collector.record_arrival(completed.request.arrival_time_s)
            collector.record_completion(completed, float(score), float(best))
        del completed_list, score_arr, best_arr
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del collector
        return retained

    legacy_bytes = measure_retained(legacy.LegacyMetricsCollector)
    columnar_bytes = measure_retained(MetricsCollector)
    return {
        "completions": n,
        "legacy_s": legacy_s,
        "optimized_s": optimized_s,
        "speedup": legacy_s / optimized_s,
        "results_match": bool(results_match),
        "legacy_retained_mib": legacy_bytes / 2**20,
        "columnar_retained_mib": columnar_bytes / 2**20,
        "memory_ratio": legacy_bytes / max(columnar_bytes, 1),
    }


# --------------------------------------------------------------------------- #
# 3. Solver
# --------------------------------------------------------------------------- #


def bench_solver(preset: Preset) -> dict:
    quality = np.array([21.0, 20.5, 20.0, 19.0, 18.0, 16.0])
    peak = np.array([14.3, 15.7, 17.5, 19.7, 22.6, 26.5])
    rng = np.random.default_rng(6)
    # A recalibration-shaped target stream: mostly repeats (steady load /
    # autoscaler what-if probes) with occasional drift.
    distinct = rng.uniform(20.0, 200.0, size=max(preset.solver_rounds // 10, 1))
    targets = [float(distinct[i % len(distinct)]) for i in range(preset.solver_rounds)]
    unique_targets = [float(t) for t in rng.uniform(20.0, 200.0, size=preset.solver_rounds)]

    legacy_solver = legacy.LegacySolver()
    legacy_s = _timed(
        lambda: [legacy_solver.solve(t, quality, peak, 8) for t in targets], repeats=1
    )

    def cached_run():
        solver = AllocationSolver()
        for target in targets:
            solver.solve(target, quality, peak, 8)

    def cold_run():
        solver = AllocationSolver()
        for target in unique_targets:
            solver.solve(target, quality, peak, 8)

    cached_s = _timed(cached_run, repeats=2)
    cold_s = _timed(cold_run, repeats=2)
    return {
        "rounds": preset.solver_rounds,
        "num_workers": 8,
        "num_levels": 6,
        "legacy_s": legacy_s,
        "optimized_s": cached_s,
        "speedup": legacy_s / cached_s,
        "vectorized_cold_s": cold_s,
        "vectorized_cold_speedup": legacy_s * (len(unique_targets) / len(targets)) / cold_s,
    }


# --------------------------------------------------------------------------- #
# 4. Simulation engine
# --------------------------------------------------------------------------- #


def bench_engine(preset: Preset) -> dict:
    n = preset.engine_events

    def drive(engine_cls):
        engine = engine_cls(seed=0)
        rng = np.random.default_rng(7)
        times = np.cumsum(rng.exponential(0.01, size=n // 2))

        def chain(e, budget=[n // 2]):
            if budget[0] > 0:
                budget[0] -= 1
                e.schedule_in(0.013, chain)

        for t in times[: n // 4]:
            engine.schedule_at(float(t), lambda e: None)
        engine.schedule_at(0.0, chain)
        pending_probes = 0
        while engine.step():
            if engine.events_processed % 10_000 == 0:
                pending_probes += engine.pending_events
        for t in times[n // 4 :]:
            engine.schedule_at(float(t) + engine.now, lambda e: None)
        engine.run()
        return engine.events_processed

    legacy_s = _timed(lambda: drive(legacy.LegacySimulationEngine), repeats=1)
    optimized_s = _timed(lambda: drive(SimulationEngine), repeats=1)
    return {
        "events": n,
        "legacy_s": legacy_s,
        "optimized_s": optimized_s,
        "speedup": legacy_s / optimized_s,
    }


# --------------------------------------------------------------------------- #
# 5. Network condition lookup + prompt embedding
# --------------------------------------------------------------------------- #


def bench_network(preset: Preset) -> dict:
    network = NetworkModel(seed=0)
    rng = np.random.default_rng(8)
    for _ in range(50):
        start = float(rng.uniform(0, 5000))
        network.schedule_condition(
            start, start + float(rng.uniform(10, 120)), NetworkCondition.CONGESTED
        )
    times = rng.uniform(0, 6000, size=preset.network_lookups)
    network.condition_at(0.0)  # build the segment timeline outside the timing

    legacy_s = _timed(lambda: [legacy.legacy_condition_at(network, t) for t in times])
    optimized_s = _timed(lambda: [network.condition_at(t) for t in times])
    mismatches = sum(
        1
        for t in times[:2000]
        if network.condition_at(t) is not legacy.legacy_condition_at(network, t)
    )
    return {
        "windows": 50,
        "lookups": preset.network_lookups,
        "legacy_s": legacy_s,
        "optimized_s": optimized_s,
        "speedup": legacy_s / optimized_s,
        "mismatches": mismatches,
    }


def bench_embedder(preset: Preset) -> dict:
    prompts = PromptDataset.synthetic(count=500, seed=9).prompts
    lookups = [prompts[i % len(prompts)] for i in range(preset.embed_lookups)]

    legacy_embedder = PromptEmbedder(dim=64)
    optimized_embedder = PromptEmbedder(dim=64)
    legacy_s = _timed(lambda: [legacy.legacy_embed(legacy_embedder, p) for p in lookups])
    optimized_s = _timed(lambda: [optimized_embedder.embed(p) for p in lookups])

    batch_embedder = PromptEmbedder(dim=64)
    batch_s = _timed(lambda: batch_embedder.embed_batch(prompts), repeats=1)
    reference = np.stack([optimized_embedder.embed(p) for p in prompts])
    batch_matches = bool(np.array_equal(batch_embedder.embed_batch(prompts), reference))
    return {
        "distinct_prompts": len(prompts),
        "lookups": preset.embed_lookups,
        "legacy_s": legacy_s,
        "optimized_s": optimized_s,
        "speedup": legacy_s / optimized_s,
        "warm_batch_s": batch_s,
        "batch_matches_single": batch_matches,
    }


# --------------------------------------------------------------------------- #
# 6. End-to-end fig16-style run
# --------------------------------------------------------------------------- #


def _build_argus(training):
    from benchmarks.helpers import bench_config
    from repro.experiments.runner import build_system

    return build_system("argus", config=bench_config(), training_dataset=training)


def bench_end_to_end(preset: Preset) -> dict:
    """Argus on a fig16-style trace, optimised stack vs seed hot paths.

    The legacy variant swaps the seed implementations back in at the same
    call sites (engine, collector, solver enumeration, vector search,
    embed, condition lookup) and replays the identical seeded workload.
    """
    from unittest import mock

    from benchmarks.helpers import bench_training_dataset
    from repro.experiments.runner import ExperimentRunner
    from repro.workloads.traces import TraceLibrary

    minutes = preset.e2e_trace_minutes
    trace = TraceLibrary(seed=0).twitter_like(duration_minutes=minutes)
    training = bench_training_dataset()

    def legacy_search(self, query, top_k=1):
        from repro.cache.vectordb import SearchResult

        hits = legacy.legacy_flat_search(self, query, top_k=top_k)
        return [
            SearchResult(key=key, similarity=sim, payload=self._payloads[key])
            for key, sim in hits
        ]

    def legacy_patches():
        from repro.core.oda import ShiftMap
        from repro.prompts.features import PromptFeaturizer
        from repro.quality.pickscore import PickScoreModel

        return [
            mock.patch.object(ShiftMap, "sample_target", legacy.legacy_sample_target),
            mock.patch("repro.core.base.SimulationEngine", legacy.LegacySimulationEngine),
            mock.patch("repro.core.base.MetricsCollector", legacy.LegacyMetricsCollector),
            mock.patch.object(VectorDatabase, "search", legacy_search),
            mock.patch.object(
                PromptEmbedder, "embed", lambda self, p: legacy.legacy_embed(self, p)
            ),
            mock.patch.object(NetworkModel, "condition_at", legacy.legacy_condition_at),
            mock.patch.object(PickScoreModel, "score", legacy.legacy_pickscore_score),
            mock.patch.object(PickScoreModel, "best_score", legacy.legacy_pickscore_best),
            mock.patch.object(
                PickScoreModel, "tolerance_rank", legacy.legacy_pickscore_tolerance
            ),
            mock.patch.object(
                PromptFeaturizer, "featurize", legacy.legacy_featurize
            ),
        ]

    # System build (offline classifier training / profiling) and dataset
    # generation are identical work in both variants; the timed region is
    # the serving run itself, which is what the hot-path work targets.
    runner = ExperimentRunner(seed=0, dataset_size=1500)
    dataset = runner.make_dataset()

    optimized_system = _build_argus(training)
    gc.collect()
    start = time.perf_counter()
    optimized_result = runner.run(optimized_system, trace, dataset=dataset)
    optimized_s = time.perf_counter() - start

    patches = legacy_patches()
    for patch in patches:
        patch.start()
    try:
        legacy_system = _build_argus(training)
        legacy_system.allocator.solver = legacy.LegacySolver()
        gc.collect()
        start = time.perf_counter()
        legacy_result = runner.run(legacy_system, trace, dataset=dataset)
        legacy_s = time.perf_counter() - start
    finally:
        for patch in patches:
            patch.stop()

    new_row = optimized_result.summary.as_row()
    old_row = legacy_result.summary.as_row()
    return {
        "trace_minutes": minutes,
        "total_completions": optimized_result.summary.total_completions,
        "legacy_s": legacy_s,
        "optimized_s": optimized_s,
        "speedup": legacy_s / optimized_s,
        "results_match": new_row == old_row,
        "summary_row": new_row,
    }


ALL_BENCHMARKS = {
    "vectordb_flat_search": bench_vectordb,
    "metrics_summary": bench_collector,
    "solver_recalibration": bench_solver,
    "engine_events": bench_engine,
    "network_condition": bench_network,
    "prompt_embedding": bench_embedder,
    "end_to_end_fig16": bench_end_to_end,
}
