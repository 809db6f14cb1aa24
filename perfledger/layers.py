"""Per-layer metrics of a traced repetition.

Each layer is named after its module in ``src/repro``.  ``ledger.json``
names, for each metric, the end-to-end metric it should move and the
workload it should show on.
"""

from __future__ import annotations

import numpy as np

#: name -> unit, in report order.  Every workload reports every one; a
#: layer a workload does not exercise reads 0.
PER_LAYER = {
    "simulation.events": "count",
    "simulation.self_s": "s",
    "workloads.arrivals": "count",
    "workloads.self_s": "s",
    "core.base.submits": "count",
    "core.base.self_s": "s",
    "cluster.dispatches": "count",
    "cluster.self_s": "s",
    "cluster.healthy_workers.calls": "count",
    "cluster.healthy_workers.self_s": "s",
    "cluster.serve_events.self_s": "s",
    "cluster.queue_wait_p99_s": "s",
    "cluster.utilization": "ratio",
    "cluster.serve_share": "ratio",
    "core.scheduler.routes": "count",
    "core.scheduler.self_s": "s",
    "core.scheduler.shift_fraction": "ratio",
    "core.scheduler.serve_share": "ratio",
    "core.allocator.recalibrations": "count",
    "core.allocator.self_s": "s",
    "core.solver.solves": "count",
    "core.solver.self_s": "s",
    "core.solver.cache_hit_ratio": "ratio",
    "core.admission.offers": "count",
    "core.admission.self_s": "s",
    "core.admission.delayed": "count",
    "core.admission.wait_mean_s": "s",
    "cache.retrievals": "count",
    "cache.self_s": "s",
    "cache.retrieval_hit_ratio": "ratio",
    "cache.index_searches": "count",
    "cache.index_upserts": "count",
    "cache.index_deletes": "count",
    "cache.index_self_s": "s",
    "cache.warm_s": "s",
    "prompts.embeds": "count",
    "prompts.self_s": "s",
    "classifier.predictions": "count",
    "classifier.self_s": "s",
    "classifier.train_s": "s",
    "quality.scores": "count",
    "quality.self_s": "s",
    "quality.profile_s": "s",
    "metrics.records": "count",
    "metrics.self_s": "s",
    "metrics.summary_s": "s",
    "metrics.slo_violation_ratio": "ratio",
    "gateway.requests": "count",
    "gateway.self_s": "s",
    "gateway.overhead_p99_ms": "ms",
    # The benchmark's own client; these show the live-gateway figures are valid.
    "loadgen.sent": "count",
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.http_p50_ms": "ms",
    "loadgen.http_p99_ms": "ms",
    # Traced over untraced wall time (CPU time on live-gateway).
    "trace.overhead_ratio": "ratio",
}

#: Values kept by higher-is-better; every other per-layer metric is lower-is-better.
HIGHER_IS_BETTER = {
    "workloads.arrivals",
    "cluster.utilization",
    "core.solver.cache_hit_ratio",
    "cache.retrieval_hit_ratio",
    "gateway.requests",
    "loadgen.sent",
}


def _p99(values) -> float:
    return float(np.percentile(values, 99)) if len(values) else 0.0


def layer_metrics(tracer, summary: dict, state: dict, live=None) -> dict:
    """Per-layer values of one traced repetition.

    ``state`` holds the counters read off a simulated system after its run
    (see ``perfledger.sim.layer_state``); ``live`` is the untraced reference
    rung of a live run, whose client-side figures are not distorted by the
    tracer.
    """
    t = tracer
    shares = t.serve_shares()
    solves = t.calls("core.solver.solve")
    metrics = {
        "simulation.events": t.counters["simulation.events"],
        "simulation.self_s": t.layer_self_s("simulation"),
        "workloads.arrivals": t.calls("workloads.arrival"),
        "workloads.self_s": t.layer_self_s("workloads"),
        "core.base.submits": t.calls("core.base.submit"),
        "core.base.self_s": t.layer_self_s("core.base"),
        "cluster.dispatches": t.calls("cluster.dispatch"),
        "cluster.self_s": t.layer_self_s("cluster"),
        "cluster.healthy_workers.calls": t.calls("cluster.healthy_workers"),
        "cluster.healthy_workers.self_s": t.span_self_s("cluster.healthy_workers"),
        "cluster.serve_events.self_s": t.span_self_s("cluster.serve_events"),
        "cluster.queue_wait_p99_s": _p99(t.samples["cluster.queue_wait_s"]),
        "cluster.utilization": summary["cluster_utilization"],
        "cluster.serve_share": shares.get("cluster", 0.0),
        "core.scheduler.routes": t.calls("core.scheduler.route"),
        "core.scheduler.self_s": t.layer_self_s("core.scheduler"),
        "core.scheduler.shift_fraction": state.get("core.scheduler.shift_fraction", 0.0),
        "core.scheduler.serve_share": shares.get("core.scheduler", 0.0),
        "core.allocator.recalibrations": t.calls("core.allocator.recalibrate"),
        "core.allocator.self_s": t.layer_self_s("core.allocator"),
        "core.solver.solves": solves,
        "core.solver.self_s": t.layer_self_s("core.solver"),
        "core.solver.cache_hit_ratio": (
            state.get("core.solver.cache_hits", 0) / solves if solves else 0.0
        ),
        "core.admission.offers": t.calls("core.admission.offer"),
        "core.admission.self_s": t.layer_self_s("core.admission"),
        "core.admission.delayed": state.get("core.admission.delayed", 0),
        "core.admission.wait_mean_s": state.get("core.admission.wait_mean_s", 0.0),
        "cache.retrievals": t.calls("cache.retrieve"),
        "cache.self_s": t.layer_self_s("cache"),
        "cache.retrieval_hit_ratio": state.get("cache.retrieval_hit_ratio", 0.0),
        "cache.index_searches": t.calls("cache.index.search"),
        "cache.index_upserts": t.calls("cache.index.upsert"),
        "cache.index_deletes": t.calls("cache.index.delete"),
        "cache.index_self_s": t.layer_self_s("cache.index"),
        "cache.warm_s": t.span_total_s("cache.warm"),
        "prompts.embeds": t.calls("prompts.embed") + t.calls("prompts.embed_batch"),
        "prompts.self_s": t.layer_self_s("prompts"),
        "classifier.predictions": t.calls("classifier.predict_rank"),
        "classifier.self_s": t.layer_self_s("classifier"),
        "classifier.train_s": t.span_total_s("classifier.train"),
        "quality.scores": t.calls("quality.score") + t.calls("quality.best_score"),
        "quality.self_s": t.layer_self_s("quality"),
        "quality.profile_s": t.span_total_s("quality.profile"),
        "metrics.records": t.calls("metrics.record"),
        "metrics.self_s": t.layer_self_s("metrics"),
        "metrics.summary_s": t.span_total_s("metrics.summarize"),
        "metrics.slo_violation_ratio": summary["slo_violation_ratio"],
        "gateway.requests": t.counters["gateway.handle.calls"],
        "gateway.self_s": t.layer_self_s("gateway"),
        "gateway.overhead_p99_ms": 0.0,
        "loadgen.sent": 0,
        "loadgen.lateness_p99_ms": 0.0,
        "loadgen.http_p50_ms": 0.0,
        "loadgen.http_p99_ms": 0.0,
    }
    if live is not None:
        metrics.update(
            {
                "gateway.overhead_p99_ms": live.overhead_ms(99),
                "loadgen.sent": live.sent,
                "loadgen.lateness_p99_ms": live.lateness_ms(99),
                "loadgen.http_p50_ms": live.http_ms(50),
                "loadgen.http_p99_ms": live.http_ms(99),
            }
        )
    return metrics
