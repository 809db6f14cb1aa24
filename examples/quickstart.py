"""Quickstart: serve a diurnal workload with Argus and print the results.

Run with::

    python examples/quickstart.py

Builds an 8-worker Argus deployment (approximate caching by default, with
the per-prompt classifier and ODA-based shift map), replays a 60-minute
Twitter-shaped trace against it and prints the headline serving metrics.
"""

from __future__ import annotations

from repro import ArgusConfig, ArgusSystem, ExperimentRunner, TraceLibrary


def main() -> None:
    config = ArgusConfig(
        num_workers=8,
        classifier_training_prompts=800,
        profiling_prompts=400,
    )
    print("Training classifiers and profiling approximation levels ...")
    system = ArgusSystem(config=config)

    trace = TraceLibrary(seed=0).twitter_like(duration_minutes=60)
    print(
        f"Replaying trace '{trace.name}': {trace.duration_minutes} minutes, "
        f"mean {trace.mean_qpm:.0f} QPM, peak {trace.peak_qpm:.0f} QPM"
    )

    runner = ExperimentRunner(seed=0, dataset_size=2000)
    result = runner.run(system, trace)

    summary = result.summary
    print("\n--- Argus run summary -------------------------------------")
    print(f"requests offered      : {summary.total_arrivals}")
    print(f"requests served       : {summary.total_completions}")
    print(f"served throughput     : {summary.mean_served_qpm:.1f} QPM")
    print(f"SLO violation ratio   : {summary.slo_violation_ratio:.2%}")
    print(f"effective accuracy    : {summary.effective_accuracy:.2f} (PickScore)")
    print(f"relative quality      : {summary.mean_relative_quality:.2%}")
    print(f"p99 latency           : {summary.p99_latency_s:.1f} s")
    print(f"cluster utilisation   : {summary.cluster_utilization:.2%}")
    print(f"model loads (SM swaps): {summary.model_loads}")
    print(f"retrieval hit rate    : {result.extras['retrieval_hit_rate']:.2%}")
    print(f"prompts shifted off their optimal level: {system.shift_fraction():.2%}")

    print("\nPer-minute view (minute, offered QPM, served QPM, quality):")
    for stats in result.minute_series[:60:6]:
        print(
            f"  t={stats.minute:3d}  offered={stats.offered_qpm:6.1f}  "
            f"served={stats.served_qpm:6.1f}  quality={stats.mean_relative_quality:.2%}"
        )


if __name__ == "__main__":
    main()
