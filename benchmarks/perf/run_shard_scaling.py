"""Shard-scaling benchmark: one scenario, sequential vs N shard processes.

Writes a ``BENCH_*.json`` with one leg per shard count (wall-clock, arrival
/completion totals, SLO health) plus cross-leg correctness checks:

* every leg must see the identical arrival total (the shard slices union to
  the sequential stream), and
* the ``shards=1`` leg must produce a RunSummary digest hex-identical to the
  plain sequential runner — sharding is opt-in risk only at N > 1.

The headline figure is the wall-clock speedup of N shard processes over
the sequential run on the ``fig16-xl`` trace.  An N-shard run simulates N
isolated sub-fleets, so its SLO-violation ratio, p99 latency and quality
diverge from the sequential run's; each leg reports them next to its
speedup.

Two control-plane benchmarks ride along:

* ``shard_autoscale`` — the ``sharded-autoscale`` scenario under per-shard
  autoscalers and the coordinator budget broker, checked for repeat
  determinism and the global worker budget holding at every barrier; and
* ``tenant_partition`` — coordinator-side tenant stream slicing vs the old
  per-shard full-stream filter walk (the O(shards x stream) term the
  partitioner removes), checked for identical per-shard slices.

Usage::

    PYTHONPATH=src:. python benchmarks/perf/run_shard_scaling.py \
        --preset small --output BENCH_PR7.json         # the checked-in run
    PYTHONPATH=src:. python benchmarks/perf/run_shard_scaling.py \
        --preset small --output BENCH_shard_ci.json    # CI smoke (~3 min)

Exits non-zero when a correctness check fails; wall-clock speedups are
reported, not gated (CI runners are too noisy to gate a wall-clock ratio);
``check_regression.py`` gates the per-benchmark ``speedup`` ratios against
the checked-in baseline with a generous tolerance.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import sys
import time

import numpy as np

from repro.scenarios.registry import SMALL_FLEET
from repro.scenarios.runtime import build_config, build_stream, run_scenario
from repro.scenarios.spec import Preset, Scenario, TraceSpec
from repro.simulation.shard import (
    _partition_arrivals,
    _tenant_sliced_stream,
    plan_shards,
    run_scenario_sharded,
)

#: Shard counts per preset.  The small preset rides the 4-worker SMALL_FLEET,
#: so it stops at 4; the full preset is the checked-in fig16-xl sweep.
SHARD_COUNTS = {"small": (1, 2, 4), "full": (1, 2, 4, 8)}

#: The twitter-trace stream the tenant-partition microbenchmark slices: 8
#: minutes at 24-36 qpm (small) or 60 minutes at 96-144 qpm (full).  Its
#: tenants and shard count are set by the benchmark itself.
_PARTITION_SCENARIO = Scenario(
    name="tenant-partition",
    description="tenant stream-slicing microbenchmark input",
    trace=TraceSpec(source="library", name="twitter"),
    presets={
        "small": Preset(
            dataset_size=600,
            trace_params={"duration_minutes": 8, "base_qpm": 24.0, "peak_qpm": 36.0},
            config={**SMALL_FLEET, "num_workers": 6},
        ),
        "full": Preset(
            dataset_size=3000,
            trace_params={"duration_minutes": 60, "base_qpm": 96.0, "peak_qpm": 144.0},
            config={"num_workers": 24},
        ),
    },
)


def _digest(run) -> str:
    return hashlib.sha256(
        json.dumps(run.summary.as_dict(), sort_keys=True, default=str).encode()
    ).hexdigest()


def _run_leg(scenario: str, preset: str, seed: int, shards: int) -> dict:
    gc.collect()
    start = time.perf_counter()
    run = run_scenario_sharded(scenario, preset=preset, seed=seed, shards=shards)
    wall_s = time.perf_counter() - start
    summary = run.summary
    return {
        "shards": shards,
        "wall_s": wall_s,
        "arrivals": summary.total_arrivals,
        "completions": summary.total_completions,
        "requests_per_s": summary.total_arrivals / wall_s,
        "slo_violation_ratio": summary.slo_violation_ratio,
        "p99_latency_s": summary.p99_latency_s,
        "mean_relative_quality": summary.mean_relative_quality,
        "summary_digest": _digest(run),
    }


def _timed_sharded(scenario: str, preset: str, seed: int, shards: int):
    gc.collect()
    start = time.perf_counter()
    run = run_scenario_sharded(scenario, preset=preset, seed=seed, shards=shards)
    return run, time.perf_counter() - start


def _bench_autoscale(preset: str, seed: int) -> dict:
    """Brokered per-shard autoscaling: determinism and the global budget."""
    scenario = "sharded-autoscale"
    failures: list[str] = []
    seq, seq_wall = _timed_sharded(scenario, preset, seed, shards=1)
    legs = [
        {
            "shards": 1,
            "wall_s": seq_wall,
            "arrivals": seq.summary.total_arrivals,
            "summary_digest": _digest(seq),
        }
    ]
    for shards in (2, 4):
        run, wall = _timed_sharded(scenario, preset, seed, shards=shards)
        autoscale = run.extras["sharding"]["autoscale"]
        budget = autoscale["max_workers"]
        over = [
            entry
            for entry in run.extras["sharding"]["barriers"]
            if entry["in_fleet"] > budget or entry["committed_workers"] > budget
        ]
        if over:
            failures.append(
                f"shards={shards}: {len(over)} barrier(s) exceed the "
                f"{budget}-worker global budget"
            )
        repeat, _ = _timed_sharded(scenario, preset, seed, shards=shards)
        if _digest(repeat) != _digest(run):
            failures.append(f"shards={shards}: repeat run digest differs")
        legs.append(
            {
                "shards": shards,
                "wall_s": wall,
                "arrivals": run.summary.total_arrivals,
                "summary_digest": _digest(run),
                "workers_granted": sum(
                    g["granted"] for g in autoscale["grants"] if g["action"] == "scale_out"
                ),
                "scale_denials": autoscale["denied_requests"],
                "committed_workers": autoscale["committed"],
                "speedup_vs_sequential": seq_wall / wall,
            }
        )
    if len({leg["arrivals"] for leg in legs}) != 1:
        failures.append("arrival totals diverge across autoscaled legs")
    return {
        "legs": legs,
        "checks_failed": failures,
        "speedup": legs[-1]["speedup_vs_sequential"],
        "results_match": not failures,
    }


def _bench_tenant_partition(preset: str, seed: int, repeats: int = 3) -> dict:
    """Coordinator tenant-stream slicing vs the per-shard full-stream walk."""
    scenario = _PARTITION_SCENARIO
    preset_spec = scenario.preset(preset)
    # Four single-tenant shards make the removed O(shards x stream) term
    # visible.
    tenants = [
        {"name": f"t{i}", "traffic_share": 0.25, "extra_qpm": [60.0] * 8}
        for i in range(4)
    ]
    config = build_config(
        scenario, preset_spec, seed, extra={"tenants": tenants, "shards": 4}
    )
    trace = scenario.trace.build(seed=seed, **preset_spec.trace_params)
    plan = plan_shards(config, trace=trace)
    stream = build_stream(scenario, preset_spec, config, trace, seed)

    def _key(timed):
        return (timed.arrival_time_s, timed.prompt.tenant, timed.prompt.text)

    legacy_s = sliced_s = float("inf")
    legacy_slices = sliced_slices = None
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        legacy_slices = [
            [_key(t) for t in stream if t.prompt.tenant in spec.tenant_names]
            for spec in plan.shards
        ]
        legacy_s = min(legacy_s, time.perf_counter() - start)
        gc.collect()
        start = time.perf_counter()
        descriptors = _partition_arrivals(stream, plan)
        sliced_slices = [
            [_key(t) for t in _tenant_sliced_stream(stream, d["indices"])]
            for d in descriptors
        ]
        sliced_s = min(sliced_s, time.perf_counter() - start)
    failures: list[str] = []
    if legacy_slices != sliced_slices:
        failures.append("sliced tenant streams differ from the filter-walk slices")
    return {
        "shards": len(plan.shards),
        "stream_requests": sum(len(s) for s in legacy_slices),
        "filter_walk_s": legacy_s,
        "sliced_s": sliced_s,
        "checks_failed": failures,
        "speedup": legacy_s / sliced_s,
        "results_match": not failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="fig16-xl")
    parser.add_argument("--preset", choices=sorted(SHARD_COUNTS), default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="BENCH_PR7.json")
    parser.add_argument(
        "--shards",
        default=None,
        help="comma-separated shard counts overriding the preset's sweep",
    )
    parser.add_argument(
        "--hex-check",
        choices=("auto", "on", "off"),
        default="auto",
        help=(
            "re-run the sequential runner and require the shards=1 leg to be "
            "hex-identical; 'auto' enables it on the small preset only (on "
            "the 10M-request full preset the extra sequential run would "
            "double the benchmark, and the tier-1 suite pins the same "
            "identity)"
        ),
    )
    args = parser.parse_args(argv)
    hex_check = args.hex_check == "on" or (
        args.hex_check == "auto" and args.preset == "small"
    )
    counts = (
        tuple(int(c) for c in args.shards.split(","))
        if args.shards
        else SHARD_COUNTS[args.preset]
    )

    legs: list[dict] = []
    for shards in counts:
        print(f"[{args.scenario}/{args.preset}] shards={shards} ...", flush=True)
        leg = _run_leg(args.scenario, args.preset, args.seed, shards)
        baseline = legs[0]["wall_s"] if legs else leg["wall_s"]
        leg["speedup_vs_sequential"] = baseline / leg["wall_s"]
        legs.append(leg)
        print(
            f"[{args.scenario}/{args.preset}] shards={shards} done: "
            f"wall={leg['wall_s']:.1f}s n={leg['arrivals']} "
            f"viol={leg['slo_violation_ratio']:.4f} "
            f"speedup={leg['speedup_vs_sequential']:.2f}x",
            flush=True,
        )

    failures: list[str] = []
    arrival_totals = {leg["arrivals"] for leg in legs}
    if len(arrival_totals) != 1:
        failures.append(f"arrival totals diverge across legs: {sorted(arrival_totals)}")
    if hex_check and counts and counts[0] == 1:
        print("checking shards=1 hex-identity against the sequential runner ...", flush=True)
        sequential = run_scenario(args.scenario, preset=args.preset, seed=args.seed)
        if _digest(sequential) != legs[0]["summary_digest"]:
            failures.append("shards=1 summary digest differs from sequential runner")

    print("[shard_autoscale] brokered autoscaling sweep ...", flush=True)
    autoscale = _bench_autoscale(args.preset, args.seed)
    print(
        f"[shard_autoscale] done: speedup={autoscale['speedup']:.2f}x "
        f"checks={'ok' if autoscale['results_match'] else autoscale['checks_failed']}",
        flush=True,
    )
    print("[tenant_partition] stream-slicing microbench ...", flush=True)
    partition = _bench_tenant_partition(args.preset, args.seed)
    print(
        f"[tenant_partition] done: filter-walk {partition['filter_walk_s']:.3f}s vs "
        f"sliced {partition['sliced_s']:.3f}s = {partition['speedup']:.2f}x",
        flush=True,
    )

    claims = {}
    by_count = {leg["shards"]: leg for leg in legs}
    for shards, leg in by_count.items():
        if shards > 1:
            claims[f"shard_scaling_speedup_{shards}"] = leg["speedup_vs_sequential"]
    claims["tenant_partition_speedup"] = partition["speedup"]

    # `speedup` and `results_match` make each entry legible to
    # check_regression.py's standard ratio/consistency gate.
    benchmarks = {
        "shard_scaling": {
            "legs": legs,
            "checks_failed": failures,
            "speedup": legs[-1]["speedup_vs_sequential"],
            "results_match": not failures,
        },
        "shard_autoscale": autoscale,
        "tenant_partition": partition,
    }
    payload = {
        "meta": {
            "pr": "PR7",
            "scenario": args.scenario,
            "preset": args.preset,
            "seed": args.seed,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "benchmarks": benchmarks,
        "claims": claims,
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    all_failures = failures + [
        f"{name}: {check}"
        for name, bench in benchmarks.items()
        for check in bench.get("checks_failed", ())
        if name != "shard_scaling"
    ]
    if all_failures:
        print("FAILED: " + "; ".join(all_failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
