"""Measure one workload in this process, or every workload in fresh processes.

A run repeats its workload, all inputs drawn from the seed, until the
measuring time has passed (at least SETUP_SAMPLES or MIN_LIVE_REPS times); a
sim run builds from scratch SETUP_SAMPLES times and then serves copies of
its first build.  It reports set-up time as the median over the builds, and
throughput from the fastest repetition of each chunk of the run (see
``fastest_chunks``).  Every repetition's output is checked; a run with any
check failing reports ``"correct": false`` and no metrics.

Untraced runs report the end-to-end metrics.  Traced runs alternate an
untraced and a traced repetition and report the per-layer metrics of the
traced ones, plus ``trace.overhead_ratio``; the simulated workloads must
produce the same summary digest with and without the tracer.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from perfledger import live
from perfledger.layers import PER_LAYER, layer_metrics
from perfledger.sim import Built, build, copy_built, run_rep
from perfledger.sim import WORKLOADS as SIM_WORKLOADS
from perfledger.trace import Tracer, install, snapshot_targets

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = tuple(SIM_WORKLOADS) + ("live-gateway",)
#: Set-ups a sim run measures before it serves copies of its builds; also
#: its fewest repetitions, so that fastest_chunks has some to compare.
SETUP_SAMPLES = 3
#: A live-gateway repetition is one reference rung and CAPACITY_RUNGS_PER_REP
#: capacity rungs, about 11 s on an idle 2-vCPU guest; a run holds at least
#: MIN_LIVE_REPS of them.
MIN_LIVE_REPS = 2
CAPACITY_RUNGS_PER_REP = 3
MIN_TRACED_REPS = 1

#: name -> unit, in report order.  Every workload reports every one.
END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "mean_relative_quality": "ratio",
    "p50_latency_s": "s",
    "p99_latency_s": "s",
}


def _median_dict(rows: list[dict]) -> dict:
    return {name: median([row[name] for row in rows]) for name in rows[0]}


def fastest_chunks(reps: list[list[float]]) -> float:
    """Sum over chunks of the fastest repetition's time for that chunk.

    ``reps`` holds each repetition's chunk durations; chunk ``i`` is the
    same work in every repetition.  On a shared host a core's speed changes
    within a second or so as neighbours get busy (a fixed loop of tens of
    milliseconds ran up to 1.8x its fastest time on a 2-vCPU KVM guest), and
    how much of a run falls in slow phases changes from run to run.  A whole
    repetition mixes the speeds, a chunk of tens of milliseconds mostly sees
    one, and with several repetitions some repetition ran most chunks at the
    fast speed.  So the sum estimates the time on an uncontended core, and
    moves much less with the neighbours than a median of whole repetitions.
    """
    if len({len(chunks) for chunks in reps}) != 1:
        raise ValueError("repetitions were cut into different numbers of chunks")
    return sum(min(times) for times in zip(*reps))


def _fastest_chunks_or_problem(run: Run, reps: list[list[float]]) -> float:
    try:
        return fastest_chunks(reps)
    except ValueError as exc:
        run.problems.append(str(exc))
        return median([sum(chunks) for chunks in reps])


def _peak_rss_mib() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One run's repetitions, request accounting, checks and details."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool) -> None:
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Sample count behind each reported figure.
        self.samples: dict[str, int] = {}
        self.detail: dict = {"workload": workload, "seed": seed, "trace": int(traced)}

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def repeat(self, body, min_reps: int) -> list:
        """Call ``body`` until the next call would overrun the measuring
        time, and at least ``min_reps`` times."""
        results, last_s = [], 0.0
        while len(results) < min_reps or self.elapsed() + last_s <= self.seconds:
            started = time.perf_counter()
            results.append(body())
            last_s = time.perf_counter() - started
        return results

    def traced_call(self, measure):
        """``measure(tracer)`` with the wrappers installed; afterwards every
        wrapped attribute must be the original again."""
        tracer = Tracer()
        snapshot = snapshot_targets()
        installed = install(tracer)
        try:
            result = measure(tracer)
        finally:
            installed.uninstall()
        if snapshot_targets() != snapshot:
            self.problems.append("tracing left wrapped attributes behind")
        if tracer.open_spans:
            self.problems.append(f"{tracer.open_spans} spans left open")
        return result, tracer


# --------------------------------------------------------------------------- #
# Simulated workloads
# --------------------------------------------------------------------------- #


def _sim_rep(run: Run, workload, seed: int, tracer=None, built=None):
    rep = run_rep(workload, seed, tracer=tracer, built=built)
    run.attempted += rep.offered
    run.failed += rep.offered - rep.summary["total_completions"]
    run.problems.extend(rep.problems)
    return rep


def _check_one_digest(run: Run, seed: int, reps) -> None:
    digests = {rep.digest for rep in reps}
    if len(digests) != 1:
        run.problems.append(
            f"repetitions of seed {seed} disagree: {len(digests)} summary digests"
        )


def measure_sim_traced(run: Run, workload) -> dict:
    """Per-layer metrics of the run seed's own stream: untraced and traced
    repetitions alternate, and must produce one summary digest."""

    def body():
        rep = _sim_rep(run, workload, run.seed)
        traced = run.traced_call(
            lambda tracer: _sim_rep(run, workload, run.seed, tracer=tracer)
        )
        return rep, traced

    pairs = run.repeat(body, MIN_TRACED_REPS)
    untraced = [rep for rep, _ in pairs]
    traced = [pair for _, pair in pairs]
    _check_one_digest(run, run.seed, untraced + [rep for rep, _ in traced])
    run.detail["summary_sha256"] = untraced[0].digest
    run.detail["summary"] = untraced[0].summary
    metrics = _median_dict(
        [layer_metrics(tracer, rep.summary, rep.state) for rep, tracer in traced]
    )
    metrics["trace.overhead_ratio"] = median([r.run_s for r, _ in traced]) / median(
        [r.run_s for r in untraced]
    )
    run.detail["spans"] = traced[0][1].to_dict()
    return metrics


def measure_sim(run: Run) -> dict:
    workload = SIM_WORKLOADS[run.workload]
    if run.traced:
        return measure_sim_traced(run, workload)
    # Builds take about as long as the serving they set up.  Once the run
    # has SETUP_SAMPLES set-ups, its repetitions serve copies of its first
    # build instead, so that fastest_chunks gets more repetitions.
    template: Built | None = None
    setups = 0
    # The resident-memory high-water mark grows a little with every copy a
    # run serves, and a slow host serves fewer, so it is read when the run
    # has its set-ups, a point every run reaches the same way.
    peak_rss_mib: float | None = None

    def repetition():
        nonlocal template, setups, peak_rss_mib
        if template is not None and setups >= SETUP_SAMPLES:
            if peak_rss_mib is None:
                peak_rss_mib = _peak_rss_mib()
            return _sim_rep(run, workload, run.seed, built=copy_built(template))
        built = build(workload, run.seed)
        setups += 1
        if template is None:
            template = copy_built(built)
        return _sim_rep(run, workload, run.seed, built=built)

    reps = run.repeat(repetition, SETUP_SAMPLES)
    if peak_rss_mib is None:
        peak_rss_mib = _peak_rss_mib()
    _check_one_digest(run, run.seed, reps)
    fastest_run_s = _fastest_chunks_or_problem(run, [r.chunks_s for r in reps])
    setup_s = [rep.setup_s for rep in reps if rep.setup_s is not None]
    summary = reps[0].summary
    run.detail.update(
        summary_sha256=reps[0].digest,
        summary=summary,
        fastest_chunks_run_s=fastest_run_s,
        reps=[{"setup_s": r.setup_s, "run_s": r.run_s} for r in reps],
    )
    completions = summary["total_completions"]
    run.samples = {
        "setup_s": len(setup_s),
        "req_per_s": len(reps),
        "peak_rss_mib": 1,
        "mean_relative_quality": completions,
        "p50_latency_s": completions,
        "p99_latency_s": completions,
    }
    return {
        "setup_s": median(setup_s),
        "req_per_s": reps[0].offered / fastest_run_s,
        "peak_rss_mib": peak_rss_mib,
        "mean_relative_quality": summary["mean_relative_quality"],
        "p50_latency_s": summary["p50_latency_s"],
        "p99_latency_s": summary["p99_latency_s"],
    }


# --------------------------------------------------------------------------- #
# Live gateway
# --------------------------------------------------------------------------- #


def _live_rung(run: Run, seed: int, time_scale: float, minutes: int, clients=None, tracer=None):
    rung = live.replay(seed, time_scale, minutes, clients=clients, tracer=tracer)
    run.attempted += rung.sent
    run.failed += rung.sent - rung.ok
    run.problems.extend(f"x{rung.time_scale:g}: {p}" for p in rung.problems)
    return rung


def measure_live(run: Run) -> dict:
    scale, minutes = live.REFERENCE_SCALE, live.REFERENCE_MINUTES
    bodies = itertools.count()

    def body():
        # Model-time latency percentiles are a property of a stream's
        # arrivals and a 12-minute stream holds only ~1k requests, so each
        # repetition's reference rung replays a stream of its own, the first
        # the run seed's.
        seed = run.seed + live.REFERENCE_SEED_STRIDE * next(bodies)
        reference = _live_rung(run, seed, scale, minutes)
        if run.traced:
            return reference, run.traced_call(
                lambda tracer: _live_rung(run, seed, scale, minutes, tracer=tracer)
            )
        # A capacity rung takes a fraction of a reference rung's wall time,
        # and its figure wants many chunks.
        capacity = [
            _live_rung(
                run,
                run.seed,
                live.CAPACITY_SCALE,
                live.CAPACITY_MINUTES,
                clients=live.CAPACITY_CLIENTS,
            )
            for _ in range(CAPACITY_RUNGS_PER_REP)
        ]
        return reference, capacity

    pairs = run.repeat(body, MIN_TRACED_REPS if run.traced else MIN_LIVE_REPS)
    references = [reference for reference, _ in pairs]
    run.detail["reference"] = [r.accounting() for r in references]
    if run.traced:
        traced = [pair for _, pair in pairs]
        metrics = _median_dict(
            [
                layer_metrics(tracer, rung.summary, rung.state, live=reference)
                for reference, (rung, tracer) in zip(references, traced)
            ]
        )
        # Open-loop wall time is fixed by the schedule, so the overhead is
        # the ratio of CPU seconds spent replaying the same requests.
        metrics["trace.overhead_ratio"] = median([r.cpu_s for r, _ in traced]) / median(
            [r.cpu_s for r in references]
        )
        run.detail["spans"] = traced[0][1].to_dict()
        return metrics
    # A rung whose client ran late measured the client, not the gateway:
    # its latencies are not reported.
    valid = [r for r in references if r.valid]
    run.detail["valid_reference_rungs"] = len(valid)
    if not valid:
        run.problems.append("every reference rung was invalid: client lateness")
        valid = references
    capacities = [rung for _, rungs in pairs for rung in rungs]
    run.detail["capacity"] = [r.accounting() for r in capacities]
    # Chunk i of every capacity rung serves the same requests of the stream,
    # though the clients interleave them differently, so a minimum over more
    # rungs keeps finding luckier chunks.  It is taken over a fixed number
    # of rungs, the same on a fast host as on a slow one.
    chunks = [r.chunks_s for r in capacities[: MIN_LIVE_REPS * CAPACITY_RUNGS_PER_REP]]
    fastest_s = _fastest_chunks_or_problem(run, chunks)
    run.detail["capacity_fastest_chunks_s"] = fastest_s
    latencies = [latency for r in valid for latency in r.model_latency_s]
    run.samples = {
        "setup_s": len(references) + len(capacities),
        "req_per_s": len(capacities),
        "peak_rss_mib": 1,
        "mean_relative_quality": sum(r.ok for r in valid),
        "p50_latency_s": len(latencies),
        "p99_latency_s": len(latencies),
    }
    return {
        "setup_s": median([r.setup_s for r in references + capacities]),
        "req_per_s": live.CHUNK_REQUESTS * len(chunks[0]) / fastest_s,
        "peak_rss_mib": _peak_rss_mib(),
        "mean_relative_quality": median([r.summary["mean_relative_quality"] for r in valid]),
        # Over the requests of every valid reference rung together.
        "p50_latency_s": float(np.percentile(latencies, 50)),
        "p99_latency_s": float(np.percentile(latencies, 99)),
    }


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, Run]:
    """Run one workload in this process; returns the result object."""
    run = Run(workload, seed, seconds, traced)
    values = measure_live(run) if workload == "live-gateway" else measure_sim(run)
    units = PER_LAYER if traced else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = not run.problems and run.attempted > 0
    run.detail.update(
        elapsed_s=run.elapsed(), problems=run.problems, metrics=metrics, samples=run.samples
    )
    out = ROOT / ".perfledger"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(run.detail, indent=1, sort_keys=True, default=str))
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics if correct else {},
    }
    return result, run


def _print_table(result: dict, run: Run) -> None:
    for name, metric in result["metrics"].items():
        count = run.samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']:6s}{suffix}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for problem in run.problems:
        print(f"  problem: {problem}")


def run_all(args) -> int:
    """Every workload, each in a fresh process, so that one workload's
    memory high-water mark and warm caches do not leak into the next."""
    results = {}
    for workload in WORKLOADS:
        command = [sys.executable, str(ROOT / "perfledger" / "run.py"), "--workload", workload]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(proc.stderr)
            results[workload] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Perf ledger: run benchmark workloads.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_table(result, run)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1
