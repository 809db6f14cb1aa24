"""The two simulated workloads and one measured repetition of each.

A repetition is built from scratch through the public entry points
(``build_config``, ``build_stream``, ``build_system``), which is the
workload's set-up, and then served through ``ExperimentRunner.run``; its
inputs depend only on the seed.  A repetition may instead serve a deep copy
of an earlier build taken before that build ran (see ``copy_built``).
"""

from __future__ import annotations

import copy
import gc
import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

from repro.experiments.runner import ExperimentRunner, build_system
from repro.scenarios.contracts import verify_report
from repro.scenarios.registry import get_scenario
from repro.scenarios.runtime import ScenarioRun, _collect_extras, build_config, build_stream
from repro.scenarios.spec import Preset, Scenario
from repro.simulation.engine import SimulationEngine
from repro.workloads.traces import WorkloadTrace

#: Engine events per timed chunk of a repetition's run (tens of ms each).
CHUNK_EVENTS = 32


@dataclass(frozen=True)
class SimWorkload:
    name: str
    scenario: str
    #: Builds the workload's trace from the preset's trace.
    trace: Callable[[Scenario, Preset, int], WorkloadTrace]
    #: Every benchmark workload runs its scenario's full preset.
    preset: str = "full"


def _fleet_trace(scenario: Scenario, preset: Preset, seed: int) -> WorkloadTrace:
    # The first minutes of the ten-million-request day: enough arrivals to
    # keep all 288 workers busy, few enough for a few-second repetition.
    return scenario.trace.build(seed=seed, **preset.trace_params).window(0, 1)


def _preset_trace(scenario: Scenario, preset: Preset, seed: int) -> WorkloadTrace:
    return scenario.trace.build(seed=seed, **preset.trace_params)


WORKLOADS = {
    "fleet-288": SimWorkload("fleet-288", "fig16-xl", _fleet_trace),
    "tenant-churn": SimWorkload("tenant-churn", "chaos-eviction-storm", _preset_trace),
}


@dataclass
class SimRep:
    """One repetition's measurements and outputs."""

    #: None when the repetition ran a copy (see copy_built).
    setup_s: float | None
    run_s: float
    #: Wall seconds of each CHUNK_EVENTS-event chunk of the run, in order;
    #: the last chunk ends with the summary.  They add up to ``run_s``.
    chunks_s: list[float]
    offered: int
    summary: dict
    digest: str
    problems: list[str]
    #: Layer counters read off the system after the run (see layer_state).
    state: dict


def summary_digest(summary: dict) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True, default=str).encode()).hexdigest()


def _non_finite(value, path: str = "summary") -> list[str]:
    if isinstance(value, float):
        return [] if math.isfinite(value) else [path]
    if isinstance(value, dict):
        return [p for key, item in value.items() for p in _non_finite(item, f"{path}.{key}")]
    if isinstance(value, (list, tuple)):
        return [p for i, item in enumerate(value) for p in _non_finite(item, f"{path}[{i}]")]
    return []


def check_report(report: dict, contracts) -> list[str]:
    """Contract verdicts plus the sanity floor; returns what is wrong."""
    problems = []
    for result in verify_report(report, contracts):
        if not result.passed:
            problems.append(f"contract {result}")
        elif result.vacuous:
            problems.append(f"contract {result.contract} passed vacuously: {result.detail}")
    summary = report["summary"]
    if summary["total_completions"] <= 0:
        problems.append("nothing was served")
    problems.extend(f"non-finite {path}" for path in _non_finite(summary))
    return problems


def _chunked_run(runner, system, trace, stream):
    """``runner.run`` with a wall-clock mark every CHUNK_EVENTS engine events.

    Repetitions of one seed process the same events in the same order, so
    their chunks line up one for one.  Returns the result and the chunk
    durations.
    """
    original = vars(SimulationEngine)["step"]
    clock = time.perf_counter
    counter = itertools.count(1)
    marks = [clock()]

    def step(engine):
        more = original(engine)
        if next(counter) % CHUNK_EVENTS == 0:
            marks.append(clock())
        return more

    SimulationEngine.step = step
    try:
        result = runner.run(system, trace, stream=stream)
    finally:
        SimulationEngine.step = original
    marks.append(clock())
    return result, [end - start for start, end in zip(marks, marks[1:])]


@dataclass
class Built:
    """One repetition's inputs and system, built from its seed, not yet run."""

    scenario: Scenario
    config: object
    trace: WorkloadTrace
    system: object
    runner: ExperimentRunner
    stream: object
    #: Wall seconds the build took; None for a copy.
    setup_s: float | None


def build(workload: SimWorkload, seed: int) -> Built:
    """Build a repetition from scratch, timing it as the workload's set-up."""
    gc.collect()
    start = time.perf_counter()
    scenario = get_scenario(workload.scenario)
    preset = scenario.preset(workload.preset)
    faults, _, network = scenario.schedule(preset)
    if faults or network or scenario.cache_schedule(preset):
        # Timelines are installed by a private step of run_scenario; the
        # benchmark's scenarios must not need it.
        raise ValueError(f"{scenario.name} schedules events the benchmark does not install")
    config = build_config(scenario, preset, seed)
    trace = workload.trace(scenario, preset, seed)
    system = build_system(scenario.system, config=config)
    runner = ExperimentRunner(seed=seed, dataset_size=preset.dataset_size, drain_s=preset.drain_s)
    stream = build_stream(scenario, preset, config, trace, seed)
    return Built(scenario, config, trace, system, runner, stream, time.perf_counter() - start)


def copy_built(built: Built) -> Built | None:
    """A deep copy of a repetition that has not run, to run in its place
    (a tenth of the build's time); None when something in it cannot be
    copied.  A copy must produce the same summary digest as its original."""
    try:
        clone = copy.deepcopy(built)
    except (TypeError, copy.Error, RecursionError):
        return None
    clone.setup_s = None
    return clone


def run_rep(workload: SimWorkload, seed: int, tracer=None, built: Built | None = None) -> SimRep:
    """Run one repetition, built now unless ``built`` is given; ``tracer``
    only relabels its phase."""
    if built is None:
        built = build(workload, seed)
    gc.collect()
    scenario, system = built.scenario, built.system
    if tracer is not None:
        tracer.phase = "serve"
    result, chunks_s = _chunked_run(built.runner, system, built.trace, built.stream)
    if tracer is not None:
        tracer.phase = "report"

    run = ScenarioRun(
        scenario=scenario,
        preset_name=workload.preset,
        seed=seed,
        trace=built.trace,
        config=built.config,
        system=system,
        result=result,
        extras=_collect_extras(system, result),
    )
    report = run.report().to_dict()
    summary = report["summary"]
    return SimRep(
        setup_s=built.setup_s,
        run_s=sum(chunks_s),
        chunks_s=chunks_s,
        offered=summary["total_arrivals"],
        summary=summary,
        digest=summary_digest(summary),
        problems=check_report(report, scenario.contracts),
        state=layer_state(system),
    )


def layer_state(system) -> dict:
    """Counters and ratios the layers keep themselves (no tracing needed)."""
    admission = system.admission
    stats = list(admission.stats.values()) if admission is not None else []
    delayed = sum(s.delayed for s in stats)
    cache = system.cache
    return {
        "core.scheduler.shift_fraction": system.scheduler.shift_fraction,
        "core.solver.cache_hits": system.allocator.solver.cache_hits,
        "core.admission.delayed": delayed,
        "core.admission.wait_mean_s": (
            sum(s.total_wait_s for s in stats) / delayed if delayed else 0.0
        ),
        "cache.retrieval_hit_ratio": 0.0 if cache is None else cache.retrieval_hit_rate,
    }
