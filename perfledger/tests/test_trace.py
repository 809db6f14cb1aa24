"""Tests for the perf ledger's own code: span accounting, wrapper install and
removal, and the benchmark's wiring of the serving stack.

Run with ``python -m pytest perfledger/tests -q`` from the repository root.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from perfledger import layers, trace
from perfledger.bench import fastest_chunks
from perfledger.sim import SimWorkload, _preset_trace, build, copy_built, run_rep, summary_digest
from perfledger.trace import Tracer, install, snapshot_targets

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.enter("cluster", "cluster.dispatch")
    clock.advance(1.0)
    inner = tracer.enter("quality", "quality.score")
    clock.advance(3.0)
    tracer.exit(inner)
    clock.advance(0.5)
    tracer.exit(outer)

    assert tracer.span_self_s("cluster.dispatch") == pytest.approx(1.5)
    assert tracer.span_total_s("cluster.dispatch") == pytest.approx(4.5)
    assert tracer.layer_self_s("quality") == pytest.approx(3.0)
    assert tracer.open_spans == 0


def test_nested_calls_in_one_layer_are_not_double_counted():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.enter("cache", "cache.warm")
    clock.advance(1.0)
    inner = tracer.enter("cache", "cache.store_states")
    clock.advance(2.0)
    tracer.exit(inner)
    tracer.exit(outer)

    layer = tracer.layers["cache"]
    assert layer.self_s == pytest.approx(3.0)
    assert layer.total_s == pytest.approx(3.0)
    assert layer.calls == 2


def test_spans_close_out_of_order_is_an_error():
    tracer = Tracer(clock=FakeClock())
    outer = tracer.enter("a", "a.outer")
    tracer.enter("b", "b.inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_coroutine_is_charged_only_while_it_runs():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    async def handler():
        clock.advance(1.0)
        await asyncio.sleep(0)
        clock.advance(2.0)
        return "done"

    async def other():
        clock.advance(10.0)

    traced = trace.wrap_coroutine_function(handler, tracer, "gateway", "gateway.handle")

    async def main():
        result, _ = await asyncio.gather(traced(), other())
        return result

    assert asyncio.run(main()) == "done"
    assert tracer.layer_self_s("gateway") == pytest.approx(3.0)
    assert tracer.counters["gateway.handle.calls"] == 1


def test_wrapped_exception_closes_its_span():
    tracer = Tracer(clock=FakeClock())

    def fails():
        raise ValueError("boom")

    wrapped = trace.wrap_function(fails, tracer, "core.solver", "core.solver.solve")
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.open_spans == 0
    assert tracer.calls("core.solver.solve") == 1


def test_uninstall_restores_every_original_attribute():
    from repro.cluster.cluster import GpuCluster
    from repro.gateway.server import Gateway

    before = snapshot_targets()
    originals = (
        vars(GpuCluster)["healthy_workers"],
        vars(Gateway)["handle"],
    )
    installed = install(Tracer())
    assert snapshot_targets() != before
    assert isinstance(vars(GpuCluster)["healthy_workers"], property)
    installed.uninstall()

    assert snapshot_targets() == before
    assert vars(GpuCluster)["healthy_workers"] is originals[0]
    assert vars(Gateway)["handle"] is originals[1]


def test_install_rejects_a_missing_target_and_leaves_nothing_behind():
    before = snapshot_targets()
    bad = trace.TARGETS[:3] + (("core.solver", "AllocationSolver", "nope", "core.solver.x"),)
    with pytest.raises(AttributeError):
        install(Tracer(), targets=bad)
    assert snapshot_targets() == before


def test_fastest_chunks_takes_each_chunks_fastest_repetition():
    # Two repetitions of three chunks, each slowed in a different chunk.
    assert fastest_chunks([[1.0, 2.0, 9.0], [5.0, 2.5, 3.0]]) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        fastest_chunks([[1.0, 2.0], [1.0]])


def _small_workload() -> SimWorkload:
    return SimWorkload("steady-small", "steady-baseline", _preset_trace, preset="small")


def test_wiring_matches_run_scenario_and_tracing_changes_nothing():
    from repro.scenarios.runtime import run_scenario

    from repro.simulation.engine import SimulationEngine

    original_step = SimulationEngine.step
    reference = run_scenario("steady-baseline", preset="small", seed=3)
    expected = summary_digest(reference.summary.as_dict())
    untraced = run_rep(_small_workload(), 3)
    tracer = Tracer()
    installed = install(tracer)
    try:
        traced = run_rep(_small_workload(), 3, tracer=tracer)
    finally:
        installed.uninstall()

    assert untraced.problems == []
    assert untraced.digest == expected
    assert traced.digest == expected
    # Same events, same chunks; and the chunk timer leaves the engine as it was.
    assert len(untraced.chunks_s) == len(traced.chunks_s) > 1
    assert sum(untraced.chunks_s) == pytest.approx(untraced.run_s)
    assert SimulationEngine.step is original_step
    assert tracer.open_spans == 0
    assert tracer.calls("workloads.arrival") == untraced.offered
    metrics = layers.layer_metrics(tracer, traced.summary, traced.state)
    assert set(metrics) == set(layers.PER_LAYER) - {"trace.overhead_ratio"}
    assert metrics["core.admission.offers"] == 0


def test_a_copied_build_serves_like_the_build_it_copies():
    built = build(_small_workload(), 3)
    clone = copy_built(built)
    assert clone is not None and clone.setup_s is None
    original = run_rep(_small_workload(), 3, built=built)
    copied = run_rep(_small_workload(), 3, built=clone)
    assert original.problems == copied.problems == []
    assert copied.digest == original.digest
    assert len(copied.chunks_s) == len(original.chunks_s)


def test_benchmark_json_lists_the_metrics_the_code_reports():
    from perfledger.bench import END_TO_END, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    for metric in spec["per_layer"]:
        expected = "higher" if metric["name"] in layers.HIGHER_IS_BETTER else "lower"
        assert metric["better"] == expected, metric["name"]
