"""Materialise and run declarative scenarios.

This is the only place scenario specs meet the serving stack: it builds the
trace, the system, the (possibly drifting) request stream, schedules fault
and network timelines on the simulation engine, delegates the run to
:class:`~repro.experiments.runner.ExperimentRunner` and wraps the outcome
in a scenario-tagged report.

The construction order deliberately mirrors a hand-wired
``ExperimentRunner`` call: a scenario without faults / drift / network
schedules produces a bit-identical :class:`~repro.metrics.report.RunSummary`
to the equivalent manual wiring (pinned by ``tests/test_scenarios.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.network import NetworkCondition
from repro.core.base import BaseServingSystem
from repro.core.config import ArgusConfig
from repro.experiments.runner import ExperimentResult, ExperimentRunner, build_system
from repro.metrics.report import ScenarioReport
from repro.prompts.dataset import PromptDataset
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import Preset, Scenario
from repro.workloads.replay import PhasedRequestStream, RequestStream
from repro.workloads.tenants import _TENANT_SEED_STRIDE, MultiTenantRequestStream
from repro.workloads.traces import WorkloadTrace


@dataclass
class ScenarioRun:
    """Outcome of one scenario run: the result plus everything that made it."""

    scenario: Scenario
    preset_name: str
    seed: int
    trace: WorkloadTrace
    config: ArgusConfig
    system: BaseServingSystem
    result: ExperimentResult
    extras: dict = field(default_factory=dict)

    @property
    def summary(self):
        """The run's :class:`~repro.metrics.report.RunSummary`."""
        return self.result.summary

    def report(self) -> ScenarioReport:
        """Scenario-tagged JSON-ready report."""
        return ScenarioReport(
            scenario=self.scenario.name,
            preset=self.preset_name,
            seed=self.seed,
            system=self.result.system,
            workload=self.result.workload,
            summary=self.result.summary,
            minutes=ScenarioReport.minute_rows(self.result.minute_series),
            extras=self.extras,
        )


def build_config(
    scenario: Scenario, preset: Preset, seed: int, extra: dict | None = None
) -> ArgusConfig:
    """Merge scenario- and preset-level overrides into a fresh config.

    ``extra`` overrides win over both (the shard runner uses this to give
    each shard its fleet slice without editing the scenario spec).
    """
    overrides = {**scenario.config, **preset.config, **(extra or {})}
    overrides["seed"] = int(seed)
    return ArgusConfig(**overrides)


def build_stream(
    scenario: Scenario,
    preset: Preset,
    config: ArgusConfig,
    trace: WorkloadTrace,
    seed: int,
) -> RequestStream:
    """Build the scenario's full request stream over ``trace``.

    This is the single source of truth for all three workload shapes —
    multi-tenant, plain and drifting — with the exact dataset/arrival seed
    derivations the runner has always used (tenant ``i`` draws arrivals at
    ``seed + 2 + 7919 * i`` and prompts at ``seed + 1 + 7919 * i``; the plain
    stream is ``seed + 2`` arrivals over a ``seed + 1`` dataset).  Shard
    processes rebuild this same full stream and filter it, which is what
    keeps a partitioned run's arrival sequence identical to the sequential
    one's.
    """
    _, drift, _ = scenario.schedule(preset)
    if config.tenants:
        # One dataset per tenant (distinct generator seeds, so tenants have
        # distinct working sets); tenant 0 keeps the plain runner's dataset
        # seed, which makes the single-default-tenant run bit-identical.
        # Prompts are tagged as they are generated, so the stream keeps them.
        bias = drift[0].complexity_bias if drift else 0.0
        datasets = {
            spec.name: PromptDataset.synthetic(
                count=preset.dataset_size,
                seed=seed + 1 + _TENANT_SEED_STRIDE * index,
                complexity_bias=bias,
                tenant=spec.name,
            )
            for index, spec in enumerate(config.tenants)
        }
        # Drift × tenancy: every tenant's mix moves through the same phase
        # schedule, each drawing from its own per-phase datasets.  Phase 0
        # keeps the tenant's plain dataset seed (the +1000-per-phase stride
        # matches the single-tenant PhasedRequestStream derivation), so a
        # drift-free schedule is bit-identical to the undrifted stream.
        phases = None
        if len(drift) > 1:
            phases = {
                spec.name: tuple(
                    (
                        phase.start_minute * 60.0,
                        PromptDataset.synthetic(
                            count=preset.dataset_size,
                            seed=seed + 1 + _TENANT_SEED_STRIDE * index + 1000 * phase_index,
                            complexity_bias=phase.complexity_bias,
                            tenant=spec.name,
                        ),
                    )
                    for phase_index, phase in enumerate(drift)
                )
                for index, spec in enumerate(config.tenants)
            }
        return MultiTenantRequestStream(
            trace=trace,
            tenants=config.tenants,
            datasets=datasets,
            seed=seed + 2,
            arrival_kind=scenario.arrival_kind,
            phases=phases,
        )
    if len(drift) <= 1:
        bias = drift[0].complexity_bias if drift else 0.0
        dataset = PromptDataset.synthetic(
            count=preset.dataset_size, seed=seed + 1, complexity_bias=bias
        )
        return RequestStream(
            trace=trace, dataset=dataset, seed=seed + 2, arrival_kind=scenario.arrival_kind
        )
    # One dataset per phase.  Each phase needs its own generator seed:
    # prompt quality is keyed on the prompt *text*, so re-biasing the
    # same seed would produce prompts that score identically to the
    # originals and the drift would be invisible to the detector.
    phases = [
        (
            phase.start_minute * 60.0,
            PromptDataset.synthetic(
                count=preset.dataset_size,
                seed=seed + 1 + 1000 * index,
                complexity_bias=phase.complexity_bias,
            ),
        )
        for index, phase in enumerate(drift)
    ]
    return PhasedRequestStream(
        trace=trace, phases=phases, seed=seed + 2, arrival_kind=scenario.arrival_kind
    )


def _apply_schedules(
    system: BaseServingSystem, scenario: Scenario, preset: Preset, faults: bool = True
) -> None:
    """Install fault, network and cache-event timelines on a freshly built system.

    ``faults=False`` leaves the fault schedule out: a shard installs its own,
    mapped onto shard-local worker ids.
    """
    fault_events, _, network = scenario.schedule(preset)
    for event in fault_events if faults else ():
        for worker_id in event.worker_ids(system.config.num_workers):
            recover_at = (
                None if event.recover_at_minute is None else event.recover_at_minute * 60.0
            )
            if event.degrade_factor is not None:
                system.cluster.schedule_degradation(
                    worker_id,
                    event.degrade_factor,
                    degrade_at_s=event.fail_at_minute * 60.0,
                    restore_at_s=recover_at,
                )
            else:
                system.cluster.schedule_failure(
                    worker_id, fail_at_s=event.fail_at_minute * 60.0, recover_at_s=recover_at
                )
    for window in network:
        if window.node is not None:
            if system.cache is None or not hasattr(system.cache, "schedule_node_condition"):
                raise ValueError(
                    f"network window targets cache node {window.node}, but the run "
                    "has no cache tier (set cache_shards >= 2 or cache_replication)"
                )
            system.cache.schedule_node_condition(
                window.node,
                window.start_minute * 60.0,
                window.end_minute * 60.0,
                NetworkCondition(window.condition),
            )
            continue
        system.network.schedule_condition(
            window.start_minute * 60.0,
            window.end_minute * 60.0,
            NetworkCondition(window.condition),
        )
    cache_events = scenario.cache_schedule(preset)
    if cache_events and (
        system.cache is None or not hasattr(system.cache, "add_node")
    ):
        raise ValueError(
            f"scenario {scenario.name!r} schedules cache events, but the run has "
            "no cache tier (set cache_shards >= 2 or cache_replication)"
        )
    for event in cache_events:
        at_s = event.at_minute * 60.0
        cache = system.cache
        if event.action == "add_node":
            system.engine.schedule_at(
                at_s,
                lambda _e, c=cache: c.add_node(now_s=_e.now),
                name="cache-add-node",
            )
        elif event.action == "remove_node":
            system.engine.schedule_at(
                at_s,
                lambda _e, c=cache, node=event.node: c.remove_node(node, now_s=_e.now),
                name=f"cache-remove-node-{event.node}",
            )
        else:  # poison
            system.engine.schedule_at(
                at_s,
                lambda _e, c=cache, f=event.fraction, s=event.seed: c.poison(f, seed=s),
                name="cache-poison",
            )


def _collect_extras(system: BaseServingSystem, result: ExperimentResult) -> dict:
    """The report's extras of a run that ``ExperimentRunner.run`` made:
    :func:`~repro.metrics.record.build_report` built them with its summary."""
    return dict(result.extras)


def run_scenario(
    scenario: Scenario | str,
    preset: str = "full",
    seed: int | None = None,
    system: str | None = None,
    shards: int | None = None,
) -> ScenarioRun:
    """Run a scenario (instance or registered name) under a preset.

    ``seed`` defaults to the scenario's ``default_seed`` and drives every
    stochastic component — same (scenario, preset, seed) means a
    bit-identical run.  ``system`` overrides the scenario's serving system
    (any :func:`~repro.experiments.runner.build_system` name), e.g. to run
    the same workload through a baseline.  ``shards`` overrides the
    config's shard count; any effective ``shards > 1`` delegates to
    :func:`repro.simulation.shard.run_sharded` (``shards=1`` always takes
    this sequential path, bit-for-bit).
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    preset_name = preset
    preset_spec = scenario.preset(preset_name)
    if seed is None:
        seed = scenario.default_seed
    seed = int(seed)

    extra: dict = {}
    if shards is not None:
        extra["shards"] = int(shards)
    config = build_config(scenario, preset_spec, seed, extra=extra)
    if config.shards > 1:
        # Local import: the shard coordinator drives this module, not vice versa.
        from repro.simulation.shard import run_sharded

        return run_sharded(scenario, preset_name, seed, system, config)
    trace = scenario.trace.build(seed=seed, **preset_spec.trace_params)
    serving = build_system(system or scenario.system, config=config)
    _apply_schedules(serving, scenario, preset_spec)

    runner = ExperimentRunner(
        seed=seed, dataset_size=preset_spec.dataset_size, drain_s=preset_spec.drain_s
    )
    stream = build_stream(scenario, preset_spec, config, trace, seed)
    result = runner.run(serving, trace, stream=stream)

    return ScenarioRun(
        scenario=scenario,
        preset_name=preset_name,
        seed=seed,
        trace=trace,
        config=config,
        system=serving,
        result=result,
        extras=_collect_extras(serving, result),
    )
