"""End-to-end experiment runner.

Runs any serving system (Argus or a baseline) against a workload trace and
collects the metrics the paper reports: served throughput per minute, SLO
violation ratio, effective accuracy / relative quality, cluster utilisation
and model-load counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.clipper import ClipperSystem
from repro.baselines.nirvana import NirvanaSystem
from repro.baselines.pac import PacSystem
from repro.baselines.proteus import ProteusSystem
from repro.baselines.sommelier import SommelierSystem
from repro.core.base import BaseServingSystem
from repro.core.config import ArgusConfig
from repro.core.system import ArgusSystem
from repro.metrics.collector import MinuteStats
from repro.metrics.report import RunSummary
from repro.prompts.dataset import PromptDataset
from repro.workloads.replay import RequestStream
from repro.workloads.traces import WorkloadTrace

#: Registry of system factories by canonical name.
SYSTEM_NAMES = (
    "argus",
    "pac",
    "proteus",
    "sommelier",
    "nirvana",
    "clipper-ha",
    "clipper-ht",
)


def build_system(
    name: str,
    config: ArgusConfig | None = None,
    training_dataset: PromptDataset | None = None,
    **kwargs,
) -> BaseServingSystem:
    """Build a serving system by name.

    Names: ``argus``, ``pac``, ``proteus``, ``sommelier``, ``nirvana``,
    ``clipper-ha``, ``clipper-ht``.
    """
    key = name.lower()
    if key == "argus":
        return ArgusSystem(config=config, training_dataset=training_dataset, **kwargs)
    if key == "pac":
        return PacSystem(config=config, training_dataset=training_dataset, **kwargs)
    if key == "proteus":
        return ProteusSystem(config=config, training_dataset=training_dataset, **kwargs)
    if key == "sommelier":
        return SommelierSystem(config=config, **kwargs)
    if key == "nirvana":
        return NirvanaSystem(config=config, training_dataset=training_dataset, **kwargs)
    if key == "clipper-ha":
        return ClipperSystem(mode="HA", config=config, **kwargs)
    if key == "clipper-ht":
        return ClipperSystem(mode="HT", config=config, **kwargs)
    raise KeyError(f"unknown system {name!r}; known: {SYSTEM_NAMES}")


@dataclass
class ExperimentResult:
    """Outcome of running one system against one workload."""

    system: str
    workload: str
    summary: RunSummary
    minute_series: list[MinuteStats]
    #: The report's extras (:func:`~repro.metrics.record.build_report`).
    extras: dict = field(default_factory=dict)

    @property
    def served_qpm_series(self) -> list[float]:
        """Served throughput per minute (one of the Fig. 16 curves)."""
        return [m.served_qpm for m in self.minute_series]

    @property
    def offered_qpm_series(self) -> list[float]:
        """Offered load per minute."""
        return [m.offered_qpm for m in self.minute_series]

    @property
    def violation_ratio_series(self) -> list[float]:
        """SLO violation ratio per minute."""
        return [m.violation_ratio for m in self.minute_series]

    @property
    def relative_quality_series(self) -> list[float]:
        """Mean relative quality per minute."""
        return [m.mean_relative_quality for m in self.minute_series]

    @property
    def fleet_size_series(self) -> list[float]:
        """Time-weighted mean workers in rotation per minute."""
        return [m.fleet_workers for m in self.minute_series]


class ExperimentRunner:
    """Runs serving systems against workload traces."""

    def __init__(self, seed: int = 0, dataset_size: int = 3000, drain_s: float = 120.0) -> None:
        self.seed = int(seed)
        self.dataset_size = int(dataset_size)
        self.drain_s = float(drain_s)

    def make_dataset(self, complexity_bias: float = 0.0) -> PromptDataset:
        """Build the evaluation prompt dataset (DiffusionDB stand-in)."""
        return PromptDataset.synthetic(
            count=self.dataset_size, seed=self.seed + 1, complexity_bias=complexity_bias
        )

    def run(
        self,
        system: BaseServingSystem,
        trace: WorkloadTrace,
        dataset: PromptDataset | None = None,
        arrival_kind: str = "poisson",
        stream: RequestStream | None = None,
    ) -> ExperimentResult:
        """Run ``system`` against ``trace`` and collect its metrics.

        A prebuilt ``stream`` (e.g. a drifting
        :class:`~repro.workloads.replay.PhasedRequestStream`) overrides the
        default dataset-cycling stream; it must be built over ``trace``.
        """
        if stream is None:
            dataset = dataset or self.make_dataset()
            stream = RequestStream(
                trace=trace, dataset=dataset, seed=self.seed + 2, arrival_kind=arrival_kind
            )
        elif stream.trace is not trace:
            raise ValueError("prebuilt stream must be built over the trace being run")
        system.schedule_arrivals(stream)
        system.run(duration_s=stream.duration_s, drain_s=self.drain_s)

        # Ask the stream, not the trace: a multi-tenant stream's offered
        # load includes per-tenant extra_qpm series on top of the base
        # trace (for plain streams this is the trace series verbatim).
        offered = {
            minute: stream.offered_qpm(minute) for minute in range(trace.duration_minutes)
        }
        summary, record, extras = system.report(trace.name, trace.duration_minutes)
        minute_series = system.collector.minute_series(
            offered=offered, fleet=record.fleet_minutes
        )
        return ExperimentResult(
            system=system.name,
            workload=trace.name,
            summary=summary,
            minute_series=minute_series,
            extras=extras,
        )


def compare_systems(
    system_names: list[str],
    trace: WorkloadTrace,
    config_factory=None,
    seed: int = 0,
    dataset_size: int = 3000,
    training_dataset: PromptDataset | None = None,
) -> dict[str, ExperimentResult]:
    """Run several systems against the same trace (fresh config per system).

    Args:
        system_names: names understood by :func:`build_system`.
        trace: the workload to replay.
        config_factory: zero-argument callable returning a fresh
            :class:`ArgusConfig` (systems mutate their config, so each one
            needs its own instance).  Defaults to ``ArgusConfig``.
        seed: base seed for dataset and arrival generation.
        dataset_size: number of prompts in the evaluation dataset.
        training_dataset: optional shared classifier-training dataset.
    """
    config_factory = config_factory or ArgusConfig
    runner = ExperimentRunner(seed=seed, dataset_size=dataset_size)
    dataset = runner.make_dataset()
    results: dict[str, ExperimentResult] = {}
    for name in system_names:
        system = build_system(name, config=config_factory(), training_dataset=training_dataset)
        results[name] = runner.run(system, trace, dataset=dataset)
    return results
