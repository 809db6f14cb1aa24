"""repro: a reproduction of Argus, the quality-aware high-throughput
text-to-image inference serving system (Middleware 2025).

Quickstart (the :mod:`repro.api` facade)::

    import repro

    run = repro.run("steady-baseline", preset="small")   # simulation
    print(run.summary.as_row())

    result = repro.replay("steady-baseline", preset="small", time_scale=60)
    print(result.report["summary"]["total_completions"])  # live gateway

Deep imports (``from repro.core.system import ArgusSystem``) remain public
and stable.  README.md holds the system inventory: its "Architecture map"
section lists every package, and "Scenario catalog", "Performance" and
"Live-mode gateway" cover the workloads, the hot paths and live mode.
The paper's figures and tables are reproduced by the ``benchmarks/``
tests, one file per experiment; each prints its rows when run with
``pytest benchmarks -s``.
"""

from repro.api import load_scenario, replay, run, serve
from repro.core.autoscaler import Autoscaler, ScalingEvent
from repro.core.config import ArgusConfig
from repro.core.oda import OptimizedDistributionAligner, ShiftMap
from repro.core.solver import AllocationPlan, AllocationSolver
from repro.core.system import ArgusSystem
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentRunner,
    build_system,
    compare_systems,
)
from repro.gateway.loadgen import LoadgenResult
from repro.gateway.server import Gateway
from repro.models.zoo import ApproximationLevel, ModelZoo, Strategy
from repro.metrics.report import RunSummary, ScenarioReport
from repro.prompts.dataset import PromptDataset
from repro.quality.optimal import OptimalModelSelector
from repro.quality.pickscore import PickScoreModel
from repro.scenarios import (
    Scenario,
    ScenarioRun,
    get_scenario,
    list_scenarios,
    run_scenario,
    scenario_names,
)
from repro.workloads.shapes import build_shape
from repro.workloads.traces import TraceLibrary, WorkloadTrace

__version__ = "1.0.0"

__all__ = [
    "AllocationPlan",
    "AllocationSolver",
    "ApproximationLevel",
    "ArgusConfig",
    "ArgusSystem",
    "Autoscaler",
    "ExperimentResult",
    "ExperimentRunner",
    "Gateway",
    "LoadgenResult",
    "ModelZoo",
    "OptimalModelSelector",
    "OptimizedDistributionAligner",
    "PickScoreModel",
    "PromptDataset",
    "RunSummary",
    "ScalingEvent",
    "Scenario",
    "ScenarioReport",
    "ScenarioRun",
    "ShiftMap",
    "Strategy",
    "TraceLibrary",
    "WorkloadTrace",
    "build_shape",
    "build_system",
    "compare_systems",
    "get_scenario",
    "list_scenarios",
    "load_scenario",
    "replay",
    "run",
    "run_scenario",
    "scenario_names",
    "serve",
    "__version__",
]
