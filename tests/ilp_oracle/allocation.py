"""Eq. 1 verbatim: binary placement variables solved by branch-and-bound."""

from __future__ import annotations

import numpy as np

from repro.core.solver import AllocationPlan, AllocationSolver

from .branch_and_bound import BranchAndBoundSolver
from .model import IlpProblem


def solve_ilp(
    target_qpm: float,
    quality: np.ndarray,
    peak_qpm: np.ndarray,
    num_workers: int,
) -> AllocationPlan:
    """Solve Eq. 1 with binary placement variables via branch-and-bound.

    The formulation follows the paper: ``x[l, w] ∈ {0, 1}`` places level
    ``l`` on worker ``w``; ``lam[w] >= 0`` is the QPM routed to worker
    ``w``; each worker runs at most one level; a worker's load may not
    exceed the peak throughput of its level; total load equals the
    target (or the total capacity when the target is infeasible).

    Raises :class:`RuntimeError` when branch-and-bound proves no optimum:
    an oracle that fell back to the solver it checks would check nothing.
    """
    quality = np.asarray(quality, dtype=np.float64)
    peak_qpm = np.asarray(peak_qpm, dtype=np.float64)
    AllocationSolver._validate(target_qpm, quality, peak_qpm, num_workers)
    num_levels = len(quality)
    max_capacity = float(peak_qpm.max() * num_workers)
    demand = min(float(target_qpm), max_capacity)
    feasible = target_qpm <= max_capacity + 1e-9

    problem = IlpProblem(name="argus-allocation", maximize=True)
    for level in range(num_levels):
        for worker in range(num_workers):
            problem.add_binary(f"x_{level}_{worker}")
    for worker in range(num_workers):
        problem.add_variable(f"lam_{worker}", lower=0.0, upper=float(peak_qpm.max()))

    # Objective: sum_l q_l * g(l) where g(l) = sum_w assigned lam_w.  The
    # product x * lam is linearised by bounding lam_w by the peak of its
    # assigned level and crediting quality through per-level load
    # variables y_{l,w} <= min(lam_w, peak_l * x_{l,w}).
    objective: dict[str, float] = {}
    for level in range(num_levels):
        for worker in range(num_workers):
            name = f"y_{level}_{worker}"
            problem.add_variable(name, lower=0.0, upper=float(peak_qpm[level]))
            objective[name] = float(quality[level])
            problem.add_constraint(
                {name: 1.0, f"x_{level}_{worker}": -float(peak_qpm[level])},
                "<=",
                0.0,
                name=f"cap_{level}_{worker}",
            )
            problem.add_constraint(
                {name: 1.0, f"lam_{worker}": -1.0}, "<=", 0.0, name=f"link_{level}_{worker}"
            )
    problem.set_objective(objective)

    for worker in range(num_workers):
        problem.add_constraint(
            {f"x_{level}_{worker}": 1.0 for level in range(num_levels)},
            "<=",
            1.0,
            name=f"one_level_w{worker}",
        )
        problem.add_constraint(
            dict(
                {f"lam_{worker}": 1.0},
                **{f"x_{level}_{worker}": -float(peak_qpm[level]) for level in range(num_levels)},
            ),
            "<=",
            0.0,
            name=f"lam_cap_w{worker}",
        )
    problem.add_constraint(
        {f"lam_{worker}": 1.0 for worker in range(num_workers)},
        "==",
        demand,
        name="meet_demand",
    )

    solution = BranchAndBoundSolver().solve(problem)
    if not solution.is_optimal:
        raise RuntimeError(f"branch-and-bound found no optimum: {solution.status.value}")

    counts = [0] * num_levels
    qpm_per_level = [0.0] * num_levels
    for worker in range(num_workers):
        for level in range(num_levels):
            if solution.value(f"x_{level}_{worker}") > 0.5:
                counts[level] += 1
                qpm_per_level[level] += solution.value(f"y_{level}_{worker}")
                break
    return AllocationPlan(
        workers_per_level=tuple(counts),
        qpm_per_level=tuple(qpm_per_level),
        feasible=feasible,
        target_qpm=float(target_qpm),
        expected_quality=AllocationSolver._expected_quality(quality, qpm_per_level),
    )
