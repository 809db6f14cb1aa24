"""Branch-and-bound MILP solver on top of ``scipy.optimize.linprog``.

The LP relaxation of each node is solved with HiGHS; fractional integer
variables are branched on best-first by relaxation bound.  Problem sizes in
this repository (tens of binaries for the per-minute allocation) solve in a
few milliseconds, matching the paper's "under 100 ms" claim for the Gurobi
solver.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .model import IlpProblem, Solution, SolveStatus

_INTEGRALITY_TOLERANCE = 1e-6


@dataclass
class _Node:
    """A branch-and-bound node: extra bounds layered over the base problem."""

    extra_lower: dict
    extra_upper: dict
    bound: float


class BranchAndBoundSolver:
    """Solves :class:`IlpProblem` instances exactly (small/medium sizes)."""

    def __init__(self, max_nodes: int = 20_000, gap_tolerance: float = 1e-6) -> None:
        self.max_nodes = int(max_nodes)
        self.gap_tolerance = float(gap_tolerance)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve(self, problem: IlpProblem) -> Solution:
        """Solve the problem, returning the best integer-feasible solution."""
        names = problem.variable_names
        if not names:
            return Solution(status=SolveStatus.OPTIMAL, objective=0.0, values={})

        relaxed = self._solve_relaxation(problem, {}, {})
        if relaxed is None:
            return Solution(status=SolveStatus.INFEASIBLE)
        if problem.is_pure_lp():
            values, objective = relaxed
            return Solution(
                status=SolveStatus.OPTIMAL,
                objective=objective,
                values=dict(zip(names, values)),
                nodes_explored=1,
            )
        return self._branch_and_bound(problem, relaxed)

    # ------------------------------------------------------------------ #
    # Branch and bound
    # ------------------------------------------------------------------ #
    def _branch_and_bound(
        self, problem: IlpProblem, root: tuple[np.ndarray, float]
    ) -> Solution:
        names = problem.variable_names
        integer_indices = [
            i for i, name in enumerate(names) if problem.variables[name].integer
        ]
        best_values: np.ndarray | None = None
        best_objective = -math.inf
        counter = itertools.count()

        root_values, root_objective = root
        heap: list[tuple[float, int, _Node]] = []
        heapq.heappush(
            heap,
            (-root_objective, next(counter), _Node({}, {}, root_objective)),
        )
        nodes_explored = 0

        while heap and nodes_explored < self.max_nodes:
            neg_bound, _, node = heapq.heappop(heap)
            bound = -neg_bound
            if bound <= best_objective + self.gap_tolerance:
                continue
            relaxed = self._solve_relaxation(problem, node.extra_lower, node.extra_upper)
            nodes_explored += 1
            if relaxed is None:
                continue
            values, objective = relaxed
            if objective <= best_objective + self.gap_tolerance:
                continue

            fractional = self._most_fractional(values, integer_indices)
            if fractional is None:
                if objective > best_objective:
                    best_objective = objective
                    best_values = values
                continue

            index, value = fractional
            name = names[index]
            floor_value = math.floor(value)

            down_upper = dict(node.extra_upper)
            down_upper[name] = min(down_upper.get(name, math.inf), floor_value)
            heapq.heappush(
                heap,
                (-objective, next(counter), _Node(dict(node.extra_lower), down_upper, objective)),
            )

            up_lower = dict(node.extra_lower)
            up_lower[name] = max(up_lower.get(name, -math.inf), floor_value + 1)
            heapq.heappush(
                heap,
                (-objective, next(counter), _Node(up_lower, dict(node.extra_upper), objective)),
            )

        if best_values is None:
            return Solution(status=SolveStatus.INFEASIBLE, nodes_explored=nodes_explored)
        rounded = best_values.copy()
        for i in integer_indices:
            rounded[i] = round(rounded[i])
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=float(best_objective),
            values=dict(zip(names, rounded.tolist())),
            nodes_explored=nodes_explored,
        )

    @staticmethod
    def _most_fractional(
        values: np.ndarray, integer_indices: list[int]
    ) -> tuple[int, float] | None:
        best_index = None
        best_distance = _INTEGRALITY_TOLERANCE
        for index in integer_indices:
            value = values[index]
            distance = abs(value - round(value))
            if distance > best_distance:
                best_distance = distance
                best_index = index
        if best_index is None:
            return None
        return best_index, float(values[best_index])

    # ------------------------------------------------------------------ #
    # LP relaxation
    # ------------------------------------------------------------------ #
    def _solve_relaxation(
        self,
        problem: IlpProblem,
        extra_lower: dict,
        extra_upper: dict,
    ) -> tuple[np.ndarray, float] | None:
        names = problem.variable_names
        index_of = {name: i for i, name in enumerate(names)}
        n = len(names)

        objective = np.zeros(n)
        for name, coefficient in problem.objective.items():
            objective[index_of[name]] = coefficient
        sign = -1.0 if problem.maximize else 1.0
        c = sign * objective

        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for constraint in problem.constraints:
            row = np.zeros(n)
            for name, coefficient in constraint.coefficients.items():
                row[index_of[name]] = coefficient
            if constraint.sense == "<=":
                a_ub.append(row)
                b_ub.append(constraint.rhs)
            elif constraint.sense == ">=":
                a_ub.append(-row)
                b_ub.append(-constraint.rhs)
            else:
                a_eq.append(row)
                b_eq.append(constraint.rhs)

        bounds = []
        for name in names:
            variable = problem.variables[name]
            lower = max(variable.lower, extra_lower.get(name, -math.inf))
            upper = variable.upper if variable.upper is not None else math.inf
            upper = min(upper, extra_upper.get(name, math.inf))
            if lower > upper:
                return None
            bounds.append((lower, None if math.isinf(upper) else upper))

        result = linprog(
            c,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=bounds,
            method="highs",
        )
        if not result.success:
            return None
        values = np.asarray(result.x, dtype=np.float64)
        achieved = float(objective @ values)
        return values, achieved
