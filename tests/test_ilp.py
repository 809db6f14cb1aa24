"""Tests for the ILP modelling layer and branch-and-bound solver."""

from __future__ import annotations

import pytest
from ilp_oracle import BranchAndBoundSolver, IlpProblem, SolveStatus


class TestIlpProblemModelling:
    def test_add_variables_and_constraints(self):
        problem = IlpProblem(maximize=True)
        problem.add_variable("x", lower=0, upper=10)
        problem.add_binary("y")
        problem.set_objective({"x": 1.0, "y": 5.0})
        problem.add_constraint({"x": 1.0, "y": 2.0}, "<=", 8.0)
        assert set(problem.variable_names) == {"x", "y"}
        assert problem.integer_variables == ["y"]
        assert not problem.is_pure_lp()

    def test_duplicate_variable_rejected(self):
        problem = IlpProblem()
        problem.add_variable("x")
        with pytest.raises(ValueError):
            problem.add_variable("x")

    def test_unknown_variable_in_objective(self):
        problem = IlpProblem()
        problem.add_variable("x")
        with pytest.raises(KeyError):
            problem.set_objective({"z": 1.0})

    def test_unknown_variable_in_constraint(self):
        problem = IlpProblem()
        problem.add_variable("x")
        with pytest.raises(KeyError):
            problem.add_constraint({"z": 1.0}, "<=", 1.0)

    def test_invalid_sense(self):
        problem = IlpProblem()
        problem.add_variable("x")
        with pytest.raises(ValueError):
            problem.add_constraint({"x": 1.0}, "<", 1.0)

    def test_invalid_bounds(self):
        problem = IlpProblem()
        with pytest.raises(ValueError):
            problem.add_variable("x", lower=5.0, upper=1.0)


class TestLpSolve:
    def test_simple_lp_maximization(self):
        # max 3x + 2y st x + y <= 4, x <= 2  ->  x=2, y=2, obj=10.
        problem = IlpProblem(maximize=True)
        problem.add_variable("x", lower=0)
        problem.add_variable("y", lower=0)
        problem.set_objective({"x": 3.0, "y": 2.0})
        problem.add_constraint({"x": 1.0, "y": 1.0}, "<=", 4.0)
        problem.add_constraint({"x": 1.0}, "<=", 2.0)
        solution = BranchAndBoundSolver().solve(problem)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(10.0)
        assert solution.value("x") == pytest.approx(2.0)
        assert solution.value("y") == pytest.approx(2.0)

    def test_minimization(self):
        # min x + y st x + y >= 3 -> obj = 3.
        problem = IlpProblem(maximize=False)
        problem.add_variable("x", lower=0)
        problem.add_variable("y", lower=0)
        problem.set_objective({"x": 1.0, "y": 1.0})
        problem.add_constraint({"x": 1.0, "y": 1.0}, ">=", 3.0)
        solution = BranchAndBoundSolver().solve(problem)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(3.0)

    def test_equality_constraint(self):
        problem = IlpProblem(maximize=True)
        problem.add_variable("x", lower=0, upper=10)
        problem.set_objective({"x": 1.0})
        problem.add_constraint({"x": 1.0}, "==", 4.0)
        solution = BranchAndBoundSolver().solve(problem)
        assert solution.value("x") == pytest.approx(4.0)

    def test_infeasible_lp(self):
        problem = IlpProblem(maximize=True)
        problem.add_variable("x", lower=0, upper=1)
        problem.set_objective({"x": 1.0})
        problem.add_constraint({"x": 1.0}, ">=", 5.0)
        solution = BranchAndBoundSolver().solve(problem)
        assert solution.status is SolveStatus.INFEASIBLE

    def test_empty_problem(self):
        solution = BranchAndBoundSolver().solve(IlpProblem())
        assert solution.is_optimal
        assert solution.objective == 0.0


class TestBranchAndBound:
    def test_knapsack(self):
        # Classic 0/1 knapsack: values 60,100,120; weights 10,20,30; cap 50.
        values = [60.0, 100.0, 120.0]
        weights = [10.0, 20.0, 30.0]
        problem = IlpProblem(maximize=True)
        for i in range(3):
            problem.add_binary(f"x{i}")
        problem.set_objective({f"x{i}": values[i] for i in range(3)})
        problem.add_constraint({f"x{i}": weights[i] for i in range(3)}, "<=", 50.0)
        solution = BranchAndBoundSolver().solve(problem)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(220.0)
        assert solution.value("x0") == pytest.approx(0.0)
        assert solution.value("x1") == pytest.approx(1.0)
        assert solution.value("x2") == pytest.approx(1.0)

    def test_integrality_enforced(self):
        # LP relaxation would pick x = 2.5; integer optimum is 2.
        problem = IlpProblem(maximize=True)
        problem.add_variable("x", lower=0, upper=10, integer=True)
        problem.set_objective({"x": 1.0})
        problem.add_constraint({"x": 2.0}, "<=", 5.0)
        solution = BranchAndBoundSolver().solve(problem)
        assert solution.value("x") == pytest.approx(2.0)

    def test_mixed_integer(self):
        # max 5b + y st y <= 3.5, b binary, y <= 10*b  -> b=1, y=3.5.
        problem = IlpProblem(maximize=True)
        problem.add_binary("b")
        problem.add_variable("y", lower=0)
        problem.set_objective({"b": 5.0, "y": 1.0})
        problem.add_constraint({"y": 1.0}, "<=", 3.5)
        problem.add_constraint({"y": 1.0, "b": -10.0}, "<=", 0.0)
        solution = BranchAndBoundSolver().solve(problem)
        assert solution.objective == pytest.approx(8.5)
        assert solution.value("b") == pytest.approx(1.0)

    def test_infeasible_integer_problem(self):
        problem = IlpProblem(maximize=True)
        problem.add_variable("x", lower=0, upper=1, integer=True)
        problem.set_objective({"x": 1.0})
        problem.add_constraint({"x": 2.0}, "==", 1.0)
        solution = BranchAndBoundSolver().solve(problem)
        assert solution.status is SolveStatus.INFEASIBLE

    def test_assignment_problem(self):
        # 3 workers x 3 tasks, each worker one task, maximize total score.
        scores = [[9, 2, 7], [6, 4, 3], [5, 8, 1]]
        problem = IlpProblem(maximize=True)
        for w in range(3):
            for t in range(3):
                problem.add_binary(f"x_{w}_{t}")
        problem.set_objective(
            {f"x_{w}_{t}": float(scores[w][t]) for w in range(3) for t in range(3)}
        )
        for w in range(3):
            problem.add_constraint({f"x_{w}_{t}": 1.0 for t in range(3)}, "==", 1.0)
        for t in range(3):
            problem.add_constraint({f"x_{w}_{t}": 1.0 for w in range(3)}, "==", 1.0)
        solution = BranchAndBoundSolver().solve(problem)
        assert solution.is_optimal
        # Optimal: w0->t2 (7), w1->t0 (6), w2->t1 (8).
        assert solution.objective == pytest.approx(21.0)
        assert solution.value("x_2_1") == pytest.approx(1.0)

    def test_nodes_explored_reported(self):
        problem = IlpProblem(maximize=True)
        for i in range(6):
            problem.add_binary(f"x{i}")
        problem.set_objective({f"x{i}": float(i + 1) for i in range(6)})
        problem.add_constraint({f"x{i}": 1.0 for i in range(6)}, "<=", 3.0)
        solution = BranchAndBoundSolver().solve(problem)
        assert solution.is_optimal
        assert solution.nodes_explored >= 1
