"""Tests for the Eq. 1 allocation solver, checked against the ILP oracle."""

from __future__ import annotations

import numpy as np
import pytest
from ilp_oracle import BranchAndBoundSolver, Solution, SolveStatus, solve_ilp

from repro.core.solver import AllocationSolver
from repro.models.zoo import ModelZoo, Strategy

#: Simple synthetic profile: quality drops, throughput rises with rank.
QUALITY = np.array([21.0, 20.5, 20.0, 19.0, 18.0, 16.0])
PEAK = np.array([14.3, 15.7, 17.5, 19.7, 22.6, 26.5])


class TestAllocationSolver:
    def test_low_load_uses_best_quality_only(self):
        plan = AllocationSolver().solve(50.0, QUALITY, PEAK, num_workers=8)
        assert plan.feasible
        assert plan.workers_per_level[0] == 8
        assert plan.qpm_per_level[0] == pytest.approx(50.0)
        assert plan.expected_quality == pytest.approx(QUALITY[0])

    def test_total_workers_never_exceeds_cluster(self):
        for target in (10.0, 80.0, 150.0, 300.0):
            plan = AllocationSolver().solve(target, QUALITY, PEAK, num_workers=8)
            assert plan.total_workers <= 8

    def test_meets_target_when_feasible(self):
        for target in (30.0, 90.0, 120.0, 160.0, 200.0):
            plan = AllocationSolver().solve(target, QUALITY, PEAK, num_workers=8)
            assert plan.feasible
            assert plan.total_capacity_qpm == pytest.approx(target, rel=1e-6)

    def test_infeasible_load_reported(self):
        max_capacity = PEAK[-1] * 8
        plan = AllocationSolver().solve(max_capacity * 1.5, QUALITY, PEAK, num_workers=8)
        assert not plan.feasible
        assert plan.workers_per_level[-1] == 8
        assert plan.total_capacity_qpm == pytest.approx(max_capacity)

    def test_quality_monotone_in_load(self):
        solver = AllocationSolver()
        qualities = [
            solver.solve(target, QUALITY, PEAK, num_workers=8).expected_quality
            for target in (40.0, 100.0, 150.0, 200.0)
        ]
        assert qualities == sorted(qualities, reverse=True)

    def test_load_distribution_is_probability(self):
        plan = AllocationSolver().solve(130.0, QUALITY, PEAK, num_workers=8)
        dist = plan.load_distribution()
        assert dist.sum() == pytest.approx(1.0)
        assert np.all(dist >= 0)

    def test_worker_assignment_covers_all_workers(self):
        plan = AllocationSolver().solve(130.0, QUALITY, PEAK, num_workers=8)
        assignment = plan.worker_assignment(list(range(8)))
        assert set(assignment) == set(range(8))
        counts = [0] * 6
        for rank in assignment.values():
            counts[rank] += 1
        assert tuple(counts) == plan.workers_per_level

    def test_assignment_with_fewer_workers_than_plan(self):
        plan = AllocationSolver().solve(130.0, QUALITY, PEAK, num_workers=8)
        assignment = plan.worker_assignment([3, 5])
        assert set(assignment) == {3, 5}

    def test_zero_load(self):
        plan = AllocationSolver().solve(0.0, QUALITY, PEAK, num_workers=4)
        assert plan.feasible
        assert plan.total_capacity_qpm == pytest.approx(0.0)

    def test_single_level(self):
        plan = AllocationSolver().solve(
            20.0, np.array([21.0]), np.array([14.3]), num_workers=2
        )
        assert plan.workers_per_level == (2,)
        assert plan.feasible

    def test_input_validation(self):
        solver = AllocationSolver()
        with pytest.raises(ValueError):
            solver.solve(-5.0, QUALITY, PEAK, 8)
        with pytest.raises(ValueError):
            solver.solve(10.0, QUALITY, PEAK, 0)
        with pytest.raises(ValueError):
            solver.solve(10.0, QUALITY[:3], PEAK, 8)
        with pytest.raises(ValueError):
            solver.solve(10.0, QUALITY, np.zeros(6), 8)

    def test_greedy_path_for_large_clusters(self):
        solver = AllocationSolver(enumerate_limit=10)
        plan = solver.solve(400.0, QUALITY, PEAK, num_workers=32)
        assert plan.feasible
        assert plan.total_workers <= 32
        assert plan.total_capacity_qpm == pytest.approx(400.0, rel=1e-6)

    def test_real_zoo_profiles(self):
        zoo = ModelZoo()
        peak = np.array([l.peak_throughput_qpm for l in zoo.levels(Strategy.AC)])
        plan = AllocationSolver().solve(150.0, QUALITY, peak, num_workers=8)
        assert plan.feasible


class TestIlpFormulation:
    def test_ilp_matches_specialised_solver_objective(self):
        solver = AllocationSolver()
        for target in (40.0, 100.0, 140.0):
            fast = solver.solve(target, QUALITY[:4], PEAK[:4], num_workers=4)
            ilp = solve_ilp(target, QUALITY[:4], PEAK[:4], num_workers=4)
            assert ilp.feasible == fast.feasible
            assert ilp.expected_quality == pytest.approx(fast.expected_quality, rel=1e-3)

    def test_ilp_respects_worker_count(self):
        plan = solve_ilp(45.0, QUALITY[:3], PEAK[:3], num_workers=3)
        assert plan.total_workers <= 3
        assert plan.total_capacity_qpm == pytest.approx(45.0, rel=1e-6)

    def test_ilp_infeasible_load(self):
        plan = solve_ilp(500.0, QUALITY[:3], PEAK[:3], num_workers=3)
        assert not plan.feasible

    def test_oracle_raises_without_an_optimum(self, monkeypatch):
        # Falling back to the enumeration solver would let the oracle agree
        # with the solver it checks; it must fail instead.
        monkeypatch.setattr(
            BranchAndBoundSolver,
            "solve",
            lambda self, problem: Solution(status=SolveStatus.INFEASIBLE),
        )
        with pytest.raises(RuntimeError, match="no optimum"):
            solve_ilp(45.0, QUALITY[:3], PEAK[:3], num_workers=3)
