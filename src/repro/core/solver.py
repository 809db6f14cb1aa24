"""The Allocator's Solver (Eq. 1).

Given the expected load ``R_t`` (QPM), the profiled average quality ``q_l``
and peak per-worker throughput ``peak_l`` of every approximation level, and
the cluster size, the Solver decides how many workers run each level and how
much load each level serves, maximising overall quality subject to meeting
the load.

Two equivalent solvers are provided:

* :meth:`AllocationSolver.solve_ilp` — the literal Eq. 1 formulation with
  binary placement variables, solved by :mod:`repro.ilp` (the Gurobi role).
* :meth:`AllocationSolver.solve` — an exact enumeration/greedy solver
  specialised to the structure of the problem (workers are identical, so
  only per-level counts matter).  This is the default at runtime because it
  is faster and scales to large clusters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from repro.ilp import BranchAndBoundSolver, IlpProblem


@lru_cache(maxsize=64)
def _compositions_matrix(num_workers: int, num_levels: int) -> np.ndarray:
    """All per-level worker-count compositions, one row per composition.

    Rows follow ``combinations_with_replacement`` order so vectorized and
    scalar enumeration agree on tie-breaking (first composition wins).
    """
    rows = np.zeros(
        (AllocationSolver._num_compositions(num_workers, num_levels), num_levels),
        dtype=np.int64,
    )
    for row, combo in enumerate(
        combinations_with_replacement(range(num_levels), num_workers)
    ):
        for level in combo:
            rows[row, level] += 1
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class AllocationPlan:
    """Output of the Solver: worker counts and load split across levels."""

    #: Number of workers assigned to each approximation level (index = rank).
    workers_per_level: tuple[int, ...]
    #: Load (QPM) routed to each level.
    qpm_per_level: tuple[float, ...]
    #: Whether the plan can serve the full target load.
    feasible: bool
    #: Target load the plan was computed for (QPM).
    target_qpm: float
    #: Quality-weighted objective value (sum of q_l * share_l).
    expected_quality: float

    @property
    def num_levels(self) -> int:
        """Number of approximation levels in the plan."""
        return len(self.workers_per_level)

    @property
    def total_workers(self) -> int:
        """Total workers placed by the plan."""
        return int(sum(self.workers_per_level))

    @property
    def total_capacity_qpm(self) -> float:
        """Total load actually allocated across levels."""
        return float(sum(self.qpm_per_level))

    def load_distribution(self) -> np.ndarray:
        """Normalised load share per level (the g(l) distribution for ODA)."""
        total = sum(self.qpm_per_level)
        if total <= 0:
            dist = np.zeros(self.num_levels)
            dist[0] = 1.0
            return dist
        return np.asarray(self.qpm_per_level) / total

    def worker_assignment(self, worker_ids: list[int]) -> dict[int, int]:
        """Map concrete worker ids to level ranks, slowest levels first."""
        assignment: dict[int, int] = {}
        index = 0
        for rank, count in enumerate(self.workers_per_level):
            for _ in range(int(count)):
                if index >= len(worker_ids):
                    return assignment
                assignment[worker_ids[index]] = rank
                index += 1
        # Any leftover workers (plan smaller than cluster) go to the slowest level.
        while index < len(worker_ids):
            assignment[worker_ids[index]] = 0
            index += 1
        return assignment


class AllocationSolver:
    """Solves the per-minute load-allocation problem."""

    def __init__(
        self,
        enumerate_limit: int = 5_000,
        cache_size: int = 512,
        cache_quantum_qpm: float = 0.0,
    ) -> None:
        #: Maximum number of worker-count compositions to enumerate before
        #: falling back to the greedy solver.  The default covers the paper's
        #: 8-worker cluster exactly (1287 compositions) and keeps the solve
        #: comfortably under the 100 ms budget for larger clusters, where the
        #: greedy upgrade heuristic takes over.
        self.enumerate_limit = int(enumerate_limit)
        #: Memoisation of :meth:`solve` on a (target-bucket, profile
        #: signature, fleet signature) key, so per-tick recalibrations and
        #: autoscaler what-if probes stop re-running the composition
        #: enumeration when nothing changed.  Any change to the quality /
        #: peak profiles, worker count or per-worker speeds changes the key,
        #: which is how invalidation happens.
        self.cache_size = int(cache_size)
        #: Optional target-QPM bucketing for the cache key.  0 (default)
        #: caches on the exact target only, which is hit-for-hit identical
        #: to an uncached solver.  A positive quantum rounds the target UP
        #: to the next multiple before solving, trading a slightly
        #: conservative plan for far more cache hits under drifting load.
        self.cache_quantum_qpm = float(cache_quantum_qpm)
        self._cache: OrderedDict[tuple, AllocationPlan] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    def clear_cache(self) -> None:
        """Drop all memoised plans (profiling / test hook)."""
        self._cache.clear()

    # ------------------------------------------------------------------ #
    # Default solver: exact enumeration with greedy fallback
    # ------------------------------------------------------------------ #
    def solve(
        self,
        target_qpm: float,
        quality: np.ndarray,
        peak_qpm: np.ndarray,
        num_workers: int,
        speed_factors: list[float] | None = None,
        signature: tuple | None = None,
    ) -> AllocationPlan:
        """Compute the quality-maximal allocation meeting ``target_qpm``.

        ``speed_factors`` makes the capacity model heterogeneity-aware: one
        relative GPU speed per worker (``peak_qpm`` is calibrated for speed
        1.0).  Level ``l``'s capacity then becomes ``peak_l x sum of the
        speeds assigned to it`` instead of ``count_l x peak_l``.  Workers
        are assigned to levels fastest-GPU-first in rank order, matching
        :meth:`AllocationPlan.worker_assignment` fed speed-sorted ids.  On a
        homogeneous fleet (all speeds 1.0, or None) this is exactly the
        uniform solve.

        ``signature`` is an opaque hashable tag folded into the memo key —
        callers whose *interpretation* of a plan depends on context the
        numeric inputs do not capture (e.g. the tenant contract set, whose
        quality floors reshape the PASM built from the plan) pass it so
        plans never leak between contexts sharing one solver.
        """
        quality = np.asarray(quality, dtype=np.float64)
        peak_qpm = np.asarray(peak_qpm, dtype=np.float64)
        self._validate(target_qpm, quality, peak_qpm, num_workers)
        if speed_factors is not None:
            if len(speed_factors) != num_workers:
                raise ValueError("speed_factors must list one speed per worker")
            if any(s <= 0 for s in speed_factors):
                raise ValueError("speed factors must be positive")
            if all(s == 1.0 for s in speed_factors):
                speed_factors = None

        if self.cache_quantum_qpm > 0:
            quantum = self.cache_quantum_qpm
            target_qpm = float(np.ceil(target_qpm / quantum) * quantum)
        key = (
            float(target_qpm),
            quality.tobytes(),
            peak_qpm.tobytes(),
            int(num_workers),
            None if speed_factors is None else tuple(speed_factors),
            signature,
        )
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            self._cache.move_to_end(key)
            return cached
        self.cache_misses += 1

        if speed_factors is not None:
            plan = self._solve_heterogeneous(
                target_qpm, quality, peak_qpm, list(speed_factors)
            )
            self._cache_store(key, plan)
            return plan
        num_levels = len(quality)

        if self._num_compositions(num_workers, num_levels) <= self.enumerate_limit:
            counts = self._best_counts_enumerated(target_qpm, quality, peak_qpm, num_workers)
        else:
            counts = self._best_counts_greedy(target_qpm, quality, peak_qpm, num_workers)
        qpm_per_level, feasible = self._fill_load(target_qpm, quality, peak_qpm, counts)
        expected_quality = self._expected_quality(quality, qpm_per_level)
        plan = AllocationPlan(
            workers_per_level=tuple(int(c) for c in counts),
            qpm_per_level=tuple(float(q) for q in qpm_per_level),
            feasible=feasible,
            target_qpm=float(target_qpm),
            expected_quality=expected_quality,
        )
        self._cache_store(key, plan)
        return plan

    def _cache_store(self, key: tuple, plan: AllocationPlan) -> None:
        self._cache[key] = plan
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------ #
    # Heterogeneous fleets (per-worker capacity, Eq. 1 generalised)
    # ------------------------------------------------------------------ #
    def _solve_heterogeneous(
        self,
        target_qpm: float,
        quality: np.ndarray,
        peak_qpm: np.ndarray,
        speed_factors: list[float],
    ) -> AllocationPlan:
        speeds = sorted(speed_factors, reverse=True)
        num_workers = len(speeds)
        num_levels = len(quality)
        # prefix[i] = total speed of the i fastest workers, so the chunk of
        # workers assigned to a level contributes prefix[end] - prefix[start].
        prefix = [0.0]
        for speed in speeds:
            prefix.append(prefix[-1] + speed)

        def level_capacities(counts: list[int]) -> list[float]:
            capacities = []
            start = 0
            for level in range(num_levels):
                end = start + counts[level]
                capacities.append(peak_qpm[level] * (prefix[end] - prefix[start]))
                start = end
            return capacities

        if self._num_compositions(num_workers, num_levels) <= self.enumerate_limit:
            compositions = _compositions_matrix(num_workers, num_levels)
            prefix_arr = np.asarray(prefix, dtype=np.float64)
            cum = np.cumsum(compositions, axis=1)
            start = cum - compositions
            cap_matrix = np.asarray(peak_qpm) * (prefix_arr[cum] - prefix_arr[start])
            best_row = self._best_composition_vectorized(target_qpm, quality, cap_matrix)
            counts = [int(c) for c in compositions[best_row]]
        else:
            # Large fleets: run the greedy upgrade heuristic in mean-speed
            # units, then price the resulting counts with the true per-worker
            # speeds.
            mean_speed = sum(speeds) / num_workers
            counts = self._best_counts_greedy(
                target_qpm, quality, peak_qpm * mean_speed, num_workers
            )
        qpm_per_level, feasible = self._fill_capacity(
            target_qpm, quality, level_capacities(counts)
        )
        return AllocationPlan(
            workers_per_level=tuple(int(c) for c in counts),
            qpm_per_level=tuple(float(q) for q in qpm_per_level),
            feasible=feasible,
            target_qpm=float(target_qpm),
            expected_quality=self._expected_quality(quality, qpm_per_level),
        )

    # ------------------------------------------------------------------ #
    # ILP formulation (Eq. 1 verbatim)
    # ------------------------------------------------------------------ #
    def solve_ilp(
        self,
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
        """
        quality = np.asarray(quality, dtype=np.float64)
        peak_qpm = np.asarray(peak_qpm, dtype=np.float64)
        self._validate(target_qpm, quality, peak_qpm, num_workers)
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
                    **{
                        f"x_{level}_{worker}": -float(peak_qpm[level])
                        for level in range(num_levels)
                    },
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
            # Extremely rare; fall back to the specialised solver.
            return self.solve(target_qpm, quality, peak_qpm, num_workers)

        counts = [0] * num_levels
        qpm_per_level = [0.0] * num_levels
        for worker in range(num_workers):
            for level in range(num_levels):
                if solution.value(f"x_{level}_{worker}") > 0.5:
                    counts[level] += 1
                    qpm_per_level[level] += solution.value(f"y_{level}_{worker}")
                    break
        expected_quality = self._expected_quality(quality, qpm_per_level)
        return AllocationPlan(
            workers_per_level=tuple(counts),
            qpm_per_level=tuple(qpm_per_level),
            feasible=feasible,
            target_qpm=float(target_qpm),
            expected_quality=expected_quality,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate(
        target_qpm: float, quality: np.ndarray, peak_qpm: np.ndarray, num_workers: int
    ) -> None:
        if target_qpm < 0:
            raise ValueError("target_qpm must be non-negative")
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if quality.shape != peak_qpm.shape or quality.ndim != 1 or len(quality) == 0:
            raise ValueError("quality and peak_qpm must be 1-D arrays of equal length")
        if np.any(peak_qpm <= 0):
            raise ValueError("peak throughputs must be positive")

    @staticmethod
    def _num_compositions(num_workers: int, num_levels: int) -> int:
        from math import comb

        return comb(num_workers + num_levels - 1, num_levels - 1)

    def _best_counts_enumerated(
        self,
        target_qpm: float,
        quality: np.ndarray,
        peak_qpm: np.ndarray,
        num_workers: int,
    ) -> list[int]:
        compositions = _compositions_matrix(num_workers, len(quality))
        cap_matrix = compositions * np.asarray(peak_qpm, dtype=np.float64)
        best_row = self._best_composition_vectorized(target_qpm, quality, cap_matrix)
        return [int(c) for c in compositions[best_row]]

    @staticmethod
    def _best_composition_vectorized(
        target_qpm: float, quality: np.ndarray, cap_matrix: np.ndarray
    ) -> int:
        """Row of ``cap_matrix`` with the best (served, quality) key.

        Vectorized form of the exhaustive composition search: the greedy
        best-quality-first fill runs once per *level* over all compositions
        at once instead of once per composition.  Arithmetic is ordered to
        match the scalar ``_fill_capacity`` / ``_expected_quality`` pass
        exactly (sequential level accumulation, identical guard epsilons),
        and ties keep the first composition, so the selected row is the one
        the scalar loop would pick.
        """
        num_comps, num_levels = cap_matrix.shape
        total = np.zeros(num_comps)
        for level in range(num_levels):
            total = total + cap_matrix[:, level]
        feasible = total + 1e-9 >= target_qpm
        remaining = np.minimum(target_qpm, total)
        served = np.zeros(num_comps)
        quality_acc = np.zeros(num_comps)
        fill_order = sorted(range(num_levels), key=lambda l: -quality[l])
        takes = np.zeros((num_comps, num_levels))
        for position, level in enumerate(fill_order):
            take = np.minimum(remaining, cap_matrix[:, level])
            if position:
                # The scalar loop stops filling once remaining <= 1e-12.
                take = np.where(remaining > 1e-12, take, 0.0)
            takes[:, level] = take
            remaining = remaining - take
        for level in range(num_levels):
            served = served + takes[:, level]
        safe_served = np.where(served > 0, served, 1.0)
        for level in range(num_levels):
            quality_acc = quality_acc + quality[level] * (takes[:, level] / safe_served)
        quality_acc = np.where(served > 0, quality_acc, 0.0)
        # Prefer plans that serve the target; among those, highest quality;
        # exact ties keep the lowest row (== first enumeration order).  The
        # served accumulation above is bit-identical to the scalar pass, but
        # the quality accumulation order is not, so near-ties are re-scored
        # with the exact scalar formula before deciding.
        primary = np.where(feasible, target_qpm, served)
        best_primary = primary.max()
        candidates = primary == best_primary
        best_quality = quality_acc[candidates].max()
        scale = max(abs(float(best_quality)), 1.0)
        near = candidates & (quality_acc >= best_quality - 1e-9 * scale)
        rows = np.flatnonzero(near)
        if len(rows) == 1:
            return int(rows[0])
        best_row = int(rows[0])
        best_exact: float | None = None
        for row in rows:
            exact = AllocationSolver._expected_quality(quality, list(takes[row]))
            if best_exact is None or exact > best_exact:
                best_exact = exact
                best_row = int(row)
        return best_row

    def _best_counts_greedy(
        self,
        target_qpm: float,
        quality: np.ndarray,
        peak_qpm: np.ndarray,
        num_workers: int,
    ) -> list[int]:
        """Greedy for large clusters: start slow, upgrade until feasible.

        Capacity is maintained incrementally — each upgrade moves one worker
        between two levels, so the fleet capacity changes by exactly the
        peak-throughput delta.  O(1) per upgrade instead of the O(levels)
        full recomputation per iteration.
        """
        num_levels = len(quality)
        counts = [0] * num_levels
        counts[0] = num_workers
        levels_by_speed = np.argsort(peak_qpm)  # slowest first
        # Next strictly faster level for each level (lowest peak among the
        # faster ones, first index on ties); None at the fastest levels.
        next_faster: list[int | None] = []
        for level in range(num_levels):
            faster = [l for l in range(num_levels) if peak_qpm[l] > peak_qpm[level]]
            next_faster.append(min(faster, key=lambda l: peak_qpm[l]) if faster else None)

        capacity = float(num_workers * peak_qpm[0])
        while capacity < target_qpm:
            upgraded = False
            # Upgrade one worker from the slowest occupied level to the next
            # faster level (smallest quality sacrifice per capacity gained).
            for level in levels_by_speed:
                if counts[level] > 0:
                    next_level = next_faster[level]
                    if next_level is None:
                        continue
                    counts[level] -= 1
                    counts[next_level] += 1
                    capacity += float(peak_qpm[next_level] - peak_qpm[level])
                    upgraded = True
                    break
            if not upgraded:
                break
        return counts

    @staticmethod
    def _fill_load(
        target_qpm: float,
        quality: np.ndarray,
        peak_qpm: np.ndarray,
        counts: list[int],
    ) -> tuple[list[float], bool]:
        """Distribute the target load across levels, best quality first."""
        num_levels = len(quality)
        capacity = [counts[l] * peak_qpm[l] for l in range(num_levels)]
        return AllocationSolver._fill_capacity(target_qpm, quality, capacity)

    @staticmethod
    def _fill_capacity(
        target_qpm: float,
        quality: np.ndarray,
        capacity: list[float],
    ) -> tuple[list[float], bool]:
        """Distribute the target load across per-level capacities, best
        quality first (the heterogeneity-aware core of ``_fill_load``)."""
        num_levels = len(quality)
        total_capacity = sum(capacity)
        feasible = total_capacity + 1e-9 >= target_qpm
        remaining = min(target_qpm, total_capacity)
        qpm_per_level = [0.0] * num_levels
        for level in sorted(range(num_levels), key=lambda l: -quality[l]):
            take = min(remaining, capacity[level])
            qpm_per_level[level] = take
            remaining -= take
            if remaining <= 1e-12:
                break
        return qpm_per_level, feasible

    @staticmethod
    def _expected_quality(quality: np.ndarray, qpm_per_level: list[float]) -> float:
        total = sum(qpm_per_level)
        if total <= 0:
            return 0.0
        shares = np.asarray(qpm_per_level) / total
        return float(np.dot(np.asarray(quality), shares))
