"""The model zoo: a unified view over SM variants and AC levels.

Argus's scheduler, solver and ODA all reason about *approximation levels*
regardless of whether the active strategy is approximate caching (levels are
K values on the same SD-XL model) or smaller models (levels are distinct
model variants).  :class:`ApproximationLevel` is that common abstraction and
:class:`ModelZoo` builds the ordered level lists for both strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.models.batching import BatchingProfile, batching_speedup_curve
from repro.models.latency import LatencyModel
from repro.models.variants import AC_LEVELS, SM_VARIANTS, AcLevel, ModelVariant


class Strategy(str, Enum):
    """The two approximation strategies Argus switches between."""

    AC = "AC"
    SM = "SM"


@dataclass(frozen=True)
class ApproximationLevel:
    """One point on the quality-latency spectrum of the active strategy.

    Levels are ordered by ``rank``: rank 0 is the least approximate
    (slowest, highest quality); higher ranks are faster and lower quality.
    """

    strategy: Strategy
    name: str
    rank: int
    #: Nominal single-image latency on the cluster's GPU (seconds), excluding
    #: any per-request cache-retrieval overhead.
    latency_s: float
    #: Time to make the level available on a worker (model load for SM; zero
    #: for AC levels beyond the initial SD-XL load).
    switch_cost_s: float
    #: For AC levels: number of denoising steps skipped.  None for SM.
    skip_steps: int | None = None
    #: For SM levels: the underlying model variant name.  None for AC.
    variant_name: str | None = None
    #: GPU memory footprint in GiB of the model that must be resident.
    memory_gib: float = 0.0

    @property
    def model_name(self) -> str:
        """Name of the concrete model that serves this level.

        The single mapping used both for GPU-memory residency and for the
        Fig. 14 batching-profile lookup.
        """
        return self.variant_name or self.name

    @property
    def peak_throughput_qpm(self) -> float:
        """Queries per minute a dedicated worker sustains at this level."""
        return 60.0 / self.latency_s

    @property
    def is_exact(self) -> bool:
        """True for the least-approximate level (rank 0)."""
        return self.rank == 0

    def __str__(self) -> str:
        return f"{self.strategy.value}:{self.name}"


class ModelZoo:
    """Builds and indexes approximation levels for a given GPU."""

    def __init__(self, gpu: str = "A100") -> None:
        self.gpu = gpu
        self.latency_model = LatencyModel(gpu)
        self.batching = self.latency_model.batching
        self._levels: dict[Strategy, tuple[ApproximationLevel, ...]] = {
            Strategy.SM: self._build_sm_levels(),
            Strategy.AC: self._build_ac_levels(),
        }

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build_sm_levels(self) -> tuple[ApproximationLevel, ...]:
        levels = []
        for variant in SM_VARIANTS:
            levels.append(
                ApproximationLevel(
                    strategy=Strategy.SM,
                    name=variant.name,
                    rank=variant.approximation_rank,
                    latency_s=self.latency_model.variant_latency(variant),
                    switch_cost_s=variant.load_time_s,
                    variant_name=variant.name,
                    memory_gib=variant.size_gib,
                )
            )
        return tuple(sorted(levels, key=lambda l: l.rank))

    def _build_ac_levels(self) -> tuple[ApproximationLevel, ...]:
        base = SM_VARIANTS[0]  # SD-XL is the AC base model.
        levels = []
        for level in AC_LEVELS:
            levels.append(
                ApproximationLevel(
                    strategy=Strategy.AC,
                    name=level.name,
                    rank=level.approximation_rank,
                    latency_s=self.latency_model.ac_latency(level, base),
                    switch_cost_s=0.0,
                    skip_steps=level.skip_steps,
                    variant_name=base.name,
                    memory_gib=base.size_gib,
                )
            )
        return tuple(sorted(levels, key=lambda l: l.rank))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def levels(self, strategy: Strategy | str) -> tuple[ApproximationLevel, ...]:
        """Ordered approximation levels for ``strategy`` (rank 0 first)."""
        return self._levels[Strategy(strategy)]

    def level(self, strategy: Strategy | str, rank: int) -> ApproximationLevel:
        """Level of the given rank, raising IndexError when out of range."""
        levels = self.levels(strategy)
        if rank < 0 or rank >= len(levels):
            raise IndexError(f"rank {rank} out of range for {strategy} (0..{len(levels) - 1})")
        return levels[rank]

    def level_by_name(self, strategy: Strategy | str, name: str) -> ApproximationLevel:
        """Level with the given display name (case-insensitive)."""
        for level in self.levels(strategy):
            if level.name.lower() == name.lower():
                return level
        raise KeyError(f"no level named {name!r} in strategy {strategy}")

    def num_levels(self, strategy: Strategy | str) -> int:
        """Number of approximation levels available for ``strategy``."""
        return len(self.levels(strategy))

    def fastest_level(self, strategy: Strategy | str) -> ApproximationLevel:
        """The most approximate (fastest) level."""
        return self.levels(strategy)[-1]

    def exact_level(self, strategy: Strategy | str) -> ApproximationLevel:
        """The least approximate (rank-0) level."""
        return self.levels(strategy)[0]

    def sm_variant(self, name: str) -> ModelVariant:
        """Underlying SM variant object by name."""
        for variant in SM_VARIANTS:
            if variant.name.lower() == name.lower():
                return variant
        raise KeyError(f"unknown SM variant {name!r}")

    def ac_level_spec(self, skip_steps: int) -> AcLevel:
        """Underlying AC level spec by skip count."""
        for level in AC_LEVELS:
            if level.skip_steps == skip_steps:
                return level
        raise KeyError(f"unknown AC skip level {skip_steps}")

    def max_cluster_throughput_qpm(
        self, strategy: Strategy | str, num_workers: float, batch_size: int = 1
    ) -> float:
        """Upper bound on cluster QPM with every worker at the fastest level,
        optionally running full ``batch_size`` batches.

        ``num_workers`` counts reference-GPU workers; a heterogeneous fleet
        passes its summed relative speed instead.
        """
        return self.batched_peak_qpm(self.fastest_level(strategy), batch_size) * num_workers

    # ------------------------------------------------------------------ #
    # Batched execution
    # ------------------------------------------------------------------ #
    def batching_profile(self, level: ApproximationLevel) -> BatchingProfile:
        """Fig. 14 batching profile of the model backing ``level``.

        AC levels run on the SD-XL base, so every K shares its profile; SM
        levels use their own variant's profile (generic-DM fallback for
        variants without a calibrated row).
        """
        return self.batching.profile_or_default(level.model_name)

    def level_speedup(self, level: ApproximationLevel, batch_size: int) -> float:
        """Throughput speed-up of ``level`` when served at ``batch_size``."""
        return batching_speedup_curve(self.batching_profile(level), [batch_size])[0]

    def batched_service_time(self, level: ApproximationLevel, batch_size: int) -> float:
        """Wall-clock seconds one worker spends on a batch at ``level``.

        Delegates to :meth:`BatchingModel.batched_service_time`, the single
        anchoring of the Fig. 14 cost formula on the serving path.
        """
        return self.batching.batched_service_time(
            level.model_name, level.latency_s, batch_size
        )

    def batch_latency_multiplier(self, level: ApproximationLevel, batch_size: int) -> float:
        """Cost of one ``batch_size`` pass relative to a single request."""
        return self.batching.batched_service_time(level.model_name, 1.0, batch_size)

    def batched_peak_qpm(self, level: ApproximationLevel, batch_size: int) -> float:
        """Sustained QPM of a worker running full ``batch_size`` batches."""
        return level.peak_throughput_qpm * self.level_speedup(level, batch_size)
