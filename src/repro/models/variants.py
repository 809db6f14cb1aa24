"""Registry of model variants and approximate-caching levels.

The paper's SM strategy uses six variants ordered from slowest / highest
quality (SD-XL) to fastest / lowest quality (Tiny-SD); the AC strategy keeps
SD-XL loaded and skips the first ``K`` of 50 denoising steps,
K ∈ {0, 5, 10, 15, 20, 25}.  Latencies and sizes come from Table 2 and §5.1
of the paper (A100, FP16).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Total denoising steps for the base SD-XL model (§5.1).
TOTAL_DIFFUSION_STEPS = 50


@dataclass(frozen=True)
class ModelVariant:
    """A distilled / smaller diffusion-model variant (SM strategy)."""

    name: str
    #: Position in the approximation order: 0 = least approximate (SD-XL).
    approximation_rank: int
    parameters_billion: float
    size_gib: float
    #: Inference latency for one 768x768 image on an A100 (seconds, Table 2).
    latency_a100_s: float
    #: Wall-clock time to load the model onto a GPU (seconds, Table 2
    #: "Accelerate" column, which the deployment uses).
    load_time_s: float
    denoising_steps: int = TOTAL_DIFFUSION_STEPS

    @property
    def peak_throughput_qpm(self) -> float:
        """Images per minute a single dedicated worker can sustain."""
        return 60.0 / self.latency_a100_s

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class AcLevel:
    """An approximate-caching level: skip the first ``skip_steps`` steps."""

    name: str
    #: Position in the approximation order: 0 = K=0 (no approximation).
    approximation_rank: int
    skip_steps: int
    #: End-to-end latency on an A100 including retrieval at nominal network
    #: conditions (seconds); K=0 matches the SD-XL base latency of 4.2 s and
    #: higher K values follow Fig. 6 ((N-K)/N scaling plus fixed overhead).
    latency_a100_s: float
    #: Size of the cached intermediate noise state fetched per request (KiB).
    state_size_kib: float = 144.0

    @property
    def kept_steps(self) -> int:
        """Number of denoising steps actually executed."""
        return TOTAL_DIFFUSION_STEPS - self.skip_steps

    def __str__(self) -> str:
        return self.name


def _ac_latency(skip_steps: int, base_latency: float = 4.2, overhead: float = 0.12) -> float:
    """Latency of SD-XL with the first ``skip_steps`` steps skipped."""
    fraction = (TOTAL_DIFFUSION_STEPS - skip_steps) / TOTAL_DIFFUSION_STEPS
    if skip_steps == 0:
        return base_latency
    return round(base_latency * fraction + overhead, 3)


#: SM variants, ordered from least approximate to most approximate.
SM_VARIANTS: tuple[ModelVariant, ...] = (
    ModelVariant("SD-XL", 0, parameters_billion=2.74, size_gib=5.14,
                 latency_a100_s=4.20, load_time_s=9.42),
    ModelVariant("SD-2.0", 1, parameters_billion=1.26, size_gib=3.44,
                 latency_a100_s=3.84, load_time_s=5.56),
    ModelVariant("SD-1.5", 2, parameters_billion=1.07, size_gib=3.44,
                 latency_a100_s=3.60, load_time_s=5.56),
    ModelVariant("SD-1.4", 3, parameters_billion=1.07, size_gib=3.40,
                 latency_a100_s=3.45, load_time_s=5.40),
    ModelVariant("Small-SD", 4, parameters_billion=0.75, size_gib=2.32,
                 latency_a100_s=2.75, load_time_s=4.86),
    ModelVariant("Tiny-SD", 5, parameters_billion=0.50, size_gib=0.63,
                 latency_a100_s=2.18, load_time_s=2.91),
)

#: AC levels, ordered from least approximate (K=0) to most approximate (K=25).
AC_LEVELS: tuple[AcLevel, ...] = tuple(
    AcLevel(
        name=f"K={skip}",
        approximation_rank=rank,
        skip_steps=skip,
        latency_a100_s=_ac_latency(skip),
    )
    for rank, skip in enumerate((0, 5, 10, 15, 20, 25))
)


_VARIANTS_BY_NAME = {variant.name.lower(): variant for variant in SM_VARIANTS}
_AC_BY_SKIP = {level.skip_steps: level for level in AC_LEVELS}


def variant_by_name(name: str) -> ModelVariant:
    """Look up an SM variant by name (case-insensitive)."""
    key = name.lower()
    if key not in _VARIANTS_BY_NAME:
        raise KeyError(f"unknown model variant {name!r}; known: {[v.name for v in SM_VARIANTS]}")
    return _VARIANTS_BY_NAME[key]


def ac_level_by_skip(skip_steps: int) -> AcLevel:
    """Look up an AC level by the number of skipped steps."""
    if skip_steps not in _AC_BY_SKIP:
        raise KeyError(
            f"unknown AC skip level {skip_steps}; known: {sorted(_AC_BY_SKIP)}"
        )
    return _AC_BY_SKIP[skip_steps]
