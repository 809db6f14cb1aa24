"""Batching throughput model (Fig. 14, Observation 5).

Traditional discriminative models (YOLO, ResNet, EfficientNet) and the
memory-bound decode phase of LLMs gain near-linear throughput from batching.
Diffusion models are compute-bound, so their speed-up plateaus at small batch
sizes.  This module models both families so the Fig. 14 benchmark can
regenerate the comparison.  The plateau is why the serving path runs one
request per GPU pass: nothing in the simulator batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BatchingProfile:
    """Parameters of the saturating speed-up curve for one model."""

    name: str
    #: Maximum achievable throughput speed-up relative to batch size 1.
    max_speedup: float
    #: Batch size at which half of the maximum speed-up is reached.
    half_saturation_batch: float
    is_diffusion: bool = False


#: Profiles calibrated to Fig. 14: non-DM models keep scaling to batch 16+,
#: diffusion models plateau around batch 2-4.
BATCHING_PROFILES: tuple[BatchingProfile, ...] = (
    BatchingProfile("YOLOv5n", max_speedup=12.0, half_saturation_batch=6.0),
    BatchingProfile("ResNet50", max_speedup=10.0, half_saturation_batch=5.0),
    BatchingProfile("EfficientNet-b4", max_speedup=8.0, half_saturation_batch=5.0),
    BatchingProfile("GPT-8B", max_speedup=6.0, half_saturation_batch=4.0),
    BatchingProfile("Tiny-SD", max_speedup=1.9, half_saturation_batch=2.0, is_diffusion=True),
    BatchingProfile("Small-SD", max_speedup=1.6, half_saturation_batch=2.0, is_diffusion=True),
    BatchingProfile("SD-2.0", max_speedup=1.4, half_saturation_batch=1.8, is_diffusion=True),
    BatchingProfile("SD-XL", max_speedup=1.25, half_saturation_batch=1.5, is_diffusion=True),
)


def batching_speedup_curve(profile: BatchingProfile, batch_sizes: list[int]) -> list[float]:
    """Throughput speed-up at each batch size for ``profile``.

    Uses a Michaelis-Menten style saturating curve anchored at speed-up 1 for
    batch size 1.
    """
    speedups = []
    for batch in batch_sizes:
        if batch < 1:
            raise ValueError("batch size must be >= 1")
        raw = 1.0 + (profile.max_speedup - 1.0) * (batch - 1) / (
            batch - 1 + profile.half_saturation_batch
        )
        speedups.append(min(raw, float(batch)))
    return speedups


class BatchingModel:
    """Convenience wrapper exposing speed-up and latency-per-batch queries."""

    def __init__(self, profiles: tuple[BatchingProfile, ...] = BATCHING_PROFILES) -> None:
        self._profiles = {p.name: p for p in profiles}

    @property
    def model_names(self) -> list[str]:
        """All models with a batching profile."""
        return list(self._profiles)

    def profile(self, name: str) -> BatchingProfile:
        """Profile for ``name``; raises KeyError for unknown models."""
        if name not in self._profiles:
            raise KeyError(f"no batching profile for {name!r}")
        return self._profiles[name]

    def speedup(self, name: str, batch_size: int) -> float:
        """Throughput speed-up of ``name`` at ``batch_size``."""
        return batching_speedup_curve(self.profile(name), [batch_size])[0]

    def latency_multiplier(self, name: str, batch_size: int) -> float:
        """How much one batch costs relative to a single request."""
        return batch_size / self.speedup(name, batch_size)

    def effective_batch_limit(self, name: str, latency_budget_factor: float = 2.0) -> int:
        """Largest batch whose latency stays within ``latency_budget_factor``×
        the single-request latency."""
        for batch in range(1, 65):
            if self.latency_multiplier(name, batch) > latency_budget_factor:
                return max(1, batch - 1)
        return 64

    def table(self, batch_sizes: list[int]) -> dict[str, list[float]]:
        """Speed-up curve of every profiled model (rows of Fig. 14)."""
        return {
            name: batching_speedup_curve(profile, batch_sizes)
            for name, profile in self._profiles.items()
        }

    def diffusion_vs_traditional_gap(self, batch_size: int = 8) -> float:
        """Mean speed-up gap between non-DM and DM models at ``batch_size``."""
        dm = [self.speedup(p.name, batch_size) for p in self._profiles.values() if p.is_diffusion]
        non_dm = [
            self.speedup(p.name, batch_size)
            for p in self._profiles.values()
            if not p.is_diffusion
        ]
        return float(np.mean(non_dm) - np.mean(dm))
