"""Latency model for diffusion-model inference.

Latency is decomposed the way the paper measures it: a per-step UNet cost
that dominates, plus fixed text-encoder and VAE-decoder costs.  The model is
calibrated so that full 50-step generation on an A100 matches Table 2 /
Fig. 5 and scales across GPUs with the relative-speed factors in
:mod:`repro.models.gpus`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.gpus import GPU_SPECS, GpuSpec, gpu_by_name
from repro.models.variants import (
    TOTAL_DIFFUSION_STEPS,
    AcLevel,
    ModelVariant,
)

#: Fraction of total generation time spent in the iterative UNet (paper: >90%).
_UNET_TIME_FRACTION = 0.92


@dataclass(frozen=True)
class LatencyBreakdown:
    """Decomposed latency of a single image generation, in seconds."""

    text_encoder_s: float
    unet_s: float
    vae_decoder_s: float
    retrieval_s: float = 0.0

    @property
    def total_s(self) -> float:
        """End-to-end latency in seconds."""
        return self.text_encoder_s + self.unet_s + self.vae_decoder_s + self.retrieval_s


class LatencyModel:
    """Predicts single-image inference latency for variants and AC levels."""

    def __init__(self, gpu: str | GpuSpec = "A100") -> None:
        self.gpu = gpu if isinstance(gpu, GpuSpec) else gpu_by_name(gpu)

    # ------------------------------------------------------------------ #
    # SM variants
    # ------------------------------------------------------------------ #
    def variant_latency(self, variant: ModelVariant) -> float:
        """Latency (seconds) of one image."""
        return variant.latency_a100_s / self.gpu.relative_speed

    def variant_breakdown(self, variant: ModelVariant) -> LatencyBreakdown:
        """Split the single-image latency into component contributions."""
        total = self.variant_latency(variant)
        unet = total * _UNET_TIME_FRACTION
        rest = total - unet
        return LatencyBreakdown(
            text_encoder_s=rest * 0.3,
            unet_s=unet,
            vae_decoder_s=rest * 0.7,
        )

    # ------------------------------------------------------------------ #
    # AC levels
    # ------------------------------------------------------------------ #
    def ac_latency(
        self,
        level: AcLevel,
        base_variant: ModelVariant,
        retrieval_latency_s: float = 0.0,
    ) -> float:
        """Latency for SD-XL resumed from step ``level.skip_steps``.

        ``retrieval_latency_s`` is the observed cache-retrieval time for this
        request (zero for K=0, which never touches the cache).
        """
        full = self.variant_latency(base_variant)
        unet_full = full * _UNET_TIME_FRACTION
        fixed = full - unet_full
        unet = unet_full * level.kept_steps / TOTAL_DIFFUSION_STEPS
        retrieval = retrieval_latency_s if level.skip_steps > 0 else 0.0
        return fixed + unet + retrieval

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def latency_matrix(self, variants: list[ModelVariant]) -> dict[str, dict[str, float]]:
        """Latency of each variant on every known GPU (Fig. 5)."""
        matrix: dict[str, dict[str, float]] = {}
        for gpu_name, spec in GPU_SPECS.items():
            model = LatencyModel(spec)
            matrix[gpu_name] = {v.name: model.variant_latency(v) for v in variants}
        return matrix
