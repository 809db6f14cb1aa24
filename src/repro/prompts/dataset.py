"""Prompt dataset wrapper mimicking the DiffusionDB slice used in the paper.

The paper uses 10k DiffusionDB prompts in their original arrival order; this
class wraps a generated prompt list and provides the ordered-iteration,
splitting and sampling operations the rest of the system needs.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.prompts.generator import Prompt, PromptGenerator


class PromptDataset:
    """An ordered collection of prompts."""

    def __init__(self, prompts: Sequence[Prompt]) -> None:
        self._prompts = list(prompts)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def synthetic(
        cls,
        count: int = 10_000,
        seed: int = 0,
        num_topics: int = 24,
        complexity_bias: float = 0.0,
        tenant: str = "",
    ) -> "PromptDataset":
        """Generate a synthetic DiffusionDB-like dataset whose prompts are
        tagged with ``tenant``."""
        generator = PromptGenerator(
            seed=seed, num_topics=num_topics, complexity_bias=complexity_bias, tenant=tenant
        )
        return cls(generator.generate(count))

    # ------------------------------------------------------------------ #
    # Collection protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._prompts)

    def __getitem__(self, index: int) -> Prompt:
        return self._prompts[index]

    def __iter__(self) -> Iterator[Prompt]:
        return iter(self._prompts)

    @property
    def prompts(self) -> list[Prompt]:
        """The underlying prompt list (arrival order preserved)."""
        return list(self._prompts)

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def split(self, train_fraction: float = 0.8) -> tuple["PromptDataset", "PromptDataset"]:
        """Split into (train, test) preserving arrival order."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        cut = int(round(len(self._prompts) * train_fraction))
        return PromptDataset(self._prompts[:cut]), PromptDataset(self._prompts[cut:])

    def sample(self, count: int, seed: int = 0) -> "PromptDataset":
        """Uniform sample without replacement (order preserved)."""
        if count > len(self._prompts):
            raise ValueError(f"cannot sample {count} from {len(self._prompts)} prompts")
        rng = np.random.default_rng(seed)
        indices = sorted(rng.choice(len(self._prompts), size=count, replace=False))
        return PromptDataset([self._prompts[i] for i in indices])

    def window(self, start: int, size: int) -> "PromptDataset":
        """Contiguous slice of ``size`` prompts starting at ``start``."""
        if start < 0 or size < 0:
            raise ValueError("start and size must be non-negative")
        return PromptDataset(self._prompts[start : start + size])

    def cycle(self, count: int) -> Iterator[Prompt]:
        """Yield ``count`` prompts, wrapping around when exhausted."""
        if not self._prompts:
            raise ValueError("cannot cycle an empty dataset")
        for i in range(count):
            yield self._prompts[i % len(self._prompts)]

    def complexity_summary(self) -> dict[str, float]:
        """Summary statistics of the latent complexity distribution."""
        values = np.array([p.complexity for p in self._prompts]) if self._prompts else np.array([0.0])
        return {
            "mean": float(values.mean()),
            "std": float(values.std()),
            "p10": float(np.percentile(values, 10)),
            "p50": float(np.percentile(values, 50)),
            "p90": float(np.percentile(values, 90)),
        }
