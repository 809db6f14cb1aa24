"""Optimal-quality and optimal-model definitions (§3 of the paper).

An image is *optimal quality* when its PickScore is within ``θ = 0.9`` of the
best score achievable for the prompt across all levels; the *optimal model*
(or level) for a prompt is the fastest level that still yields an optimal
quality image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.zoo import Strategy
from repro.prompts.generator import Prompt
from repro.quality.pickscore import PickScoreModel

#: θ from the paper: optimal quality means PickScore >= θ * best PickScore.
OPTIMALITY_THRESHOLD = 0.9


@dataclass(frozen=True)
class OptimalChoice:
    """The optimal level for a prompt, with supporting scores."""

    prompt_id: int
    strategy: Strategy
    optimal_rank: int
    scores: tuple[float, ...]

    @property
    def best_score(self) -> float:
        """Best PickScore across all levels."""
        return max(self.scores)


class OptimalModelSelector:
    """Finds the optimal (fastest acceptable) level for prompts."""

    def __init__(
        self,
        pickscore: PickScoreModel,
        threshold: float = OPTIMALITY_THRESHOLD,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.pickscore = pickscore
        self.threshold = float(threshold)

    def optimal_choice(self, prompt: Prompt, strategy: Strategy | str) -> OptimalChoice:
        """Compute the optimal level with full score detail."""
        strategy = Strategy(strategy)
        scores = self.pickscore.score_all_levels(prompt, strategy)
        return OptimalChoice(
            prompt_id=prompt.prompt_id,
            strategy=strategy,
            optimal_rank=self._fastest_optimal(scores),
            scores=tuple(scores),
        )

    def _fastest_optimal(self, scores: list[float]) -> int:
        """The highest rank whose score clears the threshold (0 if none)."""
        cutoff = self.threshold * max(scores)
        for rank in range(len(scores) - 1, -1, -1):
            if scores[rank] >= cutoff:
                return rank
        return 0

    def optimal_rank(self, prompt: Prompt, strategy: Strategy | str) -> int:
        """The fastest rank that still produces an optimal-quality image."""
        return self.optimal_choice(prompt, strategy).optimal_rank

    def optimal_ranks(self, prompts: list[Prompt], strategy: Strategy | str) -> list[int]:
        """Optimal ranks for a list of prompts, scored together
        (:meth:`PickScoreModel.score_levels`)."""
        levels = self.pickscore.score_levels(prompts, strategy)
        return [self._fastest_optimal(scores) for scores in levels]

    def affinity_distribution(
        self, prompts: list[Prompt], strategy: Strategy | str
    ) -> np.ndarray:
        """Fraction of prompts whose optimal level is each rank (Fig. 8).

        Index ``r`` of the returned array is the fraction of prompts for
        which rank ``r`` is the optimal level.
        """
        num_levels = self.pickscore.num_levels
        counts = np.zeros(num_levels, dtype=np.float64)
        for prompt in prompts:
            counts[self.optimal_rank(prompt, strategy)] += 1
        if counts.sum() == 0:
            return counts
        return counts / counts.sum()

    def affinity_distribution_excluding(
        self,
        prompts: list[Prompt],
        strategy: Strategy | str,
        excluded_ranks: set[int],
    ) -> np.ndarray:
        """Affinity distribution when some ranks are unavailable.

        Reproduces the middle/right panels of Fig. 8 where M1 (and M1+M2)
        are eliminated: each prompt is re-assigned to the fastest remaining
        rank that still clears the optimality threshold, or the best
        remaining rank when none does.
        """
        strategy = Strategy(strategy)
        num_levels = self.pickscore.num_levels
        available = [r for r in range(num_levels) if r not in excluded_ranks]
        if not available:
            raise ValueError("cannot exclude every rank")
        counts = np.zeros(num_levels, dtype=np.float64)
        for prompt in prompts:
            scores = self.pickscore.score_all_levels(prompt, strategy)
            cutoff = self.threshold * max(scores)
            chosen = None
            for rank in sorted(available, reverse=True):
                if scores[rank] >= cutoff:
                    chosen = rank
                    break
            if chosen is None:
                chosen = max(available, key=lambda r: scores[r])
            counts[chosen] += 1
        return counts / counts.sum() if counts.sum() else counts
