"""PickScore simulator.

``PickScoreModel.score(prompt, strategy, rank)`` returns the PickScore of the
image that the given approximation level would produce for the prompt.  The
model encodes the paper's Observations 1-3:

* every prompt has a latent tolerance rank: all levels up to that rank produce
  images within the optimal-quality band (>= 0.9x the best score);
* beyond the tolerance, quality degrades super-linearly with the rank gap;
* the tolerance is a (noisy) function of prompt complexity, so a classifier
  can learn it from prompt text.

Scores are deterministic per (prompt text, strategy, rank) so repeated
simulation runs agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.zoo import Strategy
from repro.prompts.generator import Prompt
from repro.prompts.memo import PromptMemo
from repro.simulation.randomness import stable_hash

#: Typical PickScore of a best-possible SD-XL generation (paper reports ~21).
_BASE_SCORE_MEAN = 21.5
_BASE_SCORE_STD = 0.9

#: Per-rank-gap degradation, super-linear exponent (Observation in §4.3 that
#: degradation grows super-linearly with the speed gap).
_DEGRADATION_PER_GAP = 0.055
_DEGRADATION_EXPONENT = 1.3

#: Fraction of the best score retained when exactly at the tolerance edge.
_TOLERABLE_FLOOR = 0.955


@dataclass(frozen=True)
class QualitySample:
    """The quality outcome of generating a prompt at one level."""

    prompt_id: int
    strategy: Strategy
    rank: int
    pickscore: float
    best_pickscore: float

    @property
    def relative_quality(self) -> float:
        """PickScore relative to the best achievable for this prompt."""
        if self.best_pickscore <= 0:
            return 0.0
        return self.pickscore / self.best_pickscore


class PickScoreModel:
    """Deterministic per-prompt quality model over approximation levels."""

    def __init__(
        self,
        num_levels: int = 6,
        seed: int = 0,
        tolerance_noise: float = 0.35,
    ) -> None:
        """Args:
            num_levels: number of approximation levels per strategy.
            seed: global seed mixed into every per-prompt hash.
            tolerance_noise: standard deviation (in rank units) of the noise
                added to the complexity-derived tolerance; this is what keeps
                the classifier's achievable accuracy below 100%.
        """
        self.num_levels = int(num_levels)
        self.seed = int(seed)
        self.tolerance_noise = float(tolerance_noise)
        # Scores are deterministic per (prompt text, strategy, rank); memoise
        # them because the serving loop re-evaluates the same prompts often.
        self._best_cache = PromptMemo()
        self._tolerance_cache = PromptMemo()
        self._score_cache = PromptMemo()

    # ------------------------------------------------------------------ #
    # Per-prompt latent quantities
    # ------------------------------------------------------------------ #
    def _prompt_rng(self, prompt: Prompt, salt: str) -> np.random.Generator:
        key = stable_hash(f"{self.seed}:{salt}:{prompt.text}") % (1 << 32)
        return np.random.default_rng(key)

    def best_score(self, prompt: Prompt) -> float:
        """PickScore of the best (least approximate) generation for a prompt."""
        key = prompt.content_hash()
        best = self._best_cache.get(key)
        if best is None:
            rng = self._prompt_rng(prompt, "best")
            # Scalar min/max rather than np.clip, as in tolerance_rank.
            best = min(max(rng.normal(_BASE_SCORE_MEAN, _BASE_SCORE_STD), 18.5), 24.5)
            self._best_cache.remember(key, best)
        return best

    def tolerance_rank(self, prompt: Prompt, strategy: Strategy | str = Strategy.AC) -> int:
        """Highest approximation rank the prompt tolerates without degradation.

        Complexity 0 maps to (almost) full tolerance, complexity 1 to needing
        the exact model; AC tolerances are slightly more permissive than SM
        ones, reflecting the paper's finding that AC variants dominate the
        Pareto frontier (Fig. 13).
        """
        strategy = Strategy(strategy)
        key = (prompt.content_hash(), strategy)
        tolerance = self._tolerance_cache.get(key)
        if tolerance is None:
            rng = self._prompt_rng(prompt, f"tolerance-{strategy.value}")
            max_rank = self.num_levels - 1
            permissiveness = 0.5 if strategy is Strategy.AC else 0.0
            raw = (1.0 - prompt.complexity) * max_rank + permissiveness
            noisy = raw + rng.normal(0.0, self.tolerance_noise)
            # Scalar min/max rather than np.clip: same value, none of the
            # ufunc dispatch overhead on this per-prompt hot path.
            tolerance = int(min(max(round(noisy), 0), max_rank))
            self._tolerance_cache.remember(key, tolerance)
        return tolerance

    # ------------------------------------------------------------------ #
    # Scores
    # ------------------------------------------------------------------ #
    def score(self, prompt: Prompt, strategy: Strategy | str, rank: int) -> float:
        """PickScore of the image generated at ``rank`` under ``strategy``."""
        if strategy.__class__ is not Strategy:
            strategy = Strategy(strategy)
        if rank < 0 or rank >= self.num_levels:
            raise ValueError(f"rank {rank} outside [0, {self.num_levels - 1}]")
        key = (prompt.content_hash(), strategy, rank)
        cached = self._score_cache.get(key)
        if cached is not None:
            return cached
        best = self.best_score(prompt)
        tolerance = self.tolerance_rank(prompt, strategy)
        rng = self._prompt_rng(prompt, f"score-{strategy.value}-{rank}")
        if rank <= tolerance:
            factor = _TOLERABLE_FLOOR + (1.0 - _TOLERABLE_FLOOR) * rng.random()
            score = best * factor
        else:
            gap = rank - tolerance
            degradation = _DEGRADATION_PER_GAP * gap ** _DEGRADATION_EXPONENT
            jitter = rng.normal(0.0, 0.01)
            factor = min(max(0.9 - degradation + jitter, 0.45), 0.9)
            score = best * float(factor)
        return self._score_cache.remember(key, float(score))

    def sample(self, prompt: Prompt, strategy: Strategy | str, rank: int) -> QualitySample:
        """Full quality sample including the best achievable score."""
        strategy = Strategy(strategy)
        return QualitySample(
            prompt_id=prompt.prompt_id,
            strategy=strategy,
            rank=rank,
            pickscore=self.score(prompt, strategy, rank),
            best_pickscore=self.best_score(prompt),
        )

    def score_all_levels(self, prompt: Prompt, strategy: Strategy | str) -> list[float]:
        """PickScores at every rank for one prompt."""
        return [self.score(prompt, strategy, rank) for rank in range(self.num_levels)]

    def mean_score(
        self, prompts: list[Prompt], strategy: Strategy | str, rank: int
    ) -> float:
        """Average PickScore of a prompt population served at a fixed rank."""
        if not prompts:
            return 0.0
        return float(np.mean([self.score(p, strategy, rank) for p in prompts]))
