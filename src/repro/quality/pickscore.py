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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.models.zoo import Strategy
from repro.prompts.generator import Prompt
from repro.prompts.memo import PromptMemo
from repro.simulation.randomness import _SEEDS_PER_BATCH, FirstDraws, stable_hash

#: Typical PickScore of a best-possible SD-XL generation (paper reports ~21).
_BASE_SCORE_MEAN = 21.5
_BASE_SCORE_STD = 0.9

#: Per-rank-gap degradation, super-linear exponent (Observation in §4.3 that
#: degradation grows super-linearly with the speed gap).
_DEGRADATION_PER_GAP = 0.055
_DEGRADATION_EXPONENT = 1.3

#: Fraction of the best score retained when exactly at the tolerance edge.
_TOLERABLE_FLOOR = 0.955

#: Marks a score-memo slot that :meth:`PickScoreModel.score_many` is drawing.
_DRAWING = object()


def _best_from(rng: np.random.Generator | FirstDraws) -> float:
    """A prompt's best PickScore, drawn from its "best" stream (a prompt's
    ``default_rng``, or the next of a batch of fresh streams)."""
    # Scalar min/max rather than np.clip, as in _tolerance_from.
    return min(max(rng.normal(_BASE_SCORE_MEAN, _BASE_SCORE_STD), 18.5), 24.5)


def _score_from(
    rng: np.random.Generator | FirstDraws, best: float, tolerance: int, rank: int
) -> float:
    """The PickScore at ``rank``, drawn from the (prompt, strategy, rank) stream."""
    if rank <= tolerance:
        factor = _TOLERABLE_FLOOR + (1.0 - _TOLERABLE_FLOOR) * rng.random()
        return float(best * factor)
    gap = rank - tolerance
    degradation = _DEGRADATION_PER_GAP * gap ** _DEGRADATION_EXPONENT
    jitter = rng.normal(0.0, 0.01)
    factor = min(max(0.9 - degradation + jitter, 0.45), 0.9)
    return float(best * float(factor))


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
        #: content hash -> that prompt's scores, in the slots ``_slot`` gives
        #: (None until drawn): one entry per prompt, so this memo holds as
        #: many prompts as the other two.
        self._score_cache = PromptMemo()

    # ------------------------------------------------------------------ #
    # Per-prompt latent quantities
    # ------------------------------------------------------------------ #
    def _seed_key(self, prompt: Prompt, salt: str) -> int:
        return stable_hash(f"{self.seed}:{salt}:{prompt.text}") % (1 << 32)

    def _prompt_rng(self, prompt: Prompt, salt: str) -> np.random.Generator:
        return np.random.default_rng(self._seed_key(prompt, salt))

    def best_score(self, prompt: Prompt) -> float:
        """PickScore of the best (least approximate) generation for a prompt."""
        key = prompt.content_hash()
        best = self._best_cache.get(key)
        if best is None:
            best = self._best_cache.remember(key, _best_from(self._prompt_rng(prompt, "best")))
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
            tolerance = self._tolerance_cache.remember(
                key, self._tolerance_from(rng, prompt, strategy)
            )
        return tolerance

    def _tolerance_from(
        self, rng: np.random.Generator | FirstDraws, prompt: Prompt, strategy: Strategy
    ) -> int:
        max_rank = self.num_levels - 1
        permissiveness = 0.5 if strategy is Strategy.AC else 0.0
        raw = (1.0 - prompt.complexity) * max_rank + permissiveness
        noisy = raw + rng.normal(0.0, self.tolerance_noise)
        # Scalar min/max rather than np.clip: same value, none of the
        # ufunc dispatch overhead on this per-prompt hot path.
        return int(min(max(round(noisy), 0), max_rank))

    # ------------------------------------------------------------------ #
    # Scores
    # ------------------------------------------------------------------ #
    def _slot(self, strategy: Strategy, rank: int) -> int:
        """Where a score-memo entry keeps the score at (strategy, rank): AC's
        ranks first, then SM's."""
        return rank if strategy is Strategy.AC else self.num_levels + rank

    def _scores_of(self, key: int) -> list[float | None]:
        """The score memo's entry for the prompt with content hash ``key``."""
        scores = self._score_cache.get(key)
        if scores is None:
            scores = self._score_cache.remember(key, [None] * (2 * self.num_levels))
        return scores

    def score(self, prompt: Prompt, strategy: Strategy | str, rank: int) -> float:
        """PickScore of the image generated at ``rank`` under ``strategy``."""
        if strategy.__class__ is not Strategy:
            strategy = Strategy(strategy)
        if rank < 0 or rank >= self.num_levels:
            raise ValueError(f"rank {rank} outside [0, {self.num_levels - 1}]")
        scores = self._scores_of(prompt.content_hash())
        slot = self._slot(strategy, rank)
        score = scores[slot]
        if score is None:
            best = self.best_score(prompt)
            tolerance = self.tolerance_rank(prompt, strategy)
            rng = self._prompt_rng(prompt, f"score-{strategy.value}-{rank}")
            score = scores[slot] = _score_from(rng, best, tolerance, rank)
        return score

    def score_levels(self, prompts: list[Prompt], strategy: Strategy | str) -> list[list[float]]:
        """:meth:`score_all_levels` for each of ``prompts``, through
        :meth:`score_many`."""
        levels = self.num_levels
        # Prompts per call: each call's items and results are freed before
        # the next, so a training set's worth never reaches the garbage
        # collector's older generations (that made builds slower).
        step = _SEEDS_PER_BATCH // levels
        rows: list[list[float]] = []
        for start in range(0, len(prompts), step):
            batch = prompts[start : start + step]
            items = [(prompt, strategy, rank) for prompt in batch for rank in range(levels)]
            scores = [score for score, _ in self.score_many(items)]
            rows.extend(scores[i : i + levels] for i in range(0, len(scores), levels))
        return rows

    def score_many(
        self, items: Sequence[tuple[Prompt, Strategy | str, int]]
    ) -> list[tuple[float, float]]:
        """``(score(prompt, strategy, rank), best_score(prompt))`` for each
        ``(prompt, strategy, rank)`` of ``items``.

        The same values, and the same memo contents, as making those two
        calls for each item in order; but each stream the memos lack makes
        its one draw through :class:`FirstDraws`, which seeds them in
        batches and decodes their first outputs instead of making a
        ``default_rng`` call each, most of the cost of scoring a prompt for
        the first time.
        """
        memos = (self._best_cache, self._tolerance_cache, self._score_cache)
        scored: list[tuple[float, float]] = []
        # Items are planned a seeding pass's worth at a time, which keeps
        # each plan's temporaries small.
        for start in range(0, len(items), _SEEDS_PER_BATCH):
            chunk = items[start : start + _SEEDS_PER_BATCH]
            # An item adds at most one entry to each memo.
            if all(memo.fits(len(chunk)) for memo in memos):
                scored.extend(self._score_chunk(chunk))
            else:
                # A memo may empty part-way through: the scalar path empties
                # it at the very item where scoring one by one would.
                scored.extend((self.score(p, s, r), self.best_score(p)) for p, s, r in chunk)
        return scored

    def _score_chunk(
        self, items: Sequence[tuple[Prompt, Strategy | str, int]]
    ) -> list[tuple[float, float]]:
        """:meth:`score_many` over a chunk that no memo empties in."""
        levels = self.num_levels
        best_memo, tolerance_memo = self._best_cache, self._tolerance_cache
        seed_key = self._seed_key
        salts = [
            f"score-{strategy.value}-{rank}"
            for strategy in (Strategy.AC, Strategy.SM)
            for rank in range(levels)
        ]
        entries = []  # (score-memo entry, slot, content hash) per item
        # What the memos lack, each with the prompt whose call would draw it:
        # a prompt's best; its tolerance under a strategy, drawn by the first
        # item whose score misses, so that item's complexity counts, as in
        # the scalar path; and each score slot's first miss, with the seed
        # of its stream.  A claimed slot holds _DRAWING until it is drawn,
        # or None again if scoring fails.
        no_best: dict[int, Prompt] = {}
        no_tolerance: list[tuple[int, Strategy, Prompt]] = []
        score_seeds: list[int] = []
        score_draws: list[tuple[list, int, int, int, dict]] = []
        # Content hash -> tolerance (None until drawn), for AC then SM: keyed
        # by int, because hashing an Enum runs Python code.
        tolerances: tuple[dict[int, int | None], dict[int, int | None]] = ({}, {})
        last, ac = None, Strategy.AC
        try:
            for prompt, strategy, rank in items:
                if strategy.__class__ is not Strategy:
                    strategy = Strategy(strategy)
                if rank < 0 or rank >= levels:
                    raise ValueError(f"rank {rank} outside [0, {levels - 1}]")
                if prompt is not last:  # runs of one prompt look it up once
                    last, key = prompt, prompt.content_hash()
                    scores = self._scores_of(key)
                    if key not in best_memo and key not in no_best:
                        no_best[key] = prompt
                sm = strategy is not ac
                slot = sm * levels + rank
                entries.append((scores, slot, key))
                if scores[slot] is None:
                    scores[slot] = _DRAWING
                    known = tolerances[sm]
                    if key not in known:
                        known[key] = tolerance = tolerance_memo.get((key, strategy))
                        if tolerance is None:
                            no_tolerance.append((key, strategy, prompt))
                    score_seeds.append(seed_key(prompt, salts[slot]))
                    score_draws.append((scores, slot, rank, key, known))
            # Latent quantities first: every score is drawn from them.
            draws = FirstDraws(
                [seed_key(prompt, "best") for prompt in no_best.values()]
                + [seed_key(prompt, f"tolerance-{s.value}") for _, s, prompt in no_tolerance]
                + score_seeds
            )
            for key in no_best:
                best_memo.remember(key, _best_from(draws))
            for key, strategy, prompt in no_tolerance:
                tolerance = self._tolerance_from(draws, prompt, strategy)
                known = tolerances[strategy is not ac]
                known[key] = tolerance_memo.remember((key, strategy), tolerance)
            for scores, slot, rank, key, known in score_draws:
                scores[slot] = _score_from(draws, best_memo[key], known[key], rank)
        except BaseException:
            for scores, slot, *_ in score_draws:
                if scores[slot] is _DRAWING:
                    scores[slot] = None
            raise
        return [(scores[slot], best_memo[key]) for scores, slot, key in entries]

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
