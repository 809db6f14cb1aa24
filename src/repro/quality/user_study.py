"""User-study simulator (§5.4 / §5.7 of the paper).

The paper surveys 186 participants who rate generated images for prompt
relevance and overall quality.  We model a participant's "suitable" vote as
a Bernoulli draw whose probability is a logistic function of the image's
relative PickScore, so systems that serve more prompts near their optimal
quality collect more votes.  The simulator reproduces the *ranking* of
systems, not the exact human percentages.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StudyResult:
    """Aggregate votes for one serving system."""

    system: str
    prompt_relevance_rate: float
    overall_quality_rate: float
    num_votes: int


class UserStudySimulator:
    """Simulates suitability votes from relative-quality samples."""

    def __init__(
        self,
        num_participants: int = 186,
        seed: int = 0,
        relevance_midpoint: float = 0.86,
        quality_midpoint: float = 0.90,
        steepness: float = 22.0,
    ) -> None:
        if num_participants <= 0:
            raise ValueError("num_participants must be positive")
        self.num_participants = int(num_participants)
        self.seed = int(seed)
        self.relevance_midpoint = float(relevance_midpoint)
        self.quality_midpoint = float(quality_midpoint)
        self.steepness = float(steepness)

    def _vote_probability(self, relative_quality: float, midpoint: float) -> float:
        return float(1.0 / (1.0 + np.exp(-self.steepness * (relative_quality - midpoint))))

    def run(self, system: str, relative_qualities: list[float]) -> StudyResult:
        """Simulate the study for one system.

        Args:
            system: display name of the serving system.
            relative_qualities: per-served-image PickScore / best-PickScore
                ratios produced by that system under load.
        """
        if not relative_qualities:
            raise ValueError("relative_qualities must be non-empty")
        # crc32, not hash(): string hashes are salted per process, which
        # would make repeated studies of the same system disagree.  Pinned
        # (not stable_hash) for the same fixture reason as TraceLibrary._rng.
        rng = np.random.default_rng(
            (self.seed * 1_000_003 + zlib.crc32(system.encode("utf-8"))) % (1 << 32)
        )
        qualities = np.asarray(relative_qualities, dtype=np.float64)
        relevance_votes = 0
        quality_votes = 0
        total = 0
        for _ in range(self.num_participants):
            sampled = rng.choice(qualities, size=min(10, len(qualities)))
            for rq in sampled:
                total += 1
                if rng.random() < self._vote_probability(rq, self.relevance_midpoint):
                    relevance_votes += 1
                if rng.random() < self._vote_probability(rq, self.quality_midpoint):
                    quality_votes += 1
        return StudyResult(
            system=system,
            prompt_relevance_rate=relevance_votes / total,
            overall_quality_rate=quality_votes / total,
            num_votes=total,
        )

    def compare(self, samples: dict[str, list[float]]) -> list[StudyResult]:
        """Run the study for several systems, sorted best-first by relevance."""
        results = [self.run(system, values) for system, values in samples.items()]
        return sorted(results, key=lambda r: r.prompt_relevance_rate, reverse=True)
