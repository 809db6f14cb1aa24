"""Feature extraction for the approximation-level classifier.

The production classifier is BERT-based; ours is a linear model over a small
set of interpretable structural features plus a hashed bag-of-words block.
The structural features carry the learnable signal (they correlate with the
latent complexity the generator injected); the hashed block adds realistic
sparsity and lets property tests exercise larger feature spaces.
"""

from __future__ import annotations

import numpy as np

from repro.prompts.generator import ATTRIBUTES, Prompt
from repro.prompts.memo import PromptMemo, WordTable, tokenize
from repro.simulation.randomness import stable_hash

#: The words each per-word structural feature counts.
_COUNTED_WORDS = {
    "num_and": ("and",),
    "num_entities_hint": ("a", "an", "the"),
    "num_adjectives_hint": ATTRIBUTES,
    "has_action_hint": tuple(
        "lying walking standing flying reading playing looking riding sailing climbing"
        " sitting dancing".split()
    ),
    "has_scene_hint": tuple(
        "forest beach library sky alley peak field waterfall factory cliff marketplace"
        " moon".split()
    ),
    "num_style_tags_hint": tuple(
        "painting watercolor art photorealistic photography engine film anime baroque"
        " isometric sketch detailed 8k 4k artstation cinematic masterpiece".split()
    ),
}


class PromptFeaturizer:
    """Turns prompts into fixed-width dense feature vectors."""

    #: Names of the structural features, in order.
    STRUCTURAL_FEATURES = (
        "num_tokens",
        "num_commas",
        "num_and",
        "num_entities_hint",
        "num_adjectives_hint",
        "has_action_hint",
        "has_scene_hint",
        "num_style_tags_hint",
    )

    def __init__(self, hashed_dim: int = 48) -> None:
        if hashed_dim < 0:
            raise ValueError("hashed_dim must be non-negative")
        self.hashed_dim = int(hashed_dim)
        # Featurisation is deterministic per prompt text; the serving loop
        # featurises the same prompt on every routing decision, so memoise
        # per prompt hash.  Cached vectors are frozen to keep accidental
        # in-place mutation from corrupting later lookups.
        self._cache = PromptMemo()
        #: word -> the feature slots it adds one to: its structural counts
        #: and its hashed bucket.  Each word is classified and hashed once.
        self._words = WordTable(self._word_slots)

    @property
    def dim(self) -> int:
        """Total feature dimensionality."""
        return len(self.STRUCTURAL_FEATURES) + self.hashed_dim

    # ------------------------------------------------------------------ #
    # Featurisation
    # ------------------------------------------------------------------ #
    def featurize(self, prompt: Prompt | str) -> np.ndarray:
        """Feature vector for a single prompt (or raw text)."""
        if not isinstance(prompt, Prompt):
            return self._featurize_text(str(prompt))
        key = prompt.content_hash()
        cached = self._cache.get(key)
        if cached is None:
            cached = self._featurize_text(prompt.text)
            cached.setflags(write=False)
            self._cache.remember(key, cached)
        return cached

    def featurize_batch(self, prompts: list[Prompt | str]) -> np.ndarray:
        """Feature matrix of shape (n, dim)."""
        if not prompts:
            return np.zeros((0, self.dim), dtype=np.float64)
        return np.stack([self.featurize(p) for p in prompts])

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _featurize_text(self, text: str) -> np.ndarray:
        words = tokenize(text)
        # Per-slot word counts are integers, so summing them as Python
        # floats gives exactly the values a float64 vector would hold.
        slots = [0.0] * self.dim
        table = self._words
        for word in words:
            for slot in table[word]:
                slots[slot] += 1.0
        # Slots 2-7 hold the per-word structural counts.
        structural = [
            len(words) / 20.0,
            text.count(",") / 4.0,
            slots[2],
            slots[3],
            slots[4] / 3.0,
            float(slots[5] > 0),
            float(slots[6] > 0),
            slots[7] / 3.0,
        ]
        hashed = slots[len(structural) :]
        peak = max(hashed, default=0.0)
        if peak > 0:
            hashed = [count / peak for count in hashed]
        return np.array(structural + hashed)

    def _word_slots(self, word: str) -> tuple[int, ...]:
        slots = tuple(
            self.STRUCTURAL_FEATURES.index(name)
            for name, counted in _COUNTED_WORDS.items()
            if word in counted
        )
        if self.hashed_dim:
            bucket = stable_hash("feat:" + word) % self.hashed_dim
            slots += (len(self.STRUCTURAL_FEATURES) + bucket,)
        return slots
