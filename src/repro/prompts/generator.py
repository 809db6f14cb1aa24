"""Synthetic text-to-image prompt generator.

Prompts are assembled from a fixed vocabulary of subjects, attributes,
actions, scenes and style tags.  The number of distinct visual concepts in a
prompt (entities, spatial relations, fine attributes) drives its *complexity*
score; complex prompts tolerate less approximation, which is how the quality
model later reproduces the paper's Observation 1 and Fig. 8 distributions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.simulation.randomness import DecodedStream, decoded, stable_hash

SUBJECTS = (
    "apple", "banana", "bear", "cat", "dog", "guitar", "vase", "book",
    "mountain", "castle", "robot", "dragon", "astronaut", "city", "forest",
    "lake", "car", "bicycle", "bridge", "lighthouse", "owl", "horse",
    "sailboat", "temple", "garden", "waterfall", "man", "woman", "child",
    "wizard", "knight", "samurai", "fox", "whale", "tiger",
)

ATTRIBUTES = (
    "red", "blue", "golden", "ancient", "futuristic", "tiny", "giant",
    "glowing", "rusty", "crystal", "wooden", "marble", "neon", "misty",
    "snowy", "sunlit", "happy", "old", "young", "ornate", "minimalist",
)

ACTIONS = (
    "lying on a table", "walking with a dog", "standing in the rain",
    "flying over the city", "reading a book", "playing chess",
    "looking at the stars", "riding a horse", "sailing across the ocean",
    "climbing a mountain", "sitting by the fire", "dancing in the street",
)

SCENES = (
    "in a dense forest", "on a quiet beach", "inside a grand library",
    "under a starry sky", "in a cyberpunk alley", "on a snowy mountain peak",
    "in a sunflower field", "beside a waterfall", "in an abandoned factory",
    "at the edge of a cliff", "in a medieval marketplace", "on the moon",
)

STYLES = (
    "oil painting", "watercolor", "digital art", "photorealistic",
    "studio photography", "unreal engine", "concept art", "35mm film",
    "anime style", "baroque style", "isometric render", "pencil sketch",
)

QUALITY_TAGS = (
    "highly detailed", "8k", "4k", "trending on artstation", "sharp focus",
    "cinematic lighting", "intricate", "award winning", "masterpiece",
)


#: How many entities a prompt names, and the cumulative weights
#: ``choice([1, 2, 3], p=[0.45, 0.35, 0.20])`` bisects its uniform draw into,
#: normalised the way ``choice`` normalises them.
_ENTITY_COUNTS = (1, 2, 3)
_ENTITY_CUMSUM = np.cumsum([0.45, 0.35, 0.20])
_ENTITY_CDF = (_ENTITY_CUMSUM / _ENTITY_CUMSUM[-1]).tolist()


def _sample(rng: np.random.Generator | DecodedStream, items: tuple[str, ...], k: int) -> list[str]:
    """``list(rng.choice(items, size=k, replace=False))``, drawing the same
    numbers: Floyd's algorithm (one ``integers`` draw per pick, a repeat
    replaced by the top of its range), then the shuffle's draws.  That is
    what ``choice`` does for a population as small as the vocabularies
    here; above 10,000 items it may shuffle instead."""
    n = len(items)
    picked: list[int] = []
    for top in range(n - k, n):
        index = rng.integers(0, top + 1)
        picked.append(top if index in picked else index)
    for i in range(k - 1, 0, -1):
        j = rng.integers(0, i + 1)
        picked[i], picked[j] = picked[j], picked[i]
    return [items[i] for i in picked]


@dataclass(frozen=True)
class Prompt:
    """A single synthetic T2I prompt with its latent structure."""

    prompt_id: int
    text: str
    num_entities: int
    num_attributes: int
    num_style_tags: int
    has_action: bool
    has_scene: bool
    #: Latent visual complexity in [0, 1]; higher means harder to approximate.
    complexity: float
    #: Topic cluster the prompt was drawn from (drives cache similarity).
    topic: int = 0
    #: Tenant this prompt belongs to ("" = the anonymous single-tenant
    #: workload).  Drives admission fair-share, per-tenant SLO budgets and
    #: cache namespacing throughout the serving stack.
    tenant: str = ""
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def num_tokens(self) -> int:
        """Whitespace token count of the prompt text."""
        return len(self.text.split())

    @cached_property
    def _content_hash(self) -> int:
        # cached_property writes straight into __dict__, which frozen
        # dataclasses permit; repeated cache-key computations (one per
        # embedding lookup) then cost a dict hit instead of re-hashing the
        # whole prompt text.
        return stable_hash(self.text)

    def content_hash(self) -> int:
        """Stable hash of the prompt text (memoised per prompt object)."""
        return self._content_hash


class PromptGenerator:
    """Draws synthetic prompts with a controllable complexity distribution."""

    def __init__(
        self,
        seed: int = 0,
        num_topics: int = 24,
        complexity_bias: float = 0.0,
        tenant: str = "",
    ) -> None:
        """Args:
            seed: RNG seed; the same seed reproduces the same prompt stream.
            num_topics: number of topic clusters (controls cache hit locality).
            complexity_bias: shifts the complexity distribution; positive
                values produce harder prompt mixes (used for drift tests).
            tenant: the tenant every prompt is tagged with (draws nothing).
        """
        self._rng = np.random.default_rng(seed)
        self.num_topics = int(num_topics)
        self.complexity_bias = float(complexity_bias)
        self.tenant = str(tenant)
        self._counter = 0
        #: topic -> its six subjects (a function of the topic).
        self._subject_pools: dict[int, tuple[str, ...]] = {}

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    def generate(self, count: int) -> list[Prompt]:
        """Generate ``count`` prompts: the prompts ``count`` calls of
        :meth:`generate_one` make, with the stream left where they leave
        it, but drawn through a :class:`DecodedStream` rather than by one
        ``Generator`` call per draw."""
        with decoded(self._rng) as rng:
            return [self._draw(rng) for _ in range(count)]

    def generate_one(self) -> Prompt:
        """Generate a single prompt."""
        return self._draw(self._rng)

    def _draw(self, rng: np.random.Generator | DecodedStream) -> Prompt:
        """A prompt drawn from ``rng``, this generator's stream.

        Each draw is the one ``Generator.choice`` makes for the same call
        (an index from ``integers``, a bisected ``random()`` for weighted
        picks, Floyd's draws then the shuffle draw for samples without
        replacement) made directly, so the stream is unchanged while the
        array dispatch ``choice`` adds per call is gone.
        """
        topic = int(rng.integers(0, self.num_topics))
        subjects = self._subject_pools.get(topic)
        if subjects is None:
            topic_rng = np.random.default_rng(stable_hash(f"topic-{topic}") % (1 << 32))
            pool = topic_rng.choice(len(SUBJECTS), size=6, replace=False)
            subjects = self._subject_pools[topic] = tuple(SUBJECTS[i] for i in pool)

        num_entities = _ENTITY_COUNTS[bisect_right(_ENTITY_CDF, rng.random())]
        num_attributes = int(rng.integers(0, 3))
        has_action = rng.random() < 0.45
        has_scene = rng.random() < 0.55
        num_style_tags = int(rng.integers(0, 4))

        parts: list[str] = []
        entity_phrases = []
        for _ in range(num_entities):
            subject = subjects[rng.integers(0, len(subjects))]
            attrs = _sample(rng, ATTRIBUTES, min(num_attributes, 2))
            phrase = " ".join(attrs + [subject]) if num_attributes else subject
            entity_phrases.append(f"a {phrase}")
        parts.append(" and ".join(entity_phrases))
        if has_action:
            parts.append(ACTIONS[rng.integers(0, len(ACTIONS))])
        if has_scene:
            parts.append(SCENES[rng.integers(0, len(SCENES))])
        style_tags = [STYLES[rng.integers(0, len(STYLES))]] if num_style_tags else []
        style_tags += _sample(rng, QUALITY_TAGS, max(0, num_style_tags - 1))
        text = ", ".join([" ".join(parts)] + style_tags)

        noise = rng.normal(0.0, 0.05)
        complexity = self._complexity(
            num_entities, num_attributes, num_style_tags, has_action, has_scene, noise
        )
        prompt = Prompt(
            prompt_id=self._counter,
            text=text,
            num_entities=num_entities,
            num_attributes=num_attributes,
            num_style_tags=num_style_tags,
            has_action=has_action,
            has_scene=has_scene,
            complexity=complexity,
            topic=topic,
            tenant=self.tenant,
        )
        self._counter += 1
        return prompt

    def _complexity(
        self,
        num_entities: int,
        num_attributes: int,
        num_style_tags: int,
        has_action: bool,
        has_scene: bool,
        noise: float,
    ) -> float:
        """Latent complexity in [0, 1] from the prompt structure plus noise."""
        raw = (
            0.30 * (num_entities - 1)
            + 0.09 * num_attributes
            + 0.15 * has_action
            + 0.10 * has_scene
            + 0.04 * num_style_tags
        )
        return min(max(raw + noise + 0.05 + self.complexity_bias, 0.0), 1.0)
