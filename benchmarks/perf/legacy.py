"""Seed-faithful reference implementations of the four hot paths.

These are the pre-PR-3 implementations, preserved verbatim so the perf
harness can time "before" and "after" in the same process on the same
machine, and so the equivalence tests can check that the optimised paths
still produce the same observable results.  They are *not* used by the
serving stack itself.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cluster.requests import CompletedRequest
from repro.core.solver import AllocationSolver
from repro.metrics.collector import ServedSample
from repro.metrics.slo import SloPolicy
from repro.prompts.generator import (
    ACTIONS,
    ATTRIBUTES,
    QUALITY_TAGS,
    SCENES,
    STYLES,
    SUBJECTS,
    Prompt,
    PromptGenerator,
)
from repro.simulation.clock import Clock
from repro.simulation.randomness import RandomStreams, stable_hash

# --------------------------------------------------------------------------- #
# 1. Vector search: per-query matrix copy + full argsort (seed vectordb)
# --------------------------------------------------------------------------- #


def legacy_flat_search(db, query: np.ndarray, top_k: int = 1):
    """Seed-shaped flat search against an (optimised) VectorDatabase.

    Reproduces the original cost profile: materialise the candidate index
    array, fancy-index a copy of the whole matrix, divide by the norm
    products and full-``argsort`` the similarities.
    """
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    count = len(db._keys)
    if count == 0:
        return []
    norms = getattr(db, "_legacy_norms", None)
    if norms is None or len(norms) < db._capacity:
        # Seed maintained norms incrementally at insert time; rebuilding it
        # outside the timed region keeps the comparison fair.
        norms = np.linalg.norm(db._matrix, axis=1)
        norms[norms == 0] = 1.0
        db._legacy_norms = norms
    candidate_indices = np.arange(count)
    matrix = db._matrix[candidate_indices]
    norms = norms[candidate_indices]
    query_norm = max(float(np.linalg.norm(query)), 1e-12)
    sims = (matrix @ query) / (norms * query_norm)
    order = np.argsort(-sims)[:top_k]
    return [
        (db._keys[int(candidate_indices[int(position)])], float(sims[int(position)]))
        for position in order
    ]


# --------------------------------------------------------------------------- #
# 2. Metrics: the seed object-list collector
# --------------------------------------------------------------------------- #


@dataclass
class LegacyMinuteStats:
    minute: int
    offered_qpm: float = 0.0
    arrivals: int = 0
    completions: int = 0
    slo_violations: int = 0
    pickscores: list[float] = field(default_factory=list)
    relative_qualities: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    fleet_workers: float = 0.0
    fleet_by_gpu: dict[str, float] = field(default_factory=dict)

    @property
    def served_qpm(self) -> float:
        return float(self.completions)

    @property
    def violation_ratio(self) -> float:
        if self.completions == 0:
            return 0.0
        return self.slo_violations / self.completions

    @property
    def mean_pickscore(self) -> float:
        return float(np.mean(self.pickscores)) if self.pickscores else 0.0

    @property
    def mean_relative_quality(self) -> float:
        return float(np.mean(self.relative_qualities)) if self.relative_qualities else 0.0


class LegacyMetricsCollector:
    """The seed per-request object-list collector (pre-columnar)."""

    def __init__(self, slo: SloPolicy | None = None) -> None:
        self.slo = slo or SloPolicy()
        self.samples: list[ServedSample] = []
        self._minutes: dict[int, LegacyMinuteStats] = {}
        self._arrivals_by_minute: dict[int, int] = defaultdict(int)
        self.dropped_requests = 0

    def record_arrival(self, arrival_time_s: float, tenant: str = "") -> None:
        # ``tenant`` is accepted for interface parity with the live
        # collector; the seed implementation predates tenancy and the
        # harness only runs it on anonymous workloads.
        self._arrivals_by_minute[int(arrival_time_s // 60)] += 1

    def record_drop(self, tenant: str = "") -> None:
        self.dropped_requests += 1

    def record_completion(
        self, completed: CompletedRequest, pickscore: float, best_pickscore: float
    ) -> ServedSample:
        sample = ServedSample(completed=completed, pickscore=pickscore, best_pickscore=best_pickscore)
        self.samples.append(sample)
        minute = int(completed.completion_time_s // 60)
        stats = self._minutes.setdefault(minute, LegacyMinuteStats(minute=minute))
        stats.completions += 1
        stats.pickscores.append(pickscore)
        stats.relative_qualities.append(sample.relative_quality)
        stats.latencies.append(sample.latency_s)
        if self.slo.is_violation(sample.latency_s):
            stats.slo_violations += 1
        return sample

    def minute_series(self, offered=None, fleet=None) -> list[LegacyMinuteStats]:
        minutes = set(self._minutes) | set(self._arrivals_by_minute)
        if offered:
            minutes |= set(offered)
        if fleet:
            minutes |= set(fleet)
        series = []
        for minute in sorted(minutes):
            stats = self._minutes.get(minute, LegacyMinuteStats(minute=minute))
            stats.arrivals = self._arrivals_by_minute.get(minute, 0)
            stats.offered_qpm = (
                offered.get(minute, float(stats.arrivals)) if offered else float(stats.arrivals)
            )
            if fleet and minute in fleet:
                stats.fleet_workers = fleet[minute].mean_workers
                stats.fleet_by_gpu = dict(fleet[minute].by_gpu)
            series.append(stats)
        return series

    @property
    def total_completions(self) -> int:
        return len(self.samples)

    @property
    def total_arrivals(self) -> int:
        return sum(self._arrivals_by_minute.values())

    def slo_violation_ratio(self) -> float:
        if not self.samples:
            return 0.0
        return self.slo.violation_ratio([s.latency_s for s in self.samples])

    def effective_accuracy(self) -> float:
        within = [s.pickscore for s in self.samples if not self.slo.is_violation(s.latency_s)]
        return float(np.mean(within)) if within else 0.0

    def mean_pickscore(self) -> float:
        return float(np.mean([s.pickscore for s in self.samples])) if self.samples else 0.0

    def mean_relative_quality(self) -> float:
        if not self.samples:
            return 0.0
        return float(np.mean([s.relative_quality for s in self.samples]))

    def latency_percentile(self, percentile: float) -> float:
        if not self.samples:
            return 0.0
        return float(np.percentile([s.latency_s for s in self.samples], percentile))

    def relative_qualities(self) -> list[float]:
        return [s.relative_quality for s in self.samples]


# --------------------------------------------------------------------------- #
# 3. Solver: scalar enumeration, no memoisation
# --------------------------------------------------------------------------- #


def enumerate_best_counts_scalar(target_qpm, quality, num_workers, capacity_fn) -> list[int]:
    """Scalar form of the solver's composition search: one Python fill pass
    per composition, in ``combinations_with_replacement`` order.

    The equivalence tests check ``AllocationSolver._best_counts_enumerated``
    (one vectorized pass over all compositions) against it.
    """
    num_levels = len(quality)
    best_counts: list[int] | None = None
    best_key: tuple[float, float] | None = None
    for combo in itertools.combinations_with_replacement(range(num_levels), num_workers):
        counts = [0] * num_levels
        for level in combo:
            counts[level] += 1
        qpm_per_level, feasible = AllocationSolver._fill_capacity(
            target_qpm, quality, capacity_fn(counts)
        )
        expected_quality = AllocationSolver._expected_quality(quality, qpm_per_level)
        served = sum(qpm_per_level)
        # Prefer plans that serve the target; among those, highest quality.
        key = (served if not feasible else target_qpm, expected_quality)
        if best_key is None or key > best_key:
            best_key = key
            best_counts = counts
    assert best_counts is not None
    return best_counts


class LegacySolver(AllocationSolver):
    """Seed solver: per-composition Python fill loop, no plan cache."""

    def __init__(self, enumerate_limit: int = 5_000) -> None:
        super().__init__(enumerate_limit=enumerate_limit, cache_size=0)

    def _best_counts_enumerated(self, target_qpm, quality, peak_qpm, num_workers):
        num_levels = len(quality)
        return enumerate_best_counts_scalar(
            target_qpm,
            quality,
            num_workers,
            lambda counts: [counts[l] * peak_qpm[l] for l in range(num_levels)],
        )


# --------------------------------------------------------------------------- #
# 4. Engine: order=True dataclass events, O(n) pending scan
# --------------------------------------------------------------------------- #


@dataclass(order=True)
class LegacyEvent:
    time: float
    sequence: int
    callback: Callable = field(compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class LegacySimulationEngine:
    """The seed engine: heap of comparable Event dataclasses."""

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self.clock = Clock(start=start_time)
        self.random = RandomStreams(seed=seed)
        self._heap: list[LegacyEvent] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        self._halted = False

    def schedule_at(self, time, callback, name: str = ""):
        if time < self.clock.time:
            raise ValueError(
                f"cannot schedule event in the past: {time:.6f} < {self.clock.time:.6f}"
            )
        event = LegacyEvent(
            time=float(time), sequence=next(self._sequence), callback=callback, name=name
        )
        heapq.heappush(self._heap, event)
        return event

    def schedule_in(self, delay, callback, name: str = ""):
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.clock.time + delay, callback, name=name)

    def schedule_every(self, interval, callback, name: str = "", start_delay=None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        first_delay = interval if start_delay is None else start_delay

        def tick(engine) -> None:
            callback(engine)
            engine.schedule_in(interval, tick, name=name)

        self.schedule_in(first_delay, tick, name=name)

    def halt(self) -> None:
        self._halted = True

    def step(self) -> bool:
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.clock.advance_to(event.time)
            event.callback(self)
            self._events_processed += 1
            return True
        return False

    def run(self, until=None, max_events=None) -> int:
        processed = 0
        self._halted = False
        while self._heap and not self._halted:
            if max_events is not None and processed >= max_events:
                break
            next_time = self._peek_time()
            if until is not None and next_time is not None and next_time > until:
                break
            if not self.step():
                break
            processed += 1
        if until is not None and until > self.clock.time:
            self.clock.advance_to(until)
        return processed

    def _peek_time(self):
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].time

    @property
    def now(self) -> float:
        return self.clock.time

    @property
    def pending_events(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def rng(self, name: str):
        return self.random.stream(name)


# --------------------------------------------------------------------------- #
# 5. Network + embedder scan paths
# --------------------------------------------------------------------------- #


def legacy_condition_at(network, time_s: float):
    """Seed condition lookup: linear scan over every scheduled window."""
    current = network._default
    for window in network._windows:
        if window.contains(time_s):
            current = window.condition
    return current


def _legacy_normalize(vector: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vector)
    if norm == 0:
        unit = np.zeros_like(vector)
        unit[0] = 1.0
        return unit
    return vector / norm


def legacy_embed_text(dim: int, text: str) -> np.ndarray:
    """Seed embed_text: tokenize, then two blake2b hashes per token."""
    vector = np.zeros(dim, dtype=np.float64)
    tokens = [t.strip(",.") for t in text.lower().split() if t.strip(",.")]
    for token in tokens:
        index = stable_hash("tok:" + token) % dim
        sign = 1.0 if stable_hash("sign:" + token) % 2 == 0 else -1.0
        vector[index] += sign
    return _legacy_normalize(vector)


def _legacy_topic_vector(embedder, topic: int) -> np.ndarray:
    if topic not in embedder._topic_cache:
        rng = np.random.default_rng(stable_hash(f"topic-embed-{topic}") % (1 << 32))
        embedder._topic_cache[topic] = _legacy_normalize(rng.normal(size=embedder.dim))
    return embedder._topic_cache[topic]


def legacy_embed(embedder, prompt) -> np.ndarray:
    """Seed embed: re-hash the full prompt text on every lookup."""
    key = (stable_hash(prompt.text), prompt.topic)
    if key in embedder._cache:
        return embedder._cache[key]
    token_vec = legacy_embed_text(embedder.dim, prompt.text)
    topic_vec = _legacy_topic_vector(embedder, prompt.topic)
    mixed = (1.0 - embedder.topic_weight) * token_vec + embedder.topic_weight * topic_vec
    embedded = _legacy_normalize(mixed)
    embedder._cache[key] = embedded
    return embedded


def _legacy_prompt_rng(model, prompt, salt: str) -> np.random.Generator:
    key = stable_hash(f"{model.seed}:{salt}:{prompt.text}") % (1 << 32)
    return np.random.default_rng(key)


def legacy_pickscore_best(model, prompt) -> float:
    """Seed best_score: re-hash the prompt text on every lookup."""
    key = stable_hash(prompt.text)
    if key not in model._best_cache:
        rng = _legacy_prompt_rng(model, prompt, "best")
        model._best_cache[key] = float(np.clip(rng.normal(21.5, 0.9), 18.5, 24.5))
    return model._best_cache[key]


def legacy_pickscore_tolerance(model, prompt, strategy=None):
    from repro.models.zoo import Strategy

    strategy = Strategy(strategy if strategy is not None else Strategy.AC)
    key = (stable_hash(prompt.text), strategy)
    if key not in model._tolerance_cache:
        rng = _legacy_prompt_rng(model, prompt, f"tolerance-{strategy.value}")
        max_rank = model.num_levels - 1
        permissiveness = 0.5 if strategy is Strategy.AC else 0.0
        raw = (1.0 - prompt.complexity) * max_rank + permissiveness
        noisy = raw + rng.normal(0.0, model.tolerance_noise)
        model._tolerance_cache[key] = int(np.clip(round(noisy), 0, max_rank))
    return model._tolerance_cache[key]


def legacy_pickscore_score(model, prompt, strategy, rank) -> float:
    """Seed score: per-call text hashing and scalar np.clip dispatch."""
    from repro.models.zoo import Strategy

    strategy = Strategy(strategy)
    if rank < 0 or rank >= model.num_levels:
        raise ValueError(f"rank {rank} outside [0, {model.num_levels - 1}]")
    key = (stable_hash(prompt.text), strategy, rank)
    if key in model._score_cache:
        return model._score_cache[key]
    best = legacy_pickscore_best(model, prompt)
    tolerance = legacy_pickscore_tolerance(model, prompt, strategy)
    rng = _legacy_prompt_rng(model, prompt, f"score-{strategy.value}-{rank}")
    if rank <= tolerance:
        factor = 0.955 + (1.0 - 0.955) * rng.random()
        score = best * factor
    else:
        gap = rank - tolerance
        degradation = 0.055 * gap ** 1.3
        jitter = rng.normal(0.0, 0.01)
        factor = np.clip(0.9 - degradation + jitter, 0.45, 0.9)
        score = best * float(factor)
    model._score_cache[key] = float(score)
    return float(score)


def _legacy_structural_features(text: str) -> np.ndarray:
    tokens = [t.strip(",.").lower() for t in text.split() if t.strip(",.")]
    num_tokens = len(tokens)
    num_commas = text.count(",")
    num_and = sum(1 for t in tokens if t == "and")
    num_articles = sum(1 for t in tokens if t in ("a", "an", "the"))
    adjectives = sum(
        1
        for t in tokens
        if t in ("red", "blue", "golden", "ancient", "futuristic", "tiny", "giant",
                 "glowing", "rusty", "crystal", "wooden", "marble", "neon", "misty",
                 "snowy", "sunlit", "happy", "old", "young", "ornate", "minimalist")
    )
    action_words = ("lying", "walking", "standing", "flying", "reading", "playing",
                    "looking", "riding", "sailing", "climbing", "sitting", "dancing")
    scene_words = ("forest", "beach", "library", "sky", "alley", "peak", "field",
                   "waterfall", "factory", "cliff", "marketplace", "moon")
    style_words = ("painting", "watercolor", "art", "photorealistic", "photography",
                   "engine", "film", "anime", "baroque", "isometric", "sketch",
                   "detailed", "8k", "4k", "artstation", "cinematic", "masterpiece")
    return np.array(
        [
            num_tokens / 20.0,
            num_commas / 4.0,
            float(num_and),
            float(num_articles),
            adjectives / 3.0,
            float(any(t in action_words for t in tokens)),
            float(any(t in scene_words for t in tokens)),
            sum(1 for t in tokens if t in style_words) / 3.0,
        ],
        dtype=np.float64,
    )


def _legacy_hashed_features(hashed_dim: int, text: str) -> np.ndarray:
    vector = np.zeros(hashed_dim, dtype=np.float64)
    tokens = [t.strip(",.").lower() for t in text.split() if t.strip(",.")]
    for token in tokens:
        index = stable_hash("feat:" + token) % hashed_dim
        vector[index] += 1.0
    max_val = vector.max()
    if max_val > 0:
        vector /= max_val
    return vector


def legacy_featurize(featurizer, prompt) -> np.ndarray:
    """Seed featurize: tokenize twice, hash every token, on every call."""
    text = prompt.text if isinstance(prompt, Prompt) else str(prompt)
    structural = _legacy_structural_features(text)
    if featurizer.hashed_dim == 0:
        return structural
    hashed = _legacy_hashed_features(featurizer.hashed_dim, text)
    return np.concatenate([structural, hashed])


def legacy_sample_target(shift_map, affinity_rank, rng) -> int:
    """Seed PASM sampling: ``Generator.choice`` re-derives the CDF per call."""
    row = shift_map.matrix[affinity_rank]
    return int(rng.choice(len(row), p=row / row.sum()))


class LegacyPromptGenerator(PromptGenerator):
    """The prompt generator with one ``Generator.choice`` call per pick and
    ``np.clip`` on the complexity: the draws the choice-free generator must
    reproduce."""

    def generate_one(self) -> Prompt:
        """Generate a single prompt."""
        rng = self._rng
        topic = int(rng.integers(0, self.num_topics))
        subject_pool = self._subject_pools.get(topic)
        if subject_pool is None:
            topic_rng = np.random.default_rng(stable_hash(f"topic-{topic}") % (1 << 32))
            subject_pool = topic_rng.choice(len(SUBJECTS), size=6, replace=False)
            self._subject_pools[topic] = subject_pool

        num_entities = int(rng.choice([1, 2, 3], p=[0.45, 0.35, 0.20]))
        num_attributes = int(rng.integers(0, 3))
        has_action = bool(rng.random() < 0.45)
        has_scene = bool(rng.random() < 0.55)
        num_style_tags = int(rng.integers(0, 4))

        parts: list[str] = []
        entity_phrases = []
        for _ in range(num_entities):
            subject = SUBJECTS[int(rng.choice(subject_pool))]
            attrs = rng.choice(ATTRIBUTES, size=min(num_attributes, 2), replace=False)
            phrase = " ".join(list(attrs) + [subject]) if num_attributes else subject
            entity_phrases.append(f"a {phrase}")
        parts.append(" and ".join(entity_phrases))
        if has_action:
            parts.append(str(rng.choice(ACTIONS)))
        if has_scene:
            parts.append(str(rng.choice(SCENES)))
        style_tags = list(rng.choice(STYLES, size=1)) if num_style_tags else []
        style_tags += list(rng.choice(QUALITY_TAGS, size=max(0, num_style_tags - 1), replace=False))
        text = ", ".join([" ".join(parts)] + style_tags)

        complexity = self._complexity(
            num_entities, num_attributes, num_style_tags, has_action, has_scene
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
    ) -> float:
        """Latent complexity in [0, 1] from the prompt structure plus noise."""
        raw = (
            0.30 * (num_entities - 1)
            + 0.09 * num_attributes
            + 0.15 * has_action
            + 0.10 * has_scene
            + 0.04 * num_style_tags
        )
        noise = self._rng.normal(0.0, 0.05)
        return float(np.clip(raw + noise + 0.05 + self.complexity_bias, 0.0, 1.0))
