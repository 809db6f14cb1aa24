"""Deterministic prompt embeddings.

The real system embeds prompts with CLIP's text encoder and uses the vectors
for approximate-cache similarity search.  Here we build a hashed
bag-of-words embedding with a topic component so that prompts from the same
topic cluster land close together — that locality is what gives approximate
caching useful hit rates.
"""

from __future__ import annotations

import math

import numpy as np

from repro.prompts.generator import Prompt
from repro.prompts.memo import PromptMemo, WordTable, tokenize
from repro.simulation.randomness import stable_hash


class PromptEmbedder:
    """Maps prompts to unit-norm float vectors."""

    def __init__(self, dim: int = 64, topic_weight: float = 0.65) -> None:
        if dim < 8:
            raise ValueError("embedding dimension must be at least 8")
        self.dim = int(dim)
        self.topic_weight = float(topic_weight)
        # Embeddings are deterministic per prompt; memoise them because the
        # cache path embeds the same prompt on every retrieval and write-back.
        self._cache = PromptMemo()
        self._topic_cache = PromptMemo()
        #: word -> (bucket, sign): each word is hashed once.
        self._words = WordTable(self._word_entry)

    def embed_text(self, text: str) -> np.ndarray:
        """Embed raw text (hashed bag-of-words, unit norm)."""
        # Signed word counts are integers, so summing them as Python floats
        # in any order gives exactly the values the vector would hold.
        counts = [0.0] * self.dim
        words = self._words
        for word in tokenize(text):
            index, sign = words[word]
            counts[index] += sign
        return self._normalize(np.array(counts))

    def _word_entry(self, word: str) -> tuple[int, float]:
        index = stable_hash("tok:" + word) % self.dim
        sign = 1.0 if stable_hash("sign:" + word) % 2 == 0 else -1.0
        return index, sign

    def embed(self, prompt: Prompt) -> np.ndarray:
        """Embed a structured prompt, mixing token and topic components.

        The cache key reuses the hash memoised on the prompt object, so a
        repeat lookup costs two dict probes instead of re-hashing the whole
        prompt text on every retrieval / write-back.
        """
        key = (prompt.content_hash(), prompt.topic)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        return self._cache.remember(key, self._embed_uncached(prompt))

    def _embed_uncached(self, prompt: Prompt) -> np.ndarray:
        token_vec = self.embed_text(prompt.text)
        topic_vec = self._topic_vector(prompt.topic)
        mixed = (1.0 - self.topic_weight) * token_vec + self.topic_weight * topic_vec
        return self._normalize(mixed)

    def embed_batch(self, prompts: list[Prompt]) -> np.ndarray:
        """Embed a list of prompts into an (n, dim) matrix.

        Vectorized path used by cache warming: uncached prompts are mixed
        against the topic matrix in one batched operation (tokenisation is
        inherently per-prompt), then normalised row-wise with the same
        scalar norm the single-prompt path uses so both paths produce
        bit-identical vectors.
        """
        if not prompts:
            return np.zeros((0, self.dim), dtype=np.float64)
        keys = [(p.content_hash(), p.topic) for p in prompts]
        rows: dict[tuple[int, int], np.ndarray | None] = {}
        fresh: list[tuple[tuple[int, int], Prompt]] = []
        for key, prompt in zip(keys, prompts):
            if key not in rows:
                rows[key] = self._cache.get(key)
                if rows[key] is None:
                    fresh.append((key, prompt))
        if fresh:
            token_matrix = np.stack([self.embed_text(p.text) for _, p in fresh])
            topic_matrix = np.stack([self._topic_vector(p.topic) for _, p in fresh])
            mixed = (1.0 - self.topic_weight) * token_matrix + self.topic_weight * topic_matrix
            for (key, _), row in zip(fresh, mixed):
                rows[key] = self._cache.remember(key, self._normalize(row))
        return np.stack([rows[key] for key in keys])

    def _topic_vector(self, topic: int) -> np.ndarray:
        vector = self._topic_cache.get(topic)
        if vector is None:
            rng = np.random.default_rng(stable_hash(f"topic-embed-{topic}") % (1 << 32))
            vector = self._topic_cache.remember(topic, self._normalize(rng.normal(size=self.dim)))
        return vector

    @staticmethod
    def _normalize(vector: np.ndarray) -> np.ndarray:
        # The 2-norm as np.linalg.norm computes it for a 1-D vector, without
        # its dispatch overhead.
        norm = math.sqrt(vector.dot(vector))
        if norm == 0:
            unit = np.zeros_like(vector)
            unit[0] = 1.0
            return unit
        return vector / norm

    @staticmethod
    def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
        """Cosine similarity between two vectors."""
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        if denom == 0:
            return 0.0
        return float(np.dot(a, b) / denom)
