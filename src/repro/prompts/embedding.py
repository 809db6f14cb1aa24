"""Deterministic prompt embeddings.

The real system embeds prompts with CLIP's text encoder and uses the vectors
for approximate-cache similarity search.  Here we build a hashed
bag-of-words embedding with a topic component so that prompts from the same
topic cluster land close together — that locality is what gives approximate
caching useful hit rates.
"""

from __future__ import annotations

import math
from itertools import chain

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
        """Embed a list of prompts into an (n, dim) matrix whose row i is
        ``embed(prompts[i])``, memo included.

        Every prompt the memo misses is embedded in one vectorised pass: one
        ``bincount`` sums the signed word counts of all of them, and the
        token and mixed vectors are normalised by :meth:`_normalize_rows`,
        so each row is bit-identical to :meth:`_embed_uncached`.  The
        serving loop embeds the arrivals it reads ahead here, and cache
        warming stores what it returns.
        """
        if not prompts:
            return np.zeros((0, self.dim), dtype=np.float64)
        keys = [(p.content_hash(), p.topic) for p in prompts]

        def derive(missed: list[int]) -> np.ndarray:
            fresh = [prompts[i] for i in missed]
            tokens = self._embed_texts([p.text for p in fresh])
            topics = np.array([self._topic_vector(p.topic) for p in fresh])
            mixed = (1.0 - self.topic_weight) * tokens + self.topic_weight * topics
            return self._normalize_rows(mixed)

        return np.stack(self._cache.remember_many(keys, derive))

    def _embed_texts(self, texts: list[str]) -> np.ndarray:
        """:meth:`embed_text` of each text, as the rows of one matrix."""
        table = self._words
        dim = self.dim
        entries: list[tuple[int, float]] = []
        per_text: list[int] = []
        for text in texts:
            before = len(entries)
            entries.extend(map(table.__getitem__, tokenize(text)))
            per_text.append(len(entries) - before)
        n = len(texts)
        flat = np.fromiter(chain.from_iterable(entries), np.float64, 2 * len(entries))
        buckets = np.repeat(np.arange(n) * dim, per_text) + flat[0::2].astype(np.intp)
        counts = np.bincount(buckets, weights=flat[1::2], minlength=n * dim)
        return self._normalize_rows(counts.reshape(n, dim))

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
    def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
        """:meth:`_normalize` of each row.  ``vecdot`` runs the 1-D ``dot``
        on each row; ``einsum`` or ``sum(axis=1)`` may sum in another order
        and round apart."""
        norms = np.sqrt(np.vecdot(matrix, matrix))
        zero = norms == 0
        unit = matrix / np.where(zero, 1.0, norms)[:, None]
        unit[zero] = 0.0
        unit[zero, 0] = 1.0
        return unit

    @staticmethod
    def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
        """Cosine similarity between two vectors."""
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        if denom == 0:
            return 0.0
        return float(np.dot(a, b) / denom)
