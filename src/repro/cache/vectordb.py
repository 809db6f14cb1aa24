"""In-memory vector database (the Qdrant stand-in).

Stores prompt embeddings and answers nearest-neighbour queries by cosine
similarity with one exact flat index.  Rows are stored unit-normalised so a
search is a single zero-copy ``matrix[:count] @ query`` (no per-query
matrix copy, no norm division) followed by an ``argpartition`` top-k.
Inserts append a row; deletes swap the last row into the freed slot, so
both are O(1).  Rows are addressed by integer key: an automatic counter, or
the caller's own key (the flat cache uses prompt ids, the cache tier's
nodes use global insertion sequence numbers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SearchResult:
    """One nearest-neighbour hit."""

    key: int
    similarity: float
    payload: object


class VectorDatabase:
    """Exact cosine-similarity vector index."""

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self._capacity = 1024
        #: Unit-normalised row storage; cosine similarity is a plain dot.
        self._matrix = np.zeros((self._capacity, self.dim), dtype=np.float64)
        self._keys: list[int] = []
        self._key_index: dict[int, int] = {}
        self._payloads: dict[int, dict] = {}
        self._next_key = 0
        #: Bumped on every upsert/delete.  Search results are a pure function
        #: of the stored vectors, so callers may memoise them against this
        #: counter (the approximate cache's nearest-match memo does).
        self.mutations = 0

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._key_index)

    def _grow_if_needed(self) -> None:
        count = len(self._keys)
        if count < self._capacity:
            return
        self._capacity *= 2
        matrix = np.zeros((self._capacity, self.dim), dtype=np.float64)
        matrix[:count] = self._matrix[:count]
        self._matrix = matrix

    def upsert(self, vector: np.ndarray, payload=None, key: int | None = None) -> int:
        """Store a vector, returning its key.  O(1) amortised.

        Without ``key`` the row gets the next automatic key, which always
        lies above every key stored so far.  A ``key`` that is already
        stored has its row replaced in place.
        """
        vector = self._check_vector(vector)
        if key is None:
            key = self._next_key
        index = self._key_index.get(key)
        if index is None:
            self._grow_if_needed()
            index = len(self._keys)
            self._keys.append(key)
            self._key_index[key] = index
            self._next_key = max(self._next_key, key + 1)
        self.mutations += 1
        norm = max(float(np.sqrt(vector @ vector)), 1e-12)
        self._matrix[index] = vector / norm
        self._payloads[key] = {} if payload is None else payload
        return key

    def delete(self, key: int) -> bool:
        """Delete a vector by key; returns False if the key was unknown.

        O(1) via the key→row map: the last row is swapped into the freed
        slot.
        """
        index = self._key_index.pop(key, None)
        if index is None:
            return False
        self.mutations += 1
        del self._payloads[key]
        last = len(self._keys) - 1
        if index != last:
            moved_key = self._keys[last]
            self._keys[index] = moved_key
            self._key_index[moved_key] = index
            self._matrix[index] = self._matrix[last]
        self._keys.pop()
        return True

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(self, query: np.ndarray, top_k: int = 1) -> list[SearchResult]:
        """Return the ``top_k`` most similar stored vectors.

        Ties are broken deterministically: higher similarity first, then
        lower row index.
        """
        query = self._check_vector(query)
        if not self._key_index:
            return []
        # sqrt(q @ q) is np.linalg.norm without the errstate/dispatch
        # overhead (bit-identical for real 1-D input).
        query = query / max(float(np.sqrt(query @ query)), 1e-12)
        sims = self._matrix[: len(self._keys)] @ query
        return [
            self._result(int(position), float(sims[int(position)]))
            for position in _top_k_positions(sims, top_k)
        ]

    def nearest(self, query: np.ndarray) -> SearchResult | None:
        """Most similar stored vector, or None when the index is empty."""
        hits = self.search(query, top_k=1)
        return hits[0] if hits else None

    def _result(self, index: int, similarity: float) -> SearchResult:
        key = self._keys[index]
        return SearchResult(key=key, similarity=float(similarity), payload=self._payloads[key])

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _check_vector(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vector.shape[0] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {vector.shape[0]}")
        return vector


def _top_k_positions(sims: np.ndarray, top_k: int) -> np.ndarray:
    """Positions of the ``top_k`` largest sims, similarity-desc/index-asc.

    ``argpartition`` keeps the selection O(n) instead of the O(n log n) a
    full ``argsort`` costs; only the selected candidates are sorted.
    """
    n = sims.shape[0]
    if top_k <= 0:
        return np.empty(0, dtype=np.int64)
    if top_k == 1:
        return np.array([int(np.argmax(sims))], dtype=np.int64)
    if top_k < n:
        part = np.argpartition(-sims, top_k - 1)[:top_k]
        # argpartition picks an index-arbitrary subset when equal
        # similarities straddle the k-th position; widen to every position
        # tied with the boundary value so the index-asc rule decides.
        kth = sims[part].min()
        candidates = np.flatnonzero(sims >= kth)
        order = candidates[np.lexsort((candidates, -sims[candidates]))]
        return order[:top_k]
    return np.lexsort((np.arange(n), -sims))
