"""Noise-state store: the EFS stand-in holding cached intermediate states.

Each entry records, for a previously served prompt, which denoising-step
checkpoints are available.  The store enforces a capacity limit with LRU
eviction (production caches are bounded) and tracks hit/miss statistics.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.simulation.randomness import stable_hash


@dataclass(frozen=True)
class StoredState:
    """Metadata for one cached intermediate noise state."""

    prompt_id: int
    prompt_text: str
    #: Denoising steps at which checkpoints were saved for this prompt.
    available_steps: tuple[int, ...]
    size_kib_per_step: float = 144.0

    def checksum(self) -> int:
        """Content checksum over the fields a corruption would damage.

        Computed at write time and re-verified on retrieval by the cache
        tier: an entry whose stored checksum no longer matches its content
        is poisoned and must not be served.
        """
        payload = f"{self.prompt_id}|{self.prompt_text}|{self.available_steps}"
        return stable_hash(f"noise-state:{payload}")

    @property
    def total_size_kib(self) -> float:
        """Total storage footprint of all checkpoints for this prompt."""
        return self.size_kib_per_step * len(self.available_steps)

    def best_step_for(self, requested_step: int) -> int | None:
        """Largest available checkpoint not exceeding ``requested_step``.

        A request for K=20 can be served from a K=15 checkpoint (fewer steps
        are skipped, quality is at least as good), but not from K=25.
        """
        candidates = [s for s in self.available_steps if s <= requested_step]
        return max(candidates) if candidates else None


@dataclass
class StoreStatistics:
    """Aggregate hit/miss counters for the store."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class NoiseStateStore:
    """LRU-bounded store of intermediate noise states keyed by prompt id.

    ``capacity_entries`` None means the default bound of 50,000 entries.
    ``on_evict`` (if given) is called with each evicted prompt id — the
    caches use it to drop the evicted prompt's vector-index rows, so quota
    evictions keep the index and the store in sync.
    """

    def __init__(self, capacity_entries: int | None = None, on_evict=None) -> None:
        capacity = 50_000 if capacity_entries is None else int(capacity_entries)
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_entries = capacity
        self.on_evict = on_evict
        self._entries: OrderedDict[int, StoredState] = OrderedDict()
        self.stats = StoreStatistics()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, prompt_id: int) -> bool:
        return prompt_id in self._entries

    def put(self, state: StoredState) -> None:
        """Insert or refresh a cached state, evicting LRU entries if full."""
        if state.prompt_id in self._entries:
            self._entries.move_to_end(state.prompt_id)
        self._entries[state.prompt_id] = state
        self.stats.writes += 1
        while len(self._entries) > self.capacity_entries:
            evicted_id, _ = self._entries.popitem(last=False)
            self.stats.evictions += 1
            if self.on_evict is not None:
                self.on_evict(evicted_id)

    def get(self, prompt_id: int) -> StoredState | None:
        """Fetch a cached state, updating LRU order and hit statistics."""
        entry = self._entries.get(prompt_id)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(prompt_id)
        self.stats.hits += 1
        return entry

    def touch(self, prompt_id: int) -> None:
        """Mark an entry most recently used, without counting a lookup."""
        if prompt_id in self._entries:
            self._entries.move_to_end(prompt_id)

    def discard(self, prompt_id: int) -> None:
        """Drop an entry if present (not an eviction: ``on_evict`` is not called)."""
        self._entries.pop(prompt_id, None)
