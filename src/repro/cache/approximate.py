"""The approximate-caching pipeline a GPU worker executes for each AC request.

For a prompt served at AC level K > 0 the worker:

1. embeds the prompt and queries the vector database for the most similar
   previously served prompt;
2. fetches that prompt's intermediate noise state (at the largest cached
   step <= K) from the noise-state store over the network;
3. resumes denoising from that step.

If the similarity is too low, the state is missing, or the network is down,
the request falls back to full generation (effective K = 0).  After serving,
the worker writes back this prompt's states so future similar prompts hit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial

from repro.cache.network import NetworkModel
from repro.cache.store import NoiseStateStore, StoredState
from repro.cache.vectordb import VectorDatabase
from repro.prompts.embedding import PromptEmbedder
from repro.prompts.generator import Prompt
from repro.prompts.memo import PromptMemo


@dataclass(frozen=True, slots=True)
class RetrievalOutcome:
    """Result of the cache-retrieval phase for one request."""

    requested_skip: int
    #: Denoising steps actually skipped (0 when retrieval failed or missed).
    effective_skip: int
    #: Wall-clock spent on VDB search + state fetch (seconds); 0 when no
    #: retrieval was attempted.
    retrieval_latency_s: float
    hit: bool
    #: Cosine similarity of the matched prompt (None on miss/outage).
    similarity: float | None = None
    #: True when the retrieval failed because the network was unreachable.
    network_failed: bool = False

    @classmethod
    def miss(cls, requested_skip: int, latency_s: float, similarity=None) -> RetrievalOutcome:
        """No usable state (or, at ``requested_skip`` 0, no retrieval asked)."""
        return cls(requested_skip, 0, latency_s, False, similarity)

    @classmethod
    def unreachable(cls, requested_skip: int) -> RetrievalOutcome:
        """The network was down, so nothing was searched."""
        return cls(requested_skip, 0, 0.0, False, None, True)


class CacheBase:
    """What the flat cache and the distributed tier share.

    The anonymous tenant ``""`` and each configured tenant own a namespace:
    retrievals only match its history, and a tag that is not configured is
    served as ``""``.  Each namespace's :class:`NoiseStateStore` is its one
    quota LRU (``cache_quota``, or the store's default bound); its evictions
    go to the subclass's ``_evict(namespace, prompt_id)``.  Subclasses also
    supply ``store_counts()``, the (hits, misses) of their state lookups.

    The retrieval ledger counts every attempt with a positive requested
    skip, whether it died at the network, the index, the store or the step
    check; the store-level :attr:`hit_rate` only sees lookups that matched.
    """

    def __init__(
        self,
        embedder: PromptEmbedder | None,
        network: NetworkModel | None,
        similarity_threshold: float,
        checkpoint_steps: tuple[int, ...],
        tenants: tuple,
    ) -> None:
        self.embedder = embedder or PromptEmbedder()
        self.network = network or NetworkModel()
        self.similarity_threshold = float(similarity_threshold)
        self.checkpoint_steps = tuple(sorted(checkpoint_steps))
        quotas = {"": None, **{spec.name: spec.cache_quota for spec in tenants}}
        self._stores: dict[str, NoiseStateStore] = {
            name: NoiseStateStore(quota, on_evict=partial(self._evict, name))
            for name, quota in quotas.items()
        }
        self.retrieval_attempts = 0
        self.retrieval_hits = 0
        self._tenant_attempts: dict[str, int] = defaultdict(int)
        self._tenant_hits: dict[str, int] = defaultdict(int)

    def _namespace(self, tenant: str) -> str:
        """The namespace serving ``tenant``."""
        return tenant if tenant in self._stores else ""

    def _cached(self, prompt: Prompt) -> bool:
        """True when ``prompt``'s states are already stored."""
        return prompt.prompt_id in self._stores[self._namespace(prompt.tenant)]

    def tenant_entries(self, tenant: str) -> int:
        """Entries currently held in the namespace serving ``tenant``."""
        return len(self._stores[self._namespace(tenant)])

    def _tally(self, tenant: str, outcome: RetrievalOutcome) -> RetrievalOutcome:
        """Count ``outcome`` in the retrieval ledger and pass it through."""
        if outcome.requested_skip > 0:
            self.retrieval_attempts += 1
            self._tenant_attempts[tenant] += 1
            if outcome.hit:
                self.retrieval_hits += 1
                self._tenant_hits[tenant] += 1
        return outcome

    def _state(self, prompt: Prompt) -> StoredState:
        return StoredState(
            prompt_id=prompt.prompt_id,
            prompt_text=prompt.text,
            available_steps=self.checkpoint_steps,
        )

    def _fresh_embedded(self, prompts: list[Prompt]):
        """``(prompt, embedding)`` for each prompt a warm must store.

        Already-cached prompts (and repeats within the batch) are skipped
        exactly as per-prompt ``store_states`` calls would skip them; the
        rest are embedded through the embedder's vectorized batch path.
        """
        fresh: list[Prompt] = []
        seen: set[tuple[str, int]] = set()
        for prompt in prompts:
            key = (self._namespace(prompt.tenant), prompt.prompt_id)
            if key in seen or prompt.prompt_id in self._stores[key[0]]:
                continue
            seen.add(key)
            fresh.append(prompt)
        return zip(fresh, self.embedder.embed_batch(fresh)) if fresh else ()

    @property
    def retrieval_hit_rate(self) -> float:
        """Fraction of retrieval attempts that produced a usable state."""
        if self.retrieval_attempts == 0:
            return 0.0
        return self.retrieval_hits / self.retrieval_attempts

    @property
    def smoothed_hit_rate(self) -> float:
        """Retrieval hit rate with a prior of 5 hits in 10 attempts, so a
        small sample reads near 0.5 (the admission capacity estimate)."""
        hits, attempts = self.retrieval_hits, self.retrieval_attempts
        return (hits + 5.0) / (attempts + 10.0)

    def retrieval_hit_rate_for(self, tenant: str) -> float:
        """Retrieval hit rate over one tenant's attempts."""
        attempts = self._tenant_attempts.get(tenant, 0)
        if attempts == 0:
            return 0.0
        return self._tenant_hits.get(tenant, 0) / attempts

    @property
    def hit_rate(self) -> float:
        """Fraction of state lookups that hit (the whole cache combined)."""
        hits, misses = self.store_counts()
        total = hits + misses
        return hits / total if total else 0.0

    def record_fields(self, tenants) -> dict:
        """This cache's :class:`~repro.metrics.record.RunRecord` fields: its
        store and retrieval counts, and each configured tenant's retrievals
        and entries."""
        hits, misses = self.store_counts()
        names = [spec.name for spec in tenants]
        return {
            "store_hits": hits,
            "store_misses": misses,
            "retrieval_hits": self.retrieval_hits,
            "retrieval_attempts": self.retrieval_attempts,
            "tenant_retrieval_hits": {name: self._tenant_hits.get(name, 0) for name in names},
            "tenant_retrieval_attempts": {
                name: self._tenant_attempts.get(name, 0) for name in names
            },
            "cache_entries": {name: self.tenant_entries(name) for name in names} or None,
        }

    def probe_network(self, now_s: float) -> float | None:
        """Background network probe used by the strategy switcher."""
        return self.network.probe(now_s)


class ApproximateCache(CacheBase):
    """Coordinates the vector database, noise-state store and network model.

    Each namespace pairs its store with a vector index keyed by prompt id;
    a store eviction deletes the matching index row, so the two always hold
    the same prompts and a tenant's churn reshapes only its own working set.
    """

    def __init__(
        self,
        embedder: PromptEmbedder | None = None,
        network: NetworkModel | None = None,
        similarity_threshold: float = 0.78,
        checkpoint_steps: tuple[int, ...] = (5, 10, 15, 20, 25),
        tenants: tuple = (),
    ) -> None:
        super().__init__(embedder, network, similarity_threshold, checkpoint_steps, tenants)
        self._indexes: dict[str, VectorDatabase] = {
            name: VectorDatabase(dim=self.embedder.dim) for name in self._stores
        }
        #: Nearest-match memo: (tenant, prompt hash) -> (db mutation counter
        #: at compute time, match).  The index search is a pure function of
        #: the stored vectors, and long traces cycle the same prompts while
        #: the index stops growing once every dataset prompt is cached — so
        #: steady-state retrievals skip the embed + O(entries) scan entirely.
        self._nearest_memo = PromptMemo()

    def _evict(self, namespace: str, prompt_id: int) -> None:
        self._indexes[namespace].delete(prompt_id)

    def retrieve(self, prompt: Prompt, requested_skip: int, now_s: float) -> RetrievalOutcome:
        """Attempt to retrieve a noise state enabling ``requested_skip``."""
        return self._tally(prompt.tenant, self._retrieve(prompt, requested_skip, now_s))

    def _retrieve(self, prompt: Prompt, requested_skip: int, now_s: float) -> RetrievalOutcome:
        if requested_skip <= 0:
            return RetrievalOutcome.miss(0, 0.0)
        latency = self.network.retrieval_latency(now_s)
        if latency is None:
            return RetrievalOutcome.unreachable(requested_skip)

        namespace = self._namespace(prompt.tenant)
        vectordb = self._indexes[namespace]
        memo_key = (prompt.tenant, prompt.content_hash())
        cached = self._nearest_memo.get(memo_key)
        if cached is not None and cached[0] == vectordb.mutations:
            match = cached[1]
        else:
            match = vectordb.nearest(self.embedder.embed(prompt))
            self._nearest_memo.remember(memo_key, (vectordb.mutations, match))
        if match is None or match.similarity < self.similarity_threshold:
            return RetrievalOutcome.miss(
                requested_skip, latency, None if match is None else match.similarity
            )

        state = self._stores[namespace].get(match.key)
        usable_step = None if state is None else state.best_step_for(requested_skip)
        if usable_step is None:
            return RetrievalOutcome.miss(requested_skip, latency, match.similarity)
        return RetrievalOutcome(
            requested_skip=requested_skip,
            effective_skip=usable_step,
            retrieval_latency_s=latency,
            hit=True,
            similarity=match.similarity,
        )

    def _store_embedded(self, prompt: Prompt, embedding) -> None:
        """Index one prompt's embedding and record its noise states (in the
        prompt's namespace)."""
        namespace = self._namespace(prompt.tenant)
        self._indexes[namespace].upsert(embedding, key=prompt.prompt_id)
        self._stores[namespace].put(self._state(prompt))

    def store_states(self, prompt: Prompt) -> None:
        """Record the intermediate states produced while serving ``prompt``.

        Re-serving a prompt that is already cached is a no-op so the vector
        index does not accumulate duplicates.
        """
        if not self._cached(prompt):
            self._store_embedded(prompt, self.embedder.embed(prompt))

    def warm(self, prompts: list[Prompt]) -> None:
        """Pre-populate the cache with a prompt history (batch-embedded,
        duplicates skipped)."""
        for prompt, embedding in self._fresh_embedded(prompts):
            self._store_embedded(prompt, embedding)

    def store_counts(self) -> tuple[int, int]:
        """(hits, misses) over state-store lookups, all namespaces combined."""
        hits = misses = 0
        for store in self._stores.values():
            hits += store.stats.hits
            misses += store.stats.misses
        return hits, misses
