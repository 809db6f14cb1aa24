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

from repro.cache.network import NetworkModel
from repro.cache.store import NoiseStateStore, StoredState
from repro.cache.vectordb import VectorDatabase
from repro.prompts.embedding import PromptEmbedder
from repro.prompts.generator import Prompt
from repro.prompts.memo import PromptMemo


class _TenantNamespace:
    """One tenant's private slice of the cache: vector index + state store.

    Index rows are keyed by prompt id.  The store is bounded (the tenant's
    entry quota, or a default capacity) and each store eviction deletes the
    matching index row, so the two structures always hold the same prompts
    and a tenant's churn reshapes only its own working set.
    """

    def __init__(self, dim: int, quota: int | None) -> None:
        self.vectordb = VectorDatabase(dim=dim)
        self.store = NoiseStateStore(
            capacity_entries=quota if quota is not None else 50_000,
            on_evict=self._evict,
        )

    def _evict(self, prompt_id: int) -> None:
        self.vectordb.delete(prompt_id)


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


class ApproximateCache:
    """Coordinates the vector database, noise-state store and network model."""

    def __init__(
        self,
        embedder: PromptEmbedder | None = None,
        network: NetworkModel | None = None,
        similarity_threshold: float = 0.78,
        checkpoint_steps: tuple[int, ...] = (5, 10, 15, 20, 25),
        tenants: tuple = (),
    ) -> None:
        self.embedder = embedder or PromptEmbedder()
        self.network = network or NetworkModel()
        self.similarity_threshold = float(similarity_threshold)
        self.checkpoint_steps = tuple(sorted(checkpoint_steps))
        #: Private namespace per configured tenant (the anonymous tenant ""
        #: included): a tenant's retrievals only match its own history and
        #: its quota bounds only its own entries.  Every other tenant shares
        #: the default namespace, so an empty tenant set is one namespace.
        self._namespaces: dict[str, _TenantNamespace] = {
            spec.name: _TenantNamespace(dim=self.embedder.dim, quota=spec.cache_quota)
            for spec in tenants
        }
        self._default = _TenantNamespace(dim=self.embedder.dim, quota=None)
        #: End-to-end retrieval accounting: every attempt with a positive
        #: requested skip counts, whether it died at the network, the vector
        #: index, the state store or the step check.  (The store-level
        #: ``hit_rate`` only sees lookups that already matched the index.)
        self.retrieval_attempts = 0
        self.retrieval_hits = 0
        self._tenant_attempts: dict[str, int] = defaultdict(int)
        self._tenant_hits: dict[str, int] = defaultdict(int)
        #: Nearest-match memo: (tenant, prompt hash) -> (db mutation counter
        #: at compute time, match).  The index search is a pure function of
        #: the stored vectors, and long traces cycle the same prompts while
        #: the index stops growing once every dataset prompt is cached — so
        #: steady-state retrievals skip the embed + O(entries) scan entirely.
        self._nearest_memo = PromptMemo()

    # ------------------------------------------------------------------ #
    # Tenant namespacing
    # ------------------------------------------------------------------ #
    def _namespace(self, tenant: str) -> _TenantNamespace:
        return self._namespaces.get(tenant, self._default)

    def tenant_entries(self, tenant: str) -> int:
        """Entries currently held in one tenant's namespace."""
        return len(self._namespace(tenant).store)

    # ------------------------------------------------------------------ #
    # Retrieval path
    # ------------------------------------------------------------------ #
    def retrieve(self, prompt: Prompt, requested_skip: int, now_s: float) -> RetrievalOutcome:
        """Attempt to retrieve a noise state enabling ``requested_skip``."""
        outcome = self._retrieve(prompt, requested_skip, now_s)
        if requested_skip > 0:
            self.retrieval_attempts += 1
            self._tenant_attempts[prompt.tenant] += 1
            if outcome.hit:
                self.retrieval_hits += 1
                self._tenant_hits[prompt.tenant] += 1
        return outcome

    @property
    def retrieval_hit_rate(self) -> float:
        """Fraction of retrieval attempts that produced a usable state."""
        if self.retrieval_attempts == 0:
            return 0.0
        return self.retrieval_hits / self.retrieval_attempts

    def retrieval_hit_rate_for(self, tenant: str) -> float:
        """Retrieval hit rate within one tenant's namespace."""
        attempts = self._tenant_attempts.get(tenant, 0)
        if attempts == 0:
            return 0.0
        return self._tenant_hits.get(tenant, 0) / attempts

    def _retrieve(self, prompt: Prompt, requested_skip: int, now_s: float) -> RetrievalOutcome:
        if requested_skip <= 0:
            return RetrievalOutcome(
                requested_skip=0, effective_skip=0, retrieval_latency_s=0.0, hit=False
            )

        latency = self.network.retrieval_latency(now_s)
        if latency is None:
            return RetrievalOutcome(
                requested_skip=requested_skip,
                effective_skip=0,
                retrieval_latency_s=0.0,
                hit=False,
                network_failed=True,
            )

        namespace = self._namespace(prompt.tenant)
        vectordb = namespace.vectordb
        memo_key = (prompt.tenant, prompt.content_hash())
        cached = self._nearest_memo.get(memo_key)
        if cached is not None and cached[0] == vectordb.mutations:
            match = cached[1]
        else:
            match = vectordb.nearest(self.embedder.embed(prompt))
            self._nearest_memo.remember(memo_key, (vectordb.mutations, match))
        if match is None or match.similarity < self.similarity_threshold:
            return RetrievalOutcome(
                requested_skip=requested_skip,
                effective_skip=0,
                retrieval_latency_s=latency,
                hit=False,
                similarity=None if match is None else match.similarity,
            )

        state = namespace.store.get(match.key)
        if state is None:
            return RetrievalOutcome(
                requested_skip=requested_skip,
                effective_skip=0,
                retrieval_latency_s=latency,
                hit=False,
                similarity=match.similarity,
            )

        usable_step = state.best_step_for(requested_skip)
        if usable_step is None:
            return RetrievalOutcome(
                requested_skip=requested_skip,
                effective_skip=0,
                retrieval_latency_s=latency,
                hit=False,
                similarity=match.similarity,
            )
        return RetrievalOutcome(
            requested_skip=requested_skip,
            effective_skip=usable_step,
            retrieval_latency_s=latency,
            hit=True,
            similarity=match.similarity,
        )

    # ------------------------------------------------------------------ #
    # Write-back path
    # ------------------------------------------------------------------ #
    def _store_embedded(self, prompt: Prompt, embedding) -> None:
        """Index one prompt's embedding and record its noise states (in the
        prompt's tenant namespace)."""
        namespace = self._namespace(prompt.tenant)
        namespace.vectordb.upsert(embedding, key=prompt.prompt_id)
        namespace.store.put(
            StoredState(
                prompt_id=prompt.prompt_id,
                prompt_text=prompt.text,
                available_steps=self.checkpoint_steps,
            )
        )

    def store_states(self, prompt: Prompt) -> None:
        """Record the intermediate states produced while serving ``prompt``.

        Re-serving a prompt that is already cached is a no-op so the vector
        index does not accumulate duplicates.
        """
        if prompt.prompt_id in self._namespace(prompt.tenant).store:
            return
        self._store_embedded(prompt, self.embedder.embed(prompt))

    def warm(self, prompts: list[Prompt]) -> None:
        """Pre-populate the cache with a prompt history.

        Embeddings are computed through the embedder's vectorized batch
        path; already-cached prompts (and duplicates within the batch) are
        skipped exactly as per-prompt :meth:`store_states` calls would.
        """
        fresh: list[Prompt] = []
        seen: set[tuple[str, int]] = set()
        for prompt in prompts:
            key = (prompt.tenant, prompt.prompt_id)
            if key in seen or prompt.prompt_id in self._namespace(prompt.tenant).store:
                continue
            seen.add(key)
            fresh.append(prompt)
        if not fresh:
            return
        embeddings = self.embedder.embed_batch(fresh)
        for prompt, embedding in zip(fresh, embeddings):
            self._store_embedded(prompt, embedding)

    # ------------------------------------------------------------------ #
    # Monitoring
    # ------------------------------------------------------------------ #
    def probe_network(self, now_s: float) -> float | None:
        """Background network probe used by the strategy switcher."""
        return self.network.probe(now_s)

    def store_counts(self) -> tuple[int, int]:
        """(hits, misses) over state-store lookups, all namespaces combined."""
        hits = misses = 0
        for namespace in (self._default, *self._namespaces.values()):
            hits += namespace.store.stats.hits
            misses += namespace.store.stats.misses
        return hits, misses

    @property
    def hit_rate(self) -> float:
        """Fraction of store lookups that hit (all namespaces combined)."""
        hits, misses = self.store_counts()
        total = hits + misses
        return hits / total if total else 0.0
