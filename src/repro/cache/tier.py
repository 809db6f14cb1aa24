"""Distributed cache tier: consistent-hash sharded, replicated vector index.

The single-process :class:`~repro.cache.approximate.ApproximateCache` keeps
one flat index per tenant on one host.  :class:`CacheTier` turns the cache
into a service with placement semantics:

- **Placement.** Every logical entry (``tenant:prompt_id``) is owned by one
  of N :class:`CacheNode` objects, chosen on a consistent-hash ring with
  virtual nodes (:class:`HashRing`).  Placement is deterministic — it derives
  from :func:`~repro.simulation.randomness.stable_hash` only — so the same
  seed gives the same layout on every run.
- **Fan-out search.** Each node keeps one flat
  :class:`~repro.cache.vectordb.VectorDatabase` per tenant, keyed by each
  entry's global insertion sequence.  Similarity search fans out to every
  *reachable* node, each node answers its nearest row (ties: lowest row),
  and the merge keeps the best by similarity descending, then sequence
  ascending.
- **Replication with bounded staleness.** Writes land on the owner
  immediately and on ``replication`` successor nodes after
  ``replication_lag_s``; reads fall back to replicas when the owner is
  unreachable or *hot* (fetch rate above ``hot_shard_threshold`` per
  minute), counting ``replica_reads`` and ``stale_misses``.
- **Cross-shard protocols.** Quota eviction runs against one LRU per
  namespace across all shards, the same :class:`NoiseStateStore` the flat
  cache uses (the owner drops the entry, replicas receive a tombstone;
  tombstones older than the staleness bound are compacted), and ring
  changes (``add_node`` / ``remove_node``) migrate exactly the entries
  whose owner moved.
- **Per-node network conditions.** Every node carries its own
  :class:`~repro.cache.network.NetworkModel`, so outage/congestion windows
  can hit one shard while the rest keep serving; the tier-level model
  (``network``) represents the client side and keeps the probe/strategy-
  switch path identical to the flat cache's.

The tier shares :class:`~repro.cache.approximate.CacheBase` with the flat
cache (namespaces, quota LRUs, the retrieval ledger, the report block), so
workers, the gateway and the scenario runtime use one code path
whichever cache is installed.  ``cache_shards=1`` with replication off never
builds a tier at all (see :func:`repro.cache.build_cache`), keeping that
configuration bit-identical to the flat cache.
"""

from __future__ import annotations

import bisect
from dataclasses import replace

import numpy as np

from repro.cache.approximate import CacheBase, RetrievalOutcome
from repro.cache.network import NetworkCondition, NetworkModel
from repro.cache.vectordb import VectorDatabase
from repro.prompts.embedding import PromptEmbedder
from repro.prompts.generator import Prompt
from repro.simulation.randomness import stable_hash


def _key_hash(key: str) -> int:
    return stable_hash(f"cache-key:{key}")


# --------------------------------------------------------------------------- #
# Consistent-hash ring
# --------------------------------------------------------------------------- #


class HashRing:
    """Consistent-hash ring with virtual nodes and deterministic placement.

    Each node contributes ``vnodes`` points at
    ``stable_hash("cache-vnode:{node}:{i}")``; a key belongs to the first
    point clockwise from its own hash.  Adding or removing one node moves
    only the keys in the arcs that node's points cover — the property the
    rebalance protocol relies on.
    """

    def __init__(self, nodes: list[int], vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = int(vnodes)
        self._nodes: set[int] = set()
        self._points: list[int] = []
        self._point_nodes: list[int] = []
        for node in nodes:
            self.add_node(node)

    @property
    def nodes(self) -> list[int]:
        """Member node ids, sorted."""
        return sorted(self._nodes)

    def _rebuild(self) -> None:
        pairs = sorted(
            (stable_hash(f"cache-vnode:{node}:{i}"), node)
            for node in self._nodes
            for i in range(self.vnodes)
        )
        self._points = [p for p, _ in pairs]
        self._point_nodes = [n for _, n in pairs]

    def add_node(self, node: int) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node} already on the ring")
        self._nodes.add(int(node))
        self._rebuild()

    def remove_node(self, node: int) -> None:
        if node not in self._nodes:
            raise ValueError(f"node {node} not on the ring")
        if len(self._nodes) == 1:
            raise ValueError("cannot remove the last cache node")
        self._nodes.discard(node)
        self._rebuild()

    def owner(self, key_hash: int) -> int:
        """The node owning ``key_hash``."""
        return self.preference(key_hash, 1)[0]

    def preference(self, key_hash: int, count: int) -> list[int]:
        """First ``count`` *distinct* nodes clockwise from ``key_hash``.

        Entry 0 is the owner; the rest are its replica successors.
        """
        count = min(count, len(self._nodes))
        start = bisect.bisect_right(self._points, key_hash) % len(self._points)
        found: list[int] = []
        for offset in range(len(self._points)):
            node = self._point_nodes[(start + offset) % len(self._points)]
            if node not in found:
                found.append(node)
                if len(found) == count:
                    break
        return found


# --------------------------------------------------------------------------- #
# Cache node
# --------------------------------------------------------------------------- #


class _Entry:
    """One stored copy (primary or replica) of a logical cache entry."""

    __slots__ = (
        "namespace", "state", "checksum", "embedding", "seq", "visible_after_s", "corrupted"
    )

    def __init__(self, namespace, state, checksum, embedding, seq, visible_after_s) -> None:
        self.namespace = namespace
        self.state = state
        self.checksum = checksum
        self.embedding = embedding
        self.seq = seq
        self.visible_after_s = visible_after_s
        self.corrupted = False


class CacheNode:
    """One shard of the tier: a vector index slice, a state store slice and
    its own network conditions."""

    def __init__(self, node_id: int, dim: int, seed: int) -> None:
        self.node_id = int(node_id)
        self.network = NetworkModel(seed=stable_hash(f"cache-node-net:{seed}:{node_id}", bits=32))
        #: Per-namespace index over this node's copies, one row per entry keyed
        #: by its global insertion sequence, with the entry key as payload.
        self.indexes: dict[str, VectorDatabase] = {}
        self._dim = dim
        #: key -> _Entry for every copy (primary and replica) on this node.
        self.states: dict[str, _Entry] = {}
        self.primaries: set[str] = set()
        #: Replica-side delete markers: key -> tombstone time.
        self.tombstones: dict[str, float] = {}
        # Accounting (survives node removal: the tier keeps retired nodes).
        self.lookups = 0
        self.hits = 0
        self.latency_s = 0.0
        self.fetch_hits = 0
        self.fetch_misses = 0
        self.replica_reads = 0
        self.stale_misses = 0
        self.poisoned_detected = 0
        self._window_minute = -1
        self._window_fetches = 0

    def index(self, key: str, entry: _Entry) -> None:
        """Add (or replace) ``entry``'s row in its namespace's index."""
        index = self.indexes.get(entry.namespace)
        if index is None:
            index = self.indexes[entry.namespace] = VectorDatabase(dim=self._dim)
        index.upsert(entry.embedding, payload=key, key=entry.seq)

    def unindex(self, entry: _Entry) -> None:
        """Delete ``entry``'s row from its namespace's index, if it is there."""
        self.indexes[entry.namespace].delete(entry.seq)

    def entries(self) -> int:
        """Primary entries held by this node."""
        return len(self.primaries)

    def record_fetch(self, now_s: float) -> None:
        minute = int(now_s // 60)
        if minute != self._window_minute:
            self._window_minute = minute
            self._window_fetches = 0
        self._window_fetches += 1

    def fetch_rate(self, now_s: float) -> int:
        """Fetches observed in the current one-minute window."""
        if int(now_s // 60) != self._window_minute:
            return 0
        return self._window_fetches


# --------------------------------------------------------------------------- #
# The tier
# --------------------------------------------------------------------------- #


class CacheTier(CacheBase):
    """Consistent-hash sharded, replicated approximate cache.

    Drop-in for :class:`~repro.cache.approximate.ApproximateCache` — same
    retrieval outcome semantics, same accounting surface — with placement,
    replication and per-node failure domains underneath.
    """

    def __init__(
        self,
        shards: int = 2,
        replication: int = 0,
        embedder: PromptEmbedder | None = None,
        network: NetworkModel | None = None,
        replication_lag_s: float = 30.0,
        hot_shard_threshold: int = 240,
        similarity_threshold: float = 0.78,
        checkpoint_steps: tuple[int, ...] = (5, 10, 15, 20, 25),
        tenants: tuple = (),
        seed: int = 0,
        on_lookup=None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if not 0 <= replication < max(shards, 1):
            raise ValueError("replication must be in [0, shards - 1]")
        super().__init__(embedder, network, similarity_threshold, checkpoint_steps, tenants)
        self.replication = int(replication)
        self.replication_lag_s = float(replication_lag_s)
        self.hot_shard_threshold = int(hot_shard_threshold)
        self._seed = int(seed)
        #: Callback ``(shard_id, hit, latency_s)`` fired per retrieval
        #: attempt — the metrics collector's per-shard accounting hook.
        self.on_lookup = on_lookup
        self._nodes: dict[int, CacheNode] = {}
        self._retired: dict[int, CacheNode] = {}
        self.ring = HashRing(list(range(shards)))
        for node_id in range(shards):
            self._nodes[node_id] = self._new_node(node_id)
        self._seq = 0
        self._mutations = 0
        self._now = 0.0
        self.evictions = 0
        self.moved_entries = 0
        self.tombstones_compacted = 0
        self.poisoned_entries = 0
        self.poisoned_served = 0

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    def _new_node(self, node_id: int) -> CacheNode:
        return CacheNode(node_id, dim=self.embedder.dim, seed=self._seed)

    @property
    def num_shards(self) -> int:
        """Live cache nodes on the ring."""
        return len(self._nodes)

    def schedule_node_condition(
        self, node_id: int, start_s: float, end_s: float, condition: NetworkCondition
    ) -> None:
        """Schedule a network condition window on one node only."""
        try:
            node = self._nodes[int(node_id)]
        except KeyError:
            raise ValueError(
                f"no cache node {node_id}; live nodes: {sorted(self._nodes)}"
            ) from None
        node.network.schedule_condition(start_s, end_s, condition)

    def add_node(self, now_s: float | None = None) -> int:
        """Grow the ring by one node, migrating the entries whose owner moved.

        Returns the new node id.  Migration is immediate and deterministic
        (entries move in global insertion order); replica copies are
        re-placed against the new ring.
        """
        node_id = max(list(self._nodes) + list(self._retired)) + 1
        self._nodes[node_id] = self._new_node(node_id)
        self.ring.add_node(node_id)
        self._rebalance(now_s if now_s is not None else self._now)
        return node_id

    def remove_node(self, node_id: int, now_s: float | None = None) -> None:
        """Shrink the ring, handing the node's primaries to their new owners."""
        node_id = int(node_id)
        if node_id not in self._nodes:
            raise ValueError(f"no cache node {node_id}; live nodes: {sorted(self._nodes)}")
        self.ring.remove_node(node_id)
        retired = self._nodes.pop(node_id)
        self._retired[node_id] = retired
        self._rebalance(now_s if now_s is not None else self._now, vacated=retired)

    def _rebalance(self, now_s: float, vacated: CacheNode | None = None) -> None:
        """Move every entry whose ring placement changed.

        Primaries relocate with their index rows; replica sets are rebuilt
        from the new preference list.  Copies on a vacated node survive
        through their new placement — a ring change never loses data.
        """
        sources = list(self._nodes.values()) + ([vacated] if vacated is not None else [])
        logical: dict[str, tuple[CacheNode, _Entry]] = {}
        for node in sources:
            for key in node.primaries:
                logical[key] = (node, node.states[key])
        for key in sorted(logical, key=lambda k: logical[k][1].seq):
            holder, entry = logical[key]
            prefs = self.ring.preference(_key_hash(key), 1 + self.replication)
            owner = self._nodes[prefs[0]]
            if owner is not holder:
                holder.primaries.discard(key)
                holder.unindex(entry)
                if holder is vacated:
                    holder.states.pop(key, None)
                owner.states[key] = entry
                owner.primaries.add(key)
                owner.index(key, entry)
                self.moved_entries += 1
            for node_id, node in self._nodes.items():
                is_replica = node_id in prefs[1:]
                has_copy = key in node.states and key not in node.primaries
                if is_replica and not has_copy and node is not owner:
                    node.states[key] = entry
                    node.index(key, entry)
                elif not is_replica and has_copy and node is not owner:
                    node.unindex(node.states.pop(key))
        self._mutations += 1

    # ------------------------------------------------------------------ #
    # Placement helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def entry_key(namespace: str, prompt_id: int) -> str:
        return f"{namespace}:{prompt_id}"

    def owner_shard(self, namespace: str, prompt_id: int) -> int:
        """The node id owning (namespace, prompt_id) under the current ring."""
        return self.ring.owner(_key_hash(self.entry_key(namespace, prompt_id)))

    def likely_shard(self, prompt: Prompt) -> int:
        """The shard a retrieval for ``prompt`` is most likely to land on.

        Routing heuristic: re-served prompts hit their own entry, which
        lives on their key's owner.  O(log vnodes) — cheap enough for the
        per-request scheduler path.
        """
        return self.owner_shard(self._namespace(prompt.tenant), prompt.prompt_id)

    def worker_prefers(self, prompt: Prompt, worker_id: int) -> bool:
        """True when ``worker_id`` is placed near the shard likely to hit.

        Workers map onto cache nodes round-robin over the sorted live node
        ids, mirroring how racks would be cabled to cache hosts.
        """
        nodes = self.ring.nodes
        target = self.likely_shard(prompt)
        return nodes[worker_id % len(nodes)] == target

    # ------------------------------------------------------------------ #
    # Retrieval path
    # ------------------------------------------------------------------ #
    def retrieve(self, prompt: Prompt, requested_skip: int, now_s: float) -> RetrievalOutcome:
        """Attempt to retrieve a noise state enabling ``requested_skip``."""
        return self._tally(prompt.tenant, self._retrieve(prompt, requested_skip, now_s))

    def _account(self, node: CacheNode, hit: bool, latency_s: float) -> None:
        node.lookups += 1
        node.latency_s += latency_s
        if hit:
            node.hits += 1
        if self.on_lookup is not None:
            self.on_lookup(node.node_id, hit, latency_s)

    def _miss(self, requested_skip, latency, similarity, node) -> RetrievalOutcome:
        self._account(node, False, latency)
        return RetrievalOutcome.miss(requested_skip, latency, similarity)

    def _retrieve(self, prompt: Prompt, requested_skip: int, now_s: float) -> RetrievalOutcome:
        self._now = now_s
        if requested_skip <= 0:
            return RetrievalOutcome.miss(0, 0.0)
        client_latency = self.network.retrieval_latency(now_s)
        if client_latency is None:
            return RetrievalOutcome.unreachable(requested_skip)

        # Parallel fan-out: query every reachable node's namespace slice; the
        # search phase costs the slowest responder (plus the client leg).
        namespace = self._namespace(prompt.tenant)
        query = self.embedder.embed(prompt)
        reachable: dict[int, float] = {}
        candidates: list[tuple[float, int, str, int]] = []
        for node_id in self.ring.nodes:
            node = self._nodes[node_id]
            node_latency = node.network.retrieval_latency(now_s)
            if node_latency is None:
                continue
            reachable[node_id] = node_latency
            index = node.indexes.get(namespace)
            hit = index.nearest(query) if index is not None else None
            if hit is not None:
                candidates.append((hit.similarity, hit.key, hit.payload, node_id))
        if not reachable:
            return RetrievalOutcome.unreachable(requested_skip)
        search_latency = max([client_latency, *reachable.values()])

        fallback_node = self._nodes[self.owner_shard(namespace, prompt.prompt_id)]
        if not candidates:
            return self._miss(requested_skip, search_latency, None, fallback_node)
        best_sim, best_seq, best_key, best_node = max(
            candidates, key=lambda c: (c[0], -c[1])
        )
        if best_sim < self.similarity_threshold:
            return self._miss(requested_skip, search_latency, best_sim, fallback_node)

        node, entry, stale_missed = self._fetch(best_key, reachable, now_s)
        if node is None:
            node = self._nodes[best_node]
        if stale_missed:
            node.stale_misses += 1
        if entry is None:
            node.fetch_misses += 1
            return self._miss(requested_skip, search_latency, best_sim, node)
        latency = search_latency + reachable[node.node_id]
        node.record_fetch(now_s)
        if entry.corrupted or entry.state.checksum() != entry.checksum:
            # Entry checksum caught a poisoned state: never serve it, drop
            # every copy so the slot refills from live traffic.
            node.poisoned_detected += 1
            node.fetch_misses += 1
            self._delete_entry(namespace, entry.state.prompt_id)
            return self._miss(requested_skip, latency, best_sim, node)
        node.fetch_hits += 1
        self._stores[namespace].touch(entry.state.prompt_id)
        usable_step = entry.state.best_step_for(requested_skip)
        if usable_step is None:
            return self._miss(requested_skip, latency, best_sim, node)
        self._account(node, True, latency)
        return RetrievalOutcome(
            requested_skip=requested_skip,
            effective_skip=usable_step,
            retrieval_latency_s=latency,
            hit=True,
            similarity=best_sim,
        )

    def _fetch(
        self, key: str, reachable: dict[int, float], now_s: float
    ) -> tuple[CacheNode | None, _Entry | None, bool]:
        """Pick the node serving the state fetch for ``key``.

        The owner answers unless it is unreachable or hot; then the
        cheapest reachable replica with a *visible* copy takes over
        (bounded staleness: copies become visible ``replication_lag_s``
        after the primary write).  Returns ``(node, entry, stale_missed)``.
        """
        prefs = self.ring.preference(_key_hash(key), 1 + self.replication)
        owner_id = prefs[0]
        owner = self._nodes[owner_id]
        owner_ok = owner_id in reachable and key in owner.states
        owner_hot = owner.fetch_rate(now_s) >= self.hot_shard_threshold
        if owner_ok and not owner_hot:
            return owner, owner.states[key], False
        stale_missed = False
        replicas = []
        for node_id in prefs[1:]:
            if node_id not in reachable:
                continue
            node = self._nodes[node_id]
            entry = node.states.get(key)
            if entry is None or key in node.tombstones:
                continue
            if entry.visible_after_s > now_s:
                stale_missed = True
                continue
            replicas.append((reachable[node_id], node_id, node, entry))
        if replicas:
            _, _, node, entry = min(replicas, key=lambda r: (r[0], r[1]))
            node.replica_reads += 1
            return node, entry, stale_missed
        if owner_ok:
            # Hot owner with no usable replica still answers itself.
            return owner, owner.states[key], stale_missed
        return (owner if owner_id in reachable else None), None, stale_missed

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    def store_states(self, prompt: Prompt, now_s: float | None = None) -> None:
        """Record the intermediate states produced while serving ``prompt``.

        Re-serving an already-cached prompt is a no-op, exactly like the
        flat cache.  The write lands on the ring owner immediately;
        replica copies become visible after the staleness bound.
        """
        if now_s is not None:
            self._now = now_s
        if not self._cached(prompt):
            self._store_embedded(prompt, self.embedder.embed(prompt))

    def warm(self, prompts: list[Prompt]) -> None:
        """Pre-populate the tier (batch-embedded, duplicates skipped).

        Warm entries are visible on replicas immediately: they model a
        pre-loaded deployment, not live replication traffic.
        """
        for prompt, embedding in self._fresh_embedded(prompts):
            self._store_embedded(prompt, embedding, warm=True)

    def _store_embedded(self, prompt, embedding, warm=False) -> None:
        namespace = self._namespace(prompt.tenant)
        state = self._state(prompt)
        self._seq += 1
        entry = _Entry(
            namespace=namespace,
            state=state,
            checksum=state.checksum(),
            embedding=embedding,
            seq=self._seq,
            visible_after_s=0.0 if warm else self._now + self.replication_lag_s,
        )
        key = self.entry_key(namespace, prompt.prompt_id)
        prefs = self.ring.preference(_key_hash(key), 1 + self.replication)
        owner = self._nodes[prefs[0]]
        owner.states[key] = entry
        owner.primaries.add(key)
        owner.index(key, entry)
        for node_id in prefs[1:]:
            replica = self._nodes[node_id]
            replica.states[key] = entry
            replica.tombstones.pop(key, None)
            # Replicas index their copy too, so fan-out search still
            # surfaces the key when the owner is dark; visibility of the
            # copy itself stays gated by the staleness bound at fetch time.
            replica.index(key, entry)
        # The write counts before the quota evictions its put triggers.
        self._mutations += 1
        self._stores[namespace].put(state)
        if self._mutations % 256 == 0:
            self._compact(self._now)

    # ------------------------------------------------------------------ #
    # Quota eviction, tombstones, compaction
    # ------------------------------------------------------------------ #
    def _evict(self, namespace: str, prompt_id: int) -> None:
        self.evictions += 1
        self._delete_entry(namespace, prompt_id)

    def _delete_entry(self, namespace: str, prompt_id: int) -> None:
        """Cross-shard delete: owner drops the copy, replicas tombstone it."""
        key = self.entry_key(namespace, prompt_id)
        prefs = self.ring.preference(_key_hash(key), 1 + self.replication)
        owner = self._nodes[prefs[0]]
        if key in owner.primaries:
            owner.primaries.discard(key)
            owner.unindex(owner.states.pop(key))
        for node_id in prefs[1:]:
            replica = self._nodes[node_id]
            if key in replica.states:
                replica.unindex(replica.states.pop(key))
                replica.tombstones[key] = self._now
        self._stores[namespace].discard(prompt_id)
        self._mutations += 1

    def _compact(self, now_s: float) -> None:
        """Drop tombstones older than the staleness bound on every node."""
        horizon = now_s - self.replication_lag_s
        for node in self._nodes.values():
            dead = [key for key, ts in node.tombstones.items() if ts <= horizon]
            for key in dead:
                del node.tombstones[key]
            self.tombstones_compacted += len(dead)

    # ------------------------------------------------------------------ #
    # Chaos: poisoning
    # ------------------------------------------------------------------ #
    def poison(self, fraction: float, seed: int = 0) -> int:
        """Corrupt ``fraction`` of stored entries in place.

        Corruption damages the stored state without updating the entry's
        recorded checksum, exactly how bit-rot or a bad writer shows up;
        the retrieval-path checksum verification is what must catch it.
        Returns how many entries were poisoned.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("poison fraction must be in (0, 1]")
        keys = sorted(
            key for node in self._nodes.values() for key in node.primaries
        )
        rng = np.random.default_rng(stable_hash(f"cache-poison:{seed}", bits=32))
        picked = [key for key in keys if rng.random() < fraction]
        for key in picked:
            owner = self._nodes[self.ring.owner(_key_hash(key))]
            entry = owner.states.get(key)
            if entry is None:
                continue
            # Owner and replicas share the copy object, so one in-place
            # mutation poisons every copy of the logical entry.
            steps = entry.state.available_steps
            entry.state = replace(
                entry.state, available_steps=steps[:-1] + (steps[-1] + 1,)
            )
            entry.corrupted = True
        self.poisoned_entries += len(picked)
        return len(picked)

    # ------------------------------------------------------------------ #
    # Monitoring
    # ------------------------------------------------------------------ #
    def probe_network(self, now_s: float) -> float | None:
        """Background client-network probe (the strategy switcher's input)."""
        self._now = now_s
        return self.network.probe(now_s)

    def store_counts(self) -> tuple[int, int]:
        """(hits, misses) over state fetches, all nodes (incl. retired)."""
        nodes = list(self._nodes.values()) + list(self._retired.values())
        return (
            sum(n.fetch_hits for n in nodes),
            sum(n.fetch_misses for n in nodes),
        )

    def report_extras(self, tenants) -> dict:
        """The shared cache block plus :meth:`tier_stats`."""
        return {**super().report_extras(tenants), "cache_tier": self.tier_stats()}

    def tier_stats(self) -> dict:
        """Report-ready snapshot of the tier's placement and traffic."""
        nodes = {**self._retired, **self._nodes}
        return {
            "shards": len(self._nodes),
            "replication": self.replication,
            "entries": sum(node.entries() for node in self._nodes.values()),
            "moved_entries": self.moved_entries,
            "evictions": self.evictions,
            "tombstones_compacted": self.tombstones_compacted,
            "per_shard": {
                str(node_id): {
                    "lookups": node.lookups,
                    "hits": node.hits,
                    "latency_s": node.latency_s,
                    "entries": node.entries(),
                    "replica_reads": node.replica_reads,
                    "stale_misses": node.stale_misses,
                    "live": node_id in self._nodes,
                }
                for node_id, node in sorted(nodes.items())
            },
            "poison": {
                "entries_poisoned": self.poisoned_entries,
                "detected": sum(node.poisoned_detected for node in nodes.values()),
                "served": self.poisoned_served,
            },
        }
