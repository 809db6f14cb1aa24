"""Approximate-caching substrate: vector database, noise-state store, network.

Approximate caching (AC) retrieves the intermediate noise state of a similar
previous prompt and resumes denoising from step K.  The substrate models the
three external dependencies the paper identifies: the vector database used
for similarity search, the blob store (EFS) holding the noise states, and
the network between the GPU workers and both services — including the
congestion and outage scenarios that trigger Argus's AC→SM switch.

Two cache implementations share one vector index, :class:`VectorDatabase`,
and one :class:`~repro.cache.approximate.CacheBase` (tenant namespaces, a
quota LRU per namespace, the retrieval ledger): the in-process
:class:`ApproximateCache` (one index per tenant) and the distributed
:class:`CacheTier` (consistent-hash sharded and replicated, one index per
tenant on each :class:`CacheNode`, with per-node network conditions).
:func:`build_cache` picks between them from config so every caller —
workers, gateway interceptor, scenario runtime — stays a single code path.
"""

from dataclasses import replace

from repro.cache.approximate import ApproximateCache, RetrievalOutcome
from repro.cache.network import NetworkCondition, NetworkModel
from repro.cache.store import NoiseStateStore, StoredState
from repro.cache.tier import CacheNode, CacheTier, HashRing
from repro.cache.vectordb import SearchResult, VectorDatabase


def build_cache(config, network=None, on_lookup=None):
    """Build the cache implementation ``config`` asks for.

    ``cache_shards=1`` with replication off constructs a plain
    :class:`ApproximateCache` — not a one-node tier — so the default
    configuration is bit-identical to the pre-tier behavior (the same
    knob-gating discipline as heterogeneous fleets).
    """
    if not config.cache_tier_enabled:
        return ApproximateCache(network=network, tenants=config.tenants)
    return CacheTier(
        shards=config.cache_shards,
        replication=config.cache_replication,
        network=network,
        replication_lag_s=config.cache_replication_lag_s,
        hot_shard_threshold=config.cache_hot_shard_threshold,
        tenants=config.tenants,
        seed=config.seed,
        on_lookup=on_lookup,
    )


def warm_cache(cache, prompts, tenants=()) -> None:
    """Pre-populate ``cache`` with a warm prompt history, per tenant.

    Retrieval only searches the requesting tenant's namespace, so each
    tenant is warmed with tagged copies of the history, capped at its cache
    quota so the warm-up cannot churn its own working set out.  Without
    tenants the whole history is warmed untagged.
    """
    if not tenants:
        cache.warm(prompts)
        return
    for spec in tenants:
        count = len(prompts) if spec.cache_quota is None else min(len(prompts), spec.cache_quota)
        cache.warm([replace(prompt, tenant=spec.name) for prompt in prompts[:count]])


__all__ = [
    "ApproximateCache",
    "CacheNode",
    "CacheTier",
    "HashRing",
    "NetworkCondition",
    "NetworkModel",
    "NoiseStateStore",
    "RetrievalOutcome",
    "SearchResult",
    "StoredState",
    "VectorDatabase",
    "build_cache",
    "warm_cache",
]
