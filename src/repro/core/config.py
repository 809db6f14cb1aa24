"""Configuration for the Argus serving system and its baselines."""

from __future__ import annotations

import difflib
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Mapping

from repro.metrics.slo import SloPolicy
from repro.models.gpus import gpu_by_name
from repro.models.zoo import Strategy
from repro.workloads.tenants import TenantSpec, validate_tenants


@dataclass
class ArgusConfig:
    """Tunable parameters of an Argus deployment.

    Defaults mirror the paper's test bed: 8 A100 workers, AC as the default
    strategy, a one-minute re-allocation interval, a 1000-prompt look-back
    window for the affinity predictor, and an SLO of 3x SD-XL latency.
    """

    num_workers: int = 8
    gpu: str = "A100"
    default_strategy: Strategy = Strategy.AC
    #: How often the Allocator re-solves the ILP and refreshes the PASM.
    reallocation_interval_s: float = 60.0
    #: Look-back window (number of prompts) for the affinity histogram.
    affinity_lookback: int = 1000
    #: Safety factor applied to the estimated load before solving, so the
    #: planned allocation keeps queueing headroom below the SLO budget.
    load_safety_factor: float = 1.25
    #: Extra capacity margin used while an AC→SM switch is in flight (§4.6).
    switch_margin: float = 1.5
    #: Cache-retrieval latency (seconds) above which Argus abandons AC.
    retrieval_latency_threshold_s: float = 0.6
    #: Consecutive slow/failed retrieval observations required to switch.
    retrieval_violations_to_switch: int = 20
    #: Out-of-band recalibration trigger: when more than this many requests
    #: per healthy worker *per batch slot* are waiting in queues (in-service
    #: batch members excluded, threshold scaled by ``max_batch_size``), the
    #: allocator re-solves immediately instead of waiting for the next
    #: periodic tick (§4.7 tail-latency protection at the allocation layer).
    #: Zero or negative disables the trigger.
    backlog_recalibration_per_worker: float = 3.0
    #: Minimum spacing between backlog-triggered recalibrations.
    backlog_recalibration_min_gap_s: float = 10.0
    #: Latency SLO policy (3x the largest model by default).
    slo: SloPolicy = field(default_factory=SloPolicy)
    # ----------------------------------------------------------------- #
    # Elastic fleet / closed-loop autoscaler (§6 promoted to a control loop)
    # ----------------------------------------------------------------- #
    #: Enable horizontal scaling.  False keeps the fixed pool and is
    #: bit-for-bit the pre-autoscaler behaviour.
    autoscale_enabled: bool = False
    #: Fleet-size floor for scale-in (None = the initial ``num_workers``).
    min_workers: int | None = None
    #: Fleet-size ceiling for scale-out (None = 4x the initial fleet).
    max_workers: int | None = None
    #: GPU types added on scale-out, cycled round-robin (empty = ``gpu``).
    gpu_mix: tuple[str, ...] = ()
    #: Node provisioning delay before a new worker's model warm-up begins.
    provision_delay_s: float = 90.0
    #: How often the autoscaler evaluates its signals.
    autoscale_interval_s: float = 15.0
    #: Demand/ceiling ratio that arms scale-out (hysteresis high side).
    scale_up_threshold: float = 0.9
    #: Demand vs post-removal ceiling ratio that arms scale-in (low side).
    scale_down_threshold: float = 0.6
    #: Consecutive overloaded ticks before scale-out fires (debounce).
    scale_out_consecutive_ticks: int = 2
    #: Consecutive underloaded ticks before scale-in fires (hysteresis
    #: window = ticks x ``autoscale_interval_s``).
    scale_in_consecutive_ticks: int = 8
    #: Minimum spacing between scale-out actions.
    scale_out_cooldown_s: float = 30.0
    #: Minimum spacing between scale-in actions.
    scale_in_cooldown_s: float = 180.0
    #: Most workers added in one scale-out action.
    max_scale_step: int = 2
    #: Queued requests beyond this multiple of the cluster's backlog slack
    #: count as scale-out pressure even before full saturation.
    autoscale_backlog_factor: float = 2.0
    #: Training prompts pre-inserted into the approximate cache before the
    #: run (0 = cold start: the cache fills from live traffic only).
    cache_warm_prompts: int = 300
    #: Number of prompts used to train / retrain the classifier.
    classifier_training_prompts: int = 2000
    #: Epochs per classifier (re)training session.
    classifier_epochs: int = 20
    #: Number of prompts used to profile per-level quality for the solver.
    profiling_prompts: int = 1000
    #: GPU memory per worker in GiB.  None (default) gives each worker its
    #: GPU type's native memory (80 GiB on the A100 reference, so the
    #: homogeneous default is unchanged); set a float to override uniformly.
    worker_memory_gib: float | None = None
    #: Largest batch a worker may serve in one GPU pass.  1 reproduces the
    #: paper's batch-size-1 serving exactly; >1 enables dynamic batching
    #: along the Fig. 14 throughput curves.
    max_batch_size: int = 1
    #: How long an under-full batch waits for more arrivals before being
    #: launched anyway (only meaningful when ``max_batch_size > 1``).
    batch_timeout_s: float = 0.25
    # ----------------------------------------------------------------- #
    # Multi-tenancy (per-tenant SLO classes, fair-share admission, quotas)
    # ----------------------------------------------------------------- #
    #: Tenant contracts served by this deployment.  Empty keeps the
    #: anonymous single-tenant workload and is bit-for-bit the pre-tenancy
    #: behaviour; dict entries (e.g. from a scenario JSON round-trip) are
    #: coerced to :class:`~repro.workloads.tenants.TenantSpec`.
    tenants: tuple[TenantSpec, ...] = ()
    #: Enable the weighted fair-share admission controller (token buckets +
    #: deficit round-robin) in front of the scheduler.  Only engages with
    #: two or more tenants — fairness needs competing parties; False keeps
    #: tenant tagging/accounting but admits everything immediately (the
    #: no-isolation baseline the noisy-neighbor scenario compares against).
    fair_share_admission: bool = True
    #: Aggregate admission rate as a multiple of the fleet's current
    #: throughput ceiling.  1.0 keeps total admitted inflow at what the
    #: fleet can actually serve, so an overloading tenant queues at
    #: admission (charged to itself) instead of flooding the shared worker
    #: queues; raise it to trade isolation for more aggressive draining.
    admission_rate_factor: float = 1.0
    #: Token-bucket depth per tenant, in seconds of its guaranteed rate
    #: (bursts up to this much above the sustained share are admitted
    #: immediately).
    admission_burst_s: float = 2.0
    #: Deadline-ordered per-tenant worker queues (weighted deficit
    #: round-robin across tenant subqueues, earliest-deadline-first within
    #: each).  Only engages with two or more tenants — with a single queue
    #: owner the discipline degenerates to FIFO, and keeping the plain deque
    #: preserves single-tenant bit-identity.
    tenant_priority_queues: bool = False
    # ----------------------------------------------------------------- #
    # Sharded parallel execution (simulation/shard.py)
    # ----------------------------------------------------------------- #
    #: Number of shard processes to partition the simulation across.  1 runs
    #: the plain sequential engine (bit-for-bit the unsharded behaviour);
    #: N > 1 splits the arrival stream and the fleet into N slices, each on
    #: its own event loop: N isolated sub-fleets (see simulation/shard.py).
    shards: int = 1
    #: Fixed simulated-time grid on which sharded autoscaled runs barrier
    #: and exchange scale requests and grants with the coordinator's budget
    #: broker.  A fixed-fleet sharded run barriers only at its end.
    autoscale_epoch_s: float = 60.0
    # ----------------------------------------------------------------- #
    # Distributed cache tier (cache/tier.py)
    # ----------------------------------------------------------------- #
    #: Number of cache-node shards the approximate cache is consistent-hash
    #: partitioned across.  1 with ``cache_replication=0`` keeps the plain
    #: in-process cache (bit-for-bit the pre-tier behaviour); >= 2 builds a
    #: :class:`~repro.cache.tier.CacheTier` whose lookups fan out to every
    #: reachable node and whose entries live on their ring owner.
    cache_shards: int = 1
    #: Replica copies per entry beyond the owner (bounded staleness: copies
    #: become readable ``cache_replication_lag_s`` after the primary write).
    #: Must stay below ``cache_shards``; any nonzero value enables the tier.
    cache_replication: int = 0
    #: Bounded-staleness replication lag: seconds after the primary write
    #: before replica copies become readable (and the tombstone-compaction
    #: horizon for cross-shard deletes).
    cache_replication_lag_s: float = 30.0
    #: State fetches per node per minute above which a shard counts as hot
    #: and reads shift to its replicas.
    cache_hot_shard_threshold: int = 240
    #: When True, a worker stops serving while it loads a new model variant.
    #: Argus keeps this False (it serves with the resident model while the
    #: new one loads, §4.6); baselines that naively swap models pay the full
    #: Table-2 load latency on the serving path.
    blocking_model_loads: bool = False
    #: Random seed for every stochastic component.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.reallocation_interval_s <= 0:
            raise ValueError("reallocation interval must be positive")
        if self.affinity_lookback <= 0:
            raise ValueError("affinity_lookback must be positive")
        if self.load_safety_factor < 1.0:
            raise ValueError("load_safety_factor must be >= 1.0")
        if self.switch_margin < 1.0:
            raise ValueError("switch_margin must be >= 1.0")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.batch_timeout_s < 0:
            raise ValueError("batch_timeout_s must be non-negative")
        if self.retrieval_latency_threshold_s <= 0:
            raise ValueError("retrieval_latency_threshold_s must be positive")
        if self.retrieval_violations_to_switch < 1:
            raise ValueError("retrieval_violations_to_switch must be >= 1")
        if self.backlog_recalibration_min_gap_s < 0:
            raise ValueError("backlog_recalibration_min_gap_s must be non-negative")
        self.default_strategy = Strategy(self.default_strategy)
        gpu_by_name(self.gpu)  # raises KeyError for unknown GPU types
        self.gpu_mix = tuple(self.gpu_mix)
        for name in self.gpu_mix:
            gpu_by_name(name)  # raises KeyError for unknown GPU types
        if self.min_workers is not None and not 1 <= self.min_workers <= self.num_workers:
            raise ValueError("min_workers must be in [1, num_workers]")
        if self.max_workers is not None and self.max_workers < self.num_workers:
            raise ValueError("max_workers must be >= num_workers")
        if (
            self.min_workers is not None
            and self.max_workers is not None
            and self.min_workers > self.max_workers
        ):
            raise ValueError("min_workers must not exceed max_workers")
        if self.provision_delay_s < 0:
            raise ValueError("provision_delay_s must be non-negative")
        if self.autoscale_interval_s <= 0:
            raise ValueError("autoscale_interval_s must be positive")
        if not 0.0 < self.scale_down_threshold < self.scale_up_threshold:
            raise ValueError("need 0 < scale_down_threshold < scale_up_threshold")
        if self.scale_out_consecutive_ticks < 1 or self.scale_in_consecutive_ticks < 1:
            raise ValueError("debounce tick counts must be >= 1")
        if self.scale_out_cooldown_s < 0 or self.scale_in_cooldown_s < 0:
            raise ValueError("scale cooldowns must be non-negative")
        if self.max_scale_step < 1:
            raise ValueError("max_scale_step must be >= 1")
        if self.autoscale_backlog_factor < 0:
            raise ValueError("autoscale_backlog_factor must be non-negative")
        if self.cache_warm_prompts < 0:
            raise ValueError("cache_warm_prompts must be non-negative")
        if self.classifier_training_prompts < 1:
            raise ValueError("classifier_training_prompts must be >= 1")
        if self.classifier_epochs < 1:
            raise ValueError("classifier_epochs must be >= 1")
        if self.profiling_prompts < 1:
            raise ValueError("profiling_prompts must be >= 1")
        if self.worker_memory_gib is not None and self.worker_memory_gib <= 0:
            raise ValueError("worker_memory_gib must be positive when set")
        self.tenants = validate_tenants(
            tuple(
                spec if isinstance(spec, TenantSpec) else TenantSpec(**spec)
                for spec in self.tenants
            )
        )
        if self.admission_rate_factor <= 0:
            raise ValueError("admission_rate_factor must be positive")
        if self.admission_burst_s < 0:
            raise ValueError("admission_burst_s must be non-negative")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.autoscale_epoch_s <= 0:
            raise ValueError("autoscale_epoch_s must be positive")
        if self.cache_shards < 1:
            raise ValueError("cache_shards must be >= 1")
        if not 0 <= self.cache_replication < self.cache_shards:
            raise ValueError("cache_replication must be in [0, cache_shards - 1]")
        if self.cache_replication_lag_s < 0:
            raise ValueError("cache_replication_lag_s must be non-negative")
        if self.cache_hot_shard_threshold < 1:
            raise ValueError("cache_hot_shard_threshold must be >= 1")
        if self.shards > 1:
            # Knobs that cannot partition are rejected loudly: silently
            # running them on N independent fleets would mis-simulate the
            # global control loop they model.
            if self.shards > self.num_workers:
                raise ValueError(
                    f"shards={self.shards} exceeds num_workers="
                    f"{self.num_workers}: every shard needs at least one "
                    "worker in its fleet partition"
                )
            if len(self.tenants) >= 2 and self.shards > len(self.tenants):
                raise ValueError(
                    f"shards={self.shards} exceeds the {len(self.tenants)} "
                    "tenants: tenant partitioning places whole tenants on "
                    "shards, so a multi-tenant run cannot use more shards "
                    "than it has tenants"
                )

    @property
    def cache_tier_enabled(self) -> bool:
        """True when the distributed cache tier replaces the flat cache.

        One shard with no replicas is *not* a tier: that configuration must
        stay bit-identical to the plain in-process cache.
        """
        return self.cache_shards > 1 or self.cache_replication > 0

    # ----------------------------------------------------------------- #
    # Serialization (the public config API: CLI --config-json, gateway
    # /config, saved deployments)
    # ----------------------------------------------------------------- #
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict of every field.

        Round-trips through :meth:`from_dict` bit-exactly: enums flatten to
        their values, the SLO policy and tenant specs to plain dicts,
        tuples to lists.
        """
        payload: dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, Strategy):
                value = value.value
            elif isinstance(value, SloPolicy):
                value = {
                    "multiplier": value.multiplier,
                    "base_latency_s": value.base_latency_s,
                }
            elif spec.name == "tenants":
                value = [
                    {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(t).items()}
                    for t in value
                ]
            elif isinstance(value, tuple):
                value = list(value)
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArgusConfig":
        """Build a config from :meth:`to_dict` output (or any subset of it).

        Unknown keys are rejected with the nearest field name suggested, so
        a typo in a deployment file fails loudly instead of silently keeping
        the default.
        """
        known = {spec.name for spec in fields(cls)}
        overrides: dict[str, Any] = {}
        for key, value in data.items():
            if key not in known:
                close = difflib.get_close_matches(key, sorted(known), n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                raise ValueError(f"unknown config key {key!r}{hint}")
            overrides[key] = value
        slo = overrides.get("slo")
        if isinstance(slo, Mapping):
            overrides["slo"] = SloPolicy(**slo)
        # __post_init__ coerces the rest: strategy strings, tenant dicts,
        # gpu_mix lists.
        return cls(**overrides)

    @property
    def batching_enabled(self) -> bool:
        """Whether workers serve dynamic batches rather than batch-size-1."""
        return self.max_batch_size > 1

    @property
    def multi_tenant(self) -> bool:
        """Whether tenant contracts are configured at all."""
        return len(self.tenants) > 0

    @property
    def admission_enabled(self) -> bool:
        """Whether the fair-share admission controller engages.

        Fairness needs at least two competing tenants; a lone tenant (or the
        anonymous workload) is never delayed at admission.
        """
        return self.fair_share_admission and len(self.tenants) >= 2

    @property
    def priority_queues_enabled(self) -> bool:
        """Whether workers use deadline-ordered per-tenant queues.

        Like admission, the discipline needs at least two competing tenants;
        below that it stays on the plain FIFO deque (bit-for-bit identical).
        """
        return self.tenant_priority_queues and len(self.tenants) >= 2

    @property
    def effective_min_workers(self) -> int:
        """Scale-in floor (defaults to the initial fleet size)."""
        return self.min_workers if self.min_workers is not None else self.num_workers

    @property
    def effective_max_workers(self) -> int:
        """Scale-out ceiling (defaults to 4x the initial fleet size)."""
        return self.max_workers if self.max_workers is not None else 4 * self.num_workers

    @property
    def effective_gpu_mix(self) -> tuple[str, ...]:
        """GPU types cycled on scale-out (defaults to the fleet's GPU)."""
        return self.gpu_mix or (self.gpu,)
