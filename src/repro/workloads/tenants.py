"""Multi-tenant workloads: tenant contracts and multiplexed request streams.

A :class:`TenantSpec` is the contract one tenant has with the deployment:
how much of the shared traffic it generates (a share of the base trace, an
additive per-minute series of its own, or both), its fair-share weight, its
latency SLO class, the quality level it is contractually entitled to, and
its cache quota.  :class:`MultiTenantRequestStream` multiplexes one lazy
arrival stream per tenant into a single time-ordered stream with tenant-
tagged prompts; the interleave is fully deterministic (per-tenant seeds
derived from the stream seed, ties broken by tenant order).

The identity configuration — a single :meth:`TenantSpec.default` tenant with
full traffic share, standard SLO class and no floor or quota — produces a
stream bit-identical to the plain :class:`~repro.workloads.replay.
RequestStream`, which is how the determinism tests pin that tenancy is a
pure extension of the single-tenant system.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

from repro.metrics.slo import SLO_CLASSES, SloPolicy
from repro.prompts.dataset import PromptDataset
from repro.prompts.generator import Prompt
from repro.workloads.arrival import ArrivalProcess
from repro.workloads.replay import RequestStream, TimedPrompt
from repro.workloads.traces import WorkloadTrace

#: Seed stride between per-tenant arrival processes (prime, so tenant seeds
#: never collide with the +1/+2 offsets the runner uses for datasets).
_TENANT_SEED_STRIDE = 7919


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's serving contract.

    Traffic: ``traffic_share`` is this tenant's fraction of the base trace
    (``None`` splits whatever share is left equally among the unshared
    tenants); ``extra_qpm`` adds the tenant's own per-minute arrival shape on
    top.  Fairness: ``weight`` is the tenant's weighted-fair-share weight for
    admission (token rate and deficit-round-robin quantum) and for the
    tenant-weighted affinity histogram the allocator plans against.
    SLO: ``slo_class`` picks a :data:`~repro.metrics.slo.SLO_CLASSES` budget
    ("standard" inherits the deployment policy); ``slo_multiplier`` overrides
    it outright.  Quality: ``quality_floor_rank`` is the most approximate
    level (highest rank) the tenant may be served at — its PASM rows are
    clamped there; ``quality_floor`` is the contracted relative-quality floor
    reported against in the per-tenant summary.  ``cache_quota`` bounds the
    tenant's entries in its private cache namespace, the anonymous tenant
    "" included; None keeps the store's default capacity (50k entries).
    """

    name: str
    weight: float = 1.0
    traffic_share: float | None = None
    extra_qpm: tuple[float, ...] = ()
    slo_class: str = "standard"
    slo_multiplier: float | None = None
    quality_floor_rank: int | None = None
    quality_floor: float = 0.0
    cache_quota: int | None = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be positive")
        if self.traffic_share is not None and not 0.0 < self.traffic_share <= 1.0:
            raise ValueError(f"tenant {self.name!r}: traffic_share must be in (0, 1]")
        if self.slo_class not in SLO_CLASSES:
            raise ValueError(
                f"tenant {self.name!r}: unknown SLO class {self.slo_class!r}; "
                f"known: {sorted(SLO_CLASSES)}"
            )
        if self.slo_multiplier is not None and self.slo_multiplier <= 0:
            raise ValueError(f"tenant {self.name!r}: slo_multiplier must be positive")
        if self.quality_floor_rank is not None and self.quality_floor_rank < 0:
            raise ValueError(f"tenant {self.name!r}: quality_floor_rank must be >= 0")
        if not 0.0 <= self.quality_floor <= 1.0:
            raise ValueError(f"tenant {self.name!r}: quality_floor must be in [0, 1]")
        if self.cache_quota is not None and self.cache_quota <= 0:
            raise ValueError(f"tenant {self.name!r}: cache_quota must be positive")
        object.__setattr__(self, "extra_qpm", tuple(float(q) for q in self.extra_qpm))
        if any(q < 0 for q in self.extra_qpm):
            raise ValueError(f"tenant {self.name!r}: extra_qpm values must be non-negative")

    @classmethod
    def default(cls) -> "TenantSpec":
        """The identity tenant: the whole anonymous workload as one tenant.

        Running with exactly this tenant configured is bit-identical to
        running with no tenants at all (pinned by the determinism tests).
        """
        return cls(name="", traffic_share=1.0)

    def slo_policy(self, base: SloPolicy) -> SloPolicy:
        """This tenant's latency SLO, resolved against the deployment policy.

        Resolution order: an explicit ``slo_multiplier`` wins; otherwise a
        non-standard ``slo_class`` uses its class multiplier; the
        ``standard`` class inherits ``base`` unchanged.
        """
        if self.slo_multiplier is not None:
            return replace(base, multiplier=float(self.slo_multiplier))
        if self.slo_class != "standard":
            return replace(base, multiplier=SLO_CLASSES[self.slo_class])
        return base


def validate_tenants(tenants: tuple[TenantSpec, ...]) -> tuple[TenantSpec, ...]:
    """Validate a tenant set as a whole (names unique, shares feasible)."""
    tenants = tuple(tenants)
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"tenant names must be unique; got {names}")
    if any(t.name == "" for t in tenants) and len(tenants) > 1:
        raise ValueError('the anonymous tenant "" is only valid as the sole tenant')
    explicit = sum(t.traffic_share for t in tenants if t.traffic_share is not None)
    if explicit > 1.0 + 1e-9:
        raise ValueError(f"explicit traffic shares sum to {explicit:g} > 1")
    return tenants


def resolve_shares(tenants: tuple[TenantSpec, ...]) -> dict[str, float]:
    """Each tenant's share of the base trace.

    Tenants without an explicit ``traffic_share`` split the remaining share
    equally; a tenant may also ride on ``extra_qpm`` alone, in which case the
    equal split can legitimately resolve to 0 for it (no unshared tenants
    left but no share remaining).
    """
    tenants = validate_tenants(tenants)
    explicit = sum(t.traffic_share for t in tenants if t.traffic_share is not None)
    unshared = [t for t in tenants if t.traffic_share is None]
    leftover = max(0.0, 1.0 - explicit)
    equal = leftover / len(unshared) if unshared else 0.0
    return {
        t.name: float(t.traffic_share) if t.traffic_share is not None else equal
        for t in tenants
    }


def tenant_trace(base: WorkloadTrace, spec: TenantSpec, share: float) -> WorkloadTrace:
    """The per-minute trace one tenant offers: its base share plus extras.

    A full-share tenant with no extras gets the base trace object itself, so
    the single-default-tenant stream is exactly the plain stream.
    """
    if share >= 1.0 and not spec.extra_qpm:
        return base
    minutes = max(len(base.qpm), len(spec.extra_qpm))
    qpm = []
    for minute in range(minutes):
        value = share * base.qpm[minute] if minute < len(base.qpm) else 0.0
        if minute < len(spec.extra_qpm):
            value += spec.extra_qpm[minute]
        qpm.append(value)
    name = f"{base.name}:{spec.name or 'default'}"
    return WorkloadTrace(name=name, qpm=tuple(qpm))


class MultiTenantRequestStream(RequestStream):
    """Deterministic multiplex of one request stream per tenant.

    Each tenant gets its own arrival process (seed = stream seed + a
    tenant-index stride), its own trace (base share + extras) and its own
    prompt dataset cycled with a private cursor; prompts are tagged with the
    tenant name.  The merged stream is ordered by (arrival time, tenant
    index, per-tenant sequence), so identical seeds always produce an
    identical interleave.

    ``phases`` optionally gives a tenant a drifting prompt mix: a sequence
    of ``(start_s, dataset)`` pairs (first at 0.0, strictly increasing
    starts) replaces that tenant's single dataset, with per-phase cursors
    exactly like :class:`~repro.workloads.replay.PhasedRequestStream`.
    Arrival timestamps are untouched — drift perturbs only the prompt mix.
    """

    def __init__(
        self,
        trace: WorkloadTrace,
        tenants: tuple[TenantSpec, ...],
        datasets: dict[str, PromptDataset],
        seed: int = 0,
        arrival_kind: str = "poisson",
        phases: dict[str, Sequence[tuple[float, PromptDataset]]] | None = None,
    ) -> None:
        tenants = validate_tenants(tuple(tenants))
        if not tenants:
            raise ValueError("need at least one tenant")
        for spec in tenants:
            if spec.name not in datasets:
                raise ValueError(f"no dataset for tenant {spec.name!r}")
            if len(datasets[spec.name]) == 0:
                raise ValueError(f"dataset for tenant {spec.name!r} must not be empty")
        super().__init__(
            trace=trace, dataset=datasets[tenants[0].name], seed=seed, arrival_kind=arrival_kind
        )
        self.tenants = tenants
        self.datasets = dict(datasets)
        shares = resolve_shares(tenants)
        self.tenant_traces: dict[str, WorkloadTrace] = {
            spec.name: tenant_trace(trace, spec, shares[spec.name]) for spec in tenants
        }
        # Tenant extras may not outlive the base trace: run duration, the
        # offered/fleet minute series and the summary all normalise by the
        # base trace length, so a longer tenant tail would serve requests
        # that no report accounts for.
        for spec in tenants:
            if len(spec.extra_qpm) > trace.duration_minutes:
                raise ValueError(
                    f"tenant {spec.name!r}: extra_qpm spans {len(spec.extra_qpm)} minutes, "
                    f"longer than the {trace.duration_minutes}-minute base trace"
                )
        # Per-tenant prompts are tagged once here, not per arrival: the
        # Prompt content-hash memo is per-object, so reusing tagged objects
        # across dataset cycles keeps embedding lookups memoised.  Prompts
        # generated with their tenant's tag are kept as they are.
        def tag(name: str, dataset: PromptDataset) -> list[Prompt]:
            return [
                prompt if prompt.tenant == name else replace(prompt, tenant=name)
                for prompt in dataset.prompts
            ]

        self._tagged_prompts: dict[str, list[Prompt]] = {
            spec.name: tag(spec.name, datasets[spec.name]) for spec in tenants
        }
        #: Tenants with a drifting mix: name -> [(start_s, tagged prompts)].
        self._tagged_phases: dict[str, list[tuple[float, list[Prompt]]]] = {}
        for name, tenant_phases in (phases or {}).items():
            if name not in self.datasets:
                raise ValueError(f"phases given for unknown tenant {name!r}")
            starts = [float(start) for start, _ in tenant_phases]
            if not starts or starts[0] != 0.0:
                raise ValueError(f"tenant {name!r}: first phase must start at 0.0")
            if starts != sorted(starts) or len(set(starts)) != len(starts):
                raise ValueError(
                    f"tenant {name!r}: phase start times must be strictly increasing"
                )
            for _, dataset in tenant_phases:
                if len(dataset) == 0:
                    raise ValueError(f"tenant {name!r}: phase datasets must not be empty")
            self._tagged_phases[name] = [
                (float(start), tag(name, dataset)) for start, dataset in tenant_phases
            ]

    def _tenant_seed(self, index: int) -> int:
        """Arrival seed for tenant ``index`` (tenant 0 keeps the stream seed,
        so the single-tenant stream reproduces the plain one exactly)."""
        return self.seed + _TENANT_SEED_STRIDE * index

    def _iter_tenant(self, index: int) -> Iterator[tuple[float, int, int, Prompt]]:
        spec = self.tenants[index]
        process = ArrivalProcess(seed=self._tenant_seed(index))
        trace = self.tenant_traces[spec.name]
        arrivals = process.iter_arrivals(trace, self.arrival_kind)
        phases = self._tagged_phases.get(spec.name)
        if phases is None:
            prompts = self._tagged_prompts[spec.name]
            dataset_size = len(prompts)
            for sequence, arrival in enumerate(arrivals):
                yield (float(arrival), index, sequence, prompts[sequence % dataset_size])
            return
        cursors = [0] * len(phases)
        active = 0
        for sequence, arrival in enumerate(arrivals):
            while active + 1 < len(phases) and arrival >= phases[active + 1][0]:
                active += 1
            prompts = phases[active][1]
            yield (float(arrival), index, sequence, prompts[cursors[active] % len(prompts)])
            cursors[active] += 1

    def _iter_lazy(self) -> Iterator[TimedPrompt]:
        streams = [self._iter_tenant(index) for index in range(len(self.tenants))]
        for arrival, _index, _sequence, prompt in heapq.merge(*streams):
            yield TimedPrompt(arrival_time_s=arrival, prompt=prompt)

    def offered_qpm(self, minute: int) -> float:
        """Combined offered load across tenants during ``minute``."""
        return float(sum(t.qpm_at(minute) for t in self.tenant_traces.values()))


@dataclass(frozen=True)
class TenantRuntime:
    """A tenant's resolved runtime parameters (what the scheduler needs)."""

    spec: TenantSpec
    #: Latency budget in seconds under the tenant's resolved SLO policy.
    budget_s: float

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def weight(self) -> float:
        return self.spec.weight

    @property
    def max_rank(self) -> int | None:
        return self.spec.quality_floor_rank


def build_runtimes(
    tenants: tuple[TenantSpec, ...], base_slo: SloPolicy
) -> dict[str, TenantRuntime]:
    """Resolve the per-tenant runtime table from specs and the global SLO."""
    return {
        spec.name: TenantRuntime(spec=spec, budget_s=spec.slo_policy(base_slo).budget_s)
        for spec in tuple(tenants)
    }
