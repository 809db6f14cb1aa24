"""Run summaries: the scalar rows reported in the paper's evaluation."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.metrics.collector import MetricsCollector


@dataclass(frozen=True)
class TenantSummary:
    """Per-tenant slice of one serving run (the multi-tenant report row)."""

    name: str
    slo_class: str
    weight: float
    #: Latency budget this tenant's violations are measured against.
    slo_budget_s: float
    arrivals: int
    completions: int
    dropped: int
    #: Violations against the *tenant's own* budget, not the global SLO.
    slo_violation_ratio: float
    mean_relative_quality: float
    p99_latency_s: float
    #: Contracted relative-quality floor (reporting reference, 0 = none).
    quality_floor: float = 0.0
    #: Retrieval hit rate within the tenant's cache namespace.
    cache_hit_rate: float = 0.0
    #: Requests the fair-share admission controller delayed.
    admission_delayed: int = 0
    mean_admission_wait_s: float = 0.0
    #: Requests still parked in the admission queue when the run (including
    #: its drain period) ended — offered, never served, never dropped.
    admission_backlog: int = 0

    @property
    def goodput_fraction(self) -> float:
        """Fraction of this tenant's offered requests served within its SLO."""
        if self.arrivals == 0:
            return 0.0
        within = self.completions * (1.0 - self.slo_violation_ratio)
        return within / self.arrivals


def fair_share_index(tenants: tuple[TenantSummary, ...]) -> float:
    """Jain's fairness index over weight-normalised served throughput.

    ``x_t = completions_t / weight_t``; the index is 1.0 when every tenant's
    service is exactly proportional to its weight and approaches ``1/n`` as
    one tenant monopolises the fleet.  Tenants that offered no traffic are
    excluded (idle tenants do not count as starved).
    """
    shares = [t.completions / t.weight for t in tenants if t.arrivals > 0]
    if not shares:
        return 1.0
    total = sum(shares)
    if total <= 0:
        return 1.0
    squares = sum(share * share for share in shares)
    return float(total * total / (len(shares) * squares))


@dataclass(frozen=True)
class RunSummary:
    """Scalar summary of one serving run (one system on one workload)."""

    system: str
    workload: str
    total_arrivals: int
    total_completions: int
    dropped_requests: int
    mean_served_qpm: float
    slo_violation_ratio: float
    effective_accuracy: float
    mean_pickscore: float
    mean_relative_quality: float
    p50_latency_s: float
    p99_latency_s: float
    cluster_utilization: float
    model_loads: int
    #: Largest number of workers in rotation at any point of the run.
    fleet_peak_workers: int = 0
    #: Time-weighted mean workers in rotation (equals the fixed pool size
    #: when autoscaling is off and nothing fails).
    fleet_mean_workers: float = 0.0
    #: Workers the autoscaler added / drained during the run.
    workers_added: int = 0
    workers_retired: int = 0
    #: Billable GPU-hours across the fleet (provisioning time included).
    gpu_hours: float = 0.0
    #: Dollar cost of those GPU-hours at per-type list prices.
    cost_usd: float = 0.0
    #: Per-tenant breakdown (empty for the anonymous single-tenant workload).
    tenants: tuple[TenantSummary, ...] = ()

    @property
    def fair_share_index(self) -> float:
        """Jain's index over weight-normalised per-tenant served throughput."""
        return fair_share_index(self.tenants)

    def tenant(self, name: str) -> TenantSummary:
        """Look up one tenant's breakdown row by name."""
        for row in self.tenants:
            if row.name == name:
                return row
        raise KeyError(f"no tenant {name!r} in this summary")

    @property
    def goodput_fraction(self) -> float:
        """Fraction of offered requests served within the SLO."""
        if self.total_arrivals == 0:
            return 0.0
        within_slo = self.total_completions * (1.0 - self.slo_violation_ratio)
        return within_slo / self.total_arrivals

    @property
    def cost_per_image_usd(self) -> float:
        """Fleet cost amortised over served images (0 when nothing served)."""
        if self.total_completions == 0:
            return 0.0
        return self.cost_usd / self.total_completions

    def as_dict(self) -> dict:
        """Full-precision dict of every field plus the derived properties.

        Unlike :meth:`as_row` nothing is rounded, so two bit-identical runs
        produce byte-identical JSON dumps of this dict — the property the
        scenario determinism tests pin.
        """
        payload = asdict(self)
        payload["goodput_fraction"] = self.goodput_fraction
        payload["cost_per_image_usd"] = self.cost_per_image_usd
        if self.tenants:
            for row, summary in zip(payload["tenants"], self.tenants):
                row["goodput_fraction"] = summary.goodput_fraction
            payload["tenants"] = list(payload["tenants"])
            payload["fair_share_index"] = self.fair_share_index
        else:
            # Omitted entirely so a tenancy-unconfigured run's JSON dump is
            # byte-identical to the pre-tenancy format.
            payload.pop("tenants")
        return payload

    def as_row(self) -> dict[str, float | int | str]:
        """Flat dict convenient for printing benchmark tables."""
        return {
            "system": self.system,
            "workload": self.workload,
            "served_qpm": round(self.mean_served_qpm, 2),
            "slo_violation_ratio": round(self.slo_violation_ratio, 4),
            "effective_accuracy": round(self.effective_accuracy, 3),
            "relative_quality": round(self.mean_relative_quality, 4),
            "p99_latency_s": round(self.p99_latency_s, 2),
            "utilization": round(self.cluster_utilization, 3),
            "model_loads": self.model_loads,
            "fleet_peak": self.fleet_peak_workers,
            "gpu_hours": round(self.gpu_hours, 2),
            "cost_per_image": round(self.cost_per_image_usd, 5),
        }


def summarize(
    system: str,
    workload: str,
    collector: MetricsCollector,
    duration_minutes: float,
    cluster_utilization: float = 0.0,
    model_loads: int = 0,
    fleet_peak_workers: int = 0,
    fleet_mean_workers: float = 0.0,
    workers_added: int = 0,
    workers_retired: int = 0,
    gpu_hours: float = 0.0,
    cost_usd: float = 0.0,
    tenants: tuple[TenantSummary, ...] = (),
) -> RunSummary:
    """Build a :class:`RunSummary` from a collector and the fleet figures
    of a run record (:func:`~repro.metrics.record.build_report`)."""
    duration_minutes = max(duration_minutes, 1e-9)
    return RunSummary(
        system=system,
        workload=workload,
        total_arrivals=collector.total_arrivals,
        total_completions=collector.total_completions,
        dropped_requests=collector.dropped_requests,
        mean_served_qpm=collector.total_completions / duration_minutes,
        slo_violation_ratio=collector.slo_violation_ratio(),
        effective_accuracy=collector.effective_accuracy(),
        mean_pickscore=collector.mean_pickscore(),
        mean_relative_quality=collector.mean_relative_quality(),
        p50_latency_s=collector.latency_percentile(50),
        p99_latency_s=collector.latency_percentile(99),
        cluster_utilization=cluster_utilization,
        model_loads=model_loads,
        fleet_peak_workers=fleet_peak_workers,
        fleet_mean_workers=fleet_mean_workers,
        workers_added=workers_added,
        workers_retired=workers_retired,
        gpu_hours=gpu_hours,
        cost_usd=cost_usd,
        tenants=tuple(tenants),
    )


@dataclass(frozen=True)
class ScenarioReport:
    """A scenario-tagged run report: what the ``repro`` CLI emits as JSON.

    Wraps a :class:`RunSummary` with the scenario identity (name, preset,
    seed, system) and the per-minute time series, so an artifact is fully
    self-describing: two reports are comparable iff their tags match, and a
    report regenerated from the same (scenario, preset, seed) is
    byte-identical.
    """

    scenario: str
    preset: str
    seed: int
    system: str
    workload: str
    summary: RunSummary
    #: Per-minute rows: offered/served QPM, violation ratio, relative
    #: quality and fleet size (the Fig. 16-style curves).
    minutes: list[dict] = field(default_factory=list)
    #: System-specific extras (strategy switches, cache hit rate, ...).
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serialisable dict form."""
        return {
            "scenario": self.scenario,
            "preset": self.preset,
            "seed": self.seed,
            "system": self.system,
            "workload": self.workload,
            "summary": self.summary.as_dict(),
            "minutes": list(self.minutes),
            "extras": dict(self.extras),
        }

    def to_json(self, indent: int = 2) -> str:
        """Stable JSON dump (sorted keys) of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def minute_rows(minute_series) -> list[dict]:
        """Flatten a ``MinuteStats`` series into JSON-friendly rows."""
        return [
            {
                "minute": stats.minute,
                "offered_qpm": float(stats.offered_qpm),
                "served_qpm": float(stats.served_qpm),
                "violation_ratio": float(stats.violation_ratio),
                "mean_relative_quality": float(stats.mean_relative_quality),
                "fleet_workers": float(stats.fleet_workers),
            }
            for stats in minute_series
        ]
