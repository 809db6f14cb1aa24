"""Time-series metrics collection for serving experiments.

The collector stores per-request outcomes **columnar**: latency, PickScore,
best PickScore and completion minute live in growable contiguous float
arrays instead of one Python object per request.  Scalar summaries
(`latency_percentile`, `effective_accuracy`, ...) are single vectorized
passes over those arrays, and per-minute aggregates are maintained
incrementally at record time, so nothing ever rescans N Python objects.
At a million completions this is roughly an order of magnitude less memory
than the previous object-list design and 10-100x faster to summarise.
No per-request object is retained: :meth:`MetricsCollector.record_completion`
hands its :class:`ServedSample` to the caller and keeps only the columns.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.requests import CompletedRequest
from repro.metrics.slo import SloPolicy


@dataclass(frozen=True, slots=True)
class ServedSample:
    """One served request annotated with its quality outcome."""

    completed: CompletedRequest
    pickscore: float
    best_pickscore: float

    @property
    def relative_quality(self) -> float:
        """PickScore relative to the best achievable for the prompt."""
        if self.best_pickscore <= 0:
            return 0.0
        return self.pickscore / self.best_pickscore

    @property
    def latency_s(self) -> float:
        """End-to-end latency of the request."""
        return self.completed.latency_s


class _Column:
    """Growable contiguous numpy column (amortised O(1) append)."""

    __slots__ = ("_data", "_n")

    def __init__(self, dtype=np.float64, capacity: int = 1024) -> None:
        self._data = np.empty(capacity, dtype=dtype)
        self._n = 0

    def append(self, value) -> None:
        if self._n == len(self._data):
            grown = np.empty(2 * len(self._data), dtype=self._data.dtype)
            grown[: self._n] = self._data
            self._data = grown
        self._data[self._n] = value
        self._n += 1

    def extend(self, values) -> None:
        """Bulk append (one resize + one vectorized copy)."""
        values = np.asarray(values, dtype=self._data.dtype)
        needed = self._n + len(values)
        if needed > len(self._data):
            grown = np.empty(max(2 * len(self._data), needed), dtype=self._data.dtype)
            grown[: self._n] = self._data[: self._n]
            self._data = grown
        self._data[self._n : needed] = values
        self._n = needed

    def view(self) -> np.ndarray:
        """Zero-copy view of the filled prefix."""
        return self._data[: self._n]

    def __len__(self) -> int:
        return self._n


@dataclass
class MinuteStats:
    """Aggregated statistics for one simulated minute.

    The per-sample columns (``pickscores``/``relative_qualities``/
    ``latencies``) are numpy slices of the collector's columnar storage,
    attached by :meth:`MetricsCollector.minute_series`.
    """

    minute: int
    offered_qpm: float = 0.0
    arrivals: int = 0
    completions: int = 0
    slo_violations: int = 0
    pickscores: Sequence[float] = field(default_factory=list)
    relative_qualities: Sequence[float] = field(default_factory=list)
    latencies: Sequence[float] = field(default_factory=list)
    #: Time-weighted mean workers in rotation this minute (0 when the run
    #: did not attach fleet accounting).
    fleet_workers: float = 0.0

    @property
    def served_qpm(self) -> float:
        """Completions during this minute (the served throughput)."""
        return float(self.completions)

    @property
    def violation_ratio(self) -> float:
        """Fraction of completions this minute that violated the SLO."""
        if self.completions == 0:
            return 0.0
        return self.slo_violations / self.completions

    @property
    def mean_pickscore(self) -> float:
        """Mean PickScore of completions this minute (0 when none)."""
        return float(np.mean(self.pickscores)) if len(self.pickscores) else 0.0

    @property
    def mean_relative_quality(self) -> float:
        """Mean relative quality of completions this minute (0 when none)."""
        if not len(self.relative_qualities):
            return 0.0
        return float(np.mean(self.relative_qualities))


class MetricsCollector:
    """Collects per-request outcomes columnar and aggregates them per minute.

    Args:
        slo: latency SLO policy (defaults to the paper's 3x SD-XL budget).
    """

    def __init__(self, slo: SloPolicy | None = None) -> None:
        self.slo = slo or SloPolicy()
        self._lat = _Column()
        self._pick = _Column()
        self._best = _Column()
        self._relq = _Column()
        self._minute = _Column(dtype=np.int64)
        #: minute -> [completions, slo_violations] maintained incrementally.
        self._minute_counts: dict[int, list[int]] = {}
        self._arrivals_by_minute: dict[int, int] = defaultdict(int)
        self.dropped_requests = 0
        # Tenant dimension: completions carry an interned tenant index in a
        # parallel column; arrivals and drops keep per-tenant counters.  The
        # anonymous workload interns a single "" tenant, so single-tenant
        # overhead is one int per completion.
        self._tenant_ids: dict[str, int] = {}
        self._tenant_col = _Column(dtype=np.int32)
        self._tenant_arrivals: dict[str, int] = defaultdict(int)
        self._tenant_drops: dict[str, int] = defaultdict(int)
        #: Cache-tier per-shard accounting: shard id -> [lookups, hits,
        #: total latency].  Empty unless a distributed cache tier feeds
        #: :meth:`record_cache_lookup` (the flat cache records nothing).
        self._cache_shards: dict[int, list[float]] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _tenant_id(self, tenant: str) -> int:
        """Intern a tenant name into a stable small integer."""
        tenant_id = self._tenant_ids.get(tenant)
        if tenant_id is None:
            tenant_id = self._tenant_ids[tenant] = len(self._tenant_ids)
        return tenant_id

    def record_arrival(self, arrival_time_s: float, tenant: str = "") -> None:
        """Record an offered request (whether or not it completes)."""
        self._arrivals_by_minute[int(arrival_time_s // 60)] += 1
        self._tenant_arrivals[tenant] += 1

    def record_drop(self, tenant: str = "") -> None:
        """Record a request the system could not serve at all."""
        self.dropped_requests += 1
        self._tenant_drops[tenant] += 1

    def record_cache_lookup(self, shard: int, hit: bool, latency_s: float) -> None:
        """Record one cache-tier retrieval against its answering shard."""
        counters = self._cache_shards.get(shard)
        if counters is None:
            counters = self._cache_shards[shard] = [0, 0, 0.0]
        counters[0] += 1
        if hit:
            counters[1] += 1
        counters[2] += latency_s

    def cache_shard_stats(self) -> dict[str, dict[str, float]]:
        """Per-shard cache traffic: shard -> lookups / hits / mean latency."""
        return {
            str(shard): {
                "lookups": int(lookups),
                "hits": int(hits),
                "mean_latency_s": (latency / lookups) if lookups else 0.0,
            }
            for shard, (lookups, hits, latency) in sorted(self._cache_shards.items())
        }

    def record_completion(
        self, completed: CompletedRequest, pickscore: float, best_pickscore: float
    ) -> ServedSample:
        """Record a served request with its quality outcome.  O(1)."""
        sample = ServedSample(completed=completed, pickscore=pickscore, best_pickscore=best_pickscore)
        latency = sample.latency_s
        self._lat.append(latency)
        self._pick.append(pickscore)
        self._best.append(best_pickscore)
        self._relq.append(sample.relative_quality)
        self._tenant_col.append(self._tenant_id(completed.request.prompt.tenant))
        minute = int(completed.completion_time_s // 60)
        self._minute.append(minute)
        counts = self._minute_counts.get(minute)
        if counts is None:
            counts = self._minute_counts[minute] = [0, 0]
        counts[0] += 1
        if self.slo.is_violation(latency):
            counts[1] += 1
        return sample

    # ------------------------------------------------------------------ #
    # Cross-process merging (sharded execution)
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """Columnar snapshot of everything recorded so far.

        The snapshot is self-contained and picklable (numpy arrays plus
        plain dicts), so a shard process can ship its collector across a
        pipe and the coordinator can rebuild the union with
        :meth:`absorb_state`.
        """
        names = [""] * len(self._tenant_ids)
        for name, tenant_id in self._tenant_ids.items():
            names[tenant_id] = name
        return {
            "lat": self._lat.view().copy(),
            "pick": self._pick.view().copy(),
            "best": self._best.view().copy(),
            "relq": self._relq.view().copy(),
            "minute": self._minute.view().copy(),
            "tenant_col": self._tenant_col.view().copy(),
            "tenant_names": names,
            "minute_counts": {int(m): list(c) for m, c in self._minute_counts.items()},
            "arrivals_by_minute": {
                int(m): int(c) for m, c in self._arrivals_by_minute.items()
            },
            "dropped_requests": int(self.dropped_requests),
            "tenant_arrivals": dict(self._tenant_arrivals),
            "tenant_drops": dict(self._tenant_drops),
            "cache_shards": {int(s): list(c) for s, c in self._cache_shards.items()},
        }

    def absorb_state(self, state: dict) -> None:
        """Merge an :meth:`export_state` snapshot into this collector.

        Columns are appended in bulk and tenant indices are re-interned
        into this collector's namespace, so absorbing N shard snapshots in
        shard order is deterministic.
        """
        self._lat.extend(state["lat"])
        self._pick.extend(state["pick"])
        self._best.extend(state["best"])
        self._relq.extend(state["relq"])
        self._minute.extend(state["minute"])
        names = list(state["tenant_names"])
        column = np.asarray(state["tenant_col"], dtype=np.int32)
        if names and len(column):
            remap = np.array([self._tenant_id(n) for n in names], dtype=np.int32)
            column = remap[column]
        self._tenant_col.extend(column)
        for minute, (completions, violations) in state["minute_counts"].items():
            counts = self._minute_counts.get(minute)
            if counts is None:
                counts = self._minute_counts[minute] = [0, 0]
            counts[0] += completions
            counts[1] += violations
        for minute, arrivals in state["arrivals_by_minute"].items():
            self._arrivals_by_minute[minute] += arrivals
        self.dropped_requests += state["dropped_requests"]
        for tenant, count in state["tenant_arrivals"].items():
            self._tenant_arrivals[tenant] += count
        for tenant, count in state["tenant_drops"].items():
            self._tenant_drops[tenant] += count
        for shard, (lookups, hits, latency) in state.get("cache_shards", {}).items():
            counters = self._cache_shards.get(shard)
            if counters is None:
                counters = self._cache_shards[shard] = [0, 0, 0.0]
            counters[0] += lookups
            counters[1] += hits
            counters[2] += latency

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def _grouped_minute_slices(self) -> dict[int, np.ndarray]:
        """Row positions per completion minute (order-preserving)."""
        minutes = self._minute.view()
        if len(minutes) == 0:
            return {}
        positions: dict[int, np.ndarray] = {}
        # Completions almost always arrive in nondecreasing time order, so
        # each minute is one contiguous slice findable via searchsorted; the
        # stable argsort below only runs for out-of-order direct API use.
        if np.all(minutes[1:] >= minutes[:-1]):
            uniques = np.unique(minutes)
            starts = np.searchsorted(minutes, uniques, side="left")
            ends = np.searchsorted(minutes, uniques, side="right")
            for minute, start, end in zip(uniques, starts, ends):
                positions[int(minute)] = np.arange(start, end)
        else:
            order = np.argsort(minutes, kind="stable")
            ordered = minutes[order]
            uniques = np.unique(ordered)
            starts = np.searchsorted(ordered, uniques, side="left")
            ends = np.searchsorted(ordered, uniques, side="right")
            for minute, start, end in zip(uniques, starts, ends):
                positions[int(minute)] = order[start:end]
        return positions

    def minute_series(
        self,
        offered: dict[int, float] | None = None,
        fleet: dict[int, "object"] | None = None,
    ) -> list[MinuteStats]:
        """Per-minute statistics, sorted by minute.

        Args:
            offered: optional per-minute offered QPM to attach (e.g. from the
                trace); arrivals recorded via :meth:`record_arrival` are used
                when absent.
            fleet: optional per-minute fleet composition to attach, mapping
                minute -> :class:`repro.cluster.cluster.FleetMinute` (from
                ``GpuCluster.fleet_minute_series``).
        """
        minutes = set(self._minute_counts) | set(self._arrivals_by_minute)
        if offered:
            minutes |= set(offered)
        if fleet:
            minutes |= set(fleet)
        grouped = self._grouped_minute_slices()
        lat = self._lat.view()
        pick = self._pick.view()
        relq = self._relq.view()
        series = []
        for minute in sorted(minutes):
            stats = MinuteStats(minute=minute)
            counts = self._minute_counts.get(minute)
            if counts is not None:
                stats.completions, stats.slo_violations = counts
                rows = grouped[minute]
                stats.pickscores = pick[rows]
                stats.relative_qualities = relq[rows]
                stats.latencies = lat[rows]
            stats.arrivals = self._arrivals_by_minute.get(minute, 0)
            stats.offered_qpm = (
                offered.get(minute, float(stats.arrivals)) if offered else float(stats.arrivals)
            )
            if fleet and minute in fleet:
                stats.fleet_workers = fleet[minute].mean_workers
            series.append(stats)
        return series

    # ------------------------------------------------------------------ #
    # Scalar summaries (single vectorized pass each)
    # ------------------------------------------------------------------ #
    @property
    def total_completions(self) -> int:
        """Total requests served."""
        return len(self._lat)

    @property
    def total_arrivals(self) -> int:
        """Total requests offered."""
        return sum(self._arrivals_by_minute.values())

    @property
    def total_slo_violations(self) -> int:
        """Total completions that violated the latency SLO (incremental)."""
        return sum(counts[1] for counts in self._minute_counts.values())

    def slo_violation_ratio(self) -> float:
        """Fraction of served requests violating the latency SLO."""
        n = self.total_completions
        if n == 0:
            return 0.0
        violations = int(np.count_nonzero(self.slo.violation_mask(self._lat.view())))
        return violations / n

    def effective_accuracy(self) -> float:
        """Mean PickScore over requests completed within the SLO (§5.1)."""
        within = self._pick.view()[~self.slo.violation_mask(self._lat.view())]
        return float(np.mean(within)) if len(within) else 0.0

    def mean_pickscore(self) -> float:
        """Mean PickScore over all served requests."""
        return float(np.mean(self._pick.view())) if self.total_completions else 0.0

    def mean_relative_quality(self) -> float:
        """Mean relative quality over all served requests."""
        if not self.total_completions:
            return 0.0
        return float(np.mean(self._relq.view()))

    def latency_percentile(self, percentile: float) -> float:
        """Latency percentile in seconds over served requests."""
        if not self.total_completions:
            return 0.0
        return float(np.percentile(self._lat.view(), percentile))

    def relative_qualities(self) -> list[float]:
        """Per-request relative qualities (input to the user-study simulator)."""
        return self._relq.view().tolist()

    # ------------------------------------------------------------------ #
    # Per-tenant breakdowns
    # ------------------------------------------------------------------ #
    @property
    def tenant_names(self) -> list[str]:
        """Tenant names observed so far (arrival, drop or completion)."""
        names = set(self._tenant_ids) | set(self._tenant_arrivals) | set(self._tenant_drops)
        return sorted(names)

    def tenant_stats(self, tenant: str, budget_s: float | None = None) -> dict:
        """Outcome statistics for one tenant, against its own SLO budget.

        ``budget_s`` overrides the collector's global SLO budget (per-tenant
        SLO classes); None keeps the global policy.  Unknown tenants return
        all-zero stats.
        """
        budget = self.slo.budget_s if budget_s is None else float(budget_s)
        tenant_id = self._tenant_ids.get(tenant)
        if tenant_id is None:
            latencies = np.empty(0)
            relq = np.empty(0)
        else:
            mask = self._tenant_col.view() == tenant_id
            latencies = self._lat.view()[mask]
            relq = self._relq.view()[mask]
        completions = int(latencies.size)
        violations = int(np.count_nonzero(latencies > budget))
        return {
            "arrivals": int(self._tenant_arrivals.get(tenant, 0)),
            "completions": completions,
            "dropped": int(self._tenant_drops.get(tenant, 0)),
            "violation_ratio": violations / completions if completions else 0.0,
            "mean_relative_quality": float(np.mean(relq)) if completions else 0.0,
            "p99_latency_s": float(np.percentile(latencies, 99)) if completions else 0.0,
        }
