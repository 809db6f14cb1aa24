"""Serializable message types crossing shard process boundaries.

Sharded execution (:mod:`repro.simulation.shard`) replaces the shared object
graph between the coordinator and each shard's serving system with explicit
messages: control messages drive the conservative time-window barrier
(``RunWindow`` down, ``BarrierReached`` up), ``ScaleRequest``/``ScaleOutcomes``
carry the budget-brokered autoscaling exchange at epoch boundaries,
``Finalize``/``ShardResult`` close a run, and the data-plane records
(``DispatchMessage``, ``CompletionMessage``, ``RequeueMessage``) describe
every request movement when a shard runs with message recording on (the
parity and conservation tests drive that mode).

Every message round-trips through a plain ``dict`` via :func:`encode` /
:func:`decode` — a ``kind``-tagged registry, no pickle-only payloads except
the numpy columns inside ``ShardResult``'s collector snapshot, which encode
to lists and decode back to typed arrays.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

_REGISTRY: dict[str, type] = {}

#: Dtypes of the numpy columns inside a collector snapshot (see
#: :meth:`repro.metrics.collector.MetricsCollector.export_state`).
_STATE_DTYPES = {
    "lat": np.float64,
    "pick": np.float64,
    "best": np.float64,
    "relq": np.float64,
    "minute": np.int64,
    "tenant_col": np.int32,
}


def _register(cls):
    """Class decorator adding ``cls`` to the kind registry."""
    if cls.kind in _REGISTRY:
        raise ValueError(f"duplicate message kind {cls.kind!r}")
    _REGISTRY[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class Message:
    """Base class: a frozen record with a ``kind`` tag and a dict form."""

    kind = "message"

    def encode(self) -> dict:
        """Plain-dict form (JSON-compatible except where documented)."""
        payload = self._payload()
        payload["kind"] = self.kind
        return payload

    def _payload(self) -> dict:
        return asdict(self)

    @classmethod
    def _from_payload(cls, payload: dict) -> "Message":
        return cls(**payload)


def encode(message: Message) -> dict:
    """Encode any message to its kind-tagged dict form."""
    return message.encode()


def decode(payload: "dict | Message") -> Message:
    """Rebuild a message from its kind-tagged dict form.

    A :class:`Message` instance passes through unchanged: transports that
    can carry typed objects natively (the shard pipes, which pickle) send
    the message itself to skip list-ifying multi-million-row collector
    columns; the dict form remains the canonical serializable encoding.
    """
    if isinstance(payload, Message):
        return payload
    kind = payload["kind"]
    try:
        cls = _REGISTRY[kind]
    except KeyError:
        raise ValueError(f"unknown message kind {kind!r}; known: {sorted(_REGISTRY)}") from None
    data = {key: value for key, value in payload.items() if key != "kind"}
    return cls._from_payload(data)


# --------------------------------------------------------------------------- #
# Control plane: barrier protocol
# --------------------------------------------------------------------------- #


@_register
@dataclass(frozen=True)
class RunWindow(Message):
    """Coordinator -> shard: advance your event loop to ``window_end_s``.

    The shard processes every event at or before the window end, advances
    its clock to exactly the window end (even with an empty heap — the
    conservative barrier), and answers with :class:`BarrierReached`.
    """

    kind = "run_window"
    window_end_s: float
    #: True when the window ends on an ``autoscale_epoch_s`` grid point:
    #: the shard must ship its pending scale requests in the barrier reply
    #: and will receive a :class:`ScaleOutcomes` before the next window.
    epoch_boundary: bool = False


@_register
@dataclass(frozen=True)
class MetricsDelta(Message):
    """What one shard's collector accumulated during one barrier window."""

    kind = "metrics_delta"
    shard_id: int
    window_end_s: float
    arrivals: int
    completions: int
    dropped: int
    slo_violations: int


@_register
@dataclass(frozen=True)
class FleetDelta(Message):
    """One shard's fleet movement during one barrier window."""

    kind = "fleet_delta"
    shard_id: int
    window_end_s: float
    #: Workers in rotation at the barrier.
    active_workers: int
    workers_added: int
    workers_retired: int
    model_loads: int
    #: Workers provisioned but not yet in rotation at the barrier.
    provisioning_workers: int = 0
    #: Workers in the FAILED state at the barrier (still owned by the shard
    #: — they may recover — so the broker ledger keeps counting them).
    failed_workers: int = 0


@_register
@dataclass(frozen=True)
class ScaleRequest(Message):
    """One shard autoscaler ask, brokered by the coordinator.

    ``seq`` is the shard-local emission sequence; the broker grants in
    (shard id, seq) order, which is what makes N-shard autoscaled runs
    reproducible regardless of process timing.
    """

    kind = "scale_request"
    seq: int
    action: str  # "scale_out" | "scale_in"
    time_s: float
    #: Workers asked for (scale_out) or offered back (scale_in, always 1).
    count: int
    reason: str = ""


@_register
@dataclass(frozen=True)
class ScaleOutcome(Message):
    """The broker's answer to one :class:`ScaleRequest`."""

    kind = "scale_outcome"
    seq: int
    action: str
    #: Workers granted (0 = denied outright).
    granted: int
    #: GPU types for granted scale-out workers, assigned from the *global*
    #: ``gpu_mix`` cycle so the fleet mix matches a sequential deployment.
    gpus: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gpus", tuple(self.gpus))


@_register
@dataclass(frozen=True)
class ScaleOutcomes(Message):
    """Coordinator -> shard: all grant decisions for one epoch boundary.

    Sent to *every* shard at every epoch boundary (possibly with an empty
    outcome list), so the barrier protocol stays lockstep and
    window-invariant.  The shard applies grants at exactly the epoch time
    before running its next window.
    """

    kind = "scale_outcomes"
    window_end_s: float
    outcomes: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))

    def _payload(self) -> dict:
        return {
            "window_end_s": self.window_end_s,
            "outcomes": [outcome.encode() for outcome in self.outcomes],
        }

    @classmethod
    def _from_payload(cls, payload: dict) -> "ScaleOutcomes":
        data = dict(payload)
        data["outcomes"] = tuple(
            outcome if isinstance(outcome, ScaleOutcome) else decode(dict(outcome))
            for outcome in data.get("outcomes", ())
        )
        return cls(**data)


@_register
@dataclass(frozen=True)
class BarrierReached(Message):
    """Shard -> coordinator: clock is at the window end; here are my deltas."""

    kind = "barrier_reached"
    shard_id: int
    window_end_s: float
    metrics: MetricsDelta
    fleet: FleetDelta
    #: Pending autoscaler asks, shipped only at epoch boundaries.
    scale_requests: tuple = ()
    #: Scale-in grants the shard skipped at apply time since the last
    #: barrier (drain candidate failed meanwhile); the coordinator adds the
    #: count back to the broker's committed ledger.
    unapplied_scale_ins: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale_requests", tuple(self.scale_requests))

    def _payload(self) -> dict:
        payload = asdict(self)
        payload["scale_requests"] = [request.encode() for request in self.scale_requests]
        return payload

    @classmethod
    def _from_payload(cls, payload: dict) -> "BarrierReached":
        data = dict(payload)
        metrics = dict(data["metrics"])
        fleet = dict(data["fleet"])
        metrics.pop("kind", None)
        fleet.pop("kind", None)
        data["metrics"] = MetricsDelta(**metrics)
        data["fleet"] = FleetDelta(**fleet)
        data["scale_requests"] = tuple(
            request if isinstance(request, ScaleRequest) else decode(dict(request))
            for request in data.get("scale_requests", ())
        )
        return cls(**data)


@_register
@dataclass(frozen=True)
class Finalize(Message):
    """Coordinator -> shard: the run is over; reply with a ShardResult."""

    kind = "finalize"


# --------------------------------------------------------------------------- #
# Data plane: per-request movement records (message-recording mode)
# --------------------------------------------------------------------------- #


@_register
@dataclass(frozen=True)
class DispatchMessage(Message):
    """One request handed to a worker queue."""

    kind = "dispatch"
    shard_id: int
    request_id: int
    worker_id: int
    time_s: float
    tenant: str
    prompt_id: int
    predicted_rank: int
    assigned_rank: int
    strategy: str


@_register
@dataclass(frozen=True)
class CompletionMessage(Message):
    """One request served to completion."""

    kind = "completion"
    shard_id: int
    request_id: int
    worker_id: int
    completion_time_s: float
    latency_s: float
    effective_rank: int
    cache_hit: bool


@_register
@dataclass(frozen=True)
class RequeueMessage(Message):
    """One request orphaned by its worker and handed back for re-routing."""

    kind = "requeue"
    shard_id: int
    request_id: int
    time_s: float
    tenant: str


# --------------------------------------------------------------------------- #
# Finalization payload
# --------------------------------------------------------------------------- #


def _encode_collector_state(state: dict) -> dict:
    """List-ify the numpy columns and string-ify int dict keys."""
    encoded = dict(state)
    for key in _STATE_DTYPES:
        encoded[key] = np.asarray(state[key]).tolist()
    encoded["minute_counts"] = {
        str(minute): list(counts) for minute, counts in state["minute_counts"].items()
    }
    encoded["arrivals_by_minute"] = {
        str(minute): int(count) for minute, count in state["arrivals_by_minute"].items()
    }
    return encoded


def _decode_collector_state(state: dict) -> dict:
    decoded = dict(state)
    for key, dtype in _STATE_DTYPES.items():
        decoded[key] = np.asarray(state[key], dtype=dtype)
    decoded["minute_counts"] = {
        int(minute): list(counts) for minute, counts in state["minute_counts"].items()
    }
    decoded["arrivals_by_minute"] = {
        int(minute): int(count) for minute, count in state["arrivals_by_minute"].items()
    }
    decoded["tenant_names"] = list(state["tenant_names"])
    return decoded


@_register
@dataclass(frozen=True)
class ShardResult(Message):
    """Shard -> coordinator: everything needed to merge the shard's run.

    ``collector_state`` is a
    :meth:`~repro.metrics.collector.MetricsCollector.export_state` snapshot;
    the scalar fields mirror the inputs of
    :func:`repro.metrics.report.summarize` so the coordinator can build the
    merged :class:`~repro.metrics.report.RunSummary` with the exact
    sequential summary math.
    """

    kind = "shard_result"
    shard_id: int
    system_name: str
    num_workers: int
    collector_state: dict
    requests_served: int
    batches_served: int
    model_loads: int
    utilization: float
    fleet_peak_workers: int
    fleet_mean_workers: float
    workers_added: int
    workers_retired: int
    gpu_hours: float
    cost_usd: float
    #: Requests still queued or in flight when the run (drain included) ended.
    outstanding_requests: int
    #: Per-minute rows: ``{"minute": int, "mean_workers": float, "by_gpu": {...}}``.
    fleet_minutes: list = field(default_factory=list)
    #: Shard-local observations (cache counters, switches, retraining, ...).
    extras: dict = field(default_factory=dict)
    #: Per-tenant observations keyed by tenant name (tenant-partitioned runs).
    tenant_extras: dict = field(default_factory=dict)
    #: Encoded data-plane messages, populated only in message-recording mode.
    messages: list = field(default_factory=list)

    def _payload(self) -> dict:
        payload = asdict(self)
        payload["collector_state"] = _encode_collector_state(self.collector_state)
        return payload

    @classmethod
    def _from_payload(cls, payload: dict) -> "ShardResult":
        data = dict(payload)
        data["collector_state"] = _decode_collector_state(data["collector_state"])
        return cls(**data)
