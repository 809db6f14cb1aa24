"""Request and completion records flowing through the cluster."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.zoo import Strategy
from repro.prompts.generator import Prompt


@dataclass(slots=True)
class Request:
    """One prompt admitted to the serving system."""

    request_id: int
    prompt: Prompt
    arrival_time_s: float
    strategy: Strategy
    #: Rank the classifier predicted as the prompt's optimal level.
    predicted_rank: int
    #: Rank the scheduler actually assigned (after the PASM shift).
    assigned_rank: int
    #: Absolute SLO deadline (arrival time + the requester's latency
    #: budget).  None outside tenant-priority queueing; requeues keep the
    #: original deadline, so a re-routed request does not jump the line.
    deadline_s: float | None = None
    #: Extra routing context (e.g. which system produced the assignment).
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class CompletedRequest:
    """A served request with its timing and placement outcome."""

    request: Request
    worker_id: int
    start_time_s: float
    completion_time_s: float
    #: Rank the image was effectively generated at (may differ from the
    #: assigned rank, e.g. an AC cache miss degrades to K=0).
    effective_rank: int
    service_time_s: float
    retrieval_latency_s: float = 0.0
    cache_hit: bool = False
    #: True when the request attempted cache retrieval but the network was
    #: unreachable (drives the AC -> SM switch decision).
    retrieval_failed: bool = False

    @property
    def latency_s(self) -> float:
        """End-to-end latency from arrival to completion (queueing included)."""
        return self.completion_time_s - self.request.arrival_time_s
