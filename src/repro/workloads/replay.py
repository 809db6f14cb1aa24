"""Request streams: pair arrival timestamps with prompts in dataset order.

The paper replays DiffusionDB prompts in their original arrival sequence on
top of the trace's QPS pattern; :class:`RequestStream` does the same with
the synthetic dataset, wrapping around when the trace needs more requests
than the dataset holds.

Iterating a stream is lazy: timestamps come from the arrival process one at
a time, so feeding a stream to ``schedule_arrivals`` keeps memory O(1) even
for million-request traces.  Random-access helpers (``len``, indexing,
``between``) materialise the stream on first use and cache it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.prompts.dataset import PromptDataset
from repro.prompts.generator import Prompt
from repro.workloads.arrival import ArrivalProcess
from repro.workloads.traces import WorkloadTrace


@dataclass(frozen=True, slots=True)
class TimedPrompt:
    """A prompt with its arrival time."""

    arrival_time_s: float
    prompt: Prompt


class RequestStream:
    """An ordered stream of timed prompts built from a trace and a dataset."""

    def __init__(
        self,
        trace: WorkloadTrace,
        dataset: PromptDataset,
        seed: int = 0,
        arrival_kind: str = "poisson",
    ) -> None:
        if len(dataset) == 0:
            raise ValueError("dataset must not be empty")
        if arrival_kind not in ("poisson", "uniform"):
            raise ValueError(f"unknown arrival kind {arrival_kind!r}")
        self.trace = trace
        self.dataset = dataset
        self.seed = int(seed)
        self.arrival_kind = arrival_kind
        self._materialized: list[TimedPrompt] | None = None

    def _iter_lazy(self) -> Iterator[TimedPrompt]:
        """Generate timed prompts on demand (fresh pass over the arrivals)."""
        process = ArrivalProcess(seed=self.seed)
        dataset_size = len(self.dataset)
        for index, arrival in enumerate(process.iter_arrivals(self.trace, self.arrival_kind)):
            yield TimedPrompt(arrival_time_s=arrival, prompt=self.dataset[index % dataset_size])

    @property
    def is_materialized(self) -> bool:
        """Whether the full stream has been expanded into memory."""
        return self._materialized is not None

    @property
    def _timed(self) -> list[TimedPrompt]:
        if self._materialized is None:
            self._materialized = list(self._iter_lazy())
        return self._materialized

    def __len__(self) -> int:
        return len(self._timed)

    def __iter__(self) -> Iterator[TimedPrompt]:
        if self._materialized is not None:
            return iter(self._materialized)
        return self._iter_lazy()

    def __getitem__(self, index: int) -> TimedPrompt:
        return self._timed[index]

    @property
    def duration_s(self) -> float:
        """Length of the stream in simulated seconds (trace duration)."""
        return self.trace.duration_minutes * 60.0

    def offered_qpm(self, minute: int) -> float:
        """Offered load during a given minute, from the underlying trace."""
        return self.trace.qpm_at(minute)

    def between(self, start_s: float, end_s: float) -> list[TimedPrompt]:
        """Timed prompts arriving within [start_s, end_s)."""
        return [tp for tp in self._timed if start_s <= tp.arrival_time_s < end_s]


class PhasedRequestStream(RequestStream):
    """A request stream whose prompt distribution shifts over time.

    ``phases`` is a sequence of ``(start_s, dataset)`` pairs sorted by start
    time with the first phase starting at 0.0; each arrival draws (cyclically,
    with a per-phase cursor) from the dataset of the phase its timestamp
    falls in.  Arrival *timestamps* come from the same lazy arrival process
    as :class:`RequestStream`, so a drift schedule perturbs only the prompt
    mix — the offered load is identical to the undrifted stream.

    This is the workload-side half of classifier drift (Fig. 18): the served
    prompt distribution changes mid-run and the system's drift detector is
    expected to notice and retrain.
    """

    def __init__(
        self,
        trace: WorkloadTrace,
        phases: Sequence[tuple[float, PromptDataset]],
        seed: int = 0,
        arrival_kind: str = "poisson",
    ) -> None:
        if not phases:
            raise ValueError("need at least one phase")
        starts = [float(start) for start, _ in phases]
        if starts[0] != 0.0:
            raise ValueError("first phase must start at 0.0")
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError("phase start times must be strictly increasing")
        super().__init__(trace=trace, dataset=phases[0][1], seed=seed, arrival_kind=arrival_kind)
        self.phases = [(float(start), dataset) for start, dataset in phases]
        for _, dataset in self.phases:
            if len(dataset) == 0:
                raise ValueError("phase datasets must not be empty")

    def _iter_lazy(self) -> Iterator[TimedPrompt]:
        process = ArrivalProcess(seed=self.seed)
        cursors = [0] * len(self.phases)
        index = 0
        for arrival in process.iter_arrivals(self.trace, self.arrival_kind):
            while index + 1 < len(self.phases) and arrival >= self.phases[index + 1][0]:
                index += 1
            dataset = self.phases[index][1]
            yield TimedPrompt(
                arrival_time_s=arrival, prompt=dataset[cursors[index] % len(dataset)]
            )
            cursors[index] += 1
