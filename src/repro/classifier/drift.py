"""Drift detection and retraining trigger (§4.1, Fig. 18).

Argus retrains the classifier only when significant data drift is detected:
the median PickScore of the current window falling below the moving average
of previous windows.  Retraining happens off the critical path and reuses
images generated during normal operation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True)
class DriftEvent:
    """Record of one detected drift episode."""

    window_index: int
    window_median: float
    moving_average: float

    @property
    def deficit(self) -> float:
        """How far the window median fell below the moving average."""
        return self.moving_average - self.window_median


@dataclass
class DriftDetector:
    """Sliding-window median-vs-moving-average drift detector."""

    window_size: int = 400
    history_windows: int = 5
    #: Relative slack: drift fires when median < (1 - tolerance) * moving avg.
    tolerance: float = 0.05
    #: Minimum completed windows before drift can fire at all.
    warmup_windows: int = 2

    _current: list[float] = field(default_factory=list, repr=False)
    _window_medians: deque = field(default_factory=deque, repr=False)
    _windows_seen: int = field(default=0, repr=False)
    events: list[DriftEvent] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if not 0.0 <= self.tolerance < 1.0:
            raise ValueError("tolerance must be in [0, 1)")
        self._window_medians = deque(maxlen=self.history_windows)

    # ------------------------------------------------------------------ #
    # Online updates
    # ------------------------------------------------------------------ #
    def observe(self, pickscore: float) -> DriftEvent | None:
        """Record one served request's PickScore.

        Returns a :class:`DriftEvent` when this observation completes a
        window whose median is significantly below the moving average of
        prior windows; otherwise None.
        """
        self._current.append(float(pickscore))
        if len(self._current) < self.window_size:
            return None
        return self._close_window()

    def observe_many(self, pickscores: list[float]) -> list[DriftEvent]:
        """Record a batch of observations, returning any drift events."""
        events = []
        for score in pickscores:
            event = self.observe(score)
            if event is not None:
                events.append(event)
        return events

    def _close_window(self) -> DriftEvent | None:
        values = sorted(self._current)
        median = values[len(values) // 2]
        self._current = []
        self._windows_seen += 1

        event = None
        if len(self._window_medians) >= self.warmup_windows:
            moving_average = sum(self._window_medians) / len(self._window_medians)
            if median < (1.0 - self.tolerance) * moving_average:
                event = DriftEvent(
                    window_index=self._windows_seen,
                    window_median=median,
                    moving_average=moving_average,
                )
                self.events.append(event)
        self._window_medians.append(median)
        return event

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def until_window_closes(self) -> int:
        """Observations still to come before the current window closes (the
        one that brings this to zero closes it)."""
        return self.window_size - len(self._current)

    @property
    def windows_seen(self) -> int:
        """Number of completed observation windows."""
        return self._windows_seen

    @property
    def num_drift_events(self) -> int:
        """Number of drift episodes detected so far."""
        return len(self.events)

    def reset(self) -> None:
        """Forget all state (e.g. right after retraining)."""
        self._current = []
        self._window_medians.clear()
