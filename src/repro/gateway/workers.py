"""Sleep-based GPU executors for the live gateway.

A :class:`StubWorker` is the part of a simulated
:class:`~repro.cluster.worker.Worker` that the wall clock changes: it runs
one GPU pass at a time from a FIFO queue, and a pass is an
``await runtime.sleep(service_time_s)``.  What a pass costs is priced by the
gateway with the simulator's own
:func:`~repro.cluster.worker.service_profile`, and which executor gets it is
chosen with the simulator's Eq. 3 rule
(:class:`~repro.core.scheduler.WorkerSelector`) over
:meth:`estimated_backlog_s`.  No images are generated; queueing, service and
latency SLOs behave like the modeled fleet's.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.runtime.wall import WallClockRuntime


@dataclass
class StubWorker:
    """Single-slot sleep-based executor with a FIFO queue."""

    worker_id: int
    runtime: WallClockRuntime
    _queue: asyncio.Queue = field(default_factory=asyncio.Queue, repr=False)
    #: Model-seconds of queued-plus-in-service work (Eq. 3 backlog signal).
    backlog_s: float = 0.0
    outstanding: int = 0
    served: int = 0
    busy_s: float = 0.0
    _task: asyncio.Task | None = field(default=None, repr=False)

    def estimated_backlog_s(self) -> float:
        """Model-seconds of work ahead of a newly enqueued request."""
        return self.backlog_s

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._serve_loop())

    async def stop(self) -> None:
        if self._task is None:
            return
        await self._queue.put(None)
        await self._task
        self._task = None

    def submit(self, service_time_s: float) -> asyncio.Future:
        """Queue one GPU pass; the future resolves to its model-time
        ``(start_s, end_s)``."""
        done = asyncio.get_running_loop().create_future()
        self.outstanding += 1
        self.backlog_s += service_time_s
        self._queue.put_nowait((service_time_s, done))
        return done

    async def _serve_loop(self) -> None:
        while True:
            job = await self._queue.get()
            if job is None:
                return
            service_time_s, done = job
            start = self.runtime.now()
            await self.runtime.sleep(service_time_s)
            self.outstanding -= 1
            self.backlog_s = max(0.0, self.backlog_s - service_time_s)
            self.served += 1
            self.busy_s += service_time_s
            if not done.done():
                done.set_result((start, self.runtime.now()))
