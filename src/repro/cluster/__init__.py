"""Simulated GPU cluster substrate.

Workers are event-driven queueing stations attached to the shared
:class:`~repro.simulation.engine.SimulationEngine`.  Each worker serves one
request per GPU pass at a single approximation level, holds one or two
models in GPU memory, pays the Table-2 load latency when switching SM
variants, and can be failed / recovered to reproduce the fault experiments
(Fig. 20).
The fleet is elastic and heterogeneous: workers carry per-type GPU specs
(Fig. 5 relative speeds, native memory sizes) and can be provisioned or
drained at runtime by the autoscaler.
"""

from repro.cluster.memory import GpuMemory
from repro.cluster.requests import CompletedRequest, Request
from repro.cluster.worker import Worker, WorkerState
from repro.cluster.cluster import FleetLogEntry, FleetMinute, GpuCluster

__all__ = [
    "CompletedRequest",
    "FleetLogEntry",
    "FleetMinute",
    "GpuCluster",
    "GpuMemory",
    "Request",
    "Worker",
    "WorkerState",
]
