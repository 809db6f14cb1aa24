"""Live-mode HTTP gateway: wall-clock serving of the modeled stack.

The gateway keeps only what the wall clock changes: the HTTP server and
the admission bridge in :mod:`repro.gateway.server`, and the sleep-based
executors in :mod:`repro.gateway.workers`.  Worker choice, pricing and
drift keying are the simulator's own code.  :mod:`repro.gateway.loadgen`
replays a scenario against a live server.
"""

from repro.gateway.loadgen import LoadgenResult, replay, replay_async
from repro.gateway.server import AdmissionGate, Gateway, prompt_from_payload
from repro.gateway.workers import StubWorker

__all__ = [
    "AdmissionGate",
    "Gateway",
    "LoadgenResult",
    "StubWorker",
    "prompt_from_payload",
    "replay",
    "replay_async",
]
