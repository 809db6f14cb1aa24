"""In-memory span tracer and the wrappers that attach it to the serving stack.

A span covers one call into a layer's public function.  Spans nest on a
stack, so every span knows its parent: a span's *self* time is its duration
minus the durations of its direct children, and a layer's self time is the
sum over its spans.  A layer's *total* time counts only its outermost spans,
so a layer that calls back into itself is not counted twice.

Nothing is written while the run is traced: spans are folded into per-name
and per-layer aggregates as they close, and :meth:`Tracer.to_dict` is dumped
once at the end.

:func:`install` wraps the public methods named in :data:`TARGETS` on their
defining classes (plus the ``summarize`` function at its two import sites and
the callbacks handed to ``SimulationEngine.schedule_at``) and returns a handle
whose :meth:`Installed.uninstall` puts every original object back.  Per-worker
inner calls (``Worker.is_active`` and friends) are deliberately not wrapped:
they run tens of millions of times on a large fleet.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class SpanStats:
    """Aggregate of every closed span with one name."""

    layer: str
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


@dataclass
class LayerStats:
    """Aggregate of every closed span of one layer."""

    calls: int = 0
    self_s: float = 0.0
    #: Wall time under the layer's outermost spans only.
    total_s: float = 0.0
    #: Self time split by the phase that was current when the span closed.
    phase_self_s: dict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    """Stack-based span recorder with per-layer aggregation."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: Open spans, innermost last: [layer, name, start, child_s].
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.spans: dict[str, SpanStats] = {}
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.counters: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Label attached to self time as spans close ("setup" or "serve").
        self.phase = "setup"

    def enter(self, layer: str, name: str) -> list:
        frame = [layer, name, self._clock(), 0.0]
        self._stack.append(frame)
        self._depth[layer] += 1
        return frame

    def exit(self, frame: list) -> None:
        duration = self._clock() - frame[2]
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed while {top[1]!r} was open")
        layer, name = frame[0], frame[1]
        self_s = duration - frame[3]
        if self._stack:
            self._stack[-1][3] += duration
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats(layer=layer)
        stats.calls += 1
        stats.self_s += self_s
        stats.total_s += duration
        agg = self.layers[layer]
        agg.calls += 1
        agg.self_s += self_s
        agg.phase_self_s[self.phase] += self_s
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            agg.total_s += duration

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def calls(self, name: str) -> int:
        stats = self.spans.get(name)
        return 0 if stats is None else stats.calls

    def span_self_s(self, name: str) -> float:
        stats = self.spans.get(name)
        return 0.0 if stats is None else stats.self_s

    def span_total_s(self, name: str) -> float:
        stats = self.spans.get(name)
        return 0.0 if stats is None else stats.total_s

    def layer_self_s(self, layer: str) -> float:
        stats = self.layers.get(layer)
        return 0.0 if stats is None else stats.self_s

    def serve_shares(self) -> dict[str, float]:
        """Each layer's share of the self time recorded in the serve phase."""
        serve = {name: stats.phase_self_s.get("serve", 0.0) for name, stats in self.layers.items()}
        total = sum(serve.values())
        return {name: (value / total if total > 0 else 0.0) for name, value in serve.items()}

    def to_dict(self) -> dict:
        return {
            "spans": {
                name: {
                    "layer": s.layer,
                    "calls": s.calls,
                    "self_s": s.self_s,
                    "total_s": s.total_s,
                }
                for name, s in sorted(self.spans.items())
            },
            "layers": {
                name: {
                    "calls": s.calls,
                    "self_s": s.self_s,
                    "total_s": s.total_s,
                    "phase_self_s": dict(s.phase_self_s),
                }
                for name, s in sorted(self.layers.items())
            },
            "counters": dict(self.counters),
        }


# --------------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------------- #


def wrap_function(fn: Callable, tracer: Tracer, layer: str, name: str, observe=None) -> Callable:
    """A function recording one span per call; ``observe(tracer, args)``
    runs first, inside the span."""
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = enter(layer, name)
        try:
            if observe is not None:
                observe(tracer, args)
            return fn(*args, **kwargs)
        finally:
            exit_(frame)

    return traced


class _SteppedCoroutine:
    """Awaitable that drives a coroutine and records one span per step.

    A coroutine suspended at an ``await`` is not running, and other tasks
    run in between, so a span over the whole call would charge them to it.
    Timing each ``send`` separately charges the coroutine only for the time
    it holds the event loop.
    """

    def __init__(self, coro, tracer: Tracer, layer: str, name: str) -> None:
        self._coro, self._tracer, self._layer, self._name = coro, tracer, layer, name

    def __await__(self):
        coro, tracer = self._coro, self._tracer
        value, error = None, None
        while True:
            frame = tracer.enter(self._layer, self._name)
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.exit(frame)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # forwarded into the coroutine, incl. cancellation
                value, error = None, exc


def wrap_coroutine_function(fn: Callable, tracer: Tracer, layer: str, name: str) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.counters[f"{name}.calls"] += 1
        return _SteppedCoroutine(fn(*args, **kwargs), tracer, layer, name)

    return traced


#: Engine event-name prefix -> span name for scheduled callbacks.
EVENT_SPANS = (
    ("arrival", "workloads.arrival"),
    ("serve-w", "cluster.serve_events"),
    ("batch-form-w", "cluster.events"),
    ("load-w", "cluster.events"),
    ("provision-w", "cluster.events"),
    ("argus-allocator", "core.allocator.tick"),
    ("admission-pump", "core.admission.pump"),
)


def layer_of(span: str) -> str:
    """The layer a span belongs to: its name up to the last dot."""
    return span.rsplit(".", 1)[0]


def event_span(event_name: str) -> str:
    for prefix, span in EVENT_SPANS:
        if event_name.startswith(prefix):
            return span
    return "simulation.event"


def wrap_schedule_at(original: Callable, tracer: Tracer) -> Callable:
    """``SimulationEngine.schedule_at`` whose callbacks record spans."""

    @functools.wraps(original)
    def schedule_at(self, time, callback, name=""):
        span = event_span(name)
        layer = layer_of(span)
        enter, exit_, counters = tracer.enter, tracer.exit, tracer.counters

        def traced_callback(engine):
            counters["simulation.events"] += 1
            frame = enter(layer, span)
            try:
                callback(engine)
            finally:
                exit_(frame)

        return original(self, time, traced_callback, name=name)

    return schedule_at


#: (module under ``repro``, class, attribute, span name).  The span name's
#: prefix before its last dot is the layer.  ``class`` None patches a
#: module-level function at that import site.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("experiments.runner", "ExperimentRunner", "run", "simulation.run"),
    ("core.base", "BaseServingSystem", "submit", "core.base.submit"),
    ("core.scheduler", "PromptScheduler", "route", "core.scheduler.route"),
    ("cluster.cluster", "GpuCluster", "dispatch", "cluster.dispatch"),
    ("cluster.cluster", "GpuCluster", "healthy_workers", "cluster.healthy_workers"),
    ("core.allocator", "Allocator", "recalibrate", "core.allocator.recalibrate"),
    ("core.solver", "AllocationSolver", "solve", "core.solver.solve"),
    ("core.admission", "FairShareAdmission", "offer", "core.admission.offer"),
    ("cache.approximate", "ApproximateCache", "retrieve", "cache.retrieve"),
    ("cache.approximate", "ApproximateCache", "store_states", "cache.store_states"),
    ("cache.approximate", "ApproximateCache", "warm", "cache.warm"),
    ("cache.tier", "CacheTier", "retrieve", "cache.retrieve"),
    ("cache.tier", "CacheTier", "store_states", "cache.store_states"),
    ("cache.tier", "CacheTier", "warm", "cache.warm"),
    ("cache.vectordb", "VectorDatabase", "search", "cache.index.search"),
    ("cache.vectordb", "VectorDatabase", "upsert", "cache.index.upsert"),
    ("cache.vectordb", "VectorDatabase", "delete", "cache.index.delete"),
    ("prompts.embedding", "PromptEmbedder", "embed", "prompts.embed"),
    ("prompts.embedding", "PromptEmbedder", "embed_batch", "prompts.embed_batch"),
    ("classifier.trainer", "TrainedPredictor", "predict_rank", "classifier.predict_rank"),
    ("classifier.trainer", "ClassifierTrainer", "train", "classifier.train"),
    ("quality.pickscore", "PickScoreModel", "score", "quality.score"),
    ("quality.pickscore", "PickScoreModel", "best_score", "quality.best_score"),
    ("quality.profiles", "QualityProfiler", "quality_vector", "quality.profile"),
    ("metrics.collector", "MetricsCollector", "record_arrival", "metrics.record"),
    ("metrics.collector", "MetricsCollector", "record_drop", "metrics.record"),
    ("metrics.collector", "MetricsCollector", "record_cache_lookup", "metrics.record"),
    ("metrics.collector", "MetricsCollector", "record_completion", "metrics.record"),
    ("core.base", None, "summarize", "metrics.summarize"),
    ("gateway.server", None, "summarize", "metrics.summarize"),
    ("gateway.server", "Gateway", "handle", "gateway.handle"),
)


def _observe_queue_wait(tracer: Tracer, args: tuple) -> None:
    completed = args[1]
    tracer.samples["cluster.queue_wait_s"].append(
        completed.start_time_s - completed.request.arrival_time_s
    )


#: Argument observers: (class, attribute) -> observe(tracer, args).
OBSERVERS = {("MetricsCollector", "record_completion"): _observe_queue_wait}

_MISSING = object()


@dataclass
class Installed:
    """Handle over installed wrappers; :meth:`uninstall` restores originals."""

    originals: list[tuple[object, str, object]]

    def uninstall(self) -> None:
        while self.originals:
            owner, attribute, original = self.originals.pop()
            setattr(owner, attribute, original)


def _wrapped(original, tracer: Tracer, owner_name: str, attribute: str, span: str):
    layer = layer_of(span)
    observe = OBSERVERS.get((owner_name, attribute))
    if isinstance(original, property):
        fget = wrap_function(original.fget, tracer, layer, span)
        return property(fget, original.fset, original.fdel, original.__doc__)
    if inspect.iscoroutinefunction(original):
        return wrap_coroutine_function(original, tracer, layer, span)
    if not inspect.isfunction(original):
        raise TypeError(f"cannot trace {owner_name}.{attribute}: {type(original).__name__}")
    return wrap_function(original, tracer, layer, span, observe=observe)


def _owner(module_name: str, class_name: str | None):
    module = importlib.import_module(f"repro.{module_name}")
    return module if class_name is None else getattr(module, class_name)


def snapshot_targets(targets=TARGETS) -> list[int]:
    """Identity of every attribute :func:`install` replaces, to compare
    before and after tracing."""
    from repro.simulation.engine import SimulationEngine

    snapshot = [id(vars(SimulationEngine)["schedule_at"])]
    for module_name, class_name, attribute, _ in targets:
        snapshot.append(id(vars(_owner(module_name, class_name)).get(attribute)))
    return snapshot


def install(tracer: Tracer, targets=TARGETS) -> Installed:
    """Wrap every target (and engine callbacks) so calls record spans."""
    from repro.simulation.engine import SimulationEngine

    installed = Installed(originals=[])
    try:
        for module_name, class_name, attribute, span in targets:
            owner = _owner(module_name, class_name)
            namespace = vars(owner)
            original = namespace.get(attribute, _MISSING)
            if original is _MISSING:
                raise AttributeError(f"repro.{module_name}.{class_name}.{attribute} is not there")
            wrapped = _wrapped(original, tracer, class_name or module_name, attribute, span)
            installed.originals.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)
        original = vars(SimulationEngine)["schedule_at"]
        installed.originals.append((SimulationEngine, "schedule_at", original))
        SimulationEngine.schedule_at = wrap_schedule_at(original, tracer)
    except BaseException:
        installed.uninstall()
        raise
    return installed
