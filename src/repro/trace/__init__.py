"""``repro.trace``: span-based observability for the simulated testbed.

The paper's whole argument is an attribution of nanoseconds to
components; this package makes that attribution *inspectable* for any
single run.  While a :func:`trace_session` is active, every
:class:`~repro.sim.engine.Environment` created inside it carries a real
:class:`Tracer` instead of the default no-op, and the instrumented
layers (MPI → UCP → UCT → NIC → PCIe → wire/switch → root complex)
record nested spans in virtual time.  Afterwards the session can be

- exported to Chrome trace-event / Perfetto JSON (:mod:`.perfetto`),
- rendered as a plain-text timeline (:func:`repro.reporting.render_timeline`),
- collapsed into a per-message critical-path breakdown
  (:mod:`.critical_path`) comparable to :mod:`repro.core.breakdown`.

Tracing is zero-cost when disabled: outside a session environments hold
:data:`repro.sim.engine.NULL_TRACER`, and hot loops guard on
``tracer.enabled`` before doing any per-span work.

Usage::

    from repro.bench import run_am_lat
    from repro.trace import trace_session

    with trace_session() as session:
        result = run_am_lat(iterations=50)
    session.write_chrome_trace("trace.json")
    print(session.summary())
"""

from __future__ import annotations

from typing import Any

from repro.sim import engine as _engine
from repro.trace.critical_path import (
    COMPONENT_LABELS,
    RECOVERY_EVENT_NAMES,
    classify_span,
    critical_path,
    critical_path_breakdown,
    critical_path_report,
    pick_breakdown_message,
    recovery_events,
    recovery_summary,
)
from repro.trace.golden import timeline_digest, timeline_lines
from repro.trace.metrics import DurationHistogram, LayerMetrics
from repro.trace.perfetto import (
    chrome_trace,
    dropped_from_chrome,
    instants_from_chrome,
    span_forest,
    spans_from_chrome,
    write_chrome_trace,
)
from repro.trace.tracer import DEFAULT_CAPACITY, Span, Tracer

__all__ = [
    "COMPONENT_LABELS",
    "DurationHistogram",
    "LayerMetrics",
    "RECOVERY_EVENT_NAMES",
    "Span",
    "TraceSession",
    "Tracer",
    "chrome_trace",
    "classify_span",
    "critical_path",
    "critical_path_breakdown",
    "critical_path_report",
    "dropped_from_chrome",
    "instants_from_chrome",
    "pick_breakdown_message",
    "recovery_events",
    "recovery_summary",
    "span_forest",
    "spans_from_chrome",
    "timeline_digest",
    "timeline_lines",
    "trace_session",
    "write_chrome_trace",
]


class TraceSession:
    """Collects the tracers of every environment created while active.

    Workloads build their own :class:`~repro.node.testbed.Testbed` (and
    with it, their own environment), so callers cannot hand a tracer in;
    instead the session installs a factory on the engine and gathers the
    tracers it mints.  Use as a context manager via :func:`trace_session`.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._capacity = capacity
        self._previous: Any = None
        self._active = False
        self.tracers: list[Tracer] = []

    # -- lifecycle ---------------------------------------------------------
    def _make_tracer(self, env: Any) -> Tracer:
        tracer = Tracer(env, capacity=self._capacity)
        self.tracers.append(tracer)
        return tracer

    def __enter__(self) -> "TraceSession":
        self._previous = _engine._tracer_factory
        _engine.set_tracer_factory(self._make_tracer)
        self._active = True
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        _engine.set_tracer_factory(self._previous)
        self._active = False
        return False

    # -- aggregation -------------------------------------------------------
    @property
    def tracer(self) -> Tracer:
        """The primary (most recently created) tracer.

        Raises
        ------
        RuntimeError
            If no environment was created inside the session.
        """
        if not self.tracers:
            raise RuntimeError(
                "no Environment was created inside this trace session"
            )
        return self.tracers[-1]

    def spans(self) -> list[Span]:
        """All closed spans across every tracer, ordered by start time."""
        spans = [span for tracer in self.tracers for span in tracer.spans()]
        spans.sort(key=lambda s: (s.t0, s.span_id))
        return spans

    def instants(self) -> list[Span]:
        """All instant events across every tracer, ordered by time."""
        marks = [mark for tracer in self.tracers for mark in tracer.instants()]
        marks.sort(key=lambda s: (s.t0, s.span_id))
        return marks

    def spans_for_message(self, msg_id: Any) -> list[Span]:
        """All closed spans tagged with ``msg_id``, across tracers."""
        spans = [
            span
            for tracer in self.tracers
            for span in tracer.spans_for_message(msg_id)
        ]
        spans.sort(key=lambda s: (s.t0, s.span_id))
        return spans

    def summary(self) -> dict[str, Any]:
        """Merged JSON-encodable digest across every tracer."""
        merged: dict[str, Any] = {
            "tracers": len(self.tracers),
            "spans": 0,
            "instants": 0,
            "dropped_spans": 0,
            "dropped_instants": 0,
            "events": {"executed": 0, "fast_forwarded": 0},
            "per_layer": {},
            "counters": {},
        }
        for tracer in self.tracers:
            digest = tracer.summary()
            merged["spans"] += digest["spans"]
            merged["instants"] += digest["instants"]
            merged["dropped_spans"] += digest["dropped_spans"]
            merged["dropped_instants"] += digest["dropped_instants"]
            merged["events"]["executed"] += digest["events"]["executed"]
            merged["events"]["fast_forwarded"] += digest["events"]["fast_forwarded"]
            for layer, stats in digest["per_layer"].items():
                into = merged["per_layer"].setdefault(
                    layer, {"spans": 0, "total_ns": 0.0, "instants": 0}
                )
                into["spans"] += stats["spans"]
                into["total_ns"] += stats["total_ns"]
                into["instants"] += stats["instants"]
            for layer, names in digest["counters"].items():
                into = merged["counters"].setdefault(layer, {})
                for name, value in names.items():
                    into[name] = into.get(name, 0.0) + value
        return merged

    def write_chrome_trace(self, path: Any) -> None:
        """Export every tracer's spans as one Perfetto JSON file."""
        write_chrome_trace(self.tracers, path)


def trace_session(capacity: int = DEFAULT_CAPACITY) -> TraceSession:
    """A context manager enabling tracing for environments created inside."""
    return TraceSession(capacity=capacity)
