"""The span recorder: virtual-time spans and instants on a ring buffer.

A :class:`Span` is one named interval on one *track* (a swim-lane in the
rendered timeline, e.g. ``node1.cpu0`` or ``node1.pcie.down``), opened
and closed at simulated-clock timestamps.  Spans nest: the tracer keeps a
per-track stack of open spans, so a span opened while another is open on
the same track becomes its child.  Hardware tracks (PCIe link, wire)
close spans out of order when several packets are in flight; ``end``
therefore removes the span from the stack by identity rather than
popping blindly.

Recording is bounded: closed spans and instants land on
``deque(maxlen=capacity)`` ring buffers, so a long campaign can keep
tracing enabled without unbounded memory growth — the newest records
win, and :meth:`Tracer.summary` and the Perfetto export report how many
of each were dropped.

The disabled case never reaches this module: :class:`repro.sim.engine.NullTracer`
implements the same surface as no-ops and is what every
:class:`~repro.sim.engine.Environment` carries by default.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Any

from repro.trace.metrics import LayerMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Environment

__all__ = ["Span", "Tracer"]

#: Default ring-buffer capacity (closed spans + instants each).
DEFAULT_CAPACITY = 262_144


class Span:
    """One named interval of virtual time on one track."""

    __slots__ = ("span_id", "parent_id", "layer", "name", "track", "t0", "t1", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        layer: str,
        name: str,
        track: str,
        t0: float,
        attrs: dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.layer = layer
        self.name = name
        self.track = track
        self.t0 = t0
        #: Close timestamp; ``None`` while the span is still open.
        self.t1: float | None = t0
        self.attrs = attrs

    @property
    def duration_ns(self) -> float:
        """Span length in nanoseconds (0 while still open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span #{self.span_id} {self.layer}:{self.name} on {self.track} "
            f"[{self.t0:.2f}, {self.t1 if self.t1 is not None else '...'}]>"
        )


class _SpanContext:
    """Context manager pairing one ``begin`` with its ``end``."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span | None) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span | None:
        return self._span

    def __exit__(self, *exc_info: Any) -> bool:
        if self._span is not None:
            self._tracer.end(self._span)
        return False


class Tracer:
    """Records spans and instants against an environment's virtual clock.

    One tracer serves one :class:`~repro.sim.engine.Environment`;
    :func:`repro.trace.trace_session` installs a factory so every
    environment created inside the session gets its own tracer, and the
    session aggregates them afterwards.
    """

    #: Instrumented hot loops check this before doing per-span work.
    enabled = True

    def __init__(self, env: "Environment | None" = None,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self._env = env
        self._ids = itertools.count(1)
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._instants: deque[Span] = deque(maxlen=capacity)
        self._open: dict[str, list[Span]] = {}
        self._closed_total = 0
        self._instant_total = 0
        self.metrics = LayerMetrics()

    # -- clock -------------------------------------------------------------
    def bind(self, env: "Environment") -> "Tracer":
        """Attach this tracer to ``env``'s clock; returns self."""
        self._env = env
        return self

    @property
    def now(self) -> float:
        """Current virtual time, 0.0 before any environment is bound."""
        return self._env._now if self._env is not None else 0.0

    # -- recording ---------------------------------------------------------
    def begin(self, layer: str, name: str, track: str | None = None,
              **attrs: Any) -> Span:
        """Open a span at the current virtual time and return it."""
        track = track or layer
        stack = self._open.setdefault(track, [])
        parent_id = stack[-1].span_id if stack else None
        span = Span(next(self._ids), parent_id, layer, name, track, self.now, attrs)
        span.t1 = None
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` at the current virtual time."""
        span.t1 = self.now
        stack = self._open.get(span.track)
        if stack:
            # Out-of-order closes happen on hardware tracks with several
            # packets in flight; search from the top of the stack.
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] is span:
                    del stack[i]
                    break
        self._spans.append(span)
        self._closed_total += 1
        self.metrics.observe_span(span.layer, span.name, span.duration_ns)

    def span(self, layer: str, name: str, track: str | None = None,
             **attrs: Any) -> _SpanContext:
        """``with tracer.span(...)``: begin on enter, end on exit."""
        return _SpanContext(self, self.begin(layer, name, track, **attrs))

    def instant(self, layer: str, name: str, track: str | None = None,
                **attrs: Any) -> Span:
        """Record a zero-duration marker event."""
        track = track or layer
        stack = self._open.get(track)
        parent_id = stack[-1].span_id if stack else None
        mark = Span(next(self._ids), parent_id, layer, name, track, self.now, attrs)
        self._instants.append(mark)
        self._instant_total += 1
        self.metrics.observe_instant(layer, name)
        return mark

    def counter(self, layer: str, name: str, value: float = 1.0) -> None:
        """Bump the named per-layer counter by ``value``."""
        self.metrics.bump(layer, name, value)

    # -- inspection --------------------------------------------------------
    def spans(self) -> list[Span]:
        """Closed spans still in the ring buffer, in close order."""
        return list(self._spans)

    def instants(self) -> list[Span]:
        """Instant events still in the ring buffer, in record order."""
        return list(self._instants)

    def open_spans(self) -> list[Span]:
        """Spans begun but not yet ended (normally empty after a run)."""
        return [span for stack in self._open.values() for span in stack]

    def spans_for_message(self, msg_id: Any) -> list[Span]:
        """Closed spans tagged ``msg=msg_id``, ordered by start time."""
        matches = [s for s in self._spans if s.attrs.get("msg") == msg_id]
        matches.sort(key=lambda s: (s.t0, s.t1 if s.t1 is not None else s.t0))
        return matches

    @property
    def dropped_spans(self) -> int:
        """Closed spans evicted from the ring buffer."""
        return self._closed_total - len(self._spans)

    @property
    def dropped_instants(self) -> int:
        """Instants evicted from the ring buffer."""
        return self._instant_total - len(self._instants)

    def summary(self) -> dict[str, Any]:
        """JSON-encodable digest: totals, drops and per-layer metrics.

        ``events`` reports the bound environment's kernel work split:
        entries the event loop actually executed versus entries credited
        by the analytic fast-forward (which never reach the tracer — a
        fast-forwarded span count of zero with a large credit is the
        expected shape, not a tracing bug).
        """
        executed = fast_forwarded = 0
        if self._env is not None:
            executed = getattr(self._env, "events_executed", 0)
            fast_forwarded = getattr(self._env, "events_fast_forwarded", 0)
        return {
            "spans": self._closed_total,
            "instants": self._instant_total,
            "dropped_spans": self.dropped_spans,
            "dropped_instants": self.dropped_instants,
            "open_spans": len(self.open_spans()),
            "events": {
                "executed": executed,
                "fast_forwarded": fast_forwarded,
            },
            "per_layer": self.metrics.per_layer(),
            "counters": self.metrics.counters(),
        }
