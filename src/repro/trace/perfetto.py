"""Chrome trace-event / Perfetto JSON export and re-import.

The exporter emits the JSON object format understood by both
``chrome://tracing`` and https://ui.perfetto.dev: a ``traceEvents`` list
of ``"ph": "X"`` complete events (one per closed span), ``"ph": "i"``
instants, and ``"ph": "M"`` metadata events naming each track.  Times
are exported in microseconds (the format's unit) from the simulator's
nanosecond clock; ``displayTimeUnit`` asks the viewer for nanosecond
display.

Span identity survives the round trip: each event's ``args`` carries
``span_id`` and ``parent`` alongside the user attributes, so
:func:`spans_from_chrome` can rebuild the exact span forest from a
loaded JSON file — which is how the exporter is tested.

The export also records what it left out: ``otherData`` carries the
number of spans and instants the recorders' ring buffers evicted
(:func:`dropped_from_chrome` reads them back), so an analysis can
refuse a truncated trace instead of running silently on part of it.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.trace.tracer import Span, Tracer

__all__ = [
    "chrome_trace",
    "dropped_from_chrome",
    "instants_from_chrome",
    "spans_from_chrome",
    "span_forest",
    "write_chrome_trace",
]

#: Single simulated machine; tracks are distinguished by tid.
_PID = 1


def _jsonable(value: Any) -> Any:
    """Attribute values as JSON scalars (repr for anything exotic)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _track_ids(spans: Iterable[Span]) -> dict[str, int]:
    """Deterministic track-name -> tid mapping (sorted, 1-based)."""
    return {track: tid for tid, track in
            enumerate(sorted({s.track for s in spans}), start=1)}


def chrome_trace(tracers: Tracer | Iterable[Tracer]) -> dict[str, Any]:
    """The full trace-event JSON object for one or more tracers."""
    if isinstance(tracers, Tracer):
        tracers = [tracers]
    spans: list[Span] = []
    instants: list[Span] = []
    dropped = {"dropped_spans": 0, "dropped_instants": 0}
    for tracer in tracers:
        spans.extend(tracer.spans())
        instants.extend(tracer.instants())
        dropped["dropped_spans"] += tracer.dropped_spans
        dropped["dropped_instants"] += tracer.dropped_instants

    tids = _track_ids([*spans, *instants])
    events: list[dict[str, Any]] = [
        {
            "ph": "M", "name": "process_name", "pid": _PID, "tid": 0,
            "args": {"name": "repro simulation"},
        }
    ]
    for track, tid in tids.items():
        events.append(
            {
                "ph": "M", "name": "thread_name", "pid": _PID, "tid": tid,
                "args": {"name": track},
            }
        )
    for span in sorted(spans, key=lambda s: (s.t0, s.span_id)):
        end = span.t1 if span.t1 is not None else span.t0
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.layer,
                "pid": _PID,
                "tid": tids[span.track],
                "ts": span.t0 / 1e3,
                "dur": (end - span.t0) / 1e3,
                "args": {
                    "span_id": span.span_id,
                    "parent": span.parent_id,
                    **{k: _jsonable(v) for k, v in span.attrs.items()},
                },
            }
        )
    for mark in sorted(instants, key=lambda s: (s.t0, s.span_id)):
        events.append(
            {
                "ph": "i",
                "name": mark.name,
                "cat": mark.layer,
                "pid": _PID,
                "tid": tids[mark.track],
                "ts": mark.t0 / 1e3,
                "s": "t",
                "args": {
                    "span_id": mark.span_id,
                    "parent": mark.parent_id,
                    **{k: _jsonable(v) for k, v in mark.attrs.items()},
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ns", "otherData": dropped}


def dropped_from_chrome(payload: dict[str, Any]) -> dict[str, int]:
    """The ``dropped_spans``/``dropped_instants`` counts of an export.

    Exports written before the counts were recorded read as zero.
    """
    other = payload.get("otherData") or {}
    return {
        key: int(other.get(key, 0)) for key in ("dropped_spans", "dropped_instants")
    }


def write_chrome_trace(tracers: Tracer | Iterable[Tracer], path: Any) -> None:
    """Serialize :func:`chrome_trace` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(tracers), handle)
        handle.write("\n")


def spans_from_chrome(payload: dict[str, Any]) -> list[Span]:
    """Rebuild :class:`Span` objects from loaded trace-event JSON.

    Only ``"X"`` (complete) events become spans; instants are skipped.
    Track names are recovered from the ``thread_name`` metadata events.
    """
    track_names: dict[int, str] = {}
    for event in payload["traceEvents"]:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            track_names[event["tid"]] = event["args"]["name"]

    spans: list[Span] = []
    for event in payload["traceEvents"]:
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("span_id")
        parent_id = args.pop("parent", None)
        t0 = event["ts"] * 1e3
        span = Span(
            span_id=span_id,
            parent_id=parent_id,
            layer=event.get("cat", ""),
            name=event["name"],
            track=track_names.get(event["tid"], str(event["tid"])),
            t0=t0,
            attrs=args,
        )
        span.t1 = t0 + event.get("dur", 0.0) * 1e3
        spans.append(span)
    return spans


def instants_from_chrome(payload: dict[str, Any]) -> list[Span]:
    """Rebuild instant events (``"ph": "i"``) from loaded trace JSON.

    The complement of :func:`spans_from_chrome`, for analyses over
    point events — e.g. fault/recovery marks
    (:func:`repro.trace.critical_path.recovery_summary`).
    """
    track_names: dict[int, str] = {}
    for event in payload["traceEvents"]:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            track_names[event["tid"]] = event["args"]["name"]

    marks: list[Span] = []
    for event in payload["traceEvents"]:
        if event.get("ph") != "i":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("span_id")
        parent_id = args.pop("parent", None)
        t0 = event["ts"] * 1e3
        mark = Span(
            span_id=span_id,
            parent_id=parent_id,
            layer=event.get("cat", ""),
            name=event["name"],
            track=track_names.get(event["tid"], str(event["tid"])),
            t0=t0,
            attrs=args,
        )
        mark.t1 = t0
        marks.append(mark)
    return marks


def span_forest(
    spans: Iterable[Span],
) -> tuple[list[Span], dict[int, list[Span]]]:
    """Group spans into (roots, children-by-parent-id).

    Children are ordered by start time; a span whose parent is absent
    (evicted from the ring buffer) counts as a root.
    """
    spans = sorted(spans, key=lambda s: (s.t0, s.span_id))
    by_id = {span.span_id: span for span in spans}
    roots: list[Span] = []
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    return roots, children
