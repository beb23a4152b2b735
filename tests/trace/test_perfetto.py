"""Round-trip tests for the Chrome trace-event exporter (repro.trace.perfetto)."""

import json

import pytest

from repro.bench import run_am_lat
from repro.node import SystemConfig
from repro.sim.engine import Environment
from repro.trace import (
    Tracer,
    chrome_trace,
    dropped_from_chrome,
    span_forest,
    spans_from_chrome,
    trace_session,
    write_chrome_trace,
)


def build_small_tracer() -> Tracer:
    env = Environment()
    tracer = Tracer(env)
    outer = tracer.begin("llp", "llp_post", track="cpu0", msg=1, op="am_short")
    env.timeout(10.0)
    env.run()
    inner = tracer.begin("llp", "pio_copy", track="cpu0", msg=1)
    env.timeout(94.25)
    env.run()
    tracer.end(inner)
    tracer.end(outer)
    tracer.instant("nic", "nic_arrival", track="nic", msg=1)
    return tracer


class TestChromeTrace:
    def test_event_structure(self):
        payload = chrome_trace(build_small_tracer())
        assert payload["displayTimeUnit"] == "ns"
        events = payload["traceEvents"]
        phases = [e["ph"] for e in events]
        assert phases.count("X") == 2
        assert phases.count("i") == 1
        # process_name + two thread_name metadata records (cpu0, nic).
        assert phases.count("M") == 3
        complete = [e for e in events if e["ph"] == "X"]
        outer = next(e for e in complete if e["name"] == "llp_post")
        assert outer["cat"] == "llp"
        assert outer["ts"] == 0.0
        assert outer["dur"] == pytest.approx(104.25 / 1e3)
        assert outer["args"]["op"] == "am_short"

    def test_export_records_what_the_ring_buffers_dropped(self):
        payload = chrome_trace(build_small_tracer())
        assert payload["otherData"] == {"dropped_spans": 0, "dropped_instants": 0}

        env = Environment()
        first, second = Tracer(env, capacity=2), Tracer(env, capacity=2)
        for index in range(5):
            first.end(first.begin("llp", f"s{index}"))
            second.instant("nic", f"i{index}")
        payload = json.loads(json.dumps(chrome_trace([first, second])))
        assert dropped_from_chrome(payload) == {
            "dropped_spans": 3, "dropped_instants": 3,
        }

    def test_exports_without_drop_counts_read_as_complete(self):
        payload = chrome_trace(build_small_tracer())
        del payload["otherData"]
        assert dropped_from_chrome(payload) == {
            "dropped_spans": 0, "dropped_instants": 0,
        }

    def test_json_serializable_with_exotic_attrs(self):
        env = Environment()
        tracer = Tracer(env)
        tracer.end(tracer.begin("llp", "post", track="cpu", obj=object()))
        text = json.dumps(chrome_trace(tracer))
        assert "object object" in text  # repr() fallback

    def test_round_trip_preserves_identity(self, tmp_path):
        tracer = build_small_tracer()
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, path)
        payload = json.loads(path.read_text())
        rebuilt = spans_from_chrome(payload)

        originals = sorted(tracer.spans(), key=lambda s: s.span_id)
        rebuilt.sort(key=lambda s: s.span_id)
        assert len(rebuilt) == len(originals)
        for original, copy in zip(originals, rebuilt):
            assert copy.span_id == original.span_id
            assert copy.parent_id == original.parent_id
            assert copy.name == original.name
            assert copy.layer == original.layer
            assert copy.track == original.track
            assert copy.t0 == pytest.approx(original.t0, abs=1e-6)
            assert copy.t1 == pytest.approx(original.t1, abs=1e-6)

    def test_round_trip_of_traced_run(self, tmp_path):
        """A real am_lat trace survives export -> json.load -> rebuild."""
        with trace_session() as session:
            run_am_lat(
                config=SystemConfig.paper_testbed(deterministic=True),
                iterations=20,
                warmup=5,
            )
        path = tmp_path / "am_lat.json"
        session.write_chrome_trace(path)
        payload = json.loads(path.read_text())
        rebuilt = spans_from_chrome(payload)
        originals = session.spans()
        assert len(rebuilt) == len(originals) > 0
        assert {s.span_id for s in rebuilt} == {s.span_id for s in originals}


class TestSpanForest:
    def test_parentage_recovered(self):
        tracer = build_small_tracer()
        roots, children = span_forest(tracer.spans())
        assert [r.name for r in roots] == ["llp_post"]
        assert [c.name for c in children[roots[0].span_id]] == ["pio_copy"]

    def test_orphan_becomes_root(self):
        """A child whose parent was evicted from the ring buffer."""
        tracer = build_small_tracer()
        spans = [s for s in tracer.spans() if s.name == "pio_copy"]
        roots, children = span_forest(spans)
        assert [r.name for r in roots] == ["pio_copy"]
        assert children == {}
