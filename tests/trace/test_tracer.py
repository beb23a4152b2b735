"""Unit tests for the span recorder (repro.trace.tracer)."""

import pytest

from repro.sim.engine import NULL_TRACER, Environment
from repro.sim import engine as engine_module
from repro.trace import Tracer, trace_session


def advance(env: Environment, delay: float) -> None:
    env.timeout(delay)
    env.run()


class TestNesting:
    def test_same_track_spans_nest(self):
        env = Environment()
        tracer = Tracer(env)
        outer = tracer.begin("llp", "post", track="cpu0")
        advance(env, 10.0)
        inner = tracer.begin("llp", "pio_copy", track="cpu0")
        advance(env, 5.0)
        tracer.end(inner)
        advance(env, 2.0)
        tracer.end(outer)

        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.t0 == 10.0 and inner.t1 == 15.0
        assert outer.t0 == 0.0 and outer.t1 == 17.0
        assert tracer.open_spans() == []

    def test_different_tracks_do_not_nest(self):
        tracer = Tracer(Environment())
        a = tracer.begin("llp", "post", track="cpu0")
        b = tracer.begin("pcie", "tlp", track="pcie")
        assert b.parent_id is None
        tracer.end(b)
        tracer.end(a)

    def test_out_of_order_close_on_one_track(self):
        """Hardware tracks close spans out of order with packets in flight."""
        env = Environment()
        tracer = Tracer(env)
        first = tracer.begin("pcie", "tlp", track="link")
        second = tracer.begin("pcie", "tlp", track="link")
        advance(env, 3.0)
        tracer.end(first)  # older span closes before the newer one
        advance(env, 4.0)
        tracer.end(second)

        assert tracer.open_spans() == []
        assert first.duration_ns == 3.0
        assert second.duration_ns == 7.0
        # The newer span still records the older one as parent.
        assert second.parent_id == first.span_id

    def test_span_context_manager_closes(self):
        env = Environment()
        tracer = Tracer(env)
        with tracer.span("hlp", "isend", track="cpu0", bytes=8) as span:
            advance(env, 12.5)
        assert span.t1 == 12.5
        assert span.attrs == {"bytes": 8}
        assert tracer.spans() == [span]


class TestRingBuffer:
    def test_drops_oldest_and_counts(self):
        tracer = Tracer(Environment(), capacity=4)
        for index in range(10):
            tracer.end(tracer.begin("llp", f"s{index}"))
        kept = tracer.spans()
        assert len(kept) == 4
        assert [s.name for s in kept] == ["s6", "s7", "s8", "s9"]
        assert tracer.dropped_spans == 6
        summary = tracer.summary()
        assert summary["spans"] == 10  # totals survive eviction
        assert summary["dropped_spans"] == 6

    def test_drops_oldest_instants_and_counts(self):
        tracer = Tracer(Environment(), capacity=3)
        for index in range(7):
            tracer.instant("nic", f"i{index}")
        assert [mark.name for mark in tracer.instants()] == ["i4", "i5", "i6"]
        assert tracer.dropped_instants == 4
        assert tracer.summary()["dropped_instants"] == 4
        assert tracer.dropped_spans == 0


class TestInstantsAndCounters:
    def test_instant_is_parented_and_zero_duration(self):
        env = Environment()
        tracer = Tracer(env)
        outer = tracer.begin("nic", "tx", track="nic")
        advance(env, 6.0)
        mark = tracer.instant("nic", "arrival", track="nic", msg=3)
        tracer.end(outer)

        assert mark.parent_id == outer.span_id
        assert mark.t0 == 6.0
        assert tracer.instants() == [mark]
        assert tracer.summary()["instants"] == 1

    def test_counters_roll_up(self):
        tracer = Tracer(Environment())
        tracer.counter("llp", "empty_progress_calls")
        tracer.counter("llp", "empty_progress_calls", 2.0)
        assert tracer.summary()["counters"] == {
            "llp": {"empty_progress_calls": 3.0}
        }


class TestMessageFilter:
    def test_spans_for_message_sorted_by_start(self):
        env = Environment()
        tracer = Tracer(env)
        late = tracer.begin("pcie", "tlp", track="a", msg=7)
        advance(env, 5.0)
        early = tracer.begin("llp", "post", track="b", msg=7)
        other = tracer.begin("llp", "post", track="c", msg=8)
        tracer.end(early)
        tracer.end(other)
        advance(env, 1.0)
        tracer.end(late)

        matched = tracer.spans_for_message(7)
        assert matched == [late, early]  # t0 order: 0.0 then 5.0
        assert other not in matched


class TestNullTracer:
    def test_surface_is_no_op(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.begin("llp", "post", track="x", msg=1) is None
        NULL_TRACER.end(None)
        NULL_TRACER.counter("llp", "x")
        assert NULL_TRACER.instant("llp", "mark") is None
        with NULL_TRACER.span("llp", "post") as span:
            assert span is None

    def test_environment_defaults_to_null_tracer(self):
        assert Environment().tracer is NULL_TRACER


class TestTraceSession:
    def test_factory_installed_and_restored(self):
        assert engine_module._tracer_factory is None
        with trace_session() as session:
            env = Environment()
            assert isinstance(env.tracer, Tracer)
            assert session.tracers == [env.tracer]
            assert env.tracer._env is env
        assert engine_module._tracer_factory is None
        assert Environment().tracer is NULL_TRACER

    def test_tracer_property_requires_an_environment(self):
        with trace_session() as session:
            pass
        with pytest.raises(RuntimeError):
            session.tracer

    def test_summary_reports_kernel_events_split(self):
        with trace_session() as session:
            env = Environment()
            env.defer(lambda: None, 1.0)
            env.run(until=2.0)
            env.fast_forward(to=10.0, skipped_events=123)
        summary = session.summary()
        assert summary["events"] == {"executed": 1, "fast_forwarded": 123}

    def test_unbound_tracer_reports_zero_events(self):
        assert Tracer().summary()["events"] == {
            "executed": 0,
            "fast_forwarded": 0,
        }

    def test_summary_merges_tracers(self):
        with trace_session() as session:
            for _ in range(2):
                env = Environment()
                tracer = env.tracer
                tracer.end(tracer.begin("llp", "post"))
                tracer.instant("nic", "mark")
        merged = session.summary()
        assert merged["tracers"] == 2
        assert merged["spans"] == 2
        assert merged["instants"] == 2
        assert merged["per_layer"]["llp"]["spans"] == 2
        assert len(session.spans()) == 2
