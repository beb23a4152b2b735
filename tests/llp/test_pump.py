"""The poll pump computes exactly the physics of the generator loop.

Every test runs a scenario twice — pumped (the default) and through the
generator progress loop the pump replaces, forced by patching
:func:`repro.llp.pump.pumpable` — and compares the two bit for bit:
outputs and final clock, every core's accounts (samples included),
``busy_ns`` and RNG state, the UCT/UCP worker counters, and the number
of calendar entries executed.  Traced runs also compare the tracer's
counters and every span's layer, name, track and float-hex times.
"""

from __future__ import annotations

import pathlib
from collections.abc import Callable
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import run_am_lat, run_osu_latency, run_osu_message_rate, run_put_bw
from repro.collectives import run_collective
from repro.cpu.core import CpuCore
from repro.faults import FaultPlan
from repro.hlp.mpi import MpiStack
from repro.hlp.ucp import UcpWorker
from repro.llp import pump
from repro.llp.uct import UctWorker
from repro.nic.descriptor import Message, MessageOp
from repro.node import SystemConfig, Testbed
from repro.node.cluster import Cluster
from repro.sim import Interrupt
from repro.sim.engine import Environment, Timeout
from repro.trace import trace_session

LOSSY = FaultPlan.load(
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "faults" / "lossy_wire.json"
)


def _hex(value: Any) -> Any:
    return value.hex() if isinstance(value, float) else value


class _Registry:
    """Every environment, core and worker a run builds, in build order."""

    CLASSES = (Environment, CpuCore, UctWorker, UcpWorker)

    def __init__(self, patch: pytest.MonkeyPatch) -> None:
        self.built: dict[type, list] = {cls: [] for cls in self.CLASSES}
        for cls in self.CLASSES:
            self._register(patch, cls)

    def _register(self, patch: pytest.MonkeyPatch, cls: type) -> None:
        original = cls.__init__
        built = self.built[cls]

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            built.append(obj)

        patch.setattr(cls, "__init__", __init__)

    def state(self) -> dict[str, Any]:
        return {
            "envs": [
                (env.now.hex(), env.events_executed, env.events_fast_forwarded)
                for env in self.built[Environment]
            ],
            "cores": [
                (
                    core.name,
                    core.busy_ns.hex(),
                    {
                        name: (a.count, a.total_ns.hex(), [s.hex() for s in a.samples])
                        for name, a in core.accounts.items()
                    },
                    core.rng.bit_generator.state,
                )
                for core in self.built[CpuCore]
            ],
            "uct": [
                (
                    w.progress_calls,
                    w.empty_progress_calls,
                    [
                        (i.name, i.messages_delivered, i.busy_posts,
                         i.successful_posts, i.error_completions)
                        for i in w.ifaces
                    ],
                )
                for w in self.built[UctWorker]
            ],
            "ucp": [
                (w.progress_llp_posts, w.progress_llp_post_ns.hex(),
                 w.busy_posts_encountered, w.transport_errors)
                for w in self.built[UcpWorker]
            ],
        }


def _trace_state(session) -> list:
    return [
        (
            tracer.metrics.counters(),
            sorted(
                (s.layer, s.name, s.track, s.t0.hex(), s.t1.hex())
                for s in tracer.spans()
            ),
        )
        for tracer in session.tracers
    ]


def observe(run: Callable[[], dict], pumped: bool, traced: bool = False) -> dict:
    """Run ``run`` once and return everything the pump must not move."""
    with pytest.MonkeyPatch.context() as patch:
        if not pumped:
            patch.setattr(pump, "pumpable", lambda profiler, *regions: False)
        registry = _Registry(patch)
        if traced:
            with trace_session() as session:
                outputs = run()
            trace = _trace_state(session)
        else:
            outputs = run()
            trace = None
    return {
        "outputs": {key: _hex(value) for key, value in outputs.items()},
        **registry.state(),
        "trace": trace,
    }


def assert_pump_matches_reference(run: Callable[[], dict], traced: bool = False) -> dict:
    pumped = observe(run, pumped=True, traced=traced)
    reference = observe(run, pumped=False, traced=traced)
    assert pumped == reference
    return pumped


def make_config(seed: int | None, rails: int = 1, faults: bool = False, **costs):
    builder = SystemConfig.builder().transport(rails=rails)
    builder = builder.deterministic() if seed is None else builder.seed(seed)
    if faults:
        builder = builder.faults(LOSSY)
    if costs:
        builder = builder.costs(**costs)
    return builder.build()


# -- workloads ------------------------------------------------------------------

def _collective(algorithm: str):
    def run(config, ppn, record_samples):
        cluster = Cluster(
            4, config=config, processes_per_node=ppn, record_samples=record_samples
        )
        result = run_collective("allreduce", cluster, algorithm=algorithm, iterations=1)
        return {"total_ns": result.total_ns, "steps": result.steps}

    return run


def _am_lat(config, ppn, record_samples):
    result = run_am_lat(
        testbed=Testbed(config, record_samples=record_samples), iterations=12, warmup=3
    )
    return {"total_ns": result.total_ns, "pongs": len(result.pongs)}


def _put_bw_txq2(config, ppn, record_samples):
    config = SystemConfig.builder(config).nic(txq_depth=2).build()
    result = run_put_bw(
        testbed=Testbed(config, record_samples=record_samples),
        n_messages=40, warmup=8, fast_forward=False,
    )
    return {
        "total_ns": result.total_ns,
        "busy_posts": result.busy_posts,
        "deltas": [d.hex() for d in result.observed_injection_overheads_ns.tolist()],
    }


def _osu_latency(config, ppn, record_samples):
    result = run_osu_latency(
        testbed=Testbed(config, record_samples=record_samples), iterations=12, warmup=3
    )
    return {"total_ns": result.total_ns}


def _osu_message_rate_txq4(config, ppn, record_samples):
    # A 4-deep TxQ under 16-message windows: MPI_Waitall re-posts pended
    # busy sends from inside its progress passes.
    config = SystemConfig.builder(config).nic(txq_depth=4).build()
    result = run_osu_message_rate(
        testbed=Testbed(config, record_samples=record_samples),
        windows=3, window_size=16, warmup_windows=1, signal_period=2,
    )
    return {
        "total_ns": result.total_ns,
        "busy_posts": result.busy_posts,
        "waitall_llp_post_ns": result.waitall_llp_post_ns,
    }


WORKLOADS = {
    "ring": _collective("ring"),
    "recursive_doubling": _collective("recursive_doubling"),
    "am_lat": _am_lat,
    "put_bw_txq2": _put_bw_txq2,
    "osu_latency": _osu_latency,
    "osu_message_rate_txq4": _osu_message_rate_txq4,
}
#: Workloads that place ranks on a cluster (``processes_per_node`` applies).
PLACED = ("ring", "recursive_doubling")


class TestPumpEqualsReference:
    @settings(max_examples=30, deadline=None)
    @given(
        workload=st.sampled_from(sorted(WORKLOADS)),
        seed=st.one_of(st.none(), st.integers(0, 2**16)),
        ppn=st.sampled_from([1, 2]),
        rails=st.sampled_from([1, 2]),
        faults=st.booleans(),
        traced=st.booleans(),
        record_samples=st.booleans(),
    )
    def test_matrix(self, workload, seed, ppn, rails, faults, traced, record_samples):
        if workload not in PLACED:
            ppn = 1
        config = make_config(seed, rails=rails, faults=faults)
        body = WORKLOADS[workload]
        assert_pump_matches_reference(
            lambda: body(config, ppn, record_samples), traced=traced
        )

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_workload_noisy_untraced(self, workload):
        config = make_config(2019)
        body = WORKLOADS[workload]
        assert_pump_matches_reference(lambda: body(config, 1, False))

    @pytest.mark.parametrize(
        "costs",
        [{"llp_prog_empty": 0.0}, {"ucp_prog_body": 0.0}],
        ids=["zero_llp_prog_empty", "zero_ucp_prog_body"],
    )
    @pytest.mark.parametrize("seed", [None, 11], ids=["det", "seed11"])
    def test_zero_mean_segment_continues_in_the_same_entry(self, costs, seed):
        config = make_config(seed, **costs)
        state = assert_pump_matches_reference(lambda: _osu_latency(config, 1, True))
        assert float.fromhex(state["outputs"]["total_ns"]) > 0


def _idle_wait_scenario(interrupt_at: float | None, horizon: float | None):
    """Rank 1 waits for a message that rank 2 sends late.

    With ``interrupt_at`` a third process interrupts the wait; rank 1
    records the interrupt and waits again on the same request, so the
    interrupted spin's pending entry fires (as a no-op) while a new spin
    runs.  With ``horizon`` the run first stops there, mid-spin, and the
    state at the stop is part of the outputs.
    """

    def run() -> dict:
        tb = Testbed(make_config(5))
        env = tb.env
        stack1, stack2 = MpiStack(tb.initiator), MpiStack(tb.target)
        comm1, comm2 = stack1.connect(stack2), stack2.connect(stack1)
        outputs: dict[str, Any] = {}

        def receiver():
            request = yield from comm1.irecv(8)
            try:
                yield from comm1.wait(request)
            except Interrupt as interrupt:
                outputs["interrupted_at"] = env.now
                outputs["cause"] = interrupt.cause
                yield from comm1.wait(request)
            outputs["received_at"] = env.now

        def sender():
            yield env.timeout(5000.0)
            yield from comm2.isend(8)

        waiting = env.process(receiver(), name="receiver")
        env.process(sender(), name="sender")
        if interrupt_at is not None:

            def interrupter():
                yield env.timeout(interrupt_at)
                waiting.interrupt("poke")

            env.process(interrupter(), name="interrupter")
        if horizon is not None:
            env.run(until=horizon)
            cpu = stack1.cpu
            outputs["stop_clock"] = env.now
            outputs["stop_events"] = env.events_executed
            outputs["stop_busy_ns"] = cpu.busy_ns
            outputs["stop_empty_polls"] = stack1.ucp.uct_worker.empty_progress_calls
        env.run(until=waiting)
        return outputs

    return run


def _arrival_at_a_poll_scenario(pass_index: int):
    """A message lands in the mailbox at the very instant of a poll.

    Deterministic costs make the spin's entry times exact float sums, so
    the delivery — scheduled first, at the same time and priority — must
    run before that poll and be found by it, as on the generator path.
    """

    def run() -> dict:
        config = make_config(None)
        tb = Testbed(config)
        env = tb.env
        stack1, stack2 = MpiStack(tb.initiator), MpiStack(tb.target)
        comm1 = stack1.connect(stack2)
        costs = config.costs
        poll_at = costs.mpich_wait_entry
        for index in range(pass_index + 1):
            poll_at += costs.ucp_prog_body
            if index < pass_index:
                poll_at += costs.llp_prog_empty
        iface = stack1.ucp.iface
        message = Message(op=MessageOp.AM, payload_bytes=8,
                          recv_target=iface.am_recv_target)
        env.defer_at(iface.am_mailbox.put, poll_at, args=(message,))
        outputs: dict[str, Any] = {"poll_at": poll_at}

        def receiver():
            request = yield from comm1.irecv(8)
            yield from comm1.wait(request)
            outputs["done_at"] = env.now
            outputs["empty_polls"] = stack1.ucp.uct_worker.empty_progress_calls

        env.run(until=env.process(receiver(), name="receiver"))
        return outputs

    return run


def _parent_waitall(comm, requests):
    """``MPI_Waitall`` as a literal generator loop: progress, then look."""
    cpu = comm.stack.cpu
    remaining = [r for r in requests if not r.completed]
    for _ in range(len(requests) - len(remaining)):
        yield from cpu.execute("mpich_request_finalize")
    while remaining:
        yield from comm.stack.ucp.worker_progress()
        still = []
        for request in remaining:
            if request.completed:
                yield from cpu.execute("mpich_request_finalize")
            else:
                still.append(request)
        remaining = still


def _shared_stack_waitall_scenario(waitall):
    """Two processes progress one MPI stack; one of them is in Waitall.

    Waitall starts by finalising an inline send; meanwhile the other
    process's pass completes Waitall's receive.  Waitall must still
    progress once before it looks at that receive.
    """

    def run() -> dict:
        tb = Testbed(make_config(None))
        env = tb.env
        stack1, stack2 = MpiStack(tb.initiator), MpiStack(tb.target)
        comm1, comm2 = stack1.connect(stack2), stack2.connect(stack1)
        outputs: dict[str, Any] = {}

        def batch():
            receive = yield from comm1.irecv(8)
            yield env.timeout(1500.0)
            send = yield from comm1.isend(8)
            yield from waitall(comm1, [send, receive])
            outputs["waitall_done"] = env.now

        def single():
            yield env.timeout(1.0)
            request = yield from comm1.irecv(8)
            yield from comm1.wait(request)
            outputs["wait_done"] = env.now

        def sender():
            # Timed so the receive completes during that first finalise.
            yield env.timeout(430.0)
            yield from comm2.isend(8)
            yield env.timeout(3000.0)
            yield from comm2.isend(8)

        first = env.process(batch(), name="batch")
        second = env.process(single(), name="single")
        env.process(sender(), name="sender")
        env.run(until=env.all_of([first, second]))
        return outputs

    return run


class TestSpinEdges:
    @pytest.mark.parametrize("pass_index", [0, 1, 4])
    def test_arrival_at_the_instant_of_a_poll(self, pass_index):
        state = assert_pump_matches_reference(_arrival_at_a_poll_scenario(pass_index))
        # The poll at that instant found the message: no empty pass after it.
        assert state["outputs"]["empty_polls"] == pass_index

    def test_waitall_progresses_before_it_looks(self):
        waitall = _shared_stack_waitall_scenario(lambda comm, reqs: comm.waitall(reqs))
        state = assert_pump_matches_reference(waitall)
        parent = observe(_shared_stack_waitall_scenario(_parent_waitall), pumped=False)
        assert state == parent

    @pytest.mark.parametrize("interrupt_at", [1234.5, 2000.0, 4321.0])
    def test_interrupt_during_a_spin(self, interrupt_at):
        state = assert_pump_matches_reference(_idle_wait_scenario(interrupt_at, None))
        assert state["outputs"]["cause"] == "poke"
        assert float.fromhex(state["outputs"]["received_at"]) > 5000.0

    @pytest.mark.parametrize("horizon", [777.0, 3000.25, 4999.0])
    def test_run_until_stops_during_a_spin(self, horizon):
        state = assert_pump_matches_reference(_idle_wait_scenario(None, horizon))
        assert float.fromhex(state["outputs"]["stop_clock"]) == horizon
        assert state["outputs"]["stop_empty_polls"] > 0

    def test_run_until_then_interrupt(self):
        assert_pump_matches_reference(_idle_wait_scenario(2500.0, 1800.0))


class TestPumpEngages:
    def _count(self, pumped: bool) -> dict[str, int]:
        counts = {"timeouts": 0, "entries": 0, "progress": 0}
        with pytest.MonkeyPatch.context() as patch:
            if not pumped:
                patch.setattr(pump, "pumpable", lambda profiler, *regions: False)
            progress = UctWorker.progress
            init = Environment.__init__

            def counted_progress(worker):
                counts["progress"] += 1
                return (yield from progress(worker))

            def on_event(when, item):
                counts["entries"] += 1
                counts["timeouts"] += isinstance(item, Timeout)

            def hooked_init(env, *args, **kwargs):
                init(env, *args, **kwargs)
                env.on_event = on_event

            patch.setattr(UctWorker, "progress", counted_progress)
            patch.setattr(Environment, "__init__", hooked_init)
            cluster = Cluster(4, config=make_config(3))
            run_collective("allreduce", cluster, algorithm="ring", iterations=1)
            counts["empty"] = sum(
                n.cpu.account("llp_prog_empty").count for n in cluster.nodes
            )
        return counts

    def test_empty_passes_leave_the_process_tier(self):
        pumped, reference = self._count(True), self._count(False)
        assert pumped["entries"] == reference["entries"]
        assert pumped["empty"] == reference["empty"] > 0
        # One ucp_prog_body and one llp_prog_empty Timeout per empty pass
        # became callback entries; UctWorker.progress ran only for the
        # passes that found something.
        assert reference["timeouts"] - pumped["timeouts"] >= 2 * pumped["empty"] - 8
        assert pumped["progress"] == reference["progress"] - pumped["empty"]

    @pytest.mark.parametrize("region", ["ucp_worker_progress", "llp_prog"])
    def test_profiled_regions_keep_the_generator_loop(self, region):
        # Only node1's stack carries the profiler; node2 always pumps.
        spins: dict[bool, list[str]] = {}
        with pytest.MonkeyPatch.context() as patch:
            spin = pump.spin
            for profiled in (True, False):
                nodes = spins[profiled] = []

                def counted_spin(worker, *args, nodes=nodes):
                    nodes.append(worker.node.name)
                    return spin(worker, *args)

                patch.setattr(pump, "spin", counted_spin)
                run_osu_latency(
                    config=make_config(None), iterations=4, warmup=1,
                    profile_regions={region} if profiled else frozenset(),
                )
        assert "node1" not in spins[True]
        assert "node2" in spins[True]
        assert {"node1", "node2"} <= set(spins[False])
