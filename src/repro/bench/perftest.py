"""UCX perftest equivalents: ``put_bw`` and ``am_lat`` (§4).

Both run at the raw UCT level with a single thread, 8-byte messages,
every message signaled — exactly the paper's configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.fastforward import (
    apply_trajectory,
    plan_put_bw,
    simulate_put_bw,
    trajectory_matches_replay,
)
from repro.llp.profiling import UcsProfiler
from repro.llp.uct import UCS_OK, UctWorker
from repro.nic.descriptor import Message
from repro.node.config import SystemConfig
from repro.node.testbed import Testbed
from repro.pcie.link import Direction

__all__ = [
    "AmLatResult",
    "PutBwResult",
    "am_lat_workload",
    "put_bw_workload",
    "run_am_lat",
    "run_put_bw",
]


@dataclass
class PutBwResult:
    """Outcome of one ``put_bw`` (injection-rate) run.

    ``observed_injection_overheads_ns`` are the NIC-side inter-arrival
    deltas from the PCIe analyzer trace — the paper's Figure 7 data.
    """

    testbed: Testbed
    profiler: UcsProfiler
    messages: list[Message]
    total_ns: float
    n_measured: int
    busy_posts: int
    observed_injection_overheads_ns: np.ndarray = field(repr=False)

    @property
    def mean_injection_overhead_ns(self) -> float:
        """Mean observed injection overhead (NIC view)."""
        return float(self.observed_injection_overheads_ns.mean())

    @property
    def median_injection_overhead_ns(self) -> float:
        """Median observed injection overhead (Figure 7 annotation)."""
        return float(np.median(self.observed_injection_overheads_ns))

    @property
    def message_rate_per_s(self) -> float:
        """Software-side message rate (messages per second)."""
        return self.n_measured / (self.total_ns * 1e-9) if self.total_ns else 0.0

    @property
    def cpu_side_injection_overhead_ns(self) -> float:
        """Inverse software message rate: mean CPU time per message."""
        return self.total_ns / self.n_measured if self.n_measured else 0.0


@dataclass
class AmLatResult:
    """Outcome of one ``am_lat`` (ping-pong latency) run."""

    testbed: Testbed
    profiler: UcsProfiler
    pings: list[Message]
    pongs: list[Message]
    total_ns: float
    iterations: int

    @property
    def observed_latency_ns(self) -> float:
        """Half the mean round-trip, as the benchmark reports (§4.3)."""
        return self.total_ns / (2 * self.iterations) if self.iterations else 0.0


def run_put_bw(
    testbed: Testbed | None = None,
    config: SystemConfig | None = None,
    n_messages: int = 2000,
    warmup: int = 256,
    payload_bytes: int = 8,
    poll_interval: int = 16,
    profile_regions: frozenset[str] | set[str] | None = frozenset(),
    fast_forward: bool | str = "auto",
) -> PutBwResult:
    """Run the RDMA-write injection-rate benchmark (§4.2).

    The benchmark posts continuously: every message is signaled, the
    benchmark polls one completion every ``poll_interval`` posts, and a
    busy post triggers progress-until-space — which, once the TxQ depth
    is exhausted, makes the steady state "after every successful
    LLP_post, there occurs a busy post".

    Parameters
    ----------
    testbed / config:
        Provide a prepared testbed, or a config to build one from.
    n_messages:
        Measured messages (post-warmup).
    warmup:
        Posts issued (and then excluded) before measurement starts —
        enough to fill the TxQ and reach steady state.
    profile_regions:
        UCS regions to measure during the run.  The default (empty set)
        measures nothing, matching the paper's *observed*-overhead runs;
        pass e.g. ``{"llp_post"}`` for methodology runs.  ``None``
        measures every region simultaneously (discouraged: nesting
        inflates outer regions, which is why the paper never does it).
    fast_forward:
        ``"auto"`` (default) replaces long eligible runs with the
        analytic steady-state model of :mod:`repro.bench.fastforward`,
        after validating it bitwise against two short replayed probes;
        short runs, prepared testbeds and every ineligible regime
        (faults, tracer, profiling, finite bandwidth, ...) replay in
        full.  ``True`` forces the model whenever eligible (probes
        still gate it); ``False`` always replays.  Fast-forwarded
        results carry no PCIe-analyzer records — pass ``False`` when
        the raw trace matters.
    """
    if testbed is None and fast_forward:
        result = _fast_forward_put_bw(
            config or SystemConfig.paper_testbed(),
            n_messages=n_messages,
            warmup=warmup,
            payload_bytes=payload_bytes,
            poll_interval=poll_interval,
            profile_regions=profile_regions,
            force=fast_forward is True,
        )
        if result is not None:
            return result
    tb = testbed or Testbed(config or SystemConfig.paper_testbed())
    env = tb.env
    node1 = tb.initiator
    profiler = UcsProfiler(node1.timer, enabled=True)
    profiler.enable_only(profile_regions)

    worker = UctWorker(node1, profiler)
    iface = worker.create_iface(signal_period=1)
    target_worker = UctWorker(tb.target)
    target_iface = target_worker.create_iface()
    ep = iface.create_ep(target_iface)

    measured: list[Message] = []
    marks: dict[str, float] = {}

    def sender():
        total = warmup + n_messages
        posted = 0
        while posted < total:
            while True:
                status = yield from ep.put_short(payload_bytes)
                if status == UCS_OK:
                    break
                # Busy post: progress until a completion retires a slot.
                yield from worker.progress_until_events()
            posted += 1
            if posted == warmup:
                # Steady state reached: start measuring from here.
                tb.analyzer.clear()
                profiler.reset()
                marks["t_start"] = env.now
            if posted % poll_interval == 0:
                yield from worker.progress()
            mu = yield from profiler.begin("measurement_update")
            yield from node1.cpu.execute("measurement_update")
            yield from profiler.end("measurement_update", mu)
        marks["t_end"] = env.now
        # Drain outstanding completions so the run ends cleanly.
        yield from worker.progress_until(lambda: iface.qp.txq.occupied == 0)

    busy_before = iface.busy_posts
    env.run(until=env.process(sender(), name="put_bw"))

    # NIC-observed injection overhead: deltas of downstream PIO-post
    # arrival timestamps at the analyzer (Figure 6's post-processing).
    arrivals = np.array(
        [
            r.timestamp_ns
            for r in tb.analyzer.tlps(Direction.DOWNSTREAM)
            if r.purpose == "pio_post" and r.timestamp_ns <= marks["t_end"]
        ]
    )
    deltas = np.diff(arrivals) if arrivals.size >= 2 else np.array([])
    measured = [
        r.packet.message
        for r in tb.analyzer.tlps(Direction.DOWNSTREAM)
        if r.purpose == "pio_post"
    ]
    return PutBwResult(
        testbed=tb,
        profiler=profiler,
        messages=measured,
        total_ns=marks["t_end"] - marks["t_start"],
        n_measured=n_messages,
        busy_posts=iface.busy_posts - busy_before,
        observed_injection_overheads_ns=deltas,
    )


def _fast_forward_put_bw(
    config: SystemConfig,
    n_messages: int,
    warmup: int,
    payload_bytes: int,
    poll_interval: int,
    profile_regions: frozenset[str] | set[str] | None,
    force: bool,
) -> PutBwResult | None:
    """Attempt the analytic fast-forward; None means "replay instead".

    Two short probe runs replay through the real event kernel and must
    match the model bitwise (measured window, busy posts, per-message
    stamp journals, CPU accounts, final virtual time, zero credit
    stalls) before the model's terminal state is installed on a fresh
    testbed.  The probes also calibrate the skipped-event credit: the
    event count is linear in the message count in steady state, so two
    probe sizes pin the per-message slope (the credited total is a
    replay-equivalent estimate; the exactness guarantee is on virtual
    times, not event counts).
    """
    if profile_regions is None or len(profile_regions) != 0:
        return None  # profiling reads the virtual timer: replay
    if warmup < 1 or n_messages < 1 or poll_interval < 1:
        return None
    # Probe sizes: multiples of poll_interval (so the poll cadence
    # divides both) spanning at least a few TxQ drain periods.
    delta = 2 * poll_interval
    n1 = max(delta, -(-32 // delta) * delta)
    n2 = n1 + delta
    if not force and n_messages < max(1000, 4 * (warmup + n2)):
        return None  # too short for the probes to pay for themselves
    tb = Testbed(config)
    if tb.initiator.cpu.record_samples:
        return None  # per-draw sample journals are a replay artefact
    profiler = UcsProfiler(tb.initiator.timer, enabled=True)
    profiler.enable_only(profile_regions)
    worker = UctWorker(tb.initiator, profiler)
    iface = worker.create_iface(signal_period=1)
    target_worker = UctWorker(tb.target)
    target_iface = target_worker.create_iface()
    ep = iface.create_ep(target_iface)
    del target_worker, target_iface
    folds = plan_put_bw(tb, iface, ep, payload_bytes)
    if folds is None:
        return None
    effective_events = []
    for n_probe in (n1, n2):
        traj = simulate_put_bw(folds, config, n_probe, warmup, poll_interval)
        if traj is None:
            return None
        replay = run_put_bw(
            config=config,
            n_messages=n_probe,
            warmup=warmup,
            payload_bytes=payload_bytes,
            poll_interval=poll_interval,
            profile_regions=profile_regions,
            fast_forward=False,
        )
        if not trajectory_matches_replay(traj, replay):
            return None
        env = replay.testbed.env
        effective_events.append(env.events_executed + env.events_fast_forwarded)
    per_message = (effective_events[1] - effective_events[0]) / (n2 - n1)
    skipped = int(round(effective_events[1] + per_message * (n_messages - n2)))
    # The synthesis pass draws from the testbed's own sender-core
    # stream and mirrors its accounts; it cannot diverge from the
    # validated probes because the warmup prefix (where the model can
    # bail) is identical for every message count.
    traj = simulate_put_bw(
        folds,
        config,
        n_messages,
        warmup,
        poll_interval,
        jitter=tb.initiator.cpu.jitter,
        rng=tb.initiator.cpu.rng,
        cpu=tb.initiator.cpu,
    )
    if traj is None:  # pragma: no cover - warmup prefix already probed
        return None
    messages = apply_trajectory(
        tb, worker, iface, ep, traj, folds, payload_bytes, skipped
    )
    deltas = (
        np.diff(traj.measured_arrivals)
        if traj.measured_arrivals.size >= 2
        else np.array([])
    )
    return PutBwResult(
        testbed=tb,
        profiler=profiler,
        messages=messages,
        total_ns=traj.t_end - traj.t_start,
        n_measured=n_messages,
        busy_posts=traj.busy_posts,
        observed_injection_overheads_ns=deltas,
    )


def put_bw_workload(
    config: SystemConfig,
    n_messages: int = 2000,
    warmup: int = 256,
    payload_bytes: int = 8,
    poll_interval: int = 16,
) -> dict[str, float]:
    """Campaign workload: :func:`run_put_bw` reduced to scalar measurements."""
    result = run_put_bw(
        config=config,
        n_messages=n_messages,
        warmup=warmup,
        payload_bytes=payload_bytes,
        poll_interval=poll_interval,
    )
    return {
        "mean_injection_overhead_ns": result.mean_injection_overhead_ns,
        "median_injection_overhead_ns": result.median_injection_overhead_ns,
        "cpu_side_injection_overhead_ns": result.cpu_side_injection_overhead_ns,
        "message_rate_per_s": result.message_rate_per_s,
        "busy_posts": result.busy_posts,
        "n_measured": result.n_measured,
    }


def run_am_lat(
    testbed: Testbed | None = None,
    config: SystemConfig | None = None,
    iterations: int = 500,
    warmup: int = 50,
    payload_bytes: int = 8,
    profile_regions: frozenset[str] | set[str] | None = frozenset(),
    completion_mode: str = "polling",
) -> AmLatResult:
    """Run the send-receive ping-pong latency benchmark (§4.3).

    Node 1 sends a ping and spins on progress until the pong lands;
    node 2 mirrors it.  The benchmark reports round-trip / 2.  A
    measurement update runs on node 1 each iteration (overlapping the
    pong flight), exactly the artefact §4.3 deducts half of.

    ``completion_mode="interrupt"`` replaces the polling wait with the
    §2 interrupt notification on both sides — the latency-hostile
    alternative the paper dismisses, provided for the ablation.
    """
    if completion_mode not in ("polling", "interrupt"):
        raise ValueError(
            f"completion_mode must be 'polling' or 'interrupt', got {completion_mode!r}"
        )
    tb = testbed or Testbed(config or SystemConfig.paper_testbed())
    env = tb.env
    node1, node2 = tb.initiator, tb.target
    profiler = UcsProfiler(node1.timer, enabled=True)
    profiler.enable_only(profile_regions)

    worker1 = UctWorker(node1, profiler)
    iface1 = worker1.create_iface(signal_period=1)
    worker2 = UctWorker(node2)
    iface2 = worker2.create_iface(signal_period=1)
    ep1 = iface1.create_ep(iface2)
    ep2 = iface2.create_ep(iface1)

    pings: list[Message] = []
    pongs: list[Message] = []
    marks: dict[str, float] = {}
    state = {"pongs_seen": 0, "pings_seen": 0}

    def on_pong(message: Message) -> None:
        state["pongs_seen"] += 1
        pongs.append(message)

    def on_ping(message: Message) -> None:
        state["pings_seen"] += 1

    iface1.set_am_handler(on_pong)
    iface2.set_am_handler(on_ping)

    total = warmup + iterations

    def initiator():
        for i in range(total):
            if i == warmup:
                tb.analyzer.clear()
                profiler.reset()
                marks["t_start"] = env.now
            while True:
                status = yield from ep1.am_short(payload_bytes)
                if status == UCS_OK:
                    break
                yield from worker1.progress_until_events()
            pings.append(iface1.last_message)
            yield from node1.cpu.execute("measurement_update")
            target = i + 1
            if completion_mode == "interrupt":
                while state["pongs_seen"] < target:
                    yield from worker1.wait_am_interrupt(iface1)
            else:
                yield from worker1.progress_until(
                    lambda: state["pongs_seen"] >= target
                )
        marks["t_end"] = env.now

    def responder():
        for i in range(total):
            target = i + 1
            if completion_mode == "interrupt":
                while state["pings_seen"] < target:
                    yield from worker2.wait_am_interrupt(iface2)
            else:
                yield from worker2.progress_until(
                    lambda: state["pings_seen"] >= target
                )
            while True:
                status = yield from ep2.am_short(payload_bytes)
                if status == UCS_OK:
                    break
                yield from worker2.progress_until_events()

    env.process(responder(), name="am_lat.responder")
    env.run(until=env.process(initiator(), name="am_lat.initiator"))

    return AmLatResult(
        testbed=tb,
        profiler=profiler,
        pings=pings[warmup:],
        pongs=pongs[warmup:] if len(pongs) > warmup else pongs,
        total_ns=marks["t_end"] - marks["t_start"],
        iterations=iterations,
    )


def am_lat_workload(
    config: SystemConfig,
    iterations: int = 500,
    warmup: int = 50,
    payload_bytes: int = 8,
    completion_mode: str = "polling",
) -> dict[str, float]:
    """Campaign workload: :func:`run_am_lat` reduced to scalar measurements."""
    result = run_am_lat(
        config=config,
        iterations=iterations,
        warmup=warmup,
        payload_bytes=payload_bytes,
        completion_mode=completion_mode,
    )
    return {
        "observed_latency_ns": result.observed_latency_ns,
        "round_trip_ns": result.total_ns / result.iterations,
        "iterations": result.iterations,
    }
