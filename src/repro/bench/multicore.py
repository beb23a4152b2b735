"""Many-core fine-grained injection — the paper's motivating scenario.

The introduction argues that at the limits of strong scaling "each core
participates in communication ... independently of the others", sending
small messages.  The paper measures a single core and explicitly leaves
the credit-exhausted regime unmodelled ("a single core does not exhaust
the credits for MWr transactions").

This benchmark runs N independent put_bw senders, one per core, each
with its own queue pair, sharing the node's one PCIe link.  It exposes
both regimes: near-linear aggregate message-rate scaling while posted
credits suffice, then the flow-control wall when the link's credit
return cannot keep up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.llp.uct import UCS_OK, UctWorker
from repro.node.config import SystemConfig
from repro.node.testbed import Testbed
from repro.pcie.link import Direction

__all__ = ["MulticoreResult", "multicore_workload", "run_multicore_put_bw"]


@dataclass
class MulticoreResult:
    """Outcome of one multi-core injection run."""

    testbed: Testbed
    n_cores: int
    n_messages_per_core: int
    total_ns: float
    #: Downstream posted-credit stalls during the measured window.
    credit_stalls: int
    #: PIO posts observed arriving at the NIC inside the window.
    nic_arrivals: int = 0
    per_core_message_counts: list[int] = field(repr=False, default_factory=list)

    @property
    def aggregate_rate_per_s(self) -> float:
        """Total messages per second across all cores."""
        total = self.n_cores * self.n_messages_per_core
        return total / (self.total_ns * 1e-9) if self.total_ns else 0.0

    @property
    def per_core_rate_per_s(self) -> float:
        """Mean per-core message rate."""
        return self.aggregate_rate_per_s / self.n_cores if self.n_cores else 0.0

    @property
    def mean_injection_overhead_ns(self) -> float:
        """Per-core mean time between that core's posts."""
        return 1e9 / self.per_core_rate_per_s if self.per_core_rate_per_s else 0.0

    @property
    def nic_rate_per_s(self) -> float:
        """Aggregate arrival rate *at the NIC* — the injection the
        fabric actually sees.  Falls below the CPU-side rate once the
        posted-credit pool saturates and TLPs queue at the RC."""
        return self.nic_arrivals / (self.total_ns * 1e-9) if self.total_ns else 0.0


def run_multicore_put_bw(
    n_cores: int,
    config: SystemConfig | None = None,
    n_messages_per_core: int = 300,
    warmup_per_core: int = 128,
    payload_bytes: int = 8,
    poll_interval: int = 16,
) -> MulticoreResult:
    """Run N concurrent put_bw senders, one per core, on node 1.

    Each sender owns a queue pair (its own TxQ and CQ) and never
    synchronises with the others — the paper's fine-grained model.  The
    shared resource is the PCIe link and its posted-credit pool.
    """
    if n_cores < 1:
        raise ValueError(f"n_cores must be >= 1, got {n_cores}")
    cfg = config or SystemConfig.paper_testbed()
    tb = Testbed(cfg)
    node1 = tb.initiator
    while len(node1.cores) < n_cores:
        node1.add_core()

    target_worker = UctWorker(tb.target)
    target_iface = target_worker.create_iface()

    total_per_core = warmup_per_core + n_messages_per_core
    done_warmup = {"count": 0}
    marks: dict[str, float] = {}
    finish_times: list[float] = []
    counts: list[int] = [0] * n_cores
    stall_mark = {"start": 0}
    env = tb.env

    def sender(core_index: int):
        core = node1.cores[core_index]
        worker = UctWorker(node1, core=core)
        iface = worker.create_iface(signal_period=1)
        ep = iface.create_ep(target_iface)
        posted = 0
        while posted < total_per_core:
            while True:
                status = yield from ep.put_short(payload_bytes)
                if status == UCS_OK:
                    break
                yield from worker.progress_until_events()
            posted += 1
            if posted == warmup_per_core:
                done_warmup["count"] += 1
                if done_warmup["count"] == n_cores:
                    # All cores warmed up: the measured window begins.
                    marks["t_start"] = env.now
                    tb.analyzer.clear()
                    stall_mark["start"] = node1.link.credit_stalls(
                        Direction.DOWNSTREAM
                    )
            if posted % poll_interval == 0:
                yield from worker.progress()
            yield from core.execute("measurement_update")
            counts[core_index] = posted
        finish_times.append(env.now)
        # Drain so the run ends cleanly.
        yield from worker.progress_until(lambda: iface.qp.txq.occupied == 0)

    processes = [
        env.process(sender(index), name=f"mc_put_bw.core{index}")
        for index in range(n_cores)
    ]
    env.run(until=env.all_of(processes))
    marks["t_end"] = float(np.max(finish_times))

    nic_arrivals = sum(
        1
        for r in tb.analyzer.tlps(Direction.DOWNSTREAM)
        if r.purpose == "pio_post" and r.timestamp_ns <= marks["t_end"]
    )
    return MulticoreResult(
        testbed=tb,
        n_cores=n_cores,
        n_messages_per_core=n_messages_per_core,
        total_ns=marks["t_end"] - marks["t_start"],
        credit_stalls=node1.link.credit_stalls(Direction.DOWNSTREAM)
        - stall_mark["start"],
        nic_arrivals=nic_arrivals,
        per_core_message_counts=counts,
    )


def multicore_workload(
    config: SystemConfig,
    n_cores: int = 1,
    n_messages_per_core: int = 300,
    warmup_per_core: int = 128,
    payload_bytes: int = 8,
    poll_interval: int = 16,
) -> dict[str, float]:
    """Campaign workload: :func:`run_multicore_put_bw` as scalar measurements."""
    result = run_multicore_put_bw(
        n_cores,
        config=config,
        n_messages_per_core=n_messages_per_core,
        warmup_per_core=warmup_per_core,
        payload_bytes=payload_bytes,
        poll_interval=poll_interval,
    )
    return {
        "aggregate_rate_per_s": result.aggregate_rate_per_s,
        "per_core_rate_per_s": result.per_core_rate_per_s,
        "mean_injection_overhead_ns": result.mean_injection_overhead_ns,
        "nic_rate_per_s": result.nic_rate_per_s,
        "credit_stalls": result.credit_stalls,
        "n_cores": result.n_cores,
    }
