"""A uni-directional bandwidth benchmark (osu_bw / put_bw large-message).

The paper's §1 dichotomy in benchmark form: windows of RDMA writes of a
given size are kept in flight and the achieved rate is measured.  Small
messages are CPU-rate-bound (the paper's whole story); large messages
saturate the slowest serialisation stage (wire or PCIe).

Requires a finite-bandwidth configuration to be meaningful at large
sizes; with the paper's latency-only constants everything pipelines
infinitely and the curve has no knee.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.llp.uct import UCS_OK, UctWorker
from repro.network.config import NetworkConfig
from repro.node.config import SystemConfig
from repro.node.testbed import Testbed
from repro.pcie.config import PcieConfig

__all__ = ["BandwidthResult", "bandwidth_workload", "realistic_bandwidth_config", "run_uct_bandwidth"]


def realistic_bandwidth_config(
    pcie_bytes_per_ns: float = 15.75,   # PCIe Gen3 x16
    network_bytes_per_ns: float = 12.5,  # 100 Gb/s EDR
    deterministic: bool = True,
) -> SystemConfig:
    """The paper testbed with finite serialisation bandwidths."""
    base = SystemConfig.paper_testbed(deterministic=deterministic)
    return base.evolve(
        pcie=PcieConfig(bandwidth_bytes_per_ns=pcie_bytes_per_ns),
        network=NetworkConfig(bandwidth_bytes_per_ns=network_bytes_per_ns),
    )


@dataclass
class BandwidthResult:
    """Outcome of one bandwidth run at one message size."""

    testbed: Testbed
    message_bytes: int
    n_measured: int
    total_ns: float

    @property
    def bandwidth_bytes_per_ns(self) -> float:
        """Achieved uni-directional bandwidth (B/ns == GB/s)."""
        if not self.total_ns:
            return 0.0
        return self.message_bytes * self.n_measured / self.total_ns

    @property
    def message_rate_per_s(self) -> float:
        """Messages per second at this size."""
        return self.n_measured / (self.total_ns * 1e-9) if self.total_ns else 0.0


def run_uct_bandwidth(
    message_bytes: int,
    config: SystemConfig | None = None,
    n_messages: int = 128,
    warmup: int = 32,
    window: int = 16,
) -> BandwidthResult:
    """Measure achieved bandwidth with ``window`` messages in flight.

    Small messages go PIO+inline (put_short); larger ones take the
    DoorBell+DMA path (put_zcopy).  The sender keeps up to ``window``
    operations outstanding, progressing for completions as needed —
    the osu_bw structure.
    """
    if message_bytes < 1:
        raise ValueError(f"message_bytes must be >= 1, got {message_bytes}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    tb = Testbed(config or realistic_bandwidth_config())
    env = tb.env
    worker = UctWorker(tb.initiator)
    iface = worker.create_iface(signal_period=1)
    remote = UctWorker(tb.target).create_iface()
    ep = iface.create_ep(remote)
    inline_limit = tb.config.nic.inline_max_bytes
    marks: dict[str, float] = {}

    def post():
        if message_bytes <= inline_limit:
            return ep.put_short(message_bytes)
        return ep.put_zcopy(message_bytes)

    def sender():
        total = warmup + n_messages
        posted = 0
        completed_mark = 0
        while posted < total:
            # Keep at most `window` operations outstanding.
            yield from worker.progress_until(lambda: iface.qp.txq.occupied < window)
            while True:
                status = yield from post()
                if status == UCS_OK:
                    break
                yield from worker.progress_until_events()
            posted += 1
            if posted == warmup:
                # Start timing once the pipeline is primed; the window
                # is drained again at the end so the measured interval
                # covers exactly n_messages' worth of data.
                yield from worker.progress_until(lambda: iface.qp.txq.occupied == 0)
                marks["t_start"] = env.now
                completed_mark = posted
        yield from worker.progress_until(lambda: iface.qp.txq.occupied == 0)
        marks["t_end"] = env.now
        marks["measured"] = posted - completed_mark

    env.run(until=env.process(sender(), name="uct_bw"))
    return BandwidthResult(
        testbed=tb,
        message_bytes=message_bytes,
        n_measured=int(marks["measured"]),
        total_ns=marks["t_end"] - marks["t_start"],
    )


def bandwidth_workload(
    config: SystemConfig,
    message_bytes: int = 8,
    n_messages: int = 128,
    warmup: int = 32,
    window: int = 16,
) -> dict[str, float]:
    """Campaign workload: :func:`run_uct_bandwidth` as scalar measurements."""
    result = run_uct_bandwidth(
        message_bytes,
        config=config,
        n_messages=n_messages,
        warmup=warmup,
        window=window,
    )
    return {
        "bandwidth_bytes_per_ns": result.bandwidth_bytes_per_ns,
        "message_rate_per_s": result.message_rate_per_s,
        "message_bytes": result.message_bytes,
        "n_measured": result.n_measured,
    }
