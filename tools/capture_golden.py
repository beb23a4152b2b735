"""Capture golden-timeline digests for the kernel determinism tests.

Runs the seeded reference workloads and prints the digests that
``tests/integration/test_golden_timeline.py`` pins.  Each scenario runs
twice in the same process:

- **traced**, under :func:`repro.trace.trace_session`: the timeline
  digests (``events``/``exact``/``sorted``) plus ``measurements``;
- **untraced**, the default fast configuration users benchmark: the
  ``untraced`` digest covers the measurements, the final clock, every
  message's stamp journal (in creation order) and each core's segment
  counts, totals and ``busy_ns``.

The pinned values were captured on the generator-only kernel (before
the callback fast path landed), and the untraced and MPI digests on the
last commit before the poll pump; re-run this script and update the
test constants only when an *intentional* timing change ships.

Identity counters (message ids, TLP ids, frame ids, ...) are
process-global, so the traced digests are only reproducible from a
**fresh process** running the scenarios in this module's order — which
is how the golden tests invoke it (a subprocess per comparison).

Usage::

    PYTHONPATH=src python tools/capture_golden.py [scenario ...]
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys


def golden_runs():
    """The seeded scenarios pinned by the golden-timeline tests.

    Shared with the test module so the capture tool and the assertions
    can never drift apart.  Each run returns an object with either a
    ``testbed`` or a ``cluster`` attribute (the simulated machine).
    """
    from repro.bench import run_am_lat, run_put_bw
    from repro.collectives import run_collective
    from repro.network.topology import TopologySpec
    from repro.node import SystemConfig
    from repro.node.cluster import Cluster
    from repro.pcie.config import PcieConfig

    deterministic = SystemConfig.paper_testbed(deterministic=True)
    jittered = SystemConfig.paper_testbed(seed=7)
    lossy = SystemConfig.paper_testbed(deterministic=True).evolve(
        pcie=PcieConfig(tlp_corruption_prob=0.05)
    )

    def on_fat_tree(config):
        return config.evolve(
            network=dataclasses.replace(
                config.network, topology=TopologySpec.parse("fat_tree:4")
            )
        )

    def ring_allreduce(config):
        return run_collective(
            "allreduce", Cluster(8, config=on_fat_tree(config)),
            algorithm="ring", iterations=2,
        )

    def put_bw_measurements(result):
        return {
            "total_ns": result.total_ns,
            "mean_injection_overhead_ns": result.mean_injection_overhead_ns,
            "median_injection_overhead_ns": result.median_injection_overhead_ns,
            "busy_posts": result.busy_posts,
            "n_measured": result.n_measured,
        }

    def am_lat_measurements(result):
        return {
            "total_ns": result.total_ns,
            "observed_latency_ns": result.observed_latency_ns,
            "iterations": result.iterations,
        }

    def collective_measurements(result):
        return {
            "total_ns": result.total_ns,
            "time_per_iteration_ns": result.time_per_iteration_ns,
            "steps": result.steps,
            "iterations": result.iterations,
        }

    return {
        "put_bw_deterministic": (
            lambda: run_put_bw(config=deterministic, n_messages=60, warmup=20),
            put_bw_measurements,
        ),
        "put_bw_jittered_seed7": (
            lambda: run_put_bw(config=jittered, n_messages=60, warmup=20),
            put_bw_measurements,
        ),
        "am_lat_deterministic": (
            lambda: run_am_lat(config=deterministic, iterations=40, warmup=10),
            am_lat_measurements,
        ),
        "am_lat_lossy_pcie": (
            lambda: run_am_lat(config=lossy, iterations=40, warmup=10),
            am_lat_measurements,
        ),
        "ring_allreduce_fat_tree_deterministic": (
            lambda: ring_allreduce(deterministic),
            collective_measurements,
        ),
        "ring_allreduce_fat_tree_seed7": (
            lambda: ring_allreduce(jittered),
            collective_measurements,
        ),
    }


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _sha256(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def measurements_digest(measurements: dict) -> str:
    """Bit-exact hash of a measurement dict (floats rendered as hex)."""
    return _sha256({key: _hex(value) for key, value in measurements.items()})


def untraced_digest(run, reduce_measurements) -> str:
    """Bit-exact hash of one untraced run's physical state.

    Every :class:`~repro.nic.descriptor.Message` created during the run
    is recorded (creation order stands in for the process-global ids),
    so the digest covers each message's full stamp journal.
    """
    from repro.nic.descriptor import Message

    messages = []
    original = Message.__post_init__

    def record(message):
        original(message)
        messages.append(message)

    Message.__post_init__ = record
    try:
        result = run()
    finally:
        Message.__post_init__ = original
    machine = getattr(result, "testbed", None) or result.cluster
    return _sha256(
        {
            "measurements": measurements_digest(reduce_measurements(result)),
            "final_clock": machine.env.now.hex(),
            "journals": [
                [m.op.value, m.payload_bytes, m.recv_target,
                 {stage: t.hex() for stage, t in m.timestamps.items()}]
                for m in messages
            ],
            "cores": {
                core.name: {
                    "busy_ns": core.busy_ns.hex(),
                    "segments": {
                        name: [account.count, account.total_ns.hex()]
                        for name, account in core.accounts.items()
                    },
                }
                for node in machine.nodes
                for core in node.cores
            },
        }
    )


def capture(only: list[str] | None = None) -> dict:
    from repro.trace import trace_session
    from repro.trace.golden import timeline_digest

    scenarios = golden_runs()
    if only:
        unknown = sorted(set(only) - set(scenarios))
        if unknown:
            raise SystemExit(f"unknown scenario(s): {', '.join(unknown)}")
        scenarios = {name: scenarios[name] for name in scenarios if name in only}
    captured = {}
    for name, (run, reduce_measurements) in scenarios.items():
        with trace_session() as session:
            result = run()
        digest = timeline_digest(session.tracers)
        digest["measurements"] = measurements_digest(reduce_measurements(result))
        digest["untraced"] = untraced_digest(run, reduce_measurements)
        captured[name] = digest
    return captured


def main(argv: list[str] | None = None) -> int:
    only = list(sys.argv[1:] if argv is None else argv)
    print(json.dumps(capture(only or None), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
