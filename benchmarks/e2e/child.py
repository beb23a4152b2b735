"""One benchmark child: a fresh interpreter that runs one workload.

``run.py`` starts this file, one child at a time, with ``src`` on
``PYTHONPATH`` and the numeric libraries pinned to one thread.  The
child talks back in JSON lines on stdout:

``{"event": "ready", "monotonic": t}``
    imports are done and the config is built: pass 1 can begin.  The
    parent subtracts its own ``time.monotonic()`` at spawn to get the
    set-up time.  ``--mode setup`` exits here.
``{"event": "pass", ...}``
    one untraced pass: seed, wall seconds, output digest and fields,
    violated invariants (or the error it raised).
``{"event": "traced", ...}``
    ``--mode traced`` only: one more pass at the first seed under
    cProfile and the layer probe, with its per-layer counts.
``{"event": "done", "peak_rss_mb": m, "cut_short": c}``
    the child's peak resident set after its last pass, and whether it
    stopped early to meet ``--deadline``.

Passes form a closed loop: pass *i* runs at seed ``N + i`` as soon as
pass *i - 1* has been checked, until at least ``--passes`` passes ran
and their walls add up to ``--seconds``.  On a host too slow for that
before ``--deadline`` (a ``time.monotonic()`` value), the loop stops
while one more pass like the slowest so far, and the traced pass,
still fit: fewer passes, but a result.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import functools
import gc
import json
import pstats
import resource
import sys
import time
import traceback
from typing import Any

import layers
import workloads
from repro.node import SystemConfig

#: A traced pass costs at most this many untraced passes (2x to 4.2x
#: measured), with a margin.
TRACE_COST = 6.0


def emit(event: str, **record: Any) -> None:
    print(json.dumps({"event": event, **record}), flush=True)


def run_pass(workload: workloads.Workload, seed: int, probe=None, profile=None
             ) -> dict[str, Any]:
    """Time one pass of ``workload``, optionally probed and profiled; never raises."""
    run = workload.run if profile is None else functools.partial(profile.runcall, workload.run)
    gc.collect()
    start = time.perf_counter()
    try:
        with probe or contextlib.nullcontext():
            outputs = run(seed)
        wall_s = time.perf_counter() - start
    except Exception:
        return {"seed": seed, "wall_s": time.perf_counter() - start,
                "error": traceback.format_exc()}
    record = {
        "seed": seed,
        "wall_s": wall_s,
        "digest": workloads.digest(outputs),
        "fields": workloads.fields(outputs),
        "problems": workload.problems(outputs),
    }
    if probe is not None:
        record["events_executed"] = probe.events_executed
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--deadline", type=float, default=float("inf"))
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    SystemConfig.paper_testbed(seed=args.seed)
    emit("ready", monotonic=time.monotonic(), unit=workload.unit)
    if args.mode == "setup":
        return 0
    traced = args.mode == "traced"
    spent = slowest = 0.0
    index = 0
    cut_short = False
    while index < args.passes or spent < args.seconds:
        still_needed = slowest * (1.0 + TRACE_COST if traced else 1.0)
        if index and time.monotonic() + still_needed > args.deadline:
            cut_short = True
            break
        # Traced runs count each untraced pass's executed events too,
        # so the traced pass can be held to the same count.
        probe = layers.LayerProbe(full=False) if traced else None
        record = run_pass(workload, args.seed + index, probe)
        emit("pass", **record)
        spent += record["wall_s"]
        slowest = max(slowest, record["wall_s"])
        index += 1
    if traced:
        probe, profile = layers.LayerProbe(full=True), cProfile.Profile()
        record = run_pass(workload, args.seed, probe, profile)
        if "error" not in record:
            record["layers"] = probe.metrics()
            record["host_frac"] = layers.host_fractions(pstats.Stats(profile).stats)
            record["paper"] = workloads.paper_metrics(record["fields"])
        emit("traced", **record)
    emit("done", peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         cut_short=cut_short)
    return 0


if __name__ == "__main__":
    sys.exit(main())
