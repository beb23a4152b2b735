"""End-to-end benchmark of the simulator: four workloads, one command.

    python benchmarks/e2e/run.py [--workload W ...] [--seed N] [--seconds S]
        [--passes P] [--phase timed|traced|all | --trace 0|1] [--out F]
        [--update-expected]

Every workload runs in a fresh single-threaded child interpreter
(``child.py``), one child at a time, as a closed loop of passes at
seeds N, N+1, ...  The timed phase gives the end-to-end metrics of
``BENCHMARK.json`` with tracing off; the traced phase repeats the
untraced passes, then profiles one more pass at seed N and attributes
host time and simulated events to the ``repro`` layers.  Every pass's
simulated outputs are checked: against ``expected.json`` where it holds
the seed, and against the workload's invariants always.

Each workload's block of output ends with one JSON result line,
``{"correct", "attempted", "failed", "metrics"}``, holding the metrics
``BENCHMARK.json`` lists for the phases run.
Exit status: 0 when every pass was correct, 1 otherwise, 2 when the
source tree or ``BENCHMARK.json`` is missing.  Every failure is also
printed on stderr.  One phase of one workload ends within 180 s: on a
host too slow for the requested seconds and passes, it runs fewer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 2019
DEFAULT_PASSES = 3
#: Set-up is short and noisy: it is sampled this many times per run
#: (all but one in set-up-only children) and reported as the median.
SETUP_SAMPLES = 9
#: The children of one phase of one workload share this budget, so a
#: ``--trace 0|1`` run of one workload ends within 180 s.  A measuring
#: child is told the deadline and runs fewer passes on a slow host; a
#: child still running at the deadline is killed.
PHASE_LIMIT_S = 165.0
#: Part of the timed phase's budget kept for the set-up-only children
#: that follow the measuring child (each takes well under a second).
SETUP_RESERVE_S = 15.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float, seconds: float = 0.0,
          passes: int = 1) -> tuple[list[dict[str, Any]], str]:
    """Run one child to completion: (its records, failure text or "").

    ``deadline`` is a ``time.monotonic()`` value.  The ``ready`` record
    gains ``setup_s``: spawn to ready, both read from the system-wide
    monotonic clock.
    """
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode,
        "--seconds", repr(seconds), "--passes", str(passes), "--deadline", repr(deadline),
    ]
    started = time.monotonic()
    timeout = max(deadline - started, 1.0)
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
        stdout, failure = proc.stdout, ""
        if proc.returncode != 0:
            failure = f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired as exc:
        stdout = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        failure = f"child ran over its {timeout:.0f} s and was killed"
    records = []
    for line in stdout.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue  # a line cut off by the kill, or not a record
        if isinstance(record, dict) and "event" in record:
            records.append(record)
    for record in records:
        if record["event"] == "ready":
            record["setup_s"] = record["monotonic"] - started
    return records, failure


def check(workload: str, record: dict[str, Any], expected: dict) -> list[str]:
    """Why a pass record is incorrect (empty when it is correct)."""
    if "error" in record:
        return [record["error"].strip().splitlines()[-1]]
    found = list(record["problems"])
    want = expected.get(workload, {}).get(str(record["seed"]))
    record["expected"] = "unknown" if want is None else (
        "match" if want["digest"] == record["digest"] else "mismatch"
    )
    if record["expected"] == "mismatch":
        if "fields" not in want:
            found.append(f"outputs differ from expected.json (digest {want['digest']}); "
                         f"rerun with --seed {record['seed']} for the differing fields")
            return found
        got = record["fields"]
        diffs = [
            f"{key}: expected {want['fields'].get(key)!r}, got {got.get(key)!r}"
            for key in sorted(set(want["fields"]) | set(got))
            if want["fields"].get(key) != got.get(key)
        ]
        found.append("outputs differ from expected.json: " + "; ".join(diffs))
    return found


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def checked_passes(records: list[dict], workload: str, expected: dict) -> list[dict]:
    """The untraced pass records, each with its problems filled in."""
    passes = [r for r in records if r["event"] == "pass"]
    for record in passes:
        record["problems"] = check(workload, record, expected)
    return passes


def cut_short(records: list[dict]) -> list[str]:
    """A note when the measuring child stopped early to meet its deadline."""
    passes = sum(r["event"] == "pass" for r in records)
    return [
        f"note: the host was too slow for the requested run; stopped after {passes} "
        f"passes to end within {PHASE_LIMIT_S:.0f} s"
        for r in records if r["event"] == "done" and r["cut_short"]
    ]


def timed_phase(workload: str, seed: int, seconds: float, passes: int, expected: dict
                ) -> dict[str, Any]:
    deadline = time.monotonic() + PHASE_LIMIT_S
    setups, errors = [], []

    def sample_setups(count: int) -> None:
        for _ in range(count):
            records, failure = spawn(workload, seed, "setup", deadline)
            setups.extend(r["setup_s"] for r in records if r["event"] == "ready")
            errors.extend([failure] if failure else [])

    # Set-up samples straddle the measuring child, so a burst of load
    # from other tenants at either end moves fewer of them.
    sample_setups(SETUP_SAMPLES // 2)
    records, failure = spawn(workload, seed, "timed", deadline - SETUP_RESERVE_S,
                             seconds, passes)
    setups += [r["setup_s"] for r in records if r["event"] == "ready"]
    sample_setups(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
    runs = checked_passes(records, workload, expected)
    good = [r for r in runs if not r["problems"]]
    rates = [r["fields"]["units"] / r["wall_s"] for r in good]
    metrics: dict[str, dict[str, Any]] = {}
    if rates:
        q1, median, q3 = quartiles(rates)
        metrics["units_per_s"] = {"value": median, "q1": q1, "q3": q3, "n": len(rates)}
    if len(setups) == SETUP_SAMPLES:
        metrics["setup_s"] = {"value": statistics.median(setups), "n": len(setups)}
    for record in records:
        if record["event"] == "done":
            metrics["peak_rss_mb"] = {"value": record["peak_rss_mb"]}
    if failure:
        errors.append(failure)
    return {
        "unit": next((r["unit"] for r in records if r["event"] == "ready"), "?"),
        "passes": runs,
        "setup_s": setups,
        "metrics": metrics,
        # A child that died is one more attempted pass that failed.
        "attempted": len(runs) + bool(failure),
        "failed": len(runs) - len(good) + bool(failure),
        "errors": errors,
        "notes": cut_short(records),
    }


def traced_phase(workload: str, seed: int, seconds: float, passes: int, expected: dict
                 ) -> dict[str, Any]:
    deadline = time.monotonic() + PHASE_LIMIT_S
    records, failure = spawn(workload, seed, "traced", deadline, seconds, passes)
    runs = checked_passes(records, workload, expected)
    good = [r for r in runs if not r["problems"]]
    traced = next((r for r in records if r["event"] == "traced"), None)
    metrics: dict[str, dict[str, Any]] = {}
    if traced is not None:
        problems = check(workload, traced, expected)
        twin = next((r for r in runs if r["seed"] == traced["seed"]), None)
        if "error" not in traced:
            layer_counts = traced["layers"]
            if twin is None or twin.get("digest") != traced["digest"]:
                problems.append("traced outputs differ from the untraced pass")
            elif twin["events_executed"] != layer_counts["sim.events_executed"]:
                problems.append(
                    f"traced pass executed {layer_counts['sim.events_executed']} "
                    f"events, the untraced pass {twin['events_executed']}"
                )
            metrics.update({f"host_frac.{k}": {"value": v} for k, v in traced["host_frac"].items()})
            metrics.update({k: {"value": v} for k, v in layer_counts.items()})
            if good:
                metrics["sim.host_ns_per_event"] = {"value": statistics.median(
                    r["wall_s"] * 1e9 / r["events_executed"] for r in good
                )}
                median_wall = statistics.median(r["wall_s"] for r in good)
                metrics["trace.overhead_ratio"] = {"value": traced["wall_s"] / median_wall}
            for name in ("sim_ns", "model_error_pct"):
                metrics[f"physics.{name}"] = {"value": traced["fields"][name]}
            metrics.update(traced["paper"])
        traced["problems"] = problems
    traced_ok = traced is not None and not traced["problems"]
    return {
        "unit": next((r["unit"] for r in records if r["event"] == "ready"), "?"),
        "passes": runs,
        "traced": traced,
        "metrics": metrics,
        "attempted": len(runs) + 1,
        "failed": len(runs) - len(good) + (not traced_ok),
        "errors": [failure] if failure else [],
        "notes": cut_short(records),
    }


def provenance() -> dict[str, Any]:
    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run([*git, "status", "--porcelain"], capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "utc_start": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def warn(line: str) -> None:
    """Print ``line`` to stdout, and to stderr where a failed run is read first."""
    print(line)
    print(line.strip(), file=sys.stderr, flush=True)


def report(workload: str, phase: str, data: dict[str, Any], units: dict[str, str]) -> None:
    """Print one phase of one workload for a human reader."""
    runs = data["passes"]
    seeds = f"seeds {runs[0]['seed']}..{runs[-1]['seed']}" if runs else "no passes"
    print(f"[{workload}] {phase}: {len(runs)} passes, {seeds}; one unit = {data['unit']}")
    for name, metric in data["metrics"].items():
        unit = metric.get("unit", units.get(name, ""))
        extra = ""
        if "q1" in metric:
            extra = f"  (q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, n={metric['n']})"
        elif "n" in metric:
            extra = f"  (median of {metric['n']})"
        value = metric["value"]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:30s} {shown} {unit}{extra}")
    traced = data.get("traced")
    for record in runs + ([traced] if traced else []):
        tag = "traced" if record is traced else "pass"
        print(f"  {tag} seed {record['seed']}: sha256 {record.get('digest', '-')} "
              f"[{record.get('expected', 'unknown')}]")
        for problem in record["problems"]:
            warn(f"    FAILED: [{workload}] {tag} seed {record['seed']}: {problem}")
    for error in data["errors"]:
        warn(f"  ERROR: [{workload}] {phase}: {error}")
    for note in data["notes"]:
        warn(f"  [{workload}] {phase}: {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--passes", type=int, default=DEFAULT_PASSES,
                        help="minimum passes per run")
    parser.add_argument("--phase", choices=("timed", "traced", "all"), default="all")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="same as --phase: 0 = timed, 1 = traced")
    parser.add_argument("--out", help="also write the full results as JSON here")
    parser.add_argument("--update-expected", action="store_true",
                        help="record every pass that meets its invariants in expected.json")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} has no src/repro package or no BENCHMARK.json; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workload or names
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    phase = {"0": "timed", "1": "traced", None: args.phase}[args.trace]
    phases = ("timed", "traced") if phase == "all" else (phase,)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    listed = [m["name"] for m in spec["end_to_end"]] if "timed" in phases else []
    listed += [m["name"] for m in spec["per_layer"]] if "traced" in phases else []
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    # Re-recording checks invariants only: the old digests are what changed.
    checked_against = {} if args.update_expected else expected

    start = time.monotonic()
    info = provenance()
    print("# e2e " + " ".join(f"{k}={v}" for k, v in info.items()), flush=True)
    results: dict[str, Any] = {}
    all_correct = True
    for workload in chosen:
        result = {}
        for name in phases:
            run_phase = timed_phase if name == "timed" else traced_phase
            result[name] = run_phase(workload, args.seed, seconds, args.passes, checked_against)
            report(workload, name, result[name], units)
        metrics = {k: v for data in result.values() for k, v in data["metrics"].items()}
        missing = [name for name in listed if name not in metrics]
        if missing:
            warn(f"  MISSING: [{workload}] metrics {missing}")
        attempted = sum(data["attempted"] for data in result.values())
        failed = sum(data["failed"] for data in result.values())
        correct = failed == 0 and not missing
        all_correct &= correct
        results[workload] = {**result, "correct": correct, "attempted": attempted,
                             "failed": failed}
        if workload == chosen[-1]:
            info.update(loadavg_after=list(os.getloadavg()), wall_s=time.monotonic() - start)
            print(f"# e2e loadavg_after={info['loadavg_after']} wall_s={info['wall_s']:.2f}")
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name]["value"], "unit": units[name]}
                for name in listed if name in metrics
            },
        }), flush=True)

    if args.update_expected:
        # Every seed keeps its digest; the first seed also keeps its
        # fields, so a physics change prints what moved at --seed N.
        for workload, result in results.items():
            for name in phases:
                for record in result[name]["passes"]:
                    if not record["problems"]:
                        entry = {"digest": record["digest"]}
                        if record["seed"] == args.seed:
                            entry["fields"] = record["fields"]
                        expected.setdefault(workload, {})[str(record["seed"])] = entry
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    if args.out:
        for result in results.values():
            for name in phases:
                for record in result[name]["passes"] + [result[name].get("traced") or {}]:
                    record.pop("fields", None)
        Path(args.out).write_text(json.dumps(
            {"provenance": info, "seed": args.seed, "seconds": seconds,
             "phases": list(phases), "workloads": results},
            indent=1,
        ) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
