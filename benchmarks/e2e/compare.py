"""Compare two sets of benchmark runs: did the change move anything?

    python benchmarks/e2e/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is the ``--out`` of one ``run.py --phase timed`` run.  The
i-th base file and the i-th new file form a pair; make them in
alternating order (A B, B A, A B, ...) so drift in the host's load lands
on both sides.  For every workload and end-to-end metric of
``BENCHMARK.json`` this prints each side's median and quartiles, the
share of pairs the new side won (ties count for neither) and a verdict:

``improved``
    the new side won at least 90% of the pairs and the medians differ,
    in its favour, by more than the base runs' own interquartile range;
``regressed``
    the new median is worse by more than the metric's bound, and either
    both sides' spreads fit within the bound or every new run is worse
    than every base run;
``unresolved``
    the spread of the runs is wider than the bound and the two sides
    overlap, so the runs cannot tell;
``within bound``
    otherwise.

It also requires equal output digests wherever both sides ran the same
workload at the same seed, and no more failed passes on the new side.
Exit status 1 on any regression, digest mismatch or extra failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from run import quartiles

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Share of pairs the new side must win before a gain is claimed.
WIN_SHARE = 0.9


def verdict(base: list[float], new: list[float], better: str, bound: float
            ) -> tuple[str, int]:
    """(verdict, pairs won by the new side) for one workload and metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(base, new) if sign * (b - a) > 0)
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    worse = sign * (b_med - n_med) / b_med
    spread = max((b_q3 - b_q1) / b_med, (n_q3 - n_q1) / n_med)
    all_better = all(sign * (b - a) > 0 for a in base for b in new)
    all_worse = all(sign * (b - a) < 0 for a in base for b in new)
    pairs = min(len(base), len(new))
    if wins >= WIN_SHARE * pairs and worse < 0 and abs(n_med - b_med) > b_q3 - b_q1:
        return "improved", wins
    if worse > bound and (spread <= bound or all_worse):
        return "regressed", wins
    if spread > bound and not all_better:
        return "unresolved", wins
    return "within bound", wins


def digests(runs: list[dict]) -> dict[tuple[str, int], set[str]]:
    """Every output digest the runs recorded, by (workload, seed)."""
    found: dict[tuple[str, int], set[str]] = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            for phase in ("timed", "traced"):
                data = result.get(phase) or {}
                for record in data.get("passes", []) + [data.get("traced") or {}]:
                    if "digest" in record:
                        found.setdefault((workload, record["seed"]), set()).add(record["digest"])
    return found


def compare(base: list[dict], new: list[dict], spec: dict) -> tuple[list[str], list[str]]:
    """(report lines, problems) for two sets of runs."""
    lines = [f"{len(base)} base runs, {len(new)} new runs"]
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        # The i-th base and i-th new run of this workload form a pair.
        results = [[run["workloads"][workload] for run in runs if workload in run["workloads"]]
                   for runs in (base, new)]
        if not all(results):
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = [
                [r["timed"]["metrics"][name]["value"] for r in side
                 if name in r.get("timed", {}).get("metrics", {})]
                for side in results
            ]
            if not all(sides):
                lines.append(f"{workload:13s} {name:12s} not measured on both sides")
                continue
            result, wins = verdict(*sides, metric["better"], metric["bound"])
            (b_q1, b_med, b_q3), (n_q1, n_med, n_q3) = map(quartiles, sides)
            lines.append(
                f"{workload:13s} {name:12s} base {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]  "
                f"new {n_med:.6g} [{n_q1:.6g}, {n_q3:.6g}] {metric['unit']}  "
                f"{(n_med - b_med) / b_med:+.2%}  won {wins}/{min(map(len, sides))}  "
                f"bound {metric['bound']:.0%}  {result}"
            )
            if result == "regressed":
                problems.append(f"{workload} {name} regressed")
        failed = [sum(r["failed"] for r in side) for side in results]
        lines.append(f"{workload:13s} failed passes: base {failed[0]}, new {failed[1]}")
        if failed[1] > failed[0]:
            problems.append(f"{workload}: {failed[1]} failed passes vs {failed[0]}")
    base_digests, new_digests = digests(base), digests(new)
    for side, found in (("base", base_digests), ("new", new_digests)):
        for (workload, seed), values in sorted(found.items()):
            if len(values) > 1:
                problems.append(f"{side} runs disagree on {workload} seed {seed}: {sorted(values)}")
    shared = sorted(set(base_digests) & set(new_digests))
    for key in shared:
        if base_digests[key] != new_digests[key]:
            problems.append(f"digest mismatch on {key[0]} seed {key[1]}: "
                            f"base {sorted(base_digests[key])}, new {sorted(new_digests[key])}")
    lines.append(f"digests compared at {len(shared)} (workload, seed) points")
    return lines, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="run.py --out files of the parent")
    parser.add_argument("--new", nargs="+", required=True, help="run.py --out files of the change")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    try:
        base, new = ([json.loads(Path(p).read_text()) for p in paths]
                     for paths in (args.base, args.new))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines, problems = compare(base, new, spec)
    print("\n".join(lines))
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
