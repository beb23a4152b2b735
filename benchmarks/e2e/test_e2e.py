"""Self-test of the end-to-end benchmark; runs in well under a minute.

    python -m pytest benchmarks/e2e -q

Drives one pass of each of the two cheapest workloads through ``run.py``
(both phases), and unit-tests ``compare.py`` on synthetic runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DRIVEN = ("inject_sweep", "inject_ff")


@pytest.fixture(scope="module")
def driven(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "out.json"
    command = [sys.executable, str(HERE / "run.py"), "--passes", "1", "--seconds", "0",
               "--out", str(out)]
    for workload in DRIVEN:
        command += ["--workload", workload]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text())


def test_every_metric_is_printed_with_its_unit(driven):
    stdout, _ = driven
    results = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(DRIVEN)
    assert stdout.splitlines()[-1].startswith("{")
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            printed = result["metrics"][metric["name"]]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
        assert set(result["metrics"]) == {
            m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
        }


def test_digests_match_expected(driven):
    _, out = driven
    for workload in DRIVEN:
        result = out["workloads"][workload]
        records = [*result["timed"]["passes"], *result["traced"]["passes"],
                   result["traced"]["traced"]]
        assert [r["expected"] for r in records] == ["match"] * 3


def test_host_fractions_sum_to_one(driven):
    _, out = driven
    for workload in DRIVEN:
        metrics = out["workloads"][workload]["traced"]["metrics"]
        shares = [v["value"] for k, v in metrics.items() if k.startswith("host_frac.")]
        assert len(shares) == 13
        assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_traced_pass_equals_untraced(driven):
    _, out = driven
    for workload in DRIVEN:
        traced_phase = out["workloads"][workload]["traced"]
        (untraced,) = traced_phase["passes"]
        traced = traced_phase["traced"]
        assert traced["problems"] == []
        assert traced["digest"] == untraced["digest"]
        assert traced["layers"]["sim.events_executed"] == untraced["events_executed"]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "inject_ff"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "{" not in proc.stdout


# -- compare.py on synthetic runs ---------------------------------------------

#: Ten rates with a 2% spread, as a quiet host gives them.
RATES = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 101.2, 98.8, 100.0]


def synthetic_run(rate: float, digest: str = "d0") -> dict:
    metrics = {"units_per_s": rate, "setup_s": 0.1, "peak_rss_mb": 50.0}
    timed = {
        "metrics": {k: {"value": v} for k, v in metrics.items()},
        "passes": [{"seed": 2019, "digest": digest}],
    }
    return {"workloads": {w["name"]: {"timed": timed, "failed": 0} for w in SPEC["workloads"]}}


def run_compare(tmp_path, base: list[dict], new: list[dict], capsys) -> tuple[int, str]:
    paths = {}
    for side, runs in (("base", base), ("new", new)):
        paths[side] = []
        for index, run in enumerate(runs):
            path = tmp_path / f"{side}{index}.json"
            path.write_text(json.dumps(run))
            paths[side].append(str(path))
    code = compare.main(["--base", *paths["base"], "--new", *paths["new"]])
    return code, capsys.readouterr().out


def test_compare_flags_a_20_percent_slowdown(tmp_path, capsys):
    base = [synthetic_run(r) for r in RATES]
    new = [synthetic_run(r * 0.8) for r in RATES]
    code, out = run_compare(tmp_path, base, new, capsys)
    assert code == 1
    rows = [line for line in out.splitlines() if "bound " in line]
    slowed = [row for row in rows if " units_per_s " in row]
    assert len(slowed) == len(SPEC["workloads"])
    assert all(row.endswith("regressed") for row in slowed)
    assert all(row.endswith("within bound") for row in rows if row not in slowed)
    assert out.count("FAIL: ") == len(SPEC["workloads"])


def test_compare_identical_runs_are_within_bound(tmp_path, capsys):
    runs = [synthetic_run(r) for r in RATES]
    code, out = run_compare(tmp_path, runs, runs, capsys)
    assert code == 0
    verdicts = [line for line in out.splitlines() if "bound " in line]
    assert len(verdicts) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert all(line.endswith("within bound") for line in verdicts)


def test_compare_exits_1_on_a_digest_mismatch(tmp_path, capsys):
    base = [synthetic_run(r) for r in RATES]
    new = [synthetic_run(r, digest="d1") for r in RATES]
    code, out = run_compare(tmp_path, base, new, capsys)
    assert code == 1
    assert "digest mismatch" in out
