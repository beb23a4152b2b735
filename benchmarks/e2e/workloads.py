"""The benchmark's four workloads, driven through public entry points only.

Each workload turns a seed into one pass of simulator work on the noisy
paper testbed and reduces what the simulator produced to ``outputs``: a
flat dict of simulated values (numbers, strings, or float arrays).
A change meant only to make the simulator faster must leave every one
of them bit-identical, so :func:`digest` over ``outputs`` is the
benchmark's correctness gate.  Three keys are common to all workloads:

``units``
    units of work the pass completed (the throughput numerator);
``sim_ns``
    the pass's headline simulated time;
``model_error_pct``
    the worst |model - simulated| / simulated, in percent.

Why these four: ``inject_ff`` is dominated by the analytic fast-forward
tier and barely touches the event calendar; ``inject_sweep`` is short
replayed put_bw points where the PCIe/NIC callback tiers dominate;
``ring64`` is a 64-rank allreduce whose calendar is mostly empty poll
timeouts; ``methodology`` is the full §§3-6 reproduction users run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.analysis import measure_component_times
from repro.bench import run_put_bw
from repro.campaign import CampaignSpec, SweepAxis, run_campaign
from repro.collectives.workloads import allreduce_workload
from repro.core.components import ComponentTimes
from repro.core.models import (
    EndToEndLatencyModel,
    InjectionModelLlp,
    LatencyModelLlp,
    OverallInjectionModel,
)
from repro.node import SystemConfig

#: The paper's validation margin.
MARGIN_PCT = 5.0

FF_MESSAGES = 100_000
SWEEP_DEPTHS = (2, 8, 32, 128)
SWEEP_PARAMS = {"n_messages": 400, "warmup": 150}
#: The TxQ depth Eq. 1 describes (the NIC default).
MODEL_DEPTH = 128
RING_NODES = 64
RING_STEPS = 2 * (RING_NODES - 1)
#: Slowest plausible allreduce, as a multiple of the zero-load model.
RING_SLOWEST = 2.0


@dataclass(frozen=True)
class Workload:
    """One named workload: how to run a pass and how to check it."""

    name: str
    #: What one unit of ``units_per_s`` is.
    unit: str
    run: Callable[[int], dict[str, Any]]
    #: Seed-independent invariants; returns the violated ones.
    problems: Callable[[dict[str, Any]], list[str]]


def canonical_json(value: Any) -> str:
    """Key-sorted JSON; Python's encoder writes floats with ``repr``.

    Arrays are converted here, outside the timed pass.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)


def digest(outputs: dict[str, Any]) -> str:
    """sha256 of a pass's simulated outputs."""
    return hashlib.sha256(canonical_json(outputs).encode()).hexdigest()


def fields(outputs: dict[str, Any]) -> dict[str, Any]:
    """``outputs`` with each array replaced by its digest, for diffing."""
    return {
        key: "sha256:" + hashlib.sha256(canonical_json(value).encode()).hexdigest()[:16]
        if isinstance(value, np.ndarray)
        else value
        for key, value in outputs.items()
    }


def _flatten(prefix: str, mapping: dict[str, Any]) -> dict[str, Any]:
    return {f"{prefix}.{key}": value for key, value in mapping.items()}


def _eq1_error_pct(simulated_ns: float) -> float:
    predicted = InjectionModelLlp(ComponentTimes.paper()).predicted_ns
    return abs(predicted - simulated_ns) / simulated_ns * 100.0


def run_inject_ff(seed: int) -> dict[str, Any]:
    result = run_put_bw(config=SystemConfig.paper_testbed(seed=seed), n_messages=FF_MESSAGES)
    mean = result.mean_injection_overhead_ns
    outputs = {
        "n_measured": result.n_measured,
        "busy_posts": result.busy_posts,
        "total_ns": result.total_ns,
        "final_clock_ns": result.testbed.env.now,
        "injection_overheads_ns": result.observed_injection_overheads_ns,
        "units": result.n_measured,
        "sim_ns": mean,
        "model_error_pct": _eq1_error_pct(mean),
    }
    for segment, account in sorted(result.testbed.initiator.cpu.accounts.items()):
        outputs[f"cpu.{segment}.count"] = account.count
        outputs[f"cpu.{segment}.total_ns"] = account.total_ns
    return outputs


def inject_ff_problems(outputs: dict[str, Any]) -> list[str]:
    if outputs["n_measured"] != FF_MESSAGES:
        return [f"n_measured {outputs['n_measured']} != {FF_MESSAGES}"]
    return []


def run_inject_sweep(seed: int) -> dict[str, Any]:
    spec = CampaignSpec(
        name="e2e-inject-sweep",
        workload="put_bw",
        base_config=SystemConfig.paper_testbed(seed=seed),
        axes=(SweepAxis("nic.txq_depth", SWEEP_DEPTHS),),
        params=SWEEP_PARAMS,
        seeds=(seed, seed + 1),
    )
    result = run_campaign(spec, jobs=1)
    outputs: dict[str, Any] = {"failed_points": len(result.failures)}
    for record in result.records:
        label = f"txq{record.config_overrides['nic.txq_depth']}.seed{record.seed}"
        outputs[f"{label}.status"] = record.status
        outputs.update(_flatten(label, record.measurements))
    means = result.values("mean_injection_overhead_ns")
    at_model_depth = [
        value
        for depth, value in result.rows("nic.txq_depth", "mean_injection_overhead_ns")
        if depth == MODEL_DEPTH
    ]
    outputs.update(
        units=sum(result.values("n_measured")),
        sim_ns=sum(means) / len(means) if means else 0.0,
        model_error_pct=max((_eq1_error_pct(v) for v in at_model_depth), default=0.0),
    )
    return outputs


def inject_sweep_problems(outputs: dict[str, Any]) -> list[str]:
    found = []
    if outputs["failed_points"]:
        found.append(f"{outputs['failed_points']} campaign points failed")
    for key, value in outputs.items():
        if key.endswith(".n_measured") and value != SWEEP_PARAMS["n_messages"]:
            found.append(f"{key} {value} != {SWEEP_PARAMS['n_messages']}")
    return found


def run_ring64(seed: int) -> dict[str, Any]:
    result = allreduce_workload(
        SystemConfig.paper_testbed(seed=seed),
        algorithm="ring",
        n_nodes=RING_NODES,
        topology="fat_tree:4",
    )
    return {
        **result,
        "units": result["iterations"],
        "sim_ns": result["time_per_iteration_ns"],
        "model_error_pct": result["model_error"] * 100.0,
    }


def ring64_problems(outputs: dict[str, Any]) -> list[str]:
    """126 steps, and a time between 0.95x and 2x the zero-load model.

    The recurrence is a floor: OS-noise outliers on the critical path
    only add time, and their Pareto tail pushes some seeds past the
    paper's 5% (seed 3336 lands at +7.65%), so only the floor gets the
    5% margin.  The default seeds are pinned exactly by expected.json.
    """
    found = []
    if outputs["steps"] != RING_STEPS:
        found.append(f"steps {outputs['steps']} != {RING_STEPS}")
    ratio = outputs["time_per_iteration_ns"] / outputs["model_ns"]
    if not 1.0 - MARGIN_PCT / 100.0 <= ratio <= RING_SLOWEST:
        found.append(f"allreduce took {ratio:.4f}x the zero-load ring model")
    return found


#: The paper's four model-vs-observation checks (§4.2, §4.3, §6).
VALIDATIONS = {
    "eq1_injection": (InjectionModelLlp, "llp_injection_overhead"),
    "llp_latency": (LatencyModelLlp, "llp_latency"),
    "eq2_injection": (OverallInjectionModel, "overall_injection_overhead"),
    "e2e_latency": (EndToEndLatencyModel, "end_to_end_latency"),
}


def run_methodology(seed: int) -> dict[str, Any]:
    campaign = measure_component_times(SystemConfig.paper_testbed(seed=seed), quick=False)
    times = campaign.to_component_times()
    outputs: dict[str, Any] = {}
    for group in ("llp", "hlp", "hardware", "send_progress", "observed"):
        outputs.update(_flatten(group, getattr(campaign, group)))
    outputs.update(_flatten("injection", dataclasses.asdict(campaign.injection_distribution)))
    outputs.update(_flatten("times", dataclasses.asdict(times)))
    errors = []
    for check, (model, observed_key) in VALIDATIONS.items():
        modeled = model(times).predicted_ns
        observed = campaign.observed[observed_key]
        error_pct = abs(modeled - observed) / observed * 100.0
        errors.append(error_pct)
        outputs[f"validation.{check}.modeled_ns"] = modeled
        outputs[f"validation.{check}.error_pct"] = error_pct
    outputs.update(
        units=1,
        sim_ns=campaign.observed["end_to_end_latency"],
        model_error_pct=max(errors),
    )
    return outputs


def paper_metrics(outputs: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """The methodology's re-measured Table 1 and validation errors, by name.

    Empty for the other workloads.  ``mem_read`` is left out: the
    methodology never measures it.
    """
    metrics = {}
    for key, value in outputs.items():
        parts = key.split(".")
        if parts[0] == "times" and parts[1] != "mem_read":
            metrics[f"paper.{parts[1]}_ns"] = {"value": value, "unit": "ns"}
        elif parts[0] == "validation" and parts[-1] == "error_pct":
            metrics[f"paper.{parts[1]}_error_pct"] = {"value": value, "unit": "%"}
    return metrics


def methodology_problems(outputs: dict[str, Any]) -> list[str]:
    return [
        f"{check} model error {outputs[f'validation.{check}.error_pct']:.2f}% > {MARGIN_PCT}%"
        for check in VALIDATIONS
        if not outputs[f"validation.{check}.error_pct"] <= MARGIN_PCT
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("inject_ff", "measured message", run_inject_ff, inject_ff_problems),
        Workload("inject_sweep", "measured message", run_inject_sweep, inject_sweep_problems),
        Workload("ring64", "allreduce", run_ring64, ring64_problems),
        Workload("methodology", "full campaign", run_methodology, methodology_problems),
    )
}
