"""Per-layer attribution of one pass, collected from outside the program.

Nothing here edits ``repro``: the probe patches a handful of public
classes for the duration of a pass and restores them afterwards.

* Constructors of :class:`Environment`, :class:`UctWorker`,
  :class:`PcieLink` and :class:`Fabric` are wrapped to register every
  instance a pass builds, so their public counters can be summed after
  it.  ``Environment.on_event`` is set *after* the original constructor
  runs, because the constructor itself resets it to ``None``.
* ``UctWorker.progress`` and ``CpuCore.execute`` are wrapped by
  delegating generators that count calls; ``Dllp`` construction in the
  PCIe link is counted the same way.
* :func:`host_fractions` groups a cProfile of the pass by the
  ``repro/<subpackage>/`` each function lives in.

With ``full=False`` only environments are registered (enough for the
executed-event count of an untraced pass, at one list append per
environment).
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any

from repro.cpu.core import CpuCore
from repro.llp.uct import UctWorker
from repro.network.fabric import Fabric
from repro.pcie import link as pcie_link
from repro.pcie.link import Direction, PcieLink
from repro.sim.engine import Environment, Event, Timeout

#: The layers host time and callbacks are attributed to; every other
#: ``repro`` subpackage, library code and the interpreter count as ``other``.
LAYERS = (
    "sim", "cpu", "hlp", "llp", "transport", "pcie", "nic", "network",
    "collectives", "bench", "analysis", "campaign",
)
CALLBACK_LAYERS = ("pcie", "nic", "network", "transport")
HARNESS = "harness"
_HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = os.sep + "repro" + os.sep


def layer_of(filename: str) -> str:
    """The layer a source file belongs to."""
    if os.path.dirname(os.path.abspath(filename)) == _HARNESS_DIR:
        return HARNESS
    at = filename.rfind(_REPRO_MARK)
    if at < 0:
        return "other"
    package = filename[at + len(_REPRO_MARK):].split(os.sep, 1)[0]
    return package if package in LAYERS else "other"


def host_fractions(stats: dict) -> dict[str, float]:
    """Share of profiled self time per layer, harness frames excluded.

    ``stats`` is ``pstats.Stats(profile).stats``.  Built-in functions
    (file ``~``) have no file of their own, so their self time is
    charged to the callers' layers in proportion to each call edge.
    """
    totals: Counter[str] = Counter()
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, callers) in stats.items():
        if filename == "~":
            for caller, edge in callers.items():
                totals[layer_of(caller[0]) if caller[0] != "~" else "other"] += edge[2]
        else:
            totals[layer_of(filename)] += tottime
    totals.pop(HARNESS, None)
    grand = sum(totals.values())
    return {layer: totals[layer] / grand for layer in (*LAYERS, "other")}


class LayerProbe:
    """Registers simulator objects and counts per-layer work for a pass."""

    def __init__(self, full: bool) -> None:
        self.full = full
        self.envs: list[Environment] = []
        self.workers: list[UctWorker] = []
        self.links: list[PcieLink] = []
        self.fabrics: list[Fabric] = []
        self.process_events = 0
        self.timeouts = 0
        self.callbacks: Counter[str] = Counter()
        self.execute_calls = 0
        self.progress_calls = 0
        self.empty_progress_calls = 0
        self.dllps = 0
        self._callback_layer: dict[Any, str] = {}
        self._saved: list[tuple[Any, str, Any]] = []

    # -- patching -------------------------------------------------------------
    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _register(self, cls: type, registry: list, hook: bool = False) -> None:
        original = cls.__init__
        probe = self

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            registry.append(obj)
            if hook:
                obj.on_event = probe._on_event

        self._patch(cls, "__init__", __init__)

    def __enter__(self) -> "LayerProbe":
        self._register(Environment, self.envs, hook=self.full)
        if not self.full:
            return self
        self._register(UctWorker, self.workers)
        self._register(PcieLink, self.links)
        self._register(Fabric, self.fabrics)
        probe = self
        progress = UctWorker.progress
        execute = CpuCore.execute
        dllp = pcie_link.Dllp

        def counted_progress(worker):
            probe.progress_calls += 1
            events = yield from progress(worker)
            if events == 0:
                probe.empty_progress_calls += 1
            return events

        def counted_execute(core, segment, mean=None):
            probe.execute_calls += 1
            return (yield from execute(core, segment, mean))

        def counted_dllp(*args, **kwargs):
            probe.dllps += 1
            return dllp(*args, **kwargs)

        self._patch(UctWorker, "progress", counted_progress)
        self._patch(CpuCore, "execute", counted_execute)
        self._patch(pcie_link, "Dllp", counted_dllp)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _on_event(self, when: float, item: Any) -> None:
        if isinstance(item, Event):
            self.process_events += 1
            if isinstance(item, Timeout):
                self.timeouts += 1
            return
        func = getattr(item, "__func__", item)
        code = getattr(func, "__code__", None)
        layer = self._callback_layer.get(code)
        if layer is None:
            layer = layer_of(code.co_filename) if code is not None else "other"
            self._callback_layer[code] = layer
        self.callbacks[layer] += 1

    # -- results ----------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        return sum(env.events_executed for env in self.envs)

    def metrics(self) -> dict[str, float]:
        """Per-layer counts of the pass (``full`` probes only)."""
        executed = self.events_executed
        links = [stats for fabric in self.fabrics for stats in fabric.link_stats().values()]
        metrics = {
            "sim.events_executed": executed,
            "sim.events_fast_forwarded": sum(env.events_fast_forwarded for env in self.envs),
            "sim.timeouts": self.timeouts,
            "sim.process_events": self.process_events,
            "sim.callbacks": sum(self.callbacks.values()),
            "cpu.execute_calls": self.execute_calls,
            "llp.progress_calls": self.progress_calls,
            "llp.progress_empty_frac": (
                self.empty_progress_calls / self.progress_calls if self.progress_calls else 0.0
            ),
            "llp.busy_posts": sum(
                iface.busy_posts for worker in self.workers for iface in worker.ifaces
            ),
            "pcie.tlps": sum(sum(link.tlps_delivered.values()) for link in self.links),
            "pcie.dllps": self.dllps,
            "pcie.credit_stalls": sum(
                link.credit_stalls(direction) for link in self.links for direction in Direction
            ),
            "network.frames": sum(fabric.frames_delivered for fabric in self.fabrics),
            "network.peak_inflight": max((s["peak_inflight"] for s in links), default=0),
        }
        for layer in CALLBACK_LAYERS:
            metrics[f"{layer}.callbacks"] = self.callbacks[layer]
        return metrics
