"""The poll pump: empty progress passes as callback-tier entries.

UCX busy-polls because "the polling approach is latency-oriented" (§2),
so a rank waiting on a message spends most of its simulated life in
passes that find nothing: ``ucp_prog_body`` (UCP shape only), a peek at
every rail's CQ and the AM mailbox, ``llp_prog_empty``, repeat.  Run
through the generator stack, each of those segments is a Process-tier
:class:`~repro.sim.engine.Timeout` resumed through four or five nested
generator frames.

The pump runs the same passes on the callback tier.  Each
:class:`Timeout` an empty pass would schedule is replaced by exactly
one calendar entry at the same time, pushed from the same entry, so
every entry keeps its ``(time, priority, insertion)`` position.  At
each instant where the generator loop would test its condition or
poll, the pump does the same:

- it evaluates the loop's own condition, and peeks (without dequeuing)
  every rail's CQ and the AM mailbox;
- if nothing changed, it charges the next segment through
  :meth:`~repro.cpu.core.CpuCore.charge` (the accounting
  :meth:`~repro.cpu.core.CpuCore.execute` uses, same RNG stream, same
  order) and pushes the next entry;
- if something changed, it resumes the waiting process inside its own
  entry (:meth:`~repro.sim.engine.Environment.fire_inline`), and the
  ordinary pass code runs the non-empty pass from that point on.

One primitive, :func:`spin`, covers both pass shapes:

- the UCT shape (``uct_worker_progress``): poll, then ``llp_prog_empty``;
- the UCP shape (``ucp_worker_progress``): a *head* (``ucp_prog_body``),
  then a poll, then ``llp_prog_empty``.

The pump only replaces passes whose every step is accounted above.  A
:class:`~repro.llp.profiling.UcsProfiler` measuring ``llp_prog`` or
``ucp_worker_progress`` reads the virtual timer inside each pass — real
simulated work — so such spins run the generator loop instead
(:func:`pumpable`); that loop is also the reference the tests compare
the pump against.  The profiler's configuration is set before a run
starts and is read once per spin.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import TYPE_CHECKING, Any

from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.llp.profiling import UcsProfiler
    from repro.llp.uct import UctWorker

__all__ = ["DONE", "WORK", "pumpable", "spin"]

#: :func:`spin` outcome: the loop's condition held at a test.
DONE = True
#: :func:`spin` outcome: a poll found work; the caller finishes the pass.
WORK = False

# Where a pass stands at an entry boundary.
_TEST, _HEAD, _POLL = 0, 1, 2


def pumpable(profiler: "UcsProfiler", *regions: str) -> bool:
    """Whether passes may run on the pump: none of ``regions`` is measured."""
    return not any(profiler.is_active(region) for region in regions)


class _Spin:
    """One spin of a progress loop: its waiting process and its position."""

    __slots__ = ("env", "worker", "cpu", "done", "head", "ready", "waiter", "phase")

    def __init__(
        self,
        worker: "UctWorker",
        done: Callable[[], bool] | None,
        head: Callable[[], float] | None,
        ready: Callable[[], bool] | None,
    ) -> None:
        self.env = worker.node.env
        self.worker = worker
        self.cpu = worker.cpu
        self.done = done
        self.head = head
        self.ready = ready
        #: The event the spinning process waits on; a process that stops
        #: waiting (interrupted) removes itself from its callbacks.
        self.waiter = Event(self.env)
        self.phase = _HEAD if head is not None else _POLL

    def advance(self) -> bool | None:
        """Run pass steps inside the current entry.

        Returns :data:`DONE` or :data:`WORK`, or ``None`` once a segment
        with a positive duration has been charged and its end pushed as
        the next entry.  A zero-duration segment continues inside the
        same entry, as :meth:`CpuCore.execute` does.
        """
        worker = self.worker
        head = self.head
        phase = self.phase
        while True:
            if phase == _POLL:
                ready = self.ready
                if (ready is not None and ready()) or worker.has_work():
                    return WORK
                worker.progress_calls += 1
                worker.empty_progress_calls += 1
                tracer = self.env.tracer
                if tracer.enabled:
                    tracer.counter("llp", "empty_progress_calls")
                duration = self.cpu.charge("llp_prog_empty")
                phase = _TEST
            elif phase == _TEST:
                done = self.done
                if done is not None and done():
                    return DONE
                phase = _POLL if head is None else _HEAD
                continue
            else:
                assert head is not None
                duration = head()
                phase = _POLL
            if duration > 0:
                self.phase = phase
                self.env.defer(self.fire, duration)
                return None

    def fire(self) -> None:
        """The calendar entry ending the segment :meth:`advance` charged."""
        waiter = self.waiter
        if not waiter.callbacks:
            # The process stopped waiting: a no-op, like the Timeout a
            # generator loop would have left orphaned.
            return
        outcome = self.advance()
        if outcome is not None:
            self.env.fire_inline(waiter, outcome)


def spin(
    worker: "UctWorker",
    done: Callable[[], bool] | None,
    head: Callable[[], float] | None = None,
    ready: Callable[[], bool] | None = None,
) -> Generator[Event, Any, bool]:
    """Run empty passes on the pump, starting right after a loop test.

    ``done`` is the loop's condition, tested between passes (``None``:
    never — spin until a poll finds work).  ``head`` charges the UCP
    shape's pass head and returns its duration; ``ready`` is an extra
    peek taken before the CQ/mailbox peek (UCP's pended-send re-post
    check).  Returns :data:`DONE` at the first test that holds, or
    :data:`WORK` at the first poll that would find something — the
    caller then finishes that pass with the ordinary pass code.
    """
    state = _Spin(worker, done, head, ready)
    outcome = state.advance()
    if outcome is None:
        return (yield state.waiter)
    return outcome
