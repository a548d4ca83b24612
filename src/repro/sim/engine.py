"""The simulation kernel.

:class:`Environment` owns the simulation clock and the event heap and
drives process execution.  The structure mirrors CSIM's scheduler (the
engine the paper's MultiSim simulator runs on): events are processed in
``(time, priority, insertion order)`` order, so simultaneous events are
deterministic — essential for reproducible experiments.

Fast paths
----------
The run loop is allocation-free for the model's hot operations:

* :meth:`Environment.hold` / :meth:`Environment.hold_until` suspend the
  active process on its reusable hold marker — no ``Timeout`` object,
  no callback list, no event bookkeeping;
* :meth:`Environment.timeout` recycles ``Timeout`` objects from a pool
  once the loop proves (by reference count) that nothing else can
  observe them;
* the :meth:`run` loop pops and dispatches heap entries inline — no
  per-event ``peek()``/``step()`` calls, no property lookups — with the
  cyclic garbage collector paused: the simulator builds no reference
  cycles, so reference counting alone frees what a run discards.

All fast paths preserve the exact ``(time, priority, insertion order)``
event semantics of the straightforward kernel; pass ``fastpath=False``
to force the reference behaviour (used by the golden-trace equivalence
tests).  See ``docs/performance.md`` for the invariants.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from itertools import count
from sys import getrefcount
from typing import Any, Dict, Generator, Iterable, Optional

from repro.obs.simprof import SimProfile
from repro.sim.event import AllOf, AnyOf, Event, Timeout
from repro.sim.process import HOLD, Process, _HoldEntry

__all__ = ["Environment", "SimulationError"]

#: Default event priority.  Lower values are processed first among
#: events scheduled for the same time.
NORMAL = 1
#: Priority used for urgent bookkeeping events (process resumption).
URGENT = 0

#: Upper bound on pooled ``Timeout`` objects per environment.
_TIMEOUT_POOL_MAX = 256


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0.0``).
    fastpath:
        Enable the zero-allocation kernel fast paths (default).  The
        observable event order is identical either way; ``False`` exists
        for the equivalence tests that prove exactly that.

    Examples
    --------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(3.0)
    ...     return "done"
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> env.now
    3.0
    >>> p.value
    'done'
    """

    def __init__(self, initial_time: float = 0.0, fastpath: bool = True):
        self._now = float(initial_time)
        self._heap: list = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        self._fastpath = bool(fastpath)
        self._timeout_pool: list = []
        # Processes not yet finished, in creation order (a dict as an
        # ordered set): what close() abandons.
        self._live: Dict[Process, None] = {}
        # Always-on kernel counters (observers only — nothing in the
        # kernel reads them back, so they cannot perturb event order).
        self._profile = SimProfile()

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def fastpath(self) -> bool:
        """Whether the zero-allocation fast paths are enabled."""
        return self._fastpath

    def profile(self) -> Dict[str, Any]:
        """Snapshot of the kernel profiling counters.

        Events dispatched by category (holds / timeouts / other),
        heap high-water mark, timeout-pool hit rate, channel wait
        time and the wormhole batched-vs-fallback ratio; see
        :class:`~repro.obs.simprof.SimProfile` for the field list.
        """
        return self._profile.as_dict()

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        pool = self._timeout_pool
        if pool:
            self._profile.timeout_pool_hits += 1
            timeout = pool.pop()
            timeout._reuse(delay, value)
            return timeout
        self._profile.timeout_pool_misses += 1
        return Timeout(self, delay, value)

    def hold(self, delay: float):
        """Suspend the active process for ``delay`` — the fast timeout.

        Semantically identical to ``yield env.timeout(delay)`` from
        inside a process (same heap time arithmetic, same priority, one
        insertion-order ticket) but allocation-free: the process's
        reusable hold marker goes on the heap and the run loop resumes
        the generator directly.  The returned sentinel must be yielded
        immediately.  Outside a process (or with ``fastpath=False``) it
        degrades to a regular :class:`Timeout`.
        """
        process = self._active_process
        if process is None or not self._fastpath:
            return self.timeout(delay)
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        hold = process._hold
        hold.eid = eid = next(self._eid)
        hold.active = True
        heappush(self._heap, (self._now + delay, NORMAL, eid, hold))
        return HOLD

    def hold_until(self, when: float):
        """Suspend the active process until the absolute time ``when``.

        Unlike ``hold(when - now)`` this schedules the exact ``when``
        value with no float round-trip — the primitive the hop-batched
        wormhole walk uses to land on iteratively accumulated per-hop
        times bit-for-bit.
        """
        if when < self._now:
            raise ValueError(f"hold_until({when}) is in the past (now={self._now})")
        process = self._active_process
        if process is None or not self._fastpath:
            return self.timeout(when - self._now)
        hold = process._hold
        hold.eid = eid = next(self._eid)
        hold.active = True
        heappush(self._heap, (when, NORMAL, eid, hold))
        return HOLD

    def process(self, generator: Generator) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all ``events`` have triggered."""
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` has triggered."""
        return AnyOf(self, list(events))

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Put a triggered event on the heap (kernel internal)."""
        heappush(self._heap, (self._now + delay, priority, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process the next event on the heap."""
        if not self._heap:
            raise SimulationError("step() on an empty event heap")
        prof = self._profile
        if len(self._heap) > prof.heap_peak:
            prof.heap_peak = len(self._heap)
        when, _prio, eid, event = heappop(self._heap)
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("event scheduled in the past")
        self._now = when
        if event.__class__ is _HoldEntry:
            prof.holds += 1
            if event.active and event.eid == eid:
                event.active = False
                event.process._advance(False, None)
            return  # else: stale marker of an interrupted hold
        if event.__class__ is Timeout:
            prof.timeouts += 1
        else:
            prof.events += 1
        if not event._triggered:  # pragma: no cover - defensive
            return  # stale entry of a process that was preempted
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive
            raise SimulationError("event processed twice")
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failed event nobody handled: surface the error instead of
            # silently continuing with a corrupted simulation.
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the event heap is exhausted;
            a number
                run until the clock reaches that time;
            an :class:`Event`
                run until that event is processed, returning its value.

        Notes
        -----
        The cyclic garbage collector is paused for the length of the
        loop (if it was enabled) and re-enabled on the way out, also
        when the model raises.  Otherwise it would re-scan the whole
        live simulation every few hundred allocations.  The pause is
        safe because the kernel, the network and the executors build
        no reference cycles, so reference counting frees every
        finished worm at once.  A model that does build cycles keeps
        that garbage until ``run`` returns.  :meth:`step` never touches
        the collector.
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until={stop_time} is in the past (now={self._now})"
                )

        # Inlined event loop: one heap pop per event, hold markers and
        # timeout recycling handled in place.  Mirrors step() exactly.
        heap = self._heap
        pool = self._timeout_pool
        pooling = self._fastpath
        prof = self._profile
        bounded = stop_time != float("inf")
        # Profile counters live in locals for the duration of the loop
        # (STORE_FAST, not STORE_ATTR on a slotted object) and are
        # folded back once on exit; the heap high-water mark is sampled
        # on every 64th event id, which keeps the hot loop at one cheap
        # int test per dispatch.  See SimProfile for the accuracy
        # contract this buys.
        holds = timeouts = others = 0
        peak = prof.heap_peak
        collecting = gc.isenabled()
        if collecting:
            gc.disable()
        try:
            while heap:
                if stop_event is not None and stop_event.callbacks is None:
                    break
                if bounded and heap[0][0] > stop_time:
                    self._now = stop_time
                    break
                when, _prio, eid, event = heappop(heap)
                if not eid & 63:
                    size = len(heap)
                    if size >= peak:
                        peak = size + 1  # include the entry just popped
                if when < self._now:  # pragma: no cover - defensive
                    raise SimulationError("event scheduled in the past")
                self._now = when
                if event.__class__ is _HoldEntry:
                    holds += 1
                    if event.active and event.eid == eid:
                        event.active = False
                        event.process._advance(False, None)
                    continue
                if not event._triggered:  # pragma: no cover - defensive
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks is None:  # pragma: no cover - defensive
                    raise SimulationError("event processed twice")
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
                if event.__class__ is Timeout:
                    timeouts += 1
                    if (
                        pooling
                        and getrefcount(event) == 2  # only this loop sees it
                        and len(pool) < _TIMEOUT_POOL_MAX
                    ):
                        pool.append(event)
                else:
                    others += 1
            else:
                if bounded:
                    self._now = stop_time
        finally:
            if collecting:
                gc.enable()
            prof.holds += holds
            prof.timeouts += timeouts
            prof.events += others
            prof.heap_peak = peak

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run(until=event) finished before the event triggered"
                )
            if not stop_event.ok:
                stop_event.defuse()
                raise stop_event.value  # type: ignore[misc]
            return stop_event.value
        return None

    def close(self) -> None:
        """Abandon the rest of the simulation.

        Every process that has not finished has its generator closed
        (in creation order), so it sees ``GeneratorExit`` at its
        current ``yield`` and runs its cleanup.  Then every pending
        heap entry and every pooled timeout is dropped.  Processes
        left suspended would otherwise stay in reference cycles
        through the heap and the events they wait on.  Call it once
        the model's results have been read; the clock keeps its value.
        """
        if self._active_process is not None:
            raise SimulationError("close() called from inside a process")
        live = self._live
        while live:  # a cleanup handler may start another process
            for process in list(live):
                process._abandon()  # unregisters it
        self._heap.clear()
        self._timeout_pool.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Environment t={self._now} pending={len(self._heap)}>"
