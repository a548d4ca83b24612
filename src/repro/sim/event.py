"""Simulation events.

An :class:`Event` is the unit of synchronisation between processes and
the :class:`~repro.sim.engine.Environment`.  Events move through three
states:

``pending``
    created but not yet triggered;
``triggered``
    given a value (or an exception) and scheduled on the event heap;
``processed``
    callbacks have run and waiting processes resumed.

The design follows the classic process-oriented kernel structure (CSIM,
simpy): processes ``yield`` events, and the kernel resumes them when the
event is processed.

Fast-path notes
---------------
The kernel's hot loop bypasses much of this machinery — see
``docs/performance.md``:

* ``env.hold(delay)`` resumes the active process straight off the heap
  with no :class:`Event` object at all;
* :class:`Timeout` objects are pooled and reused by the environment;
* an uncontended :class:`~repro.sim.resources.Request` carries a
  reserved heap sequence number (``_fast_eid``) instead of a scheduled
  grant event, letting the waiting process resume without a heap
  round-trip while preserving the exact ``(time, priority, order)``
  semantics of the slow path.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Environment

__all__ = ["Event", "Timeout", "Interrupt", "ConditionEvent", "AllOf", "AnyOf"]


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A single-shot synchronisation point.

    Parameters
    ----------
    env:
        The owning environment.

    Notes
    -----
    ``callbacks`` is a list of callables invoked (with the event) when the
    event is processed.  Once processed the list is replaced by ``None``
    so late registration is an error surfaced early.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_defused")

    _PENDING = object()

    #: Reserved heap order of a fast-granted resource request; ``None``
    #: for every other event (class default read through the slot-less
    #: fallback; :class:`~repro.sim.resources.Request` overrides it).
    _fast_eid: Optional[int] = None

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = Event._PENDING
        self._ok: bool = True
        self._triggered: bool = False
        self._defused: bool = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the heap."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is Event._PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        env = self.env
        heappush(env._heap, (env._now, 1, next(env._eid), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the
        event.  If nothing ever waits, the environment raises it at
        ``run()`` time instead of silently dropping it (unless the event
        was explicitly :meth:`defused <defuse>`).
        """
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self._triggered = True
        env = self.env
        heappush(env._heap, (env._now, 1, next(env._eid), self))
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another event (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event.defuse()
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True

    # -- waiting --------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed."""
        if self.callbacks is None:
            # Already processed: run immediately to preserve semantics for
            # late joiners (e.g. waiting on a finished process).
            callback(self)
        else:
            self.callbacks.append(callback)

    def __and__(self, other: "Event") -> "ConditionEvent":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "ConditionEvent":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed else "triggered" if self._triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after ``delay`` time units.

    Instances are pooled: when the kernel's run loop finishes processing
    a :class:`Timeout` that nothing else references, the object is
    recycled and handed out again by :meth:`Environment.timeout
    <repro.sim.engine.Environment.timeout>`.  The pool is invisible to
    well-behaved code — an object is only reused once its previous life
    is fully over and unreferenced.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._triggered = True
        self._defused = False
        self.delay = delay
        heappush(env._heap, (env._now + delay, 1, next(env._eid), self))

    def _reuse(self, delay: float, value: Any) -> None:
        """Re-arm a pooled instance (kernel internal)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.callbacks = []
        self.delay = delay
        self._ok = True
        self._value = value
        self._triggered = True
        self._defused = False
        env = self.env
        heappush(env._heap, (env._now + delay, 1, next(env._eid), self))


class ConditionEvent(Event):
    """Base for composite events over a set of sub-events.

    The result mapping is pre-built in declaration order at
    construction time and filled in as sub-events trigger, so firing
    never re-walks ``self.events``.

    Once the condition triggers, its ``_check`` is taken off every
    sub-event still pending (``_check`` would return at once anyway),
    so a pending sub-event — say a long ``Timeout`` raced by an
    ``AnyOf`` — and the condition do not keep each other alive.
    """

    __slots__ = ("events", "_count", "_total", "_values")

    def __init__(self, env: "Environment", events: List[Event]):
        super().__init__(env)
        self.events = list(events)
        self._count = 0
        if any(e.env is not env for e in self.events):
            raise ValueError("all events must belong to the same environment")
        self._prepare()
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if self._triggered:
                break  # an already-processed sub-event decided it
            event.add_callback(self._check)

    def _prepare(self) -> None:
        """Subclass hook run before any ``_check`` callback can fire."""

    def _detach(self) -> None:
        """Remove ``_check`` from the sub-events still pending."""
        check = self._check
        for event in self.events:
            callbacks = event.callbacks
            if callbacks:
                callbacks[:] = [cb for cb in callbacks if cb != check]

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(ConditionEvent):
    """Triggers once *all* sub-events have triggered (fails fast)."""

    __slots__ = ()

    def _prepare(self) -> None:
        # Seed the result dict with every sub-event so values land in
        # declaration order regardless of trigger order; AnyOf's result
        # is a single-entry dict, so only AllOf pays for this.
        self._total = len(self.events)
        self._values = dict.fromkeys(self.events)

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            self._detach()
            return
        self._values[event] = event._value
        self._count += 1
        if self._count == self._total:
            self.succeed(self._values)


class AnyOf(ConditionEvent):
    """Triggers once *any* sub-event has triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        else:
            self.succeed({event: event._value})
        self._detach()
