"""Processes: generators driven by the simulation kernel.

A :class:`Process` wraps a Python generator.  The generator ``yield``\\ s
events; when a yielded event is processed the kernel resumes the
generator with the event's value (or throws the event's exception into
it).  A process is itself an :class:`~repro.sim.event.Event` that
triggers when the generator finishes, so processes can be joined
(``yield other_process``) or composed with ``AllOf``/``AnyOf``.

Fast-path notes
---------------
Two kernel-internal shortcuts live here (see ``docs/performance.md``):

* ``yield env.hold(delay)`` suspends the process on a reusable
  :class:`_HoldEntry` marker instead of a fresh ``Timeout`` event — the
  run loop resumes the generator directly when the marker pops;
* resuming is a *trampoline*: when a yielded event is already
  processed (or is an uncontended resource grant whose resumption is
  provably unobservable), the generator is advanced in a loop rather
  than by recursive callbacks, so arbitrarily long chains of immediate
  completions cannot overflow the Python stack.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.event import Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Process"]

#: Sentinel yielded by :meth:`Environment.hold`; the trampoline treats
#: it as "already scheduled, nothing to wait on".
HOLD = object()


class _HoldEntry:
    """Reusable heap marker for a process suspended in ``hold()``.

    One marker exists per process and is pushed (never copied) for the
    process start event and every subsequent hold.  ``eid`` — the heap
    insertion-order ticket of the *latest* arming — guards against
    stale pops: an interrupt deactivates the marker and a later hold
    re-arms it under a fresh ticket, so an old heap entry (whose
    ticket can never match, even if its deadline coincides) is
    silently skipped — exactly like the detached ``Timeout`` it
    replaces.

    The marker's ``process`` back-link and the process's ``_hold``
    form a reference cycle, so the link is cut (``process = None``)
    the moment the process finishes: a finished process, with its
    generator and result, is then freed by reference counting alone.
    Only an active marker is ever dereferenced, and a finished
    process's marker is never active.
    """

    __slots__ = ("process", "eid", "active")

    def __init__(self, process: "Process"):
        self.process = process
        self.eid = -1
        self.active = False


class Process(Event):
    """A running simulation process.

    Parameters
    ----------
    env:
        Owning environment.
    generator:
        The generator to execute.  Each yielded value must be an
        :class:`Event` of the same environment (or the marker returned
        by ``env.hold()``).

    Notes
    -----
    A process is registered in its environment's live table from
    creation until it finishes; at that moment it also cuts its hold
    marker's back-link.  A finished process therefore sits in no
    reference cycle and is freed by reference counting, which is what
    lets :meth:`Environment.run <repro.sim.engine.Environment.run>`
    pause the cyclic garbage collector.  A process still suspended
    when the model stops is closed by :meth:`Environment.close
    <repro.sim.engine.Environment.close>`.
    """

    __slots__ = ("_generator", "_target", "_hold")

    def __init__(self, env: "Environment", generator: Generator):
        if getattr(generator, "throw", None) is None or getattr(
            generator, "send", None
        ) is None:
            raise TypeError(f"{generator!r} is not a generator")
        # Inlined Event.__init__ — one process per worm makes this hot.
        self.env = env
        self.callbacks = []
        self._value = Event._PENDING
        self._ok = True
        self._triggered = False
        self._defused = False
        self._generator = generator
        self._target: Optional[Event] = None
        # Kick off the process at the current simulation time.  The
        # reusable hold marker doubles as the start event: it pops at
        # (now, URGENT, eid) and sends None into the fresh generator —
        # the same resumption the seed kernel's init Event produced.
        hold = self._hold = _HoldEntry(self)
        hold.eid = eid = next(env._eid)
        hold.active = True
        heappush(env._heap, (env._now, 0, eid, hold))
        env._live[self] = None

    @property
    def name(self) -> str:
        """Diagnostic label (the generator's function name)."""
        generator = self._generator
        return getattr(generator, "__name__", type(generator).__name__)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process: raise :class:`Interrupt` inside it.

        The process must be alive and not currently executing.  The
        interrupt is delivered as an urgent event, pre-empting whatever
        the process was waiting on.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has already finished")
        if self.env.active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event._triggered = True
        event.add_callback(self._resume)
        self.env._schedule(event, priority=0)

    # -- kernel internals -------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        if self._triggered:
            # The process already finished (e.g. interrupted after its
            # target triggered but before delivery).  Nothing to do.
            return
        if self._target is not None and event is not self._target:
            # An interrupt arrived while waiting on another event: detach
            # from that event so its later processing does not resume us.
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:  # pragma: no cover - defensive
                    pass
        elif self._target is None and self._hold.active:
            # An interrupt arrived while suspended in hold(): deactivate
            # the marker so its pending heap entry pops as a no-op.
            self._hold.active = False
        self._target = None
        if event._ok:
            self._advance(False, event._value)
        else:
            event.defuse()
            self._advance(True, event._value)

    def _advance(self, throw: bool, value: Any) -> None:
        """Trampoline: drive the generator over synchronous completions."""
        env = self.env
        generator = self._generator
        send = generator.send
        heap = env._heap
        while True:
            env._active_process = self
            try:
                if throw:
                    result = generator.throw(value)
                else:
                    result = send(value)
            except StopIteration as stop:
                env._active_process = None
                # Inlined _release(): the common finish, once per worm.
                hold = self._hold
                hold.active = False  # neutralise an unyielded hold
                hold.process = None
                del env._live[self]
                self.succeed(stop.value)
                return
            except BaseException as exc:
                env._active_process = None
                self._release()
                self.fail(exc)
                return
            env._active_process = None

            if result is HOLD:
                # env.hold() already pushed our marker; just suspend.
                if not self._hold.active:  # pragma: no cover - defensive
                    self._no_hold_pending()
                    return
                return
            if not isinstance(result, Event):
                generator.close()
                self._release()
                self.fail(TypeError(f"process yielded a non-event: {result!r}"))
                return
            if self._hold.active:
                generator.close()
                self._release()
                self.fail(
                    RuntimeError(
                        "hold() was called but its marker was not yielded"
                    )
                )
                return
            if result.env is not env:
                generator.close()
                self._release()
                self.fail(
                    ValueError("yielded event belongs to a different environment")
                )
                return

            callbacks = result.callbacks
            if callbacks is None:
                # Already processed — resume synchronously (the seed
                # kernel's add_callback did the same, recursively).
                if result._ok:
                    throw, value = False, result._value
                else:
                    result.defuse()
                    throw, value = True, result._value
                continue

            fast_eid = result._fast_eid
            if fast_eid is not None:
                # Uncontended resource grant that skipped the heap.
                result._fast_eid = None
                if not heap or heap[0][0] > env._now:
                    # No other event can interleave before the grant
                    # would have popped: resume directly (unobservable
                    # shortcut, grants always succeed).
                    result.callbacks = None
                    throw, value = False, result._value
                    continue
                # Something else is pending at this instant: replay the
                # exact slow path by scheduling the grant under its
                # reserved insertion order.
                heappush(heap, (env._now, 1, fast_eid, result))

            callbacks.append(self._resume)
            self._target = result
            return

    def _release(self) -> None:
        """Unregister a finishing process and cut its marker's back-link.

        Also neutralises an armed but unyielded hold, so its pending
        heap entry pops as a no-op.
        """
        hold = self._hold
        hold.active = False
        hold.process = None
        del self.env._live[self]

    def _abandon(self) -> None:
        """Close the generator of a process that will never resume.

        Kernel internal (see :meth:`Environment.close`): the generator
        sees ``GeneratorExit`` at its current ``yield`` and runs its
        cleanup; the process detaches from the event it waited on and
        drops its own waiters.  It never triggers — whoever waited on
        it is being abandoned too.
        """
        self._release()
        target = self._target
        if target is not None:
            self._target = None
            callbacks = target.callbacks
            if callbacks is not None and self._resume in callbacks:
                callbacks.remove(self._resume)
        self.callbacks = []
        self._generator.close()

    def _no_hold_pending(self) -> None:  # pragma: no cover - defensive
        self._generator.close()
        self._release()
        self.fail(RuntimeError("yielded a hold marker without calling hold()"))
