"""Always-on kernel profiling counters.

A :class:`SimProfile` is a bag of plain integer/float counters the
simulation kernel increments on its hot paths — cheap enough to stay
enabled unconditionally (an attribute add per event; the bench suite
gates the cost) and structured enough to answer the questions the
fast-path work keeps raising: how many events were dispatched and of
what category, how deep did the heap get, how often did the timeout
pool and the hop-batched wormhole walk actually hit?

The counters are *observers only*: nothing in the kernel reads them
back, so they can never perturb event order.  Every
:class:`~repro.sim.engine.Environment` owns one and exposes a snapshot
through ``Environment.profile()``::

    env = Environment()
    env.process(model(env))
    env.run()
    prof = env.profile()
    prof["holds"], prof["heap_peak"], prof["timeout_pool_hit_rate"]

See ``docs/observability.md`` for what each counter means.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["SimProfile"]


class SimProfile:
    """Kernel counters for one :class:`~repro.sim.engine.Environment`.

    Attributes (all cumulative since construction or :meth:`reset`):

    ``holds``
        Hold markers dispatched (the zero-allocation ``env.hold`` /
        ``env.hold_until`` resumptions).
    ``timeouts``
        :class:`~repro.sim.event.Timeout` events dispatched.
    ``events``
        Every other event dispatched (requests, processes, conditions).
    ``heap_peak``
        High-water mark of the event heap.  ``step()`` samples it at
        every dispatch; the inlined ``run()`` loop samples every 64th
        event id to stay off the hot path, so the recorded peak is a
        lower bound on the true maximum that still tracks sustained
        growth (transient spikes shorter than the sampling window can
        be missed).
    ``timeout_pool_hits`` / ``timeout_pool_misses``
        ``env.timeout()`` calls served from the recycling pool vs
        freshly allocated.
    ``channel_waits`` / ``channel_wait_s``
        Requests that had to queue on a contended resource, and the
        total simulated time they spent waiting (grant − enqueue).
    ``worm_hops_batched`` / ``worm_hops_slow``
        Wormhole header hops claimed eventlessly inside a batched
        window vs walked through the per-hop request/hold path.
    ``batch_sources_batched`` / ``batch_sources_fallback``
        Broadcast sources served by the structure-of-arrays batch
        engine (:mod:`repro.core.batch_broadcast`) vs handed back to
        the per-source event-driven fallback (declared channel faults,
        failed eligibility checks).
    """

    __slots__ = (
        "holds",
        "timeouts",
        "events",
        "heap_peak",
        "timeout_pool_hits",
        "timeout_pool_misses",
        "channel_waits",
        "channel_wait_s",
        "worm_hops_batched",
        "worm_hops_slow",
        "batch_sources_batched",
        "batch_sources_fallback",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.holds = 0
        self.timeouts = 0
        self.events = 0
        self.heap_peak = 0
        self.timeout_pool_hits = 0
        self.timeout_pool_misses = 0
        self.channel_waits = 0
        self.channel_wait_s = 0.0
        self.worm_hops_batched = 0
        self.worm_hops_slow = 0
        self.batch_sources_batched = 0
        self.batch_sources_fallback = 0

    # ------------------------------------------------------------- views
    @property
    def dispatched(self) -> int:
        """Total events dispatched, all categories."""
        return self.holds + self.timeouts + self.events

    @property
    def timeout_pool_hit_rate(self) -> float:
        """Fraction of ``env.timeout()`` calls served from the pool."""
        total = self.timeout_pool_hits + self.timeout_pool_misses
        return self.timeout_pool_hits / total if total else 0.0

    @property
    def worm_batched_ratio(self) -> float:
        """Fraction of wormhole header hops taken on the batched path."""
        total = self.worm_hops_batched + self.worm_hops_slow
        return self.worm_hops_batched / total if total else 0.0

    @property
    def batch_batched_ratio(self) -> float:
        """Fraction of broadcast sources served by the batch engine."""
        total = self.batch_sources_batched + self.batch_sources_fallback
        return self.batch_sources_batched / total if total else 0.0

    @property
    def mean_channel_wait_s(self) -> float:
        """Mean simulated wait of the requests that had to queue."""
        return (
            self.channel_wait_s / self.channel_waits
            if self.channel_waits
            else 0.0
        )

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict snapshot (counters plus derived rates)."""
        return {
            "holds": self.holds,
            "timeouts": self.timeouts,
            "events": self.events,
            "dispatched": self.dispatched,
            "heap_peak": self.heap_peak,
            "timeout_pool_hits": self.timeout_pool_hits,
            "timeout_pool_misses": self.timeout_pool_misses,
            "timeout_pool_hit_rate": self.timeout_pool_hit_rate,
            "channel_waits": self.channel_waits,
            "channel_wait_s": self.channel_wait_s,
            "mean_channel_wait_s": self.mean_channel_wait_s,
            "worm_hops_batched": self.worm_hops_batched,
            "worm_hops_slow": self.worm_hops_slow,
            "worm_batched_ratio": self.worm_batched_ratio,
            "batch_sources_batched": self.batch_sources_batched,
            "batch_sources_fallback": self.batch_sources_fallback,
            "batch_batched_ratio": self.batch_batched_ratio,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimProfile dispatched={self.dispatched}"
            f" heap_peak={self.heap_peak}>"
        )
