"""Structure-of-arrays sweep for batches of independent broadcasts.

The paper's headline experiments are grids of thousands of *independent*
single-source broadcasts, each run on a fresh idle network.  Their
event-driven executions never interact, so — as with the hop-batched
wormhole walk of PR 3, but one level up — the interleaving collapses:
every worm's begin / injection / per-hop header / delivery / completion
times are a pure function of its own schedule and of the completions of
the sends launched before it from the same node.  This module exploits
that by replacing per-source event heaps with flat numpy arrays and
advancing *all* sources one synchronised launch wave at a time.

Exactness contract
------------------
The sweep replicates the event-driven kernel's float arithmetic
operation for operation:

* per-hop header times are **accumulated** (``t = t + hop_time``), never
  computed closed-form — the same left-fold of IEEE additions the
  per-hop and hop-batched walks perform;
* a delivery's arrival is ``header_t + body`` (one addition), recorded
  at the *first* visit of the node, exactly like the walk's
  ``remaining.discard`` bookkeeping;
* a worm's completion is ``max(walk_end, last_arrival)`` — the two
  floats the DES clock actually takes its maximum over;
* injection-port turnaround uses the min-heap recurrence that is
  provably equivalent to the FIFO port Resource when all of a node's
  sends are launched at its single arrival time (they are: the
  event-driven executor launches a node's sends back-to-back inside one
  delivery hook);
* a worm whose launcher sent an earlier worm over the same first
  channel (``BatchPlan.worm_wait``) starts its walk at
  ``max(begin + startup, R)``, ``R`` the predecessor's completion.

First-channel handover
----------------------
A launcher with several ports (EDN's three) sends worms at once whose
paths may share their first channel.  The DES queues the later worm on
that channel's FIFO Resource; when the earlier worm completes at ``R``
it releases the channel and the waiting header takes it at ``R`` and
continues ``R + hop_time, …`` — the same left-fold from a new start.
The predecessor is exact: a launcher's port grants come in launch
order at nondecreasing times and same-time requests pop in eid (=
launch) order, so the channel's FIFO order is launch order and the
waiting worm follows the latest earlier worm with its first channel.
A tie ``R == begin + startup`` needs no case of its own: whichever of
the release and the request pops first, the header takes the channel
at ``R``.  This is the one pair of same-source worms that does not
commute under the HDA independence relation; every other pair uses
disjoint channels or is refused by the occupancy check below.

Adaptive sends
--------------
A waypoint send (AB's step-1 and pillar worms) picks, at every hop,
the least-loaded channel its routing function allows; it replaces its
pick only on a *strictly* smaller load, so an idle first candidate
wins whatever the others carry.  Both planners therefore take the
route with the first candidate at every hop
(:meth:`~repro.routing.base.RoutingFunction.idle_route`, the route
``routing.path(a, b)`` takes), and the proof obligation is that this
channel is idle when the choice is made.  For a later hop the choice
is made at the header's arrival, the instant the worm claims the
channel, so the occupancy check below already proves it: any other
window on it that contains or touches that time is a conflict (the
handover exemption applies to first channels only).  The first hop is
chosen right after the start-up latency, before a first-channel
handover wait; a worm whose first hop is a choice
(``BatchPlan.worm_first_choice``) and whose first channel is still
held then (``R >= begin + startup``) hands its source back.

Delivery-hook order
-------------------
The outcome's ``arrivals`` dict fills in delivery-hook order, and its
value sequence is part of the contract (downstream statistics sum it
in order).  A worm's deliveries fire at ``max(arrival, walk_end)``:
those whose arrival the walk has already passed fire together, in path
order, the moment the walk ends; the rest fire one per event at their
arrival times.  :func:`sweep_broadcasts` sorts every source's
deliveries by that hook time, keeping each worm's walk-end batch
contiguous.  Hook times tie across worms; where the tied events carry
different value sequences the DES event order decides, and the sweep
derives it from the kernel's ``(time, priority, insertion order)``
rule through each event's chain of scheduling parents
(:class:`_EventOrder`).  A chain the model cannot order hands the
source back.

Eligibility and fallback
------------------------
A schedule batches only when the sweep can *prove* the event-driven run
waits only at first-channel handovers and fires its hooks in the order
it predicts:

* every send carries a pre-built path, or waypoints and a routing
  function to resolve them with;
* delivery sets are disjoint across sends and cover exactly the
  schedule's non-source nodes (the exactly-once delivery invariant);
* the source sends, and every other sending node is itself delivered
  to (local causality);
* a worm that delivers to a launcher ends its walk before its first
  delivery's arrival (``hops_remaining < length_flits - 1``), so the
  launch happens at the arrival time.  A worm that delivers only to
  leaves may outrun its deliveries: no launch depends on its hook
  times, only the hook order does;
* each delivery held after the walk lands the DES clock exactly on its
  arrival (``c + (a - c) == a``, checked per delivery);
* no two worms of the same source occupy a directed channel in
  overlapping (or even touching) logical intervals — checked *after*
  the sweep against the predicted occupancy windows
  ``[claim_time, completion]``; a conflict (which would make the DES
  block) invalidates the whole source.  Exactly one touch is exempt:
  adjacent windows where the later worm's ``worm_wait`` is the earlier
  worm and it claims at the earlier one's completion — the modelled
  handover.  A third worm on such a channel, a worm of another
  launcher, or a shared later channel always leaves a non-exempt
  overlap, so the check stays the proof; it does not lean on the
  prefix structure of dimension-ordered routes;
* every adaptive choice finds its first candidate idle, and every
  hook-time tie between differing value sequences is ordered (above).

Anything that fails these checks is reported through the ``ok`` mask of
:class:`BatchSweepResult` and must be re-run per-source on the
event-driven engine (see :mod:`repro.core.batch_broadcast`), mirroring
the batched-walk guard of :mod:`repro.network.wormhole`.

One planner serves every registered algorithm.  Each emits its sends
once, as a walk table (:class:`~repro.core.base.WalkTable`): per
worm, in schedule order, a CSR walk of row-major node indices
(launcher first), a delivery mask over it, and whether its first hop is
an adaptive choice.  RD and EDN route their ``(sender, receiver)``
pairs with :func:`~repro.routing.dimension_ordered.unicast_walks`, DB
draws its straight coded paths per step family, and AB resolves its
waypoint sends to the idle-network route above.
:func:`plan_walks` builds the :class:`BatchPlan` from that table with
numpy and makes the static checks above on the index arrays.
:func:`plan_broadcast` flattens an object schedule instead: it is the
oracle the table path is tested against, and it plans a schedule that
has no table (one built by hand).  A source either planner declines, or
the sweep hands back, runs event-driven on its object schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.coordinates import row_major_strides
from repro.routing.base import RoutingError
from repro.routing.walks import csr_gather, csr_offsets

__all__ = [
    "BatchPlan",
    "BatchSweepResult",
    "plan_broadcast",
    "plan_walks",
    "sweep_broadcasts",
]


@dataclass
class BatchPlan:
    """One broadcast schedule flattened into index space.

    Built by :func:`plan_broadcast` or :func:`plan_walks`; consumed by
    :func:`sweep_broadcasts`.  All arrays are structure-of-arrays views
    of the schedule: worms are stored launcher-major (a *launcher* is a
    sending node) in launch order, deliveries and channels hang off
    each worm as CSR slices.
    """

    algorithm: str
    source: Tuple[int, ...]
    source_idx: int
    n_nodes: int
    total_sends: int
    #: node index of each launcher (first-launch order; includes source)
    launcher_nodes: np.ndarray
    #: CSR pointer: worms of launcher ``l`` are ``launcher_ptr[l]`` to
    #: ``launcher_ptr[l+1]`` (worm ids are launcher-major, so the slice
    #: is contiguous and ordered by launch order)
    launcher_ptr: np.ndarray
    worm_hops: np.ndarray
    worm_first_delivery_hop: np.ndarray
    #: per worm, whether any node it delivers to launches sends
    worm_feeds: np.ndarray
    #: CSR deliveries per worm: hop offset + delivered node index, in
    #: path (= header-time) order
    deliv_ptr: np.ndarray
    deliv_hop: np.ndarray
    deliv_node: np.ndarray
    #: CSR directed channels per worm, hop order; channel ``h`` is
    #: claimed at the worm's ``times[h]`` and held to its completion
    chan_ptr: np.ndarray
    #: channel key ``u_idx * n_nodes + v_idx``
    chan_key: np.ndarray
    #: per worm, the latest earlier worm of the same launcher whose
    #: first channel is the same (its FIFO predecessor there), or -1
    worm_wait: np.ndarray
    #: per worm, whether its first hop is an adaptive choice among
    #: several channels (see "Adaptive sends")
    worm_first_choice: np.ndarray


@dataclass
class BatchSweepResult:
    """Everything the sweep learned about a batch of plans.

    ``node_time[k, i]`` is the full-message arrival time of node ``i``
    under plan ``k`` (NaN where not delivered); ``ok[k]`` is false when
    plan ``k`` violated an eligibility condition the sweep could only
    check dynamically (channel-occupancy conflict other than a
    first-channel handover, unreachable launcher, a launcher fed by a
    walk that outruns its first delivery, an adaptive first hop whose
    channel is still held, an unordered hook tie, a delivery hold that
    misses its arrival) and must be re-run event-driven.
    ``hook_order[k]`` lists plan ``k``'s delivered node indices in the
    order the event-driven run fires their delivery hooks (meaningful
    only where ``ok[k]``).
    """

    node_time: np.ndarray
    ok: np.ndarray
    hook_order: List[np.ndarray]


def plan_broadcast(
    schedule,
    node_index: Dict[Tuple[int, ...], int],
    n_nodes: int,
    routing=None,
) -> Optional[BatchPlan]:
    """Flatten one schedule into a :class:`BatchPlan`, or ``None``.

    ``routing`` is the algorithm's runtime routing function
    (``make_routing(mesh)``); it resolves waypoint sends, which without
    it make the schedule ineligible.  ``None`` means the schedule is
    statically ineligible for the batch sweep (unroutable waypoint
    sends, overlapping or incomplete delivery sets, a source that sends
    nothing, a sender that is never delivered to) and the source must
    run on the event-driven engine.
    """
    template = schedule.sends_by_node()
    if not template:
        return None  # degenerate: nothing to send, nothing to measure
    source = tuple(schedule.source)
    source_idx = node_index[source]
    sender_idx = {node_index[tuple(sender)] for sender in template}

    launcher_nodes: List[int] = []
    launcher_ptr: List[int] = [0]
    worm_hops: List[int] = []
    worm_first: List[int] = []
    worm_feeds: List[bool] = []
    deliv_ptr: List[int] = [0]
    deliv_hop: List[int] = []
    deliv_node: List[int] = []
    chan_ptr: List[int] = [0]
    chan_key: List[int] = []
    worm_wait: List[int] = []
    worm_choice: List[bool] = []

    for sender, sends in template.items():
        launcher_nodes.append(node_index[tuple(sender)])
        last_on_first: Dict[int, int] = {}
        for _step, send in sends:
            if send.path is not None:
                nodes, first_choice = send.path.nodes, False
            elif routing is None:
                return None  # waypoint send with nothing to resolve it
            else:
                try:
                    nodes, first_choice = routing.idle_route(send.waypoints)
                except RoutingError:
                    return None  # the event engine raises at that hop
            remaining = set(send.deliveries)
            first_hop = -1
            feeds = False
            for hop, node in enumerate(nodes):
                if node in remaining:
                    remaining.discard(node)
                    target = node_index[node]
                    deliv_hop.append(hop)
                    deliv_node.append(target)
                    feeds = feeds or target in sender_idx
                    if first_hop < 0:
                        first_hop = hop
            if remaining or first_hop < 0:
                return None  # path misses a declared delivery
            deliv_ptr.append(len(deliv_hop))
            previous = node_index[nodes[0]]
            for node in nodes[1:]:
                current = node_index[node]
                chan_key.append(previous * n_nodes + current)
                previous = current
            first_key = chan_key[chan_ptr[-1]]
            chan_ptr.append(len(chan_key))
            worm_wait.append(last_on_first.get(first_key, -1))
            last_on_first[first_key] = len(worm_hops)
            worm_hops.append(len(nodes) - 1)
            worm_first.append(first_hop)
            worm_feeds.append(feeds)
            worm_choice.append(first_choice)
        launcher_ptr.append(len(worm_hops))

    # `deliv_node` is every send's deliveries, so once each node appears
    # once it is exactly `covered_nodes()` minus the source.
    delivered = set(deliv_node)
    if len(delivered) != len(deliv_node):
        return None  # delivered twice: hook order unclear
    if source_idx in delivered:
        return None  # the source must never be an arrival
    if source_idx not in sender_idx:
        return None  # the sweep starts every broadcast at its source
    if not sender_idx - {source_idx} <= delivered:
        return None  # launcher unreachable: the DES would stall

    def ints(values):
        return np.asarray(values, dtype=np.int64)

    return BatchPlan(
        algorithm=schedule.algorithm,
        source=source,
        source_idx=source_idx,
        n_nodes=n_nodes,
        total_sends=schedule.total_sends(),
        launcher_nodes=ints(launcher_nodes),
        launcher_ptr=ints(launcher_ptr),
        worm_hops=ints(worm_hops),
        worm_first_delivery_hop=ints(worm_first),
        worm_feeds=np.asarray(worm_feeds, dtype=bool),
        deliv_ptr=ints(deliv_ptr),
        deliv_hop=ints(deliv_hop),
        deliv_node=ints(deliv_node),
        chan_ptr=ints(chan_ptr),
        chan_key=ints(chan_key),
        worm_wait=ints(worm_wait),
        worm_first_choice=np.asarray(worm_choice, dtype=bool),
    )


def plan_walks(
    algorithm: str,
    source: Sequence[int],
    dims: Sequence[int],
    table,
    step_count: Optional[int] = None,
) -> Optional[BatchPlan]:
    """Plan a broadcast from its walk table.

    ``table`` is a :class:`~repro.core.base.WalkTable`: per worm, in
    schedule order, a CSR walk of row-major node indices (launcher
    first), a delivery mask over it and whether its first hop is an
    adaptive choice.  The result equals, field for field, what
    :func:`plan_broadcast` makes of the object schedule the table
    materialises into, without building that schedule.

    The checks are the ones ``BroadcastAlgorithm.schedule``,
    :class:`~repro.core.schedule.PathSend` and :func:`plan_broadcast`
    make.  A step count other than ``step_count`` raises
    ``AssertionError``; a walk node off the mesh, a worm that delivers
    nowhere or one that delivers to its own launcher raises
    ``ValueError``.  ``None`` means the table is statically ineligible:
    nothing to send, a node delivered twice, the source delivered or
    sending nothing, or another launcher never delivered to.
    """
    steps = table.step_ptr.size - 1
    if step_count is not None and steps != step_count:
        raise AssertionError(
            f"{algorithm}: built {steps} steps, closed form"
            f" says {step_count} — constructor bug"
        )
    n_nodes = int(np.prod(dims))
    source = tuple(int(c) for c in source)
    source_idx = sum(c * s for c, s in zip(source, row_major_strides(dims)))
    walk_ptr, walk_node, deliver = table.walk_ptr, table.walk_node, table.deliver
    n_worms = walk_ptr.size - 1
    if n_worms == 0:
        return None  # degenerate: nothing to send, nothing to measure
    if walk_node.min() < 0 or walk_node.max() >= n_nodes:
        raise ValueError(f"a send leaves the {tuple(dims)} mesh")
    length = np.diff(walk_ptr)
    if (length < 1).any():
        raise ValueError("a walk must start at its launcher")
    src = walk_node[walk_ptr[:-1]]
    deliveries = np.add.reduceat(deliver, walk_ptr[:-1], dtype=np.int64)
    if not deliveries.all():
        raise ValueError("PathSend must deliver to at least one node")
    dst = walk_node[deliver]
    if (dst == np.repeat(src, deliveries)).any():
        raise ValueError("a send cannot deliver to its own source")
    delivered = np.bincount(dst, minlength=n_nodes)
    if delivered.max() > 1:
        return None  # delivered twice: hook order unclear
    if delivered[source_idx]:
        return None  # the source must never be an arrival
    launches = np.bincount(src, minlength=n_nodes) > 0
    if not launches[source_idx]:
        return None  # the sweep starts every broadcast at its source
    if np.count_nonzero(launches & (delivered == 0)) > 1:
        return None  # launcher unreachable: the DES would stall
    launchers, first, inverse = np.unique(
        src, return_index=True, return_inverse=True
    )

    # Launcher-major worm order: launchers by first launch, each one's
    # worms in schedule order.
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    worm_launcher = rank[inverse]
    order = np.argsort(worm_launcher, kind="stable")
    launcher_ptr = np.zeros(launchers.size + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(worm_launcher, minlength=launchers.size),
        out=launcher_ptr[1:],
    )

    length, deliveries = length[order], deliveries[order]
    flat = csr_gather(walk_ptr[:-1][order], length)
    walk_node, deliver = walk_node[flat], deliver[flat]
    hops = length - 1
    deliv_ptr = np.zeros(n_worms + 1, dtype=np.int64)
    np.cumsum(deliveries, out=deliv_ptr[1:])
    deliv_hop = csr_offsets(length)[deliver]
    deliv_node = walk_node[deliver]
    feeds = launches[deliv_node]
    tail = np.ones(walk_node.size, dtype=bool)
    tail[np.cumsum(length) - 1] = False  # a walk's last node starts no hop
    hop_from = np.flatnonzero(tail)
    chan_key = walk_node[hop_from] * n_nodes + walk_node[hop_from + 1]
    chan_ptr = np.zeros(n_worms + 1, dtype=np.int64)
    np.cumsum(hops, out=chan_ptr[1:])
    # A first channel leaves its launcher, so equal first channels mean
    # one launcher: each worm waits for the latest earlier worm on it.
    first_key = chan_key[chan_ptr[:-1]]
    by_key = np.argsort(first_key, kind="stable")
    same = first_key[by_key[1:]] == first_key[by_key[:-1]]
    worm_wait = np.full(n_worms, -1, dtype=np.int64)
    worm_wait[by_key[1:][same]] = by_key[:-1][same]

    return BatchPlan(
        algorithm=algorithm,
        source=source,
        source_idx=source_idx,
        n_nodes=n_nodes,
        total_sends=n_worms,
        launcher_nodes=launchers[by_first],
        launcher_ptr=launcher_ptr,
        worm_hops=hops,
        worm_first_delivery_hop=deliv_hop[deliv_ptr[:-1]],
        worm_feeds=np.logical_or.reduceat(feeds, deliv_ptr[:-1]),
        deliv_ptr=deliv_ptr,
        deliv_hop=deliv_hop,
        deliv_node=deliv_node,
        chan_ptr=chan_ptr,
        chan_key=chan_key,
        worm_wait=worm_wait,
        worm_first_choice=table.first_choice[order],
    )


def _concat(plans, field, shift=None):
    """Concatenate one per-plan array, optionally offset per plan."""
    if shift is None:
        return np.concatenate([getattr(p, field) for p in plans])
    return np.concatenate(
        [getattr(p, field) + shift[k] for k, p in enumerate(plans)]
    )


def _csr_concat(plans, ptr_field, data_field):
    """Global ``(start, count)`` of per-plan CSR slices after concatenation."""
    ptrs = [getattr(p, ptr_field) for p in plans]
    off = np.concatenate(
        ([0], np.cumsum([getattr(p, data_field).size for p in plans]))
    )
    start = np.concatenate([ptr[:-1] + off[k] for k, ptr in enumerate(ptrs)])
    count = np.concatenate([np.diff(ptr) for ptr in ptrs])
    return start, count


def sweep_broadcasts(
    plans: Sequence[BatchPlan],
    *,
    startup: float,
    hop_time: float,
    body: float,
    length_flits: int,
    ports: int,
) -> BatchSweepResult:
    """Advance every plan one synchronised launch wave at a time.

    All state lives in flat arrays indexed by a *global* launcher /
    worm / node id (plan ``k``'s node ``i`` is ``k * n_nodes + i``).
    Each round launches the next pending send of every active launcher
    at once: begin times come from the per-launcher sorted port rows,
    header times accumulate hop by hop across a ``(wave, max_hops)``
    matrix, and the deliveries of the wave activate the next wave's
    launchers.  Rounds are bounded by the schedule's launch depth times
    its per-node send count — a few dozen — while each round's work is
    a handful of numpy sweeps over every in-flight worm.
    """
    K = len(plans)
    if K == 0:
        return BatchSweepResult(
            node_time=np.empty((0, 0)), ok=np.empty(0, dtype=bool),
            hook_order=[],
        )
    n_nodes = plans[0].n_nodes

    l_counts = np.asarray([p.launcher_nodes.size for p in plans])
    w_counts = np.asarray([p.worm_hops.size for p in plans])
    w_off = np.concatenate(([0], np.cumsum(w_counts)))
    n_launchers = int(l_counts.sum())
    n_worms = int(w_off[-1])
    node_off = np.arange(K) * n_nodes

    launcher_gnode = _concat(plans, "launcher_nodes", node_off)
    launcher_worm_start = np.concatenate(
        [p.launcher_ptr[:-1] + w_off[k] for k, p in enumerate(plans)]
    )
    launcher_sends = np.concatenate(
        [np.diff(p.launcher_ptr) for p in plans]
    )
    worm_hops = _concat(plans, "worm_hops")
    worm_first = _concat(plans, "worm_first_delivery_hop")
    worm_feeds = _concat(plans, "worm_feeds")
    worm_plan = np.repeat(np.arange(K), w_counts)
    deliv_start, deliv_count = _csr_concat(plans, "deliv_ptr", "deliv_hop")
    deliv_hop = _concat(plans, "deliv_hop")
    deliv_gnode = _concat(plans, "deliv_node", node_off)
    chan_start, chan_count = _csr_concat(plans, "chan_ptr", "chan_key")
    chan_gkey = _concat(plans, "chan_key", node_off * n_nodes)
    worm_choice = _concat(plans, "worm_first_choice")
    adaptive = bool(worm_choice.any())
    worm_wait = np.concatenate(
        [
            np.where(p.worm_wait >= 0, p.worm_wait + w_off[k], -1)
            for k, p in enumerate(plans)
        ]
    )

    ok = np.ones(K, dtype=bool)
    # Static wave-eligibility: a worm that feeds a launcher must end its
    # walk no later than its first delivery's arrival, so the launch
    # happens at the arrival time (integer comparison — one full flit
    # of slack makes float accumulation error irrelevant by nine orders
    # of magnitude).  Leaf-only worms may outrun their deliveries.
    bad_worms = worm_feeds & ~(
        (worm_hops == worm_first)
        | (worm_hops - worm_first < length_flits - 1)
    )
    ok[worm_plan[bad_worms]] = False

    node_to_launcher = np.full(K * n_nodes, -1, dtype=np.int64)
    node_to_launcher[launcher_gnode] = np.arange(n_launchers)

    arrival = np.full(n_launchers, np.nan)
    port_rows = np.zeros((n_launchers, ports))
    next_ptr = np.zeros(n_launchers, dtype=np.int64)
    node_time = np.full(K * n_nodes, np.nan)
    # Completion per global worm; the extra last slot (-inf) is what a
    # worm_wait of -1 indexes, so "no predecessor" needs no branch.
    worm_done = np.full(n_worms + 1, -np.inf)
    worm_begin = np.empty(n_worms)
    worm_start = np.empty(n_worms)
    worm_walk_end = np.empty(n_worms)

    source_launchers = node_to_launcher[
        np.asarray(
            [k * n_nodes + p.source_idx for k, p in enumerate(plans)],
            dtype=np.int64,
        )
    ]
    # Both planners guarantee the source launches at least one send,
    # so every source owns a launcher row; broadcasts begin at t = 0.
    arrival[source_launchers] = 0.0

    occ: List[Tuple[np.ndarray, ...]] = []
    hooks: List[Tuple[np.ndarray, ...]] = []

    while True:
        ready = np.flatnonzero(
            ~np.isnan(arrival) & (next_ptr < launcher_sends)
        )
        if ready.size == 0:
            break
        w = launcher_worm_start[ready] + next_ptr[ready]
        nw = w.size
        # Port begin: rows are kept sorted and every entry is >= the
        # launcher's arrival, so the min (column 0) is the heap pop.
        begin = port_rows[ready, 0]
        # A worm queued behind its launcher's earlier worm on their
        # shared first channel takes that channel when the earlier one
        # completes (FIFO in launch order) and walks on from there.
        injected = begin + startup
        released = worm_done[worm_wait[w]]
        start = np.maximum(injected, released)
        if adaptive:
            # An adaptive first hop is chosen right after the start-up
            # latency: its channel must be free then, not handed over.
            waited = worm_choice[w] & (released >= injected)
            ok[worm_plan[w[waited]]] = False
        hops = worm_hops[w]
        max_hops = int(hops.max())
        times = np.empty((nw, max_hops + 1))
        times[:, 0] = start
        for h in range(max_hops):
            # The exact left-fold of the per-hop walk: an elementwise
            # IEEE add per hop, never a closed-form hops * hop_time.
            times[:, h + 1] = times[:, h] + hop_time
        rows_idx = np.arange(nw)
        walk_end = times[rows_idx, hops]

        dcount = deliv_count[w]
        drow = np.repeat(rows_idx, dcount)
        dflat = csr_gather(deliv_start[w], dcount)
        arrival_t = times[drow, deliv_hop[dflat]] + body
        node_time[deliv_gnode[dflat]] = arrival_t
        # The DES clock ends at the last delivery's hold, or at the
        # walk's end when the walk passed it (see _hook_order).
        completed = np.maximum(walk_end, arrival_t[np.cumsum(dcount) - 1])
        worm_done[w] = completed
        worm_begin[w] = begin
        worm_start[w] = start
        worm_walk_end[w] = walk_end
        hooks.append((deliv_gnode[dflat], arrival_t, w[drow]))

        ccount = chan_count[w]
        if ccount.any():
            crow = np.repeat(rows_idx, ccount)
            cpos = csr_offsets(ccount)
            occ.append((
                chan_gkey[csr_gather(chan_start[w], ccount)],
                times[crow, cpos],
                completed[crow],
                w[crow],
            ))

        # Heap push: drop the popped column 0, insert the completion,
        # restore sorted order.
        port_rows[ready] = np.sort(
            np.concatenate(
                (port_rows[ready, 1:], completed[:, None]), axis=1
            ),
            axis=1,
        )
        next_ptr[ready] += 1

        # Activate the launchers this wave delivered to: their sends
        # launch at the delivery hook, i.e. at the arrival time.
        lid = node_to_launcher[deliv_gnode[dflat]]
        mask = lid >= 0
        if mask.any():
            arrival[lid[mask]] = arrival_t[mask]
            port_rows[lid[mask]] = arrival_t[mask, None]

    # A launcher that still has pending sends was never delivered to
    # (a cycle unreachable from the source): the event-driven run would
    # deadlock differently than we predicted — hand the source back.
    stalled = next_ptr < launcher_sends
    if stalled.any():
        plan_of_launcher = np.repeat(np.arange(K), l_counts)
        ok[plan_of_launcher[stalled]] = False

    chan_keys_per_plan = n_nodes * n_nodes
    if occ:
        keys, begins, ends, worms = (
            np.concatenate(parts) for parts in zip(*occ)
        )
        order = np.lexsort((begins, keys))
        keys = keys[order]
        begins = begins[order]
        ends = ends[order]
        worms = worms[order]
        # Channel-occupancy conflicts: any same-source directed channel
        # whose predicted windows overlap — or merely touch, where DES
        # event order between release and claim is ambiguous —
        # invalidates its source, except the one touch the sweep
        # modelled: a worm claiming its first channel at the completion
        # of its FIFO predecessor there (``worm_wait``).  No other
        # conflict ⟹ (by induction on the first deviation) the
        # event-driven run waits only at those handovers and reproduces
        # the prediction.
        same = keys[1:] == keys[:-1]
        clash = same & (begins[1:] <= ends[:-1])
        handover = (begins[1:] == ends[:-1]) & (
            worm_wait[worms[1:]] == worms[:-1]
        )
        clash &= ~handover
        if clash.any():
            ok[keys[1:][clash] // chan_keys_per_plan] = False


    hook_order = _hook_order(
        plans, hooks, ok, node_time, worm_begin, worm_start, worm_walk_end,
        worm_done, w_off, startup=startup, ports=ports,
    )
    return BatchSweepResult(
        node_time=node_time.reshape(K, n_nodes), ok=ok, hook_order=hook_order
    )


def _hook_order(
    plans, hooks, ok, node_time, worm_begin, worm_start, worm_walk_end,
    worm_done, w_off, *, startup, ports,
) -> List[np.ndarray]:
    """Every plan's delivered nodes in event-driven delivery-hook order.

    Sorted by hook time, then worm and path position, which keeps each
    walk-end batch contiguous and in path order.  A hook time shared by
    events with *different* value sequences (a walk-end batch holds
    values below its hook time) is re-ordered by :class:`_EventOrder`;
    a tie it cannot order clears the plan's ``ok`` bit.
    """
    K = len(plans)
    n_nodes = plans[0].n_nodes
    gnode, value, worm = (np.concatenate(parts) for parts in zip(*hooks))
    plan = gnode // n_nodes
    # Each worm's deliveries are contiguous and in path order.
    first = np.flatnonzero(np.concatenate(([True], worm[1:] != worm[:-1])))
    pos = np.arange(worm.size) - np.repeat(
        first, np.diff(np.append(first, worm.size))
    )
    # Hooks fire at max(arrival, walk_end): deliveries the walk has
    # passed fire together at its end, the rest one hold each.  A hold
    # lands the clock on `c + (a - c)`, which must be `a` itself for the
    # hook times and the worm's completion to be what the sweep assumed.
    walk_end = worm_walk_end[worm]
    hook = np.maximum(value, walk_end)
    clock = walk_end.copy()
    clock[1:] = np.where(pos[1:] > 0, hook[:-1], walk_end[1:])
    held = value > clock
    c, a = clock[held], value[held]
    ok[plan[held][c + (a - c) != a]] = False

    order = np.lexsort((pos, worm, hook, plan))
    gnode = gnode[order]
    value = value[order]
    hook = hook[order]
    worm = worm[order]
    pos = pos[order]
    plan = plan[order]

    same = (plan[1:] == plan[:-1]) & (hook[1:] == hook[:-1])
    group = np.concatenate(([0], np.cumsum(~same)))
    multi = np.zeros(int(group[-1]) + 1, dtype=bool)
    multi[group[1:][same & (worm[1:] != worm[:-1])]] = True
    early = np.zeros_like(multi)
    early[group[value < hook]] = True
    suspect = np.flatnonzero(multi & early)
    if suspect.size:
        bounds = np.concatenate((np.flatnonzero(~same) + 1, [group.size]))
        starts = np.concatenate(([0], bounds[:-1]))
        models: Dict[int, _EventOrder] = {}
        for g in suspect:
            lo, hi = int(starts[g]), int(bounds[g])
            k = int(plan[lo])
            if not ok[k]:
                continue
            cut = np.flatnonzero(worm[lo + 1 : hi] != worm[lo : hi - 1])
            edges = [lo, *(lo + 1 + cut).tolist(), hi]
            runs = [(a, b) for a, b in zip(edges[:-1], edges[1:])]
            sequences = {value[a:b].tobytes() for a, b in runs}
            if len(sequences) == 1:
                continue  # every order yields the same value sequence
            model = models.get(k)
            if model is None:
                model = models[k] = _EventOrder(
                    plans[k], int(w_off[k]),
                    node_time[k * n_nodes : (k + 1) * n_nodes],
                    worm_begin, worm_start, worm_walk_end, worm_done,
                    startup=startup, ports=ports,
                )
            events = {
                run: model.hook_event(
                    int(worm[run[0]]) - int(w_off[k]), int(pos[run[0]])
                )
                for run in runs
            }
            try:
                runs.sort(
                    key=cmp_to_key(
                        lambda x, y: model.compare(events[x], events[y])
                    )
                )
            except _Unproven:
                ok[k] = False
                continue
            gnode[lo:hi] = np.concatenate([gnode[a:b] for a, b in runs])

    cuts = np.searchsorted(plan, np.arange(K + 1))
    return [
        gnode[cuts[k] : cuts[k + 1]] - k * n_nodes for k in range(K)
    ]


class _Unproven(Exception):
    """The event-order model cannot order two events; fall back."""


class _EventOrder:
    """The DES's execution order of one swept source's tied events.

    The kernel pops events by ``(time, priority, insertion order)``; an
    event's insertion ticket is drawn when it is scheduled, inside the
    execution of an earlier event (its *parent*).  Every event of a
    broadcast is ``NORMAL`` except a worm's start, which is ``URGENT``
    at the current time: it runs right after the event that created it,
    before any other event of that instant.  The events that matter
    here, per worm ``w``:

    ``('P', w)``
        the port grant at ``begin``.  A free port's grant is scheduled
        by the worm's start, so it follows its creator (the event
        whose delivery hook launched the worm, or the executor's root
        process for the source's worms) after everything that event
        scheduled itself, in creation order.  A queued send's grant is
        scheduled by the completion of the worm whose release frees the
        port — after any channel handover it grants; a launcher's
        releases grant its queued sends in launch order.
    ``('S', w)``
        the start-up hold, at ``begin + startup``, scheduled by the
        port grant; the walk starts here.
    ``('H', w)``
        the walk end, firing every delivery the walk has passed.
    ``('D', w, j)``
        the hold for a later delivery ``j``, at its arrival, scheduled
        by the worm's previous event.

    Two events at one time run in the order their parents ran, which
    recurses.  The walk end is the exception: the hop-batched walk
    schedules it from the walk's last resumption, which depends on
    every other event in flight.  One case is settled anyway: a walk
    checks the heap after each hop it claims and stops at the first hop
    that reaches the earliest pending event, so two walks with the same
    start and hop count resume at every hop, each seeing the other
    pending, and keep the order of their start-up holds.  Every other
    tie with a walk end raises :class:`_Unproven`.
    """

    def __init__(
        self, plan, w0, node_time, worm_begin, worm_start, worm_walk_end,
        worm_done, *, startup, ports,
    ):
        self.plan = plan
        self.w0 = w0
        self.node_time = node_time
        self.begin = worm_begin
        self.start = worm_start
        self.walk_end = worm_walk_end
        self.done = worm_done
        self.startup = startup
        self.ports = ports
        self._values: Dict[int, np.ndarray] = {}
        self._batch: Dict[int, int] = {}
        self._releases: Dict[int, Optional[List[int]]] = {}
        self._creators: Optional[Dict[int, Tuple[int, int]]] = None

    # -- per-worm facts ------------------------------------------------
    def _deliveries(self, w: int) -> np.ndarray:
        values = self._values.get(w)
        if values is None:
            ptr = self.plan.deliv_ptr
            values = self.node_time[self.plan.deliv_node[ptr[w] : ptr[w + 1]]]
            self._values[w] = values
            # Arrivals rise along the path: the walk-end batch is a prefix.
            self._batch[w] = int(
                np.count_nonzero(values <= self.walk_end[self.w0 + w])
            )
        return values

    def hook_event(self, w: int, j: int):
        """The event that fires worm ``w``'s delivery ``j``."""
        self._deliveries(w)
        return ("H", w) if j < self._batch[w] else ("D", w, j)

    def _completion(self, w: int):
        return self.hook_event(w, self._deliveries(w).size - 1)

    def _creator(self, launcher: int):
        """``(event, hook position)`` that delivered to ``launcher``'s node."""
        if self._creators is None:
            plan = self.plan
            index = {int(n): l for l, n in enumerate(plan.launcher_nodes)}
            creators = {}
            for flat in np.flatnonzero(
                np.isin(plan.deliv_node, plan.launcher_nodes)
            ):
                w = int(np.searchsorted(plan.deliv_ptr, flat, side="right")) - 1
                j = int(flat - plan.deliv_ptr[w])
                creators[index[int(plan.deliv_node[flat])]] = (w, j)
            self._creators = creators
        w, j = self._creators[launcher]
        return self.hook_event(w, j), j

    def _release_order(self, launcher: int) -> List[int]:
        """The launcher's worms in the order their completions run."""
        if launcher in self._releases:
            order = self._releases[launcher]
            if order is None:
                raise _Unproven("release order depends on itself")
            return order
        self._releases[launcher] = None
        ptr = self.plan.launcher_ptr
        worms = list(range(int(ptr[launcher]), int(ptr[launcher + 1])))
        events = {w: self._completion(w) for w in worms}
        worms.sort(
            key=cmp_to_key(lambda a, b: self.compare(events[a], events[b]))
        )
        self._releases[launcher] = worms
        return worms

    def _walks_from_startup(self, w: int) -> bool:
        """True when the walk starts at the start-up hold, not a handover."""
        g = self.w0 + w
        injected = float(self.begin[g]) + self.startup
        pred = int(self.plan.worm_wait[w])
        return float(self.start[g]) == injected and (
            pred < 0 or float(self.done[self.w0 + pred]) < injected
        )

    # -- the event graph -----------------------------------------------
    def _time(self, event) -> float:
        kind, w = event[0], event[1]
        if kind == "P":
            return float(self.begin[self.w0 + w])
        if kind == "S":
            return float(self.begin[self.w0 + w]) + self.startup
        if kind == "H":
            return float(self.walk_end[self.w0 + w])
        return float(self._deliveries(w)[event[2]])

    def _parent(self, event):
        """``(parent event or None for the root, slot in its schedule)``."""
        kind, w = event[0], event[1]
        if kind == "S":
            return ("P", w), (0,)
        if kind == "D":
            j = event[2]
            self._deliveries(w)
            return (("H", w) if j == self._batch[w] else ("D", w, j - 1)), (0,)
        plan = self.plan
        launcher = int(np.searchsorted(plan.launcher_ptr, w, side="right")) - 1
        m = w - int(plan.launcher_ptr[launcher])
        if m >= self.ports:
            releaser = self._release_order(launcher)[m - self.ports]
            return self._completion(releaser), (0, 1)
        if int(plan.launcher_nodes[launcher]) == plan.source_idx:
            return None, (1, 0, m)
        creator, j = self._creator(launcher)
        return creator, (1, j, m)

    def compare(self, a, b) -> int:
        """-1 if event ``a`` runs before ``b``, 1 if after."""
        while True:
            ta, tb = self._time(a), self._time(b)
            if ta != tb:
                return -1 if ta < tb else 1
            if a == b:
                raise _Unproven("one event compared with itself")
            ka, kb = a[0], b[0]
            if ka == "H" and kb == "H":
                wa, wb = a[1], b[1]
                lockstep = (
                    float(self.start[self.w0 + wa])
                    == float(self.start[self.w0 + wb])
                    and self.plan.worm_hops[wa] == self.plan.worm_hops[wb]
                    and self._walks_from_startup(wa)
                    and self._walks_from_startup(wb)
                )
                if not lockstep:
                    raise _Unproven("walks end together out of step")
                a, b = ("S", wa), ("S", wb)
                continue
            if ka != kb:
                raise _Unproven(f"no rule orders {ka} against {kb}")
            (pa, ia), (pb, ib) = self._parent(a), self._parent(b)
            if pa == pb:
                if ia == ib:
                    raise _Unproven("two events in one schedule slot")
                return -1 if ia < ib else 1
            if pa is None:
                return -1
            if pb is None:
                return 1
            a, b = pa, pb
