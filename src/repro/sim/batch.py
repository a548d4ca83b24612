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

Eligibility and fallback
------------------------
A schedule batches only when the sweep can *prove* the event-driven run
waits only at first-channel handovers and records arrivals in
nondecreasing order:

* every send carries a pre-built path (adaptive waypoint sends resolve
  routing against live channel load — inherently event-driven);
* delivery sets are disjoint across sends and cover exactly the
  schedule's non-source nodes (the exactly-once delivery invariant);
* every sending node is itself delivered to (local causality);
* each worm's walk ends no later than its first delivery's arrival
  (``hops_remaining < length_flits - 1``), so delivery hooks fire at
  their arrival times and the global arrival order is by value;
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
  prefix structure of dimension-ordered routes.

Anything that fails these checks is reported through the ``ok`` mask of
:class:`BatchSweepResult` and must be re-run per-source on the
event-driven engine (see :mod:`repro.core.batch_broadcast`), mirroring
the batched-walk guard of :mod:`repro.network.wormhole`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["BatchPlan", "BatchSweepResult", "plan_broadcast", "sweep_broadcasts"]


@dataclass
class BatchPlan:
    """One broadcast schedule flattened into index space.

    Built by :func:`plan_broadcast`; consumed by
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
    #: delivered node indices (== every covered node except the source)
    delivered_nodes: np.ndarray
    #: same order as ``delivered_nodes``, as coordinate tuples
    delivered_coords: List[Tuple[int, ...]]


@dataclass
class BatchSweepResult:
    """Everything the sweep learned about a batch of plans.

    ``node_time[k, i]`` is the full-message arrival time of node ``i``
    under plan ``k`` (NaN where not delivered); ``ok[k]`` is false when
    plan ``k`` violated an eligibility condition the sweep could only
    check dynamically (channel-occupancy conflict other than a
    first-channel handover, unreachable
    launcher, walk outrunning its first delivery) and must be re-run
    event-driven.
    """

    node_time: np.ndarray
    ok: np.ndarray


def plan_broadcast(
    schedule, node_index: Dict[Tuple[int, ...], int], n_nodes: int
) -> Optional[BatchPlan]:
    """Flatten one schedule into a :class:`BatchPlan`, or ``None``.

    ``None`` means the schedule is statically ineligible for the batch
    sweep (waypoint sends, overlapping or incomplete delivery sets, a
    sender that is never delivered to) and the source must run on the
    event-driven engine.
    """
    template = schedule.sends_by_node()
    if not template:
        return None  # degenerate: nothing to send, nothing to measure
    source = tuple(schedule.source)
    covered = schedule.covered_nodes()

    launcher_nodes: List[int] = []
    launcher_ptr: List[int] = [0]
    worm_hops: List[int] = []
    worm_first: List[int] = []
    deliv_ptr: List[int] = [0]
    deliv_hop: List[int] = []
    deliv_node: List[int] = []
    chan_ptr: List[int] = [0]
    chan_key: List[int] = []
    worm_wait: List[int] = []
    delivered: Dict[Tuple[int, ...], int] = {}

    for sender, sends in template.items():
        launcher_nodes.append(node_index[tuple(sender)])
        last_on_first: Dict[int, int] = {}
        for _step, send in sends:
            path = send.path
            if path is None:
                return None  # adaptive waypoint send: event-driven only
            nodes = path.nodes
            remaining = set(send.deliveries)
            first_hop = -1
            for hop, node in enumerate(nodes):
                if node in remaining:
                    remaining.discard(node)
                    if node in delivered:
                        return None  # delivered twice: hook order unclear
                    delivered[tuple(node)] = node_index[node]
                    deliv_hop.append(hop)
                    deliv_node.append(node_index[node])
                    if first_hop < 0:
                        first_hop = hop
            if remaining or first_hop < 0:
                return None  # path misses a declared delivery
            deliv_ptr.append(len(deliv_hop))
            previous = nodes[0]
            for node in nodes[1:]:
                chan_key.append(
                    node_index[previous] * n_nodes + node_index[node]
                )
                previous = node
            first_key = chan_key[chan_ptr[-1]]
            chan_ptr.append(len(chan_key))
            worm_wait.append(last_on_first.get(first_key, -1))
            last_on_first[first_key] = len(worm_hops)
            worm_hops.append(path.hop_count)
            worm_first.append(first_hop)
        launcher_ptr.append(len(worm_hops))

    if source in delivered:
        return None  # the source must never be an arrival
    if set(delivered) != {tuple(n) for n in covered} - {source}:
        return None  # arrivals would not cover exactly covered-1 nodes
    for sender in template:
        if tuple(sender) != source and tuple(sender) not in delivered:
            return None  # launcher unreachable: the DES would stall

    return BatchPlan(
        algorithm=schedule.algorithm,
        source=source,
        source_idx=node_index[source],
        n_nodes=n_nodes,
        total_sends=schedule.total_sends(),
        launcher_nodes=np.asarray(launcher_nodes, dtype=np.int64),
        launcher_ptr=np.asarray(launcher_ptr, dtype=np.int64),
        worm_hops=np.asarray(worm_hops, dtype=np.int64),
        worm_first_delivery_hop=np.asarray(worm_first, dtype=np.int64),
        deliv_ptr=np.asarray(deliv_ptr, dtype=np.int64),
        deliv_hop=np.asarray(deliv_hop, dtype=np.int64),
        deliv_node=np.asarray(deliv_node, dtype=np.int64),
        chan_ptr=np.asarray(chan_ptr, dtype=np.int64),
        chan_key=np.asarray(chan_key, dtype=np.int64),
        worm_wait=np.asarray(worm_wait, dtype=np.int64),
        delivered_nodes=np.asarray(
            sorted(delivered.values()), dtype=np.int64
        ),
        delivered_coords=[
            coord
            for coord, _ in sorted(delivered.items(), key=lambda kv: kv[1])
        ],
    )


def _csr_gather(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Flat indices of the CSR slices ``start[i] : start[i]+count[i]``."""
    total = int(count.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(count)
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(ends - count, count)
        + np.repeat(start, count)
    )


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
            node_time=np.empty((0, 0)), ok=np.empty(0, dtype=bool)
        )
    n_nodes = plans[0].n_nodes

    l_counts = np.asarray([p.launcher_nodes.size for p in plans])
    l_off = np.concatenate(([0], np.cumsum(l_counts)))
    w_counts = np.asarray([p.worm_hops.size for p in plans])
    w_off = np.concatenate(([0], np.cumsum(w_counts)))
    n_launchers = int(l_off[-1])

    launcher_gnode = np.concatenate(
        [p.launcher_nodes + k * n_nodes for k, p in enumerate(plans)]
    )
    launcher_worm_start = np.concatenate(
        [p.launcher_ptr[:-1] + w_off[k] for k, p in enumerate(plans)]
    )
    launcher_sends = np.concatenate(
        [np.diff(p.launcher_ptr) for p in plans]
    )
    worm_hops = np.concatenate([p.worm_hops for p in plans])
    worm_first = np.concatenate(
        [p.worm_first_delivery_hop for p in plans]
    )
    worm_plan = np.repeat(np.arange(K), w_counts)
    deliv_ptr_parts = [p.deliv_ptr for p in plans]
    d_off = np.concatenate(
        ([0], np.cumsum([p.deliv_hop.size for p in plans]))
    )
    deliv_start = np.concatenate(
        [part[:-1] + d_off[k] for k, part in enumerate(deliv_ptr_parts)]
    )
    deliv_count = np.concatenate([np.diff(part) for part in deliv_ptr_parts])
    deliv_hop = np.concatenate([p.deliv_hop for p in plans])
    deliv_gnode = np.concatenate(
        [p.deliv_node + k * n_nodes for k, p in enumerate(plans)]
    )
    chan_ptr_parts = [p.chan_ptr for p in plans]
    c_off = np.concatenate(
        ([0], np.cumsum([p.chan_key.size for p in plans]))
    )
    chan_start = np.concatenate(
        [part[:-1] + c_off[k] for k, part in enumerate(chan_ptr_parts)]
    )
    chan_count = np.concatenate([np.diff(part) for part in chan_ptr_parts])
    chan_gkey = np.concatenate(
        [p.chan_key + k * n_nodes * n_nodes for k, p in enumerate(plans)]
    )
    worm_wait = np.concatenate(
        [
            np.where(p.worm_wait >= 0, p.worm_wait + w_off[k], -1)
            for k, p in enumerate(plans)
        ]
    )

    ok = np.ones(K, dtype=bool)
    # Static wave-eligibility: the walk must end no later than the first
    # delivery's arrival so delivery hooks fire at their arrival times
    # (integer comparison — one full flit of slack makes float
    # accumulation error irrelevant by nine orders of magnitude).
    bad_worms = ~(
        (worm_hops == worm_first)
        | (worm_hops - worm_first < length_flits - 1)
    )
    if bad_worms.any():
        ok[np.unique(worm_plan[bad_worms])] = False

    node_to_launcher = np.full(K * n_nodes, -1, dtype=np.int64)
    node_to_launcher[launcher_gnode] = np.arange(n_launchers)

    arrival = np.full(n_launchers, np.nan)
    port_rows = np.zeros((n_launchers, ports))
    next_ptr = np.zeros(n_launchers, dtype=np.int64)
    node_time = np.full(K * n_nodes, np.nan)
    # Completion per global worm; the extra last slot (-inf) is what a
    # worm_wait of -1 indexes, so "no predecessor" needs no branch.
    worm_done = np.full(int(w_off[-1]) + 1, -np.inf)

    source_launchers = node_to_launcher[
        np.asarray(
            [k * n_nodes + p.source_idx for k, p in enumerate(plans)],
            dtype=np.int64,
        )
    ]
    # plan_broadcast guarantees the source launches at least one send,
    # so every source owns a launcher row; broadcasts begin at t = 0.
    arrival[source_launchers] = 0.0

    occ_key: List[np.ndarray] = []
    occ_begin: List[np.ndarray] = []
    occ_end: List[np.ndarray] = []
    occ_worm: List[np.ndarray] = []

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
        start = np.maximum(begin + startup, worm_done[worm_wait[w]])
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

        dstart = deliv_start[w]
        dcount = deliv_count[w]
        drow = np.repeat(rows_idx, dcount)
        dflat = _csr_gather(dstart, dcount)
        arrival_t = times[drow, deliv_hop[dflat]] + body
        node_time[deliv_gnode[dflat]] = arrival_t
        last_arrival = arrival_t[np.cumsum(dcount) - 1]
        completed = np.maximum(walk_end, last_arrival)
        worm_done[w] = completed

        cstart = chan_start[w]
        ccount = chan_count[w]
        if ccount.any():
            crow = np.repeat(rows_idx, ccount)
            cpos = (
                np.arange(int(ccount.sum()), dtype=np.int64)
                - np.repeat(np.cumsum(ccount) - ccount, ccount)
            )
            occ_key.append(chan_gkey[_csr_gather(cstart, ccount)])
            occ_begin.append(times[crow, cpos])
            occ_end.append(completed[crow])
            occ_worm.append(w[crow])

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
        ok[np.unique(plan_of_launcher[stalled])] = False

    # Channel-occupancy conflicts: any same-source directed channel
    # whose predicted windows overlap — or merely touch, where DES
    # event order between release and claim is ambiguous — invalidates
    # its source, except the one touch the sweep modelled: a worm
    # claiming its first channel at the completion of its FIFO
    # predecessor there (``worm_wait``).  No other conflict ⟹ (by
    # induction on the first deviation) the event-driven run waits
    # only at those handovers and reproduces the prediction.
    if occ_key:
        keys = np.concatenate(occ_key)
        begins = np.concatenate(occ_begin)
        ends = np.concatenate(occ_end)
        worms = np.concatenate(occ_worm)
        order = np.lexsort((begins, keys))
        keys = keys[order]
        begins = begins[order]
        ends = ends[order]
        worms = worms[order]
        same = keys[1:] == keys[:-1]
        clash = same & (begins[1:] <= ends[:-1])
        handover = (begins[1:] == ends[:-1]) & (
            worm_wait[worms[1:]] == worms[:-1]
        )
        clash &= ~handover
        if clash.any():
            bad = np.unique(keys[1:][clash] // (n_nodes * n_nodes))
            ok[bad] = False

    return BatchSweepResult(
        node_time=node_time.reshape(K, n_nodes), ok=ok
    )
