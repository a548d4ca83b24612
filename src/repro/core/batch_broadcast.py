"""Batched single-source broadcasts, byte-identical to the event engine.

:func:`run_batch_broadcasts` is the drop-in batched counterpart of
:func:`repro.experiments.common.run_single_broadcasts`: same arguments,
same ordered list of :class:`~repro.core.executors.BroadcastOutcome`
results, the same floats bit for bit — but eligible sources advance
together through the structure-of-arrays sweep of
:mod:`repro.sim.batch` instead of each paying for a fresh
:class:`~repro.network.network.NetworkSimulator` (a node object per
coordinate, a channel object per link it uses) and a private event
heap.

Fallback mirrors the hop-batched wormhole walk's guard philosophy:
whenever exactness cannot be *proved*, the affected source silently
re-runs on the event-driven engine —

* any declared channel fault sends every source there (the event
  engine is the defined semantics for faulty topologies, delivering or
  raising :class:`~repro.network.faults.FaultyChannelError` per
  source);
* per-source dynamic checks (channel-occupancy conflicts, a launcher
  fed by a walk that outruns its first delivery, an adaptive first hop
  whose channel is still held, a hook-time tie the sweep cannot order)
  hand just that source back.

Adaptive schedules (AB) batch too: the least-loaded choice keeps the
routing function's first candidate while that channel is idle, so the
plan takes it and the sweep proves it idle at every choice.  A launcher's worms that
share their first channel are not a conflict either: the later one
queues there and the sweep models that FIFO handover exactly (see
:mod:`repro.sim.batch`), so all four algorithms batch every Fig. 1
source.

All four algorithms derive from :class:`~repro.core.base.WalkBroadcast`:
they plan straight from their integer walk table through
:func:`~repro.sim.batch.plan_walks`, and build no
:class:`~repro.core.schedule.PathSend` or
:class:`~repro.routing.paths.Path` unless a source falls back — its
object schedule is built then, for the event engine alone.  A schedule
with no table (one built by hand) plans through
:func:`~repro.sim.batch.plan_broadcast`, which stays the oracle the
table path is tested against.

Duplicate sources — common under the paper's uniform random draw —
are planned and swept once and share their outcome; the event engine
would recompute identical floats for each copy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.base import WalkBroadcast
from repro.core.executors import BroadcastOutcome, EventDrivenExecutor
from repro.core.registry import make_algorithm
from repro.core.schedule import BroadcastSchedule
from repro.network.network import NetworkConfig, NetworkSimulator
from repro.network.topology import Mesh
from repro.sim.batch import plan_broadcast, plan_walks, sweep_broadcasts

__all__ = ["run_batch_broadcasts"]


def _event_outcome(
    mesh: Mesh,
    config: NetworkConfig,
    schedule: BroadcastSchedule,
    length_flits: int,
    faults: Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]],
    routing,
) -> BroadcastOutcome:
    """One event-driven broadcast, exactly as ``run_single_broadcasts``.

    ``schedule`` is ``algorithm.schedule(source)``; schedules are
    read-only, so a source that was planned for the sweep and fell
    back hands its plan's schedule over instead of rebuilding it.
    ``routing`` is the algorithm's adaptive routing function, or
    ``None``; routing functions hold no state, so one serves every
    source.
    """
    network = NetworkSimulator(mesh, config)
    if faults:
        from repro.network.faults import FaultModel

        model = FaultModel(network)
        for u, v in faults:
            model.fail_channel(u, v)
    executor = EventDrivenExecutor(network, adaptive_routing=routing)
    return executor.execute(schedule, length_flits)


def run_batch_broadcasts(
    algorithm_name: str,
    dims: Tuple[int, ...],
    sources: List[Tuple[int, ...]],
    length_flits: int,
    startup_latency: float = 1.5,
    max_destinations_per_path: Optional[int] = None,
    ports_override: Optional[int] = None,
    faults: Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]] = (),
    profile=None,
) -> List[BroadcastOutcome]:
    """Batched single-source broadcasts, one outcome per source.

    Bit-identical to
    :func:`repro.experiments.common.run_single_broadcasts` on the same
    arguments (which is property-tested across dims, algorithms,
    fan-outs and seeds); ``faults`` — absent from the event-only
    runner, whose networks are always pristine — marks channels faulty
    and forces the per-source event fallback.  ``profile`` is an
    optional :class:`~repro.obs.simprof.SimProfile` whose
    ``batch_sources_batched`` / ``batch_sources_fallback`` counters
    record how many of the requested sources each path served.
    """
    mesh = Mesh(dims)
    algorithm = make_algorithm(algorithm_name, mesh, max_destinations_per_path)
    ports = algorithm.ports_required if ports_override is None else ports_override
    config = NetworkConfig(
        startup_latency=startup_latency, flit_time=0.003, ports_per_node=ports
    )
    if not sources:
        return []

    unique: Dict[Tuple[int, ...], int] = {}
    order: List[Tuple[int, ...]] = []
    for source in sources:
        key = tuple(source)
        if key not in unique:
            unique[key] = len(order)
            order.append(key)

    routing = (
        type(algorithm).make_routing(mesh)
        if getattr(algorithm, "adaptive", False)
        else None
    )
    outcomes: List[Optional[BroadcastOutcome]] = [None] * len(order)
    swept_ok = [False] * len(order)
    # Schedules built for planning, reused by any source that falls back.
    schedules: List[Optional[BroadcastSchedule]] = [None] * len(order)

    if not faults:
        coords = list(mesh.nodes())
        tabled = isinstance(algorithm, WalkBroadcast)
        if not tabled:
            node_index = {coord: i for i, coord in enumerate(coords)}
        plans = []
        plan_source = []
        for idx, source in enumerate(order):
            if tabled:
                plan = plan_walks(
                    algorithm.name, source, mesh.dims,
                    algorithm.walk_table(source), algorithm.step_count(),
                )
            else:
                schedules[idx] = algorithm.schedule(source)
                plan = plan_broadcast(
                    schedules[idx], node_index, len(coords), routing
                )
            if plan is not None:
                plans.append(plan)
                plan_source.append(idx)
        if plans:
            timing = config.timing
            swept = sweep_broadcasts(
                plans,
                startup=config.startup_latency,
                hop_time=timing.header_hop_time,
                body=timing.body_time(length_flits),
                length_flits=length_flits,
                ports=ports,
            )
            for row, (plan, idx) in enumerate(zip(plans, plan_source)):
                if not swept.ok[row]:
                    continue
                # The event-driven arrivals dict fills in hook order,
                # which the sweep proved and reports per source.
                hooked = swept.hook_order[row]
                arrivals = dict(zip(
                    map(coords.__getitem__, hooked.tolist()),
                    swept.node_time[row, hooked].tolist(),
                ))
                outcomes[idx] = BroadcastOutcome(
                    algorithm=plan.algorithm,
                    source=plan.source,
                    start_time=0.0,
                    arrivals=arrivals,
                    total_sends=plan.total_sends,
                )
                swept_ok[idx] = True

    for idx, source in enumerate(order):
        if outcomes[idx] is None:
            schedule = schedules[idx] or algorithm.schedule(source)
            outcomes[idx] = _event_outcome(
                mesh, config, schedule, length_flits, faults, routing
            )

    if profile is not None:
        for source in sources:
            if swept_ok[unique[tuple(source)]]:
                profile.batch_sources_batched += 1
            else:
                profile.batch_sources_fallback += 1
    return [outcomes[unique[tuple(source)]] for source in sources]
