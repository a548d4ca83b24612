"""Shared experiment helpers: broadcast runners and unit-grid builders.

Besides the single-broadcast runners the experiment modules have always
shared, this module hosts the *grid declaration* helpers of the
campaign engine: each experiment declares its unit grid through
:func:`broadcast_units` / :func:`traffic_units` and hands the resulting
:class:`~repro.campaigns.spec.CampaignSpec` to :func:`run_units`, the
shared execute-and-aggregate path that threads workers, store
backends, scheduling policy and cache stores through
:func:`repro.campaigns.run_campaign`.
"""

from __future__ import annotations

import warnings
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.campaigns.aggregate import aggregate, failed_records
from repro.campaigns.pool import ProgressFn, run_campaign
from repro.campaigns.spec import CampaignSpec, UnitSpec, freeze_params
from repro.campaigns.store import CampaignStore, UnitRecord
from repro.core.executors import (
    BarrierStepExecutor,
    BroadcastOutcome,
    EventDrivenExecutor,
)
from repro.core.registry import make_algorithm
from repro.experiments.config import ExperimentScale, scale_by_name
from repro.network.network import NetworkConfig, NetworkSimulator
from repro.network.topology import Mesh
from repro.sim.rng import RandomStreams

__all__ = [
    "random_sources",
    "run_single_broadcasts",
    "run_barrier_broadcasts",
    "paper_config",
    "resolve_scale",
    "broadcast_units",
    "traffic_units",
    "campaign",
    "failure_note",
    "run_units",
]


def paper_config(ports: int, startup_latency: float = 1.5) -> NetworkConfig:
    """The paper's timing constants with a given port budget."""
    return NetworkConfig(
        startup_latency=startup_latency, flit_time=0.003, ports_per_node=ports
    )


def random_sources(
    dims: Tuple[int, ...], count: int, seed: int
) -> List[Tuple[int, ...]]:
    """``count`` uniformly random source nodes (the paper's protocol).

    Drawn from the named ``"sources"`` stream of the master seed, so
    source selection is stable and independent of any other draw an
    experiment (or campaign unit) makes from the same seed.
    """
    rng = RandomStreams(seed)["sources"]
    return [tuple(int(rng.integers(0, d)) for d in dims) for _ in range(count)]


def run_single_broadcasts(
    algorithm_name: str,
    dims: Tuple[int, ...],
    sources: List[Tuple[int, ...]],
    length_flits: int,
    startup_latency: float = 1.5,
    max_destinations_per_path: Optional[int] = None,
    ports_override: Optional[int] = None,
) -> List[BroadcastOutcome]:
    """Event-driven single-source broadcasts, one per source.

    Each broadcast runs on a fresh, otherwise idle network — the
    paper's §3.1/§3.2 setting.
    """
    mesh = Mesh(dims)
    algorithm = make_algorithm(algorithm_name, mesh, max_destinations_per_path)
    ports = algorithm.ports_required if ports_override is None else ports_override
    config = paper_config(ports, startup_latency)
    outcomes: List[BroadcastOutcome] = []
    for source in sources:
        schedule = algorithm.schedule(source)
        network = NetworkSimulator(mesh, config)
        routing = (
            type(algorithm).make_routing(mesh)
            if getattr(algorithm, "adaptive", False)
            else None
        )
        executor = EventDrivenExecutor(network, adaptive_routing=routing)
        outcomes.append(executor.execute(schedule, length_flits))
    return outcomes


def run_barrier_broadcasts(
    algorithm_name: str,
    dims: Tuple[int, ...],
    sources: List[Tuple[int, ...]],
    length_flits: int,
    startup_latency: float = 1.5,
    max_destinations_per_path: Optional[int] = None,
    ports_override: Optional[int] = None,
) -> List[BroadcastOutcome]:
    """Closed-form step-synchronised broadcasts (no contention).

    The semantics under which the paper's per-step arguments are exact;
    used as the second CV column of the table experiments.  Takes the
    same algorithm and port parameters as :func:`run_single_broadcasts`,
    so a unit's barrier twin measures the broadcast the unit declares.
    """
    mesh = Mesh(dims)
    algorithm = make_algorithm(algorithm_name, mesh, max_destinations_per_path)
    ports = algorithm.ports_required if ports_override is None else ports_override
    config = paper_config(ports, startup_latency)
    executor = BarrierStepExecutor(mesh, config)
    return [
        executor.execute(algorithm.schedule(source), length_flits)
        for source in sources
    ]


# ------------------------------------------------------------ unit grids
def resolve_scale(scale: str | ExperimentScale) -> ExperimentScale:
    """Accept a scale name or an :class:`ExperimentScale` instance."""
    return scale_by_name(scale) if isinstance(scale, str) else scale


def broadcast_units(
    experiment: str,
    dims_list: Sequence[Tuple[int, ...]],
    algorithms: Sequence[str],
    length_flits: int,
    scale: str | ExperimentScale,
    seed: int,
    *,
    barrier: bool = False,
    startup_latency: float = 1.5,
    max_destinations_per_path: Optional[int] = None,
    ports_override: Optional[int] = None,
    shards: int | str = 1,
) -> List[UnitSpec]:
    """Declare a dims × algorithm × replication grid of broadcast units.

    With ``shards=1`` (the default): one unit per random source
    (replication), bit-identical — hashes included — to the grids every
    prior release declared.  All algorithms of a cell share the same
    sources — the paper's fairness protocol — because every
    replication re-derives the source list from (dims, seed).

    The scale's ``sources_per_point`` fixes only *how many*
    replications are declared, and is deliberately **not** part of the
    unit's hashed parameters: replication ``r`` always measures the
    ``r``-th draw of the named "sources" stream, whatever the total
    count, so a ``quick`` grid's units are a strict hash-subset of the
    ``full`` grid's and cross-scale cache lookup
    (:func:`repro.campaigns.run_campaign`'s ``cache=``) can reuse
    them.

    ``shards=K`` (K > 1) or ``shards="auto"`` declares each dims ×
    algorithm cell as **one** cell-level unit spanning the whole
    replication axis (kind ``"broadcast-cell"``,
    ``sources_count=sources_per_point``).  The requested fan-out is
    *not* recorded in the spec — slicing the source axis cannot change
    a float of the cell's merged record, so the pool picks the actual
    fan-out at dispatch time (``run_campaign(..., shards=...)``; see
    :mod:`repro.campaigns.shards`) and the aggregated rows stay
    byte-identical to the unsharded grid's.
    """
    scale = resolve_scale(scale)
    if shards != "auto" and (not isinstance(shards, int) or shards < 1):
        raise ValueError(
            f"shards must be a positive int or 'auto', got {shards!r}"
        )
    units: List[UnitSpec] = []
    for dims in dims_list:
        for algorithm in algorithms:
            common = dict(
                experiment=experiment,
                algorithm=algorithm,
                dims=tuple(dims),
                length_flits=length_flits,
                seed=seed,
            )
            if shards != 1:
                units.append(
                    UnitSpec(
                        kind="broadcast-cell",
                        params=freeze_params(
                            barrier=barrier or None,
                            startup_latency=startup_latency,
                            max_destinations_per_path=max_destinations_per_path,
                            ports_override=ports_override,
                            sources_count=scale.sources_per_point,
                        ),
                        **common,
                    )
                )
                continue
            for replication in range(scale.sources_per_point):
                units.append(
                    UnitSpec(
                        kind="broadcast",
                        replication=replication,
                        params=freeze_params(
                            barrier=barrier or None,
                            startup_latency=startup_latency,
                            max_destinations_per_path=max_destinations_per_path,
                            ports_override=ports_override,
                        ),
                        **common,
                    )
                )
    return units


def traffic_units(
    experiment: str,
    dims: Tuple[int, ...],
    algorithms: Sequence[str],
    loads: Iterable[float],
    length_flits: int,
    scale: str | ExperimentScale,
    seed: int,
    *,
    broadcast_fraction: float = 0.1,
    shards: int | str = 1,
) -> List[UnitSpec]:
    """Declare an algorithm × load grid of mixed-traffic units.

    ``shards=K`` (K > 1) declares each load point as K independent
    replications merged by the deterministic reducer of
    :mod:`repro.campaigns.shards`; the campaign pool fans the shards
    out across workers (and pools) and merges when the last one lands.
    ``shards=1`` is the original single-trajectory protocol and leaves
    every unit hash untouched.  The shard count *is* part of the
    measurement protocol (a different, statistically equivalent
    realisation of the point), which is why it belongs in the hashed
    parameters — and why ``shards="auto"`` resolves **here, at
    declaration time**, to the unsharded protocol: a pure function of
    the command line (never of worker counts or files on disk), so
    every pool, and every later ``status``/``aggregate`` invocation,
    reconstructs the same unit hashes.
    """
    scale = resolve_scale(scale)
    auto = shards == "auto"
    if not auto:
        if not isinstance(shards, int) or shards < 1:
            raise ValueError(
                f"shards must be a positive int or 'auto', got {shards!r}"
            )
        if shards > 1 and shards > scale.num_batches - scale.discard:
            raise ValueError(
                f"scale {scale.name!r} retains"
                f" {scale.num_batches - scale.discard}"
                f" batches; use --shards <= that (got {shards})"
            )
    loads = list(loads)
    units: List[UnitSpec] = []
    for algorithm in algorithms:
        for load in loads:
            units.append(
                UnitSpec(
                    experiment=experiment,
                    kind="traffic",
                    algorithm=algorithm,
                    dims=tuple(dims),
                    length_flits=length_flits,
                    seed=seed,
                    load=float(load),
                    params=freeze_params(
                        broadcast_fraction=broadcast_fraction,
                        batch_size=scale.batch_size,
                        num_batches=scale.num_batches,
                        discard=scale.discard,
                        max_sim_time_us=scale.max_sim_time_us,
                        shards=None if auto or shards == 1 else shards,
                    ),
                )
            )
    return units


def run_units(
    experiment: str,
    spec: CampaignSpec,
    *,
    workers: int = 1,
    store: Optional[CampaignStore] = None,
    cache: Sequence[CampaignStore] = (),
    shards: int | str = 1,
    progress: Optional[ProgressFn] = None,
    trace_dir: Optional[Any] = None,
    retries: int = 2,
    max_failures: Optional[int] = None,
) -> List[Any]:
    """Execute a declared campaign and aggregate it into result rows.

    The one shared execution path of every experiment: dispatch
    through :func:`repro.campaigns.run_campaign` (which honours
    workers, store backend, cache stores, the broadcast-cell fan-out
    request ``shards``, the ``trace_dir`` span spool, and the
    ``retries``/``max_failures`` failure budget) and fold the records
    back into the experiment's row dataclasses through its declared
    aggregator.  Rows are identical for any combination of the
    dispatch knobs — tracing included.

    Units that exhausted their retry budget contribute no rows; each
    such cell is announced with an explicit warning line (through
    ``progress`` when given, as a :class:`RuntimeWarning` otherwise)
    so a partial table is never mistaken for a complete one.
    """
    records = run_campaign(
        spec,
        workers=workers,
        store=store,
        cache=cache,
        shards=shards,
        progress=progress,
        trace_dir=trace_dir,
        retries=retries,
        max_failures=max_failures,
    )
    for record in failed_records(records):
        note = failure_note(record)
        if progress is not None:
            progress(note)
        else:
            warnings.warn(note, RuntimeWarning, stacklevel=2)
    return aggregate(experiment, records)


def failure_note(record: UnitRecord) -> str:
    """The one warning line for a failed cell left out of the rows."""
    return (
        f"warning: skipping failed cell {record.unit_hash[:12]}"
        f" ({record.attempts} attempt(s)): {record.failure_reason}"
    )


def campaign(
    experiment: str,
    units: Sequence[UnitSpec],
    scale: str | ExperimentScale,
    seed: int,
) -> CampaignSpec:
    """Wrap a unit grid as a named campaign (``fig1-quick-s0`` style).

    Duplicate units are dropped (first occurrence wins): a caller-side
    repeat — e.g. ``loads=[2.0, 2.0]`` — describes the same
    computation twice, and the legacy serial loops would simply have
    measured it twice for identical numbers.
    """
    scale = resolve_scale(scale)
    seen = set()
    unique = []
    for unit in units:
        if unit.unit_hash not in seen:
            seen.add(unit.unit_hash)
            unique.append(unit)
    name = f"{experiment}-{scale.name}-s{seed}"
    return CampaignSpec(name=name, seed=seed, units=tuple(unique))
