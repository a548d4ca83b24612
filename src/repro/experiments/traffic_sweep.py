"""Figs. 3 & 4 — communication latency under mixed traffic loads.

The §3.3 setting: every node generates Poisson traffic, 90 % unicast /
10 % broadcast, L = 32 flits, Ts = 1.5 µs; the mean communication
latency (batch means, 21 batches, first discarded) is plotted against
the per-node load.  Fig. 3 uses the 8×8×8 mesh, Fig. 4 the 16×16×8.

Shape targets: latency grows with load and saturates earliest for
RD/EDN; AB gives the best latency/throughput on 8×8×8, with its lead
over DB shrinking on the larger 16×16×8 mesh (AB's long third-step
paths load the bigger network).

Load-axis calibration: see `repro.experiments.config`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import CampaignStore
from repro.core.registry import algorithm_names
from repro.experiments.common import campaign, run_units, traffic_units
from repro.experiments.config import (
    FIG3_DIMS,
    FIG3_LOADS,
    FIG4_DIMS,
    FIG4_LOADS,
    ExperimentScale,
)

__all__ = [
    "TrafficSweepRow",
    "traffic_campaign",
    "run_traffic_sweep",
    "format_traffic_sweep",
]

MESSAGE_LENGTH = 32  # flits, per the figure captions
BROADCAST_FRACTION = 0.1


@dataclass(frozen=True)
class TrafficSweepRow:
    """One curve point: (algorithm, load) → mean latency."""

    algorithm: str
    dims: Tuple[int, int, int]
    load_messages_per_ms: float
    mean_latency_us: float
    unicast_mean_latency_us: Optional[float]
    broadcast_mean_latency_us: Optional[float]
    throughput_msgs_per_us: float
    operations: int
    saturated: bool


def traffic_campaign(
    figure: str = "fig3",
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    loads: Optional[List[float]] = None,
    algorithms: Optional[List[str]] = None,
    shards: int | str = 1,
) -> CampaignSpec:
    """Declare the algorithm × load unit grid of Fig. 3 or Fig. 4.

    ``shards=K`` declares every load point as K mergeable sub-unit
    replications (see :mod:`repro.campaigns.shards`), letting a worker
    fleet parallelise *inside* the heavy points instead of waiting on
    the slowest one.  ``shards="auto"`` picks each point's fan-out
    from the fitted cost model at declaration time (the shard count is
    measurement protocol, so it must be pinned before hashing; see
    :func:`repro.experiments.common.traffic_units`).
    """
    figure = figure.lower()
    if figure == "fig3":
        dims, default_loads = FIG3_DIMS, FIG3_LOADS
    elif figure == "fig4":
        dims, default_loads = FIG4_DIMS, FIG4_LOADS
    else:
        raise ValueError(f"figure must be 'fig3' or 'fig4', got {figure!r}")
    loads = loads if loads is not None else default_loads
    algorithms = algorithms if algorithms is not None else algorithm_names()
    units = traffic_units(
        figure,
        dims,
        algorithms,
        loads,
        MESSAGE_LENGTH,
        scale,
        seed,
        broadcast_fraction=BROADCAST_FRACTION,
        shards=shards,
    )
    return campaign(figure, units, scale, seed)


def run_traffic_sweep(
    figure: str = "fig3",
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    loads: Optional[List[float]] = None,
    algorithms: Optional[List[str]] = None,
    *,
    workers: int = 1,
    store: Optional[CampaignStore] = None,
    shards: int | str = 1,
) -> List[TrafficSweepRow]:
    """Regenerate the Fig. 3 (8×8×8) or Fig. 4 (16×16×8) curves."""
    spec = traffic_campaign(figure, scale, seed, loads, algorithms, shards)
    return run_units(figure.lower(), spec, workers=workers, store=store)


def format_traffic_sweep(rows: List[TrafficSweepRow]) -> str:
    """Print the latency-vs-load curves, one line per algorithm."""
    if not rows:
        return "(empty sweep)"
    dims = rows[0].dims
    loads = sorted({r.load_messages_per_ms for r in rows})
    by_algo: Dict[str, Dict[float, TrafficSweepRow]] = {}
    for row in rows:
        by_algo.setdefault(row.algorithm, {})[row.load_messages_per_ms] = row
    lines = [
        f"Latency (µs) vs load (msgs/ms/node) on {'x'.join(map(str, dims))},"
        f" L={MESSAGE_LENGTH} flits, {BROADCAST_FRACTION:.0%} broadcast",
        "algo   " + "".join(f"{ld:>9.3g}" for ld in loads),
    ]
    for name in ("EDN", "AB", "RD", "DB"):  # the paper's legend order
        series = by_algo.get(name)
        if not series:
            continue
        cells = []
        for load in loads:
            row = series.get(load)
            if row is None:
                cells.append(f"{'-':>9s}")
            else:
                marker = "*" if row.saturated else ""
                cells.append(f"{row.mean_latency_us:>8.2f}{marker or ' '}")
        lines.append(f"{name:<6s} " + "".join(cells))
    lines.append("(* = run hit the simulated-time cap before finishing batches)")
    return "\n".join(lines)
