"""Fig. 1 — communication latency vs network size.

Single-source broadcast latency on 3-D meshes of 64, 512, 1000 and
4096 nodes; message length 100 flits, ``Ts = 1.5 µs``.  Sources are
drawn uniformly at random and averaged (the paper: "different source
nodes have been chosen randomly").

Shape targets: RD's and EDN's latency grows with network size, DB's
and AB's stays nearly flat, DB ≈ EDN on the 4×4×4 mesh (both need the
same number of steps there, as the paper notes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import CampaignStore
from repro.core.registry import algorithm_names
from repro.experiments.common import broadcast_units, campaign, run_units
from repro.experiments.config import FIG1_SIZES, ExperimentScale

__all__ = ["Fig1Row", "fig1_campaign", "run_fig1", "format_fig1"]

MESSAGE_LENGTH = 100  # flits, per the figure caption
STARTUP_LATENCY = 1.5  # µs


@dataclass(frozen=True)
class Fig1Row:
    """One bar of the figure: (algorithm, size) → mean latency."""

    algorithm: str
    dims: Tuple[int, int, int]
    num_nodes: int
    mean_latency_us: float
    std_latency_us: float
    samples: int


def fig1_campaign(
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    shards: int | str = 1,
) -> CampaignSpec:
    """Declare the Fig. 1 unit grid (dims × algorithm × source).

    ``shards`` other than 1 declares each dims × algorithm cell as one
    sliceable cell unit (see :func:`broadcast_units`); the rows stay
    byte-identical to the unsharded grid's.
    """
    units = broadcast_units(
        "fig1",
        FIG1_SIZES,
        algorithm_names(),
        MESSAGE_LENGTH,
        scale,
        seed,
        startup_latency=STARTUP_LATENCY,
        shards=shards,
    )
    return campaign("fig1", units, scale, seed)


def run_fig1(
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    *,
    workers: int = 1,
    store: Optional[CampaignStore] = None,
    shards: int | str = 1,
) -> List[Fig1Row]:
    """Regenerate the Fig. 1 series (via the campaign engine)."""
    return run_units(
        "fig1",
        fig1_campaign(scale, seed, shards),
        workers=workers,
        store=store,
        shards=shards,
    )


def format_fig1(rows: List[Fig1Row]) -> str:
    """Print the figure as the paper's series (one column per size)."""
    sizes = sorted({r.num_nodes for r in rows})
    by_algo: Dict[str, Dict[int, float]] = {}
    for row in rows:
        by_algo.setdefault(row.algorithm, {})[row.num_nodes] = row.mean_latency_us
    lines = [
        "Fig. 1 — mean broadcast latency (µs) vs network size"
        f" (L={MESSAGE_LENGTH} flits, Ts={STARTUP_LATENCY} µs)",
        "algo   " + "".join(f"{s:>10d}" for s in sizes),
    ]
    for name in ("RD", "EDN", "DB", "AB"):
        series = by_algo.get(name, {})
        lines.append(
            f"{name:<6s} "
            + "".join(f"{series.get(s, float('nan')):>10.3f}" for s in sizes)
        )
    return "\n".join(lines)
