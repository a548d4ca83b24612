"""Ablation studies.

The design choices the paper mentions but does not isolate:

* **start-up latency** — §3 examines Ts = 0.15 and 1.5 µs; this
  ablation quantifies how the algorithm ranking depends on the
  Ts/β ratio (the step-count argument weakens as Ts → 0);
* **message length** — the paper's stated range is 32–2048 flits;
* **AB's destination limit** — AB "limits the number of destination
  nodes for each message path"; sweeping the limit trades step-3
  parallelism against path length;
* **port count** — EDN is designed for multiport routers; giving every
  algorithm the same port budget isolates the benefit.

Each ablation declares a value × algorithm × source unit grid and runs
through the campaign engine (``workers``/``store`` parallelise and
resume it like any other campaign).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.campaigns.spec import CampaignSpec, UnitSpec
from repro.campaigns.store import CampaignStore
from repro.core.registry import algorithm_names
from repro.experiments.common import broadcast_units, campaign, run_units
from repro.experiments.config import ExperimentScale

__all__ = [
    "AblationRow",
    "startup_ablation_campaign",
    "length_ablation_campaign",
    "maxdest_ablation_campaign",
    "ports_ablation_campaign",
    "run_startup_latency_ablation",
    "run_message_length_ablation",
    "run_max_destinations_ablation",
    "run_port_count_ablation",
]

DIMS = (8, 8, 8)


@dataclass(frozen=True)
class AblationRow:
    """One ablation point."""

    algorithm: str
    parameter: str
    value: float
    mean_latency_us: float
    mean_cv: float
    samples: int


def startup_ablation_campaign(
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    startup_values: Tuple[float, ...] = (0.15, 1.5),
    length_flits: int = 100,
    shards: int | str = 1,
) -> CampaignSpec:
    """All four algorithms at each paper Ts value."""
    units: List[UnitSpec] = []
    for ts in startup_values:
        units += broadcast_units(
            "ablation-startup",
            [DIMS],
            algorithm_names(),
            length_flits,
            scale,
            seed,
            startup_latency=ts,
            shards=shards,
        )
    return campaign("ablation-startup", units, scale, seed)


def run_startup_latency_ablation(
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    startup_values: Tuple[float, ...] = (0.15, 1.5),
    length_flits: int = 100,
    *,
    workers: int = 1,
    store: Optional[CampaignStore] = None,
    shards: int | str = 1,
) -> List[AblationRow]:
    """Latency/CV of all four algorithms at both paper Ts values."""
    spec = startup_ablation_campaign(
        scale, seed, startup_values, length_flits, shards
    )
    return run_units(
        "ablation-startup", spec, workers=workers, store=store, shards=shards
    )


def length_ablation_campaign(
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    lengths: Tuple[int, ...] = (32, 128, 512, 2048),
    shards: int | str = 1,
) -> CampaignSpec:
    """All four algorithms at each message length."""
    units: List[UnitSpec] = []
    for length in lengths:
        units += broadcast_units(
            "ablation-length", [DIMS], algorithm_names(), length, scale,
            seed, shards=shards,
        )
    return campaign("ablation-length", units, scale, seed)


def run_message_length_ablation(
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    lengths: Tuple[int, ...] = (32, 128, 512, 2048),
    *,
    workers: int = 1,
    store: Optional[CampaignStore] = None,
    shards: int | str = 1,
) -> List[AblationRow]:
    """The paper's stated 32–2048-flit message-length range."""
    spec = length_ablation_campaign(scale, seed, lengths, shards)
    return run_units(
        "ablation-length", spec, workers=workers, store=store, shards=shards
    )


def maxdest_ablation_campaign(
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    limits: Tuple[Optional[int], ...] = (None, 32, 16, 8),
    length_flits: int = 100,
    shards: int | str = 1,
) -> CampaignSpec:
    """AB at each per-path destination bound."""
    units: List[UnitSpec] = []
    for limit in limits:
        units += broadcast_units(
            "ablation-maxdest",
            [DIMS],
            ["AB"],
            length_flits,
            scale,
            seed,
            max_destinations_per_path=limit,
            shards=shards,
        )
    return campaign("ablation-maxdest", units, scale, seed)


def run_max_destinations_ablation(
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    limits: Tuple[Optional[int], ...] = (None, 32, 16, 8),
    length_flits: int = 100,
    *,
    workers: int = 1,
    store: Optional[CampaignStore] = None,
    shards: int | str = 1,
) -> List[AblationRow]:
    """AB's per-path destination bound: long worms vs many worms."""
    spec = maxdest_ablation_campaign(scale, seed, limits, length_flits, shards)
    return run_units(
        "ablation-maxdest", spec, workers=workers, store=store, shards=shards
    )


def ports_ablation_campaign(
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    ports: Tuple[int, ...] = (1, 2, 3),
    length_flits: int = 100,
    shards: int | str = 1,
) -> CampaignSpec:
    """Every algorithm at every port budget."""
    units: List[UnitSpec] = []
    for port_count in ports:
        units += broadcast_units(
            "ablation-ports",
            [DIMS],
            algorithm_names(),
            length_flits,
            scale,
            seed,
            ports_override=port_count,
            shards=shards,
        )
    return campaign("ablation-ports", units, scale, seed)


def run_port_count_ablation(
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    ports: Tuple[int, ...] = (1, 2, 3),
    length_flits: int = 100,
    *,
    workers: int = 1,
    store: Optional[CampaignStore] = None,
    shards: int | str = 1,
) -> List[AblationRow]:
    """Every algorithm at every port budget (EDN's multiport advantage)."""
    spec = ports_ablation_campaign(scale, seed, ports, length_flits, shards)
    return run_units(
        "ablation-ports", spec, workers=workers, store=store, shards=shards
    )
