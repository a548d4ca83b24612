"""Declarative campaign specifications with stable content hashing.

A :class:`UnitSpec` describes one independent simulation unit — a
single grid point of algorithm × dims × message length × load × seed ×
replication, plus any extra parameters the unit runner needs.  Units
carry *no* state: two specs with the same fields hash identically
regardless of which process (or which run) created them, which is what
makes the JSONL result store resumable and parallel execution
byte-identical to serial.

A :class:`CampaignSpec` is an ordered collection of units; aggregation
and the final row order follow the declaration order, never the
completion order.

Usage::

    unit = UnitSpec(
        experiment="fig1", kind="broadcast", algorithm="DB",
        dims=(8, 8, 8), length_flits=100, seed=0, replication=3,
        params=freeze_params(startup_latency=1.5),
    )
    unit.unit_hash        # '9f3b...' — stable content address
    spec = CampaignSpec(name="fig1-quick-s0", seed=0, units=(unit,))
    spec.pending(["9f3b..."])   # units not yet completed, in order

The hash deliberately covers only what changes the unit's *result*:
scale bookkeeping like the total replication count stays out, so the
same grid point computed for a ``quick`` campaign is byte-identical —
hash included — when a ``full`` campaign needs it (the basis of
cross-scale caching).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["UnitSpec", "CampaignSpec", "freeze_params"]


def freeze_params(**params: Any) -> Tuple[Tuple[str, Any], ...]:
    """Canonicalise extra unit parameters.

    ``None`` values are dropped (absent and ``None`` mean the same
    thing to :meth:`UnitSpec.param`) and the remainder is sorted by
    key, so the same logical parameters always produce the same spec
    hash.
    """
    return tuple(sorted((k, v) for k, v in params.items() if v is not None))


def _canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class UnitSpec:
    """One independently dispatchable simulation unit.

    Parameters
    ----------
    experiment:
        Experiment id the unit belongs to ("fig1", "table2", ...).
    kind:
        Unit-runner key ("broadcast", "traffic"); see
        :mod:`repro.campaigns.units`.
    algorithm:
        Broadcast algorithm under test.
    dims:
        Mesh dimensions.
    length_flits:
        Message length ``L``.
    seed:
        The campaign's *master* seed.  Units derive their own streams
        from it (via named ``RandomStreams``), never from shared state.
    replication:
        Replication index within the unit's grid cell (e.g. which of
        the cell's random sources this unit measures).
    load:
        Traffic load for "traffic" units (``None`` otherwise).
    params:
        Frozen extra parameters (see :func:`freeze_params`).
    """

    experiment: str
    kind: str
    algorithm: str
    dims: Tuple[int, ...]
    length_flits: int
    seed: int
    replication: int = 0
    load: Optional[float] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        """Look up an extra parameter (absent → ``default``)."""
        return dict(self.params).get(name, default)

    @property
    def shards(self) -> int:
        """Declared shard count (1 = the unsharded protocol).

        A unit with ``shards=K > 1`` is a *parent*: it never executes
        directly but fans out into K shard units and a deterministic
        merge — see :mod:`repro.campaigns.shards` for the plan/reduce
        machinery and :attr:`shard_index` for the other side of the
        relationship.
        """
        return int(self.param("shards", 1))

    @property
    def shard_index(self) -> Optional[int]:
        """This unit's shard index, or ``None`` when it is no shard."""
        index = self.param("shard")
        return None if index is None else int(index)

    def as_dict(self) -> Dict[str, Any]:
        """Canonical plain-dict form (JSON-serialisable)."""
        data: Dict[str, Any] = {
            "experiment": self.experiment,
            "kind": self.kind,
            "algorithm": self.algorithm,
            "dims": list(self.dims),
            "length_flits": self.length_flits,
            "seed": self.seed,
            "replication": self.replication,
        }
        if self.load is not None:
            data["load"] = self.load
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "UnitSpec":
        """Inverse of :meth:`as_dict`."""
        return cls(
            experiment=data["experiment"],
            kind=data["kind"],
            algorithm=data["algorithm"],
            dims=tuple(int(d) for d in data["dims"]),
            length_flits=int(data["length_flits"]),
            seed=int(data["seed"]),
            replication=int(data.get("replication", 0)),
            load=data.get("load"),
            params=freeze_params(**data.get("params", {})),
        )

    # Content keys are computed once per object: a spec is a value, so
    # ``cached_property`` (which writes the instance ``__dict__``
    # directly, frozen or not) never goes stale.  Field-based eq/hash/
    # repr ignore the cache; ``replace`` builds a fresh, uncached spec.
    @cached_property
    def unit_hash(self) -> str:
        """Stable 16-hex-digit content hash of the unit."""
        digest = hashlib.sha256(_canonical_json(self.as_dict()).encode())
        return digest.hexdigest()[:16]

    @cached_property
    def cell_key(self) -> str:
        """Hash-independent grid-cell identity (the spec minus its
        replication index); replications of one cell aggregate together."""
        data = self.as_dict()
        data.pop("replication", None)
        return _canonical_json(data)

    def __str__(self) -> str:  # pragma: no cover - display aid
        dims = "x".join(map(str, self.dims))
        load = f" load={self.load:g}" if self.load is not None else ""
        return (
            f"{self.experiment}/{self.algorithm}@{dims}"
            f" L={self.length_flits}{load} r{self.replication}"
        )


@dataclass(frozen=True)
class CampaignSpec:
    """An ordered grid of units plus campaign identity.

    Unit hashes must be unique — a duplicated unit would silently
    collapse in the result store.
    """

    name: str
    seed: int
    units: Tuple[UnitSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "units", tuple(self.units))
        hashes = [u.unit_hash for u in self.units]
        if len(set(hashes)) != len(hashes):
            seen: Set[str] = set()
            dup = next(h for h in hashes if h in seen or seen.add(h))
            raise ValueError(f"duplicate unit in campaign {self.name!r}: {dup}")

    def __len__(self) -> int:
        return len(self.units)

    @property
    def campaign_hash(self) -> str:
        """Content hash over the ordered unit hashes."""
        digest = hashlib.sha256(
            "\n".join(u.unit_hash for u in self.units).encode()
        )
        return digest.hexdigest()[:16]

    def unit_hashes(self) -> List[str]:
        """Hashes of all units, in declaration order."""
        return [u.unit_hash for u in self.units]

    def pending(self, completed: Iterable[str]) -> List[UnitSpec]:
        """Units whose hash is not in ``completed``, in order."""
        done = set(completed)
        return [u for u in self.units if u.unit_hash not in done]

    def with_seed(self, seed: int) -> "CampaignSpec":
        """The same grid re-keyed to a different master seed."""
        name = self.name
        if name.endswith(f"-s{self.seed}"):
            name = name[: -len(f"-s{self.seed}")] + f"-s{seed}"
        return CampaignSpec(
            name=name,
            seed=seed,
            units=tuple(replace(u, seed=seed) for u in self.units),
        )
