"""Channel fault injection.

The paper cites broadcast under dynamic faults (Dobrev & Vrto [26]) as
related work; this module provides the machinery to study it: mark
channels faulty (statically or by a random process), and let adaptive
routing exercise its alternative paths while deterministic routing
surfaces :class:`FaultyChannelError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Set, Tuple

from repro.network.coordinates import Coordinate

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.channel import Channel
    from repro.network.network import NetworkSimulator

__all__ = ["FaultyChannelError", "FaultModel"]

ChannelId = Tuple[Coordinate, Coordinate]


class FaultyChannelError(RuntimeError):
    """A worm's deterministic route hit a faulty channel."""

    def __init__(self, channel: "Channel"):
        super().__init__(f"channel {channel.src} -> {channel.dst} is faulty")
        self.channel = channel


class FaultModel:
    """Inject and clear channel faults on a network.

    Parameters
    ----------
    network:
        The simulator whose channels are affected.
    symmetric:
        When true (default), faulting ``u → v`` also faults ``v → u`` —
        the usual broken-physical-link model.
    """

    def __init__(self, network: "NetworkSimulator", symmetric: bool = True):
        self.network = network
        self.symmetric = symmetric
        self._faulted: Set[ChannelId] = set()

    @property
    def faulted_channels(self) -> Set[ChannelId]:
        """Currently faulty directed channels."""
        return set(self._faulted)

    def _ids(self, u: Coordinate, v: Coordinate) -> List[ChannelId]:
        ids: List[ChannelId] = [(tuple(u), tuple(v))]
        if self.symmetric:
            ids.append((tuple(v), tuple(u)))
        return ids

    def fail_channel(self, u: Coordinate, v: Coordinate) -> None:
        """Mark the channel (pair) between ``u`` and ``v`` faulty."""
        for cid in self._ids(u, v):
            channel = self.network.channels.get(cid)
            if channel is None:
                raise KeyError(f"no channel {cid[0]} -> {cid[1]}")
            channel.faulty = True
            self._faulted.add(cid)

    def repair_channel(self, u: Coordinate, v: Coordinate) -> None:
        """Clear the fault on the channel (pair) between ``u`` and ``v``."""
        for cid in self._ids(u, v):
            channel = self.network.channels.get(cid)
            if channel is None:
                raise KeyError(f"no channel {cid[0]} -> {cid[1]}")
            channel.faulty = False
            self._faulted.discard(cid)

    def repair_all(self) -> None:
        """Clear every injected fault."""
        for cid in list(self._faulted):
            self.network.channels[cid].faulty = False
        self._faulted.clear()

    def fail_random_links(
        self, count: int, rng_stream: str = "faults"
    ) -> List[ChannelId]:
        """Fault ``count`` distinct links chosen uniformly at random.

        Returns the (directed) ids of the primary channels failed.
        Links are enumerated from the topology, so only the channels
        actually failed get built on a lazily built network.
        """
        links = sorted(
            {tuple(sorted(link)) for link in self.network.topology.channels()}
        )
        if count > len(links):
            raise ValueError(f"only {len(links)} links exist, cannot fail {count}")
        rng = self.network.random[rng_stream]
        chosen_idx = rng.choice(len(links), size=count, replace=False)
        failed: List[ChannelId] = []
        for i in chosen_idx:
            u, v = links[int(i)]
            self.fail_channel(u, v)
            failed.append((u, v))
        return failed

    def healthy_neighbors(self, coord: Coordinate) -> Iterable[Coordinate]:
        """Neighbours of ``coord`` reachable over non-faulty channels."""
        for v in self.network.topology.neighbors(coord):
            if not self.network.channel(coord, v).faulty:
                yield v
