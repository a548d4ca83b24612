"""Interconnection-network substrate.

Models the hardware the paper simulates: k-ary n-dimensional meshes,
unidirectional physical channels with single FIFO queues, nodes with a
configurable number of injection ports, and wormhole-switched path
transmission with coded-path (multidestination) delivery.
"""

from repro.network.coordinates import (
    Coordinate,
    add,
    chebyshev_distance,
    coordinate_iter,
    from_index,
    manhattan_distance,
    to_index,
)
from repro.network.topology import Mesh, Topology
from repro.network.channel import Channel, ChannelTiming
from repro.network.message import Message, MessageKind, ControlField
from repro.network.node import Node
from repro.network.network import NetworkSimulator, NetworkConfig
from repro.network.wormhole import PathTransmission, TransmissionResult
from repro.network.faults import FaultModel, FaultyChannelError

__all__ = [
    "Channel",
    "ChannelTiming",
    "ControlField",
    "Coordinate",
    "FaultModel",
    "FaultyChannelError",
    "Mesh",
    "Message",
    "MessageKind",
    "NetworkConfig",
    "NetworkSimulator",
    "Node",
    "PathTransmission",
    "Topology",
    "TransmissionResult",
    "add",
    "chebyshev_distance",
    "coordinate_iter",
    "from_index",
    "manhattan_distance",
    "to_index",
]
