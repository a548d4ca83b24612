"""Recursive Doubling (RD) — Barnett et al. [2].

The classic dimension-sweep broadcast: dimensions are processed in
order, and inside each dimension every holder repeatedly halves the
line segment it is responsible for, sending one unicast to the node at
its own relative position in the other half.  ``⌈log2 k⌉`` steps per
radix-``k`` dimension, so ``log2 N`` steps on power-of-two meshes —
the step count the paper quotes.

All sends are single-destination worms on dimension-ordered routes
(each is in fact a straight line within one dimension).  RD needs only
one injection port; the paper notes it cannot exploit multiport
routers.
"""

from __future__ import annotations

import math
from typing import List

from repro.core.base import BroadcastAlgorithm
from repro.core.schedule import BroadcastSchedule, BroadcastStep, PathSend
from repro.network.coordinates import Coordinate
from repro.network.message import ControlField
from repro.routing.paths import Path

__all__ = ["RecursiveDoubling"]


class RecursiveDoubling(BroadcastAlgorithm):
    """RD broadcast on an n-dimensional mesh.

    Examples
    --------
    >>> from repro.network import Mesh
    >>> rd = RecursiveDoubling(Mesh((8, 8, 8)))
    >>> rd.step_count()
    9
    >>> rd.schedule((0, 0, 0)).num_steps
    9
    """

    name = "RD"
    ports_required = 1
    adaptive = False

    def step_count(self) -> int:
        return sum(
            math.ceil(math.log2(d)) for d in self.topology.dims if d > 1
        )

    def build_schedule(self, source: Coordinate) -> BroadcastSchedule:
        dims = self.topology.dims
        steps: List[BroadcastStep] = []
        holders: List[Coordinate] = [source]
        step_index = 0
        for axis, radix in enumerate(dims):
            if radix == 1:
                continue
            levels = math.ceil(math.log2(radix))
            level_sends: List[List[PathSend]] = [[] for _ in range(levels)]
            for holder in holders:
                self._cover_line(holder, axis, 0, radix, 0, level_sends)
            for sends in level_sends:
                step_index += 1
                steps.append(BroadcastStep(index=step_index, sends=sends))
            holders = [
                h[:axis] + (v,) + h[axis + 1 :] for h in holders for v in range(radix)
            ]
        return BroadcastSchedule(algorithm=self.name, source=source, steps=steps)

    def _cover_line(
        self,
        holder: Coordinate,
        axis: int,
        lo: int,
        hi: int,
        level: int,
        out: List[List[PathSend]],
    ) -> None:
        """Recursive halving of positions ``[lo, hi)`` along ``axis``.

        ``holder`` owns the segment and holds the message.  The segment
        splits into a left part of ``⌈n/2⌉`` and a right part of
        ``⌊n/2⌋`` positions; the holder unicasts to the node at its own
        relative offset in the opposite part (no send when the opposite
        part has no such offset), then both recurse.
        """
        n = hi - lo
        if n <= 1:
            return
        half = (n + 1) // 2  # size of the left part
        pos = holder[axis]
        if pos < lo + half:
            # Mirror into the (possibly smaller) right part; when the
            # exact mirror does not exist, the rightmost node stands in
            # so the part still gains a holder.
            partner_pos = min(pos + half, hi - 1)
        else:
            partner_pos = pos - half
        head, tail = holder[:axis], holder[axis + 1 :]
        partner = head + (partner_pos,) + tail
        step = 1 if partner_pos > pos else -1
        nodes = [
            head + (v,) + tail for v in range(pos, partner_pos + step, step)
        ]
        out[level].append(
            PathSend(
                source=holder,
                deliveries=frozenset({partner}),
                path=Path(nodes, deliveries=[partner]),
                control=ControlField.RECEIVE,
            )
        )
        left = (lo, lo + half)
        right = (lo + half, hi)
        own_part, other_part = (
            (left, right) if pos < lo + half else (right, left)
        )
        self._cover_line(holder, axis, own_part[0], own_part[1], level + 1, out)
        self._cover_line(partner, axis, other_part[0], other_part[1], level + 1, out)
