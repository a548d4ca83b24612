"""White-box tests of the algorithm constructions.

These pin the *internal* structure the algorithm modules' docstrings
document (``repro.core.edn``, ``repro.core.deterministic_broadcast``
and ``repro.core.adaptive_broadcast``): EDN's three phases, DB's
corner/pillar/row/column anatomy, and AB's control-field usage — so a
refactor that keeps coverage but breaks the construction is caught.
"""

import math

import pytest

from repro.core import (
    AdaptiveBroadcast,
    DeterministicBroadcast,
    ExtendedDominatingNodes,
    RecursiveDoubling,
)
from repro.core.schedule import BroadcastSchedule, BroadcastStep, PathSend
from repro.experiments.common import random_sources
from repro.network import ControlField, Mesh
from repro.routing.paths import Path


# ----------------------------------------------------------------- EDN
def test_edn_phase_steps_partition_total():
    algo = ExtendedDominatingNodes(Mesh((16, 16, 8)))
    a, b, c = algo.phase_steps()
    assert (a, b, c) == (2, 3, 2)
    assert algo.step_count() == a + b + c


def test_edn_phase_a_stays_in_source_plane():
    mesh = Mesh((16, 16, 4))
    algo = ExtendedDominatingNodes(mesh)
    a_steps, _, _ = algo.phase_steps()
    schedule = algo.schedule((5, 9, 2))
    for step in schedule.steps[:a_steps]:
        for send in step.sends:
            assert send.source[2] == 2
            for node in send.deliveries:
                assert node[2] == 2, "phase A must not leave the source plane"


def test_edn_phase_b_moves_only_along_z():
    mesh = Mesh((8, 8, 8))
    algo = ExtendedDominatingNodes(mesh)
    a_steps, b_steps, _ = algo.phase_steps()
    schedule = algo.schedule((1, 1, 1))
    for step in schedule.steps[a_steps : a_steps + b_steps]:
        for send in step.sends:
            (dest,) = send.deliveries
            assert (send.source[0], send.source[1]) == (dest[0], dest[1])
            assert send.source[2] != dest[2]


def test_edn_phase_c_stays_inside_blocks():
    mesh = Mesh((8, 8, 4))
    algo = ExtendedDominatingNodes(mesh)
    a_steps, b_steps, _ = algo.phase_steps()
    schedule = algo.schedule((0, 0, 0))
    for step in schedule.steps[a_steps + b_steps :]:
        for send in step.sends:
            (dest,) = send.deliveries
            assert send.source[2] == dest[2]
            assert send.source[0] // 4 == dest[0] // 4
            assert send.source[1] // 4 == dest[1] // 4


# ------------------------------------------------------------------ DB
def test_db_step2_uses_replicating_control_field():
    schedule = DeterministicBroadcast(Mesh((4, 4, 4))).schedule((1, 1, 1))
    pillar_step = schedule.steps[1]
    for send in pillar_step.sends:
        assert send.control is ControlField.RECEIVE_AND_REPLICATE
        # Pillars run along z from the two mesh corners.
        assert (send.source[0], send.source[1]) in {(0, 0), (3, 3)}


def test_db_step3_covers_boundary_rows_only():
    mesh = Mesh((6, 6, 3))
    schedule = DeterministicBroadcast(mesh).schedule((2, 2, 1))
    row_step = schedule.steps[2]
    for send in row_step.sends:
        for node in send.deliveries:
            assert node[1] in (0, 5), "step 3 deliveries must sit on y-boundary rows"


def test_db_step4_fills_interior_columns():
    mesh = Mesh((6, 6, 3))
    schedule = DeterministicBroadcast(mesh).schedule((2, 2, 1))
    column_step = schedule.steps[3]
    for send in column_step.sends:
        assert send.source[1] in (0, 5)
        for node in send.deliveries:
            assert 1 <= node[1] <= 4


def test_db_interior_split_is_balanced():
    mesh = Mesh((4, 8, 2))
    schedule = DeterministicBroadcast(mesh).schedule((0, 0, 0))
    south = north = 0
    for send in schedule.steps[3].sends:
        if send.source[1] == 0:
            south += len(send.deliveries)
        else:
            north += len(send.deliveries)
    assert abs(south - north) <= mesh.dims[0] * mesh.dims[2]


# ------------------------------------------------------------------ AB
def test_ab_control_fields_follow_the_paper():
    """Step 1 worms carry 10, step 2 pillars carry 11 (paper §2)."""
    schedule = AdaptiveBroadcast(Mesh((8, 8, 4))).schedule((2, 2, 1))
    for send in schedule.steps[0].sends:
        assert send.control is ControlField.PASS_AND_RECEIVE  # 10
    for send in schedule.steps[1].sends:
        assert send.control is ControlField.RECEIVE_AND_REPLICATE  # 11


def test_ab_pillars_start_from_the_step1_corners():
    mesh = Mesh((8, 8, 4))
    schedule = AdaptiveBroadcast(mesh).schedule((1, 6, 2))
    step1_targets = {
        d for send in schedule.steps[0].sends for d in send.deliveries
    }
    pillar_sources = {send.source for send in schedule.steps[1].sends}
    assert pillar_sources <= step1_targets | {(1, 6, 2)}


def test_ab_step3_halves_split_by_rows():
    mesh = Mesh((6, 6, 2))
    schedule = AdaptiveBroadcast(mesh).schedule((1, 1, 0))
    half = mesh.dims[1] // 2
    for send in schedule.steps[2].sends:
        rows = {n[1] for n in send.deliveries}
        assert rows <= set(range(half)) or rows <= set(range(half, 6))


def test_ab_snake_covers_exactly_its_half():
    mesh = Mesh((4, 4, 1))
    schedule = AdaptiveBroadcast(mesh).schedule((0, 0, 0))
    step3 = schedule.steps[-1]
    covered = {n for send in step3.sends for n in send.deliveries}
    # Everything except the two corners and the source.
    corners_and_source = {(0, 0, 0), (3, 3, 0)}
    expected = {n for n in mesh.nodes()} - corners_and_source
    assert covered == expected


# ------------------------------------------------------------------ RD
def test_rd_covers_dimensions_in_order():
    mesh = Mesh((4, 4, 4))
    schedule = RecursiveDoubling(mesh).schedule((0, 0, 0))
    # Steps 1-2 move along x only, 3-4 along y, 5-6 along z.
    for index, axis in [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (5, 2)]:
        for send in schedule.steps[index].sends:
            (dest,) = send.deliveries
            moved = [i for i in range(3) if dest[i] != send.source[i]]
            assert moved == [axis], (index, send.source, dest)


def test_rd_line_sends_shrink_within_dimension():
    """First halving jumps half the line, later ones shrink to 1 hop."""
    schedule = RecursiveDoubling(Mesh((8,))).schedule((0,))
    jumps_per_step = []
    for step in schedule.steps:
        jumps = [
            abs(next(iter(send.deliveries))[0] - send.source[0])
            for send in step.sends
        ]
        jumps_per_step.append(max(jumps))
    assert jumps_per_step == [4, 2, 1]


class _TwoStepRD(RecursiveDoubling):
    """RD as first written: holder by holder, one coordinate path a send.

    Each send is the straight run of nodes from the holder to its
    partner, delivering to the partner alone.  The schedule must not
    depend on RD now emitting its sends as one integer table per step.
    """

    def build_schedule(self, source):
        steps = []
        holders = [source]
        for axis, radix in enumerate(self.topology.dims):
            if radix == 1:
                continue
            levels = math.ceil(math.log2(radix))
            level_sends = [[] for _ in range(levels)]
            for holder in holders:
                self._cover_line(holder, axis, 0, radix, 0, level_sends)
            for sends in level_sends:
                steps.append(BroadcastStep(index=len(steps) + 1, sends=sends))
            holders = [
                h[:axis] + (v,) + h[axis + 1 :] for h in holders for v in range(radix)
            ]
        return BroadcastSchedule(algorithm=self.name, source=source, steps=steps)

    def _cover_line(self, holder, axis, lo, hi, level, out):
        n = hi - lo
        if n <= 1:
            return
        half = (n + 1) // 2
        pos = holder[axis]
        if pos < lo + half:
            partner_pos = min(pos + half, hi - 1)
        else:
            partner_pos = pos - half
        partner = holder[:axis] + (partner_pos,) + holder[axis + 1 :]
        step = 1 if partner_pos > pos else -1
        nodes = [
            holder[:axis] + (v,) + holder[axis + 1 :]
            for v in range(pos, partner_pos + step, step)
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


@pytest.mark.parametrize(
    "dims", [(8,), (4, 4), (5, 3), (3, 5, 7), (8, 8, 8), (16, 16, 16)]
)
def test_rd_schedule_matches_the_two_step_path_construction(dims):
    mesh = Mesh(dims)
    for source in random_sources(dims, 3, seed=5):
        expected = _TwoStepRD(mesh).schedule(source)
        assert RecursiveDoubling(mesh).schedule(source) == expected, source
