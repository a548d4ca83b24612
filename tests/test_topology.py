"""Unit + property tests for the mesh topology."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import Mesh

mesh_dims = st.lists(st.integers(2, 5), min_size=1, max_size=3).map(tuple)


# ---------------------------------------------------------------- Mesh
def test_mesh_num_nodes():
    assert Mesh((4, 4, 4)).num_nodes == 64
    assert Mesh((16, 16, 8)).num_nodes == 2048


def test_mesh_neighbors_interior_and_corner():
    m = Mesh((4, 4))
    assert sorted(m.neighbors((1, 1))) == [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert sorted(m.neighbors((0, 0))) == [(0, 1), (1, 0)]


def test_mesh_channel_count():
    # A k1 x k2 mesh has 2*(k1-1)*k2 + 2*k1*(k2-1) directed channels.
    m = Mesh((4, 5))
    assert len(list(m.channels())) == 2 * 3 * 5 + 2 * 4 * 4


def test_mesh_degree_histogram_3d():
    hist = Mesh((4, 4, 4)).degree_histogram()
    assert hist[3] == 8          # corners
    assert hist[6] == 2 * 2 * 2  # interior
    assert sum(hist.values()) == 64


def test_mesh_distance_and_diameter():
    m = Mesh((4, 4, 4))
    assert m.distance((0, 0, 0), (3, 3, 3)) == 9
    assert m.diameter() == 9


def test_mesh_contains():
    m = Mesh((4, 4))
    assert m.contains((3, 3))
    assert not m.contains((4, 0))
    assert not m.contains((0, 0, 0))


def test_mesh_corners():
    assert len(Mesh((4, 4, 4)).corners()) == 8
    assert len(Mesh((4, 4)).corners()) == 4
    assert (0, 0, 0) in Mesh((4, 4, 4)).corners()


def test_mesh_nearest_and_opposite_corner():
    m = Mesh((8, 8))
    assert m.nearest_corner((1, 6)) == (0, 7)
    assert m.opposite_corner((0, 7)) == (7, 0)
    assert m.nearest_corner((3, 3)) == (0, 0)


def test_mesh_plane_and_line():
    m = Mesh((4, 4, 4))
    plane = m.plane(axis=2, value=1)
    assert len(plane) == 16
    assert all(c[2] == 1 for c in plane)
    line = m.line((1, 2, 3), axis=0)
    assert line == [(x, 2, 3) for x in range(4)]
    with pytest.raises(ValueError):
        m.plane(axis=3, value=0)
    with pytest.raises(ValueError):
        m.plane(axis=0, value=9)


@given(mesh_dims)
@settings(max_examples=25, deadline=None)
def test_mesh_channel_symmetry(dims):
    m = Mesh(dims)
    for u in m.nodes():
        for v in m.neighbors(u):
            assert u in m.neighbors(v)


@given(mesh_dims)
@settings(max_examples=25, deadline=None)
def test_mesh_neighbors_are_distance_one(dims):
    m = Mesh(dims)
    for u in m.nodes():
        for v in m.neighbors(u):
            assert m.distance(u, v) == 1

