"""Unit tests for path objects, straight walks and CPR control fields."""

import pytest

from repro.network import ControlField, Mesh
from repro.network.coordinates import row_major_strides
from repro.routing import Path
from repro.routing.walks import straight_walks


# ---------------------------------------------------------------- Path
def test_path_defaults_unicast_delivery():
    p = Path([(0, 0), (1, 0), (2, 0)])
    assert p.deliveries == frozenset({(2, 0)})
    assert p.hop_count == 2
    assert p.source == (0, 0)
    assert p.terminus == (2, 0)


def test_path_explicit_deliveries():
    p = Path([(0, 0), (1, 0), (2, 0)], deliveries=[(1, 0), (2, 0)])
    assert p.deliveries == frozenset({(1, 0), (2, 0)})


def test_path_rejects_off_path_delivery():
    with pytest.raises(ValueError):
        Path([(0, 0), (1, 0)], deliveries=[(5, 5)])


def test_path_rejects_source_delivery():
    with pytest.raises(ValueError):
        Path([(0, 0), (1, 0)], deliveries=[(0, 0)])


def test_path_rejects_empty():
    with pytest.raises(ValueError):
        Path([])


def test_path_channels():
    p = Path([(0, 0), (1, 0), (1, 1)])
    assert list(p.channels()) == [((0, 0), (1, 0)), ((1, 0), (1, 1))]


def test_path_validate_against_topology():
    m = Mesh((4, 4))
    Path([(0, 0), (1, 0), (1, 1)]).validate(m)  # ok
    with pytest.raises(ValueError):
        Path([(0, 0), (2, 0)]).validate(m)  # not adjacent
    with pytest.raises(ValueError):
        Path([(0, 0), (0, 4)]).validate(m)  # outside


def test_path_rejects_channel_reuse():
    m = Mesh((4, 4))
    p = Path([(0, 0), (1, 0), (0, 0), (1, 0)])
    with pytest.raises(ValueError, match="reuses"):
        p.validate(m)


def test_path_is_minimal():
    m = Mesh((4, 4))
    assert Path([(0, 0), (1, 0), (2, 0)]).is_minimal(m)
    assert not Path([(0, 0), (0, 1), (1, 1), (1, 0), (2, 0)]).is_minimal(m)


# ----------------------------------------------------------- straight walks
def walk_coordinates(mesh, ptr, node):
    return [
        tuple(mesh.coordinate(int(i)) for i in node[lo:hi])
        for lo, hi in zip(ptr[:-1], ptr[1:])
    ]


def test_straight_walks_forward_and_backward():
    m = Mesh((4, 4))
    _, sy = row_major_strides(m.dims)
    ptr, node = straight_walks(
        [m.index((0, 2)), m.index((0, 0))], [-sy, sy], [2, 3]
    )
    assert walk_coordinates(m, ptr, node) == [
        ((0, 2), (0, 1), (0, 0)),
        ((0, 0), (0, 1), (0, 2), (0, 3)),
    ]


def test_straight_walks_along_rows_and_columns():
    m = Mesh((4, 4))
    sx, sy = row_major_strides(m.dims)
    ptr, node = straight_walks([m.index((0, 3)), m.index((3, 0))], [sx, sy], 2)
    assert walk_coordinates(m, ptr, node) == [
        ((0, 3), (1, 3), (2, 3)),
        ((3, 0), (3, 1), (3, 2)),
    ]


# ---------------------------------------------------------- control fields
def test_control_field_semantics():
    assert not ControlField.PASS.delivers
    assert ControlField.PASS.forwards
    assert ControlField.RECEIVE.delivers
    assert not ControlField.RECEIVE.forwards
    assert ControlField.PASS_AND_RECEIVE.delivers
    assert ControlField.PASS_AND_RECEIVE.forwards
    assert ControlField.RECEIVE_AND_REPLICATE.delivers
    assert ControlField.RECEIVE_AND_REPLICATE.forwards


def test_control_field_is_two_bits():
    assert {f.value for f in ControlField} == {0b00, 0b01, 0b10, 0b11}
