"""Metric-radius morphology checked against a brute-force Euclidean oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from defacepipe import morphology
from defacepipe.errors import EmptyMask, GridMismatch
from defacepipe.volume import BinaryMask, Volume


def brute_force_dilate(mask, spacing, radius_mm):
    """Oracle: out[i] = any input voxel within Euclidean world distance r."""
    out = np.zeros_like(mask)
    pts = np.argwhere(mask)
    sp = np.asarray(spacing, dtype=np.float64)
    idx = np.indices(mask.shape).reshape(3, -1).T
    for p in pts:
        d2 = (((idx - p) * sp) ** 2).sum(axis=1)
        out.flat[np.flatnonzero(d2 <= radius_mm**2)] = True
    return out


def test_ball_radius7_isotropic_frozen_count():
    ball = morphology.ball_structure(7.0, (1.0, 1.0, 1.0))
    assert ball.shape == (15, 15, 15)
    assert int(ball.sum()) == 1419  # brute-force offset enumeration, pinned
    assert ball[7, 7, 7]
    # symmetric under negation
    np.testing.assert_array_equal(ball, ball[::-1, ::-1, ::-1])


def test_ball_radius7_coarse_spacing():
    # 7 mm spacing: center plus the 6 face neighbors at exactly 7 mm
    ball = morphology.ball_structure(7.0, (7.0, 7.0, 7.0))
    assert int(ball.sum()) == 7


def test_ball_anisotropic_extent():
    # spacing (1,1,4): reaches 7 voxels in-plane, 1 through-plane
    ball = morphology.ball_structure(7.0, (1.0, 1.0, 4.0))
    assert ball.shape == (15, 15, 3)
    assert ball[14, 7, 1] and ball[7, 7, 2]
    assert not ball[14, 7, 2]


def test_binarise_all_zero():
    v = Volume(np.zeros((3, 3, 3), dtype=np.float32), np.eye(4))
    assert morphology.binarise(v).count() == 0


def test_binarise_strict_inequality():
    data = np.array([-1.0, 0.0, 2.0]).reshape(3, 1, 1)
    m = morphology.binarise(Volume(data, np.eye(4)), 0.0)
    np.testing.assert_array_equal(m.data.ravel(), [False, False, True])


def test_dilate_radius_zero_identity(rng):
    m = BinaryMask(rng.random((5, 5, 5)) > 0.7, np.eye(4))
    out = morphology.dilate(m, 0.0)
    np.testing.assert_array_equal(out.data, m.data)


def test_dilate_single_voxel_center():
    data = np.zeros((21, 21, 21), dtype=bool)
    data[10, 10, 10] = True
    out = morphology.dilate(BinaryMask(data, np.eye(4)), 7.0)
    assert out.count() == 1419


def test_dilate_matches_brute_force_random_masks():
    rng = np.random.default_rng(42)
    for trial in range(8):
        dims = tuple(rng.integers(6, 16, 3))
        spacing = rng.choice([1.0, 1.5, 2.0], 3)
        mask = rng.random(dims) > 0.9
        radius = float(rng.uniform(1.0, 5.0))
        m = BinaryMask(mask, np.diag([*spacing, 1.0]))
        got = morphology.dilate(m, radius).data
        want = brute_force_dilate(mask, spacing, radius)
        np.testing.assert_array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), radius=st.floats(0.0, 6.0))
def test_dilate_extensive_and_monotone(seed, radius):
    rng = np.random.default_rng(seed)
    mask = rng.random((8, 8, 8)) > 0.85
    m = BinaryMask(mask, np.eye(4))
    small = morphology.dilate(m, radius).data
    big = morphology.dilate(m, radius + 1.5).data
    assert np.all(small >= mask)       # extensivity
    assert np.all(big >= small)        # monotonicity in radius


def test_apply_mask_full_and_empty():
    data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    v = Volume(data, np.eye(4))
    full = BinaryMask(np.ones((2, 2, 2), bool), np.eye(4))
    empty = BinaryMask(np.zeros((2, 2, 2), bool), np.eye(4))
    np.testing.assert_array_equal(morphology.apply_mask(v, full).data, data)
    np.testing.assert_array_equal(morphology.apply_mask(v, empty).data, 0.0)


def test_apply_mask_half_plane_on_ramp():
    x = np.arange(6, dtype=np.float64)
    data = np.broadcast_to(x[:, None, None], (6, 4, 4)).copy()
    half = np.zeros((6, 4, 4), bool)
    half[:3] = True
    out = morphology.apply_mask(Volume(data, np.eye(4)), BinaryMask(half, np.eye(4)))
    np.testing.assert_array_equal(out.data, np.where(half, data, 0.0))


def test_apply_mask_grid_mismatch():
    v = Volume(np.zeros((3, 3, 3), dtype=np.float32), np.eye(4))
    m = BinaryMask(np.zeros((3, 3, 3), bool), np.diag([2.0, 1.0, 1.0, 1.0]))
    with pytest.raises(GridMismatch):
        morphology.apply_mask(v, m)


def test_union_identities(rng):
    m = BinaryMask(rng.random((4, 4, 4)) > 0.5, np.eye(4))
    empty = BinaryMask(np.zeros((4, 4, 4), bool), np.eye(4))
    np.testing.assert_array_equal(morphology.union(m, empty).data, m.data)
    full = morphology.union(m, BinaryMask(~m.data, m.affine))
    assert full.count() == 64


def test_union_inclusion_exclusion(rng):
    a = BinaryMask(rng.random((6, 6, 6)) > 0.6, np.eye(4))
    b = BinaryMask(rng.random((6, 6, 6)) > 0.6, np.eye(4))
    u = morphology.union(a, b)
    inter = int((a.data & b.data).sum())
    assert u.count() == a.count() + b.count() - inter


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_union_commutative_idempotent(seed):
    rng = np.random.default_rng(seed)
    a = BinaryMask(rng.random((5, 5, 5)) > 0.5, np.eye(4))
    b = BinaryMask(rng.random((5, 5, 5)) > 0.5, np.eye(4))
    np.testing.assert_array_equal(
        morphology.union(a, b).data, morphology.union(b, a).data
    )
    np.testing.assert_array_equal(morphology.union(a, a).data, a.data)


def test_largest_cc_single_component():
    data = np.zeros((6, 6, 6), bool)
    data[1:4, 1:4, 1:4] = True
    out = morphology.largest_connected_component(BinaryMask(data, np.eye(4)))
    np.testing.assert_array_equal(out.data, data)


def test_largest_cc_keeps_big_blob():
    data = np.zeros((12, 12, 12), bool)
    data[1:6, 1:6, 1:6] = True     # 125 voxels
    data[9:11, 9:11, 9:11] = True  # 8 voxels
    out = morphology.largest_connected_component(BinaryMask(data, np.eye(4)))
    assert out.count() == 125
    assert not out.data[9, 9, 9]


def test_largest_cc_tie_break_smallest_linear_index():
    # two single-voxel components; x-fastest (Fortran) order picks (1,0,0)
    data = np.zeros((3, 3, 3), bool)
    data[1, 0, 0] = True
    data[0, 0, 1] = True
    out = morphology.largest_connected_component(BinaryMask(data, np.eye(4)))
    assert out.data[1, 0, 0] and not out.data[0, 0, 1]


def test_largest_cc_empty_raises():
    with pytest.raises(EmptyMask):
        morphology.largest_connected_component(
            BinaryMask(np.zeros((3, 3, 3), bool), np.eye(4))
        )


def test_fill_holes():
    data = np.zeros((7, 7, 7), bool)
    data[1:6, 1:6, 1:6] = True
    data[3, 3, 3] = False
    out = morphology.fill_holes(BinaryMask(data, np.eye(4)))
    assert out.data[3, 3, 3]
    assert out.count() == 125


# ---------------------------------------------------------------------------
# The bounding-box crop against full-grid scipy


def full_grid_largest_component(mask):
    labels, _ = ndimage.label(mask, structure=morphology.SIX_CONNECTED)
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    candidates = np.flatnonzero(sizes == sizes.max())
    flat = labels.ravel(order="F")
    return labels == min(candidates, key=lambda lab: np.flatnonzero(flat == lab)[0])


@st.composite
def masks(draw):
    """Random, box-shaped (often touching the array's faces), single-voxel
    and empty masks on small anisotropic grids."""
    dims = draw(st.tuples(*[st.integers(3, 19)] * 3))
    spacing = draw(st.tuples(*[st.sampled_from([0.5, 0.8, 1.0, 1.5, 2.0, 3.0])] * 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "box", "single", "empty"]))
    mask = np.zeros(dims, bool)
    if kind == "random":
        mask = rng.random(dims) < draw(st.floats(0.02, 0.6))
    elif kind == "box":
        lo = [int(rng.integers(0, n)) for n in dims]
        hi = [int(rng.integers(a, n)) + 1 for a, n in zip(lo, dims)]
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        mask[box] = rng.random(mask[box].shape) < 0.85
    elif kind == "single":
        mask[tuple(int(rng.integers(0, n)) for n in dims)] = True
    return BinaryMask(mask, np.diag([*spacing, 1.0]))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(m=masks(), radius=st.one_of(st.floats(0.0, 7.0), st.sampled_from([1.0, 2.0, 3.0, 7.0])))
def test_cropped_operations_equal_full_grid(m, radius):
    """Both sides of the 125-voxel ball/distance-transform switch included."""
    data = m.data
    ball = morphology.ball_structure(radius, m.spacing)
    want_dilated = ndimage.binary_dilation(data, structure=ball) if radius > 0 else data
    want_eroded = ndimage.binary_erosion(data, structure=ball) if radius > 0 else data
    np.testing.assert_array_equal(morphology.dilate(m, radius).data, want_dilated)
    np.testing.assert_array_equal(morphology.erode(m, radius).data, want_eroded)
    np.testing.assert_array_equal(
        morphology.fill_holes(m).data,
        ndimage.binary_fill_holes(data, structure=morphology.SIX_CONNECTED),
    )
    if data.any():
        np.testing.assert_array_equal(
            morphology.largest_connected_component(m).data,
            full_grid_largest_component(data),
        )


def _fill(data):
    out = morphology.fill_holes(BinaryMask(data, np.eye(4))).data
    want = ndimage.binary_fill_holes(data, structure=morphology.SIX_CONNECTED)
    np.testing.assert_array_equal(out, want)
    return out


def test_fill_holes_cavity_open_through_bounding_box_face_stays():
    data = np.zeros((9, 9, 9), bool)
    data[2:7, 2:7, 2:7] = True
    data[3:6, 3:6, 3:7] = False  # a cup: the cavity reaches the box's top face
    np.testing.assert_array_equal(_fill(data), data)


def test_fill_holes_island_inside_cavity_stays():
    data = np.zeros((13, 13, 13), bool)
    data[1:12, 1:12, 1:12] = True
    data[2:11, 2:11, 2:11] = False  # the cavity
    data[5:8, 5:8, 5:8] = True      # an island in it, with a hole of its own
    data[6, 6, 6] = False
    out = _fill(data)
    assert out[1:12, 1:12, 1:12].all()
    assert out.sum() == 11**3


def test_fill_holes_cavity_touching_array_border_stays():
    data = np.zeros((8, 8, 8), bool)
    data[0:5, 0:5, 0:5] = True
    data[0:2, 1:4, 1:4] = False  # enclosed inside the array, open to its x = 0 face
    np.testing.assert_array_equal(_fill(data), data)

