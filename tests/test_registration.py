"""MI metric oracles and recovery of known maps."""

import numpy as np
import pytest
from scipy import ndimage

from defacepipe import registration, synthetic
from defacepipe.errors import NoOverlap
from defacepipe.geometry import affine_matrix, invert, translation
from defacepipe.volume import Volume
from defacepipe.registration import (
    RegistrationConfig,
    _downsample,
    _level_cost,
    _pad,
    _trilinear,
    _UNITS,
    mutual_information,
    parzen_histogram,
    prepare,
    register_affine,
    robust_range,
)

# Frozen analytic values for the 2x2 histogram examples.
LN2 = 0.6931471805599453
MI_042 = 0.19274475702175753  # 2*0.4*ln(0.4/0.25) + 2*0.1*ln(0.1/0.25)


def test_mi_diagonal_is_ln2():
    counts = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert mutual_information(counts) == pytest.approx(LN2, abs=1e-12)


def test_mi_product_is_zero():
    p = np.outer([0.3, 0.7], [0.6, 0.4])
    assert abs(mutual_information(p)) < 1e-12


def test_mi_mixed_frozen_value():
    counts = np.array([[0.4, 0.1], [0.1, 0.4]])
    assert mutual_information(counts) == pytest.approx(MI_042, abs=1e-12)


def test_mi_nonnegative_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        assert mutual_information(rng.random((8, 8))) >= 0.0


def test_mi_empty_histogram():
    with pytest.raises(NoOverlap):
        mutual_information(np.zeros((2, 2)))


def test_robust_range_ignores_outliers():
    data = np.zeros(1000)
    data[:500] = 100.0
    data[0] = 1e9
    lo, hi = robust_range(data)
    assert hi < 1e6


def test_parzen_histogram_two_valued_self():
    values = np.zeros(64)
    values[:32] = 100.0
    fixed_bins = (values > 50).astype(np.intp)
    counts = parzen_histogram(fixed_bins, values, (0.0, 100.0), 2)
    p = counts / counts.sum()
    assert p[0, 0] == pytest.approx(0.5)
    assert p[1, 1] == pytest.approx(0.5)
    assert p[0, 1] == p[1, 0] == 0.0


def test_parzen_histogram_constant_moving_single_column():
    rng = np.random.default_rng(3)
    fixed_bins = rng.integers(0, 4, 64)
    # 5.0 sits on the center of bin 2 of [0, 8); 100.0 clamps to the last bin.
    for value, column in ((5.0, 2), (100.0, 3)):
        counts = parzen_histogram(fixed_bins, np.full(64, value), (0.0, 8.0), 4)
        nz_cols = np.flatnonzero(counts.sum(axis=0) > 0)
        np.testing.assert_array_equal(nz_cols, [column])


def brute_force_parzen_histogram(fixed_bins, moving_values, mrange, bins):
    """Independent scalar tally with the triangular (linear B-spline) kernel:
    bin k, centered at (k + 0.5) / bins of the range, takes weight
    max(0, 1 - |pos - k|) of each value, its position clamped to the bins."""
    counts = np.zeros((bins, bins))
    lo, hi = mrange
    for fb, val in zip(fixed_bins, moving_values):
        pos = (float(val) - lo) / (hi - lo) * bins - 0.5
        pos = min(max(pos, 0.0), bins - 1.0)
        for k in range(bins):
            counts[fb, k] += max(0.0, 1.0 - abs(pos - k))
    return counts


def test_parzen_histogram_matches_brute_force():
    rng = np.random.default_rng(17)
    fixed_bins = rng.integers(0, 4, 200)
    # Some values fall outside the range, to exercise the clamping.
    moving = rng.uniform(-20.0, 120.0, 200)
    got = parzen_histogram(fixed_bins, moving, (0.0, 100.0), 4)
    want = brute_force_parzen_histogram(fixed_bins, moving, (0.0, 100.0), 4)
    np.testing.assert_allclose(got, want, atol=1e-9)
    assert got.sum() == pytest.approx(200.0, abs=1e-9)


def test_mi_invariant_under_affine_intensity_remap():
    rng = np.random.default_rng(23)
    fixed_bins = rng.integers(0, 8, 512)
    moving = rng.random(512) * 100
    remapped = moving * 3.0 + 50.0
    mi = []
    for values in (moving, remapped):
        mrange = robust_range(values)
        counts = parzen_histogram(fixed_bins, values, mrange, 8)
        mi.append(mutual_information(counts))
    assert mi[0] == pytest.approx(mi[1], abs=1e-9)


def boundary_coords(dims, rng, n=400):
    """Voxel coordinates in [0, dims - 1] (3, m): random points, integer
    points, the far corner, points on every face, and points on every
    dims - 1 plane at integer and fractional positions.

    Also points below 0.5 with all mantissa bits set: only there does the
    upper weight 1 - (1 - t) differ from t (uniform draws alone have none)."""
    hi = np.asarray(dims, dtype=np.float64).reshape(3, 1) - 1.0
    inside = rng.uniform(0.0, 1.0, (3, n)) * hi
    fine = rng.uniform(0.0, 1.5, (3, n)) / 3.0
    parts = [inside, fine, np.floor(inside), hi, np.zeros((3, 1))]
    for axis in range(3):
        for value in (0.0, hi[axis, 0]):
            face = inside.copy()
            face[axis] = value
            parts += [face, np.floor(face)]
    return np.concatenate(parts, axis=1)


@pytest.mark.parametrize("dims", [(5, 6, 7), (17, 23, 31), (7, 6, 5)])
@pytest.mark.parametrize("sign", ["positive", "negative", "mixed"])
def test_trilinear_bit_identical_to_map_coordinates(dims, sign):
    rng = np.random.default_rng(sum(dims))
    data = rng.uniform(0.0, 100.0, dims)
    if sign == "negative":
        data = -data
    elif sign == "mixed":
        data -= 50.0
    coords = boundary_coords(dims, rng)
    padded = _pad(data)
    want = ndimage.map_coordinates(data, coords, order=1)
    assert np.array_equal(_trilinear(padded, coords)[0], want)
    # One point at a time too: a reduction over the corners may change its
    # summation order with the number of points.
    for k in range(0, coords.shape[1], 7):
        assert np.array_equal(_trilinear(padded, coords[:, k:k + 1])[0], want[k:k + 1])


def test_trilinear_gradient_matches_finite_differences():
    """Within a voxel cell the interpolant is linear along each axis, so a
    central difference that stays in the cell is exact up to rounding; on a
    voxel plane the gradient is the one toward higher indices."""
    rng = np.random.default_rng(31)
    dims = (9, 11, 13)
    data = rng.uniform(-50.0, 50.0, dims)
    padded = _pad(data)
    hi = np.asarray(dims, dtype=np.float64).reshape(3, 1) - 1.0
    coords = np.floor(rng.uniform(0.0, 1.0, (3, 500)) * hi) + rng.uniform(0.1, 0.9, (3, 500))
    on_plane = np.floor(coords[:, :100])
    on_plane[:, 0] = 0.0
    h = 1e-3
    for points, offset in ((coords, (-h, h)), (on_plane, (0.0, h))):
        _, grad = _trilinear(padded, points)
        for axis in range(3):
            step = np.zeros((3, 1))
            step[axis] = 1.0
            below, _ = _trilinear(padded, points + offset[0] * step)
            above, _ = _trilinear(padded, points + offset[1] * step)
            fd = (above - below) / (offset[1] - offset[0])
            np.testing.assert_allclose(grad[axis], fd, rtol=1e-6, atol=1e-6)


def test_trilinear_blocks_match_one_block(monkeypatch):
    rng = np.random.default_rng(9)
    data = rng.uniform(-50.0, 50.0, (17, 23, 31))
    coords = boundary_coords(data.shape, rng)
    padded = _pad(data)
    whole, whole_grad = _trilinear(padded, coords)
    monkeypatch.setattr(registration, "_BLOCK", 100)
    blocked, blocked_grad = _trilinear(padded, coords)
    assert np.array_equal(blocked, whole)
    assert np.array_equal(blocked_grad, whole_grad)
    assert np.array_equal(blocked, ndimage.map_coordinates(data, coords, order=1))


@pytest.mark.parametrize("dims", [(5, 6, 7), (17, 23, 31)])
def test_trilinear_reads_zero_outside_the_volume(dims):
    """Points below -1 or from dims up on any axis, in the margin or far
    beyond it (clamped into it), read exactly 0 with an all-zero gradient."""
    rng = np.random.default_rng(5)
    data = rng.uniform(1.0, 100.0, dims)
    hi = np.asarray(dims, dtype=np.float64)
    inside = boundary_coords(dims, rng)
    cases = [np.full((3, 8), -1e6), np.full((3, 8), 1e6)]
    for axis in range(3):
        for value in (-1.0 - 1e-9, -1.5, -2.0, -3.0, -1e9):
            face = inside.copy()
            face[axis] = value
            cases.append(face)
        for value in (hi[axis], hi[axis] + 0.5, hi[axis] + 1.0, hi[axis] + 7.25, 1e9):
            face = inside.copy()
            face[axis] = value
            cases.append(face)
    padded = _pad(data)
    for coords in cases:
        values, grad = _trilinear(padded, coords)
        assert np.array_equal(values, np.zeros(coords.shape[1]))
        assert np.array_equal(grad, np.zeros(coords.shape))


def test_trilinear_is_continuous_across_the_edge():
    """Between the last voxel plane and one voxel beyond it, the image falls
    linearly to 0: no jump at the volume's edge, on either side."""
    data = np.full((4, 5, 6), 10.0)
    padded = _pad(data)
    t = np.linspace(0.0, 1.0, 11)
    for axis, n in enumerate(data.shape):
        for edge, outward in ((0.0, -1.0), (n - 1.0, 1.0)):
            coords = np.full((3, t.size), 1.5)
            coords[axis] = edge + outward * t
            values, _ = _trilinear(padded, coords)
            np.testing.assert_allclose(values, 10.0 * (1.0 - t), atol=1e-12)


@pytest.mark.parametrize("factor", [4, 2])
def test_downsample_grid_reaches_last_voxel_plane(head, factor):
    coarse = _downsample(head.volume, factor, float(factor))
    last = coarse.affine @ np.append(np.asarray(coarse.dims) - 1.0, 1.0)
    assert np.all(last[:3] >= 63.0)
    # the grid still starts at voxel 0 with spacing factor
    np.testing.assert_array_equal(coarse.affine[:3, 3], head.volume.affine[:3, 3])
    assert np.all(coarse.spacing == factor)


def test_foreground_centroid_matches_index_formula():
    """Marginal sums give the np.indices centroid on an anisotropic, oblique
    volume with negative and zero voxels."""
    rng = np.random.default_rng(12)
    dims = (13, 7, 22)
    data = rng.uniform(-20.0, 100.0, dims)
    rot = affine_matrix(np.zeros(3), (0.3, -0.2, 0.5), np.ones(3), np.zeros(3), np.zeros(3))
    aff = rot @ np.diag([0.8, 1.7, 3.1, 1.0])
    aff[:3, 3] = (-40.0, 12.5, 95.0)
    w = np.where(data > 0, data, 0.0)
    idx = np.indices(dims, dtype=np.float64)
    cvox = np.array([(idx[i] * w).sum() / w.sum() for i in range(3)])
    want = aff[:3, :3] @ cvox + aff[:3, 3]
    got = registration._foreground_centroid(Volume(data, aff))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        RegistrationConfig(bins=1)
    with pytest.raises(ValueError):
        RegistrationConfig(seed=-1)


def residual_errors(recovered, truth, center):
    """Translation (mm at center), rotation (deg, geodesic), |isoscale-1|."""
    from scipy.linalg import polar

    d = recovered @ invert(truth)
    lin = d[:3, :3]
    u, _ = polar(lin)
    ang = np.degrees(np.arccos(np.clip((np.trace(u) - 1) / 2, -1, 1)))
    scale = abs(abs(np.linalg.det(lin)) ** (1 / 3) - 1)
    c = np.append(center, 1.0)
    trans = np.linalg.norm((d @ c)[:3] - center)
    return trans, ang, scale


def test_self_registration(head):
    t, diag = register_affine(prepare(head.volume), head.volume)
    trans, ang, scale = residual_errors(t, np.eye(4), np.full(3, 31.5))
    assert trans < 0.2 and ang < 0.2
    assert diag["levels"][-1]["mi"] > 0


def test_translation_recovery(head):
    """Also: this clean whole-head registration stops on a convergence test
    at every level, and the levels' evaluations add up to well under the
    thousands a fixed iteration cap spent."""
    truth = translation((5.0, -3.0, 2.0))
    subject = synthetic.transformed_phantom(head, truth)
    t, diag = register_affine(prepare(head.volume), subject.volume)
    trans, ang, scale = residual_errors(t, truth, np.full(3, 31.5))
    assert trans < 0.5
    levels = diag["levels"]
    assert diag["converged"] is True
    assert all(lv["converged"] for lv in levels)
    assert levels[-1]["stop"].startswith("convergence")
    assert levels[-1]["inside"] == 1.0
    assert sum(lv["evaluations"] for lv in levels) < 1000
    assert all(lv["iterations"] <= lv["evaluations"] for lv in levels)


def test_no_overlap_raises(head):
    """A subject 1000 mm away lies beyond the translation bounds: no sample
    of the final level lands inside it."""
    affine = head.volume.affine.copy()
    affine[:3, 3] += 1000.0
    with pytest.raises(NoOverlap):
        register_affine(prepare(head.volume), Volume(head.volume.data, affine))


def test_partial_overlap_records_inside_fraction(head):
    """A head pushed partly out of its field of view keeps some template
    samples outside the moving volume on every level, and still converges."""
    subject = synthetic.transformed_phantom(head, translation((25.0, -20.0, 18.0)))
    _, diag = register_affine(prepare(head.volume), subject.volume)
    assert all(0.0 < lv["inside"] < 1.0 for lv in diag["levels"])
    assert diag["converged"] is True


def test_rotation_scale_recovery(head):
    c = np.full(3, 31.5)
    rot = affine_matrix(
        np.zeros(3), (0.0, 0.0, np.deg2rad(5.0)), np.full(3, 1.05), np.zeros(3), c
    )
    subject = synthetic.transformed_phantom(head, rot)
    t, _ = register_affine(prepare(head.volume), subject.volume)
    trans, ang, scale = residual_errors(t, rot, c)
    assert ang < 0.5
    assert scale < 0.01


def test_cost_gradient_matches_central_differences(head):
    """The analytic gradient of every level's cost agrees with central
    differences of the cost, away from the optimum where it is not small."""
    fixed = prepare(head.volume)
    subject = synthetic.random_subject(head, seed=3).volume
    rng = np.random.default_rng(8)
    theta = np.zeros(12)
    theta[:3] = registration._foreground_centroid(subject) - fixed.center
    for f_level in fixed.levels:
        m_level = _downsample(subject, f_level.factor, f_level.sigma)
        value, gradient = _level_cost(f_level, m_level, fixed.center, 32)
        x = theta / _UNITS + rng.normal(0.0, 0.5, 12)
        h = 1e-3
        fd = np.array([(value(x + h * e) - value(x - h * e)) / (2 * h) for e in np.eye(12)])
        g = gradient(x)
        assert np.abs(g).max() > 0.05
        np.testing.assert_allclose(g, fd, rtol=0, atol=0.01 * np.abs(g).max())


def test_registration_deterministic(head):
    subject = synthetic.random_subject(head, seed=5)
    t1, d1 = register_affine(prepare(head.volume), subject.volume)
    t2, d2 = register_affine(prepare(head.volume), subject.volume)
    np.testing.assert_array_equal(t1, t2)
    assert d1 == d2


def test_prepared_fixed_side_is_read_only(head):
    fixed = prepare(head.volume, RegistrationConfig(seed=3))
    assert fixed.config.seed == 3
    assert len(fixed.levels) == len(registration.LEVELS)
    arrays = [fixed.center] + [
        a for lv in fixed.levels for a in (lv.affine, lv.fgT, lv.fixed_bins)
    ]
    assert not any(a.flags.writeable for a in arrays)
