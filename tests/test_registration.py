"""MI metric oracles and recovery of known maps."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from defacepipe import registration, synthetic
from defacepipe.defacing import deface, make_template_pack
from defacepipe.errors import EmptyMask, NoOverlap
from defacepipe.geometry import affine_matrix, invert, translation
from defacepipe.volume import Volume
from defacepipe.registration import (
    RegistrationConfig,
    _MARGIN,
    _fixed_to_moving,
    _joint_counts,
    _level,
    _level_cost,
    _log_ratio_steps,
    _parzen_window,
    _trilinear,
    _UNIT_BOUNDS,
    _UNITS,
    mutual_information,
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


def parzen_histogram(fixed_bins, moving_values, moving_range, bins):
    """Joint counts as the cost forms them: the Parzen window of each moving
    value, tallied with its fixed bin."""
    b0, w1, _ = _parzen_window(moving_values, moving_range, bins)
    return _joint_counts(fixed_bins * bins + b0, w1, bins)


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


def padded(data):
    """data as the trilinear kernel reads it: its unsmoothed full-resolution
    level's zero-padded array."""
    return _level(Volume(data, np.eye(4)), 1, 0.0).padded


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
def test_trilinear_matches_map_coordinates(dims, sign):
    """Values equal map_coordinates' within 1e-12 of the data's largest
    magnitude: the kernel's seven lerps round differently from scipy's
    weighted sum of the 8 corners, so the two agree to rounding, not bit
    for bit."""
    rng = np.random.default_rng(sum(dims))
    data = rng.uniform(0.0, 100.0, dims)
    if sign == "negative":
        data = -data
    elif sign == "mixed":
        data -= 50.0
    coords = boundary_coords(dims, rng)
    array = padded(data)
    want = ndimage.map_coordinates(data, coords, order=1)
    atol = 1e-12 * np.abs(data).max()
    np.testing.assert_allclose(_trilinear(array, coords)[0], want, rtol=0, atol=atol)
    # One point at a time too: no value may depend on how many points a
    # call takes.
    for k in range(0, coords.shape[1], 7):
        np.testing.assert_allclose(
            _trilinear(array, coords[:, k:k + 1])[0], want[k:k + 1], rtol=0, atol=atol)


def test_trilinear_gradient_matches_finite_differences():
    """Within a voxel cell the interpolant is linear along each axis, so a
    central difference that stays in the cell is exact up to rounding; on a
    voxel plane the gradient is the one toward higher indices."""
    rng = np.random.default_rng(31)
    dims = (9, 11, 13)
    data = rng.uniform(-50.0, 50.0, dims)
    array = padded(data)
    hi = np.asarray(dims, dtype=np.float64).reshape(3, 1) - 1.0
    coords = np.floor(rng.uniform(0.0, 1.0, (3, 500)) * hi) + rng.uniform(0.1, 0.9, (3, 500))
    on_plane = np.floor(coords[:, :100])
    on_plane[:, 0] = 0.0
    h = 1e-3
    for points, offset in ((coords, (-h, h)), (on_plane, (0.0, h))):
        _, grad = _trilinear(array, points)
        for axis in range(3):
            step = np.zeros((3, 1))
            step[axis] = 1.0
            below, _ = _trilinear(array, points + offset[0] * step)
            above, _ = _trilinear(array, points + offset[1] * step)
            fd = (above - below) / (offset[1] - offset[0])
            np.testing.assert_allclose(grad[axis], fd, rtol=1e-6, atol=1e-6)


def test_trilinear_blocks_match_one_block(monkeypatch):
    """Any block size gives bit-identical values and gradients, one sample
    per block and blocks at, around and beyond the sample count included."""
    rng = np.random.default_rng(9)
    data = rng.uniform(-50.0, 50.0, (17, 23, 31))
    coords = boundary_coords(data.shape, rng)
    array = padded(data)
    whole, whole_grad = _trilinear(array, coords)
    want = ndimage.map_coordinates(data, coords, order=1)
    n = coords.shape[1]
    for block in (1, 100, n - 1, n, n + 1):
        monkeypatch.setattr(registration, "_BLOCK", block)
        blocked, blocked_grad = _trilinear(array, coords)
        assert np.array_equal(blocked, whole), block
        assert np.array_equal(blocked_grad, whole_grad), block
        np.testing.assert_allclose(blocked, want, rtol=0, atol=1e-12 * np.abs(data).max(),
                                   err_msg=f"block {block}")


def test_log_ratio_steps_read_as_two_cells():
    """One gather of the step table is bit-identical to reading the log
    ratios of a sample's cell and the next one and subtracting."""
    rng = np.random.default_rng(41)
    bins = 8
    fixed_bins = rng.integers(0, bins, 100)
    b0, w1, _ = _parzen_window(rng.normal(50.0, 20.0, 100), (0.0, 100.0), bins)
    cells = fixed_bins * bins + b0
    counts = _joint_counts(cells, w1, bins)
    assert (counts == 0).any()  # empty cells, whose log ratio is 0
    ratio = np.divide(counts, counts.sum(axis=0), out=np.zeros_like(counts),
                      where=counts > 0).ravel()
    log_ratio = np.zeros(ratio.size)
    log_ratio[ratio > 0] = np.log(ratio[ratio > 0])
    steps = _log_ratio_steps(counts)
    assert steps.shape == (bins * bins - 1,)
    assert np.array_equal(steps[cells], log_ratio[cells + 1] - log_ratio[cells])


def test_trilinear_of_no_samples_is_empty():
    values, grad = _trilinear(padded(np.ones((4, 5, 6))), np.empty((3, 0)))
    assert values.shape == (0,) and grad.shape == (3, 0)


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
    array = padded(data)
    for coords in cases:
        values, grad = _trilinear(array, coords)
        assert np.array_equal(values, np.zeros(coords.shape[1]))
        assert np.array_equal(grad, np.zeros(coords.shape))


def test_trilinear_is_continuous_across_the_edge():
    """Between the last voxel plane and one voxel beyond it, the image falls
    linearly to 0: no jump at the volume's edge, on either side."""
    data = np.full((4, 5, 6), 10.0)
    array = padded(data)
    t = np.linspace(0.0, 1.0, 11)
    for axis, n in enumerate(data.shape):
        for edge, outward in ((0.0, -1.0), (n - 1.0, 1.0)):
            coords = np.full((3, t.size), 1.5)
            coords[axis] = edge + outward * t
            values, _ = _trilinear(array, coords)
            np.testing.assert_allclose(values, 10.0 * (1.0 - t), atol=1e-12)


@pytest.mark.parametrize("factor", [4, 2])
def test_downsample_grid_reaches_last_voxel_plane(head, factor):
    coarse = _level(head.volume, factor, float(factor))
    last = coarse.affine @ np.append(np.asarray(coarse.dims) - 1.0, 1.0)
    assert np.all(last[:3] >= 63.0)
    # the grid still starts at voxel 0 with spacing factor
    np.testing.assert_array_equal(coarse.affine[:3, 3], head.volume.affine[:3, 3])
    assert np.all(np.linalg.norm(coarse.affine[:3, :3], axis=0) == factor)
    # and its last plane along each axis holds the smoothed last voxel plane
    smooth = ndimage.gaussian_filter(head.volume.data.astype(np.float64), float(factor))
    keep = np.append(np.arange(0, 63, factor), 63)
    data = unpadded(coarse.padded)
    for axis in range(3):
        want = np.moveaxis(smooth, axis, 0)[63][np.ix_(keep, keep)]
        np.testing.assert_array_equal(np.moveaxis(data, axis, 0)[-1], want)


def unpadded(array):
    """A level's voxels: its padded array without the margin."""
    return array[(slice(_MARGIN, -_MARGIN),) * 3]


def whole_grid_downsample(v, factor, sigma_mm):
    """The pyramid level by its definition: gaussian_filter over the whole
    grid, edge-padded on the high side to factor * k + 1 voxels, strided."""
    data = np.asarray(v.data, dtype=np.float64)
    if sigma_mm > 0:
        data = ndimage.gaussian_filter(data, sigma=sigma_mm / v.spacing)
    if factor > 1:
        extra = [(-(n - 1)) % factor for n in data.shape]
        data = np.pad(data, [(0, e) for e in extra], mode="edge")
        data = data[::factor, ::factor, ::factor]
    return data


def test_downsample_matches_the_whole_grid_filter_bit_for_bit():
    """On random nonzero boxes in grids of 2-39 voxels per axis, anisotropic
    spacing, all-zero volumes, a NaN voxel and float32 data, every
    (factor, sigma) pair's level holds exactly what the whole-grid filter
    reads, inside a margin of exact float64 zeros, and its window is that
    reading's robust_range."""
    rng = np.random.default_rng(22)
    pairs = [(4, 4.0), (2, 2.0), (1, 0.0), (3, 1.5), (2, 0.0), (1, 1.0)]
    for trial in range(80):
        dims = rng.integers(2, 40, 3)
        lo = rng.integers(0, dims)
        hi = rng.integers(lo + 1, dims + 1)
        data = np.zeros(dims)
        data[tuple(map(slice, lo, hi))] = rng.normal(100.0, 30.0, hi - lo)
        if trial % 4 == 1:
            data[:] = 0.0
        elif trial % 4 == 2:
            data[tuple(rng.integers(0, dims))] = np.nan
        elif trial % 4 == 3:
            data = data.astype(np.float32)
        affine = np.diag([*rng.uniform(0.5, 3.0, 3), 1.0])
        v = Volume(data, affine)
        for factor, sigma in pairs:
            got = _level(v, factor, sigma)
            want = whole_grid_downsample(v, factor, sigma)
            case = (trial, factor, sigma)
            assert got.padded.dtype == np.float64
            assert got.padded.shape == tuple(n + 2 * _MARGIN for n in want.shape), case
            assert np.array_equal(unpadded(got.padded), want, equal_nan=True), case
            margin = got.padded.copy()
            unpadded(margin)[...] = 0.0
            assert not margin.any() and not np.signbit(margin).any(), case
            assert np.array_equal(got.window, robust_range(want), equal_nan=True), case
            np.testing.assert_array_equal(got.affine[:3, :3], affine[:3, :3] * factor)


def test_fine_level_casts_the_volume_once():
    """The unsmoothed full-resolution level of a float32 64^3 volume
    allocates its padded float64 array and robust_range's one float64
    temporary, and no float64 copy of the volume besides: built, the level
    holds the padded array alone."""
    data = np.random.default_rng(6).normal(100.0, 30.0, (64, 64, 64)).astype(np.float32)
    v = Volume(data, np.eye(4))
    tracemalloc.start()
    try:
        level = _level(v, 1, 0.0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert level.padded.shape == (68, 68, 68)
    slack = 1 << 16
    assert held < level.padded.nbytes + slack, held  # 2.52 MB
    assert peak < level.padded.nbytes + data.size * 8 + slack, peak  # 2.52 + 2.10 MB


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


def parameters(m, center):
    """Optimizer-unit parameters x of a fixed-world -> moving-world map m
    about center: the translation t with m = [L, t + c - L c], then L - I."""
    lin = m[:3, :3]
    t = m[:3, 3] - center + lin @ center
    return np.concatenate([t, (lin - np.eye(3)).ravel()]) / _UNITS


def inside_bounds(x):
    return bool(np.all((_UNIT_BOUNDS.lb <= x) & (x <= _UNIT_BOUNDS.ub)))


def test_zero_parameters_are_the_identity():
    center = np.array([31.5, 29.0, 36.25])
    np.testing.assert_array_equal(_fixed_to_moving(np.zeros(12), center), np.eye(4))


def test_translation_moves_the_center_by_itself():
    """Whatever L is, the map takes the center c to c + t."""
    rng = np.random.default_rng(4)
    center = rng.uniform(-40.0, 60.0, 3)
    for _ in range(20):
        x = rng.uniform(_UNIT_BOUNDS.lb, _UNIT_BOUNDS.ub)
        m = _fixed_to_moving(x, center)
        np.testing.assert_allclose(m[:3, :3] @ center + m[:3, 3], center + x[:3], atol=1e-9)
        np.testing.assert_allclose(parameters(m, center), x, atol=1e-9)


def test_bounds_reach_turns_scales_and_subject_draws(head):
    """Inside the bounds: the start point, a 35 degree turn about each axis,
    a per-axis scale of e^+-0.5, and every fixed -> moving map of a subject
    synthetic.random_subject can draw, its extremes included."""
    center = registration._foreground_centroid(head.volume)
    start = np.zeros(12)
    start[:3] = registration._foreground_centroid(synthetic.random_subject(head, 1).volume) - center
    assert inside_bounds(start)
    maps = []
    for axis in range(3):
        for angle in (-35.0, 35.0):
            rotation = np.zeros(3)
            rotation[axis] = np.deg2rad(angle)
            maps.append(affine_matrix(np.zeros(3), rotation, np.ones(3), np.zeros(3), center))
        for log_scale in (-0.5, 0.5):
            scale = np.ones(3)
            scale[axis] = np.exp(log_scale)
            maps.append(affine_matrix(np.zeros(3), np.zeros(3), scale, np.zeros(3), center))
    # random_subject: up to 10 mm and 8 degrees per axis, scale 0.97-1.03,
    # about the grid's center; the registration solves for the inverse.
    grid_center = (np.array(head.volume.dims) - 1) * head.volume.spacing / 2
    corners = itertools.product(*[(-1.0, 1.0)] * 6, (0.97, 1.03))
    for *signs, scale in corners:
        t, angles = 10.0 * np.array(signs[:3]), np.deg2rad(8.0) * np.array(signs[3:])
        subject = affine_matrix(t, angles, np.full(3, scale), np.zeros(3), grid_center)
        maps.append(invert(subject))
    for seed in range(100):
        subject = synthetic.random_rigid_affine(
            np.random.default_rng(seed), grid_center, 10.0, 8.0, (0.97, 1.03))
        maps.append(invert(subject))
    for m in maps:
        x = parameters(m, center)
        assert inside_bounds(x)
        np.testing.assert_allclose(_fixed_to_moving(x, center), m, atol=1e-9)


def test_cost_gradient_matches_central_differences(head):
    """The analytic gradient of every level's cost agrees with central
    differences of the cost, away from the optimum where it is not small:
    at the truth's parameters plus 2 optimizer units on every parameter,
    plus a N(0, 0.5) draw per level: near the truth, where the levels run,
    not at the centroid start, where the fine level never runs."""
    fixed = prepare(head.volume)
    phantom = synthetic.random_subject(head, seed=3)
    subject = phantom.volume
    rng = np.random.default_rng(8)
    truth = parameters(invert(phantom.true_transform), fixed.center)
    for f_level in fixed.levels:
        value, gradient = _level_cost(
            f_level, _level(subject, f_level.factor, f_level.sigma), fixed.center, 32)
        x = truth + 2.0 + rng.normal(0.0, 0.5, 12)
        h = 1e-3
        fd = np.array([(value(x + h * e) - value(x - h * e)) / (2 * h) for e in np.eye(12)])
        g = gradient(x)
        assert np.abs(g).max() > 0.05
        np.testing.assert_allclose(g, fd, rtol=0, atol=0.01 * np.abs(g).max())


def plain_level_cost(f_level, moving, center, bins, x):
    """One level's (value, gradient) at x against the moving image's level
    read by whole_grid_downsample, each formula in its plainest form: the
    level padded by np.pad and windowed by robust_range here, sample
    coordinates from the samples in column-major order, the Parzen
    expression in one line, the upper weights tallied at cells + 1, log
    ratios through boolean indexing, and the moment's last column as a sum
    of the scaled gradients."""
    data = whole_grid_downsample(moving, f_level.factor, f_level.sigma)
    lo, hi = robust_range(data)
    slope = bins / (hi - lo)
    m_affine = moving.affine.copy()
    m_affine[:3, :3] *= f_level.factor
    m_inv = invert(m_affine)
    fgT = np.asfortranarray(f_level.fgT)
    vox_map = m_inv @ _fixed_to_moving(x, center) @ f_level.affine
    vals, vgrad = _trilinear(np.pad(data, _MARGIN), vox_map[:3, :3] @ fgT + vox_map[:3, 3:4])
    raw = (vals - lo) / (hi - lo) * bins - 0.5
    pos = np.clip(raw, 0.0, bins - 1.0)
    b0 = np.minimum(pos.astype(np.intp), bins - 2)
    w1 = pos - b0
    sloped = (raw > 0.0) & (raw < bins - 1.0)
    cells = f_level.fixed_bins * bins + b0
    counts = np.bincount(cells, weights=1.0 - w1, minlength=bins * bins)
    counts += np.bincount(cells + 1, weights=w1, minlength=bins * bins)
    counts = counts.reshape(bins, bins)
    column = np.broadcast_to(counts.sum(axis=0), counts.shape)
    nz = counts > 0
    log_ratio = np.zeros(counts.size)
    log_ratio[nz.ravel()] = np.log(counts[nz] / column[nz])
    dmi_dv = np.diff(log_ratio)[cells] * sloped * (slope / counts.sum())
    u = vgrad * dmi_dv
    moment = np.empty((3, 4))
    moment[:, :3] = u @ fgT.T
    moment[:, 3] = u.sum(axis=1)
    g = m_inv[:3, :3].T @ moment @ f_level.affine.T
    gradient = np.empty(12)
    gradient[:3] = g[:, 3]
    gradient[3:] = (g[:, :3] - np.outer(g[:, 3], center)).ravel()
    return -mutual_information(counts), gradient * -_UNITS


def test_level_cost_matches_the_plain_formulas_bit_for_bit(head, fixed):
    """Every level's cost value and gradient equal plain_level_cost's, bit
    for bit, at 3 points near the truth of a random subject against the
    64^3 pack: neither the level builder nor the cost's fewer temporaries
    change any rounding."""
    phantom = synthetic.random_subject(head, seed=4)
    truth = parameters(invert(phantom.true_transform), fixed.center)
    rng = np.random.default_rng(22)
    for f_level in fixed.levels:
        value, gradient = _level_cost(
            f_level, _level(phantom.volume, f_level.factor, f_level.sigma), fixed.center, 32)
        for _ in range(3):
            x = truth + rng.normal(0.0, 1.0, 12)
            want_value, want_gradient = plain_level_cost(
                f_level, phantom.volume, fixed.center, 32, x)
            assert value(x) == want_value
            np.testing.assert_array_equal(gradient(x), want_gradient)


def test_template_registered_to_itself_is_the_identity(pack):
    """The pair deface registers, at its simplest: the stripped template
    against itself, scale included."""
    t, _ = register_affine(prepare(pack.template), pack.template)
    trans, ang, scale = residual_errors(t, np.eye(4), np.full(3, 31.5))
    assert trans < 0.5 and ang < 0.5 and scale < 0.01


def test_deface_of_the_template_head_recovers_the_identity(head, pack):
    """The loosely stripped head against its own stripped template, through
    deface: the identity within 0.5 mm / 0.5 degree / 0.01 scale."""
    t = deface(head.volume, pack).transform
    trans, ang, scale = residual_errors(t, np.eye(4), np.full(3, 31.5))
    assert trans < 0.5 and ang < 0.5 and scale < 0.01


def test_registration_deterministic(head):
    subject = synthetic.random_subject(head, seed=5)
    t1, d1 = register_affine(prepare(head.volume), subject.volume)
    t2, d2 = register_affine(prepare(head.volume), subject.volume)
    np.testing.assert_array_equal(t1, t2)
    assert d1 == d2


def test_prepared_fixed_side_is_read_only(head):
    fixed = prepare(head.volume)
    assert [f.name for f in dataclasses.fields(fixed)] == ["center", "levels"]
    assert len(fixed.levels) == len(registration.LEVELS)
    arrays = [fixed.center] + [
        a for lv in fixed.levels for a in (lv.affine, lv.fgT, lv.fixed_bins)
    ]
    assert not any(a.flags.writeable for a in arrays)


def test_registration_config_takes_no_arguments():
    """The registration's settings are constants: there is nothing to set,
    and every template and subject is registered alike."""
    with pytest.raises(TypeError):
        RegistrationConfig(bins=16)
    with pytest.raises(TypeError):
        RegistrationConfig(seed=3)
    config = RegistrationConfig()
    assert (config.bins, config.seed) == (32, 0)
    assert (config.convergence_tol, config.reduction_tol) == (1e-5, 1e-7)


@pytest.mark.parametrize("source", ["pack", "head"])
def test_levels_sample_the_eroded_foreground_at_their_grid_points(source, pack, head):
    """Every level's samples are the fixed foreground eroded by 2 voxels at
    full resolution, read at the level's grid points: each sample lies
    within half a voxel of a level-grid point p with interior[p * factor],
    and each such point gives two samples. At factor 1 that is every
    eroded voxel, twice."""
    template = pack.template if source == "pack" else head.volume
    interior = ndimage.binary_erosion(template.data > 0, iterations=2)
    for lv in prepare(template).levels:
        f = lv.factor
        grid = interior[::f, ::f, ::f]
        assert lv.fgT.shape[1] == 2 * grid.sum()
        points = np.floor(lv.fgT + 0.5)
        assert np.all(np.abs(lv.fgT - points) <= 0.5)
        points = points.astype(np.intp)
        assert np.all(interior[tuple(points * f)])
        hit, count = np.unique(points, axis=1, return_counts=True)
        np.testing.assert_array_equal(hit, np.argwhere(grid).T)
        assert np.all(count == 2)


def test_template_with_no_coarse_sample_raises_empty_mask():
    """A 16^3 template's eroded foreground has no voxel on the factor-4
    grid: that level has nothing to sample, and prepare says so."""
    template = make_template_pack(synthetic.nominal_head(16).volume).template
    with pytest.raises(EmptyMask, match="factor 4"):
        prepare(template)


def test_non_finite_template_voxels_read_as_background(pack, fixed, head):
    """A NaN and a +inf voxel in the brain read exactly as zeros there do:
    in the template prepare reads, and in a subject register_affine reads
    when called directly."""

    def spoiled(v: Volume, brain_mask: np.ndarray) -> tuple[Volume, Volume]:
        data = v.data.astype(np.float64)
        brain = np.argwhere(brain_mask)
        voxels = tuple(brain[[len(brain) // 3, 2 * len(brain) // 3]].T)
        zeroed = data.copy()
        zeroed[voxels] = 0.0
        data[voxels] = (np.nan, np.inf)
        return Volume(data, v.affine), Volume(zeroed, v.affine)

    got, want = (prepare(v) for v in spoiled(pack.template, pack.template.data > 0))
    assert np.array_equal(got.center, want.center)
    for g, w in zip(got.levels, want.levels, strict=True):
        assert np.array_equal(g.fgT, w.fgT)
        assert np.array_equal(g.fixed_bins, w.fixed_bins)

    subject = synthetic.random_subject(head, seed=1)
    got, want = (register_affine(fixed, v)
                 for v in spoiled(subject.volume, subject.brain_mask.data))
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
