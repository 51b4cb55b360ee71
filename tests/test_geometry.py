"""Affine algebra, canonical reorientation, resampling, and the phantoms'
trilinear sampler."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from defacepipe import geometry, synthetic
from defacepipe.errors import AmbiguousOrientation, SingularTransform
from defacepipe.volume import BinaryMask, Volume


def _z_turn(angle, scale=1.0):
    return geometry.affine_matrix(
        np.zeros(3), (0.0, 0.0, angle), np.full(3, scale), np.zeros(3), np.zeros(3)
    )


def test_compose_identity():
    t = geometry.translation((1.0, 2.0, 3.0)) @ _z_turn(0.3)
    np.testing.assert_array_equal(np.eye(4) @ t, t)


def test_compose_inverse_translations():
    t1 = geometry.translation((1, 2, 3))
    t2 = geometry.translation((-1, -2, -3))
    np.testing.assert_allclose(t1 @ t2, np.eye(4), atol=1e-15)


def test_compose_two_quarter_turns():
    # rot_z(90) twice sends (1,0,0) to (-1,0,0)
    r = _z_turn(np.pi / 2)
    out = r @ r @ np.array([1.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(out[:3], [-1.0, 0.0, 0.0], atol=1e-12)


def test_invert_identity():
    np.testing.assert_allclose(geometry.invert(np.eye(4)), np.eye(4))


def test_invert_translation():
    inv = geometry.invert(geometry.translation((5, -3, 2)))
    np.testing.assert_allclose(inv, geometry.translation((-5, 3, -2)), atol=1e-12)


def test_invert_compose_to_identity():
    m = _z_turn(np.deg2rad(30), scale=2.0)
    np.testing.assert_allclose(m @ geometry.invert(m), np.eye(4), atol=1e-9)


def _random_affine_args(rng):
    return (
        rng.uniform(-np.pi, np.pi, 3),
        rng.uniform(0.5, 2.0, 3),
        rng.uniform(-0.5, 0.5, 3),
        rng.uniform(-50.0, 50.0, 3),
    )


def test_affine_matrix_fixes_center():
    rng = np.random.default_rng(41)
    for _ in range(50):
        rotation, scale, shear, center = _random_affine_args(rng)
        m = geometry.affine_matrix(np.zeros(3), rotation, scale, shear, center)
        c = np.append(center, 1.0)
        np.testing.assert_allclose(m @ c, c, atol=1e-9)


def test_affine_matrix_determinant_is_scale_product():
    rng = np.random.default_rng(42)
    for _ in range(50):
        rotation, scale, shear, center = _random_affine_args(rng)
        t = rng.uniform(-50.0, 50.0, 3)
        m = geometry.affine_matrix(t, rotation, scale, shear, center)
        assert np.linalg.det(m) == pytest.approx(np.prod(scale), rel=1e-12)


def test_affine_matrix_pure_translation():
    t = np.array([3.5, -2.0, 7.25])
    center = (10.0, 20.0, -5.0)
    m = geometry.affine_matrix(t, np.zeros(3), np.ones(3), np.zeros(3), center)
    np.testing.assert_array_equal(m, geometry.translation(t))


def test_invert_singular():
    m = np.eye(4)
    m[0, 0] = 0.0
    with pytest.raises(SingularTransform):
        geometry.invert(m)


def test_transform_text_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    m = np.eye(4)
    m[:3, :] = rng.normal(size=(3, 4))
    path = tmp_path / "xfm.txt"
    geometry.save_transform(m, path)
    loaded = geometry.load_transform(path)
    assert loaded.shape == (4, 4)
    np.testing.assert_allclose(loaded, m, rtol=1e-10)
    np.savetxt(tmp_path / "plain.txt", m, fmt="%.12g")
    assert path.read_bytes() == (tmp_path / "plain.txt").read_bytes()


def test_save_transform_failing_midway_keeps_old_file(tmp_path):
    path = tmp_path / "xfm.txt"
    geometry.save_transform(np.eye(4), path)
    old = path.read_bytes()
    # the last row cannot be formatted, so the write fails after three rows
    bad = np.array([[1.0, 0, 0, 5], [0, 1, 0, 6], [0, 0, 1, 7], [0, 0, 0, "x"]], object)
    with pytest.raises(TypeError):
        geometry.save_transform(bad, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["xfm.txt"]


def _world_coords(vol):
    """World coordinate of every voxel, keyed by rounded position."""
    idx = np.indices(vol.dims).reshape(3, -1)
    w = vol.affine[:3, :3] @ idx + vol.affine[:3, 3:4]
    return {
        tuple(np.round(w[:, k], 9)): vol.data[tuple(idx[:, k])]
        for k in range(idx.shape[1])
    }


def assert_world_geometry_invariant(before, after):
    """Oracle: every voxel keeps both its world position and its value."""
    assert _world_coords(before) == _world_coords(after)


def test_reorient_ras_identity():
    data = np.arange(27, dtype=np.float32).reshape(3, 3, 3)
    v = Volume(data, np.diag([1.0, 2.0, 3.0, 1.0]))
    out, rec = geometry.reorient_to_canonical(v)
    assert rec.is_identity
    np.testing.assert_array_equal(out.data, data)
    np.testing.assert_array_equal(out.affine, v.affine)


def test_reorient_las_flip():
    data = np.arange(27, dtype=np.float32).reshape(3, 3, 3)
    aff = np.diag([-1.0, 1.0, 1.0, 1.0])
    aff[0, 3] = 10.0
    v = Volume(data, aff)
    out, rec = geometry.reorient_to_canonical(v)
    assert rec.perm == (0, 1, 2)
    assert rec.flips == (True, False, False)
    np.testing.assert_array_equal(out.data, data[::-1])
    assert out.affine[0, 0] > 0
    assert_world_geometry_invariant(v, out)


def test_reorient_permuted_axes():
    data = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
    # voxel axis 0 -> world z, 1 -> world x, 2 -> world y
    aff = np.zeros((4, 4))
    aff[2, 0] = 1.0
    aff[0, 1] = 1.0
    aff[1, 2] = 1.0
    aff[3, 3] = 1.0
    v = Volume(data, aff)
    out, rec = geometry.reorient_to_canonical(v)
    assert rec.perm == (1, 2, 0)
    assert out.dims == (3, 4, 2)
    lin = out.affine[:3, :3]
    assert all(lin[j, j] == np.abs(lin[:, j]).max() > 0 for j in range(3))
    assert_world_geometry_invariant(v, out)


def test_reorient_mixed_perm_and_flip_world_invariant():
    rng = np.random.default_rng(11)
    data = rng.random((3, 4, 5)).astype(np.float32)
    aff = np.zeros((4, 4))
    aff[1, 0] = -2.0
    aff[2, 1] = 1.5
    aff[0, 2] = -1.0
    aff[:3, 3] = (4.0, -7.0, 2.5)
    aff[3, 3] = 1.0
    v = Volume(data, aff)
    out, rec = geometry.reorient_to_canonical(v)
    assert not rec.is_identity
    assert_world_geometry_invariant(v, out)
    np.testing.assert_array_equal(rec.undo(out.data), data)


def test_reorient_oblique_keeps_obliquity():
    # dominant axes resolve, off-diagonal terms survive untouched
    aff = np.eye(4)
    aff[0, 1] = 0.2
    v = Volume(np.zeros((3, 3, 3), dtype=np.float32), aff)
    out, rec = geometry.reorient_to_canonical(v)
    assert rec.is_identity
    assert out.affine[0, 1] == 0.2


def test_reorient_ambiguous():
    aff = np.eye(4)
    aff[:3, :3] = [[1, 1, 0], [0.5, 0.5, 0], [0, 0, 1]]
    v = Volume(np.zeros((3, 3, 3), dtype=np.float32), aff)
    with pytest.raises(AmbiguousOrientation):
        geometry.reorient_to_canonical(v)


def test_axis_permutation_round_trip():
    rng = np.random.default_rng(3)
    data = rng.random((2, 3, 4))
    rec = geometry.AxisPermutation((2, 0, 1), (True, False, True))
    np.testing.assert_array_equal(rec.undo(rec.apply(data)), data)


ORIENTATIONS = [(perm, flips) for perm in itertools.permutations(range(3))
                for flips in itertools.product((False, True), repeat=3)]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.int16, bool])
def test_reorientation_copies_every_orientation_bit_for_bit(dtype):
    """All 48 axis permutations and flips of a volume spanning several
    copy tiles, with ragged last tiles: reorient_to_canonical and undo give
    C-contiguous arrays with the bits of np.ascontiguousarray of the same
    view, and undo gives back the original. The same data as a BinaryMask
    comes back as a BinaryMask with the same record and the bits of the
    Volume case cast to bool. canonical_axes gives the same record and the
    same affine bit for bit."""
    data = np.random.default_rng(17).integers(0, 2 if dtype is bool else 1000,
                                               size=(17, 33, 20)).astype(dtype)
    spacing = (0.9, 1.2, 1.5)
    for perm, flips in ORIENTATIONS:
        aff = np.eye(4)
        aff[:3, :3] = 0.0
        for j in range(3):  # voxel axis perm[j] runs along world axis j
            aff[j, perm[j]] = -spacing[j] if flips[j] else spacing[j]
        out, rec = geometry.reorient_to_canonical(Volume(data, aff))
        assert (rec.perm, rec.flips) == (perm, flips)
        axes_rec, axes_aff = geometry.canonical_axes(Volume(data, aff))
        assert axes_rec == rec and _same_bits(axes_aff, out.affine)
        assert type(out) is Volume and out.data.flags.c_contiguous
        mask, mask_rec = geometry.reorient_to_canonical(BinaryMask(data, aff))
        assert type(mask) is BinaryMask and mask_rec == rec
        assert _same_bits(mask.data, out.data.astype(bool))
        np.testing.assert_array_equal(mask.affine, out.affine)
        assert _same_bits(out.data, np.ascontiguousarray(rec.apply(data)))
        back = rec.undo(out.data)
        assert back.flags.c_contiguous
        assert _same_bits(back, data)
        view = np.transpose(np.flip(out.data, [j for j in range(3) if flips[j]]),
                            np.argsort(perm))
        assert _same_bits(back, np.ascontiguousarray(view))


def test_resample_identity_nearest_bit_identical():
    rng = np.random.default_rng(5)
    data = rng.integers(0, 50, size=(4, 5, 6)).astype(np.int16)
    v = Volume(data, np.diag([1.0, 1.0, 2.0, 1.0]))
    out = geometry.resample(v, v.dims, v.affine, np.eye(4))
    np.testing.assert_array_equal(out.data, data)
    assert out.data.dtype == np.int16


def test_resample_integer_shift_nearest():
    data = np.arange(4 * 4 * 4, dtype=np.int32).reshape(4, 4, 4)
    v = Volume(data, np.eye(4))
    # world_map sends target position to source position: +1 along x
    shift = geometry.translation((1.0, 0.0, 0.0))
    out = geometry.resample(v, v.dims, v.affine, shift)
    expected = np.zeros_like(data)
    expected[:3] = data[1:]  # target voxel x samples source voxel x+1
    np.testing.assert_array_equal(out.data, expected)
    # A half-voxel tie reads the voxel above it, at the edge too: target
    # voxel x samples source x - 0.5, which reads voxel x.
    half = geometry.translation((-0.5, 0.0, 0.0))
    out = geometry.resample(v, v.dims, v.affine, half)
    np.testing.assert_array_equal(out.data, data)


def test_resample_half_voxel_shift_on_ramp():
    nx = 8
    x = np.arange(nx, dtype=np.float64)
    data = np.broadcast_to(x[:, None, None], (nx, 4, 4)).copy()
    v = Volume(data, np.eye(4))
    out = synthetic.sample_trilinear(v, v.dims, v.affine, geometry.translation((0.5, 0, 0)))
    interior = out.data[: nx - 1]
    expected = np.broadcast_to((x[: nx - 1] + 0.5)[:, None, None], interior.shape)
    np.testing.assert_allclose(interior, expected, atol=1e-6)


def test_resample_mask_stays_binary():
    rng = np.random.default_rng(9)
    data = (rng.random((6, 6, 6)) > 0.5).astype(np.uint8)
    v = Volume(data, np.eye(4))
    m = _z_turn(0.4) @ geometry.translation((0.3, -0.6, 0.2))
    out = geometry.resample(v, v.dims, v.affine, m)
    assert set(np.unique(out.data)).issubset({0, 1})
    # A BinaryMask resamples to a BinaryMask: its uint8 volume resampled,
    # then read above 0.
    for _ in range(20):
        dims = tuple(rng.integers(4, 12, 3))
        mask = BinaryMask(rng.random(dims) < rng.uniform(0.2, 0.8),
                          np.diag([*rng.uniform(0.7, 1.5, 3), 1.0]))
        world_map = geometry.affine_matrix(
            rng.uniform(-2, 2, 3), rng.uniform(-0.5, 0.5, 3), rng.uniform(0.8, 1.2, 3),
            rng.uniform(-0.2, 0.2, 3), rng.uniform(0, 8, 3))
        target_dims = tuple(rng.integers(4, 12, 3))
        got = geometry.resample(mask, target_dims, mask.affine, world_map)
        want = geometry.resample(Volume(mask.data.astype(np.uint8), mask.affine),
                                 target_dims, mask.affine, world_map)
        assert type(got) is BinaryMask and got.data.dtype == bool
        np.testing.assert_array_equal(got.data, want.data > 0)
        np.testing.assert_array_equal(got.affine, want.affine)


def test_resample_round_trip_inverse():
    # trilinear interpolation reproduces a trilinear image exactly, so the
    # forward/backward pair must return to the original within tolerance
    i, j, k = np.indices((12, 12, 12), dtype=np.float64)
    data = 0.3 * i + 0.2 * j - 0.1 * k + 0.05 * i * j + 5.0
    v = Volume(data, np.eye(4))
    m = geometry.translation((0.4, -0.3, 0.2))
    fwd = synthetic.sample_trilinear(v, v.dims, v.affine, m)
    back = synthetic.sample_trilinear(fwd, v.dims, v.affine, geometry.invert(m))
    # compare where both stencils stayed strictly interior
    core = (slice(2, -2),) * 3
    np.testing.assert_allclose(back.data[core], data[core], atol=1e-5)


def test_resample_background_fill():
    v = Volume(np.full((3, 3, 3), 7.0, dtype=np.float32), np.eye(4))
    out = geometry.resample(v, v.dims, v.affine, geometry.translation((100.0, 0, 0)))
    assert np.all(out.data == 0.0)


def _walk_cases(rng):
    """(name, voxel map, source dims, target dims) cases for _walk, each map
    sending the target's centre near the source's: oblique maps with
    zooms; axis-aligned ones, on which two axes move not at all along a
    row; half-voxel shifts; and rank-deficient maps that collapse one axis
    or all three."""
    cases = []
    for n in range(8):
        src_dims, dims = (tuple(int(d) for d in rng.integers(1, 12, 3)) for _ in range(2))
        src_centre, tgt_centre = (np.asarray(src_dims) - 1) / 2, (np.asarray(dims) - 1) / 2
        to_src = geometry.translation(src_centre + rng.uniform(-1.0, 1.0, 3))
        from_tgt = geometry.translation(-tgt_centre)
        oblique = geometry.affine_matrix(
            np.zeros(3), rng.uniform(-np.pi, np.pi, 3), rng.uniform(0.5, 2.0, 3),
            rng.uniform(-0.2, 0.2, 3), np.zeros(3))
        flat = np.eye(4)
        flat[:3, :3] = np.eye(3)[:, rng.permutation(3)] * rng.choice([-1.0, 0.5, 1.0, 2.0], 3)
        collapse = np.eye(4)
        collapse[:3, :3] = 0.0 if n % 4 == 0 else np.diag(rng.permutation([0, 1, 1]))
        zoom = rng.choice([-1.0, 0.5, 1.0, 2.0], 3)
        half = np.diag([*zoom, 1.0])
        half[:3, 3] = np.floor(2 * (src_centre - zoom * tgt_centre)) / 2
        for kind, lin in (("oblique", oblique), ("flat", flat), ("rank-deficient", oblique @ collapse)):
            cases.append((f"{kind}-{n}", to_src @ lin @ from_tgt, src_dims, dims))
        cases.append((f"half-voxel-{n}", half, src_dims, dims))
    return cases


def test_walk_yields_disjoint_blocks_of_scipys_coordinates():
    """Every block _walk yields holds the coordinates ((s_a + m_a0 i) +
    m_a1 j) + m_a2 k of its voxels, bit for bit, for any number of rows a
    block; no voxel is in two blocks, and every voxel whose coordinates lie
    in the support's box on every axis is in one."""
    rng = np.random.default_rng(37)
    for name, vox_map, src_dims, dims in _walk_cases(rng):
        lo = rng.integers(0, (np.asarray(src_dims) + 1) // 2)
        hi = rng.integers(lo + 1, src_dims, endpoint=True)
        support = tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))
        i, j, k = np.indices(dims, dtype=np.float64)
        m = vox_map[:3, :, None, None, None]
        dense = ((m[:, 3] + m[:, 0] * i) + m[:, 1] * j) + m[:, 2] * k
        inside = np.all([(dense[a] >= lo[a]) & (dense[a] <= hi[a] - 1) for a in range(3)], axis=0)
        for rows in sorted({1, 2, 3, dims[1]}):
            seen = np.zeros(dims, dtype=int)
            for index, c in geometry._walk(support, dims, vox_map, rows):
                assert c.shape[1] <= rows, name
                want = np.ascontiguousarray(dense[(slice(None), *index)])
                assert c.shape == want.shape and c.tobytes() == want.tobytes(), name
                seen[index] += 1
            assert seen.max(initial=0) <= 1, name
            assert seen[inside].all(), name


def test_walk_without_support_yields_nothing():
    """No support, a map that lands far from the support, and a non-finite
    map yield no block."""
    box = (slice(0, 4),) * 3
    far = geometry.translation((100.0, 0.0, 0.0))
    nan = np.eye(4)
    nan[0, 0] = np.nan
    for support, vox_map in ((None, np.eye(4)), (box, far), (box, nan)):
        assert list(geometry._walk(support, (5, 6, 7), vox_map, 2)) == []


def _dense_resample(source, target_dims, target_affine, world_map):
    """Reference: the source coordinate of every target voxel, read by
    map_coordinates and zeroed outside half a voxel of the volume,
    [-0.5, n - 0.5), since c = -0.5 reads voxel 0 and c = n - 0.5 reads
    voxel n."""
    vox_map = geometry.invert(source.affine) @ world_map @ target_affine
    idx = np.indices(target_dims, dtype=np.float64).reshape(3, -1)
    coords = vox_map[:3, :3] @ idx + vox_map[:3, 3:4]
    n = np.array(source.dims, dtype=np.float64).reshape(3, 1)
    valid = np.all((coords >= -0.5) & (coords < n - 0.5), axis=0)
    out = ndimage.map_coordinates(
        np.asarray(source.data, dtype=np.float64), coords, order=0, mode="grid-constant",
    )
    out[~valid] = 0.0
    return out.reshape(target_dims).astype(source.data.dtype)


def _random_grid(rng, dims):
    """Affine of a grid with permuted, flipped, anisotropic and slightly
    oblique axes, centred near the world origin."""
    lin = np.eye(3)[:, rng.permutation(3)] * rng.choice([-1.0, 1.0], 3)
    lin = lin * rng.uniform(0.6, 2.0, 3) + rng.uniform(-0.15, 0.15, (3, 3))
    aff = np.eye(4)
    aff[:3, :3] = lin
    aff[:3, 3] = -lin @ ((np.asarray(dims) - 1) / 2) + rng.uniform(-1.0, 1.0, 3)
    return aff


# The ids name the interpolation order, then the dtype.
@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.float32, np.float64],
                         ids=lambda dtype: f"nearest-{np.dtype(dtype).name}")
def test_resample_matches_dense_reference(dtype):
    """On random oblique, permuted and anisotropic grids, resample equals
    the dense per-voxel formula exactly."""
    rng = np.random.default_rng(61)
    cases = []
    for _ in range(60):
        src_dims = tuple(int(d) for d in rng.integers(2, 9, 3))
        tgt_dims = tuple(int(d) for d in rng.integers(2, 9, 3))
        world_map = geometry.affine_matrix(
            rng.uniform(-1.5, 1.5, 3), rng.uniform(-0.4, 0.4, 3),
            rng.uniform(0.8, 1.25, 3), rng.uniform(-0.1, 0.1, 3), np.zeros(3),
        )
        cases.append((src_dims, _random_grid(rng, src_dims), tgt_dims,
                      _random_grid(rng, tgt_dims), world_map))
    # Exact half-voxel coordinates on axis-aligned grids: a shift of -0.5
    # puts target voxel 0 at c = -0.5, and +0.5 puts the last voxel of a
    # target as long as the source at c = n - 0.5.
    for shift, zoom in itertools.product((-0.5, 0.5), (1.0, 2.0)):
        world_map = np.diag([zoom, zoom, zoom, 1.0]) @ geometry.translation(np.full(3, shift))
        cases.append(((5, 6, 7), np.eye(4), (5, 6, 7), np.eye(4), world_map))
        cases.append(((4, 5, 6), np.diag([1.0, 2.0, 0.5, 1.0]), (6, 5, 4),
                      np.diag([1.0, 2.0, 0.5, 1.0]), world_map))
    for src_dims, src_affine, tgt_dims, target_affine, world_map in cases:
        data = (rng.random(src_dims) * 200).astype(dtype)
        source = Volume(data, src_affine)
        out = geometry.resample(source, tgt_dims, target_affine, world_map)
        want = _dense_resample(source, tgt_dims, target_affine, world_map)
        assert out.data.dtype == want.dtype
        np.testing.assert_array_equal(out.data, want)


@st.composite
def nearest_inputs(draw):
    """A source volume of any dtype resample reads, non-finite voxels in
    float ones (a whole plane next to the last among them), its grid and a
    target grid of 1-12 voxels an axis, and a map between them: "oblique"
    on random permuted, flipped, anisotropic and oblique grids, zooms 0.5-2;
    "half-voxel" on axis-aligned grids with dyadic spacings, zooms and
    shifts, so that coordinates fall exactly on half voxels and whole ones,
    the edges at -0.5, 0, n - 1 and n - 0.5 among them; "whole-voxel", a
    permutation of the axes onto a target of the source's dims and a shift
    of at most a voxel, so that every coordinate is a voxel index; "decimal",
    a voxel map of tenths, whose sums round differently in another order;
    "disjoint" with no overlap at all; "rank-deficient", an oblique map that
    collapses one world axis or all three. A "sparse" source is zero outside
    a random, possibly empty, sub-box, with -0.0 voxels in the zero region
    of a float one, so that only the target voxels near that box read it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = np.dtype(draw(st.sampled_from([bool, np.uint8, np.int16, np.int32,
                                           np.float32, np.float64])))
    src_dims, tgt_dims = (tuple(draw(st.lists(st.integers(1, 12), min_size=3, max_size=3)))
                          for _ in range(2))
    kind = draw(st.sampled_from(["oblique", "half-voxel", "whole-voxel", "decimal",
                                 "disjoint", "rank-deficient"]))
    if dtype == bool:
        data = rng.random(src_dims) < 0.5
    elif dtype.kind in "iu":
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, src_dims, dtype=dtype, endpoint=True)
    else:
        data = (rng.standard_normal(src_dims) * 1e3).astype(dtype)
        for value in (np.nan, np.inf, -np.inf):
            data[tuple(rng.integers(0, src_dims))] = value
        axis = rng.integers(3)
        if src_dims[axis] > 1:
            # A plane of NaN or inf: more non-finite voxels, which a nearest
            # resample copies bit for bit. Dropping these draws would shift
            # the generator, and with it every derandomized example.
            np.moveaxis(data, axis, 0)[-2] = rng.choice([np.nan, np.inf])
    if draw(st.sampled_from(["dense", "sparse"])) == "sparse":
        lo = rng.integers(0, src_dims, endpoint=True)
        hi = rng.integers(lo, src_dims, endpoint=True)
        keep = np.zeros(src_dims, dtype=bool)
        keep[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
        data[~keep] = 0
        if dtype.kind == "f":
            data[~keep & (rng.random(src_dims) < 0.5)] = -0.0
    if kind == "whole-voxel":
        grids = [np.eye(4), np.eye(4)]
        perm = rng.permutation(3)
        tgt_dims = tuple(src_dims[a] for a in perm)
        world_map = np.eye(4)
        world_map[:3, :3] = np.eye(3)[:, perm]
        world_map[:3, 3] = rng.integers(-1, 2, 3)
    elif kind == "decimal":
        grids = [np.eye(4), np.eye(4)]
        world_map = np.eye(4)
        world_map[:3] = rng.integers(-20, 21, (3, 4)) / 10
    elif kind == "half-voxel":
        grids = []
        for dims in (src_dims, tgt_dims):
            aff = np.eye(4)
            aff[:3, :3] = (np.eye(3)[:, rng.permutation(3)] * rng.choice([-1.0, 1.0], 3)
                           * rng.choice([0.5, 1.0, 2.0], 3))
            aff[:3, 3] = rng.integers(-8, 9, 3) / 2
            grids.append(aff)
        world_map = np.diag([*rng.choice([-1.0, 0.5, 1.0, 1.5, 2.0], 3), 1.0])
        world_map[:3, 3] = rng.integers(-9, 10, 3) / 2
    else:
        grids = [_random_grid(rng, src_dims), _random_grid(rng, tgt_dims)]
        world_map = geometry.affine_matrix(
            rng.uniform(-3.0, 3.0, 3), rng.uniform(-np.pi, np.pi, 3),
            rng.uniform(0.5, 2.0, 3), rng.uniform(-0.2, 0.2, 3), rng.uniform(-2.0, 2.0, 3))
        if kind == "disjoint":
            world_map = geometry.translation(rng.choice([-1.0, 1.0], 3) * 100.0) @ world_map
        elif kind == "rank-deficient":
            collapse = np.eye(4)
            collapse[:3, :3] = 0.0 if rng.random() < 0.25 else np.diag(rng.permutation([0, 1, 1]))
            world_map = world_map @ collapse
    return data, grids[0], tgt_dims, grids[1], world_map


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=nearest_inputs())
def test_resample_nearest_matches_scipy_bit_for_bit(case):
    """A nearest resample writes the bytes scipy's affine_transform writes
    with order 0 and mode "grid-constant" (a bool source read as uint8)."""
    data, src_affine, tgt_dims, target_affine, world_map = case
    source = (BinaryMask if data.dtype == bool else Volume)(data, src_affine)
    out = geometry.resample(source, tgt_dims, target_affine, world_map)
    raw = data.view(np.uint8) if data.dtype == bool else data
    want = ndimage.affine_transform(
        raw, geometry.invert(src_affine) @ world_map @ target_affine,
        output_shape=tgt_dims, output=raw.dtype, order=0, mode="grid-constant")
    assert out.data.dtype == data.dtype and out.data.shape == tgt_dims
    assert out.data.tobytes() == want.tobytes()


def _scipy_trilinear(source, tgt_dims, target_affine, world_map):
    """scipy's affine_transform with order 1 and mode "constant" into
    float64, cast to the source's dtype."""
    want = ndimage.affine_transform(
        source.data, geometry.invert(source.affine) @ world_map @ target_affine,
        output_shape=tgt_dims, output=np.float64, order=1, mode="constant")
    return want.astype(source.data.dtype)


def _assert_sampled_as_scipy(source, tgt_dims, target_affine, world_map):
    """sample_trilinear writes _scipy_trilinear's bytes."""
    out = synthetic.sample_trilinear(source, tgt_dims, target_affine, world_map)
    want = _scipy_trilinear(source, tgt_dims, target_affine, world_map)
    assert out.data.dtype == np.float32 and out.data.shape == tuple(tgt_dims)
    assert out.data.tobytes() == want.tobytes()


@pytest.mark.parametrize("size", [32, 64])
def test_random_subject_is_sampled_as_scipy_samples_it(size):
    """The head of random_subject, seeds 1-10, holds the bytes scipy's
    trilinear affine_transform writes into float64, cast to float32: on
    these subjects the registration kernel's rounding reaches no float32
    bit (on rare voxels elsewhere it can, see sample_trilinear)."""
    head = synthetic.nominal_head(size)
    for seed in range(1, 11):
        phantom = synthetic.random_subject(head, seed)
        want = _scipy_trilinear(head.volume, head.volume.dims, head.volume.affine,
                                phantom.true_transform)
        assert phantom.volume.data.tobytes() == want.tobytes()


def test_sample_trilinear_matches_scipy_on_the_tests_truths(head):
    """Criterion 4's 20 misalignments, the registration tests' translations
    (one of them partly out of the field of view) and rotation with scale,
    and parity's 1 x 1 x 2.5 mm grid over seed 1's subject."""
    v = head.volume
    center = np.full(3, 31.5)
    truths = [synthetic.random_rigid_affine(np.random.default_rng(seed), center, 15.0, 10.0,
                                            (0.95, 1.05)) for seed in range(20)]
    truths += [geometry.translation((5.0, -3.0, 2.0)), geometry.translation((25.0, -20.0, 18.0)),
               geometry.affine_matrix(np.zeros(3), (0.0, 0.0, np.deg2rad(5.0)),
                                      np.full(3, 1.05), np.zeros(3), center)]
    for truth in truths:
        _assert_sampled_as_scipy(v, v.dims, v.affine, truth)
    subject = synthetic.random_subject(head, 1).volume
    spacing = (1.0, 1.0, 2.5)
    dims = tuple(int(np.ceil(n / s)) for n, s in zip(v.dims, spacing))
    _assert_sampled_as_scipy(subject, dims, v.affine @ np.diag([*spacing, 1.0]), np.eye(4))


def test_sample_trilinear_matches_scipy_up_to_the_sources_faces():
    """A source non-zero up to its faces, on random oblique, permuted and
    anisotropic grids with 1-8 voxels an axis, and under shifts that put
    coordinates on 0 and n - 1, a voxel beyond them and 1e-9 beyond them:
    a point outside [0, n - 1] on any axis reads 0, as in scipy. A disjoint
    map reads +0.0 everywhere."""
    rng = np.random.default_rng(62)
    cases = []
    for _ in range(60):
        src_dims, tgt_dims = (tuple(int(d) for d in rng.integers(1, 9, 3)) for _ in range(2))
        world_map = geometry.affine_matrix(
            rng.uniform(-1.5, 1.5, 3), rng.uniform(-0.4, 0.4, 3),
            rng.uniform(0.8, 1.25, 3), rng.uniform(-0.1, 0.1, 3), np.zeros(3))
        cases.append((src_dims, _random_grid(rng, src_dims), tgt_dims,
                      _random_grid(rng, tgt_dims), world_map))
    for shift in (-1.0, -1e-9, 1e-9, 1.0, 100.0):
        cases.append(((5, 6, 7), np.eye(4), (5, 6, 7), np.eye(4),
                      geometry.translation(np.full(3, shift))))
    for src_dims, src_affine, tgt_dims, target_affine, world_map in cases:
        source = Volume((rng.random(src_dims) * 200 + 1).astype(np.float32), src_affine)
        _assert_sampled_as_scipy(source, tgt_dims, target_affine, world_map)


def test_resample_allocates_no_per_voxel_coordinates():
    """A nearest resample of a 64^3 mask writes its output directly. As a
    uint8 Volume or as a BinaryMask it allocates at most 1.39 bytes per
    target voxel above entry: its 1-byte output and the walk's and the
    kernel's block buffers (1.336-1.343 bytes measured), with no float64
    output (8 bytes), no coordinate array (24 bytes) and no uint8 copy of
    a mask to read above 0 (2 bytes). A fill that adds m_a2 k from a
    strided block of all three axes' rows, which numpy buffers, read
    1.454-1.464. The block size depends on the dims, so a non-cubic grid
    is measured too."""
    world_map = _z_turn(0.1) @ geometry.translation((0.3, -0.2, 0.1))
    for dims in ((64, 64, 64), (96, 80, 40)):
        for mask, bound in (
            (Volume(np.ones(dims, dtype=np.uint8), np.eye(4)), 1.39),
            (BinaryMask(np.ones(dims, dtype=bool), np.eye(4)), 1.39),
        ):
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                out = geometry.resample(mask, dims, mask.affine, world_map)
                peak = tracemalloc.get_traced_memory()[1] - entry
            finally:
                tracemalloc.stop()
            assert out.data.dtype == mask.data.dtype
            assert peak <= bound * np.prod(dims)
