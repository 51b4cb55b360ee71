"""Pipeline orchestration, QuickShear baseline, convex hull, template packs."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defacepipe import defacing, geometry, nifti, synthetic
from defacepipe.brain_extraction import extract_brain, read_mask
from defacepipe.defacing import (
    TemplatePack,
    convex_hull_2d,
    deface,
    make_template_pack,
    quickshear,
)
from defacepipe.errors import (
    DegenerateHull,
    EmptyMask,
    GridMismatch,
    StageError,
    TemplatePackError,
)
from defacepipe.morphology import apply_mask, dilate
from defacepipe.volume import BinaryMask, Volume


# ---------------------------------------------------------------------------
# convex hull


def brute_force_hull(points):
    """O(n^3) supporting-line test. A directed pair (a,b) spans a supporting
    line when every point lies on one side of it (or on it); the extreme
    points along each supporting line are hull vertices. Strict: collinear
    interior points of an edge are not vertices."""
    pts = np.array(sorted({(float(p[0]), float(p[1])) for p in points}))
    n = len(pts)
    verts = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a, b = pts[i], pts[j]
            d = b - a
            cross = (pts[:, 0] - a[0]) * d[1] - (pts[:, 1] - a[1]) * d[0]
            if np.all(cross <= 1e-9):
                on = np.abs(cross) <= 1e-9
                t = (pts[on] - a) @ d
                verts.add(tuple(pts[on][np.argmin(t)]))
                verts.add(tuple(pts[on][np.argmax(t)]))
    return verts


def test_hull_square_with_center():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
    hull = convex_hull_2d(pts)
    assert set(hull) == {(0, 0), (1, 0), (1, 1), (0, 1)}


def test_hull_triangle_ccw():
    hull = convex_hull_2d([(0, 0), (2, 0), (1, 2)])
    assert set(hull) == {(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)}
    # counter-clockwise: positive signed area
    area = 0.0
    for i in range(3):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % 3]
        area += x1 * y2 - x2 * y1
    assert area > 0


def test_hull_collinear_raises():
    with pytest.raises(DegenerateHull):
        convex_hull_2d([(0, 0), (1, 1), (2, 2), (3, 3)])
    with pytest.raises(DegenerateHull):
        convex_hull_2d([(0, 0), (1, 1)])


def test_hull_drops_collinear_edge_points():
    hull = convex_hull_2d([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
    assert (1.0, 0.0) not in hull


def test_hull_matches_brute_force_random():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = rng.integers(4, 40)
        pts = rng.integers(0, 15, size=(n, 2)).astype(float)
        try:
            hull = convex_hull_2d(pts)
        except DegenerateHull:
            # oracle agrees there is no 2D hull
            uniq = {tuple(p) for p in pts}
            if len(uniq) >= 3:
                arr = np.array(sorted(uniq))
                rel = arr - arr[0]
                assert np.all(
                    np.abs(rel[:, 0] * rel[-1, 1] - rel[:, 1] * rel[-1, 0]) <= 1e-9
                )
            continue
        assert set(hull) == brute_force_hull(pts)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    section=st.tuples(st.integers(1, 24), st.integers(1, 24), st.floats(0.0, 1.0),
                      st.integers(0, 2**32 - 1)).map(
        lambda t: np.random.default_rng(t[3]).random(t[:2]) < t[2]),
    spacing=st.tuples(*[st.sampled_from([1.0, 0.9375, 1.2, 1 / 3, 2.5, 0.7])] * 2),
)
def test_hull_of_section_ends_is_hull_of_section(section, spacing):
    """On random masks and anisotropic spacings, the hull of the first and
    last voxel of each row and column is the hull of every voxel, and a
    mask with no hull fails with the same error."""
    sp = np.array(spacing)

    def hull(points):
        try:
            return convex_hull_2d(points * sp)
        except DegenerateHull as e:
            return str(e)

    assert hull(defacing._section_ends(section)) == hull(np.argwhere(section))


# ---------------------------------------------------------------------------
# quickshear


def test_quickshear_sphere_removes_face_not_brain(head):
    out = quickshear(head.volume, head.brain_mask, buffer_mm=2.0)
    brain = head.brain_mask.data
    np.testing.assert_array_equal(out.data[brain], head.volume.data[brain])
    removed = (out.data == 0) & (head.volume.data > 0)
    assert removed.any()
    assert not (removed & brain).any()


def test_quickshear_removes_face_blobs(head):
    out = quickshear(head.volume, head.brain_mask, buffer_mm=2.0)
    # the nose sits well anterior-inferior of the brain hull plane
    nose = head.face_mask.data & (head.volume.data == 30.0)
    assert (out.data[nose] == 0).mean() > 0.5


# Orientations a RAS phantom is stored in: stored axis j is RAS axis
# axes[j], reversed where flips[j] is set.
STORED_ORIENTATIONS = [
    ((2, 0, 1), (True, True, False)),
    ((1, 2, 0), (False, True, True)),
    ((0, 2, 1), (True, False, True)),
]


def _stored_data(data, axes, flips):
    rev = [j for j in range(3) if flips[j]]
    return np.ascontiguousarray(np.flip(np.transpose(data, axes), rev))


def _stored(grid, axes, flips):
    """grid (a Volume or BinaryMask on a RAS grid) with its voxels stored as
    axes and flips say, and the affine that keeps every voxel's world
    position."""
    to_ras = np.zeros((4, 4))  # stored voxel index -> RAS voxel index
    to_ras[3, 3] = 1.0
    for j, (axis, flip) in enumerate(zip(axes, flips)):
        to_ras[axis, j] = -1.0 if flip else 1.0
        to_ras[axis, 3] = grid.dims[axis] - 1 if flip else 0.0
    return type(grid)(_stored_data(grid.data, axes, flips), grid.affine @ to_ras)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mask_axes, mask_flips",
                         [((0, 1, 2), (False, False, False)), *STORED_ORIENTATIONS,
                          (None, None)])
@pytest.mark.parametrize("axes, flips", STORED_ORIENTATIONS)
def test_quickshear_on_stored_axes_matches_ras(head, axes, flips, mask_axes, mask_flips):
    """The phantom stored with permuted and flipped voxel axes, its affine
    permuted to match, is sheared to the RAS output stored the same way,
    bit for bit, whichever axes of the same world grid its brain mask is
    stored on, and also without a brain mask (mask_axes None), when the
    fallback extractor finds the brain."""
    volume = _stored(head.volume, axes, flips)
    brain = None if mask_axes is None else _stored(head.brain_mask, mask_axes, mask_flips)
    out = quickshear(volume, brain, buffer_mm=2.0)
    ras = quickshear(head.volume, None if brain is None else head.brain_mask, buffer_mm=2.0)
    assert _same_bits(out.data, _stored_data(ras.data, axes, flips))
    np.testing.assert_array_equal(out.affine, volume.affine)


def test_quickshear_on_stored_axes_copies_no_volume(head):
    """On a volume stored with permuted and flipped axes, QuickShear
    reorients the 1-byte brain mask only and masks the input on its own
    grid through a view of the plane's keep side: its peak is the output
    plus under 0.1 byte a voxel (0.068-0.077 measured), with no copy of the
    input volume and no full-grid keep mask (1 byte a voxel)."""
    for axes, flips in STORED_ORIENTATIONS:
        volume = _stored(head.volume, axes, flips)
        brain = _stored(head.brain_mask, axes, flips)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            quickshear(volume, brain, buffer_mm=2.0)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < volume.data.nbytes + 0.1 * volume.data.size, axes


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16, np.uint8])
def test_quickshear_output_is_where_keep_v_0_bit_for_bit(head, dtype):
    """On stored axes, the output is np.where(keep, v, 0) in v's dtype, bit
    for bit: a NaN and a -0.0 voxel on the keep side are kept as they are,
    and on the face side they read +0. keep is the RAS keep side, read off
    a sheared volume of ones and stored the same way."""
    axes, flips = STORED_ORIENTATIONS[0]
    data = head.volume.data.astype(dtype)
    keep_points, face_points = [(32, 30, 38), (32, 5, 60)], [(32, 62, 20), (32, 62, 2)]
    if data.dtype.kind == "f":
        for nan, zero in (keep_points, face_points):
            data[nan], data[zero] = np.nan, -0.0
    ones = Volume(np.ones(data.shape, dtype=np.uint8), head.volume.affine)
    keep = quickshear(ones, head.brain_mask).data != 0
    assert all(keep[p] for p in keep_points) and not any(keep[p] for p in face_points)
    volume = _stored(Volume(data, head.volume.affine), axes, flips)
    out = quickshear(volume, _stored(head.brain_mask, axes, flips))
    expected = np.where(_stored_data(keep, axes, flips), volume.data, 0)
    assert _same_bits(out.data, expected.astype(dtype, copy=False))


def test_brain_mask_off_the_grid_is_refused_alike(head, pack):
    """A brain mask shifted by one voxel is refused with one message by
    quickshear and by deface, whose stage 2 reports it."""
    shifted = BinaryMask(head.brain_mask.data,
                         head.brain_mask.affine @ geometry.translation((1.0, 0.0, 0.0)))
    with pytest.raises(GridMismatch) as direct:
        quickshear(head.volume, shifted)
    with pytest.raises(StageError) as staged:
        deface(head.volume, pack, shifted)
    assert staged.value.stage == 2 and type(staged.value.cause) is GridMismatch
    assert str(staged.value.cause) == str(direct.value)


@pytest.mark.parametrize("buffer_mm", [-5.0, -1e-9, np.nan, np.inf])
def test_quickshear_rejects_unsafe_buffer(head, buffer_mm):
    """A negative buffer would move the plane into the brain and NaN would
    keep the whole face; both raise instead."""
    with pytest.raises(ValueError, match="buffer_mm"):
        quickshear(head.volume, head.brain_mask, buffer_mm=buffer_mm)


def test_quickshear_full_grid_mask_noop():
    data = np.full((10, 10, 10), 50.0, dtype=np.float32)
    v = Volume(data, np.eye(4))
    brain = BinaryMask(np.ones((10, 10, 10), bool), np.eye(4))
    out = quickshear(v, brain, buffer_mm=1.0)
    np.testing.assert_array_equal(out.data, data)


def test_quickshear_collinear_mid_slice():
    data = np.zeros((5, 5, 5), bool)
    data[2, 2, :] = True  # 1-voxel-thick line in the mid-sagittal slice
    with pytest.raises(DegenerateHull):
        quickshear(Volume(np.ones((5, 5, 5), np.float32), np.eye(4)),
                   BinaryMask(data, np.eye(4)), 1.0)


def test_quickshear_empty_mask():
    v = Volume(np.ones((5, 5, 5), np.float32), np.eye(4))
    with pytest.raises(EmptyMask):
        quickshear(v, BinaryMask(np.zeros((5, 5, 5), bool), np.eye(4)), 1.0)


@pytest.mark.parametrize("buffer_mm", [2.0, 0.0])
@pytest.mark.parametrize("affine", [
    pytest.param(np.eye(4), id="iso"),
    pytest.param(np.diag([1.0, 0.9375, 1.2, 1.0]), id="aniso"),
])
def test_quickshear_never_cuts_random_ellipsoids(affine, buffer_mm):
    """Even with no buffer, the plane offset and the face side come from
    one computation, so rounding cannot put a brain voxel past the plane."""
    rng = np.random.default_rng(123)
    dims = (24, 24, 24)
    vol = Volume(np.full(dims, 10.0, dtype=np.float32), affine)
    for _ in range(25):
        brain = synthetic.random_ellipsoid_mask(dims, affine, rng)
        try:
            out = quickshear(vol, brain, buffer_mm=buffer_mm)
        except DegenerateHull:
            continue
        assert np.all(out.data[brain.data] == 10.0)


# ---------------------------------------------------------------------------
# template packs


def test_make_template_pack_head(head, pack):
    # stripped template is the brain only; keep-mask covers all brain voxels
    assert pack.template.same_grid(pack.keep_mask)
    assert np.all(pack.keep_mask.data[pack.template.data > 0])
    # the face region is actually marked for removal
    removal = ~pack.keep_mask.data
    assert removal.sum() > 0
    assert removal[head.face_mask.data].mean() > 0.9


def test_make_template_pack_brain_only_all_ones(head):
    stripped = apply_mask(head.volume, head.brain_mask)
    pack = make_template_pack(stripped)
    assert pack.keep_mask.count() == np.prod(stripped.dims)


@pytest.mark.parametrize("face_dilate_mm", [np.nan, np.inf, -1.0])
def test_make_template_pack_rejects_a_bad_face_dilation(head, face_dilate_mm):
    with pytest.raises(ValueError, match="face_dilate_mm"):
        make_template_pack(head.volume, face_dilate_mm=face_dilate_mm)


def test_template_pack_validation_rejects_brain_removal(head, pack):
    with pytest.raises(TemplatePackError):
        TemplatePack(
            template=pack.template,
            keep_mask=BinaryMask(
                np.zeros(pack.template.dims, bool), pack.template.affine
            ),
        )


def test_template_sha256_stable(pack):
    same = TemplatePack(template=pack.template, keep_mask=pack.keep_mask)
    assert same.sha256 == pack.sha256
    other = TemplatePack(
        template=pack.template,
        keep_mask=BinaryMask(np.ones(pack.template.dims, bool), pack.template.affine),
    )
    assert other.sha256 != pack.sha256


# ---------------------------------------------------------------------------
# deface pipeline


def test_deface_phantom_end_to_end(head, pack):
    subject = synthetic.random_subject(head, seed=1)
    result = deface(subject.volume, pack, subject.brain_mask)

    # native space preserved
    assert result.defaced.dims == subject.volume.dims
    np.testing.assert_array_equal(result.defaced.affine, subject.volume.affine)
    assert result.defaced.data.dtype == subject.volume.data.dtype

    # brain bit-identical under the dilated mask
    dil = dilate(subject.brain_mask, 7.0)
    np.testing.assert_array_equal(
        result.defaced.data[dil.data], subject.volume.data[dil.data]
    )
    # face blobs gone
    assert np.all(result.defaced.data[subject.face_mask.data] == 0)

    prov = result.provenance
    assert prov["tool"] == "defacepipe"
    assert prov["brain_source"] == "external_file"
    assert prov["removed_voxels"] == int((~result.brain_safe_mask.data).sum())


@pytest.mark.parametrize("axes, flips", STORED_ORIENTATIONS)
def test_external_mask_on_stored_axes_matches_ras(head, pack, tmp_path, axes, flips):
    """A subject and its external brain mask, both stored with permuted and
    flipped voxel axes: the mask reads back as the RAS mask bit for bit, and
    deface, registration included, gives the RAS run's outputs stored the
    same way."""
    subject = synthetic.random_subject(head, seed=3)
    path = tmp_path / "stored_brainmask.nii"
    nifti.write_mask(_stored(subject.brain_mask, axes, flips), path)
    stored = read_mask(path)
    assert _same_bits(extract_brain(subject.volume, stored).data, subject.brain_mask.data)

    out = deface(_stored(subject.volume, axes, flips), pack, stored)
    ras = deface(subject.volume, pack, subject.brain_mask)
    assert _same_bits(out.defaced.data, _stored_data(ras.defaced.data, axes, flips))
    assert _same_bits(out.brain_safe_mask.data,
                      _stored_data(ras.brain_safe_mask.data, axes, flips))
    np.testing.assert_array_equal(out.transform, ras.transform)


def test_deface_brain_safe_even_with_adversarial_transform(
    head, pack, register_as
):
    subject = synthetic.random_subject(head, seed=2)
    # worst case: registration claims the subject sits 500 mm away
    bad = np.eye(4)
    bad[:3, 3] = (500.0, -500.0, 500.0)
    register_as(bad)
    result = deface(subject.volume, pack, subject.brain_mask)
    dil = dilate(subject.brain_mask, 7.0)
    np.testing.assert_array_equal(
        result.defaced.data[dil.data], subject.volume.data[dil.data]
    )
    np.testing.assert_array_equal(result.transform, bad)
    assert result.provenance["registration"] == {"injected": True}


@pytest.mark.parametrize("margin_mm", [np.nan, np.inf])
def test_deface_rejects_non_finite_margin(
    head, pack, register_as, margin_mm
):
    """A NaN or infinite margin would dilate the brain to nothing, and a
    wrong transform would then zero the whole brain: stage 4 fails."""
    subject = synthetic.random_subject(head, seed=2)
    bad = np.eye(4)
    bad[:3, 3] = (500.0, -500.0, 500.0)
    register_as(bad)
    with pytest.raises(StageError) as exc:
        deface(subject.volume, pack, subject.brain_mask, margin_mm)
    assert exc.value.stage == 4
    assert isinstance(exc.value.__cause__, ValueError)


def test_deface_prepares_the_pack_once(pack, head, monkeypatch):
    """Two deface calls on one pack prepare its template once, and stage 6
    registers each subject to that one prepared template. The pack carries
    no registration settings: they are constants."""
    assert [f.name for f in dataclasses.fields(TemplatePack)] == ["template", "keep_mask"]
    fresh = TemplatePack(pack.template, pack.keep_mask)
    real_prepare = defacing.prepare
    prepared, calls = [], []

    def prepare(template):
        prepared.append(template)
        return real_prepare(template)

    def register_affine(fixed_side, moving):
        calls.append(fixed_side)
        return np.eye(4), {"injected": True}

    monkeypatch.setattr(defacing, "prepare", prepare)
    monkeypatch.setattr(defacing, "register_affine", register_affine)
    results = [deface(head.volume, fresh, head.brain_mask) for _ in range(2)]
    assert len(prepared) == 1 and prepared[0] is fresh.template
    assert [c is fresh.fixed for c in calls] == [True, True]
    for result in results:
        assert result.provenance["registration"] == {"injected": True}
        assert "threshold" not in result.provenance


def test_building_a_pack_leaves_its_template_unprepared():
    """Preparing is deferred to the first registration, so building a pack
    (as make-template-pack does) costs no preparation."""
    made = make_template_pack(synthetic.nominal_head(32).volume)
    built = TemplatePack(made.template, made.keep_mask)
    assert "fixed" not in made.__dict__
    assert "fixed" not in built.__dict__


def test_deface_records_stage_timings(head, pack, register_as):
    register_as(np.eye(4))
    timing = deface(head.volume, pack, head.brain_mask).provenance["timing"]
    stages = timing["stages"]
    assert sorted(stages) == [str(n) for n in range(1, 10)]
    assert all(s >= 0 for s in stages.values())
    assert sum(stages.values()) <= timing["elapsed_s"]


def test_deface_keep_everything_mask_is_identity(head, register_as):
    stripped = apply_mask(head.volume, head.brain_mask)
    all_keep = TemplatePack(
        template=stripped,
        keep_mask=BinaryMask(np.ones(stripped.dims, bool), stripped.affine),
    )
    register_as(np.eye(4))
    result = deface(head.volume, all_keep, head.brain_mask)
    np.testing.assert_array_equal(result.defaced.data, head.volume.data)


def test_deface_full_dilated_mask_is_identity(head, pack, register_as):
    # a margin large enough to cover the whole grid makes the union full
    register_as(np.eye(4))
    result = deface(head.volume, pack, head.brain_mask, margin_mm=200.0)
    np.testing.assert_array_equal(result.defaced.data, head.volume.data)


def test_deface_idempotent_on_brain_safe_region(head, pack, register_as):
    subject = synthetic.random_subject(head, seed=3)
    register_as(subject.true_transform)
    first = deface(subject.volume, pack, subject.brain_mask)
    second = deface(first.defaced, pack, subject.brain_mask)
    np.testing.assert_array_equal(
        second.defaced.data[first.brain_safe_mask.data],
        first.defaced.data[first.brain_safe_mask.data],
    )
    # the removed region stays removed
    assert np.all(second.defaced.data[~first.brain_safe_mask.data] == 0)


def test_deface_stage_errors_tagged(pack):
    empty = Volume(np.zeros((16, 16, 16), dtype=np.float32), np.eye(4))
    with pytest.raises(StageError) as exc:
        deface(empty, pack)
    assert exc.value.stage == 2
    assert "stage 2" in str(exc.value)
