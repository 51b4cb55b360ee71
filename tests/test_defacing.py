"""Pipeline orchestration, QuickShear baseline, convex hull, template packs."""

import numpy as np
import pytest

from defacepipe import defacing, registration, synthetic
from defacepipe.brain_extraction import BrainMaskSource
from defacepipe.defacing import (
    TemplatePack,
    convex_hull_2d,
    deface,
    make_template_pack,
    quickshear,
)
from defacepipe.errors import DegenerateHull, EmptyMask, StageError, TemplatePackError
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


def _source(head, tmp_path):
    from defacepipe import nifti

    path = tmp_path / "brainmask.nii"
    nifti.write_mask(head.brain_mask, path)
    return BrainMaskSource("external_file", path)


def test_deface_phantom_end_to_end(head, pack, fixed, tmp_path):
    subject = synthetic.random_subject(head, seed=1)
    src = _source(subject, tmp_path)
    result = deface(subject.volume, pack, fixed, src)

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


def test_deface_brain_safe_even_with_adversarial_transform(
    head, pack, fixed, register_as, tmp_path
):
    subject = synthetic.random_subject(head, seed=2)
    src = _source(subject, tmp_path)
    # worst case: registration claims the subject sits 500 mm away
    bad = np.eye(4)
    bad[:3, 3] = (500.0, -500.0, 500.0)
    register_as(bad)
    result = deface(subject.volume, pack, fixed, src)
    dil = dilate(subject.brain_mask, 7.0)
    np.testing.assert_array_equal(
        result.defaced.data[dil.data], subject.volume.data[dil.data]
    )
    np.testing.assert_array_equal(result.transform, bad)
    assert result.provenance["registration"] == {"injected": True}


def test_deface_registers_once_against_the_given_fixed_side(
    head, pack, monkeypatch, tmp_path
):
    """Stage 6 is one register_affine call on the caller's prepared template,
    whose config is the only home of the registration settings."""
    fixed = registration.prepare(pack.template, registration.RegistrationConfig(seed=7))
    calls = []

    def register_affine(fixed_side, moving):
        calls.append(fixed_side)
        return np.eye(4), {"seed": fixed_side.config.seed}

    def prepare(*args):
        raise AssertionError("deface prepared the template itself")

    monkeypatch.setattr(defacing, "register_affine", register_affine)
    monkeypatch.setattr(registration, "prepare", prepare)
    monkeypatch.setattr(defacing, "prepare", prepare, raising=False)
    result = deface(head.volume, pack, fixed, _source(head, tmp_path))
    assert calls == [fixed]
    assert result.provenance["registration"] == {"seed": 7}
    assert "threshold" not in result.provenance


def test_deface_records_stage_timings(head, pack, fixed, register_as, tmp_path):
    register_as(np.eye(4))
    timing = deface(head.volume, pack, fixed, _source(head, tmp_path)).provenance["timing"]
    stages = timing["stages"]
    assert sorted(stages) == [str(n) for n in range(1, 10)]
    assert all(s >= 0 for s in stages.values())
    assert sum(stages.values()) <= timing["elapsed_s"]


def test_deface_keep_everything_mask_is_identity(head, fixed, register_as, tmp_path):
    stripped = apply_mask(head.volume, head.brain_mask)
    all_keep = TemplatePack(
        template=stripped,
        keep_mask=BinaryMask(np.ones(stripped.dims, bool), stripped.affine),
    )
    register_as(np.eye(4))
    result = deface(head.volume, all_keep, fixed, _source(head, tmp_path))
    np.testing.assert_array_equal(result.defaced.data, head.volume.data)


def test_deface_full_dilated_mask_is_identity(head, pack, fixed, register_as, tmp_path):
    # a margin large enough to cover the whole grid makes the union full
    register_as(np.eye(4))
    result = deface(head.volume, pack, fixed, _source(head, tmp_path), margin_mm=200.0)
    np.testing.assert_array_equal(result.defaced.data, head.volume.data)


def test_deface_idempotent_on_brain_safe_region(head, pack, fixed, register_as, tmp_path):
    subject = synthetic.random_subject(head, seed=3)
    src = _source(subject, tmp_path)
    register_as(subject.true_transform)
    first = deface(subject.volume, pack, fixed, src)
    second = deface(first.defaced, pack, fixed, src)
    np.testing.assert_array_equal(
        second.defaced.data[first.brain_safe_mask.data],
        first.defaced.data[first.brain_safe_mask.data],
    )
    # the removed region stays removed
    assert np.all(second.defaced.data[~first.brain_safe_mask.data] == 0)


def test_deface_stage_errors_tagged(pack, fixed):
    empty = Volume(np.zeros((16, 16, 16), dtype=np.float32), np.eye(4))
    with pytest.raises(StageError) as exc:
        deface(empty, pack, fixed, BrainMaskSource("fallback"))
    assert exc.value.stage == 2
    assert "stage 2" in str(exc.value)
