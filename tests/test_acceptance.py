"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Tolerances are pinned in the asserts; shared expensive work (the batch of
registered deface runs) is computed once per module.
"""

import json
import time

import numpy as np
import pytest
from scipy import ndimage

from defacepipe import nifti, synthetic
from defacepipe.brain_extraction import BrainMaskSource, fallback_extract
from defacepipe.cli import main
from defacepipe.defacing import (
    DefaceConfig,
    convex_hull_2d,
    deface,
    make_template_pack,
    quickshear,
)
from defacepipe.errors import DegenerateHull
from defacepipe.evaluation import dice, multilabel_dice, propagate_labels
from defacepipe.geometry import invert
from defacepipe.morphology import dilate
from defacepipe.registration import mutual_information, prepare, register_affine
from defacepipe.volume import BinaryMask, Volume

FALLBACK = BrainMaskSource("fallback")


def _report(n, label, ok):
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def base():
    return synthetic.nominal_head()


@pytest.fixture(scope="module")
def base_pack(base):
    return make_template_pack(base.volume)


@pytest.fixture(scope="module")
def registered_batch(base, base_pack):
    """50 randomized subjects defaced with real registration (criteria 2, 3),
    against one prepared template as in a CLI batch."""
    fixed = prepare(base_pack.template)
    out = []
    for seed in range(100, 150):
        subject = synthetic.random_subject(base, seed=seed)
        result = deface(subject.volume, base_pack, FALLBACK, fixed=fixed)
        out.append((seed, subject, result))
    return out


def test_criterion_1_brain_safety_under_adversarial_transforms(base, base_pack):
    """Zero brain voxels altered, even with corrupted stage-7 transforms."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    ok = True
    for seed in range(200, 250):
        subject = synthetic.random_subject(base, seed=seed)
        # adversarial registration outcome: wildly wrong but invertible
        bad = synthetic.random_rigid_affine(
            rng, np.full(3, 31.5), max_translation_mm=300.0, max_rotation_deg=180.0,
            scale_range=(0.5, 2.0),
        )
        result = deface(
            subject.volume, base_pack, FALLBACK, DefaceConfig(transform_override=bad)
        )
        extracted = fallback_extract(subject.volume)
        protected = dilate(extracted, 7.0).data
        if not np.array_equal(
            result.defaced.data[protected], subject.volume.data[protected]
        ):
            ok = False
        # the analytic ground-truth brain must survive too
        if not np.array_equal(
            result.defaced.data[subject.brain_mask.data],
            subject.volume.data[subject.brain_mask.data],
        ):
            ok = False
    elapsed = time.time() - t0
    _report(1, "brain-safety, 50 phantoms + adversarial transforms", ok and elapsed < 300)


def test_criterion_2_face_removal_on_phantoms(registered_batch):
    """All nose/eye blob voxels set to background, 50/50 phantoms."""
    clean = sum(
        np.all(result.defaced.data[subject.face_mask.data] == 0)
        for _seed, subject, result in registered_batch
    )
    _report(2, f"face blobs zeroed on {clean}/50 phantoms", clean == 50)


def test_criterion_3_brain_mask_dice(registered_batch):
    """Extractor-on-original vs extractor-on-defaced Dice >= 0.999 everywhere."""
    worst = min(
        dice(fallback_extract(subject.volume), fallback_extract(result.defaced))
        for _seed, subject, result in registered_batch
    )
    _report(3, f"brain-mask Dice (worst {worst:.6f})", worst >= 0.999)


def _residual_errors(recovered, truth, center):
    from scipy.linalg import polar

    d = recovered @ invert(truth)
    lin = d[:3, :3]
    u, _ = polar(lin)
    ang = np.degrees(np.arccos(np.clip((np.trace(u) - 1) / 2, -1, 1)))
    scale = abs(abs(np.linalg.det(lin)) ** (1 / 3) - 1)
    c = np.append(center, 1.0)
    trans = np.linalg.norm((d @ c)[:3] - center)
    return trans, ang, scale


def test_criterion_4_registration_recovery(base):
    """<=0.5 mm / 0.5 deg / 0.01 scale over 20 seeded misalignments."""
    center = np.full(3, 31.5)
    fixed = prepare(base.volume)
    ok = True
    worst = (0.0, 0.0, 0.0)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        truth = synthetic.random_rigid_affine(
            rng, center, max_translation_mm=15.0, max_rotation_deg=10.0,
            scale_range=(0.95, 1.05),
        )
        subject = synthetic.transformed_phantom(base, truth)
        t0 = time.time()
        recovered, _diag = register_affine(fixed, subject.volume)
        elapsed = time.time() - t0
        trans, ang, scale = _residual_errors(recovered, truth, center)
        worst = tuple(max(a, b) for a, b in zip(worst, (trans, ang, scale)))
        if trans > 0.5 or ang > 0.5 or scale > 0.01 or elapsed > 60.0:
            ok = False
    _report(
        4,
        f"registration recovery, worst {worst[0]:.3f} mm / "
        f"{worst[1]:.3f} deg / {worst[2]:.4f} scale",
        ok,
    )


def test_criterion_5_oracle_equivalences():
    """Dilation vs distance transform, Dice vs counts, MI vs analytic, hull
    vs brute force: exact (1e-12 for MI)."""
    ok = True
    rng = np.random.default_rng(55)

    # dilation == Euclidean distance-transform threshold, 100 random masks
    for _ in range(100):
        dims = tuple(rng.integers(8, 33, 3))
        spacing = rng.choice([1.0, 1.25, 2.0], 3)
        mask = rng.random(dims) > float(rng.uniform(0.85, 0.97))
        if not mask.any():
            continue
        radius = float(rng.uniform(1.0, 6.0))
        got = dilate(BinaryMask(mask, np.diag([*spacing, 1.0])), radius).data
        dist = ndimage.distance_transform_edt(~mask, sampling=spacing)
        if not np.array_equal(got, dist <= radius):
            ok = False

    # Dice == direct count formula
    for _ in range(50):
        a = rng.random((6, 6, 6)) > 0.5
        b = rng.random((6, 6, 6)) > 0.5
        d = dice(BinaryMask(a, np.eye(4)), BinaryMask(b, np.eye(4)))
        if d != 2.0 * (a & b).sum() / (a.sum() + b.sum()):
            ok = False

    # MI of hand histograms vs frozen analytic values
    def mi(c):
        return mutual_information(np.asarray(c, float))

    if abs(mi([[0.5, 0.0], [0.0, 0.5]]) - 0.6931471805599453) > 1e-12:
        ok = False
    if abs(mi([[0.4, 0.1], [0.1, 0.4]]) - 0.19274475702175753) > 1e-12:
        ok = False
    if abs(mi(np.outer([0.3, 0.7], [0.6, 0.4]))) > 1e-12:
        ok = False

    # convex hull == O(n^3) brute force on 100 random point sets
    from test_defacing import brute_force_hull

    for _ in range(100):
        pts = rng.integers(0, 12, size=(int(rng.integers(4, 30)), 2)).astype(float)
        try:
            hull = convex_hull_2d(pts)
        except DegenerateHull:
            continue
        if set(hull) != brute_force_hull(pts):
            ok = False

    _report(5, "oracle equivalences (dilation, Dice, MI, hull)", ok)


def test_criterion_6_nifti_round_trip(tmp_path):
    """read o write o read identity, all five datatypes, plain and gzipped."""
    rng = np.random.default_rng(6)
    ok = True
    for dtype in (np.uint8, np.int16, np.int32, np.float32, np.float64):
        if np.issubdtype(dtype, np.integer):
            data = rng.integers(0, 120, size=(5, 6, 7)).astype(dtype)
        else:
            data = (rng.random((5, 6, 7)) * 100).astype(dtype)
        affine = np.diag([1.0, 1.5, 2.0, 1.0])
        affine[:3, 3] = (-20.0, 3.0, 8.0)
        for ext in (".nii", ".nii.gz"):
            path = tmp_path / f"{np.dtype(dtype).name}{ext}"
            nifti.write_nifti(Volume(data, affine), nifti.sidecar_for_dtype(dtype), path)
            back, sidecar = nifti.read_nifti(path)
            path2 = tmp_path / f"{np.dtype(dtype).name}_rt{ext}"
            nifti.write_nifti(back, sidecar, path2)
            again, _ = nifti.read_nifti(path2)
            if not (
                np.array_equal(back.data, data)
                and np.array_equal(again.data, data)
                and again.data.dtype == dtype
                and np.allclose(again.affine, affine, atol=1e-5)
            ):
                ok = False
    _report(6, "NIfTI round-trip, 5 datatypes x {plain, gzip}", ok)


def test_criterion_7_label_propagation_identity():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 6, size=(10, 10, 10))
    lv = Volume(labels, np.eye(4))
    propagated = propagate_labels(lv, np.eye(4), (10, 10, 10), np.eye(4))
    scores = multilabel_dice(lv, propagated)
    ok = len(scores) > 0 and all(v == 1.0 for v in scores.values())
    _report(7, "identity label propagation Dice 1.0 per label", ok)


def test_criterion_8_quickshear_never_cuts_brain():
    rng = np.random.default_rng(8)
    dims = (24, 24, 24)
    vol = Volume(np.full(dims, 10.0, dtype=np.float32), np.eye(4))
    checked = 0
    ok = True
    while checked < 100:
        brain = synthetic.random_ellipsoid_mask(dims, np.eye(4), rng)
        try:
            out = quickshear(vol, brain, buffer_mm=2.0)
        except DegenerateHull:
            continue
        checked += 1
        if not np.all(out.data[brain.data] == 10.0):
            ok = False
    _report(8, "QuickShear removed zero brain voxels in 100 masks", ok)


def test_criterion_9_cli_determinism(base, base_pack, tmp_path):
    """Two seeded cmd_deface runs byte-identical modulo timestamps."""
    sc = nifti.sidecar_for_dtype(np.float32)
    nifti.write_nifti(base_pack.template, sc, tmp_path / "template.nii.gz")
    nifti.write_mask(base_pack.keep_mask, tmp_path / "keep.nii.gz")
    subject = synthetic.random_subject(base, seed=9)
    nifti.write_nifti(subject.volume, sc, tmp_path / "subj.nii.gz")

    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main([
            "deface", str(tmp_path / "subj.nii.gz"),
            "--template", str(tmp_path / "template.nii.gz"),
            "--face-mask", str(tmp_path / "keep.nii.gz"),
            "--output-dir", str(out),
            "--seed", "0",
        ])
        assert code == 0
        outs.append(out)

    ok = True
    for name in ("subj_defaced.nii.gz", "subj_brainsafe.nii.gz", "subj_xfm.txt"):
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
            ok = False
    provs = []
    for out in outs:
        p = json.loads((out / "subj_prov.json").read_text())
        p.pop("timing")
        provs.append(p)
    if provs[0] != provs[1]:
        ok = False
    _report(9, "seeded CLI runs byte-identical modulo timestamps", ok)
