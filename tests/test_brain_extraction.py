"""Brain masks: an external mask file, or the classical fallback."""

import numpy as np
import pytest

from defacepipe import nifti
from defacepipe.brain_extraction import (
    extract_brain,
    fallback_extract,
    otsu_threshold,
)
from defacepipe.errors import EmptyMask, FileError, GridMismatch
from defacepipe.evaluation import dice
from defacepipe.morphology import apply_mask
from defacepipe.volume import BinaryMask, Volume


def test_otsu_separates_bimodal():
    rng = np.random.default_rng(1)
    low = rng.normal(10, 1, 5000)
    high = rng.normal(100, 5, 5000)
    t = otsu_threshold(np.concatenate([low, high]))
    # the threshold must fall in the gap and classify both modes cleanly
    assert (low < t).mean() > 0.99
    assert (high > t).mean() > 0.99


def test_otsu_constant_input():
    assert otsu_threshold(np.full(100, 5.0)) == 5.0


def test_external_mask_loaded_verbatim(head, tmp_path):
    path = tmp_path / "mask.nii"
    nifti.write_mask(head.brain_mask, path)
    out = extract_brain(head.volume, path)
    np.testing.assert_array_equal(out.data, head.brain_mask.data)


def test_external_stripped_volume_support(head, tmp_path):
    stripped = apply_mask(head.volume, head.brain_mask)
    path = tmp_path / "stripped.nii"
    nifti.write_nifti(stripped, nifti.sidecar_for_dtype(np.float32), path)
    out = extract_brain(head.volume, path)
    # stage-3 semantics: the stripped volume's nonzero support
    np.testing.assert_array_equal(out.data, stripped.data > 0)


def test_external_grid_mismatch(head, tmp_path):
    small = Volume(head.volume.data[:32, :32, :32], head.volume.affine)
    path = tmp_path / "small.nii"
    nifti.write_nifti(small, nifti.sidecar_for_dtype(np.float32), path)
    with pytest.raises(GridMismatch):
        extract_brain(head.volume, path)


def test_external_unreadable(head, tmp_path):
    bad = tmp_path / "garbage.nii"
    bad.write_bytes(b"not a nifti")
    with pytest.raises(FileError):
        extract_brain(head.volume, bad)


def test_external_empty_mask(head, tmp_path):
    zero = BinaryMask(
        np.zeros(head.volume.dims, bool), head.volume.affine
    )
    path = tmp_path / "empty.nii"
    nifti.write_mask(zero, path)
    with pytest.raises(EmptyMask):
        extract_brain(head.volume, path)


def test_fallback_empty_input():
    v = Volume(np.zeros((8, 8, 8), dtype=np.float32), np.eye(4))
    with pytest.raises(EmptyMask):
        fallback_extract(v)


def test_fallback_phantom_dice(head):
    mask = fallback_extract(head.volume)
    assert mask.same_grid(head.volume)
    assert dice(mask, head.brain_mask) >= 0.98


def test_fallback_bright_ball_with_dim_noise_blobs():
    rng = np.random.default_rng(6)
    dims = (48, 48, 48)
    grid = np.indices(dims, dtype=np.float64)
    ball = ((grid - 24.0) ** 2).sum(axis=0) <= 18.0**2
    data = np.where(ball, 100.0, 0.0)
    for _ in range(5):
        c = rng.integers(3, 45, 3)
        blob = ((grid - c.reshape(3, 1, 1, 1)) ** 2).sum(axis=0) <= 2.0**2
        data[blob & ~ball] = 20.0
    mask = fallback_extract(Volume(data.astype(np.float32), np.eye(4)))
    truth = BinaryMask(ball, np.eye(4))
    assert dice(mask, truth) >= 0.98


def test_fallback_deterministic(head):
    a = fallback_extract(head.volume)
    b = fallback_extract(head.volume)
    np.testing.assert_array_equal(a.data, b.data)
