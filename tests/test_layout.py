"""A volume's memory order changes no result.

read_nifti returns a volume x fastest (F order), as its file stores it,
while phantoms and masks made in memory are C order. Each step that takes
a volume gives the same bits from either copy of one subject, on canonical
axes and stored flipped or permuted, and the steps that make a full-size
volume from it keep its order.
"""

import itertools

import numpy as np
import pytest

from defacepipe import geometry, nifti, registration, synthetic
from defacepipe.brain_extraction import extract_brain, fallback_extract, otsu_threshold
from defacepipe.defacing import deface, quickshear
from defacepipe.morphology import apply_mask
from defacepipe.volume import BinaryMask, Volume


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _layouts(grid):
    """grid as C order, and as F order with the same values."""
    return {"C": grid, "F": type(grid)(np.asfortranarray(grid.data), grid.affine)}


# Seeds whose foreground centroid, summed in F order, rounds differently
# from the C-order sum.
SUBJECT_SEED, FIXED_SEED = 3, 6


@pytest.fixture(scope="module")
def subject(head):
    return synthetic.random_subject(head, seed=SUBJECT_SEED)


@pytest.fixture(scope="module")
def volumes(subject):
    out = _layouts(subject.volume)
    assert out["C"].data.flags.c_contiguous and out["F"].data.flags.f_contiguous
    return out


def test_otsu_threshold(volumes):
    t = otsu_threshold(volumes["C"].data)
    assert np.float64(otsu_threshold(volumes["F"].data)).tobytes() == np.float64(t).tobytes()


def test_fallback_extract(volumes):
    """Also on a view flipped along two axes: the median gather pairs each
    voxel with its own mask bit in any layout."""
    want = fallback_extract(volumes["C"]).data
    flipped = Volume(volumes["F"].data[::-1, :, ::-1], volumes["F"].affine)
    assert _same_bits(fallback_extract(volumes["F"]).data, want)
    assert _same_bits(fallback_extract(flipped).data[::-1, :, ::-1], want)


def test_apply_mask_keeps_the_order(subject, volumes):
    masks = _layouts(subject.brain_mask)
    want = np.where(masks["C"].data, volumes["C"].data, 0).astype(volumes["C"].data.dtype)
    for v, m in itertools.product("CF", "CF"):
        out = apply_mask(volumes[v], masks[m]).data
        assert _same_bits(out, want)
        assert out.flags[f"{v}_CONTIGUOUS"]


def test_quickshear_keeps_the_order(subject, volumes):
    masks = _layouts(subject.brain_mask)
    want = quickshear(volumes["C"], masks["C"]).data
    for v, m in itertools.product("CF", "CF"):
        out = quickshear(volumes[v], masks[m]).data
        assert _same_bits(out, want)
        assert out.flags[f"{v}_CONTIGUOUS"]


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
@pytest.mark.parametrize("dtype", [np.float32, np.int16])
def test_write_nifti_file_bytes(tmp_path, volumes, suffix, dtype):
    """The same file from either copy; both files have one name, which a
    .nii.gz's gzip header holds."""
    sidecar = nifti.sidecar_for_dtype(dtype)
    paths = {o: tmp_path / o / f"v{suffix}" for o in volumes}
    for o, v in volumes.items():
        paths[o].parent.mkdir()
        nifti.write_nifti(v, sidecar, paths[o])
    assert paths["F"].read_bytes() == paths["C"].read_bytes()


def test_registration_same_transform(head, volumes):
    """prepare gives the same fixed side from either copy of the fixed
    image, and register_affine the same transform for each pair of
    orders."""
    images = _layouts(synthetic.random_subject(head, seed=FIXED_SEED).volume)
    fixed = {o: registration.prepare(v) for o, v in images.items()}
    assert fixed["F"].center.tobytes() == fixed["C"].center.tobytes()
    for c, f in zip(fixed["C"].levels, fixed["F"].levels):
        for name in ("affine", "fgT", "fixed_bins"):
            assert _same_bits(getattr(f, name), getattr(c, name))
    want = registration.register_affine(fixed["C"], volumes["C"])[0]
    for t, s in [("C", "F"), ("F", "C"), ("F", "F")]:
        assert _same_bits(registration.register_affine(fixed[t], volumes[s])[0], want)


# Axes a scan may be stored on: flipped along x (LAS), along x and y (LPS),
# and sagittal, its axes permuted (PIR). Voxel axis perm[j] runs along
# world axis j, reversed when flips[j] is set.
STORED = {
    "LAS": ((0, 1, 2), (True, False, False)),
    "LPS": ((0, 1, 2), (True, True, False)),
    "PIR": ((2, 0, 1), (False, True, True)),
}


def _stored(grid, perm, flips):
    """grid, on canonical axes, stored C order on the axes (perm, flips),
    every voxel at its world position."""
    rec = geometry.AxisPermutation(perm, flips)
    to_canonical = np.eye(4)
    to_canonical[:3, :3] = 0.0
    for j in range(3):
        to_canonical[j, perm[j]] = -1.0 if flips[j] else 1.0
        to_canonical[j, 3] = grid.dims[j] - 1 if flips[j] else 0.0
    return type(grid)(np.ascontiguousarray(rec.undo_view(grid.data)),
                      grid.affine @ to_canonical)


@pytest.mark.parametrize("axes", STORED)
def test_stored_axes_extract_and_quickshear(subject, axes):
    """The fallback mask and QuickShear's output from either copy of a
    subject stored off canonical axes, and the output in the input's
    order."""
    volumes = _layouts(_stored(subject.volume, *STORED[axes]))
    masks = _layouts(_stored(subject.brain_mask, *STORED[axes]))
    assert _same_bits(extract_brain(volumes["F"]).data, extract_brain(volumes["C"]).data)
    want = quickshear(volumes["C"], masks["C"]).data
    for v, m in itertools.product("CF", "CF"):
        out = quickshear(volumes[v], masks[m]).data
        assert _same_bits(out, want)
        assert out.flags[f"{v}_CONTIGUOUS"]


@pytest.mark.parametrize("axes", ["LPS", "PIR"])
def test_stored_axes_deface(pack, subject, axes):
    """deface gives the same transform, brain-safe mask and defaced volume
    from either copy, the defaced volume in the input's order."""
    volumes = _layouts(_stored(subject.volume, *STORED[axes]))
    results = {o: deface(v, pack) for o, v in volumes.items()}
    assert _same_bits(results["F"].transform, results["C"].transform)
    for o, r in results.items():
        assert _same_bits(r.brain_safe_mask.data, results["C"].brain_safe_mask.data)
        assert _same_bits(r.defaced.data, results["C"].defaced.data)
        assert r.defaced.data.flags[f"{o}_CONTIGUOUS"]
