"""Brain masks: an external mask file, or the classical fallback."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defacepipe import nifti, synthetic
from defacepipe.brain_extraction import (
    extract_brain,
    fallback_extract,
    otsu_threshold,
    read_mask,
)
from defacepipe.errors import EmptyMask, GridMismatch, NotNifti
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


def histogram_otsu(data):
    """Reference: Otsu's threshold from np.histogram's 256 bins over the
    finite values."""
    flat = np.asarray(data, dtype=np.float64).ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        flat = flat[finite]
        if flat.size == 0:
            return 0.0
    lo, hi = flat.min(), flat.max()
    if hi <= lo:
        return lo
    hist, edges = np.histogram(flat, bins=256, range=(lo, hi))
    return otsu_from_counts(hist, edges)


def otsu_from_counts(hist, edges):
    """The center of the bin that maximises the between-class variance."""
    hist = hist.astype(np.float64)
    centers = (edges[:-1] + edges[1:]) / 2
    w0 = np.cumsum(hist)
    w1 = w0[-1] - w0
    s0 = np.cumsum(hist * centers)
    mu0 = np.divide(s0, w0, out=np.zeros_like(s0), where=w0 > 0)
    mu1 = np.divide(s0[-1] - s0, w1, out=np.zeros_like(s0), where=w1 > 0)
    between = w0 * w1 * (mu0 - mu1) ** 2
    return float(centers[int(np.argmax(between))])


@st.composite
def otsu_inputs(draw):
    """float32, float64, int16 and uint8 arrays: random, constant and
    two-valued, or float64 values exactly on the 257 bin edges of their
    range and one ulp either side; float arrays may also hold NaN and
    +-inf, or nothing else."""
    kind = draw(st.sampled_from(["random", "constant", "two", "edges", "nonfinite"]))
    dtype = np.dtype(draw(st.sampled_from([np.float32, np.float64, np.int16, np.uint8])))
    if kind in ("edges", "nonfinite"):
        dtype = np.dtype(np.float64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 400))
    if dtype.kind == "f":
        value = st.floats(-1e6, 1e6, width=dtype.itemsize * 8)
    else:
        info = np.iinfo(dtype)
        value = st.integers(int(info.min), int(info.max))
    lo, hi = sorted((draw(value), draw(value)))
    if kind == "random":
        data = lo + (hi - lo) * rng.random(n) ** draw(st.sampled_from([1, 4]))
    elif kind == "constant":
        data = np.full(n, lo)
    elif kind == "two":
        data = rng.choice([lo, hi], n)
    elif kind == "edges":
        hi += 1.0
        on = rng.choice(np.linspace(lo, hi, 257), n)
        data = np.clip(np.concatenate(
            [on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf), [lo, hi]]), lo, hi)
    else:
        data = np.zeros(0)
    data = np.asarray(data).astype(dtype)
    if dtype.kind == "f":
        specials = [np.full(draw(st.integers(0, 3)), x) for x in (np.nan, np.inf, -np.inf)]
        data = rng.permutation(np.concatenate([data, *specials]).astype(dtype))
    return data if data.size else np.array([np.nan])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=otsu_inputs())
def test_otsu_equals_histogram_reference(data):
    """The sorted count gives np.histogram's bins. Where the finite range
    is too narrow for 256 distinct float64 bins (a few hundred ulps),
    np.histogram raises; the sorted count still gives a threshold inside
    the range. The caller's array is left as it was."""
    before = data.copy()
    got = otsu_threshold(data)
    np.testing.assert_array_equal(data, before)
    try:
        want = histogram_otsu(data)
    except ValueError as e:
        assert "Too many bins" in str(e)
        finite = data[np.isfinite(data)].astype(np.float64)
        assert finite.min() <= got <= finite.max()
    else:
        assert got == want


def test_otsu_range_of_a_few_ulps():
    data = np.array([1.0, np.nextafter(1.0, 2.0), 1.0, np.nan])
    with pytest.raises(ValueError, match="Too many bins"):
        histogram_otsu(data)
    assert 1.0 <= otsu_threshold(data) <= np.nextafter(1.0, 2.0)


@pytest.mark.parametrize("size", [64, 128])
def test_otsu_equals_histogram_reference_on_phantoms(size):
    data = synthetic.random_subject(synthetic.nominal_head(size), seed=1).volume.data
    assert otsu_threshold(data) == histogram_otsu(data)


def sorted_float64_otsu(data):
    """Reference: the sorted count on one float64 copy of the data."""
    flat = np.sort(np.ravel(data).astype(np.float64))
    flat = flat[np.searchsorted(flat, -np.inf, "right"):np.searchsorted(flat, np.inf, "left")]
    if flat.size == 0:
        return 0.0
    lo, hi = flat[0], flat[-1]
    if hi <= lo:
        return lo
    edges = np.linspace(lo, hi, 257)
    below = np.searchsorted(flat, edges[1:-1], "left")
    return otsu_from_counts(np.diff(below, prepend=0, append=flat.size), edges)


@st.composite
def typed_otsu_inputs(draw):
    """uint8, int16, int32, float32, float64 and bool arrays: values drawn
    from a random range, or from the range's own float64 bin edges and
    their neighbours in the dtype, so that many values sit on or next to
    an edge; float arrays may also hold NaN and +-inf."""
    dtype = np.dtype(draw(st.sampled_from(
        [np.uint8, np.int16, np.int32, np.float32, np.float64, np.bool_])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 300))
    if dtype.kind == "b":
        data = rng.random(n) < draw(st.floats(0, 1))
    else:
        if dtype.kind == "f":
            value = st.floats(-1e6, 1e6, width=dtype.itemsize * 8)
        else:
            info = np.iinfo(dtype)
            value = st.integers(int(info.min), int(info.max))
        lo, hi = sorted((draw(value), draw(value)))
        if draw(st.booleans()):
            data = (lo + (hi - lo) * rng.random(n)).astype(dtype)
        else:
            on = rng.choice(np.linspace(lo, hi, 257), n)
            if dtype.kind == "f":
                on = on.astype(dtype)
                on = np.concatenate([on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf)])
            else:
                on = np.concatenate([np.floor(on), np.ceil(on)])
            data = np.clip(on, lo, hi).astype(dtype)
        if dtype.kind == "f":
            specials = [np.full(draw(st.integers(0, 3)), x) for x in (np.nan, np.inf, -np.inf)]
            data = rng.permutation(np.concatenate([data, *specials]).astype(dtype))
    return data


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=typed_otsu_inputs())
def test_otsu_in_the_data_dtype_equals_the_float64_sort(data):
    """Sorting the data in its own dtype, with each edge looked up as the
    dtype's smallest value not below it, gives the threshold of sorting a
    float64 copy, for every dtype a volume or mask holds."""
    assert otsu_threshold(data) == sorted_float64_otsu(data)


def test_otsu_peak_memory_one_copy_in_the_data_dtype():
    """float32 64^3 data, a few voxels NaN: the peak is one float32 copy of
    the data (4 bytes a voxel) and a fixed few kilobytes, with no float64
    copy and no mask."""
    rng = np.random.default_rng(3)
    data = rng.normal(100, 30, (64, 64, 64)).astype(np.float32)
    data[rng.random(data.shape) < 0.01] = np.nan
    tracemalloc.start()
    try:
        otsu_threshold(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= data.size * 4.5


def test_external_mask_loaded_verbatim(head):
    out = extract_brain(head.volume, head.brain_mask)
    np.testing.assert_array_equal(out.data, head.brain_mask.data)


def test_external_stripped_volume_support(head, tmp_path):
    stripped = apply_mask(head.volume, head.brain_mask)
    path = tmp_path / "stripped.nii"
    nifti.write_nifti(stripped, nifti.sidecar_for_dtype(np.float32), path)
    out = extract_brain(head.volume, read_mask(path))
    # stage-3 semantics: the stripped volume's nonzero support
    np.testing.assert_array_equal(out.data, stripped.data > 0)


def test_external_grid_mismatch(head, tmp_path):
    small = Volume(head.volume.data[:32, :32, :32], head.volume.affine)
    path = tmp_path / "small.nii"
    nifti.write_nifti(small, nifti.sidecar_for_dtype(np.float32), path)
    with pytest.raises(GridMismatch):
        extract_brain(head.volume, read_mask(path))


def test_external_unreadable(tmp_path):
    bad = tmp_path / "garbage.nii"
    bad.write_bytes(b"not a nifti")
    with pytest.raises(NotNifti):
        read_mask(bad)


def test_external_empty_mask(head, tmp_path):
    zero = BinaryMask(
        np.zeros(head.volume.dims, bool), head.volume.affine
    )
    path = tmp_path / "empty.nii"
    nifti.write_mask(zero, path)
    with pytest.raises(EmptyMask):
        extract_brain(head.volume, read_mask(path))


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


def _nonfinite_head(head):
    """head's float32 voxels with a block of +inf touching the brain, a
    block of -inf in a corner and a block of NaN inside the brain."""
    data = head.volume.data.copy()
    data[26:38, 8:14, 32:44] = np.inf
    data[2:6, 2:6, 2:6] = -np.inf
    data[30:34, 28:32, 36:40] = np.nan
    return Volume(data, head.volume.affine)


def test_fallback_reads_every_non_finite_voxel_as_nan(head):
    """+inf, -inf and NaN voxels are background alike: the mask is the one
    of the volume with each of them NaN. The +inf block, which as a bright
    voxel would raise the cut and join the brain, is outside it."""
    v = _nonfinite_head(head)
    as_nan = Volume(np.where(np.isfinite(v.data), v.data, np.nan), v.affine)
    mask = fallback_extract(v)
    np.testing.assert_array_equal(mask.data, fallback_extract(as_nan).data)
    assert not mask.data[26:38, 8:14, 32:44].any()


@pytest.mark.parametrize("size, nonfinite", [(64, False), (64, True), (128, False)])
def test_fallback_extract_peak_is_one_copy_in_the_data_dtype(size, nonfinite):
    """On a float32 phantom the fallback extractor copies no volume and
    keeps one full-grid mask at a time, so its peak is the Otsu sort's one
    float32 copy: 4.01-4.11 bytes a voxel measured, non-finite voxels or
    not. A mask of the finite voxels kept through the extraction read 5.8-6.0
    bytes, and with a NaN copy of a volume holding non-finite voxels, 10.0."""
    head = synthetic.nominal_head(size)
    v = _nonfinite_head(head) if nonfinite else head.volume
    assert v.data.dtype == np.float32
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fallback_extract(v)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * v.data.size
