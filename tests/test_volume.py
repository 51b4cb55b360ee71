"""The in-memory image model and the tiled copy."""

import tracemalloc

import numpy as np
import pytest

from defacepipe.volume import BinaryMask, Volume, copy_into


def test_binary_mask_keeps_bool_data_and_casts_other_types():
    data = np.zeros((4, 5, 6), dtype=bool)
    data[1:3, 2:4, 3:5] = True
    assert np.shares_memory(BinaryMask(data, np.eye(4)).data, data)

    cast = BinaryMask(data.astype(np.uint8) * 7, np.eye(4)).data
    assert cast.dtype == bool
    np.testing.assert_array_equal(cast, data)


@pytest.mark.parametrize("grid", [Volume, BinaryMask])
def test_grid_rejects_data_not_3d_and_affine_not_4x4(grid):
    with pytest.raises(ValueError, match="3D"):
        grid(np.zeros((3, 3)), np.eye(4))
    with pytest.raises(ValueError, match="4x4"):
        grid(np.zeros((3, 3, 3)), np.eye(3))
    with pytest.raises(ValueError, match="3D"):
        grid(np.zeros((3, 3)), np.eye(3))


@pytest.mark.parametrize("grid", [Volume, BinaryMask])
def test_grid_keeps_a_read_only_float64_copy_of_the_affine(grid):
    affine = np.diag([2, 3, 4, 1])  # integers, cast to float64
    g = grid(np.zeros((2, 3, 4)), affine)
    assert g.affine.dtype == np.float64
    np.testing.assert_array_equal(g.affine, affine)
    with pytest.raises(ValueError, match="read-only"):
        g.affine[0, 3] = 5.0
    # the caller's array stays writable, and writing to it moves no grid
    assert affine.flags.writeable
    affine[0, 0] = 7
    assert g.affine[0, 0] == 2.0
    f64 = np.eye(4)  # a float64 affine is copied too
    assert not np.shares_memory(grid(np.zeros((2, 2, 2)), f64).affine, f64)
    np.testing.assert_array_equal(g.spacing, [2.0, 3.0, 4.0])


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Shapes spanning several COPY_TILE tiles with ragged last tiles, and ones
# thinner than a tile on some axes.
RAGGED_SHAPES = [(33, 70, 17), (1, 40, 3), (40, 1, 2), (16, 32, 16), (17, 33, 1)]


@pytest.mark.parametrize("shape", RAGGED_SHAPES)
@pytest.mark.parametrize("src_dtype, dst_dtype", [
    ("<f4", "<f4"), (">i2", "<f8"), (">f8", "<f8"), ("|u1", "|u1"), ("|b1", "|u1"),
    ("<f4", ">f4"), ("<i4", "<i4"),
])
def test_copy_into_equals_one_assignment(shape, src_dtype, dst_dtype):
    """For every layout a copy_into caller passes (an x-fastest file payload,
    a transposed C array, a permuted and flipped view), each element comes
    out with the bits that dst[...] = src gives it."""
    n = int(np.prod(shape))
    flat = np.random.default_rng(n).integers(0, 120, n).astype(src_dtype)
    sources = [
        flat.reshape(shape, order="F"),  # the read
        flat.reshape(shape[::-1]).T,  # the write
        np.flip(flat.reshape(shape[::-1]).transpose(2, 0, 1), (0, 2)).transpose(0, 2, 1),
        np.flip(flat.reshape(shape), 1),  # last axis contiguous: one assignment
    ]
    for src in sources:
        want = np.empty(src.shape, dst_dtype)
        want[...] = src
        got = np.empty(src.shape, dst_dtype)
        copy_into(got, src)
        assert _same_bits(got, want)


def test_copy_into_keeps_non_finite_and_signed_zero_bits():
    values = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-45, 3.4e38],
                      dtype=">f4")
    flat = np.resize(values, 33 * 70 * 17)
    src = flat.reshape((33, 70, 17), order="F")
    for dtype in ("<f4", "<f8"):
        want = np.empty(src.shape, dtype)
        want[...] = src
        got = np.empty(src.shape, dtype)
        copy_into(got, src)
        assert _same_bits(got, want)


def test_copy_into_allocates_no_temporary():
    """A tiled copy holds no copy of src or dst, not even of one tile."""
    shape = (128, 96, 64)
    src = np.zeros(int(np.prod(shape)), ">f4").reshape(shape, order="F")
    dst = np.empty(shape, np.float64)
    tracemalloc.start()
    try:
        copy_into(dst, src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 32 * 16
