"""Reader/writer round trips against hand-built NIfTI-1 files.

Fixture files for read tests are assembled byte-by-byte here, independent
of the writer, so the two sides check each other.
"""

import gzip
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defacepipe import nifti, synthetic
from defacepipe.errors import (
    CorruptFile,
    DatatypeOverflow,
    DefacepipeError,
    NotNifti,
    UnsupportedDatatype,
    UnsupportedDims,
)
from defacepipe.volume import Volume

DT_CODES = {np.uint8: 2, np.int16: 4, np.int32: 8, np.float32: 16, np.float64: 64}


def build_nifti_bytes(
    data,
    spacing=(1.0, 1.0, 1.0),
    scl_slope=1.0,
    scl_inter=0.0,
    sform=np.eye(4),
    datatype=None,
    byte_order="<",
):
    """Independent minimal NIfTI-1 encoder used as the read oracle."""
    data = np.asarray(data)
    code = DT_CODES[datatype or data.dtype.type]
    bo = byte_order
    hdr = bytearray(348)
    struct.pack_into(bo + "i", hdr, 0, 348)
    struct.pack_into(bo + "8h", hdr, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into(bo + "2h", hdr, 70, code, data.dtype.itemsize * 8)
    struct.pack_into(bo + "8f", hdr, 76, 1.0, *spacing, 0, 0, 0, 0)
    struct.pack_into(bo + "f", hdr, 108, 352.0)
    struct.pack_into(bo + "2f", hdr, 112, scl_slope, scl_inter)
    struct.pack_into(bo + "2h", hdr, 252, 0, 1)
    struct.pack_into(bo + "4f", hdr, 280, *sform[0])
    struct.pack_into(bo + "4f", hdr, 296, *sform[1])
    struct.pack_into(bo + "4f", hdr, 312, *sform[2])
    struct.pack_into("<4s", hdr, 344, b"n+1\x00")
    payload = data.astype(data.dtype.newbyteorder(bo)).tobytes(order="F")
    return bytes(hdr) + bytes(4) + payload


@pytest.fixture
def identity_2x2x2(tmp_path):
    data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    path = tmp_path / "mini.nii"
    path.write_bytes(build_nifti_bytes(data))
    return path, data


def test_read_identity_fixture(identity_2x2x2):
    path, data = identity_2x2x2
    vol, sidecar = nifti.read_nifti(path)
    assert vol.dims == (2, 2, 2)
    assert np.allclose(vol.spacing, 1.0)
    np.testing.assert_array_equal(vol.data, data)
    assert sidecar.datatype_code == 16


def test_read_gzipped_identical(identity_2x2x2, tmp_path):
    path, _ = identity_2x2x2
    gz = tmp_path / "mini.nii.gz"
    gz.write_bytes(gzip.compress(path.read_bytes()))
    plain, _ = nifti.read_nifti(path)
    zipped, _ = nifti.read_nifti(gz)
    np.testing.assert_array_equal(plain.data, zipped.data)
    np.testing.assert_array_equal(plain.affine, zipped.affine)


def test_read_applies_scaling(tmp_path):
    # raw i16 voxel 3 with slope 2, inter 1 decodes to 3*2+1 = 7
    data = np.full((2, 2, 2), 3, dtype=np.int16)
    path = tmp_path / "scaled.nii"
    path.write_bytes(build_nifti_bytes(data, scl_slope=2.0, scl_inter=1.0))
    vol, sidecar = nifti.read_nifti(path)
    assert vol.data[0, 0, 0] == 7.0
    assert sidecar.scl_slope == 2.0


@pytest.mark.parametrize(
    "slope, inter",
    [(0.0, 5.0), (np.nan, 0.0), (np.inf, 0.0), (-np.inf, 3.0)],
)
def test_read_unusable_slope_means_unscaled(tmp_path, slope, inter):
    # NIfTI-1, as nibabel applies it: a zero or non-finite scl_slope means
    # the stored values are the data, whatever scl_inter holds.
    data = np.arange(-4, 4, dtype=np.int16).reshape(2, 2, 2)
    path = tmp_path / "unscaled.nii"
    path.write_bytes(build_nifti_bytes(data, scl_slope=slope, scl_inter=inter))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vol, sidecar = nifti.read_nifti(path)
        assert vol.data.dtype == np.int16
        np.testing.assert_array_equal(vol.data, data)
        out = tmp_path / "unscaled_rt.nii"
        nifti.write_nifti(vol, sidecar, out)
    stored = np.frombuffer(out.read_bytes()[352:], dtype="<i2")
    np.testing.assert_array_equal(stored.reshape(2, 2, 2, order="F"), data)
    np.testing.assert_array_equal(nifti.read_nifti(out)[0].data, data)


@pytest.mark.parametrize("inter", [np.nan, np.inf])
def test_read_nonfinite_intercept_is_corrupt(tmp_path, inter):
    data = np.full((2, 2, 2), 3, dtype=np.int16)
    path = tmp_path / "badinter.nii"
    path.write_bytes(build_nifti_bytes(data, scl_slope=2.0, scl_inter=inter))
    with pytest.raises(CorruptFile, match="scl_inter"):
        nifti.read_nifti(path)


@pytest.mark.parametrize("voxel, dtype, want", [
    (np.uint32(0x7F810000).view(np.float32), np.float32, np.nan),  # signalling NaN
    (1e308, np.float64, np.inf),
])
def test_read_scaled_non_finite_voxel_raises_no_warning(tmp_path, voxel, dtype, want):
    """Scaling casts a float32 signalling NaN to float64, and a slope of 10
    takes 1e308 past float64's range: the voxel reads as NaN or inf, and
    no floating-point warning is raised (warnings are errors here)."""
    data = np.ones((2, 2, 2), dtype=dtype)
    data[0, 0, 0] = voxel
    path = tmp_path / "scaled.nii"
    path.write_bytes(build_nifti_bytes(data, scl_slope=10.0))
    vol, _ = nifti.read_nifti(path)
    np.testing.assert_array_equal(vol.data.ravel()[:2], [want, 10.0])


def test_read_bad_magic(tmp_path):
    path = tmp_path / "bad.nii"
    path.write_bytes(b"\x00" * 400)
    with pytest.raises(NotNifti):
        nifti.read_nifti(path)
    # "ni1" marks the header of a two-file .hdr/.img pair, which is not read
    raw = bytearray(build_nifti_bytes(np.zeros((2, 2, 2), dtype=np.float32)))
    struct.pack_into("<4s", raw, 344, b"ni1\x00")
    pair = tmp_path / "pair.hdr"
    pair.write_bytes(raw[:348])
    with pytest.raises(NotNifti, match="magic"):
        nifti.read_nifti(pair)


def test_read_unsupported_datatype(tmp_path, identity_2x2x2):
    path, _ = identity_2x2x2
    raw = bytearray(path.read_bytes())
    struct.pack_into("<h", raw, 70, 128)  # RGB, unsupported
    bad = tmp_path / "rgb.nii"
    bad.write_bytes(raw)
    with pytest.raises(UnsupportedDatatype):
        nifti.read_nifti(bad)


def test_read_truncated_payload(tmp_path, identity_2x2x2):
    path, _ = identity_2x2x2
    bad = tmp_path / "short.nii"
    bad.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CorruptFile):
        nifti.read_nifti(bad)
    # a gzip stream cut short
    zipped = gzip.compress(path.read_bytes())
    bad = tmp_path / "short.nii.gz"
    bad.write_bytes(zipped[: len(zipped) // 2])
    with pytest.raises(CorruptFile):
        nifti.read_nifti(bad)


def _stored_gzip(tail=0):
    """A float32 volume and its file as one gzip member of stored (level 0)
    blocks, so a byte sits at a known place in the file; tail zero bytes
    follow the voxels in the member."""
    data = np.arange(4 * 5 * 6, dtype=np.float32).reshape(4, 5, 6)
    blob = build_nifti_bytes(data)
    return data, blob, bytearray(gzip.compress(blob + bytes(tail), compresslevel=0, mtime=0))


# With no bytes after the voxels, zlib reaches the trailer while it inflates
# the last voxels; with some, only the reader's inflating on to the end of
# the member reaches it.
@pytest.mark.parametrize("tail", [0, 100])
@pytest.mark.parametrize("where", ["payload", "crc", "isize"])
def test_read_gzip_checks_the_trailer(tmp_path, where, tail):
    """One bit flipped in the last voxel, in the CRC-32 or in the ISIZE
    field of the gzip trailer is a corrupt file, not a volume with a voxel
    silently changed."""
    _, _, zipped = _stored_gzip(tail)
    at = {"payload": len(zipped) - 8 - tail - 2, "crc": len(zipped) - 7,
          "isize": len(zipped) - 2}[where]
    zipped[at] ^= 0x10
    bad = tmp_path / "flipped.nii.gz"
    bad.write_bytes(zipped)
    with pytest.raises(CorruptFile):
        nifti.read_nifti(bad)


@pytest.mark.parametrize("tail", [0, 100])
def test_read_gzip_ending_before_its_trailer_is_corrupt(tmp_path, tail):
    """Every voxel byte is there, the trailer is not."""
    _, _, zipped = _stored_gzip(tail)
    bad = tmp_path / "cut.nii.gz"
    bad.write_bytes(zipped[:-8])
    with pytest.raises(CorruptFile):
        nifti.read_nifti(bad)


def test_read_gzip_members_and_zero_padding(tmp_path):
    """The NIfTI bytes split over three concatenated gzip members, one break
    inside the header and one inside the voxels, with zero padding longer
    than one read of the file between two members and a little after the
    last, read as one stream."""
    data, blob, _ = _stored_gzip()
    cuts = (0, 100, 548, len(blob))
    members = [gzip.compress(blob[a:b]) for a, b in zip(cuts, cuts[1:])]
    path = tmp_path / "members.nii.gz"
    path.write_bytes(members[0] + members[1] + bytes(nifti.READ_CHUNK + 5) + members[2]
                     + bytes(9))
    np.testing.assert_array_equal(nifti.read_nifti(path)[0].data, data)


@pytest.mark.parametrize("offset", [np.inf, -np.inf, np.nan, 1e30])
def test_read_unusable_vox_offset_is_corrupt(tmp_path, identity_2x2x2, offset):
    path, _ = identity_2x2x2
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 108, offset)
    bad = tmp_path / "offset.nii"
    bad.write_bytes(raw)
    with pytest.raises(CorruptFile):
        nifti.read_nifti(bad)


@pytest.mark.parametrize("offset", [348.0, 349.5, 351.0])
def test_read_vox_offset_below_352_reads_from_352(tmp_path, offset):
    """Bytes 348-351 of a single file are the extension flags, so its voxels
    start at 352 at the earliest: a 1-voxel uint8 file whose vox_offset is
    in 348-351 reads its voxel from 352, not a flag byte, and is corrupt
    when it ends at 352."""
    raw = bytearray(build_nifti_bytes(np.full((1, 1, 1), 42, dtype=np.uint8)))
    struct.pack_into("<f", raw, 108, offset)
    raw[348] = 7
    path = tmp_path / "low.nii"
    path.write_bytes(raw)
    assert nifti.read_nifti(path)[0].data.tolist() == [[[42]]]
    path.write_bytes(raw[:352])
    with pytest.raises(CorruptFile):
        nifti.read_nifti(path)


@pytest.mark.parametrize("compress", [False, True])
def test_read_declared_size_beyond_file_is_corrupt(tmp_path, identity_2x2x2, compress):
    """30000^3 float32 voxels declared in a file of a few hundred bytes fail
    before the declared size is allocated."""
    path, _ = identity_2x2x2
    raw = bytearray(path.read_bytes())
    struct.pack_into("<8h", raw, 40, 3, 30000, 30000, 30000, 1, 1, 1, 1)
    bad = tmp_path / "huge.nii"
    bad.write_bytes(gzip.compress(bytes(raw)) if compress else raw)
    with pytest.raises(CorruptFile, match="exceed the file"):
        nifti.read_nifti(bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, offset, codes", [
    ("sform", 280, (0, 1)),
    ("qform quaternion", 256, (1, 0)),
    ("pixdim", 80, (0, 0)),
])
def test_read_nonfinite_affine_is_corrupt(tmp_path, identity_2x2x2, field, offset, codes):
    path, _ = identity_2x2x2
    for value in (np.nan, np.inf):
        raw = bytearray(path.read_bytes())
        struct.pack_into("<2h", raw, 252, *codes)  # qform_code, sform_code
        struct.pack_into("<f", raw, offset, value)
        bad = tmp_path / "affine.nii"
        bad.write_bytes(raw)
        with pytest.raises(CorruptFile, match="affine"):
            nifti.read_nifti(bad)


def test_read_qform_quaternion_past_unit_length_is_normalised(tmp_path):
    """b = c = d = 0.6 leaves no room for a: as nifti1_io reads it, that is
    a 180 degree turn about (1, 1, 1) / sqrt(3), so the qform's columns are
    orthonormal times pixdim, not 1.08 times it."""
    data = np.zeros((2, 2, 2), dtype=np.float32)
    raw = bytearray(build_nifti_bytes(data, spacing=(1.0, 2.0, 3.0)))
    struct.pack_into("<2h", raw, 252, 1, 0)  # qform_code, sform_code
    struct.pack_into("<3f", raw, 256, 0.6, 0.6, 0.6)
    path = tmp_path / "qform.nii"
    path.write_bytes(raw)
    vol, _ = nifti.read_nifti(path)
    rot = vol.affine[:3, :3] / [1.0, 2.0, 3.0]
    np.testing.assert_allclose(rot, 2.0 / 3.0 - np.eye(3), rtol=0, atol=1e-12)


_FLOAT32 = st.floats(width=32)


# dim[0..7]: a 3D volume padded with singleton dimensions up to a dim[0] of
# 3 to 7, which the reader squeezes, or any values.
_DIMS = st.one_of(
    st.tuples(st.integers(3, 7), st.lists(st.integers(1, 3), min_size=3, max_size=3)).map(
        lambda t: [t[0], *t[1], 1, 1, 1, 1]),
    st.lists(st.one_of(st.integers(-2, 5), st.just(30000)), min_size=8, max_size=8),
)
_DATATYPES = st.one_of(
    st.sampled_from(list(DT_CODES.values())),
    st.sampled_from([0, 1, 2, 4, 8, 16, 64, 128, 256, 512, 768, 1024, -1]),
)


def test_read_fuzzed_header_reads_or_raises_typed_error(tmp_path):
    """Every header field the reader interprets, fuzzed: the file either
    reads into a volume with a finite affine and the declared 3D shape, or
    fails with a DefacepipeError. Some examples read, so the properties are
    checked, not only the errors."""
    reads = []

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        byte_order=st.sampled_from("<>"),
        dim=_DIMS,
        datatype=_DATATYPES,
        vox_offset=st.one_of(st.sampled_from([0.0, 348.0, 352.0, 356.0, 1e30]), _FLOAT32),
        codes=st.tuples(st.integers(-1, 4), st.integers(-1, 4)),
        geometry=st.lists(_FLOAT32, min_size=26, max_size=26),
        # past 3 * 3 * 3 float64 voxels at offset 356, or any length
        payload=st.one_of(st.binary(min_size=220, max_size=240), st.binary(max_size=240)),
        compress=st.booleans(),
    )
    def read(byte_order, dim, datatype, vox_offset, codes, geometry, payload, compress):
        bo = byte_order
        hdr = bytearray(348)
        struct.pack_into(bo + "i", hdr, 0, 348)
        struct.pack_into(bo + "8h", hdr, 40, *dim)
        struct.pack_into(bo + "h", hdr, 70, datatype)
        struct.pack_into(bo + "f", hdr, 108, vox_offset)
        struct.pack_into(bo + "2h", hdr, 252, *codes)
        struct.pack_into(bo + "8f", hdr, 76, *geometry[:8])  # pixdim
        struct.pack_into(bo + "6f", hdr, 256, *geometry[8:14])  # quaternion, offsets
        struct.pack_into(bo + "12f", hdr, 280, *geometry[14:])  # srow_x, _y, _z
        struct.pack_into("<4s", hdr, 344, b"n+1\x00")
        blob = bytes(hdr) + bytes(4) + payload
        path = tmp_path / "fuzz.nii"
        path.write_bytes(gzip.compress(blob) if compress else blob)
        try:
            vol, _ = nifti.read_nifti(path)
        except DefacepipeError:
            return
        reads.append(vol.dims)
        assert vol.data.ndim == 3
        assert vol.dims == tuple(dim[1:4])
        assert vol.data.size * vol.data.itemsize <= len(payload)
        assert np.isfinite(vol.affine).all()

    read()
    assert len(reads) > 0


def test_read_fuzzed_geometry_reads_or_raises_typed_error(tmp_path):
    """A valid 3D header and a payload of exactly its declared size, with
    only the fields that set geometry and scaling fuzzed (pixdim, the
    quaternion and offsets, the srows, the qform and sform codes, scl): the
    file either reads into a volume with a finite affine and the declared
    shape, or fails with a DefacepipeError. A volume that reads holds the
    payload decoded x fastest, with the declared scaling applied as NIfTI-1
    defines it. Most examples read, so the properties are checked, not only
    the errors."""
    reads = []

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        byte_order=st.sampled_from("<>"),
        dims=st.lists(st.integers(1, 4), min_size=3, max_size=3),
        dtype_code=st.sampled_from(list(DT_CODES.items())),
        codes=st.tuples(st.integers(-1, 4), st.integers(-1, 4)),
        scl=st.lists(_FLOAT32, min_size=2, max_size=2),
        geometry=st.lists(_FLOAT32, min_size=26, max_size=26),
        payload=st.binary(min_size=4 * 4 * 4 * 8, max_size=4 * 4 * 4 * 8),
        compress=st.booleans(),
    )
    def read(byte_order, dims, dtype_code, codes, scl, geometry, payload, compress):
        bo = byte_order
        dtype, code = dtype_code
        itemsize = np.dtype(dtype).itemsize
        payload = payload[:int(np.prod(dims)) * itemsize]
        hdr = bytearray(348)
        struct.pack_into(bo + "i", hdr, 0, 348)
        struct.pack_into(bo + "8h", hdr, 40, 3, *dims, 1, 1, 1, 1)
        struct.pack_into(bo + "2h", hdr, 70, code, itemsize * 8)
        struct.pack_into(bo + "f", hdr, 108, 352.0)
        struct.pack_into(bo + "2f", hdr, 112, *scl)
        struct.pack_into(bo + "2h", hdr, 252, *codes)
        struct.pack_into(bo + "8f", hdr, 76, *geometry[:8])  # pixdim
        struct.pack_into(bo + "6f", hdr, 256, *geometry[8:14])  # quaternion, offsets
        struct.pack_into(bo + "12f", hdr, 280, *geometry[14:])  # srow_x, _y, _z
        struct.pack_into("<4s", hdr, 344, b"n+1\x00")
        blob = bytes(hdr) + bytes(4) + payload
        path = tmp_path / "fuzz.nii"
        path.write_bytes(gzip.compress(blob) if compress else blob)
        try:
            vol, _ = nifti.read_nifti(path)
        except DefacepipeError:
            return
        reads.append(vol.dims)
        assert vol.data.ndim == 3
        assert vol.dims == tuple(dims)
        assert vol.data.size * itemsize == len(payload)
        assert np.isfinite(vol.affine).all()
        stored = np.frombuffer(payload, np.dtype(dtype).newbyteorder(bo)).reshape(
            dims, order="F")
        slope, inter = struct.unpack_from(bo + "2f", hdr, 112)
        with np.errstate(all="ignore"):  # scaled past float64's range is inf
            if slope == 0 or not np.isfinite(slope) or (slope, inter) == (1, 0):
                want = stored.astype(dtype)
            else:
                want = stored.astype(np.float64) * slope + inter
        assert vol.data.dtype == want.dtype
        np.testing.assert_array_equal(vol.data, want)  # NaN equals NaN
        assert vol.data.tobytes() == want.tobytes()  # and keeps its bits

    read()
    assert len(reads) > 0


def test_read_4d_multivolume_rejected(tmp_path):
    data = np.zeros((2, 2, 2), dtype=np.float32)
    raw = bytearray(build_nifti_bytes(data))
    struct.pack_into("<8h", raw, 40, 4, 2, 2, 2, 5, 1, 1, 1)
    bad = tmp_path / "4d.nii"
    bad.write_bytes(raw)
    with pytest.raises(UnsupportedDims):
        nifti.read_nifti(bad)


@pytest.mark.parametrize("last", [-3, 0])
def test_read_dim_below_one_rejected(tmp_path, last):
    """A 4x4xlast header over a 4x4x3 payload is corrupt; read as 4x4x1 it
    would silently drop two slices."""
    data = np.zeros((4, 4, 3), dtype=np.float32)
    raw = bytearray(build_nifti_bytes(data))
    struct.pack_into("<3h", raw, 42, 4, 4, last)
    bad = tmp_path / "dims.nii"
    bad.write_bytes(raw)
    with pytest.raises(CorruptFile, match=rf"dims \[4, 4, {last}\]"):
        nifti.read_nifti(bad)


def test_read_4d_singleton_squeezed(tmp_path):
    data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    raw = bytearray(build_nifti_bytes(data))
    struct.pack_into("<8h", raw, 40, 4, 2, 2, 2, 1, 1, 1, 1)
    path = tmp_path / "4d1.nii"
    path.write_bytes(raw)
    vol, _ = nifti.read_nifti(path)
    assert vol.dims == (2, 2, 2)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.float32, np.float64])
@pytest.mark.parametrize("compress", [False, True])
def test_round_trip_all_datatypes(tmp_path, dtype, compress):
    rng = np.random.default_rng(DT_CODES[dtype])
    if np.issubdtype(dtype, np.integer):
        data = rng.integers(0, 100, size=(3, 4, 5)).astype(dtype)
    else:
        data = rng.random((3, 4, 5)).astype(dtype)
    affine = np.diag([1.0, 2.0, 3.0, 1.0])
    affine[:3, 3] = (-10.0, 5.0, 0.0)
    path = tmp_path / ("rt.nii.gz" if compress else "rt.nii")
    nifti.write_nifti(Volume(data, affine), nifti.sidecar_for_dtype(dtype), path)
    vol, sidecar = nifti.read_nifti(path)
    np.testing.assert_array_equal(vol.data, data)
    assert vol.data.dtype == dtype
    np.testing.assert_allclose(vol.affine, affine, atol=1e-6)
    assert sidecar.datatype_code == DT_CODES[dtype]

    # second pass: read o write o read is the identity
    path2 = tmp_path / "rt2.nii"
    nifti.write_nifti(vol, sidecar, path2)
    vol2, _ = nifti.read_nifti(path2)
    np.testing.assert_array_equal(vol2.data, data)
    np.testing.assert_allclose(vol2.affine, affine, atol=1e-6)


def test_round_trip_preserves_scaling(tmp_path):
    data = np.full((2, 2, 2), 3, dtype=np.int16)
    path = tmp_path / "scaled.nii"
    path.write_bytes(build_nifti_bytes(data, scl_slope=2.0, scl_inter=1.0))
    vol, sidecar = nifti.read_nifti(path)
    out = tmp_path / "scaled_rt.nii"
    nifti.write_nifti(vol, sidecar, out)
    vol2, sidecar2 = nifti.read_nifti(out)
    np.testing.assert_array_equal(vol2.data, vol.data)
    assert sidecar2.datatype_code == 4


def test_write_integer_overflow(tmp_path):
    data = np.array([[[70000.0]]], dtype=np.float64)
    with pytest.raises(DatatypeOverflow):
        nifti.write_nifti(
            Volume(data, np.eye(4)), nifti.sidecar_for_dtype(np.int16), tmp_path / "x.nii"
        )


@pytest.mark.parametrize("dtype", [np.int16, np.uint8])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_write_nonfinite_into_integer_type_fails_and_leaves_no_file(
    tmp_path, dtype, bad, suffix
):
    """A NaN or infinity has no integer value: the cast would write some
    arbitrary number (0 for NaN), so the write fails and leaves no file."""
    data = np.array([bad, 1, 2, 3], dtype=np.float32).reshape(1, 2, 2)
    with pytest.raises(DatatypeOverflow):
        nifti.write_nifti(
            Volume(data, np.eye(4)), nifti.sidecar_for_dtype(dtype), tmp_path / f"x{suffix}"
        )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_overflow_in_a_later_slab_keeps_the_old_file(tmp_path, suffix):
    """The voxels are written slab by slab, so a value out of range in the
    last slab fails the write after earlier slabs went out: the file that
    was there stays as it was, and no temporary file is left."""
    data = np.ones((3, 4, 40), np.float32)
    data[1, 2, 37] = 70000.0
    path = tmp_path / f"x{suffix}"
    path.write_bytes(b"old")
    with pytest.raises(DatatypeOverflow):
        nifti.write_nifti(Volume(data, np.eye(4)), nifti.sidecar_for_dtype(np.int16), path)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


_SCALINGS = {False: (1.0, 0.0), True: (2.0, -3.0)}
# Shapes spanning several tiles of volume.copy_into with ragged last tiles,
# and ones thinner than a tile on some axes.
RAGGED_SHAPES = [(33, 70, 17), (1, 40, 3), (40, 1, 2)]


@pytest.mark.parametrize("dtype", list(DT_CODES))
@pytest.mark.parametrize("byte_order", "<>")
@pytest.mark.parametrize("scaled", [False, True])
def test_written_bytes_are_header_then_fortran_order_payload(tmp_path, dtype, byte_order, scaled):
    """Read back through write_nifti, a hand-built file comes out byte for
    byte as it went in (header, 4 zero extension bytes, x-fastest payload in
    the header's byte order), and a .nii.gz decompresses to the same bytes.
    The shapes past (3, 4, 5) span several tiles of the reordering copy,
    with ragged last tiles."""
    rng = np.random.default_rng(7)
    for shape in [(3, 4, 5), *RAGGED_SHAPES]:
        stored = rng.integers(0, 100, size=shape).astype(dtype)
        slope, inter = _SCALINGS[scaled]
        source = build_nifti_bytes(stored, scl_slope=slope, scl_inter=inter,
                                   byte_order=byte_order)
        src = tmp_path / "src.nii"
        src.write_bytes(source)
        vol, sidecar = nifti.read_nifti(src)
        np.testing.assert_array_equal(vol.data, stored * slope + inter)
        nifti.write_nifti(vol, sidecar, tmp_path / "out.nii")
        nifti.write_nifti(vol, sidecar, tmp_path / "out.nii.gz")
        assert (tmp_path / "out.nii").read_bytes() == source
        assert gzip.decompress((tmp_path / "out.nii.gz").read_bytes()) == source


@pytest.mark.parametrize("shape", [(3, 4, 5), (1, 1, 6), (6, 1, 1), *RAGGED_SHAPES])
@pytest.mark.parametrize("byte_order", "<>")
@pytest.mark.parametrize("dtype, scaled", [
    (np.uint8, False), (np.int16, False), (np.int16, True), (np.float32, False),
    (np.float64, False), (np.uint8, True), (np.int32, False), (np.int32, True),
    (np.float32, True), (np.float64, True),
])
def test_read_data_is_writable_c_contiguous_native(tmp_path, shape, byte_order, dtype, scaled):
    """Every datatype, byte order and scaling reads, from a .nii and from a
    .nii.gz, into a writable C-contiguous native array of the stored
    values, x fastest in the file."""
    stored = (np.arange(np.prod(shape)) % 251).astype(dtype).reshape(shape)
    slope, inter = _SCALINGS[scaled]
    blob = build_nifti_bytes(stored, scl_slope=slope, scl_inter=inter, byte_order=byte_order)
    for name, contents in [("v.nii", blob), ("v.nii.gz", gzip.compress(blob))]:
        path = tmp_path / name
        path.write_bytes(contents)
        data = nifti.read_nifti(path)[0].data
        assert data.flags.writeable and data.flags.c_contiguous
        assert data.dtype.isnative
        assert data.dtype == (np.float64 if scaled else dtype)
        np.testing.assert_array_equal(data, stored * slope + inter if scaled else stored)
        data[(0, 0, 0)] = 9  # writable in fact, not only by flag


def _peak_bytes_per_voxel(fn, n_voxels):
    """tracemalloc's peak above the memory traced on entry, while fn runs,
    per voxel."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - entry) / n_voxels
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def head64():
    return synthetic.nominal_head(64)


def test_gz_write_float32_allocates_one_payload_copy(tmp_path, head64):
    """At most 3.5 bytes per voxel at 64^3: one slab's x-fastest copy (16
    z-planes, 1 byte per voxel at this size), the deflate state and the
    compressed bytes."""
    volume = head64.volume
    sidecar = nifti.sidecar_for_dtype(np.float32)
    peak = _peak_bytes_per_voxel(
        lambda: nifti.write_nifti(volume, sidecar, tmp_path / "h.nii.gz"), volume.data.size)
    assert peak <= 3.5


def test_write_mask_allocates_one_payload_copy(tmp_path, head64):
    mask = head64.brain_mask
    peak = _peak_bytes_per_voxel(
        lambda: nifti.write_mask(mask, tmp_path / "m.nii.gz"), mask.data.size)
    assert peak <= 3


def test_gz_read_float32_allocates_the_array_and_one_slab(tmp_path, head64):
    """At most 6.8 bytes per voxel at 64^3: the 4-byte C-order array, one
    reused slab of 16 z-planes (1 byte per voxel at this size) and bounded
    pieces of decompression buffers."""
    path = tmp_path / "h.nii.gz"
    nifti.write_nifti(head64.volume, nifti.sidecar_for_dtype(np.float32), path)
    peak = _peak_bytes_per_voxel(lambda: nifti.read_nifti(path), head64.volume.data.size)
    assert peak <= 6.8


def test_gz_float32_128_read_and_write_peaks(tmp_path):
    """At 128^3 a slab is half a byte per voxel, so the read costs little
    more than its 4-byte array (at most 5.1 bytes per voxel) and the write
    little more than nothing (at most 1.6)."""
    volume = synthetic.nominal_head(128).volume
    path = tmp_path / "h.nii.gz"
    sidecar = nifti.sidecar_for_dtype(np.float32)
    write = _peak_bytes_per_voxel(
        lambda: nifti.write_nifti(volume, sidecar, path), volume.data.size)
    read = _peak_bytes_per_voxel(lambda: nifti.read_nifti(path), volume.data.size)
    assert write <= 1.6
    assert read <= 5.1


def test_sidecar_for_unsupported_dtype():
    with pytest.raises(UnsupportedDatatype):
        nifti.sidecar_for_dtype(np.int8)


def test_write_background_zero_representable(tmp_path):
    data = np.array([[[5, 0], [0, 7]]], dtype=np.int16).reshape(1, 2, 2)
    path = tmp_path / "z.nii"
    nifti.write_nifti(Volume(data, np.eye(4)), nifti.sidecar_for_dtype(np.int16), path)
    vol, _ = nifti.read_nifti(path)
    assert vol.data.dtype == np.int16
    assert (vol.data == 0).sum() == 2


def test_write_scrubs_text_fields(tmp_path, identity_2x2x2):
    path, _ = identity_2x2x2
    raw = bytearray(path.read_bytes())
    raw[148 : 148 + 7] = b"PATIENT"
    src = tmp_path / "named.nii"
    src.write_bytes(raw)
    vol, sidecar = nifti.read_nifti(src)
    out = tmp_path / "scrubbed.nii"
    nifti.write_nifti(vol, sidecar, out)
    hdr = out.read_bytes()[:348]
    assert hdr[148:228] == bytes(80)
    assert hdr[228:252] == bytes(24)


def test_sform_qform_disagreement_warns(tmp_path):
    data = np.zeros((2, 2, 2), dtype=np.float32)
    raw = bytearray(build_nifti_bytes(data))
    # qform_code 1 with identity quaternion but shifted offset
    struct.pack_into("<2h", raw, 252, 1, 1)
    struct.pack_into("<3f", raw, 268, 50.0, 0.0, 0.0)
    path = tmp_path / "dis.nii"
    path.write_bytes(raw)
    vol, sidecar = nifti.read_nifti(path)
    assert sidecar.warnings  # sform wins, disagreement recorded
    np.testing.assert_allclose(vol.affine, np.eye(4), atol=1e-6)


def test_gzip_output_names_the_final_file(tmp_path):
    """Written through a temporary file, a .nii.gz still carries its own
    name and a zero mtime in the gzip header, and nothing else is left."""
    path = tmp_path / "named.nii.gz"
    vol = Volume(np.zeros((2, 2, 2), np.float32), np.eye(4))
    nifti.write_nifti(vol, nifti.sidecar_for_dtype(np.float32), path)
    raw = path.read_bytes()
    assert raw[3] & 0x08  # FNAME flag
    assert struct.unpack("<I", raw[4:8]) == (0,)  # mtime
    assert raw[10:raw.index(b"\0", 10)] == b"named.nii"
    assert [p.name for p in tmp_path.iterdir()] == ["named.nii.gz"]


def test_failed_write_keeps_old_file(tmp_path):
    path = tmp_path / "out.nii"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with nifti.atomic_file(path) as f:
            f.write(b"partial")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.nii"]
