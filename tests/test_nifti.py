"""Reader/writer round trips against hand-built NIfTI-1 files.

Fixture files for read tests are assembled byte-by-byte here, independent
of the writer, so the two sides check each other.
"""

import gzip
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from defacepipe import nifti
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
):
    """Independent minimal NIfTI-1 encoder used as the read oracle."""
    data = np.asarray(data)
    code = DT_CODES[datatype or data.dtype.type]
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, code, data.dtype.itemsize * 8)
    struct.pack_into("<8f", hdr, 76, 1.0, *spacing, 0, 0, 0, 0)
    struct.pack_into("<f", hdr, 108, 352.0)
    struct.pack_into("<2f", hdr, 112, scl_slope, scl_inter)
    struct.pack_into("<2h", hdr, 252, 0, 1)
    struct.pack_into("<4f", hdr, 280, *sform[0])
    struct.pack_into("<4f", hdr, 296, *sform[1])
    struct.pack_into("<4f", hdr, 312, *sform[2])
    struct.pack_into("<4s", hdr, 344, b"n+1\x00")
    return bytes(hdr) + bytes(4) + data.tobytes(order="F")


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


@pytest.mark.parametrize("offset", [np.inf, -np.inf, np.nan, 1e30])
def test_read_unusable_vox_offset_is_corrupt(tmp_path, identity_2x2x2, offset):
    path, _ = identity_2x2x2
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 108, offset)
    bad = tmp_path / "offset.nii"
    bad.write_bytes(raw)
    with pytest.raises(CorruptFile):
        nifti.read_nifti(bad)


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


_FLOAT32 = st.floats(width=32)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    byte_order=st.sampled_from("<>"),
    dim=st.lists(st.one_of(st.integers(-2, 5), st.just(30000)), min_size=8, max_size=8),
    datatype=st.sampled_from([0, 1, 2, 4, 8, 16, 64, 128, 256, 512, 768, 1024, -1]),
    vox_offset=st.one_of(_FLOAT32, st.sampled_from([0.0, 348.0, 352.0, 356.0, 1e30])),
    codes=st.tuples(st.integers(-1, 4), st.integers(-1, 4)),
    geometry=st.lists(_FLOAT32, min_size=26, max_size=26),
    payload=st.binary(max_size=200),
    compress=st.booleans(),
)
def test_read_fuzzed_header_reads_or_raises_typed_error(
    tmp_path, byte_order, dim, datatype, vox_offset, codes, geometry, payload, compress
):
    """Every header field the reader interprets, fuzzed: the file either
    reads into a volume with a finite affine and the declared 3D shape, or
    fails with a DefacepipeError."""
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
    assert vol.data.ndim == 3
    assert vol.data.size * vol.data.itemsize <= len(payload)
    assert np.isfinite(vol.affine).all()


def test_read_4d_multivolume_rejected(tmp_path):
    data = np.zeros((2, 2, 2), dtype=np.float32)
    raw = bytearray(build_nifti_bytes(data))
    struct.pack_into("<8h", raw, 40, 4, 2, 2, 2, 5, 1, 1, 1)
    bad = tmp_path / "4d.nii"
    bad.write_bytes(raw)
    with pytest.raises(UnsupportedDims):
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
