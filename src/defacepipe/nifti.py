"""NIfTI-1 single-file reader/writer (348-byte header, optional gzip).

Only the fields the pipeline needs are interpreted; the original header
bytes ride along in a sidecar so unrelated metadata survives a round trip.
descrip and aux_file are zeroed on write as a minimal anonymisation scrub.
"""

import contextlib
import glob
import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CorruptFile,
    DatatypeOverflow,
    IoError,
    NotNifti,
    UnsupportedDatatype,
    UnsupportedDims,
)
from .volume import DTYPE_TO_CODE, SUPPORTED_DTYPES, Volume

HEADER_SIZE = 348
VOX_OFFSET = 352
GZIP_MAGIC = b"\x1f\x8b"
# Deflate expands its input at most about 1032-fold, so a gzip file of n
# bytes holds fewer than n * GZIP_MAX_RATIO uncompressed bytes.
GZIP_MAX_RATIO = 1032
NIFTI1_MAGIC = b"n+1\x00"  # single file; "ni1" marks a .hdr/.img pair


@dataclass
class HeaderSidecar:
    """Verbatim input header plus the handful of fields we interpret."""

    raw: bytes
    byte_order: str  # "<" or ">"
    datatype_code: int
    scl_slope: float
    scl_inter: float
    sform_code: int
    warnings: list = field(default_factory=list)


def _is_gzipped(path: Path) -> bool:
    with open(path, "rb") as f:
        return f.read(2) == GZIP_MAGIC


def _open(path: Path):
    """Binary stream of the file's NIfTI bytes, and an upper bound on how
    many it holds."""
    size = path.stat().st_size
    if _is_gzipped(path):
        return gzip.open(path, "rb"), size * GZIP_MAX_RATIO
    return open(path, "rb"), size


def _unpack(fmt, raw, offset):
    return struct.unpack_from(fmt, raw, offset)


def _quaternion_affine(raw: bytes, bo: str) -> np.ndarray:
    """The qform affine; all NaN when a quaternion, offset or spacing field
    is not finite, which the caller rejects or ignores."""
    b, c, d = _unpack(bo + "3f", raw, 256)
    ox, oy, oz = _unpack(bo + "3f", raw, 268)
    pixdim = _unpack(bo + "8f", raw, 76)
    if not all(map(math.isfinite, (b, c, d, ox, oy, oz, *pixdim[1:4]))):
        return np.full((4, 4), np.nan)
    qfac = -1.0 if pixdim[0] < 0 else 1.0
    a2 = 1.0 - (b * b + c * c + d * d)
    a = np.sqrt(max(a2, 0.0))
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ]
    )
    aff = np.eye(4)
    aff[:3, :3] = rot * np.array([pixdim[1], pixdim[2], qfac * pixdim[3]])
    aff[:3, 3] = (ox, oy, oz)
    return aff


def _scaling(slope: float, inter: float, path) -> tuple[float, float] | None:
    """The (scl_slope, scl_inter) pair to apply, or None for unscaled data.
    As nibabel reads the NIfTI-1 rule, a zero or non-finite slope means no
    scaling, whatever scl_inter holds; a usable slope with a non-finite
    intercept is a corrupt header."""
    if slope == 0.0 or not math.isfinite(slope):
        return None
    if not math.isfinite(inter):
        raise CorruptFile(f"{path}: scl_slope {slope} with scl_inter {inter}")
    if slope == 1.0 and inter == 0.0:
        return None
    return slope, inter


def read_nifti(path) -> tuple[Volume, HeaderSidecar]:
    """Read a NIfTI-1 single file (optionally gzipped) into a Volume.

    Intensities are de-scaled with scl_slope/scl_inter when a nontrivial
    scaling is declared; the affine comes from sform when valid, else
    qform, else a spacing diagonal.
    """
    path = Path(path)
    if not path.is_file():
        raise IoError(f"no such file: {path}")
    try:
        f, available = _open(path)
        with f:
            raw = f.read(HEADER_SIZE)
            if len(raw) < HEADER_SIZE:
                raise NotNifti(f"{path}: file shorter than a NIfTI-1 header")
            magic = raw[344:348]
            if magic != NIFTI1_MAGIC:
                raise NotNifti(f"{path}: bad magic {magic!r}")
            bo = "<"
            (sizeof_hdr,) = _unpack(bo + "i", raw, 0)
            if sizeof_hdr != HEADER_SIZE:
                bo = ">"
                (sizeof_hdr,) = _unpack(bo + "i", raw, 0)
                if sizeof_hdr != HEADER_SIZE:
                    raise NotNifti(f"{path}: sizeof_hdr is {sizeof_hdr}")

            dim = _unpack(bo + "8h", raw, 40)
            (datatype,) = _unpack(bo + "h", raw, 70)
            pixdim = _unpack(bo + "8f", raw, 76)
            (vox_offset,) = _unpack(bo + "f", raw, 108)
            scl_slope, scl_inter = _unpack(bo + "2f", raw, 112)
            scaling = _scaling(scl_slope, scl_inter, path)
            qform_code, sform_code = _unpack(bo + "2h", raw, 252)

            ndim = dim[0]
            if not 1 <= ndim <= 7:
                raise NotNifti(f"{path}: dim[0]={ndim}")
            shape = [max(1, dim[i + 1]) for i in range(ndim)]
            while len(shape) > 3 and shape[-1] == 1:
                shape.pop()
            if len(shape) != 3:
                raise UnsupportedDims(
                    f"{path}: not a 3D volume after squeezing (shape {shape})"
                )
            shape = tuple(shape)

            if datatype not in SUPPORTED_DTYPES:
                raise UnsupportedDatatype(f"{path}: datatype code {datatype}")
            dtype = np.dtype(SUPPORTED_DTYPES[datatype]).newbyteorder(bo)

            if not math.isfinite(vox_offset):
                raise CorruptFile(f"{path}: vox_offset {vox_offset}")
            offset = int(vox_offset) if vox_offset >= HEADER_SIZE else VOX_OFFSET
            nbytes = math.prod(shape) * dtype.itemsize
            if offset + nbytes > available:  # checked first: the read allocates nbytes
                raise CorruptFile(f"{path}: {nbytes} voxel bytes at {offset} exceed the file")
            f.seek(offset)
            payload = f.read(nbytes)
            if len(payload) != nbytes:
                raise CorruptFile(f"{path}: expected {nbytes} voxel bytes, got {len(payload)}")
            data = np.frombuffer(payload, dtype=dtype).reshape(shape, order="F")
            data = data.astype(data.dtype.newbyteorder("="))
    except (EOFError, zlib.error) as e:
        raise CorruptFile(f"{path}: {e}") from e
    except OSError as e:
        raise IoError(f"{path}: {e}") from e

    warnings = []
    if scaling:
        slope, inter = scaling
        data = data.astype(np.float64) * np.float64(slope) + np.float64(inter)

    if sform_code > 0:
        affine = np.eye(4)
        affine[0, :] = _unpack(bo + "4f", raw, 280)
        affine[1, :] = _unpack(bo + "4f", raw, 296)
        affine[2, :] = _unpack(bo + "4f", raw, 312)
        if qform_code > 0:
            qaff = _quaternion_affine(raw, bo)
            if not np.allclose(qaff, affine, atol=1e-3):
                warnings.append("sform and qform disagree; using sform")
    elif qform_code > 0:
        affine = _quaternion_affine(raw, bo)
    else:
        affine = np.diag([abs(pixdim[1]) or 1.0, abs(pixdim[2]) or 1.0,
                          abs(pixdim[3]) or 1.0, 1.0])
    if not np.isfinite(affine).all():
        raise CorruptFile(f"{path}: non-finite voxel-to-world affine")

    sidecar = HeaderSidecar(
        raw=raw,
        byte_order=bo,
        datatype_code=datatype,
        scl_slope=float(scl_slope),
        scl_inter=float(scl_inter),
        sform_code=sform_code,
        warnings=warnings,
    )
    return Volume(np.ascontiguousarray(data), affine), sidecar


def sidecar_for_dtype(dtype) -> HeaderSidecar:
    """Sidecar for volumes born in memory (masks, phantoms)."""
    code = DTYPE_TO_CODE.get(np.dtype(dtype))
    if code is None:
        raise UnsupportedDatatype(f"dtype {np.dtype(dtype)}")
    raw = bytearray(HEADER_SIZE)
    struct.pack_into("<i", raw, 0, HEADER_SIZE)
    struct.pack_into("<4s", raw, 344, b"n+1\x00")
    return HeaderSidecar(
        raw=bytes(raw),
        byte_order="<",
        datatype_code=code,
        scl_slope=1.0,
        scl_inter=0.0,
        sform_code=1,
    )


def _encode_payload(
    volume: Volume, sidecar: HeaderSidecar, path
) -> tuple[np.ndarray, int]:
    code = sidecar.datatype_code
    dtype = np.dtype(SUPPORTED_DTYPES[code])
    data = np.asarray(volume.data, dtype=np.float64)
    scaling = _scaling(sidecar.scl_slope, sidecar.scl_inter, path)
    if scaling:
        slope, inter = scaling
        data = (data - inter) / slope
    if np.issubdtype(dtype, np.integer):
        raw_vals = np.rint(data)
        info = np.iinfo(dtype)
        if raw_vals.min() < info.min or raw_vals.max() > info.max:
            raise DatatypeOverflow(
                f"value outside {dtype} range [{info.min}, {info.max}]"
            )
        return raw_vals.astype(dtype), code
    return data.astype(dtype), code


def write_nifti(volume: Volume, sidecar: HeaderSidecar, path) -> None:
    """Write a Volume back to disk, preserving the input header verbatim
    except for geometry, datatype bookkeeping, and the scrub list."""
    path = Path(path)
    payload, code = _encode_payload(volume, sidecar, path)
    bo = sidecar.byte_order

    raw = bytearray(sidecar.raw)
    struct.pack_into(bo + "i", raw, 0, HEADER_SIZE)
    dims = volume.dims
    struct.pack_into(bo + "8h", raw, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    dtype = np.dtype(SUPPORTED_DTYPES[code])
    struct.pack_into(bo + "2h", raw, 70, code, dtype.itemsize * 8)
    sp = volume.spacing
    struct.pack_into(bo + "8f", raw, 76, 1.0, sp[0], sp[1], sp[2], 0, 0, 0, 0)
    struct.pack_into(bo + "f", raw, 108, float(VOX_OFFSET))
    struct.pack_into(bo + "2f", raw, 112, sidecar.scl_slope, sidecar.scl_inter)
    # Anonymisation scrub: free-text fields zeroed.
    raw[148:228] = bytes(80)  # descrip
    raw[228:252] = bytes(24)  # aux_file
    # sform is authoritative on output; drop qform to avoid stale geometry.
    struct.pack_into(bo + "2h", raw, 252, 0, max(1, sidecar.sform_code))
    struct.pack_into(bo + "4f", raw, 280, *volume.affine[0, :])
    struct.pack_into(bo + "4f", raw, 296, *volume.affine[1, :])
    struct.pack_into(bo + "4f", raw, 312, *volume.affine[2, :])
    struct.pack_into(bo + "4s", raw, 344, b"n+1\x00")

    if bo == ">":
        payload = payload.astype(payload.dtype.newbyteorder(">"))
    blob = bytes(raw) + bytes(4) + payload.tobytes(order="F")
    try:
        with atomic_file(path) as f:
            if path.suffix == ".gz":
                # The gzip header names the final file, not the temporary one.
                with gzip.GzipFile(filename=path, mode="wb", fileobj=f, mtime=0) as gz:
                    gz.write(blob)
            else:
                f.write(blob)
    except OSError as e:
        raise IoError(f"{path}: {e}") from e


@contextlib.contextmanager
def atomic_file(path: Path):
    """Binary file for the new contents of path: a temporary file in the
    same directory that replaces path when the block ends, and is removed
    if the block raises. A reader sees the old file or the whole new one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def remove_temporary_files(path: Path) -> None:
    """Remove what atomic_file(path) left when its process died in the block."""
    for tmp in path.parent.glob(f".{glob.escape(path.name)}.*.tmp"):
        tmp.unlink(missing_ok=True)


def write_mask(mask, path) -> None:
    """Persist a BinaryMask as a u8 NIfTI volume."""
    write_nifti(mask.to_volume(), sidecar_for_dtype(np.uint8), path)
