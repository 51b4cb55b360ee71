"""NIfTI-1 single-file reader/writer (348-byte header, optional gzip).

Only the fields the pipeline needs are interpreted; the original header
bytes ride along in a sidecar so unrelated metadata survives a round trip.
The free-text fields (data_type, db_name, descrip, aux_file, intent_name)
are zeroed on write as a minimal anonymisation scrub.

A volume comes back x fastest, as the file stores it (F order), so neither
a read nor the write of a volume that was read reorders a voxel; code that
takes a volume keeps its order, and registration sums its foreground
centroid over a C-order copy, as a float sum's rounding depends on the
order it adds in.

The voxel bytes pass through one slab of COPY_TILE[2] z-planes at a time,
so a read or a write holds the volume and one slab, never a second copy of
the volume. A .nii.gz is read through gzip.GzipFile, in requests of at
most READ_CHUNK bytes, and after the voxels on to the end of the file, which
checks the CRC-32 and length of every gzip member; trailing bytes that are
not a gzip member make the file corrupt.
"""

import contextlib
import errno
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
from .volume import COPY_TILE, DTYPE_TO_CODE, SUPPORTED_DTYPES, Volume, copy_into

HEADER_SIZE = 348
VOX_OFFSET = 352
GZIP_MAGIC = b"\x1f\x8b"
# zlib's own default. On a sheared 128^3 phantom, level 9 takes three times
# its CPU for 1.4% fewer bytes, and levels 1-5 write more (a mask up to 2.5
# times as much). The level changes no decompressed byte.
GZIP_LEVEL = 6
# The size of each read request made to the file or to gzip.GzipFile: small
# enough that the copies GzipFile makes of a request stay small next to the
# payload.
READ_CHUNK = 1 << 16
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


def _quaternion_affine(raw: bytes, bo: str) -> np.ndarray:
    """The qform affine; all NaN when a quaternion, offset or spacing field
    is not finite, which the caller rejects or ignores."""
    b, c, d = struct.unpack_from(bo + "3f", raw, 256)
    ox, oy, oz = struct.unpack_from(bo + "3f", raw, 268)
    pixdim = struct.unpack_from(bo + "8f", raw, 76)
    if not all(map(math.isfinite, (b, c, d, ox, oy, oz, *pixdim[1:4]))):
        return np.full((4, 4), np.nan)
    qfac = -1.0 if pixdim[0] < 0 else 1.0
    a = 1.0 - (b * b + c * c + d * d)
    if a < 1e-7:
        # As nifti1_io reads it: a 180 degree turn about (b, c, d) scaled to
        # unit length, so the rotation stays orthonormal.
        norm = math.sqrt(b * b + c * c + d * d)
        a, b, c, d = 0.0, b / norm, c / norm, d / norm
    else:
        a = math.sqrt(a)
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
        with open(path, "rb") as file, contextlib.ExitStack() as stack:
            gz = file.read(2) == GZIP_MAGIC
            file.seek(0)
            f = stack.enter_context(gzip.GzipFile(fileobj=file)) if gz else file
            # An upper bound on the NIfTI bytes the file holds.
            available = os.fstat(file.fileno()).st_size * (GZIP_MAX_RATIO if gz else 1)
            raw = bytearray(HEADER_SIZE)
            if f.readinto(raw) < HEADER_SIZE:
                raise NotNifti(f"{path}: file shorter than a NIfTI-1 header")
            raw = bytes(raw)
            magic = raw[344:348]
            if magic != NIFTI1_MAGIC:
                raise NotNifti(f"{path}: bad magic {magic!r}")
            bo = "<"
            (sizeof_hdr,) = struct.unpack_from(bo + "i", raw, 0)
            if sizeof_hdr != HEADER_SIZE:
                bo = ">"
                (sizeof_hdr,) = struct.unpack_from(bo + "i", raw, 0)
                if sizeof_hdr != HEADER_SIZE:
                    raise NotNifti(f"{path}: sizeof_hdr is {sizeof_hdr}")

            dim = struct.unpack_from(bo + "8h", raw, 40)
            (datatype,) = struct.unpack_from(bo + "h", raw, 70)
            pixdim = struct.unpack_from(bo + "8f", raw, 76)
            (vox_offset,) = struct.unpack_from(bo + "f", raw, 108)
            scl_slope, scl_inter = struct.unpack_from(bo + "2f", raw, 112)
            scaling = _scaling(scl_slope, scl_inter, path)
            qform_code, sform_code = struct.unpack_from(bo + "2h", raw, 252)

            ndim = dim[0]
            if not 1 <= ndim <= 7:
                raise NotNifti(f"{path}: dim[0]={ndim}")
            shape = list(dim[1 : ndim + 1])
            if min(shape) < 1:
                raise CorruptFile(f"{path}: dims {shape} below 1")
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
            # A single file's voxels start at 352 at the earliest: bytes 348-351
            # are the extension flags. A lower offset reads as 352, as nibabel
            # fixes it.
            offset = int(vox_offset) if vox_offset >= VOX_OFFSET else VOX_OFFSET
            nbytes = math.prod(shape) * dtype.itemsize
            if offset + nbytes > available:  # checked first: the read allocates nbytes
                raise CorruptFile(f"{path}: {nbytes} voxel bytes at {offset} exceed the file")
            f.seek(offset)
            # The payload, x fastest, comes in slabs of whole z-planes, each
            # read into one reused buffer and copied into the array while it
            # is still in cache. The array is x fastest too (F order), so a
            # slab is one contiguous block of it and the copy, which swaps
            # the byte order and casts, every value as one assignment casts
            # it, reorders nothing. A signalling NaN voxel, cast, and a
            # scaled value past float64's range read as NaN and inf, with no
            # floating-point warning: the pipeline reads a non-finite voxel
            # as background.
            data = np.empty(shape, np.float64 if scaling else dtype.newbyteorder("="),
                            order="F")
            nx, ny, nz = shape
            depth = COPY_TILE[2]
            slab = np.empty(nx * ny * min(depth, nz) * dtype.itemsize, np.uint8)
            with np.errstate(invalid="ignore", over="ignore"):
                for z in range(0, nz, depth):
                    planes = min(depth, nz - z)
                    buffer = slab[:nx * ny * planes * dtype.itemsize]
                    for at in range(0, buffer.size, READ_CHUNK):
                        piece = buffer[at:at + READ_CHUNK]
                        if f.readinto(piece) < piece.size:
                            raise CorruptFile(
                                f"{path}: fewer than the {nbytes} voxel bytes declared")
                    data[:, :, z:z + planes] = buffer.view(dtype).reshape(
                        (nx, ny, planes), order="F")
                if scaling:
                    slope, inter = scaling
                    data *= slope
                    data += inter
            # On to the end of the file: GzipFile checks each member's trailer
            # as it reaches it.
            while gz and f.read(READ_CHUNK):
                pass
    except (EOFError, zlib.error, gzip.BadGzipFile) as e:
        raise CorruptFile(f"{path}: {e}") from e
    except OSError as e:
        raise IoError(f"{path}: {e}") from e

    warnings = []

    if sform_code > 0:
        affine = np.eye(4)
        affine[0, :] = struct.unpack_from(bo + "4f", raw, 280)
        affine[1, :] = struct.unpack_from(bo + "4f", raw, 296)
        affine[2, :] = struct.unpack_from(bo + "4f", raw, 312)
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
    return Volume(data, affine), sidecar


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


def _encode_payload(volume: Volume, sidecar: HeaderSidecar, path):
    """The voxels as the file stores them, in slabs of COPY_TILE[2] z-planes:
    each slab a C-contiguous array of the sidecar's datatype in its byte
    order, x fastest. Scaled data and float data bound for an integer type
    are rounded in float64 and range-checked slab by slab; any other data is
    cast in the one copy into the slab (volume.copy_into), which leaves
    every value as one assignment would. That copy reorders only a volume
    that is not x fastest already, tile by tile."""
    dtype = np.dtype(SUPPORTED_DTYPES[sidecar.datatype_code])
    scaling = _scaling(sidecar.scl_slope, sidecar.scl_inter, path)
    to_integer = np.issubdtype(dtype, np.integer)
    rounded = scaling or (to_integer and not np.can_cast(volume.data.dtype, dtype, "safe"))
    depth = COPY_TILE[2]
    for z in range(0, volume.dims[2], depth):
        data = volume.data[:, :, z:z + depth]
        if rounded:
            data = data.astype(np.float64)
            if scaling:
                slope, inter = scaling
                data -= inter
                data /= slope
            if to_integer:
                np.rint(data, out=data)
                info = np.iinfo(dtype)
                # written so that a NaN, whose comparisons are all False, fails
                if not (info.min <= data.min() and data.max() <= info.max):
                    raise DatatypeOverflow(
                        f"value outside {dtype} range [{info.min}, {info.max}] or not finite"
                    )
        payload = np.empty(data.shape[::-1], dtype.newbyteorder(sidecar.byte_order))
        copy_into(payload, data.T)
        yield payload


def write_nifti(volume: Volume, sidecar: HeaderSidecar, path) -> None:
    """Write a Volume back to disk, preserving the input header verbatim
    except for geometry, datatype bookkeeping, and the scrub list. A
    .nii.gz is compressed at GZIP_LEVEL. The voxels are encoded and written
    slab by slab; a value that does not fit the datatype fails the write
    and leaves path as it was."""
    path = Path(path)
    code = sidecar.datatype_code
    itemsize = np.dtype(SUPPORTED_DTYPES[code]).itemsize
    bo = sidecar.byte_order

    raw = bytearray(sidecar.raw)
    struct.pack_into(bo + "i", raw, 0, HEADER_SIZE)
    dims = volume.dims
    struct.pack_into(bo + "8h", raw, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into(bo + "2h", raw, 70, code, itemsize * 8)
    sp = volume.spacing
    struct.pack_into(bo + "8f", raw, 76, 1.0, sp[0], sp[1], sp[2], 0, 0, 0, 0)
    struct.pack_into(bo + "f", raw, 108, float(VOX_OFFSET))
    struct.pack_into(bo + "2f", raw, 112, sidecar.scl_slope, sidecar.scl_inter)
    # Anonymisation scrub: every free-text field zeroed.
    raw[4:14] = bytes(10)  # data_type
    raw[14:32] = bytes(18)  # db_name
    raw[148:228] = bytes(80)  # descrip
    raw[228:252] = bytes(24)  # aux_file
    raw[328:344] = bytes(16)  # intent_name
    # sform is authoritative on output; drop qform to avoid stale geometry.
    struct.pack_into(bo + "2h", raw, 252, 0, max(1, sidecar.sform_code))
    struct.pack_into(bo + "4f", raw, 280, *volume.affine[0, :])
    struct.pack_into(bo + "4f", raw, 296, *volume.affine[1, :])
    struct.pack_into(bo + "4f", raw, 312, *volume.affine[2, :])
    struct.pack_into(bo + "4s", raw, 344, b"n+1\x00")
    raw += bytes(VOX_OFFSET - HEADER_SIZE)  # the empty extension flag

    try:
        with atomic_file(path) as f:
            # The gzip header names the final file, not the temporary one.
            with (gzip.GzipFile(filename=path, mode="wb", fileobj=f, mtime=0,
                                compresslevel=GZIP_LEVEL)
                  if path.suffix == ".gz" else contextlib.nullcontext(f)) as out:
                out.write(raw)
                for payload in _encode_payload(volume, sidecar, path):
                    out.write(payload)
    except OSError as e:
        raise IoError(f"{path}: {e}") from e


@contextlib.contextmanager
def atomic_file(path: Path):
    """Binary file for the new contents of path: a temporary file in the
    same directory that replaces path when the block ends, and is removed
    if the block raises. A reader sees the old file or the whole new one.
    A path with no name, such as "." or "/", raises IsADirectoryError."""
    if not path.name:
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
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
    # bool to uint8 is a safe cast, done in the payload's one copy
    write_nifti(Volume(mask.data, mask.affine), sidecar_for_dtype(np.uint8), path)
