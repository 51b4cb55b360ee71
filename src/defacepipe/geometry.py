"""Affine algebra, canonical (RAS-like) reorientation, and grid resampling."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import AmbiguousOrientation, SingularTransform
from .nifti import atomic_file
from .volume import BinaryMask, Volume, copy_into

DET_EPS = 1e-12


def translation(t) -> np.ndarray:
    m = np.eye(4)
    m[:3, 3] = t
    return m


def affine_matrix(translation, rotation, scale, shear, center) -> np.ndarray:
    """12-dof transform about a center: x -> R Z H (x - c) + c + t, with
    R = Rz Ry Rx from Euler angles in radians, Z = diag(scale) (linear, per
    axis) and H the upper unit-triangular shear (hxy, hxz, hyz)."""
    rx, ry, rz = rotation
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    hxy, hxz, hyz = shear
    lin = (np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
           @ np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
           @ np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
           @ np.diag(scale)
           @ np.array([[1, hxy, hxz], [0, 1, hyz], [0, 0, 1]]))
    center = np.asarray(center, dtype=np.float64)
    m = np.eye(4)
    m[:3, :3] = lin
    m[:3, 3] = translation + center - lin @ center
    return m


def invert(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if abs(np.linalg.det(t[:3, :3])) <= DET_EPS:
        raise SingularTransform("linear part is singular")
    return np.linalg.inv(t)


def save_transform(t: np.ndarray, path) -> None:
    """4-line whitespace-separated 4x4 world-to-world matrix (mm), written
    whole or not at all."""
    with atomic_file(Path(path)) as f:
        np.savetxt(f, np.asarray(t), fmt="%.12g")


def load_transform(path) -> np.ndarray:
    t = np.loadtxt(path)
    if t.shape != (4, 4):
        raise ValueError(f"{path}: expected a 4x4 matrix, got {t.shape}")
    return t


@dataclass
class AxisPermutation:
    """Record of a reorientation: output axis j came from source axis perm[j],
    reversed when flips[j] is set."""

    perm: tuple[int, int, int]
    flips: tuple[bool, bool, bool]

    @property
    def is_identity(self) -> bool:
        return self.perm == (0, 1, 2) and not any(self.flips)

    def apply(self, data: np.ndarray) -> np.ndarray:
        out = np.transpose(data, self.perm)
        rev = tuple(j for j in range(3) if self.flips[j])
        return np.flip(out, rev) if rev else out

    def undo(self, data: np.ndarray) -> np.ndarray:
        """Inverse of apply, as a C-contiguous array: a view of data when it
        already is one, as for the identity, else a new array."""
        rev = tuple(j for j in range(3) if self.flips[j])
        view = np.transpose(np.flip(data, rev) if rev else data, np.argsort(self.perm))
        if view.flags.c_contiguous:
            return view
        out = np.empty(view.shape, view.dtype)
        copy_into(out, view)
        return out


def reorient_to_canonical(
    v: Volume | BinaryMask,
) -> tuple[Volume | BinaryMask, AxisPermutation]:
    """Permute/flip voxel axes so each affine column is dominant-positive on
    the diagonal (closest-to-RAS), as the same type as v, so a BinaryMask
    moves 1 byte a voxel. World geometry is unchanged: every voxel keeps its
    world coordinate exactly."""
    lin = v.affine[:3, :3]
    dominant = np.argmax(np.abs(lin), axis=0)  # world axis of each voxel axis
    if len(set(dominant.tolist())) != 3:
        raise AmbiguousOrientation(
            f"voxel axes map to world axes {dominant.tolist()}"
        )
    perm = tuple(int(np.where(dominant == j)[0][0]) for j in range(3))
    flips = tuple(bool(lin[j, perm[j]] < 0) for j in range(3))

    rec = AxisPermutation(perm, flips)
    if rec.is_identity:
        return type(v)(v.data, v.affine), rec

    aff = v.affine.copy()
    # Flip columns in source-axis terms first, then permute.
    for j in range(3):
        i = perm[j]
        if flips[j]:
            aff[:3, 3] += aff[:3, i] * (v.dims[i] - 1)
            aff[:3, i] = -aff[:3, i]
    aff[:3, :3] = aff[:3, list(perm)]  # the fancy index reads a copy
    view = rec.apply(v.data)
    data = np.empty(view.shape, view.dtype)
    copy_into(data, view)
    return type(v)(data, aff), rec


# Most target voxels in one block of a nearest resample, which is made of
# whole target rows (one row at least). Its buffers take 42 bytes a voxel,
# so a block of this size stays within a core's L2 cache.
NEAREST_BLOCK = 2**14
# Fewest blocks a nearest resample splits its target into, so that a small
# target's buffers stay small beside its output (a third of a byte a voxel).
NEAREST_MIN_BLOCKS = 128


def _resample_nearest(data: np.ndarray, dims, vox_map: np.ndarray) -> np.ndarray:
    """data read at target voxel (i, j, k) as "nearest" reads it, into a new
    array of data's dtype. Axis a's source coordinate is summed as scipy's
    affine_transform sums it, ((s_a + m_a0 i) + m_a1 j) + m_a2 k, and
    rounded as it rounds it, floor(c + 0.5), so the two read the same voxel.
    The target goes block by block of whole rows through buffers allocated
    once; each block gathers once from the source's flat array. No ufunc
    here broadcasts an operand, since numpy buffers such an operand: a row's
    first two terms are copied across it, then the third is added from a
    block of rows of m_a2 k made once."""
    nx, ny, nz = dims
    out = np.empty((nx * ny, nz), data.dtype)
    rows = max(1, min(NEAREST_BLOCK, nx * ny * nz // NEAREST_MIN_BLOCKS) // max(nz, 1))
    src = np.ravel(data)
    top = np.asarray(data.shape, dtype=np.float64) - 1.0
    step = (float(data.shape[1] * data.shape[2]), float(data.shape[2]), 1.0)
    lin, shift = vox_map[:3, :3], vox_map[:3, 3]
    along_x = shift[:, None] + lin[:, 0:1] * np.arange(nx)
    along_y = lin[:, 1:2] * np.arange(ny)
    along_z = np.repeat((lin[:, 2:3] * np.arange(nz))[:, None, :], rows, axis=1)  # per row
    coord = np.empty((rows, nz))
    flat = np.empty((rows, nz))
    outside = np.empty((rows, nz), dtype=bool)
    test = np.empty((rows, nz), dtype=bool)
    zero = np.zeros((), data.dtype)
    for r0 in range(0, nx * ny, rows):
        i, j = np.divmod(np.arange(r0, min(r0 + rows, nx * ny)), ny)
        n = len(i)
        row_start = along_x[:, i] + along_y[:, j]
        c, acc, bad, tb = coord[:n], flat[:n], outside[:n], test[:n]
        acc[...] = 0.0
        bad[...] = False
        for a in range(3):
            c[...] = row_start[a, :, None]
            c += along_z[a, :n]
            c += 0.5
            np.floor(c, out=c)
            np.less(c, 0.0, out=tb)
            bad |= tb
            np.greater(c, top[a], out=tb)
            bad |= tb
            c *= step[a]
            acc += c
        np.copyto(acc, 0.0, where=bad)
        idx = c.view(np.intp)  # the coordinates have been read
        np.copyto(idx, acc, casting="unsafe")
        block = out[r0:r0 + n]
        # Every index is in range: "clip" only keeps take from buffering its
        # output, as it does under the default "raise".
        np.take(src, idx, out=block, mode="clip")
        np.copyto(block, zero, where=bad)
    return out.reshape(dims)


def resample(
    source: Volume | BinaryMask,
    target_dims: tuple[int, int, int],
    target_affine: np.ndarray,
    world_map: np.ndarray,
    interp: str = "trilinear",
) -> Volume | BinaryMask:
    """Sample source onto the target grid, as the same type as source.

    world_map sends a target voxel's world position to the position in
    source-world at which to sample. Voxel indices refer to voxel centers.
    At source voxel coordinate c, "nearest" reads voxel floor(c + 0.5), or 0
    when that voxel is outside the volume; "trilinear" interpolates where c
    lies within [0, n - 1] on every axis and reads 0 elsewhere. "nearest"
    copies source values by index arithmetic (_resample_nearest), so it
    writes straight into the source's dtype, a BinaryMask's bool included,
    and reads the same voxels as scipy's affine_transform with order 0 and
    mode "grid-constant", at a quarter of its cost or less on 128^3 and
    larger grids.
    A BinaryMask takes "nearest" only, since casting its trilinear values
    to bool would dilate it.
    """
    if interp not in ("nearest", "trilinear"):
        raise ValueError(f"unknown interpolation {interp!r}")
    nearest = interp == "nearest"
    if isinstance(source, BinaryMask) and not nearest:
        raise ValueError("a BinaryMask is resampled with 'nearest' only")
    vox_map = invert(source.affine) @ np.asarray(world_map) @ np.asarray(target_affine)
    if nearest:
        return type(source)(_resample_nearest(source.data, tuple(target_dims), vox_map),
                            target_affine)
    out = ndimage.affine_transform(
        source.data, vox_map, output_shape=tuple(target_dims), output=np.float64,
        order=1, mode="constant",
    )
    if np.issubdtype(source.data.dtype, np.integer):
        np.rint(out, out=out)
    return type(source)(out.astype(source.data.dtype, copy=False), target_affine)
