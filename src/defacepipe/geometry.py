"""Affine algebra, canonical (RAS-like) reorientation, and the walk over a
target grid that both of the package's samplers run.

_walk culls the target to the voxels whose source coordinates can reach
the bounding box of the source's voxels with any non-zero bit, splits
them into blocks of rows, and fills each block's coordinates, summed as
scipy.ndimage.affine_transform sums them, into one reused buffer. resample
is the nearest kernel over it: it writes the bytes affine_transform writes
with order 0 and mode "grid-constant", and every voxel outside the blocks
reads +0.0, as in scipy. synthetic.sample_trilinear is the trilinear
kernel over the same walk.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AmbiguousOrientation, SingularTransform
from .morphology import _bbox
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

    def undo_view(self, data: np.ndarray) -> np.ndarray:
        """Inverse of apply, as a view of data."""
        rev = tuple(j for j in range(3) if self.flips[j])
        return np.transpose(np.flip(data, rev) if rev else data, np.argsort(self.perm))

    def undo(self, data: np.ndarray) -> np.ndarray:
        """Inverse of apply, as an array contiguous in data's order, F when
        data is F-contiguous, else C: a view of data when it already is
        one, as for the identity, else a new array."""
        view = self.undo_view(data)
        order = _order(data)
        if view.flags[f"{order}_CONTIGUOUS"]:
            return view
        out = np.empty(view.shape, view.dtype, order=order)
        copy_into(out, view)
        return out


def _order(data: np.ndarray) -> str:
    """"F" for an F-contiguous array that is not also C-contiguous, as a
    volume read from a file is, else "C"."""
    return "F" if np.isfortran(data) else "C"


def canonical_axes(g: Volume | BinaryMask) -> tuple[AxisPermutation, np.ndarray]:
    """The reorientation that makes each affine column of g dominant-positive
    on the diagonal (closest-to-RAS), and the affine of g's voxels on the
    axes it gives, worked out from g's affine and dims alone: no voxel is
    read. Every voxel keeps its world coordinate exactly."""
    lin = g.affine[:3, :3]
    dominant = np.argmax(np.abs(lin), axis=0)  # world axis of each voxel axis
    if len(set(dominant.tolist())) != 3:
        raise AmbiguousOrientation(
            f"voxel axes map to world axes {dominant.tolist()}"
        )
    perm = tuple(int(np.where(dominant == j)[0][0]) for j in range(3))
    flips = tuple(bool(lin[j, perm[j]] < 0) for j in range(3))

    aff = g.affine.copy()
    # Flip columns in source-axis terms first, then permute.
    for j in range(3):
        i = perm[j]
        if flips[j]:
            aff[:3, 3] += aff[:3, i] * (g.dims[i] - 1)
            aff[:3, i] = -aff[:3, i]
    aff[:3, :3] = aff[:3, list(perm)]  # the fancy index reads a copy
    return AxisPermutation(perm, flips), aff


def reorient_to_canonical(
    v: Volume | BinaryMask,
) -> tuple[Volume | BinaryMask, AxisPermutation]:
    """v's voxels copied onto canonical_axes(v), as the same type as v, so
    a BinaryMask moves 1 byte a voxel; on axes that are already canonical,
    v's own data, not copied. The copy is contiguous in v's order, F when
    v's data is F-contiguous, else C, so a volume read from a file and
    stored flipped (LAS, LPS) is copied in memory order, not transposed."""
    rec, aff = canonical_axes(v)
    if rec.is_identity:
        return type(v)(v.data, v.affine), rec
    view = rec.apply(v.data)
    data = np.empty(view.shape, view.dtype, order=_order(v.data))
    copy_into(data, view)
    return type(v)(data, aff), rec


# A walk (_walk) splits the target into blocks of at most `rows` rows of one
# plane and fills each block's source coordinates into one buffer that every
# block reuses, beside one axis's m_a2 k for each row of a block: 32 bytes a
# block voxel, and resample's kernel adds 2 bytes of bools. resample's blocks
# hold at most BLOCK voxels, so that these buffers stay within a core's L2
# cache, and split the target into MIN_BLOCKS blocks at least, so that a
# small target's buffers stay small beside its output.
BLOCK, MIN_BLOCKS = 2**14, 128
# The walk's cull finds the k-ranges of whole planes of target rows at once,
# at most one row per RANGE_VOXELS target voxels (one plane at least). Their
# arrays take about 120 bytes a row, a byte a target voxel, and are freed
# before _walk returns, so before a kernel allocates its output.
RANGE_VOXELS = 128


def _support(data: np.ndarray) -> tuple[slice, ...] | None:
    """Slices of the bounding box of data's voxels that have any non-zero
    bit, grown by one voxel, or None when every bit is 0. A float source is
    tested as a same-width unsigned view, so -0.0 and NaN count, and no
    full-size temporary is made."""
    return _bbox(data if data.dtype == bool else data.view(f"u{data.itemsize}"), 1)


def _walk(support, dims, vox_map: np.ndarray, rows: int):
    """An iterator over the blocks of the target grid dims whose voxels can
    reach the source box support through vox_map (target voxel -> source
    voxel), yielding (index, c) for each block: rows j0:j1 of target plane
    i, cut to their voxels k0:k1, picked out of a dims array by index = (i,
    slice(j0, j1), slice(k0, k1)), and c, a (3, j1 - j0, k1 - k0) array of
    their source coordinates. Axis a's coordinate is summed as scipy's
    affine_transform sums it, ((s_a + m_a0 i) + m_a1 j) + m_a2 k: a row's
    start is copied across it, then m_a2 k is copied across a second
    buffer's rows and added from there, so that every operand of the add is
    contiguous: numpy buffers a broadcast or strided operand of a ufunc,
    though not of a copy. c is one buffer that every block reuses: a kernel
    may write to it, and is done with it when it asks for the next block.

    Each target voxel outside the blocks reads +0.0 in every kernel: every
    voxel it would interpolate from, or the one nearest to it, has all bits
    0 or lies outside the source. Along row (i, j) the coordinate on axis a
    is r_a + m_a2 k, with r_a the row's start, so it lies in the closed
    range [lo, hi] of support's slice for k between (lo - r_a) / m_a2 and
    (hi - r_a) / m_a2. These bounds are taken with half a voxel of slack,
    far more than a coordinate's rounding, and each block's k-range is
    widened by a voxel for theirs. On an axis along which a coordinate
    moves less than half a voxel in a row, each row is tested once, with
    another half voxel of slack. No support, or a non-finite map, yields no
    block.

    The blocks are found before _walk returns, so the cull's temporaries
    are freed before a kernel allocates its output."""
    if support is None or not np.isfinite(vox_map[:3]).all():
        return iter(())  # a non-finite coordinate lies outside the source
    nx, ny, nz = dims
    # Row (i, j) starts at along_x[:, i] + along_y[:, j] = (s_a + m_a0 i) + m_a1 j.
    along_x = vox_map[:3, 3:4] + vox_map[:3, 0:1] * np.arange(nx)
    along_y = vox_map[:3, 1:2] * np.arange(ny)
    lo = np.array([s.start for s in support], dtype=np.float64)[:, None] - 0.5
    hi = np.array([s.stop for s in support], dtype=np.float64)[:, None] - 0.5
    slope = vox_map[:3, 2:3]
    flat = np.abs(slope[:, 0]) * nz <= 0.5
    slope = np.where(flat[:, None], 1.0, slope)
    # The k-bounds of row (i, j) are ends[:, a, i] - per_row[a, j]; a flat
    # axis bounds no k.
    ends = np.sort([(lo - along_x) / slope, (hi - along_x) / slope], axis=0)
    ends[:, flat] = np.array([-np.inf, np.inf])[:, None, None]
    per_row = np.where(flat[:, None], 0.0, along_y / slope)
    cuts = np.arange(0, ny, rows)
    j = np.arange(ny)
    group = max(1, int(np.prod(dims)) // RANGE_VOXELS // max(ny, 1))
    spans = [np.zeros((0, 5), dtype=np.intp)]  # (i, j0, j1, k0, k1), one a block
    for i0 in range(0, nx, group):
        first = (ends[0, :, i0:i0 + group, None] - per_row[:, None]).max(axis=0)
        last = (ends[1, :, i0:i0 + group, None] - per_row[:, None]).min(axis=0)
        for a in np.flatnonzero(flat):
            start = along_x[a, i0:i0 + group, None] + along_y[a]
            last[(start < lo[a] - 0.5) | (start > hi[a] + 0.5)] = -np.inf
        live = first <= last
        k0 = np.minimum.reduceat(np.where(live, first, np.inf), cuts, axis=1)
        k1 = np.maximum.reduceat(np.where(live, last, -np.inf), cuts, axis=1)
        j0 = np.minimum.reduceat(np.where(live, j, ny), cuts, axis=1)
        j1 = np.maximum.reduceat(np.where(live, j, -1), cuts, axis=1) + 1
        di, c = np.nonzero(j0 < j1)
        spans.append(np.stack([
            di + i0, j0[di, c], j1[di, c],
            np.clip(np.floor(k0[di, c]) - 1.0, 0, nz), np.clip(np.ceil(k1[di, c]) + 2.0, 0, nz),
        ], axis=1).astype(np.intp))
    spans = np.concatenate(spans)
    spans = spans[spans[:, 3] < spans[:, 4]]
    along_z = vox_map[:3, 2:3] * np.arange(nz)
    buffer, steps = np.empty(3 * rows * nz), np.empty(rows * nz)

    def blocks():
        for span in spans:
            i, j0, j1, k0, k1 = span.tolist()
            c = buffer[:3 * (j1 - j0) * (k1 - k0)].reshape(3, j1 - j0, k1 - k0)
            step = steps[:c[0].size].reshape(c.shape[1:])
            row_start = along_x[:, i, None] + along_y[:, j0:j1]
            for a in range(3):
                c[a] = row_start[a, :, None]
                step[...] = along_z[a, k0:k1]
                c[a] += step
            yield (i, slice(j0, j1), slice(k0, k1)), c
    return blocks()


def resample(
    source: Volume | BinaryMask,
    target_dims: tuple[int, int, int],
    target_affine: np.ndarray,
    world_map: np.ndarray,
) -> Volume | BinaryMask:
    """Sample source onto the target grid by nearest neighbour, as the same
    type as source.

    world_map sends a target voxel's world position to the position in
    source-world at which to sample. Voxel indices refer to voxel centers.
    At source voxel coordinate c it reads voxel floor(c + 0.5), or 0 when
    that voxel is outside the volume: the rounding and the sum of c
    (_walk) are scipy's, so it writes the bytes scipy's affine_transform
    writes with order 0 and mode "grid-constant". It is the nearest kernel
    over _walk's blocks: each rounds and bounds-tests its coordinates in
    place and gathers once from the source's flat array, straight into the
    source's dtype, a BinaryMask's bool included. The target voxels outside
    the blocks read +0.0. On a 128^3 phantom's brain mask it takes under a
    third of a pass over the whole grid.
    """
    data, dims = source.data, tuple(target_dims)
    vox_map = invert(source.affine) @ np.asarray(world_map) @ np.asarray(target_affine)
    rows = max(1, min(BLOCK, int(np.prod(dims)) // MIN_BLOCKS) // max(dims[2], 1))
    walk = _walk(_support(data), dims, vox_map, rows)
    out = np.zeros(dims, data.dtype)
    src = np.ravel(data)
    top = np.asarray(data.shape, dtype=np.float64) - 1.0
    step = (float(data.shape[1] * data.shape[2]), float(data.shape[2]))
    bools = np.empty(2 * rows * dims[2], dtype=bool)
    zero = np.zeros((), data.dtype)
    for index, c in walk:
        bad, tb = bools[:2 * c[0].size].reshape(2, *c.shape[1:])
        c += 0.5
        np.floor(c, out=c)
        np.less(c[0], 0.0, out=bad)
        for a in range(3):
            bad |= np.greater(c[a], top[a], out=tb)
            if a:
                bad |= np.less(c[a], 0.0, out=tb)
        acc, idx = c[0], c[1].view(np.intp)  # the flat index, summed exactly
        acc *= step[0]
        acc += np.multiply(c[1], step[1], out=c[1])
        acc += c[2]
        np.copyto(acc, 0.0, where=bad)
        np.copyto(idx, acc, casting="unsafe")  # c[1] has been read
        block = out[index]
        # Every index is in range: "clip" only keeps take from buffering its
        # output, as it does under the default "raise".
        src.take(idx, out=block, mode="clip")
        np.copyto(block, zero, where=bad)
        if data.dtype.kind == "f":
            block += zero  # -0.0 reads +0.0, as scipy's sum from 0.0 makes it
    return type(source)(out, target_affine)
