"""Binary morphology in world-metric units: binarisation, Euclidean-ball
dilation (the safety margin), mask application, union, components.

Dilation, erosion, the largest component and hole filling run on the
bounding box of the mask's True voxels (grown by the radius for dilation)
and write the result into an all-False grid; the head fills about a third
of a typical field of view, and the results equal the full-grid ones."""

import numpy as np
from scipy import ndimage

from .errors import EmptyMask
from .volume import BinaryMask, Volume, check_same_grid

SIX_CONNECTED = ndimage.generate_binary_structure(3, 1)


def ball_structure(radius_mm: float, spacing) -> np.ndarray:
    """Structuring element: voxel offsets within Euclidean world distance
    radius_mm (inclusive). Always contains the center."""
    sp = np.asarray(spacing, dtype=np.float64)
    r = np.floor(radius_mm / sp + 1e-9).astype(int)
    r = np.maximum(r, 0)
    dx, dy, dz = np.ix_(*(np.arange(-ri, ri + 1) for ri in r))
    d2 = (dx * sp[0]) ** 2 + (dy * sp[1]) ** 2 + (dz * sp[2]) ** 2
    return d2 <= radius_mm**2


def binarise(v: Volume, threshold: float = 0.0) -> BinaryMask:
    """Strictly-greater-than threshold."""
    return BinaryMask(v.data > threshold, v.affine.copy())


def _bbox(data: np.ndarray, margin=0) -> tuple[slice, ...] | None:
    """Slices of the bounding box of data's True voxels, grown by margin
    voxels (a scalar or one per axis) and clamped to the array; None when no
    voxel is True."""
    margin = np.broadcast_to(margin, (3,))
    xy = data.any(axis=2)
    box = []
    for axis, hit in enumerate((xy.any(axis=1), xy.any(axis=0), data.any(axis=(0, 1)))):
        idx = np.flatnonzero(hit)
        if idx.size == 0:
            return None
        lo = max(int(idx[0] - margin[axis]), 0)
        hi = min(int(idx[-1] + 1 + margin[axis]), data.shape[axis])
        box.append(slice(lo, hi))
    return tuple(box)


def _on_bbox(m: BinaryMask, margin, op) -> BinaryMask:
    """op applied to the crop of m's bounding box grown by margin voxels,
    written into an all-False grid; an empty mask comes back as a copy. The
    caller chooses margin so that this equals op on the whole grid."""
    box = _bbox(m.data, margin)
    if box is None:
        return BinaryMask(m.data.copy(), m.affine.copy())
    out = np.zeros(m.dims, dtype=bool)
    out[box] = op(m.data[box])
    return BinaryMask(out, m.affine.copy())


def dilate(m: BinaryMask, radius_mm: float) -> BinaryMask:
    """Every voxel within Euclidean world distance radius_mm (inclusive) of
    a True voxel. Runs on the bounding box grown by the radius in voxels."""
    if radius_mm < 0:
        raise ValueError("radius_mm must be nonnegative")
    if radius_mm == 0:
        return BinaryMask(m.data.copy(), m.affine.copy())
    sp = np.asarray(m.spacing, dtype=np.float64)
    reach = np.floor(radius_mm / sp + 1e-9).astype(int)
    if (reach * 2 + 1).prod() > 125:
        # Same result as the ball below. The ball's cost grows with its
        # volume and the distance transform's does not. On the bounding box
        # of a phantom brain mask (one Xeon vCPU), the ball is faster up to
        # a 5x5x5 extent (the fallback's 2 mm closing at 1 mm: 0.006 s
        # against 0.023 s at 128^3), the two are within 10 ms at 3 mm, and
        # at the 7 mm safety margin the distance transform is 10-30x faster
        # (0.006 s against 0.19 s at 64^3, 0.05 s against 0.52 s at 128^3).
        def op(crop):
            return ndimage.distance_transform_edt(~crop, sampling=sp) <= radius_mm
    else:
        structure = ball_structure(radius_mm, m.spacing)

        def op(crop):
            return ndimage.binary_dilation(crop, structure=structure)
    return _on_bbox(m, reach, op)


def erode(m: BinaryMask, radius_mm: float) -> BinaryMask:
    """Voxels whose whole radius_mm ball is True; outside the array counts
    as False. Runs on the bounding box."""
    if radius_mm == 0:
        return BinaryMask(m.data.copy(), m.affine.copy())
    structure = ball_structure(radius_mm, m.spacing)
    return _on_bbox(m, 0, lambda crop: ndimage.binary_erosion(crop, structure=structure))


def apply_mask(v: Volume, m: BinaryMask) -> Volume:
    check_same_grid(v, m)
    out = np.where(m.data, v.data, 0).astype(v.data.dtype)
    return Volume(out, v.affine.copy())


def union(a: BinaryMask, b: BinaryMask) -> BinaryMask:
    check_same_grid(a, b)
    return BinaryMask(a.data | b.data, a.affine.copy())


def largest_connected_component(m: BinaryMask) -> BinaryMask:
    """Largest 6-connected component of 1-bits; ties broken by the component
    whose first voxel has the smallest x-fastest linear index. Runs on the
    bounding box, where labels and that order are the same as on the grid."""
    if not m.data.any():
        raise EmptyMask("no foreground voxels")
    return _on_bbox(m, 0, _largest_component)


def _largest_component(data: np.ndarray) -> np.ndarray:
    labels, _ = ndimage.label(data, structure=SIX_CONNECTED)
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    candidates = np.flatnonzero(sizes == sizes.max())
    if len(candidates) == 1:
        keep = candidates[0]
    else:
        flat = labels.ravel(order="F")
        keep = min(candidates, key=lambda lab: np.flatnonzero(flat == lab)[0])
    return labels == keep


def fill_holes(m: BinaryMask) -> BinaryMask:
    """m plus every 0-voxel that no 6-connected path of 0-voxels joins to
    the array border. Runs on the bounding box."""
    return _on_bbox(m, 0, _fill_holes)


def _fill_holes(data: np.ndarray) -> np.ndarray:
    # A 0-voxel on a face of the box is outside: on an inner face it is next
    # to the all-0 region beyond the box, which runs straight to the border.
    # So the outside is the set of 0-components that touch a face.
    labels, n = ndimage.label(~data, structure=SIX_CONNECTED)
    outside = np.zeros(n + 1, dtype=bool)
    for axis in range(3):
        for end in (0, -1):
            outside[labels.take(end, axis=axis)] = True
    outside[0] = False
    return ~outside[labels]
