"""Binary morphology in world-metric units: binarisation, Euclidean-ball
dilation (the safety margin), mask application, union, components."""

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
    dx, dy, dz = np.meshgrid(
        *(np.arange(-ri, ri + 1) for ri in r), indexing="ij"
    )
    d2 = (dx * sp[0]) ** 2 + (dy * sp[1]) ** 2 + (dz * sp[2]) ** 2
    return d2 <= radius_mm**2


def binarise(v: Volume, threshold: float = 0.0) -> BinaryMask:
    """Strictly-greater-than threshold."""
    return BinaryMask(v.data > threshold, v.affine.copy())


def dilate(m: BinaryMask, radius_mm: float) -> BinaryMask:
    if radius_mm < 0:
        raise ValueError("radius_mm must be nonnegative")
    if radius_mm == 0 or not m.data.any():
        return BinaryMask(m.data.copy(), m.affine.copy())
    sp = np.asarray(m.spacing, dtype=np.float64)
    extent = np.floor(radius_mm / sp + 1e-9) * 2 + 1
    if extent.prod() > 125:
        # Same result as the ball below. The ball's cost grows with its
        # volume and the distance transform's does not: the ball is faster
        # up to a 5x5x5 extent (the fallback's 2 mm closing at 1 mm), the
        # two are about even at 3 mm, and at the 7 mm safety margin the
        # distance transform is 10-15x faster (0.04 s against 0.55 s at
        # 64^3, 0.41 s against 4.4 s at 128^3; phantom brain masks, one
        # Xeon vCPU).
        dist = ndimage.distance_transform_edt(~m.data, sampling=sp)
        return BinaryMask(dist <= radius_mm, m.affine.copy())
    structure = ball_structure(radius_mm, m.spacing)
    out = ndimage.binary_dilation(m.data, structure=structure)
    return BinaryMask(out, m.affine.copy())


def erode(m: BinaryMask, radius_mm: float) -> BinaryMask:
    if radius_mm == 0:
        return BinaryMask(m.data.copy(), m.affine.copy())
    structure = ball_structure(radius_mm, m.spacing)
    out = ndimage.binary_erosion(m.data, structure=structure)
    return BinaryMask(out, m.affine.copy())


def apply_mask(v: Volume, m: BinaryMask) -> Volume:
    check_same_grid(v, m)
    out = np.where(m.data, v.data, 0).astype(v.data.dtype)
    return Volume(out, v.affine.copy())


def union(a: BinaryMask, b: BinaryMask) -> BinaryMask:
    check_same_grid(a, b)
    return BinaryMask(a.data | b.data, a.affine.copy())


def largest_connected_component(m: BinaryMask) -> BinaryMask:
    """Largest 6-connected component of 1-bits; ties broken by the component
    whose first voxel has the smallest x-fastest linear index."""
    if not m.data.any():
        raise EmptyMask("no foreground voxels")
    labels, nlab = ndimage.label(m.data, structure=SIX_CONNECTED)
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    best_size = sizes.max()
    candidates = np.flatnonzero(sizes == best_size)
    if len(candidates) == 1:
        keep = candidates[0]
    else:
        flat = labels.ravel(order="F")
        keep = min(candidates, key=lambda lab: np.flatnonzero(flat == lab)[0])
    return BinaryMask(labels == keep, m.affine.copy())


def fill_holes(m: BinaryMask) -> BinaryMask:
    out = ndimage.binary_fill_holes(m.data, structure=SIX_CONNECTED)
    return BinaryMask(out, m.affine.copy())
