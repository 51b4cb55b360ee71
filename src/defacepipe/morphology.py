"""Binary morphology in world-metric units: Euclidean-ball dilation (the
safety margin), erosion, mask application, union, components.

Dilation, erosion, the largest component and hole filling run on the
bounding box of the mask's True voxels (grown by the radius for dilation)
and write the result into an all-False grid; the head fills about a third
of a typical field of view, and the results equal the full-grid ones.
Erosion, and dilation by a ball of up to 13^3 voxels' extent, OR (dilation)
or AND (erosion) the crop read at each offset of the ball, each read one
contiguous slice of a padded flat copy; a larger dilation thresholds a
Euclidean distance transform, with the same result."""

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


def _bbox(data: np.ndarray, margin=0) -> tuple[slice, ...] | None:
    """Slices of the bounding box of data's True voxels, grown by margin
    voxels (a scalar or one per axis) and clamped to the array; None when no
    voxel is True."""
    margin = np.broadcast_to(margin, (3,))
    # Reductions over the leading axes, which numpy runs fastest.
    yz = data.any(axis=0)
    box = []
    for axis, hit in enumerate((data.any(axis=(1, 2)), yz.any(axis=1), yz.any(axis=0))):
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
        return BinaryMask(m.data.copy(), m.affine)
    out = np.zeros(m.dims, dtype=bool)
    out[box] = op(m.data[box])
    return BinaryMask(out, m.affine)


def check_radius(radius_mm: float, name: str = "radius_mm") -> None:
    """ValueError unless radius_mm is finite and >= 0: a NaN or infinite
    radius would dilate to an empty mask, so no safety margin."""
    if not (np.isfinite(radius_mm) and radius_mm >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {radius_mm}")


def dilate(m: BinaryMask, radius_mm: float) -> BinaryMask:
    """Every voxel within Euclidean world distance radius_mm (inclusive) of
    a True voxel. Runs on the bounding box grown by the radius in voxels.
    A negative or non-finite radius raises ValueError."""
    check_radius(radius_mm)
    sp = np.asarray(m.spacing, dtype=np.float64)
    reach = np.floor(radius_mm / sp + 1e-9).astype(int)
    if (reach * 2 + 1).prod() > 2197:
        # Same result as the ball below. The ball's cost grows with its
        # volume and the distance transform's hardly does. CPU ms, ball
        # against distance transform, on the bounding box of a phantom brain
        # mask at 1 mm (one Xeon vCPU): 3 mm 0.4 / 2.4 at 64^3, 1.7 / 15 at
        # 128^3; 6 mm, a 13^3 extent, 3.0 / 3.4 and 10 / 18; 7 mm, the
        # safety margin, 5.2 / 3.7 and 17 / 19. The ball is faster at both
        # sizes up to a 13^3 extent and slower at 64^3 past it.
        def op(crop):
            return ndimage.distance_transform_edt(~crop, sampling=sp) <= radius_mm
    else:
        structure = ball_structure(radius_mm, m.spacing)

        def op(crop):
            return _shifted(crop, structure, np.logical_or)
    return _on_bbox(m, reach, op)


def erode(m: BinaryMask, radius_mm: float) -> BinaryMask:
    """Voxels whose whole radius_mm ball is True; outside the array counts
    as False. Runs on the bounding box. A negative or non-finite radius
    raises ValueError."""
    check_radius(radius_mm)
    structure = ball_structure(radius_mm, m.spacing)
    return _on_bbox(m, 0, lambda crop: _shifted(crop, structure, np.logical_and))


def _shifted(crop: np.ndarray, structure: np.ndarray, combine) -> np.ndarray:
    """combine (np.logical_or: dilation, np.logical_and: erosion) of crop read
    at every offset of structure, with False beyond crop's faces. structure
    must be symmetric under negation, as a ball is: dilation reads crop at
    x - d for each offset d, which is then the same as x + d.

    crop is copied into a flat array padded by the structure's half-extent
    on every side, so crop read at one offset is one contiguous slice of it,
    and no offset wraps from one row into the next."""
    half = np.array(structure.shape) // 2
    inner = tuple(slice(h, h + n) for h, n in zip(half, crop.shape))
    padded = np.zeros(np.add(crop.shape, 2 * half), dtype=bool)
    padded[inner] = crop
    flat = padded.ravel()
    steps = np.array(padded.strides)  # one byte per voxel: the flat index steps
    offsets = (np.argwhere(structure) - half) @ steps
    first = int(half @ steps)  # crop's first voxel; its last is as far from the end

    def window(o):
        return flat[first + o:flat.size - first + o]

    out = np.zeros_like(flat)
    acc = out[first:flat.size - first]
    acc[:] = window(offsets[0])
    for o in offsets[1:]:
        combine(acc, window(o), out=acc)
    return out.reshape(padded.shape)[inner]


def apply_mask(v: Volume, m: BinaryMask) -> Volume:
    check_same_grid(v, m)
    out = np.zeros_like(v.data)  # in v's memory order
    np.copyto(out, v.data, where=m.data)
    return Volume(out, v.affine)


def union(a: BinaryMask, b: BinaryMask) -> BinaryMask:
    check_same_grid(a, b)
    return BinaryMask(a.data | b.data, a.affine)


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
