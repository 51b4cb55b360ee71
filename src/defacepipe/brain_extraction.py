"""Brain masks: external mask files read as masks, and the fallback
extractor for when there is none.

The accurate extractors used in practice are deep models run outside this
package; their output, a brain mask or a skull-stripped volume, is a NIfTI
file that read_mask turns into a BinaryMask: every voxel above 0 is brain.
The built-in fallback is a deterministic classical extractor (Otsu
threshold, 2 mm closing, largest component, hole fill) adequate for
phantoms and smoke tests. Its Otsu histogram is counted on one sorted copy
of the volume, its morphology runs on the foreground's bounding box, the
closing as ORs and ANDs of shifted slices, and it reads non-finite voxels
as background.
"""

import numpy as np

from . import morphology, nifti
from .errors import EmptyMask, GridMismatch
from .geometry import canonical_axes, reorient_to_canonical
from .volume import GRID_ATOL, BinaryMask, Volume

CLOSING_MM = 2.0


def read_mask(path) -> BinaryMask:
    """The mask file at path as a BinaryMask on the file's own grid, as
    stored: every voxel above 0 is set, whatever the file's dtype, so the
    mask is one byte a voxel from here on. The reader's errors propagate."""
    return BinaryMask.from_volume(nifti.read_nifti(path)[0])


def otsu_threshold(data: np.ndarray) -> float:
    """Classic maximum between-class variance threshold over the finite
    values; 0.0 when there are none.

    The 256 bins are numpy's histogram bins over the finite minimum to
    maximum: ``edges = np.linspace(lo, hi, 257)``, bin i holds
    ``edges[i] <= x < edges[i + 1]`` and the last bin is closed. The counts
    come from one sorted copy of the data in its own dtype, where a binary
    search finds where each edge falls; the sort puts -inf first and +inf
    and NaN last, so the finite values are one slice of it. Each inner edge
    is looked up as the smallest value of the dtype not below it: the same
    values lie below the two, and a needle in the data's own dtype keeps
    numpy from casting the sorted copy. Unlike numpy's histogram, a finite
    range too narrow for 256 distinct float64 edges raises no error."""
    flat = data.flatten("K")  # memory order: no transposing walk
    flat.sort()
    dtype = flat.dtype
    if dtype.kind == "f":
        inf = np.array(np.inf, dtype)
        flat = flat[np.searchsorted(flat, -inf, "right"):np.searchsorted(flat, inf, "left")]
    if flat.size == 0:
        return 0.0
    lo, hi = float(flat[0]), float(flat[-1])
    if hi <= lo:
        return lo
    edges = np.linspace(lo, hi, 257)
    if dtype.kind == "f":
        inner = edges[1:-1].astype(dtype)
        short = inner < edges[1:-1]
        inner[short] = np.nextafter(inner[short], inf)
    else:
        inner = np.ceil(edges[1:-1]).astype(dtype)
    below = np.searchsorted(flat, inner, "left")
    hist = np.diff(below, prepend=0, append=flat.size).astype(np.float64)
    centers = (edges[:-1] + edges[1:]) / 2
    w0 = np.cumsum(hist)
    w1 = w0[-1] - w0
    s0 = np.cumsum(hist * centers)
    mu0 = np.divide(s0, w0, out=np.zeros_like(s0), where=w0 > 0)
    mu1 = np.divide(s0[-1] - s0, w1, out=np.zeros_like(s0), where=w1 > 0)
    between = w0 * w1 * (mu0 - mu1) ** 2
    return float(centers[int(np.argmax(between))])


def _above(data: np.ndarray, t: float) -> np.ndarray:
    """Mask of data's finite voxels above t: NaN and -inf are never above
    it, and +inf is dropped by a second, transient mask."""
    mask = data > t
    if data.dtype.kind == "f":
        mask &= data < np.inf
    return mask


def fallback_extract(v: Volume) -> BinaryMask:
    """Otsu threshold, 2 mm closing, largest component, hole fill. A
    non-finite voxel is background.

    Besides v it copies no volume, and it keeps one full-grid mask from one
    step to the next, each dropped once the next is made: on float32 data
    its peak is the Otsu sort's one copy of the voxels."""
    t = otsu_threshold(v.data)
    above = _above(v.data, t)
    # above has v.data's layout, so the two ravel in one order, that of
    # memory, in which the gather runs fastest; the median ignores order.
    upper = v.data.ravel("K")[above.ravel("K")]
    del above
    if upper.size:
        # Re-anchor the cut to the bright class alone. The raw Otsu optimum
        # drifts with how much background the field of view contains, so two
        # extractions of the same anatomy (say, before and after defacing)
        # would flip boundary voxels; half the foreground median stays put.
        t = 0.5 * float(np.median(upper))
    del upper
    mask = BinaryMask(_above(v.data, t), v.affine)
    if not mask.data.any():
        raise EmptyMask("no foreground above Otsu threshold")
    mask = morphology.dilate(mask, CLOSING_MM)
    mask = morphology.erode(mask, CLOSING_MM)
    if not mask.data.any():
        # Erosion reads beyond the array as False, so the closing can lose a
        # foreground at the array's faces: fall back to the foreground, made
        # again rather than kept through the closing.
        mask = BinaryMask(_above(v.data, t), v.affine)
    mask = morphology.largest_connected_component(mask)
    return morphology.fill_holes(mask)


def extract_brain(v: Volume, mask: BinaryMask | None = None) -> BinaryMask:
    """Brain mask on v's canonical grid (geometry.canonical_axes): the
    external mask reoriented to canonical axes, so it may be stored on any
    axes of v's world grid, or, when mask is None, the fallback extractor's
    mask of v's voxels reoriented to canonical axes, which on canonical
    axes are v's own data, not copied. A mask off v's grid raises
    GridMismatch, and an empty one EmptyMask."""
    if mask is None:
        mask = fallback_extract(reorient_to_canonical(v)[0])
    else:
        perm, affine = canonical_axes(v)
        mask, _ = reorient_to_canonical(mask)
        if mask.dims != tuple(v.dims[i] for i in perm.perm) or not np.allclose(
                mask.affine, affine, atol=GRID_ATOL):
            raise GridMismatch("brain mask grid does not match subject after reorientation")
    if not mask.data.any():
        raise EmptyMask("brain extraction produced an empty mask")
    return mask
