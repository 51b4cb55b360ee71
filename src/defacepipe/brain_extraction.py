"""Tight brain-mask production via a pluggable source.

The accurate extractors used in practice are deep models run outside this
package; their output, a brain mask or a skull-stripped volume, is consumed
through ``external_file``: every voxel above 0 is brain. The built-in
fallback is a deterministic classical extractor (Otsu threshold, 2 mm
closing, largest component, hole fill) adequate for phantoms and smoke
tests. Its morphology runs on the foreground's bounding box, and it reads
non-finite voxels as background.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import morphology, nifti
from .errors import EmptyMask, FileError, GridMismatch
from .geometry import reorient_to_canonical
from .volume import BinaryMask, Volume

CLOSING_MM = 2.0


@dataclass
class BrainMaskSource:
    kind: str  # "external_file" | "fallback"
    path: Path | None = None

    def __post_init__(self):
        if self.kind not in ("external_file", "fallback"):
            raise ValueError(f"unknown brain mask source {self.kind!r}")
        if self.kind != "fallback" and self.path is None:
            raise ValueError(f"{self.kind} requires a path")


def otsu_threshold(data: np.ndarray) -> float:
    """Classic maximum between-class variance threshold over the finite
    values; 0.0 when there are none."""
    flat = np.asarray(data, dtype=np.float64).ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        flat = flat[finite]
        if flat.size == 0:
            return 0.0
    lo, hi = flat.min(), flat.max()
    if hi <= lo:
        return lo
    hist, edges = np.histogram(flat, bins=256, range=(lo, hi))
    hist = hist.astype(np.float64)
    centers = (edges[:-1] + edges[1:]) / 2
    w0 = np.cumsum(hist)
    w1 = w0[-1] - w0
    s0 = np.cumsum(hist * centers)
    mu0 = np.divide(s0, w0, out=np.zeros_like(s0), where=w0 > 0)
    mu1 = np.divide(s0[-1] - s0, w1, out=np.zeros_like(s0), where=w1 > 0)
    between = w0 * w1 * (mu0 - mu1) ** 2
    return float(centers[int(np.argmax(between))])


def fallback_extract(v: Volume) -> BinaryMask:
    """Otsu threshold, 2 mm closing, largest component, hole fill. A
    non-finite voxel is background."""
    finite = np.isfinite(v.data)
    if not finite.all():
        # NaN compares False with every threshold, so the voxel is below it.
        v = Volume(np.where(finite, v.data, np.nan), v.affine)
    t = otsu_threshold(v.data)
    upper = v.data[v.data > t]
    if upper.size:
        # Re-anchor the cut to the bright class alone. The raw Otsu optimum
        # drifts with how much background the field of view contains, so two
        # extractions of the same anatomy (say, before and after defacing)
        # would flip boundary voxels; half the foreground median stays put.
        t = 0.5 * float(np.median(upper))
    fg = morphology.binarise(v, t)
    if not fg.data.any():
        raise EmptyMask("no foreground above Otsu threshold")
    closed = morphology.erode(morphology.dilate(fg, CLOSING_MM), CLOSING_MM)
    if not closed.data.any():
        closed = fg
    comp = morphology.largest_connected_component(closed)
    return morphology.fill_holes(comp)


def extract_brain(v: Volume, source: BrainMaskSource) -> BinaryMask:
    """Brain mask on v's grid. v must already be canonically oriented."""
    if source.kind == "fallback":
        mask = fallback_extract(v)
    else:
        try:
            loaded, _ = nifti.read_nifti(source.path)
        except Exception as e:
            raise FileError(f"{source.path}: {e}") from e
        loaded, _ = reorient_to_canonical(loaded)
        if not loaded.same_grid(v):
            raise GridMismatch(
                f"{source.path}: grid does not match subject after reorientation"
            )
        mask = BinaryMask.from_volume(loaded)
    if not mask.data.any():
        raise EmptyMask("brain extraction produced an empty mask")
    return mask
