"""End-to-end brain-safe defacing and the QuickShear geometric baseline.

Face-mask semantics throughout: 1 = keep, 0 = remove. The brain-safe
guarantee comes from unioning the registered keep-mask with the dilated
subject brain mask before any voxel is touched, so a bad registration can
never delete brain tissue. A TemplatePack is the whole template: its
stripped volume, its keep-mask and, prepared once on first use, the fixed
side every subject is registered to.
"""

import contextlib
import functools
import hashlib
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import geometry
from .registration import FixedSide, prepare, register_affine
from .brain_extraction import extract_brain, fallback_extract, otsu_threshold
from .errors import DegenerateHull, StageError, TemplatePackError
from .morphology import apply_mask, check_radius, dilate, union
from .volume import BinaryMask, Volume, check_same_grid


@dataclass(frozen=True)
class TemplatePack:
    """Skull-stripped registration template plus its keep-mask (1 = keep).
    Construction fails unless the two share a grid and the keep-mask keeps
    every template voxel above 0."""

    template: Volume
    keep_mask: BinaryMask

    def __post_init__(self) -> None:
        check_same_grid(self.template, self.keep_mask)
        fg = self.template.data > 0
        if np.any(fg & ~self.keep_mask.data):
            raise TemplatePackError(
                "keep-mask marks template tissue for removal"
            )

    @functools.cached_property
    def sha256(self) -> str:
        """Hash of the template and keep-mask voxels, computed once per pack."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.template.data))
        h.update(np.ascontiguousarray(self.keep_mask.data))
        return h.hexdigest()

    @functools.cached_property
    def fixed(self) -> FixedSide:
        """The template prepared for registration, built once per pack on
        first use."""
        return prepare(self.template)


@dataclass
class DefaceResult:
    defaced: Volume
    brain_safe_mask: BinaryMask
    transform: np.ndarray
    provenance: dict


@contextlib.contextmanager
def _stage(n: int, seconds: dict):
    """Report any failure inside the block as a StageError of stage n, and
    record its wall seconds under seconds[str(n)]."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise StageError(n, exc) from exc
    seconds[str(n)] = round(time.perf_counter() - t0, 6)


def deface(
    input_volume: Volume,
    pack: TemplatePack,
    brain_mask: BinaryMask | None = None,
    margin_mm: float = 7.0,
) -> DefaceResult:
    """Run the nine-stage pipeline; output stays on the input's native grid.

    brain_mask is an external brain mask (read_mask reads one from a file),
    stored on any axes of input_volume's grid; None extracts the mask with
    the fallback extractor.

    Stage 6 registers to pack.fixed, the pack's prepared template; a batch
    passes one pack for every subject, so the template is prepared once.
    Registration reads a non-finite voxel as background 0; the output keeps
    it as it is wherever stage 8 keeps the voxel.
    """
    started = time.time()
    t0 = time.perf_counter()
    # Stage 3 (binarise) has no time of its own: an external mask is binarised
    # when it is read, before this call, and the fallback's inside stage 2.
    seconds = {"3": 0.0}

    with _stage(1, seconds):
        canon, perm = geometry.reorient_to_canonical(input_volume)
    with _stage(2, seconds):
        brain = extract_brain(canon, brain_mask)
    with _stage(4, seconds):
        dilated = dilate(brain, margin_mm)
    with _stage(5, seconds):
        loose = apply_mask(canon, dilated)
    with _stage(6, seconds):
        transform, diagnostics = register_affine(pack.fixed, loose)

    with _stage(7, seconds):
        keep_reg = geometry.resample(  # transform: subject-world -> template-world pullback
            pack.keep_mask, canon.dims, canon.affine, transform
        )
    with _stage(8, seconds):
        safe_canon = union(keep_reg, dilated)
    with _stage(9, seconds):
        safe_native = BinaryMask(perm.undo(safe_canon.data), input_volume.affine)
        defaced = apply_mask(input_volume, safe_native)

    provenance = {
        "tool": "defacepipe",
        "version": __version__,
        "template_sha256": pack.sha256,
        "margin_mm": margin_mm,
        "brain_source": "fallback" if brain_mask is None else "external_file",
        "registration": diagnostics,
        "reorientation": {"perm": list(perm.perm), "flips": list(perm.flips)},
        "removed_voxels": int((~safe_native.data).sum()),
        "timing": {
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(started)),
            "stages": seconds,
            "elapsed_s": round(time.perf_counter() - t0, 6),
        },
    }
    return DefaceResult(defaced, safe_native, transform, provenance)


# ---------------------------------------------------------------------------
# QuickShear baseline


def convex_hull_2d(points) -> list[tuple[float, float]]:
    """Strict convex hull (Andrew monotone chain), counter-clockwise."""
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if len(pts) < 3:
        raise DegenerateHull("fewer than 3 distinct points")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(iterable):
        chain = []
        for p in iterable:
            while len(chain) > 1 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateHull("all points collinear")
    return hull


def _section_ends(section: np.ndarray) -> np.ndarray:
    """(row, column) indices of the first and last True element of every row
    and every column of a 2D mask, some more than once. Every mask point on
    the boundary of the mask's convex hull is one of them, so their hull is
    the mask's; when the mask's points are collinear, all of them are."""
    rows = np.flatnonzero(section.any(axis=1))
    cols = np.flatnonzero(section.any(axis=0))
    n_rows, n_cols = section.shape
    return np.concatenate([
        np.stack([rows, section[rows].argmax(axis=1)], axis=1),
        np.stack([rows, n_cols - 1 - section[rows, ::-1].argmax(axis=1)], axis=1),
        np.stack([section[:, cols].argmax(axis=0), cols], axis=1),
        np.stack([n_rows - 1 - section[::-1, cols].argmax(axis=0), cols], axis=1),
    ])


def _shear_plane(brain: BinaryMask, buffer_mm: float) -> np.ndarray:
    """Face side of the hull-derived shear plane on the brain's (canonical)
    grid, as a boolean (y, z) section: voxel (x, y, z) is on the face side
    when section[y, z] is, for every x. brain is not empty, as
    extract_brain and fallback_extract return it.

    The plane is fitted in the (anterior, superior) mm plane of the
    mid-sagittal slice and extruded along x; it is offset so no brain voxel
    (in any slice) lies on the face side, and buffer_mm beyond it.

    A negative or non-finite buffer_mm raises ValueError: a negative one
    would move the plane into the brain, and NaN would mark nothing."""
    check_radius(buffer_mm, "buffer_mm")
    xs = np.flatnonzero(brain.data.any(axis=(1, 2)))
    mid = int((xs[0] + xs[-1]) // 2)
    sp = brain.spacing
    hull = convex_hull_2d(_section_ends(brain.data[mid]) * sp[1:3])

    # Outward normal per CCW edge; pick the edge facing anterior-inferior.
    target = np.array([1.0, -1.0]) / np.sqrt(2.0)
    best, best_score = None, -np.inf
    m = len(hull)
    for i in range(m):
        a = np.array(hull[i])
        b = np.array(hull[(i + 1) % m])
        e = b - a
        normal = np.array([e[1], -e[0]])
        normal /= np.linalg.norm(normal)
        score = float(normal @ target)
        if score > best_score:
            best, best_score = normal, score
    normal = best

    # One plane value per (y, z) column decides both the offset and the face
    # side, so no brain voxel can round past the offset.
    yy = (np.arange(brain.dims[1]) * sp[1])[:, None]
    zz = (np.arange(brain.dims[2]) * sp[2])[None, :]
    plane = normal[0] * yy + normal[1] * zz
    offset = plane[brain.data.any(axis=0)].max() + buffer_mm
    return plane > offset


def quickshear(input_volume: Volume, brain: BinaryMask, buffer_mm: float = 5.0) -> Volume:
    """Zero everything on the face side of the hull-derived plane.

    brain is read by extract_brain, stored on any axes of input_volume's
    grid. The plane is offset outward past every brain voxel, so brain
    tissue is never removed. Only the brain mask is reoriented: the plane is
    fitted on the canonical grid, and the input is masked on its own grid
    through a view of the plane's keep side, its (y, z) section broadcast
    along x and mapped to the native axes. So the output is the one
    full-size array it makes, with the bits np.where(keep, v, 0) gives in
    the input's dtype: a kept NaN or -0.0 voxel is kept as it is.
    """
    perm, _ = geometry.canonical_axes(input_volume)
    keep = ~_shear_plane(extract_brain(input_volume, brain), buffer_mm)
    canon_dims = tuple(input_volume.dims[i] for i in perm.perm)
    keep = perm.undo_view(np.broadcast_to(keep, canon_dims))
    return apply_mask(input_volume, BinaryMask(keep, input_volume.affine))


# ---------------------------------------------------------------------------
# Template pack generation


def make_template_pack(
    head: Volume,
    brain_mask: BinaryMask | None = None,
    buffer_mm: float = 5.0,
    face_dilate_mm: float = 3.0,
) -> TemplatePack:
    """Build a TemplatePack from a skull-containing (or already stripped)
    template: tight-stripped template + a keep-mask that removes head tissue
    on the face side of the template brain's shear plane. The template
    brain is brain_mask, stored on any axes of head's grid, or found by the
    fallback extractor when brain_mask is None.

    For a brain-only input the face region is empty and the keep-mask is
    all ones. A negative or non-finite face_dilate_mm raises ValueError.
    """
    check_radius(face_dilate_mm, "face_dilate_mm")
    canon, _ = geometry.reorient_to_canonical(head)
    if brain_mask is None:
        brain = fallback_extract(canon)
    else:
        brain = extract_brain(canon, brain_mask)

    stripped = apply_mask(canon, brain)
    face_side = _shear_plane(brain, buffer_mm)

    head_fg = canon.data > otsu_threshold(canon.data) * 0.25
    face_tissue = dilate(BinaryMask(face_side & head_fg, canon.affine), face_dilate_mm)
    # Dilation may creep back across the plane; never remove brain.
    removal = face_tissue.data & ~brain.data

    return TemplatePack(
        template=stripped,
        keep_mask=BinaryMask(~removal, canon.affine),
    )
