"""Synthetic head phantoms with ground-truth brain and face regions.

Used by the test suite and the CLI demo: no clinical data ships with the
package. The nominal head is deterministic; randomized subjects are
affine-transformed copies of it, so the true subject-to-template transform
is known by construction.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import geometry
from .volume import BinaryMask, Volume


@dataclass
class HeadPhantom:
    volume: Volume        # full head, face included
    brain_mask: BinaryMask
    face_mask: BinaryMask  # nose + eye blobs
    true_transform: np.ndarray  # subject world -> nominal (template) world


def _ellipsoid(grid, center, radii):
    x, y, z = grid
    return (
        ((x - center[0]) / radii[0]) ** 2
        + ((y - center[1]) / radii[1]) ** 2
        + ((z - center[2]) / radii[2]) ** 2
    ) <= 1.0


def nominal_head(size: int = 64) -> HeadPhantom:
    """Deterministic head on a 1 mm grid: bright textured brain, dim scalp
    shell, nose and eye blobs protruding anterior-inferior, background zero."""
    affine = np.eye(4)
    grid = np.indices((size, size, size), dtype=np.float64, sparse=True)
    s = size / 64.0  # scale geometry with grid extent

    brain_c = (32 * s, 30 * s, 38 * s)
    brain_r = (14 * s, 17 * s, 13 * s)
    head_c = (32 * s, 31 * s, 33 * s)
    head_r = (19 * s, 24 * s, 21 * s)

    brain = _ellipsoid(grid, brain_c, brain_r)
    head = _ellipsoid(grid, head_c, head_r)

    nose = _ellipsoid(grid, (32 * s, 57 * s, 22 * s), (3 * s, 4 * s, 4 * s))
    eye_l = _ellipsoid(grid, (24 * s, 54 * s, 27 * s), (3 * s, 3 * s, 3 * s))
    eye_r = _ellipsoid(grid, (40 * s, 54 * s, 27 * s), (3 * s, 3 * s, 3 * s))
    face = (nose | eye_l | eye_r) & ~brain

    # Brain texture: a smooth deterministic random field. A purely radial
    # profile would leave scale unobservable to MI (any radial remapping
    # keeps the intensity relation functional), so structure must
    # decorrelate in every direction.
    rng = np.random.default_rng(20240817)
    noise = ndimage.gaussian_filter(rng.standard_normal((size, size, size)), 2.5 / s)
    lo, hi = noise.min(), noise.max()
    brain_tex = 85.0 + 35.0 * (noise - lo) / (hi - lo)

    data = np.zeros((size, size, size), dtype=np.float64)
    data[head] = 25.0
    data[face] = 30.0
    data[brain] = brain_tex[brain]

    return HeadPhantom(
        volume=Volume(data.astype(np.float32), affine),
        brain_mask=BinaryMask(brain, affine),
        face_mask=BinaryMask(face, affine),
        true_transform=np.eye(4),
    )


def random_rigid_affine(
    rng: np.random.Generator,
    center,
    max_translation_mm: float,
    max_rotation_deg: float,
    scale_range: tuple,
) -> np.ndarray:
    """Random world transform: rotation+isotropic scale about center, then
    translation."""
    angles = np.deg2rad(rng.uniform(-max_rotation_deg, max_rotation_deg, 3))
    scale = rng.uniform(*scale_range)
    t = rng.uniform(-max_translation_mm, max_translation_mm, 3)
    return geometry.affine_matrix(t, angles, np.full(3, scale), np.zeros(3), center)


def transformed_phantom(base: HeadPhantom, transform: np.ndarray) -> HeadPhantom:
    """Subject = base head seen through a world transform T (subject world ->
    base world): subject(x) = base(T(x)). Masks move with the image."""
    dims = base.volume.dims
    aff = base.volume.affine
    vol = geometry.resample(base.volume, dims, aff, transform, interp="trilinear")
    return HeadPhantom(
        volume=vol,
        brain_mask=geometry.resample(base.brain_mask, dims, aff, transform, interp="nearest"),
        face_mask=geometry.resample(base.face_mask, dims, aff, transform, interp="nearest"),
        true_transform=np.asarray(transform).copy(),
    )


def random_subject(base: HeadPhantom, seed: int) -> HeadPhantom:
    """base moved by up to 10 mm and 8 degrees per axis, scaled 0.97-1.03."""
    rng = np.random.default_rng(seed)
    extent = (np.array(base.volume.dims) - 1) * base.volume.spacing
    m = random_rigid_affine(rng, extent / 2, 10.0, 8.0, (0.97, 1.03))
    return transformed_phantom(base, m)


def random_ellipsoid_mask(
    dims, affine, rng: np.random.Generator
) -> BinaryMask:
    """Random interior ellipsoid, nonempty; used for shear-safety property tests."""
    dims = tuple(dims)
    spacing = np.linalg.norm(np.asarray(affine, float)[:3, :3], axis=0)
    grid = [g * s for g, s in zip(np.indices(dims, dtype=np.float64, sparse=True), spacing)]
    extent = (np.array(dims) - 1) * spacing
    center = rng.uniform(0.3, 0.7, 3) * extent
    radii = rng.uniform(0.1, 0.3, 3) * extent
    mask = _ellipsoid(grid, center, np.maximum(radii, 2 * spacing))
    return BinaryMask(mask, affine)
