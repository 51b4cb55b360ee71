"""Synthetic head phantoms with ground-truth brain and face regions.

Used by the test suite and the CLI demo: no clinical data ships with the
package. The nominal head is deterministic; randomized subjects are
affine-transformed copies of it, so the true subject-to-template transform
is known by construction. A subject's head is sampled through
``registration._trilinear``, the package's one trilinear kernel, and its
masks through the nearest ``geometry.resample``.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import geometry, registration
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


def sample_trilinear(volume: Volume, dims, affine, world_map) -> Volume:
    """volume read on the grid (dims, affine) through world_map (target
    world -> volume world) by registration's trilinear kernel, cast to the
    volume's dtype. It agrees with scipy's affine_transform with order 1
    and mode "constant" into float64 to rounding: the kernel interpolates
    as seven lerps, scipy as a weighted sum of the 8 corners. Cast to
    float32 the two are almost always the same bytes; of the 720 64^3
    subjects that perfbench's batch-64 builds for seeds 1-60, one voxel of
    one subject differs, by one float32 ulp.

    It is the trilinear kernel over geometry._walk, one target plane a
    block: each block's coordinates are read from the support's box padded
    by registration._MARGIN zeros, shifted by the box's integer start, which
    is exact where they can reach the box. The target voxels outside the
    blocks, and any point outside [0, n - 1] on an axis, read 0."""
    data = volume.data
    vox_map = geometry.invert(volume.affine) @ np.asarray(world_map) @ np.asarray(affine)
    support = geometry._support(data)
    walk = geometry._walk(support, dims, vox_map, dims[1])
    out = np.zeros(dims, data.dtype)
    if support is None:
        return Volume(out, affine)
    box = data[support]
    margin = registration._MARGIN
    padded = np.zeros([n + 2 * margin for n in box.shape])  # box written once, as float64
    padded[margin:-margin, margin:-margin, margin:-margin] = box
    start = np.array([s.start for s in support], dtype=np.float64)[:, None]
    top = np.asarray(data.shape, dtype=np.float64)[:, None] - 1.0
    for index, c in walk:
        points = c.reshape(3, -1)
        outside = ((points < 0.0) | (points > top)).any(axis=0)
        points -= start
        values, _ = registration._trilinear(padded, points)
        values[outside] = 0.0
        out[index] = values.reshape(c.shape[1:])
    return Volume(out, affine)


def transformed_phantom(base: HeadPhantom, transform: np.ndarray) -> HeadPhantom:
    """Subject = base head seen through a world transform T (subject world ->
    base world): subject(x) = base(T(x)). Masks move with the image."""
    dims = base.volume.dims
    aff = base.volume.affine
    return HeadPhantom(
        volume=sample_trilinear(base.volume, dims, aff, transform),
        brain_mask=geometry.resample(base.brain_mask, dims, aff, transform),
        face_mask=geometry.resample(base.face_mask, dims, aff, transform),
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
