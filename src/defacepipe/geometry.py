"""Affine algebra, canonical (RAS-like) reorientation, and grid resampling."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import AmbiguousOrientation, SingularTransform
from .nifti import atomic_file
from .volume import Volume

DET_EPS = 1e-12


def translation(t) -> np.ndarray:
    m = np.eye(4)
    m[:3, 3] = t
    return m


def _euler(rotation) -> list[tuple[np.ndarray, np.ndarray]]:
    """(matrix, derivative by its angle) of the x, y and z rotations."""
    rx, ry, rz = rotation
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    return [
        (np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]]),
         np.array([[0, 0, 0], [0, -sx, -cx], [0, cx, -sx]])),
        (np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]]),
         np.array([[-sy, 0, cy], [0, 0, 0], [-cy, 0, -sy]])),
        (np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]]),
         np.array([[-sz, -cz, 0], [cz, -sz, 0], [0, 0, 0]])),
    ]


def _shear(shear) -> np.ndarray:
    hxy, hxz, hyz = shear
    return np.array([[1, hxy, hxz], [0, 1, hyz], [0, 0, 1]])


def affine_matrix(translation, rotation, scale, shear, center) -> np.ndarray:
    """12-dof transform about a center: x -> R Z H (x - c) + c + t, with
    R = Rz Ry Rx from Euler angles in radians, Z = diag(scale) (linear, per
    axis) and H the upper unit-triangular shear (hxy, hxz, hyz)."""
    (rot_x, _), (rot_y, _), (rot_z, _) = _euler(rotation)
    rot = rot_z @ rot_y @ rot_x
    lin = rot @ np.diag(scale) @ _shear(shear)
    center = np.asarray(center, dtype=np.float64)
    m = np.eye(4)
    m[:3, :3] = lin
    m[:3, 3] = translation + center - lin @ center
    return m


def affine_matrix_derivatives(rotation, scale, shear, center) -> np.ndarray:
    """Partial derivatives (12, 4, 4) of ``affine_matrix`` by its 12
    parameters in order: translation, rotation, scale, shear. They do not
    depend on the translation."""
    (rot_x, d_x), (rot_y, d_y), (rot_z, d_z) = _euler(rotation)
    rot = rot_z @ rot_y @ rot_x
    zoom = np.diag(scale)
    sh = _shear(shear)
    d_lin = np.zeros((9, 3, 3))
    d_lin[0] = rot_z @ rot_y @ d_x @ zoom @ sh
    d_lin[1] = rot_z @ d_y @ rot_x @ zoom @ sh
    d_lin[2] = d_z @ rot_y @ rot_x @ zoom @ sh
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):  # the shear cells
        d_lin[3 + k] = np.outer(rot[:, k], sh[k])  # R E_kk H
        d_lin[6 + k] = np.outer((rot @ zoom)[:, i], np.eye(3)[j])  # R Z E_ij
    out = np.zeros((12, 4, 4))
    out[np.arange(3), np.arange(3), 3] = 1.0
    out[3:, :3, :3] = d_lin
    out[3:, :3, 3] = -d_lin @ np.asarray(center, dtype=np.float64)
    return out


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
        """Inverse of apply, as a contiguous array."""
        rev = tuple(j for j in range(3) if self.flips[j])
        out = np.flip(data, rev) if rev else data
        inv = np.argsort(self.perm)
        return np.ascontiguousarray(np.transpose(out, inv))


def reorient_to_canonical(v: Volume) -> tuple[Volume, AxisPermutation]:
    """Permute/flip voxel axes so each affine column is dominant-positive on
    the diagonal (closest-to-RAS). World geometry is unchanged: every voxel
    keeps its world coordinate exactly."""
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
        return Volume(v.data, v.affine.copy()), rec

    aff = v.affine.copy()
    # Flip columns in source-axis terms first, then permute.
    for j in range(3):
        i = perm[j]
        if flips[j]:
            aff[:3, 3] += aff[:3, i] * (v.dims[i] - 1)
            aff[:3, i] = -aff[:3, i]
    out_aff = aff.copy()
    out_aff[:3, :3] = aff[:3, [perm[0], perm[1], perm[2]]]
    data = np.ascontiguousarray(rec.apply(v.data))
    return Volume(data, out_aff), rec


def resample(
    source: Volume,
    target_dims: tuple[int, int, int],
    target_affine: np.ndarray,
    world_map: np.ndarray,
    interp: str = "trilinear",
) -> Volume:
    """Sample source onto the target grid.

    world_map sends a target voxel's world position to the position in
    source-world at which to sample. Voxel indices refer to voxel centers.
    At source voxel coordinate c, "nearest" reads voxel floor(c + 0.5), or 0
    when that voxel is outside the volume; "trilinear" interpolates where c
    lies within [0, n - 1] on every axis and reads 0 elsewhere.
    """
    if interp not in ("nearest", "trilinear"):
        raise ValueError(f"unknown interpolation {interp!r}")
    vox_map = invert(source.affine) @ np.asarray(world_map) @ np.asarray(target_affine)
    out = ndimage.affine_transform(
        source.data,
        vox_map,
        output_shape=tuple(target_dims),
        output=np.float64,
        order=0 if interp == "nearest" else 1,
        mode="grid-constant" if interp == "nearest" else "constant",
    )
    if np.issubdtype(source.data.dtype, np.integer):
        np.rint(out, out=out)
    return Volume(
        out.astype(source.data.dtype), np.asarray(target_affine, float).copy()
    )
