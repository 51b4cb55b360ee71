"""Core in-memory image model: a 3D scalar grid with world geometry."""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch

# NIfTI datatype codes we handle, and the numpy dtypes they map to.
SUPPORTED_DTYPES = {
    2: np.uint8,
    4: np.int16,
    8: np.int32,
    16: np.float32,
    64: np.float64,
}
DTYPE_TO_CODE = {np.dtype(v): k for k, v in SUPPORTED_DTYPES.items()}

GRID_ATOL = 1e-6

# Block of a tiled copy, in dst's axes. A 16 x 32 x 16 block of float64 is
# 64 KiB a side, so both sides of the block stay in cache while it is copied.
COPY_TILE = (16, 32, 16)


def copy_into(dst: np.ndarray, src: np.ndarray) -> None:
    """dst[...] = src for two 3D arrays of one shape, each element copied or
    cast as that one assignment would. When src's last axis is not its
    contiguous one, numpy would walk src at a stride of a whole plane or row
    for every element of dst, so the copy goes block by block in COPY_TILE
    tiles instead."""
    if abs(src.strides[-1]) == src.itemsize:
        dst[...] = src
        return
    ti, tj, tk = COPY_TILE
    ni, nj, nk = dst.shape
    for i in range(0, ni, ti):
        for j in range(0, nj, tj):
            for k in range(0, nk, tk):
                block = np.s_[i:i + ti, j:j + tj, k:k + tk]
                dst[block] = src[block]


@dataclass
class Grid:
    """Geometry shared by every array on a grid: a 3D ``data`` array indexed
    [x, y, z] and a 4x4 ``affine`` mapping homogeneous voxel indices to
    world mm. The grid keeps its own read-only float64 copy of the affine,
    so no caller needs to copy one in, and no grid can change another's."""

    data: np.ndarray
    affine: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError(f"expected 3D data, got shape {self.data.shape}")
        affine = np.array(self.affine, dtype=np.float64)
        if affine.shape != (4, 4):
            raise ValueError(f"affine must be 4x4, got shape {affine.shape}")
        affine.flags.writeable = False
        self.affine = affine

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def spacing(self) -> np.ndarray:
        """Voxel spacing in mm: Euclidean norm of each affine column."""
        return np.linalg.norm(self.affine[:3, :3], axis=0)

    def same_grid(self, other: "Grid") -> bool:
        return self.dims == other.dims and np.allclose(
            self.affine, other.affine, atol=GRID_ATOL
        )


@dataclass
class Volume(Grid):
    """A dense 3D scalar volume with a voxel-to-world affine.

    data is indexed [x, y, z] (x fastest in memory order on disk);
    affine maps homogeneous voxel indices to world mm. Background, and any
    voxel a mask removes or a resample leaves uncovered, is 0.
    """


@dataclass
class BinaryMask(Grid):
    """A {0,1} volume on a stated grid, its data bool."""

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=bool)  # bool data is not copied
        super().__post_init__()

    @classmethod
    def from_volume(cls, v: Volume) -> "BinaryMask":
        """Every voxel of v above 0 (a NaN voxel is not)."""
        return cls(v.data > 0, v.affine)

    def count(self) -> int:
        return int(self.data.sum())


def check_same_grid(a: Grid, b: Grid):
    """Raise GridMismatch unless a and b share dims and affine."""
    if a.dims != b.dims:
        raise GridMismatch(f"dims differ: {a.dims} vs {b.dims}")
    if not a.same_grid(b):
        raise GridMismatch("affines differ beyond tolerance")
