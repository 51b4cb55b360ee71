"""Affine registration by histogram mutual information.

The metric is a 32-bin Parzen-window joint histogram in the style of
Mattes et al. (IEEE TMI 2003): each moving intensity, interpolated at a
sampled fixed-image foreground point, is spread linearly across its two
nearest bins. The moving image is interpolated trilinearly by an in-module
kernel that is bit-identical to ``scipy.ndimage.map_coordinates(order=1)``
on in-bounds points of finite data, with less overhead per call.
Optimization is Nelder-Mead per pyramid level, coarse to fine, over a
12-parameter transform (translation, Euler rotation, log-scale, shear)
centered on the fixed foreground centroid.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage, optimize

from .errors import NoOverlap
from .geometry import affine_matrix, invert
from .volume import Volume


# (pyramid factor, smoothing sigma in mm) per level, coarse to fine; the
# last level is full resolution. Every level samples the whole eroded
# foreground: at desk-scale volumes the metric bias from subsampling exceeds
# the recovery tolerance.
LEVELS = ((4, 4.0), (2, 2.0), (1, 0.0))
# Nelder-Mead iteration cap of each simplex restart.
MAX_ITERS = 200


@dataclass
class RegistrationConfig:
    bins: int = 32
    convergence_tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError("bins must be >= 2")


def robust_range(data: np.ndarray) -> tuple[float, float]:
    """0.5-99.5 percentile intensity window."""
    lo, hi = np.percentile(np.asarray(data, dtype=np.float64), [0.5, 99.5])
    if hi <= lo:
        hi = lo + 1.0
    return float(lo), float(hi)


def _bin_indices(values, rng, bins):
    lo, hi = rng
    idx = np.floor((values - lo) / (hi - lo) * bins).astype(np.intp)
    return np.clip(idx, 0, bins - 1)


def parzen_histogram(fixed_bins, moving_values, moving_range, bins) -> np.ndarray:
    """Joint counts (bins x bins) of fixed bin index against moving
    intensity, with each moving value spread by a linear Parzen window
    across its two nearest bins (bin centers at (k + 0.5) / bins of the
    range); values outside the range clamp to the end bins.

    The window keeps the count continuous in the moving value, and so the
    MI continuous in the transform parameters.
    """
    mlo, mhi = moving_range
    pos = np.clip((moving_values - mlo) / (mhi - mlo) * bins - 0.5, 0.0, bins - 1.0)
    b0 = np.minimum(pos.astype(np.intp), bins - 2)
    w1 = pos - b0
    fb = fixed_bins * bins
    counts = np.bincount(
        fb + b0, weights=1.0 - w1, minlength=bins * bins
    ) + np.bincount(fb + b0 + 1, weights=w1, minlength=bins * bins)
    return counts.reshape(bins, bins)


def mutual_information(counts: np.ndarray) -> float:
    """MI in nats of a joint count histogram, over nonzero cells;
    nonnegative."""
    total = float(counts.sum())
    if total <= 0:
        raise NoOverlap("empty joint histogram")
    p = counts / total
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    nz = p > 0
    outer = px[:, None] * py[None, :]
    return float(np.sum(p[nz] * np.log(p[nz] / outer[nz])))


def _foreground_centroid(v: Volume) -> np.ndarray:
    w = np.asarray(v.data, dtype=np.float64)
    w = np.where(w > 0, w, 0.0)
    total = w.sum()
    if total <= 0:
        raise NoOverlap("image has no positive foreground")
    idx = np.indices(v.dims, dtype=np.float64)
    cvox = np.array([float((idx[i] * w).sum() / total) for i in range(3)])
    return v.affine[:3, :3] @ cvox + v.affine[:3, 3]


def _pad_high(data: np.ndarray) -> np.ndarray:
    """data as float64 with one zero voxel appended on the high side of each
    axis: a point on the last voxel plane then reads its upper corner, at
    weight 0, from inside the array."""
    return np.pad(np.asarray(data, dtype=np.float64), ((0, 1),) * 3)


# Samples per _trilinear block, so that each (8, block) float64 temporary
# stays at 2 MB. Unblocked, the 4 MB temporaries of the 62,000-sample level
# of a whole-head 64^3 registration were mapped and unmapped on every call:
# 4.5 million page faults and 3.7 s of system time over two registrations.
_BLOCK = 1 << 15


def _trilinear(padded: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Trilinear values of the volume that ``_pad_high`` padded at voxel
    coordinates (3, n), each within [0, dims - 1].

    The floating-point operations are those of map_coordinates(order=1),
    in the same order, so on finite data the result is bit-identical (on
    the last voxel planes scipy reads a zero-weight corner from inside the
    volume, so an inf or NaN there spreads differently): scipy's weights
    (low 1 - t, high 1 - (1 - t)), the 8 corners x-major with z fastest,
    each multiplied by its x, then y, then z weight and added to zero.
    Each step runs on all 8 corners at once, because every NumPy call on a
    large array releases the interpreter lock and must take it back, which
    costs CPU time when threads run registrations side by side.
    """
    n = coords.shape[1]
    if n > _BLOCK:
        return np.concatenate([
            _trilinear(padded, coords[:, i:i + _BLOCK]) for i in range(0, n, _BLOCK)
        ])
    _, ny, nz = padded.shape
    lo = coords.astype(np.intp)  # truncation is floor: coords >= 0
    w = np.empty((2,) + coords.shape)  # low and high weight per axis
    np.subtract(1.0, coords - lo, out=w[0])
    np.subtract(1.0, w[0], out=w[1])
    base = (lo[0] * ny + lo[1]) * nz + lo[2]
    offsets = np.array([(dx * ny + dy) * nz + dz
                        for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)])
    corners = np.take(padded.ravel(), base + offsets[:, None])
    by_axis = corners.reshape(2, 2, 2, -1)
    by_axis *= w[:, None, None, 0]
    by_axis *= w[None, :, None, 1]
    by_axis *= w[None, None, :, 2]
    # Row by row, not np.add.reduce: that sums a single sample pairwise.
    out = np.zeros(coords.shape[1])
    for corner in corners:
        out += corner
    return out


def _overlap_samples(padded, coords, nmax, fixed_bins):
    """(fixed bins, moving values) of the samples whose voxel coordinates
    (3, n) fall inside the moving volume, nmax (3, 1) being its dims - 1."""
    if coords.min() >= 0.0 and np.all(coords.max(axis=1, keepdims=True) <= nmax):
        return fixed_bins, _trilinear(padded, coords)
    inb = np.all((coords >= 0.0) & (coords <= nmax), axis=0)
    # compress copies the kept columns several times faster than coords[:, inb]
    return fixed_bins[inb], _trilinear(padded, coords.compress(inb, axis=1))


def _downsample(v: Volume, factor: int, sigma_mm: float) -> Volume:
    data = np.asarray(v.data, dtype=np.float64)
    if sigma_mm > 0:
        data = ndimage.gaussian_filter(data, sigma=sigma_mm / v.spacing)
    if factor > 1:
        data = data[::factor, ::factor, ::factor]
        aff = v.affine.copy()
        aff[:3, :3] *= factor
    else:
        aff = v.affine.copy()
    return Volume(np.ascontiguousarray(data), aff)


_SIMPLEX_STEPS = np.concatenate(
    [np.full(3, 10.0), np.full(3, 0.1), np.full(3, 0.1), np.full(3, 0.05)]
)
_BOUNDS = optimize.Bounds(
    np.concatenate([np.full(3, -150.0), np.full(3, -np.pi / 2),
                    np.full(3, -0.5), np.full(3, -0.5)]),
    np.concatenate([np.full(3, 150.0), np.full(3, np.pi / 2),
                    np.full(3, 0.5), np.full(3, 0.5)]),
)


def register_affine(
    fixed: Volume, moving: Volume, config: RegistrationConfig | None = None
) -> tuple[np.ndarray, dict]:
    """Find the world map taking moving coordinates into fixed coordinates
    that locally maximizes MI.

    Returns (transform, diagnostics); non-convergence is reported in
    diagnostics, not raised.
    """
    config = config or RegistrationConfig()
    center = _foreground_centroid(fixed)
    moving_centroid = _foreground_centroid(moving)
    # Internal parameters (translation, rotation, log-scale, shear) map
    # fixed-world -> moving-world.
    theta = np.zeros(12)
    theta[:3] = moving_centroid - center

    diagnostics = {"levels": [], "converged": True, "seed": config.seed}
    for level, (factor, sigma) in enumerate(LEVELS):
        f_level = _downsample(fixed, factor, sigma)
        m_level = _downsample(moving, factor, sigma)
        fixed_range = robust_range(f_level.data)
        moving_range = robust_range(m_level.data)

        # Sample the eroded foreground interior: boundary samples pair a
        # crisp fixed edge with an interpolated moving edge and bias the
        # optimum toward transforms that push them out of bounds.
        support = f_level.data > 0
        interior = ndimage.binary_erosion(support, iterations=2)
        fg = np.argwhere(interior if interior.sum() >= 512 else support)
        fg = fg.astype(np.float64)
        if fg.shape[0] < 16:
            fg = np.indices(f_level.dims).reshape(3, -1).T.astype(np.float64)
        rng = np.random.default_rng(config.seed + level)
        # Two independent off-grid jitters per voxel: jitter breaks the
        # interpolation artifact (MI spikes at grid-aligned transforms),
        # duplication halves the sampling noise it introduces.
        fg = np.concatenate([fg + rng.uniform(-0.5, 0.5, fg.shape) for _ in range(2)])
        fg = np.clip(fg, 0.0, np.asarray(f_level.dims, dtype=np.float64) - 1.0)
        # Slight smoothing of the fixed intensities matches the blur the
        # moving image picks up from interpolation.
        fixed_smoothed = ndimage.gaussian_filter(
            np.asarray(f_level.data, dtype=np.float64), 0.45
        )
        fgT = fg.T
        fixed_vals = _trilinear(_pad_high(fixed_smoothed), fgT)

        # The optimizer's cost interpolates the moving intensity before
        # binning instead of spreading partial-volume weights: PV weighting
        # couples the histogram to the sampling grid and displaces the MI
        # optimum by more than the recovery tolerance.
        bins = config.bins
        mpadded = _pad_high(m_level.data)
        fbin_all = _bin_indices(fixed_vals, fixed_range, bins)
        m_inv = invert(m_level.affine)
        f_aff = f_level.affine
        nmax = np.asarray(m_level.dims, dtype=np.float64).reshape(3, 1) - 1.0

        def cost(t):
            m = affine_matrix(t[0:3], t[3:6], np.exp(t[6:9]), t[9:12], center)
            vox_map = m_inv @ m @ f_aff
            coords = vox_map[:3, :3] @ fgT + vox_map[:3, 3:4]
            fbins, vals = _overlap_samples(mpadded, coords, nmax, fbin_all)
            if vals.size == 0:
                return 1.0
            counts = parzen_histogram(fbins, vals, moving_range, bins)
            return -mutual_information(counts)

        # Simplex restarts with shrinking steps: a single Nelder-Mead run
        # stalls well short of the optimum in 12 dimensions.
        level_iters = 0
        for restart in range(3):
            steps = _SIMPLEX_STEPS / (2 ** (level + 2 * restart))
            simplex = np.vstack([theta, theta + np.diag(steps)])
            res = optimize.minimize(
                cost,
                theta,
                method="Nelder-Mead",
                bounds=_BOUNDS,
                options={
                    "initial_simplex": simplex,
                    "maxiter": MAX_ITERS,
                    "xatol": 1e-4,
                    "fatol": config.convergence_tol,
                    "adaptive": True,
                },
            )
            theta = res.x
            level_iters += int(res.nit)
        diagnostics["levels"].append(
            {
                "factor": int(factor),
                "mi": float(-res.fun),
                "iterations": level_iters,
                "converged": bool(res.success),
            }
        )
        if not res.success:
            diagnostics["converged"] = False

    fixed_to_moving = affine_matrix(
        theta[0:3], theta[3:6], np.exp(theta[6:9]), theta[9:12], center
    )
    if cost(theta) >= 1.0:  # never found overlap at the final level
        raise NoOverlap("registration found no overlapping support")
    return invert(fixed_to_moving), diagnostics
