"""Affine registration by histogram mutual information.

The metric is a 32-bin Parzen-window joint histogram in the style of
Mattes et al. (IEEE TMI 2003): each moving intensity, interpolated at a
sampled fixed-image foreground point, is spread linearly across its two
nearest bins. The moving image is interpolated trilinearly by an in-module
kernel that is bit-identical to ``scipy.ndimage.map_coordinates(order=1)``
on in-volume points of finite data, with less overhead per call; the same
kernel returns the image's voxel gradient at each point.

Every sample counts at every transform: the kernel reads the volume
zero-padded by ``_MARGIN`` voxels per side, where a sample that has left
the volume reads 0 with a zero gradient. The sample count never changes,
so the cost and its gradient are continuous and L-BFGS-B's stop is true.

Optimization is L-BFGS-B per pyramid level, coarse to fine, over a
12-parameter transform (translation, Euler rotation, log-scale, shear)
centered on the fixed foreground centroid, driven by the analytic gradient
of the Parzen-window MI (Mattes et al.; Thevenaz & Unser, IEEE TIP 2000):
the chain of the histogram's derivative in each moving value, the moving
image's voxel gradient and the derivative of the sample positions in each
parameter. Each level stops on L-BFGS-B's own tests, and its diagnostics
say which one it met.

``prepare`` computes the fixed image's side once (centroid, and per level
the jittered foreground samples and their fixed bins); ``register_affine``
solves for one moving image against it, so a batch against one template
prepares the template once.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage, optimize

from .errors import NoOverlap
from .geometry import affine_matrix, affine_matrix_derivatives, invert
from .volume import Volume


# (pyramid factor, smoothing sigma in mm, L-BFGS-B relative-reduction
# tolerance ftol) per level, coarse to fine; the last level is full
# resolution. Every level samples the whole eroded foreground: at
# desk-scale volumes the metric bias from subsampling exceeds the recovery
# tolerance. The coarse levels only need to land in the fine level's basin,
# so they stop earlier.
LEVELS = ((4, 4.0, 1e-6), (2, 2.0, 1e-7), (1, 0.0, 1e-9))


@dataclass
class RegistrationConfig:
    """bins: MI histogram bins per axis. convergence_tol: L-BFGS-B's
    projected-gradient stopping tolerance (gtol), in nats of MI per
    optimizer unit (see ``_UNITS``). seed: sample jitter seed."""

    bins: int = 32
    convergence_tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


def _parzen_window(moving_values, moving_range, bins):
    """Per moving value: the lower of its two bins b0, the weight w1 of the
    upper one (1 - w1 goes to b0), and whether the value lies strictly
    inside the window's range, where w1 moves with it (outside, it is
    clamped to an end bin)."""
    mlo, mhi = moving_range
    raw = (moving_values - mlo) / (mhi - mlo) * bins - 0.5
    pos = np.clip(raw, 0.0, bins - 1.0)
    b0 = np.minimum(pos.astype(np.intp), bins - 2)
    return b0, pos - b0, (raw > 0.0) & (raw < bins - 1.0)


def _joint_counts(cells, w1, bins):
    """bins x bins counts of samples at flat cells (fixed bin * bins + b0),
    each with weight 1 - w1 there and w1 in the next moving bin."""
    n = bins * bins
    counts = np.bincount(cells, weights=1.0 - w1, minlength=n)
    counts += np.bincount(cells + 1, weights=w1, minlength=n)
    return counts.reshape(bins, bins)


def parzen_histogram(fixed_bins, moving_values, moving_range, bins) -> np.ndarray:
    """Joint counts (bins x bins) of fixed bin index against moving
    intensity, with each moving value spread by a linear Parzen window
    across its two nearest bins (bin centers at (k + 0.5) / bins of the
    range); values outside the range clamp to the end bins.

    The window keeps the count continuous in the moving value, and so the
    MI continuous in the transform parameters.
    """
    b0, w1, _ = _parzen_window(moving_values, moving_range, bins)
    return _joint_counts(fixed_bins * bins + b0, w1, bins)


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
    """Intensity-weighted world centroid of the positive voxels, from each
    axis's marginal sums (no per-voxel index array)."""
    w = np.asarray(v.data, dtype=np.float64)
    w = np.where(w > 0, w, 0.0)
    total = w.sum()
    if total <= 0:
        raise NoOverlap("image has no positive foreground")
    cvox = np.array([
        w.sum(axis=tuple(a for a in range(3) if a != i)) @ np.arange(n, dtype=np.float64)
        for i, n in enumerate(v.dims)
    ]) / total
    return v.affine[:3, :3] @ cvox + v.affine[:3, 3]


# Zero voxels padded per side: two, so that a point clamped onto either
# face of the padded array reads padding only (see _trilinear).
_MARGIN = 2


def _pad(data: np.ndarray) -> np.ndarray:
    """data as float64 with _MARGIN zero voxels on each side of each axis."""
    return np.pad(np.asarray(data, dtype=np.float64), _MARGIN)


# Samples per _trilinear block, so that each (8, block) float64 temporary
# stays at 2 MB. Unblocked, the 4 MB temporaries of the 62,000-sample level
# of a whole-head 64^3 registration were mapped and unmapped on every call:
# 4.5 million page faults and 3.7 s of system time over two registrations.
_BLOCK = 1 << 15


def _trilinear(padded: np.ndarray, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trilinear values (n,) and voxel gradients (3, n) of the volume that
    ``_pad`` padded, at voxel coordinates (3, n) of the unpadded volume,
    each clamped into the margin, [-2, dims]. Below -1 and from dims up both
    corners along an axis are padding, so a point there reads 0 with a zero
    gradient; between, the image falls linearly to 0 over one voxel.

    On points within [0, dims - 1] the floating-point operations of the
    values are those of map_coordinates(order=1), in the same order, so on
    finite data they are bit-identical (on the last voxel planes scipy
    reads a zero-weight corner from inside the volume, so an inf or NaN
    there spreads differently): scipy's weights (low 1 - t, high
    1 - (1 - t)), the 8 corners x-major with z fastest, each multiplied by
    its x, then y, then z weight and added to zero. Each step runs on all 8
    corners at once, in one (8, n) array, because the gradient below takes
    differences between corners. For the values alone a loop over the
    corners is cheaper, about 60% of the time in one process (2.2 ms
    against 3.7 ms for 32,768 samples, one Xeon vCPU).

    The gradient along an axis is the interpolant's derivative there: the
    high-minus-low corner differences along it, weighted by the other two
    axes' weights. On a voxel plane it is the one toward higher indices.
    """
    n = coords.shape[1]
    if n > _BLOCK:
        parts = [_trilinear(padded, coords[:, i:i + _BLOCK]) for i in range(0, n, _BLOCK)]
        return (np.concatenate([v for v, _ in parts]),
                np.concatenate([g for _, g in parts], axis=1))
    _, ny, nz = padded.shape
    w = np.empty((2,) + coords.shape)  # low and high weight per axis
    top = np.reshape(padded.shape, (3, 1)) - (_MARGIN + 2.0)
    clamped = np.clip(coords, -_MARGIN, top, out=w[1])
    floor = np.floor(clamped)
    np.subtract(clamped, floor, out=w[0])
    np.subtract(1.0, w[0], out=w[0])
    np.subtract(1.0, w[0], out=w[1])
    lo = floor.astype(np.intp)
    base = (lo[0] * ny + lo[1]) * nz + lo[2]
    # corner offsets, from the low corner's unpadded index into padded
    offsets = np.array([((dx + _MARGIN) * ny + dy + _MARGIN) * nz + dz + _MARGIN
                        for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)])
    corners = np.take(padded.ravel(), base + offsets[:, None])
    by_axis = corners.reshape(2, 2, 2, -1)
    grad = np.empty(coords.shape)
    for axis, (a, b) in enumerate(((1, 2), (0, 2), (0, 1))):
        step = np.diff(by_axis, axis=axis).reshape(4, -1)  # rows: corners of axes a, b
        weight = (w[:, None, a] * w[None, :, b]).reshape(4, -1)
        grad[axis] = np.einsum("kn,kn->n", step, weight)
    by_axis *= w[:, None, None, 0]
    by_axis *= w[None, :, None, 1]
    by_axis *= w[None, None, :, 2]
    # Row by row, not np.add.reduce: that sums a single sample pairwise.
    out = np.zeros(n)
    for corner in corners:
        out += corner
    return out, grad


def _downsample(v: Volume, factor: int, sigma_mm: float) -> Volume:
    """v smoothed by sigma_mm, then every factor-th voxel from voxel 0 of
    each axis, edge-padded on the high side to factor * k + 1 voxels so
    that the coarse grid reaches the last voxel plane."""
    data = np.asarray(v.data, dtype=np.float64)
    if sigma_mm > 0:
        data = ndimage.gaussian_filter(data, sigma=sigma_mm / v.spacing)
    aff = v.affine.copy()
    if factor > 1:
        extra = [(-(n - 1)) % factor for n in data.shape]
        data = np.pad(data, [(0, e) for e in extra], mode="edge")
        data = data[::factor, ::factor, ::factor]
        aff[:3, :3] *= factor
    return Volume(np.ascontiguousarray(data), aff)


# Bounds of |translation| (mm), |rotation| (rad), |log-scale| and |shear|
_LIMITS = np.repeat([150.0, np.pi / 2, 0.5, 0.5], 3)
# Internal parameters per optimizer unit: 1 mm of translation, and 1/60 of
# rotation (rad), log-scale and shear, so that one unit of any parameter
# moves a point 60 mm from the center, about the head's edge, by about 1 mm,
# and the gradient and the stopping tolerances weigh them alike.
_UNITS = np.concatenate([np.ones(3), np.full(9, 1.0 / 60.0)])
_UNIT_BOUNDS = optimize.Bounds(-_LIMITS / _UNITS, _LIMITS / _UNITS)


@dataclass(frozen=True)
class _FixedLevel:
    """One pyramid level of the fixed image, as the cost reads it."""

    factor: int
    sigma: float
    ftol: float  # L-BFGS-B relative-reduction tolerance
    affine: np.ndarray  # level voxel -> world
    fgT: np.ndarray  # (3, n) jittered voxel coordinates of the samples
    fixed_bins: np.ndarray  # fixed intensity bin of each sample


@dataclass(frozen=True)
class FixedSide:
    """The fixed image of a registration prepared once, for any number of
    moving images: its foreground centroid and, per pyramid level, the
    sample coordinates and their fixed bins. Every array is read-only."""

    config: RegistrationConfig
    center: np.ndarray
    levels: tuple[_FixedLevel, ...]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def prepare(fixed: Volume, config: RegistrationConfig | None = None) -> FixedSide:
    """Everything register_affine needs of the fixed image under config."""
    config = config or RegistrationConfig()
    center = _frozen(_foreground_centroid(fixed))
    levels = []
    for level, (factor, sigma, ftol) in enumerate(LEVELS):
        f_level = _downsample(fixed, factor, sigma)
        fixed_range = robust_range(f_level.data)

        # Sample the eroded foreground interior: boundary samples pair a
        # crisp fixed edge with an interpolated moving edge and bias the
        # optimum toward transforms that push them out of bounds.
        support = f_level.data > 0
        interior = ndimage.binary_erosion(support, iterations=2)
        fg = np.argwhere(interior if interior.sum() >= 512 else support).astype(np.float64)
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
        fixed_smoothed = ndimage.gaussian_filter(f_level.data, 0.45)
        fixed_vals, _ = _trilinear(_pad(fixed_smoothed), fg.T)
        levels.append(_FixedLevel(
            factor=factor,
            sigma=sigma,
            ftol=ftol,
            affine=_frozen(f_level.affine),
            fgT=_frozen(fg.T),
            fixed_bins=_frozen(_bin_indices(fixed_vals, fixed_range, config.bins)),
        ))
    return FixedSide(config, center, tuple(levels))


def _fixed_to_moving(x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """The fixed-world -> moving-world map of optimizer-unit parameters x."""
    theta = x * _UNITS
    return affine_matrix(theta[0:3], theta[3:6], np.exp(theta[6:9]), theta[9:12], center)


def _moving_voxels(f_level: _FixedLevel, m_inv: np.ndarray, center, x) -> np.ndarray:
    """Moving voxel coordinates (3, n) of the level's samples at x, m_inv
    being the moving level's world -> voxel map."""
    vox_map = m_inv @ _fixed_to_moving(x, center) @ f_level.affine
    return vox_map[:3, :3] @ f_level.fgT + vox_map[:3, 3:4]


def _level_cost(f_level: _FixedLevel, m_level: Volume, center: np.ndarray, bins: int):
    """(value, gradient): the cost -MI of one pyramid level and its
    gradient, as functions of the optimizer-unit parameters x (internal
    parameters x * _UNITS). Both come from one pass over every sample, and
    the last point is kept, because L-BFGS-B asks for the value and the
    gradient of each point in separate calls.
    """
    moving_range = robust_range(m_level.data)
    # The cost interpolates the moving intensity before binning instead of
    # spreading partial-volume weights: PV weighting couples the histogram
    # to the sampling grid and displaces the MI optimum by more than the
    # recovery tolerance.
    mpadded = _pad(m_level.data)
    m_inv = invert(m_level.affine)
    # d(bin position) / d(moving value) inside the window's range
    slope = bins / (moving_range[1] - moving_range[0])
    last = {}

    def evaluate(x):
        if "x" in last and np.array_equal(last["x"], x):
            return last["value"], last["gradient"]
        vals, vgrad = _trilinear(mpadded, _moving_voxels(f_level, m_inv, center, x))
        b0, w1, sloped = _parzen_window(vals, moving_range, bins)
        cells = f_level.fixed_bins * bins + b0
        counts = _joint_counts(cells, w1, bins)
        value = -mutual_information(counts)
        # The fixed marginal does not move, so dMI/dp_ab = log(p_ab/p_b)
        # up to a constant that cancels; a sample moves weight from its
        # cell to the next one at the rate of w1.
        column = np.broadcast_to(counts.sum(axis=0), counts.shape)
        nz = counts > 0
        log_ratio = np.zeros(counts.size)
        log_ratio[nz.ravel()] = np.log(counts[nz] / column[nz])
        dmi_dv = (log_ratio[cells + 1] - log_ratio[cells]) * sloped * (slope / counts.sum())
        # dMI/d(vox_map) as a 3 x 4 matrix: sum over samples of the
        # moving-voxel gradient of MI times the homogeneous fixed voxel.
        u = vgrad * dmi_dv
        moment = np.empty((3, 4))
        moment[:, :3] = u @ f_level.fgT.T
        moment[:, 3] = u.sum(axis=1)
        theta = x * _UNITS
        scale = np.exp(theta[6:9])
        d_m = affine_matrix_derivatives(theta[3:6], scale, theta[9:12], center)
        d_m[6:9] *= scale[:, None, None]  # by log-scale
        d_vox = m_inv @ d_m @ f_level.affine
        gradient = -np.einsum("kij,ij->k", d_vox[:, :3, :], moment) * _UNITS
        last.update(x=x.copy(), value=value, gradient=gradient)
        return value, gradient

    return (lambda x: evaluate(x)[0]), (lambda x: evaluate(x)[1])


def _stop_reason(message: str) -> str:
    """L-BFGS-B's message, lower case and without its tolerance condition:
    "convergence: relative reduction of f", "abnormal", ..."""
    return message.split("<=")[0].strip(" :").lower()


def register_affine(fixed: FixedSide, moving: Volume) -> tuple[np.ndarray, dict]:
    """Find the world map taking moving coordinates into the coordinates of
    the prepared fixed image that locally maximizes MI.

    Returns (transform, diagnostics). Each level records its final MI, its
    iterations and cost evaluations, the optimizer's stop reason, whether
    that stop is a convergence, and ``inside``, the fraction of its samples
    inside the moving volume at its solution; the top-level ``converged``
    holds only if every level converged. Non-convergence is reported, not
    raised; NoOverlap is raised when no sample of the final level is inside.
    """
    config = fixed.config
    center = fixed.center
    # Internal parameters (translation, rotation, log-scale, shear) map
    # fixed-world -> moving-world; x is them in optimizer units, which are
    # mm for translation. The start aligns the foreground centroids.
    x = np.zeros(12)
    x[:3] = _foreground_centroid(moving) - center

    diagnostics = {"levels": [], "seed": config.seed}
    for f_level in fixed.levels:
        m_level = _downsample(moving, f_level.factor, f_level.sigma)
        value, gradient = _level_cost(f_level, m_level, center, config.bins)
        res = optimize.minimize(
            value, x, jac=gradient, method="L-BFGS-B", bounds=_UNIT_BOUNDS,
            # maxcor: corrections kept for the inverse-Hessian estimate
            options={"ftol": f_level.ftol, "gtol": config.convergence_tol, "maxcor": 12},
        )
        x = res.x
        coords = _moving_voxels(f_level, invert(m_level.affine), center, x)
        nmax = np.reshape(m_level.dims, (3, 1)) - 1
        diagnostics["levels"].append({
            "factor": int(f_level.factor),
            "mi": float(-res.fun),
            "iterations": int(res.nit),
            "evaluations": int(res.nfev),
            "stop": _stop_reason(res.message),
            "converged": bool(res.success),
            "inside": float(np.all((coords >= 0) & (coords <= nmax), axis=0).mean()),
        })
    diagnostics["converged"] = all(lv["converged"] for lv in diagnostics["levels"])

    if diagnostics["levels"][-1]["inside"] == 0.0:
        raise NoOverlap("registration found no overlapping support")
    return invert(_fixed_to_moving(x, center)), diagnostics
