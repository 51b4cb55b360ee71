"""Affine registration by histogram mutual information.

The metric is a 32-bin Parzen-window joint histogram in the style of
Mattes et al. (IEEE TMI 2003): each moving intensity, interpolated at a
sampled fixed-image foreground point, is spread linearly across its two
nearest bins. The moving image is interpolated trilinearly by an in-module
kernel, as seven linear interpolations per point, which agrees with
``scipy.ndimage.map_coordinates(order=1)`` to rounding on in-volume points
of finite data at less cost per call; the same kernel returns the image's
voxel gradient at each point. ``_trilinear`` is the package's one trilinear
kernel: it serves this cost and, through ``synthetic.sample_trilinear``,
the phantoms.

Every sample counts at every transform: the kernel reads the volume
zero-padded by ``_MARGIN`` voxels per side, where a sample that has left
the volume reads 0 with a zero gradient. The sample count never changes,
so the cost and its gradient are continuous and L-BFGS-B's stop is true.

Optimization is L-BFGS-B per pyramid level, coarse to fine, over the 12
entries of the affine itself, as elastix's affine transform has them
(Klein et al., IEEE TMI 2010): the translation and the nine entries of
L - I, L being the linear part, about the fixed foreground centroid. It is
driven by the analytic gradient of the Parzen-window MI (Mattes et al.;
Thevenaz & Unser, IEEE TIP 2000): the chain of the histogram's derivative
in each moving value and the moving image's voxel gradient, summed over
the samples against their positions into one 3 x 4 moment. Carried through
the two grids' affines, that moment is the gradient in the parameters
itself. Each level stops on L-BFGS-B's own tests, with the same two
tolerances at every level, and its diagnostics say which one it met.

The settings are constants of ``RegistrationConfig``: 32 bins, sample
seed 0 and the two stopping tolerances, the same for every template and
subject.

``prepare`` computes the fixed image's side once (centroid, and per level
the jittered samples of one eroded foreground mask and their fixed bins);
``register_affine`` solves for one moving image against it, so a batch
against one template prepares the template once. Each of them first reads
a non-finite voxel of its image as background 0. Both images are smoothed
and interpolated alike at each level, so at the fine level the fixed image
is read unsmoothed, as the moving one is. ``_level`` builds every level of
both: it writes the level's float64 voxels once, into the zero-padded array
the kernel reads, and windows them, so the fine level is one cast of the
image. A coarse level's Gaussian smoothing runs one axis at a time, on the
nonzero voxels' bounding box, cropped before the cast, and at the level's
grid points only: the same values, bit for bit, as smoothing the whole grid
and then striding it.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage, optimize

from .errors import EmptyMask, NoOverlap
from .geometry import invert
from .morphology import _bbox
from .volume import Volume


# (pyramid factor, smoothing sigma in mm) per level, coarse to fine, each
# read from both images alike; the last is full resolution, unsmoothed.
# Every level stops by RegistrationConfig's tolerances and samples the
# fixed foreground eroded at full resolution, at its own grid points (see
# ``prepare``), so the fine level takes every eroded voxel.
LEVELS = ((4, 4.0), (2, 2.0), (1, 0.0))


class RegistrationConfig:
    """The registration's settings, all constants. bins: MI histogram bins
    per axis. seed: sample jitter seed of the coarsest level, each finer
    level taking the next. convergence_tol and reduction_tol are every
    level's L-BFGS-B stopping rule: the projected-gradient tolerance (gtol),
    in nats of MI per optimizer unit (see ``_UNITS``), and the
    relative-reduction one (ftol); a smaller ftol asks for reductions the
    sampled cost cannot resolve, and the line search ends ABNORMAL."""

    bins = 32
    seed = 0
    convergence_tol = 1e-5
    reduction_tol = 1e-7


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
    raw = moving_values - mlo
    raw /= mhi - mlo
    raw *= bins
    raw -= 0.5
    pos = np.maximum(raw, 0.0)
    np.minimum(pos, bins - 1.0, out=pos)
    b0 = np.minimum(pos.astype(np.intp), bins - 2)
    pos -= b0
    return b0, pos, (raw > 0.0) & (raw < bins - 1.0)


def _joint_counts(cells, w1, bins):
    """bins x bins counts of samples at flat cells (fixed bin * bins + b0),
    each with weight 1 - w1 there and w1 in the next moving bin. A cell is
    never a row's last, so the upper weights shift by one flat cell."""
    n = bins * bins
    counts = np.bincount(cells, weights=1.0 - w1, minlength=n)
    counts[1:] += np.bincount(cells, weights=w1, minlength=n)[:-1]
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


# Most samples per _trilinear block, n being split into equal blocks: one
# for each of a 64^3 deface's coarse levels (280 and 2,250 samples) and
# two for its fine level (17,634), where smaller blocks cost more calls.
# On 2,250, 17,634 and 62,468 samples of a 64^3 volume, 200 calls take no
# minor page fault (``resource.getrusage``), also after a whole deface has
# run in the process.
_BLOCK = 1 << 14


def _trilinear(padded: np.ndarray, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trilinear values (n,) and voxel gradients (3, n) of a volume padded
    with _MARGIN zero voxels per side, as a level's ``padded`` array is, at
    voxel coordinates (3, n) of the unpadded volume, each clamped into the
    margin, [-2, dims]. Below -1 and from dims up both corners along an axis
    are padding, so a point there reads 0 with a zero gradient; between, the
    image falls linearly to 0 over one voxel.

    The interpolation is seven linear ones, low + t (high - low), t being
    the point's offset from its lower corner: the four corner pairs along
    z, those four results in pairs along y, and those two along x. On
    points within [0, dims - 1] of finite data the values agree with
    map_coordinates(order=1) to rounding (a few 1e-16 of the data's
    largest magnitude), not bit for bit. A non-finite voxel at any of a
    point's 8 corners makes its value and gradient non-finite, even where
    that corner's weight is 0.

    The gradient along an axis is the interpolant's derivative there, the
    high-minus-low differences along it lerped over the other axes: along
    x the difference of the two y-lerps, along y the two y-differences
    lerped along x, along z the four z-differences lerped along y, then x.
    On a voxel plane it is the one toward higher indices.
    """
    n = coords.shape[1]
    _, ny, nz = padded.shape
    flat = padded.ravel()
    top = np.reshape(padded.shape, (3, 1)) - (_MARGIN + 2.0)
    strides = np.array([ny * nz, nz, 1.0])
    origin = (_MARGIN * ny + _MARGIN) * nz + _MARGIN  # flat index of voxel 0
    z_pairs = [x * ny * nz + y * nz for x in (0, 1) for y in (0, 1)]  # (x, y), x-major
    values = np.empty(n)
    grad = np.empty((3, n))
    count = -(-n // _BLOCK)
    for k in range(count):
        block = slice(k * n // count, (k + 1) * n // count)
        v, g = values[block], grad[:, block]
        t = np.maximum(coords[:, block], -_MARGIN)
        np.minimum(t, top, out=t)
        floor = np.floor(t)
        base = (strides @ floor + origin).astype(np.intp)
        tx, ty, tz = np.subtract(t, floor, out=t)
        tmp = floor[0]  # scratch: floor has been read
        # Along z, per (x, y) corner pair: dz = high - low in place of the
        # high corner, and the lerp e = low + t_z dz in place of the low one.
        e, dz = [], []
        for offset in z_pairs:
            low, high = flat[offset:][base], flat[offset + 1:][base]
            dz.append(np.subtract(high, low, out=high))
            low += np.multiply(tz, high, out=tmp)
            e.append(low)
        # Along y, per x: dy = e_x1 - e_x0 in place of e_x1, and the lerp
        # f = e_x0 + t_y dy in place of e_x0.
        f0, dy0, f1, dy1 = e
        for low, high in ((f0, dy0), (f1, dy1)):
            high -= low
            low += np.multiply(ty, high, out=tmp)
        # Along x: the gradient along x, then the value; the gradient along
        # y is the two dy lerped along x, and along z the four dz lerped
        # along y, then x.
        np.subtract(f1, f0, out=g[0])
        np.multiply(tx, g[0], out=v)
        v += f0
        dy1 -= dy0
        dy1 *= tx
        np.add(dy0, dy1, out=g[1])
        dz00, dz01, dz10, dz11 = dz
        for low, high in ((dz00, dz01), (dz10, dz11)):
            high -= low
            high *= ty
            high += low
        dz11 -= dz01
        dz11 *= tx
        np.add(dz01, dz11, out=g[2])
    return values, grad


class _Level(NamedTuple):
    """One pyramid level of an image: its voxels as float64 with _MARGIN
    zero voxels on each side of each axis, its voxel -> world affine, and
    the robust_range window of its voxels."""

    padded: np.ndarray
    affine: np.ndarray
    window: tuple[float, float]

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(n - 2 * _MARGIN for n in self.padded.shape)


def _level(v: Volume, factor: int, sigma_mm: float) -> _Level:
    """v smoothed by sigma_mm and read at every factor-th voxel from voxel 0
    of each axis, plus the last voxel where that stride misses it, so that
    the coarse grid reaches the last voxel plane.

    The smoothing is ``ndimage.gaussian_filter``'s, bit for bit, computed at
    the kept points only: one axis at a time, each filtered at its full
    length, so that its ``reflect`` boundary is unchanged, then cut to its
    kept indices. The voxels are cropped to the nonzero voxels' bounding box
    before they are cast to float64, and the axes not yet filtered stay
    cropped, since the lines outside it hold only zeros, which filter to
    zeros (a -0.0 there reads as +0.0). Unsmoothed, a level is a plain
    gather, and at factor 1 the data itself. Either way its values are
    written once, into the padded array.
    """
    keep = [np.minimum(np.arange(0, n + (-(n - 1)) % factor, factor), n - 1)
            for n in v.dims]
    padded = np.zeros([len(k) + 2 * _MARGIN for k in keep])
    inner = padded[(slice(_MARGIN, -_MARGIN),) * 3]
    if sigma_mm > 0:
        # an all-zero volume crops to nothing and pads back to zeros
        box = _bbox(v.data != 0) or (slice(0, 0),) * 3
        data = v.data[box]
        for axis, sigma in enumerate(sigma_mm / v.spacing):
            # the axis at its full length, zero outside the box, in float64
            line = np.zeros(data.shape[:axis] + (v.dims[axis],) + data.shape[axis + 1:])
            line[(slice(None),) * axis + (box[axis],)] = data
            data = ndimage.gaussian_filter1d(line, sigma, axis=axis)
            data = data.take(keep[axis], axis=axis)
        inner[...] = data
    else:
        inner[...] = v.data[np.ix_(*keep)] if factor > 1 else v.data
    aff = v.affine.copy()
    aff[:3, :3] *= factor
    return _Level(padded, aff, robust_range(inner))


# Bounds of |translation| (mm) and of each entry of L - I. A bound of 1 on
# the entries reaches a 90 degree turn, a scale of e^+-0.5 and a shear of
# 0.5 about any one axis.
_LIMITS = np.repeat([150.0, 1.0], (3, 9))
# Internal parameters per optimizer unit: 1 mm of translation, and 1/60 of
# an entry of L - I, so that one unit of any parameter moves a point 60 mm
# from the center, about the head's edge, by up to 1 mm, and the gradient
# and the stopping tolerances weigh them alike.
_UNITS = np.concatenate([np.ones(3), np.full(9, 1.0 / 60.0)])
_UNIT_BOUNDS = optimize.Bounds(-_LIMITS / _UNITS, _LIMITS / _UNITS)


@dataclass(frozen=True)
class _FixedLevel:
    """One pyramid level of the fixed image, as the cost reads it."""

    factor: int
    sigma: float
    affine: np.ndarray  # level voxel -> world
    fgT: np.ndarray  # (3, n) jittered voxel coordinates of the samples
    fixed_bins: np.ndarray  # fixed intensity bin of each sample
    bins: int  # the MI histogram's bins per axis, fixed_bins' count


@dataclass(frozen=True)
class FixedSide:
    """The fixed image of a registration prepared once, for any number of
    moving images: its foreground centroid and, per pyramid level, the
    sample coordinates and their fixed bins. Every array is read-only."""

    center: np.ndarray
    levels: tuple[_FixedLevel, ...]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _zero_non_finite(v: Volume) -> Volume:
    """v with every non-finite voxel read as background 0; v itself when
    every voxel is finite."""
    finite = np.isfinite(v.data)
    return v if finite.all() else Volume(np.where(finite, v.data, 0), v.affine)


def prepare(fixed: Volume) -> FixedSide:
    """Everything register_affine needs of the fixed image.

    Every level samples one mask, the fixed foreground eroded by 2 voxels
    at full resolution, at the level's grid points: coarse voxel k is
    full-resolution voxel factor * k, as ``_level`` strides it. Raises
    EmptyMask when a level's grid points hold no voxel of that mask.
    """
    fixed = _zero_non_finite(fixed)
    center = _frozen(_foreground_centroid(fixed))
    # The eroded interior: boundary samples pair a crisp fixed edge with an
    # interpolated moving edge and bias the optimum toward transforms that
    # push them out of bounds.
    interior = ndimage.binary_erosion(fixed.data > 0, iterations=2)
    levels = []
    for level, (factor, sigma) in enumerate(LEVELS):
        f_level = _level(fixed, factor, sigma)
        fg = np.argwhere(interior[::factor, ::factor, ::factor]).astype(np.float64)
        if fg.shape[0] == 0:
            raise EmptyMask(
                f"registration template has no eroded foreground voxel on the "
                f"pyramid grid of factor {factor}")
        rng = np.random.default_rng(RegistrationConfig.seed + level)
        # Two independent off-grid jitters per voxel: jitter breaks the
        # interpolation artifact (MI spikes at grid-aligned transforms),
        # duplication halves the sampling noise it introduces.
        fg = np.concatenate([fg + rng.uniform(-0.5, 0.5, fg.shape) for _ in range(2)])
        fg = np.clip(fg, 0.0, np.asarray(f_level.dims, dtype=np.float64) - 1.0)
        fixed_vals, _ = _trilinear(f_level.padded, fg.T)
        levels.append(_FixedLevel(
            factor=factor,
            sigma=sigma,
            affine=_frozen(f_level.affine),
            fgT=_frozen(np.ascontiguousarray(fg.T)),
            fixed_bins=_frozen(
                _bin_indices(fixed_vals, f_level.window, RegistrationConfig.bins)),
            bins=RegistrationConfig.bins,
        ))
    return FixedSide(center, tuple(levels))


def _fixed_to_moving(x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """The fixed-world -> moving-world map [L, t + c - L c] of
    optimizer-unit parameters x: the translation t, then L - I row by row,
    about the center c."""
    theta = x * _UNITS
    m = np.eye(4)
    m[:3, :3] += theta[3:].reshape(3, 3)
    m[:3, 3] = theta[:3] + center - m[:3, :3] @ center
    return m


def _moving_voxels(f_level: _FixedLevel, m_inv: np.ndarray, center, x) -> np.ndarray:
    """Moving voxel coordinates (3, n) of the level's samples at x, m_inv
    being the moving level's world -> voxel map."""
    vox_map = m_inv @ _fixed_to_moving(x, center) @ f_level.affine
    coords = vox_map[:3, :3] @ f_level.fgT
    coords += vox_map[:3, 3:4]
    return coords


def _log_ratio_steps(counts: np.ndarray) -> np.ndarray:
    """Per flat cell c of the joint counts but the last, r[c + 1] - r[c],
    r being log(p_ab / p_b) at each nonzero cell and 0 at an empty one:
    N times the rate at which MI moves as a sample's w1 moves its weight
    from cell c to the next one, N being the sample count. The fixed
    marginal does not move, so dMI/dp_ab is log(p_ab / p_b) up to a
    constant that cancels. A sample's cell is never a row's last, so no
    step across rows is read."""
    log_ratio = np.divide(counts, counts.sum(axis=0), out=np.ones_like(counts),
                          where=counts > 0)
    return np.diff(np.log(log_ratio, out=log_ratio).ravel())


def _level_cost(f_level: _FixedLevel, m_level: _Level, center: np.ndarray):
    """(value, gradient): the cost -MI of one pyramid level and its
    gradient, as functions of the optimizer-unit parameters x (internal
    parameters x * _UNITS). Both come from one pass over every sample, and
    the last point is kept, because L-BFGS-B asks for the value and the
    gradient of each point in separate calls.
    """
    # The cost interpolates the moving intensity before binning instead of
    # spreading partial-volume weights: PV weighting couples the histogram
    # to the sampling grid and displaces the MI optimum by more than the
    # recovery tolerance.
    m_inv = invert(m_level.affine)
    bins = f_level.bins
    # d(bin position) / d(moving value) inside the window's range
    slope = bins / (m_level.window[1] - m_level.window[0])
    row_cells = f_level.fixed_bins * bins
    last = {}

    def evaluate(x):
        if "x" in last and np.array_equal(last["x"], x):
            return last["value"], last["gradient"]
        vals, vgrad = _trilinear(m_level.padded, _moving_voxels(f_level, m_inv, center, x))
        b0, w1, sloped = _parzen_window(vals, m_level.window, bins)
        cells = row_cells + b0
        counts = _joint_counts(cells, w1, bins)
        value = -mutual_information(counts)
        dmi_dv = (_log_ratio_steps(counts) * (slope / counts.sum()))[cells]
        dmi_dv *= sloped
        # dMI/d(vox_map) as a 3 x 4 matrix: sum over samples of the
        # moving-voxel gradient of MI times the homogeneous fixed voxel.
        u = np.multiply(vgrad, dmi_dv, out=vgrad)
        moment = np.empty((3, 4))
        moment[:, :3] = u @ f_level.fgT.T
        moment[:, 3] = u.sum(axis=1)
        # vox_map = m_inv @ [L, t'] @ affine with t' = t + c - L c, so
        # dMI/d[L, t'] is m_inv^T (the moment over a zero row) affine^T;
        # then dMI/dt = dMI/dt' and dMI/dL = dMI/dL|t' - dMI/dt' c^T.
        g = m_inv[:3, :3].T @ moment @ f_level.affine.T
        gradient = np.empty(12)
        gradient[:3] = g[:, 3]
        gradient[3:] = (g[:, :3] - np.outer(g[:, 3], center)).ravel()
        gradient *= -_UNITS
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

    Returns (transform, diagnostics). Each level records its sample count,
    its final MI, its iterations and cost evaluations, the optimizer's stop
    reason, whether that stop is a convergence, and ``inside``, the fraction
    of its samples inside the moving volume at its solution; the top level
    records the sampling seed, the histogram bins, and ``converged``, which
    holds only if every level converged. Non-convergence is reported, not
    raised; NoOverlap is raised when no sample of the final level is inside.
    """
    moving = _zero_non_finite(moving)
    center = fixed.center
    # Internal parameters (translation, then L - I) map fixed-world ->
    # moving-world; x is them in optimizer units, which are mm for
    # translation. The start aligns the foreground centroids.
    x = np.zeros(12)
    x[:3] = _foreground_centroid(moving) - center

    diagnostics = {"levels": [], "seed": RegistrationConfig.seed,
                   "bins": fixed.levels[0].bins}
    for f_level in fixed.levels:
        m_level = _level(moving, f_level.factor, f_level.sigma)
        value, gradient = _level_cost(f_level, m_level, center)
        res = optimize.minimize(
            value, x, jac=gradient, method="L-BFGS-B", bounds=_UNIT_BOUNDS,
            # maxcor: corrections kept for the inverse-Hessian estimate
            options={"ftol": RegistrationConfig.reduction_tol,
                     "gtol": RegistrationConfig.convergence_tol, "maxcor": 12},
        )
        x = res.x
        coords = _moving_voxels(f_level, invert(m_level.affine), center, x)
        nmax = np.reshape(m_level.dims, (3, 1)) - 1
        diagnostics["levels"].append({
            "factor": int(f_level.factor),
            "samples": int(f_level.fgT.shape[1]),
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
