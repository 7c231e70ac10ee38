"""Curvature diagnostics: how measure mass scales against ellipsoid content.

A measure is k-curved with exponent alpha when mu(B) <= C * |B|_k^alpha for
every centered ellipsoid B, |B|_k being the product of the k largest
semi-lengths.  Everything here works with finite search families: frames
(orthonormal axis systems) crossed with per-axis dyadic semi-lengths, with a
scale floor so that atomic measures do not trivially blow the ratio up.
Estimates are therefore certified lower bounds for the true constant, with a
deterministic local refinement to tighten them.  The slab, Gaussian,
weak-type and radius-quantile checks read the level masses mu({f <= t}) of a
per-atom value f from one primitive, _level_masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .geometry import (AffineSubspace, Ellipsoid, k_content, matrix_content,
                       _axis_sum, _check_frame)
from .measure import (WeightedPointMeasure, _check_k_alpha, eval_measure,
                      median_nn_distance)

MODES = ("scale_floored_search", "doubling_dyadic")


@dataclass(frozen=True)
class EllipsoidFamily:
    """Finite family of centered ellipsoids: frames x per-axis length grid.

    scale_floored_search: grid values are dyadic lengths clamped below by
    the floor h, and the floor value itself is a grid point, so the family
    always contains the floor-scale ball.

    doubling_dyadic: pure powers of two with consecutive exponents, hence
    closed under B -> 2B as long as the doubled exponents stay in range.
    """

    frames: tuple
    length_grid: np.ndarray
    floor: float = 0.0
    mode: str = "scale_floored_search"

    def __post_init__(self):
        frames = tuple(np.asarray(f, dtype=float) for f in self.frames)
        if not frames:
            raise ValueError("family needs at least one frame")
        d = frames[0].shape[0]
        for f in frames:
            _check_frame(f)
            if f.shape[0] != d:
                raise ValueError("all frames must share one dimension")
        grid = np.asarray(self.length_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("length_grid must be a nonempty vector")
        if np.any(grid <= 0) or not np.all(np.isfinite(grid)):
            raise ValueError("grid lengths must be positive and finite")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("length_grid must be strictly increasing")
        if not (np.isfinite(self.floor) and self.floor >= 0):
            raise ValueError("floor must be a finite nonnegative length")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "doubling_dyadic":
            if self.floor != 0.0:
                raise ValueError("doubling_dyadic mode does not take a floor")
            if grid.size > 1 and np.any(grid[1:] != 2.0 * grid[:-1]):
                raise ValueError("doubling_dyadic grid must be consecutive doublings")
        grid = grid.copy()
        grid.setflags(write=False)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "length_grid", grid)

    @property
    def dim(self) -> int:
        return self.frames[0].shape[0]

    @property
    def effective_lengths(self) -> np.ndarray:
        if self.mode == "scale_floored_search" and self.floor > 0.0:
            above = self.length_grid[self.length_grid > self.floor]
            return np.concatenate(([self.floor], above))
        return self.length_grid

    @property
    def size(self) -> int:
        return len(self.frames) * len(self.effective_lengths) ** self.dim

    def length_tuples(self, inner: bool = False) -> np.ndarray:
        """(T, d) table of per-axis semi-length assignments.

        inner=True keeps only assignments whose doubling stays inside the
        grid (doubling_dyadic mode), i.e. drops the largest grid value.
        """
        values = self.effective_lengths
        if inner:
            if self.mode != "doubling_dyadic":
                raise ValueError("inner tuples only make sense in doubling_dyadic mode")
            values = values[:-1]
            if values.size == 0:
                raise ValueError("grid too small for inner members")
        return np.array(list(product(values, repeat=self.dim)))

    def members(self):
        for frame in self.frames:
            for lengths in self.length_tuples():
                yield Ellipsoid.from_semi_lengths(lengths, frame=frame)

    @classmethod
    def dyadic(cls, dim: int, j_min: int, j_max: int, frames=None,
               floor: float = 0.0, mode: str = "scale_floored_search") -> "EllipsoidFamily":
        if j_max < j_min:
            raise ValueError("j_max must be at least j_min")
        if frames is None:
            frames = (np.eye(dim),)
        grid = 2.0 ** np.arange(j_min, j_max + 1)
        return cls(frames=tuple(frames), length_grid=grid, floor=floor, mode=mode)


def default_frames(dim: int, n_random: int = 64, seed: int = 0,
                   points: np.ndarray = None, n_pca: int = 8) -> list:
    """Coordinate frame, data-adapted principal frames, and random rotations.

    Principal frames come from the full cloud (both raw second moment and
    centered covariance) and from seeded random atom subsets, so flat or
    stretched directions in the data show up as candidate axes.
    """
    rng = np.random.default_rng(seed)
    frames = [np.eye(dim)]

    def pca_frame(pts, center):
        x = pts - pts.mean(axis=0) if center else pts
        moment = x.T @ x
        _, vecs = np.linalg.eigh(moment)
        return vecs

    if points is not None:
        points = np.asarray(points, dtype=float)
        n = points.shape[0]
        if n >= 2:
            frames.append(pca_frame(points, center=False))
            frames.append(pca_frame(points, center=True))
            size = min(n, max(dim + 1, 8))
            for _ in range(n_pca):
                sub = rng.choice(n, size=size, replace=False)
                frames.append(pca_frame(points[sub], center=True))

    for _ in range(n_random):
        raw = rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(raw)
        q = q * np.sign(np.diag(r))
        frames.append(q)
    return frames


def default_family(mu: WeightedPointMeasure, *, n_frames: int = 64, n_pca: int = 8,
                   floor: float = None, j_min: int = None, j_max: int = None,
                   mode: str = "scale_floored_search", seed: int = 0) -> EllipsoidFamily:
    """Data-sized search family for a measure.

    The floor defaults to the median nearest-neighbor distance, which ties
    the smallest ellipsoid to the sampling resolution: on a regular grid
    approximating Lebesgue measure this reproduces the continuum mass-to-
    content ratio at the cell scale.  The dyadic range covers the support
    radius with one doubling of headroom.
    """
    if mode == "doubling_dyadic":
        floor_val = 0.0
    else:
        floor_val = median_nn_distance(mu) if floor is None else float(floor)
    rmax = mu.max_radius
    if rmax <= 0.0:
        rmax = 1.0
    if j_max is None:
        j_max = math.ceil(math.log2(2.0 * rmax))
    if j_min is None:
        if floor_val > 0.0:
            j_min = math.floor(math.log2(floor_val))
        else:
            j_min = j_max - 12
    frames = default_frames(mu.dim, n_random=n_frames, seed=seed,
                            points=mu.points, n_pca=n_pca)
    return EllipsoidFamily.dyadic(mu.dim, j_min, j_max, frames=frames,
                                  floor=floor_val, mode=mode)


@dataclass(frozen=True)
class CurvatureEstimate:
    """Certified lower bound for sup_B mu(B) / |B|_k^alpha over centered B.

    The witness is the maximizing ellipsoid; it is either a family member or
    a floor-respecting local refinement of one, and the constant is always
    the recomputed ratio of the witness itself.
    """

    alpha: float
    constant: float
    witness: Ellipsoid
    family_size: int


def curvature_ratio(mu: WeightedPointMeasure, ellipsoid: Ellipsoid, k: int,
                    alpha: float) -> float:
    """mu(B) / |B|_k^alpha with the conventions 0/0 = 0 and m/0 = inf for m > 0."""
    mass = eval_measure(mu, ellipsoid)
    content = k_content(ellipsoid, k)
    if content == 0.0:
        return 0.0 if mass == 0.0 else math.inf
    if math.isinf(content):
        return 0.0
    return mass / content ** alpha


def _top_k_products(tuples: np.ndarray, k: int) -> np.ndarray:
    ordered = np.sort(tuples, axis=1)[:, ::-1]
    return np.prod(ordered[:, :k], axis=1)


def _level_masses(values: np.ndarray, weights: np.ndarray) -> tuple:
    """(levels, mass): the distinct values in increasing order and
    mass[i] = mu({f <= levels[i]}), the cumulative weight in stable sorted
    order read at the last atom of each level."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    cum = np.cumsum(weights[order])
    last = np.ones(ordered.size, dtype=bool)
    last[:-1] = ordered[:-1] != ordered[1:]
    return ordered[last], cum[last]


SWEEP_BLOCK = 1 << 14  # atom x prefix entries per block of centres


def _sweep(z: np.ndarray, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Masses (..., L**d), in itertools.product order, of the ellipsoids with
    semi-lengths from the increasing grid values, for atom coordinates z
    (..., N, d) in their frame relative to their centre.

    An atom is inside when s <= 1.0, s summing (z_a * z_a) * (1.0 / l_a) ** 2
    left to right over the axes as in geometry._axis_sum, which
    _single_mass and Ellipsoid.contains_many use too (for d >= 3 the order
    decides atoms on s == 1, and squaring the rounded inverse length, as
    Ellipsoid does with its stored inv_lengths, can differ from 1.0 / l ** 2
    in the last bit).  s falls as the last length grows, so per
    atom and prefix of the other lengths the count of admitting last-axis
    lengths gives the first one; weights are histogrammed there and summed
    cumulatively.
    """
    *batch, n, d = z.shape
    n_len = values.shape[0]
    invsq = (1.0 / values) ** 2
    q = np.moveaxis(z * z, -1, -2)[..., None, :]  # (..., d, 1, N): atoms innermost
    prefix = np.zeros((*batch, 1, n))
    for a in range(d - 1):
        term = invsq[:, None] * q[..., a, :, :]
        prefix = (prefix[..., :, None, :] + term[..., None, :, :]).reshape(*batch, -1, n)
    count = np.zeros(prefix.shape, dtype=np.intp)
    for v in invsq:
        count += prefix + q[..., d - 1, :, :] * v <= 1.0

    n_cells = count.size // n
    bins = count.reshape(n_cells, n) + (n_len + 1) * np.arange(n_cells)[:, None]
    w = np.broadcast_to(weights, (n_cells, n))
    hist = np.bincount(bins.ravel(), weights=w.ravel(), minlength=n_cells * (n_len + 1))
    masses = np.cumsum(hist.reshape(n_cells, n_len + 1)[:, ::-1], axis=-1)[:, :n_len]
    return masses.reshape(*batch, -1)


def _frame_masses(mu: WeightedPointMeasure, family: EllipsoidFamily,
                  tuples: np.ndarray, centers: np.ndarray):
    """Per frame, (frame, masses) with masses (P, T): row i holds the
    members centred at centers[i]."""
    if family.dim != mu.dim:
        raise ValueError(f"family dimension {family.dim} does not match the "
                         f"measure's {mu.dim}")
    values = np.unique(tuples)
    step = max(1, SWEEP_BLOCK // (mu.n_atoms * len(values) ** (mu.dim - 1)))
    for frame in family.frames:
        z = mu.points @ frame
        zc = centers @ frame
        masses = np.empty((zc.shape[0], tuples.shape[0]))
        for i in range(0, zc.shape[0], step):
            masses[i:i + step] = _sweep(z - zc[i:i + step, None, :], values,
                                        mu.weights)
        yield frame, masses


def _givens(d: int, i: int, j: int, theta: float) -> np.ndarray:
    g = np.eye(d)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def _refine(frame: np.ndarray, lengths: np.ndarray, floor: float, budget: int,
            score_fn, minimize: bool):
    """First-improvement hill climb over axis rescalings and small rotations.

    Deterministic: moves are tried in a fixed cycle and only strict
    improvements are accepted.  Lengths never go below the floor.
    """
    d = lengths.shape[0]
    step = 2.0 ** 0.25
    angles = (0.3, -0.3, 0.1, -0.1, 0.03, -0.03)

    def proposals(fr, ln):
        for a in range(d):
            for s in (step, 1.0 / step):
                cand = ln.copy()
                cand[a] = max(cand[a] * s, floor) if floor > 0 else cand[a] * s
                if cand[a] != ln[a]:
                    yield fr, cand
        for i in range(d):
            for j in range(i + 1, d):
                for theta in angles:
                    rot = fr @ _givens(d, i, j, theta)
                    q, r = np.linalg.qr(rot)
                    yield q * np.sign(np.diag(r)), ln

    best = score_fn(frame, lengths)
    evals = 0
    improved = True
    while improved and evals < budget:
        improved = False
        for cand_frame, cand_lengths in proposals(frame, lengths):
            if evals >= budget:
                break
            score = score_fn(cand_frame, cand_lengths)
            evals += 1
            if (score < best) if minimize else (score > best):
                frame, lengths, best = cand_frame, cand_lengths, score
                improved = True
                break
    return frame, lengths, best


def _single_mass(mu: WeightedPointMeasure, frame: np.ndarray,
                 lengths: np.ndarray) -> float:
    z = mu.points @ frame
    s = _axis_sum(z * z * (1.0 / lengths) ** 2)
    return float(np.sum(mu.weights[s <= 1.0]))


def _grid_then_refine(mu: WeightedPointMeasure, family: EllipsoidFamily,
                      tuples: np.ndarray, pick, score, refine: int,
                      minimize: bool, fallback=None) -> Ellipsoid:
    """Witness of a grid search over the centred members, refined locally.

    pick turns a frame's swept masses into a start (value, tuple index) or
    None; fallback() gives the start (value, frame, lengths) if no frame
    has one.  The best three starts get refine // n_starts evaluations each,
    and only a strictly better refined score replaces the best.
    """
    starts = []
    for frame, masses in _frame_masses(mu, family, tuples, np.zeros((1, mu.dim))):
        start = pick(masses[0])
        if start is not None:
            starts.append((start[0], frame, tuples[start[1]]))
    starts = starts or [fallback()]
    starts.sort(key=lambda s: s[0], reverse=not minimize)

    best_score, best_frame, best_lengths = starts[0]
    if refine > 0:
        n_starts = min(3, len(starts))
        for _, frame, lengths in starts[:n_starts]:
            fr, ln, sc = _refine(np.array(frame), np.array(lengths, dtype=float),
                                 family.floor, max(1, refine // n_starts), score,
                                 minimize)
            if (sc < best_score) if minimize else (sc > best_score):
                best_score, best_frame, best_lengths = sc, fr, ln
    return Ellipsoid.from_semi_lengths(best_lengths, frame=best_frame)


def estimate_curvature_constant(mu: WeightedPointMeasure, k: int, alpha: float,
                                family: EllipsoidFamily,
                                refine: int = 160) -> CurvatureEstimate:
    """Grid sweep plus local refinement of the mass-to-content ratio.

    Monotone in family enlargement by construction.  refine is the local
    search evaluation budget (0 disables it).
    """
    _check_k_alpha(mu, k, alpha)
    tuples = family.length_tuples()
    contents_a = _top_k_products(tuples, k) ** alpha

    def pick(masses):
        ratios = masses / contents_a
        t = int(np.argmax(ratios))
        return float(ratios[t]), t

    def score(frame, lengths):
        content = float(_top_k_products(lengths[None, :], k)[0])
        if content <= 0.0:
            return -math.inf
        return _single_mass(mu, frame, lengths) / content ** alpha

    witness = _grid_then_refine(mu, family, tuples, pick, score, refine,
                                minimize=False)
    constant = curvature_ratio(mu, witness, k, alpha)
    return CurvatureEstimate(alpha=alpha, constant=constant, witness=witness,
                             family_size=family.size)


def min_content_at_mass(mu: WeightedPointMeasure, k: int, eps: float,
                        family: EllipsoidFamily, refine: int = 160):
    """Smallest k-content found among centered ellipsoids of mass >= eps.

    Returns (delta_hat, witness) with delta_hat an upper bound for the true
    infimum.  For k = 1 the infimum is exact: an ellipsoid is contained in
    the ball of its largest semi-length, so centered balls are optimal and
    the answer is the radius quantile at mass eps.
    """
    _check_k_alpha(mu, k)
    total = mu.total_mass
    eps_eff = eps - 1e-9 * max(1.0, eps)
    if not 0 < eps <= total + 1e-9:
        raise ValueError(f"eps must lie in (0, total mass], got {eps}")

    if k == 1:
        radii, mass = _level_masses(mu.radii, mu.weights)
        pos = min(int(np.searchsorted(mass, eps_eff)), radii.size - 1)
        r = float(radii[pos])
        return r, Ellipsoid.ball(r, mu.dim)

    tuples = family.length_tuples()
    contents = _top_k_products(tuples, k)

    def pick(masses):
        feasible = masses >= eps_eff
        if not np.any(feasible):
            return None
        cand = np.where(feasible, contents, math.inf)
        t = int(np.argmin(cand))
        return float(cand[t]), t

    def grow_ball():
        # grid top end too small for this mass level: grow balls until feasible
        radius = float(family.effective_lengths[-1])
        for _ in range(128):
            radius *= 2.0
            if eval_measure(mu, Ellipsoid.ball(radius, mu.dim)) >= eps_eff:
                return radius ** k, np.eye(mu.dim), np.full(mu.dim, radius)
        raise RuntimeError("could not reach the requested mass level")

    def score(frame, lengths):
        if _single_mass(mu, frame, lengths) < eps_eff:
            return math.inf
        return float(_top_k_products(lengths[None, :], k)[0])

    witness = _grid_then_refine(mu, family, tuples, pick, score, refine,
                                minimize=True, fallback=grow_ball)
    return k_content(witness, k), witness


# ---------------------------------------------------------------------------
# Gaussian test functions


def gaussian_integral(mu: WeightedPointMeasure, q: np.ndarray, x0=None) -> float:
    """Exact atom sum of exp(-||Q x - x0||^2) against the measure."""
    q = np.asarray(q, dtype=float)
    x0 = np.zeros(q.shape[0]) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (q.shape[0],):
        raise ValueError(f"x0 must have shape ({q.shape[0]},), got {x0.shape}")
    arg = mu.points @ q.T - x0
    return float(np.sum(mu.weights * np.exp(-np.einsum("nd,nd->n", arg, arg))))


def gaussian_lower_check(mu: WeightedPointMeasure, q: np.ndarray,
                         rel_tol: float = 1e-12) -> tuple:
    """exp(-1) * mu({||Qx||^2 <= 1}) <= integral of exp(-||Qx||^2).

    Pointwise exp(-||Qx||^2) >= exp(-1) on the sublevel set, so this holds
    exactly; rel_tol only absorbs summation roundoff.
    """
    q = np.asarray(q, dtype=float)
    img = mu.points @ q.T
    s = np.einsum("nd,nd->n", img, img)
    lhs = math.exp(-1.0) * float(np.sum(mu.weights[s <= 1.0]))
    rhs = gaussian_integral(mu, q)
    return lhs, rhs, lhs <= rhs * (1.0 + rel_tol)


def layer_cake_check(mu: WeightedPointMeasure, q: np.ndarray) -> tuple:
    """Compare the Gaussian integral against its radial layer decomposition.

    With m(t) = mu({||Qx|| <= t}),

        integral exp(-||Qx||^2) dmu = 2 int_0^inf t exp(-t^2) m(t) dt,

    and m is a step function of t with breakpoints at the atom values
    ||Q p_i||, so the right side is a finite sum of closed-form pieces
    (int_a^b 2 t e^{-t^2} dt = e^{-a^2} - e^{-b^2}).  Returns
    (lhs, rhs, rel_err).
    """
    q = np.asarray(q, dtype=float)
    lhs = gaussian_integral(mu, q)
    breaks, masses = _level_masses(np.linalg.norm(mu.points @ q.T, axis=1),
                                   mu.weights)
    rhs = 0.0
    for i, (a, m_) in enumerate(zip(breaks, masses)):
        b2 = breaks[i + 1] ** 2 if i + 1 < len(breaks) else math.inf
        tail = 0.0 if math.isinf(b2) else math.exp(-b2)
        rhs += m_ * (math.exp(-a * a) - tail)
    denom = abs(lhs) if lhs != 0.0 else 1.0
    return lhs, rhs, abs(lhs - rhs) / denom


def gaussian_content_check(mu: WeightedPointMeasure, q: np.ndarray, k: int,
                           alpha: float, rel_tol: float = 1e-9) -> tuple:
    """Gaussian integral against the dyadic curvature constant of Q's ellipsoid.

    If mu(t E_Q) <= C (t^k |Q|_k)^alpha along dyadic t covering the support,
    the layer decomposition gives

        integral <= Gamma(k alpha / 2 + 1) * 2^(k alpha) * C * |Q|_k^alpha,

    the 2^(k alpha) paying for rounding t up to the next dyadic level.
    Returns (lhs, bound, c_dyadic, ok).
    """
    q = np.asarray(q, dtype=float)
    lhs = gaussian_integral(mu, q)
    qk = matrix_content(q, k)
    if not math.isfinite(qk):
        return lhs, math.inf, 0.0, True
    levels, mass = _level_masses(np.linalg.norm(mu.points @ q.T, axis=1),
                                 mu.weights)
    charged = levels[mass > 0.0]  # from the smallest norm that carries weight
    if charged.size == 0 or charged[0] == 0.0:
        # mass sits at ||Qx|| = 0: no dyadic level has zero mass below it
        return lhs, math.inf, math.inf, True
    j_lo = math.floor(math.log2(float(charged[0]))) - 1
    j_hi = math.ceil(math.log2(float(levels[-1])))
    c_dyadic = 0.0
    for j in range(j_lo + 1, j_hi + 1):
        t = 2.0 ** j
        at = int(np.searchsorted(levels, t, side="right"))
        below = float(mass[at - 1]) if at else 0.0
        c_dyadic = max(c_dyadic, below / (t ** k * qk) ** alpha)
    bound = math.gamma(k * alpha / 2.0 + 1.0) * 2.0 ** (k * alpha) * c_dyadic * qk ** alpha
    return lhs, bound, c_dyadic, lhs <= bound * (1.0 + rel_tol)


# ---------------------------------------------------------------------------
# slab condition


def slab_constant(mu: WeightedPointMeasure, k: int, alpha: float,
                  subspaces) -> float:
    """sup over flats and slab widths of mu({dist <= delta}) / delta^(alpha k).

    Widths range over the distinct positive atom distances, which dominate
    all real widths (shrinking delta to the nearest atom distance below only
    increases the ratio).  Mass at distance zero makes the sup infinite.
    """
    _check_k_alpha(mu, k, alpha)
    zero_tol = 1e-12 * max(1.0, mu.max_radius)
    best = 0.0
    for flat in subspaces:
        if flat.dim != k - 1:
            raise ValueError(f"slab flats must have dimension k-1={k - 1}, got {flat.dim}")
        if flat.ambient_dim != mu.dim:
            raise ValueError("flat ambient dimension mismatch")
        dist, mass = _level_masses(flat.distance_many(mu.points), mu.weights)
        off = int(np.searchsorted(dist, zero_tol, side="right"))
        if off and mass[off - 1] > 0.0:
            return math.inf
        if off < dist.size:
            best = max(best, float(np.max(mass[off:] / dist[off:] ** (alpha * k))))
    return best


def top_axes_flat(ellipsoid: Ellipsoid, k: int) -> AffineSubspace:
    """Span of the k-1 longest axes of a centered ellipsoid (stable ties)."""
    order = np.argsort(-ellipsoid.semi_lengths, kind="stable")
    basis = ellipsoid.frame[:, order[:k - 1]].T
    return AffineSubspace(base_point=ellipsoid.center, basis=basis)


def slab_implication_check(mu: WeightedPointMeasure, k: int, alpha: float,
                           family: EllipsoidFamily, max_members: int = 4096,
                           rel_tol: float = 1e-9) -> tuple:
    """Slab control implies the ellipsoid bound: checked member by member.

    Every point of B lies within its k-th largest semi-length of the span of
    the top k-1 axes, so mu(B) <= C_slab * l_k^(alpha k) <= C_slab * |B|_k^alpha
    once the slab family contains each member's top-axis span.  A span
    depends only on the frame and on which axes are longest, so each
    distinct flat enters slab_constant once.  Returns
    (c_slab, all_ok, worst_margin, n_checked).
    """
    _check_k_alpha(mu, k, alpha)
    if max_members < 1:
        raise ValueError(f"max_members must be at least 1, got {max_members}")
    tuples = family.length_tuples()
    swept = np.concatenate([m[0] for _, m in _frame_masses(
        mu, family, tuples, np.zeros((1, mu.dim)))])
    members = np.arange(0, swept.shape[0], -(-swept.shape[0] // max_members))
    frame_of, tuple_of = np.divmod(members, len(tuples))
    # semi-lengths as an Ellipsoid stores them: 1 / (1 / l) may differ from l
    semi = 1.0 / (1.0 / tuples[tuple_of])
    top = np.argsort(-semi, axis=1, kind="stable")[:, :k - 1]
    _, firsts = np.unique(np.column_stack([frame_of, top]), axis=0,
                          return_index=True)
    flats = [top_axes_flat(Ellipsoid.from_semi_lengths(
        tuples[tuple_of[i]], frame=family.frames[frame_of[i]]), k) for i in firsts]
    c_slab = slab_constant(mu, k, alpha, flats)
    bound = c_slab * np.sort(semi, axis=1)[:, mu.dim - k] ** (alpha * k)
    mass = swept[members]
    ok = (mass <= bound * (1.0 + rel_tol)) | np.isinf(bound)
    return c_slab, bool(np.all(ok)), float(np.min(bound - mass)), len(members)


# ---------------------------------------------------------------------------
# maximal function


def _maximal(mu: WeightedPointMeasure, k: int, family: EllipsoidFamily,
             centers: np.ndarray, reducers) -> list:
    """One maximal function per (alpha, inner) reducer, from one sweep.

    The inner members are the columns of the full length table whose
    lengths all lie below the top grid value.  Their masses equal a sweep
    of the inner table bit for bit: the same atoms fall in the same
    histogram bins in the same order.
    """
    if family.mode != "doubling_dyadic":
        raise ValueError("maximal_function needs a doubling_dyadic family")
    for alpha, _ in reducers:
        _check_k_alpha(mu, k, alpha)
    tuples = family.length_tuples()
    inner_cols = np.all(tuples < family.effective_lengths[-1], axis=1)
    if not inner_cols.any() and any(inner for _, inner in reducers):
        raise ValueError("grid too small for inner members")
    contents = _top_k_products(tuples, k)
    cols = [inner_cols if inner else slice(None) for _, inner in reducers]
    contents_a = [contents[c] ** alpha for c, (alpha, _) in zip(cols, reducers)]
    outs = [np.zeros(centers.shape[0]) for _ in reducers]
    for _, masses in _frame_masses(mu, family, tuples, centers):
        for out, c, content_a in zip(outs, cols, contents_a):
            np.maximum(out, np.max(masses[:, c] / content_a, axis=1), out=out)
    return outs


def maximal_function(mu: WeightedPointMeasure, k: int, alpha: float,
                     family: EllipsoidFamily, eval_points: np.ndarray = None,
                     inner: bool = False) -> np.ndarray:
    """F(y) = sup over the family of mu(y + B) / |B|_k^alpha.

    Requires a doubling_dyadic family.  inner=True restricts the sup to
    members whose doubled lengths stay inside the grid, the subfamily for
    which the covering step y' + 2B over y + B never leaves the family.
    eval_points must be a finite (P, d) array (default: the atoms).
    """
    pts = mu.points if eval_points is None else np.asarray(eval_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != mu.dim:
        raise ValueError(f"eval_points must be a (P, {mu.dim}) array, "
                         f"got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("eval_points must be finite")
    return _maximal(mu, k, family, pts, [(alpha, inner)])[0]


def weak_lp_norm(values, weights, p: float) -> float:
    """Weak L^p norm (sup_t t^p mu(|f| > t))^(1/p), exact for finite data.

    The sup is attained as t increases to a distinct value of |f|, where the
    super-level mass is mu(|f| >= value), the level mass of -|f|.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    v = np.abs(np.asarray(values, dtype=float))
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape:
        raise ValueError("values and weights must have matching shape")
    if np.isnan(v).any():
        raise ValueError("values must not be NaN")
    if not np.all(np.isfinite(w) & (w >= 0.0)):
        raise ValueError("weights must be finite and nonnegative")
    neg, mass_ge = _level_masses(-v, w)
    keep = neg < 0.0
    if not np.any(keep):
        return 0.0
    best = float(np.max((-neg[keep]) ** p * mass_ge[keep]))
    return best ** (1.0 / p)


def maximal_weak_bound_check(mu: WeightedPointMeasure, k: int, alpha: float,
                             p: float, family: EllipsoidFamily,
                             rel_tol: float = 1e-9) -> tuple:
    """Self-improvement of the maximal function under the doubling family.

    If F_alpha has finite weak L^p norm then the maximal function at the
    smaller exponent alpha p / (p+1) is uniformly bounded:

        max over atoms of F_inner <= 2^(alpha k) * ||F_alpha||_{p,inf}^(p/(p+1)),

    where F_inner takes the sup over members whose double stays in the
    family (that is exactly what the covering argument consumes).  Both
    come from one sweep of the family around every atom, F_inner reading
    its inner columns.  Returns (lhs, rhs, ok).
    """
    if not p > 0:
        raise ValueError("p must be positive")
    f_full, f_inner = _maximal(mu, k, family, mu.points,
                               [(alpha, False), (alpha * p / (p + 1.0), True)])
    wk = weak_lp_norm(f_full, mu.weights, p)
    positive = mu.weights > 0.0
    lhs = float(np.max(f_inner[positive]))
    rhs = 2.0 ** (alpha * k) * wk ** (p / (p + 1.0))
    return lhs, rhs, lhs <= rhs * (1.0 + rel_tol)
