"""Curvature diagnostics: how measure mass scales against ellipsoid content.

A measure is k-curved with exponent alpha when mu(B) <= C * |B|_k^alpha for
every centered ellipsoid B, |B|_k being the product of the k largest
semi-lengths.  Everything here works with finite search families: frames
(orthonormal axis systems) crossed with per-axis dyadic semi-lengths, with a
scale floor so that atomic measures do not trivially blow the ratio up.
Estimates are therefore certified lower bounds for the true constant, with a
deterministic local refinement to tighten them.  The constant search, the
min-content search at every mass level and the slab check read one (frames x
length tuples) table, _centred_masses, kept on the family with the last
measure it swept: a family keeps that measure alive; both searches maximise
one objective(mass, content) on it and in refinement (_grid_then_refine).
Every table comes from _sweep, which tiles the (frame, centre) rows of a
run of frames, so small frames share one count and one histogram call.  The
slab, Gaussian, weak-type and radius-quantile checks read the level masses
mu({f <= t}) of a per-atom value f from one primitive, _level_masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product

import numpy as np

from . import parallel
from .geometry import (FRAME_TOL, Ellipsoid, k_content, matrix_content,
                       _check_frame, _freeze, _inside)
from .measure import WeightedPointMeasure, _check_k_alpha, check_integer, eval_measure

MODES = ("scale_floored_search", "doubling_dyadic")
GAUSSIAN_LOWER_TOL = 1e-12  # relative tolerances of lab's records and slab's all_ok
GAUSSIAN_CONTENT_TOL = SLAB_TOL = MAXIMAL_TOL = 1e-9


def dyadic_exponents(x: float) -> tuple:
    """(floor, ceil) of log2(x) for a positive finite x, exactly: from the
    binary exponent of math.frexp, where math.log2 can round across an
    integer next to a power of two."""
    mantissa, exp = math.frexp(x)
    return exp - 1, exp - (mantissa == 0.5)


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
        frames = tuple(np.array(f, dtype=float) for f in self.frames)
        if not frames:
            raise ValueError("family needs at least one frame")
        d = frames[0].shape[0]
        for f in frames:
            _check_frame(f)
            if f.shape[0] != d:
                raise ValueError("all frames must share one dimension")
            f.setflags(write=False)
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
        object.__setattr__(self, "frames", frames)
        _freeze(self, length_grid=grid)
        object.__setattr__(self, "_swept", (None, None))  # see _centred_masses

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

    def length_tuples(self) -> np.ndarray:
        """(T, d) table of per-axis semi-length assignments."""
        return np.array(list(product(self.effective_lengths, repeat=self.dim)))

    @classmethod
    def dyadic(cls, dim: int, j_min: int, j_max: int, frames=None,
               floor: float = 0.0, mode: str = "scale_floored_search") -> "EllipsoidFamily":
        if j_max < j_min:
            raise ValueError("j_max must be at least j_min")
        frames = (np.eye(dim),) if frames is None else tuple(frames)
        grid = 2.0 ** np.arange(j_min, j_max + 1)
        return cls(frames=frames, length_grid=grid, floor=floor, mode=mode)


def default_frames(dim: int, n_random: int = 64, seed: int = 0,
                   points: np.ndarray = None, n_pca: int = 8) -> list:
    """Coordinate frame, data-adapted principal frames, and random rotations.

    Principal frames come from the full cloud (both raw second moment and
    centered covariance) and from seeded random atom subsets, so flat or
    stretched directions in the data show up as candidate axes.
    """
    for name, count in (("n_random", n_random), ("n_pca", n_pca), ("seed", seed)):
        check_integer(name, count)
    rng = np.random.default_rng(seed)
    frames = [np.eye(dim)]
    if points is not None and len(points) >= 2:
        pts = np.asarray(points, dtype=float)
        size = min(len(pts), max(dim + 1, 8))
        subsets = [pts[rng.choice(len(pts), size=size, replace=False)] for _ in range(n_pca)]
        centred = [x - x.mean(axis=0) for x in [pts, *subsets]]
        frames += list(np.linalg.eigh(np.stack([x.T @ x for x in [pts, *centred]]))[1])
    q, r = np.linalg.qr(rng.standard_normal((n_random, dim, dim)))
    return frames + list(q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :])


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
        if floor is not None:
            raise ValueError(f"doubling_dyadic mode does not take a floor, got {floor}")
        floor_val = 0.0
    else:
        floor_val = mu.median_nn if floor is None else float(floor)
    if j_max is None:
        j_max = dyadic_exponents(2.0 * (mu.max_radius or 1.0))[1]
    if j_min is None:
        j_min = dyadic_exponents(floor_val)[0] if floor_val > 0.0 else j_max - 12
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


def ratios(num, den) -> np.ndarray:
    """num / den elementwise, with 0/0 = 0 and m/0 = inf for m > 0."""
    num = np.asarray(num, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(num == 0.0, 0.0, num / den)


def curvature_ratio(mu: WeightedPointMeasure, ellipsoid: Ellipsoid, k: int,
                    alpha: float) -> float:
    """mu(B) / |B|_k^alpha by the conventions of ratios; |B|_k = inf reads 0."""
    return float(ratios(eval_measure(mu, ellipsoid), k_content(ellipsoid, k) ** alpha))


def _top_k_products(tuples: np.ndarray, k: int) -> np.ndarray:
    return np.prod(np.sort(tuples, axis=1)[:, ::-1][:, :k], axis=1)


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


# atom x prefix entries per tile, ~18 bytes each of _workspace (2.4 MB): timed
# against 2^16, 8-9% less sweep wall time for ~1.2 MB more per worker; 2^18 no faster
SWEEP_BLOCK = 1 << 17
FRAME_WORK = 1 << 22  # member x atom x centre tests per block of frames


def _workspace(pairs: int, n_len: int, d: int) -> tuple:
    """(floats, count, mask) for tiles of up to `pairs` (row, atom) pairs: two
    float64 regions for prefixes or thresholds, and a count and a compare mask
    entry per prefix and pair."""
    n_pre = n_len ** (d - 1)
    return (np.empty((2, pairs * max(n_len, n_pre))),
            np.empty(pairs * n_pre, np.min_scalar_type(n_len)), np.empty(pairs * n_pre, bool))


def _counts(z: np.ndarray, invsq: np.ndarray, work: tuple = None) -> np.ndarray:
    """(..., L**(d-1), N) counts, per length prefix of the first d - 1 axes
    and atom, of the last-axis lengths admitting the atom, for atom
    coordinates z (..., N, d) relative to the centre and inverse squared
    lengths invsq (L,); one byte wide below 256 lengths.

    An atom is inside when s <= 1.0, s summing (z_a * z_a) * (1.0 / l_a) ** 2
    left to right over the axes as geometry._inside does (for d >= 3 the
    order decides atoms on s == 1; +0.0 + the first term is that term).
    s falls as the last length grows, so the count of admitting lengths
    locates the first one.  Each prefix p meets the last term t =
    fl(q_last * invsq[l]) in one compare: fl(p + t) <= 1.0 exactly when
    p <= u = RD(1 + 2^-53 - t), as x -> fl(p + x) is monotone and, rounding
    to nearest even, fl(y) <= 1.0 exactly when y <= 1 + 2^-53 (the midpoint
    rounds to 1.0).  u = (1 - ceil(t 2^53) 2^-53) + 2^-53 is exact: so are
    the scalings and ceil; so is 1 - c for c <= 2 (c is a multiple of 2^-53
    in [0, 0.5], or Sterbenz's lemma applies); so is the last add, but at
    t = 0, where it rounds to 1.0, the right answer.  For t > 1, u < 0 <= p,
    and u = -inf when t 2^53 overflows: no length admits the atom.

    The arrays are views of work (or of a _workspace made here): prefixes
    alternate between its float regions, ending in the first; u fills the second.
    """
    *batch, n, d = z.shape
    n_len, n_pre, pairs = len(invsq), len(invsq) ** (d - 1), math.prod(batch) * n
    floats, count, below = work or _workspace(pairs, n_len, d)
    q = np.moveaxis(z * z, -1, -2)[..., None, :]  # (..., d, 1, N): atoms innermost
    prefix = 0.0 if d == 1 else np.multiply(invsq[:, None], q[..., 0, :, :], out=floats[
        d % 2][:pairs * n_len].reshape(*batch, n_len, n))
    for a in range(1, d - 1):  # prefix a reads one region and writes the other
        term = invsq[:, None] * q[..., a, :, :]
        out = floats[(d - a) % 2][:pairs * n_len ** (a + 1)].reshape(*batch, n_len ** a, n_len, n)
        prefix = np.add(prefix[..., :, None, :], term[..., None, :, :], out=out).reshape(
            *batch, n_len ** (a + 1), n)
    count, below = (r[:pairs * n_pre].reshape(*batch, n_pre, n) for r in (count, below))
    count.fill(0)
    u = np.multiply(invsq[:, None], q[..., d - 1, :, :],  # t, made u in place: (..., L, N)
                    out=floats[1][:pairs * n_len].reshape(*batch, n_len, n))
    with np.errstate(over="ignore"):  # t 2^53 = inf gives u = -inf, as it should
        np.ceil(np.multiply(u, 2.0 ** 53, out=u), out=u)
    np.add(np.subtract(1.0, np.multiply(u, 2.0 ** -53, out=u), out=u), 2.0 ** -53, out=u)
    for l in range(n_len):
        count += np.less_equal(prefix, u[..., l:l + 1, :], out=below)
    return count


def _sweep(points: np.ndarray, centers: np.ndarray, frames, values: np.ndarray,
           weights: np.ndarray, tile: int, mirror: bool, work: tuple = None) -> np.ndarray:
    """Masses (F, P, L**d), in itertools.product order, of the members with
    semi-lengths from the increasing grid values centred at centers (P, d)
    in each of the F frames, for atoms points (N, d): per (frame, centre) row
    and length prefix, the weights are histogrammed at the atoms' _counts
    (the last bin: no length admits) and summed from the top.  Without
    mirror, a tile is `tile` consecutive rows of the flattened (frame,
    centre) table, so one _counts and one np.bincount cover many small
    frames; coordinates are rows of the whole products points @ frame and
    centers @ frame (a matmul's fused multiply-adds decide boundary atoms).
    Under mirror (the centres are the atoms) a tile of centres [a, b) of one
    frame counts the atoms [a, N): a in c + B if and only if c in a + B for
    a centred B, and z_j - z_i = -(z_i - z_j) exactly, so either atom may be
    the centre.  Its counts go directly to the rows a..b and, transposed, to
    the rows b..N; np.add.at adds in sequence, so each centre gets the atoms
    of earlier tiles, ascending, before its own row.  Tiles reuse work (or a
    _workspace made here), the int64 bins and weight copy over _counts' float
    regions, so memory is bounded by it and the histogram; whatever the tile,
    each bin sums its weights left to right in ascending atom order.
    """
    (n, d), p, n_len = points.shape, centers.shape[0], values.shape[0]
    invsq, n_pre = (1.0 / values) ** 2, n_len ** (d - 1)
    row = n_pre * (n_len + 1)
    cells = (n_len + 1) * np.arange(n_pre)[:, None]
    hist = np.zeros(len(frames) * p * row)
    work = work or _workspace(min(tile, len(frames) * p) * n, n_len, d)
    ints = work[0][0].view(np.int64)

    def binned(count, at, w):  # raveled in work: count + the offsets of rows at, weights w
        bins = np.add(count, cells + row * at, out=ints[:count.size].reshape(count.shape))
        copy = work[0][1][:count.size].reshape(count.shape)
        copy[...] = w
        return bins.ravel(), copy.ravel()

    def coords(a, b):  # (b - a, N, d): the atoms around the centres of rows a..b
        return np.concatenate([points @ frames[f] - (centers @ frames[f])[
            max(0, a - f * p):b - f * p, None] for f in range(a // p, (b - 1) // p + 1)])

    def rows(a, b):
        count = _counts(coords(a, b), invsq, work)
        bins, w = binned(count, np.arange(b - a)[:, None, None], weights)
        hist[a * row:b * row] = np.bincount(bins, w, minlength=(b - a) * row)

    def mirrored(z, a, b, out):  # out: the frame's histogram from row a on
        count = _counts(z[a:] - z[a:b, None, :], invsq, work)  # (b - a, n_pre, n - a)
        np.add.at(out, *binned(count, np.arange(b - a)[:, None, None], weights[a:]))
        np.add.at(out, *binned(count[:, :, b - a:], np.arange(b - a, n - a),
                               weights[a:b, None, None]))

    if mirror:
        for f, frame in enumerate(frames):
            z = points @ frame
            for a in range(0, p, tile):
                mirrored(z, a, min(a + tile, p), hist[(f * p + a) * row:(f + 1) * p * row])
    else:
        for a in range(0, len(frames) * p, tile):
            rows(a, min(a + tile, len(frames) * p))
    masses = np.cumsum(hist.reshape(-1, n_len + 1)[:, ::-1], axis=-1)[:, :n_len]
    return masses.reshape(len(frames), p, n_len ** d)


def _frame_masses(mu: WeightedPointMeasure, family: EllipsoidFamily,
                  centers: np.ndarray, reduce) -> list:
    """reduce(masses) per frame, in frame order, with masses (P, T): row i
    holds the members centred at centers[i] in length_tuples order.  Runs of
    frames holding at least FRAME_WORK tests, set by P, N and T alone, go to
    map_blocks; a run goes to _sweep (tiles of SWEEP_BLOCK atom x prefix
    entries) `step` frames a call: one if mirrored (the N atoms are the
    centres), else as many as keep the histogram within SWEEP_BLOCK entries.
    A call's masses are freed, but what reduce keeps, before the next call.
    The calling thread makes a _workspace, of a tile or a call if smaller, for
    each block that can run at once; a running block holds one.
    """
    if family.dim != mu.dim:
        raise ValueError(f"family dimension {family.dim} does not match the "
                         f"measure's {mu.dim}")
    values, frames = family.effective_lengths, family.frames
    n_pre, p = len(values) ** (mu.dim - 1), centers.shape[0]
    tile = max(1, SWEEP_BLOCK // (mu.n_atoms * n_pre))
    run = -(-FRAME_WORK // max(1, n_pre * len(values) * mu.n_atoms * p))
    mirror = np.array_equal(centers, mu.points)
    step = 1 if mirror else max(1, SWEEP_BLOCK // max(1, p * n_pre * (len(values) + 1)))
    ranges = [(s, min(s + run, len(frames))) for s in range(0, len(frames), run)]
    spare = [_workspace(min(tile, step * p) * mu.n_atoms, len(values), mu.dim)
             for _ in range(min(parallel.worker_count(), len(ranges)))]

    def swept(a, b):
        work = spare.pop()  # a block per worker runs at once; pop and append are atomic
        masses = [r for s in range(a, b, step) for r in map(reduce, _sweep(
            mu.points, centers, frames[s:min(s + step, b)], values, mu.weights, tile, mirror,
            work))]
        spare.append(work)
        return masses

    return [r for block in parallel.map_blocks(swept, ranges) for r in block]


def _givens(d: int, i: int, j: int, theta: float) -> np.ndarray:
    g = np.eye(d)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i], g[i, j], g[j, i], g[j, j] = c, -s, s, c
    return g


def _refine(frame: np.ndarray, lengths: np.ndarray, floor: float, budget: int, score_fn):
    """First-improvement hill climb of score_fn over axis rescalings and
    small rotations: (score, frame, lengths) after at most budget moves.

    Moves are tried in a fixed cycle and only strictly higher scores are
    accepted.  Lengths never go below the floor.
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
                    q, r = np.linalg.qr(fr @ _givens(d, i, j, theta))
                    yield q * np.sign(np.diag(r)), ln

    best, evals, improved = score_fn(frame, lengths), 0, True
    while improved:
        improved = False
        for cand_frame, cand_lengths in islice(proposals(frame, lengths), budget - evals):
            score = score_fn(cand_frame, cand_lengths)
            evals += 1
            if score > best:
                best, frame, lengths, improved = score, cand_frame, cand_lengths, True
                break
    return best, frame, lengths


def _single_mass(mu: WeightedPointMeasure, frame: np.ndarray,
                 lengths: np.ndarray) -> float:
    return float(np.sum(mu.weights[_inside(mu.points @ frame, lengths)]))


def _centred_masses(mu: WeightedPointMeasure, family: EllipsoidFamily) -> np.ndarray:
    """Read-only (frames, T) masses of the members centred at the origin,
    kept on the family with the last measure swept: its identity is the key,
    and holding it keeps the key from being reused."""
    swept_mu, masses = family._swept
    if swept_mu is not mu:
        masses = np.concatenate(_frame_masses(mu, family, np.zeros((1, mu.dim)),
                                              lambda masses: masses))
        masses.setflags(write=False)
        object.__setattr__(family, "_swept", (mu, masses))
    return masses


def _grid_then_refine(mu: WeightedPointMeasure, family: EllipsoidFamily, k: int,
                      objective, refine: int, fallback=None) -> Ellipsoid:
    """Witness of the largest objective(mass, content) over the centred
    members, content the product of the k largest semi-lengths, refined.

    One expression scores the (frames, T) table of _centred_masses and each
    refinement proposal's _single_mass.  Each frame's best column is its
    start, except that a frame whose best score is -inf has none;
    fallback() gives the start (value, frame, lengths) if no frame has one.
    The best three starts get refine // n_starts evaluations each, and only
    a strictly higher refined score replaces the best.
    """
    tuples = family.length_tuples()
    table = objective(_centred_masses(mu, family), _top_k_products(tuples, k))
    cols = np.argmax(table, axis=1)
    best = table[np.arange(len(cols)), cols]
    starts = [(float(v), frame, tuples[t]) for v, frame, t in zip(best, family.frames, cols)
              if v != -math.inf] or [fallback()]
    starts.sort(key=lambda s: s[0], reverse=True)

    def score(frame, lengths):
        return objective(_single_mass(mu, frame, lengths),
                         _top_k_products(lengths[None, :], k)[0])

    best = starts[0]
    if refine > 0:
        n_starts = min(3, len(starts))
        refined = [_refine(np.array(frame), np.array(lengths, dtype=float), family.floor,
                           max(1, refine // n_starts), score)
                   for _, frame, lengths in starts[:n_starts]]
        best = max([best, *refined], key=lambda s: s[0])  # the first of the highest
    return Ellipsoid(best[2], frame=best[1])


def estimate_curvature_constant(mu: WeightedPointMeasure, k: int, alpha: float,
                                family: EllipsoidFamily,
                                refine: int = 160) -> CurvatureEstimate:
    """Grid sweep plus local refinement of the mass-to-content ratio.

    Monotone in family enlargement by construction.  refine is the local
    search evaluation budget (0 disables it).
    """
    _check_k_alpha(mu, k, alpha)
    check_integer("refine", refine)
    witness = _grid_then_refine(mu, family, k,
                                lambda mass, content: mass / content ** alpha, refine)
    constant = curvature_ratio(mu, witness, k, alpha)
    return CurvatureEstimate(alpha=alpha, constant=constant, witness=witness,
                             family_size=family.size)


def min_content_at_mass(mu: WeightedPointMeasure, k: int, eps: float,
                        family: EllipsoidFamily, refine: int = 160):
    """Smallest k-content found among centered ellipsoids of mass >= eps.

    Returns (delta_hat, witness) with delta_hat an upper bound for the true
    infimum.  For k = 1 the infimum is exact: an ellipsoid is contained in
    the ball of its largest semi-length, so centered balls are optimal and
    the answer is the radius quantile at mass eps.  Otherwise the search
    maximises -content, -inf below mass eps: negation is exact, and argmax
    and the descending stable sort break ties as argmin and an ascending
    sort of the contents would.
    """
    _check_k_alpha(mu, k)
    check_integer("refine", refine)  # before the k = 1 branch, which does not refine
    if not 0 < eps <= mu.total_mass + 1e-9:
        raise ValueError(f"eps must lie in (0, total mass], got {eps}")
    eps_eff = eps - 1e-9 * max(1.0, eps)
    if k == 1:
        radii, mass = _level_masses(mu.radii, mu.weights)
        radius = float(radii[min(np.searchsorted(mass, eps_eff), radii.size - 1)])
        return radius, Ellipsoid.ball(radius, mu.dim)

    def grow_ball():
        # grid top end too small for this mass level: grow balls until feasible
        radius = float(family.effective_lengths[-1])
        for _ in range(128):
            radius *= 2.0
            if eval_measure(mu, Ellipsoid.ball(radius, mu.dim)) >= eps_eff:
                return -radius ** k, np.eye(mu.dim), np.full(mu.dim, radius)
        raise RuntimeError("could not reach the requested mass level")

    witness = _grid_then_refine(mu, family, k, lambda mass, content: np.where(
        mass >= eps_eff, -content, -math.inf), refine, fallback=grow_ball)
    return k_content(witness, k), witness


# ---------------------------------------------------------------------------
# Gaussian test functions


def gaussian_integral(mu: WeightedPointMeasure, q: np.ndarray) -> float:
    """Exact atom sum of exp(-||Q x||^2) against the measure."""
    arg = mu.points @ np.asarray(q, dtype=float).T
    return float(np.sum(mu.weights * np.exp(-np.einsum("nd,nd->n", arg, arg))))


def gaussian_lower_check(mu: WeightedPointMeasure, q: np.ndarray) -> tuple:
    """exp(-1) * mu({||Qx||^2 <= 1}) <= integral of exp(-||Qx||^2).

    Pointwise exp(-||Qx||^2) >= exp(-1) on the sublevel set, so this holds
    exactly; its record's GAUSSIAN_LOWER_TOL only absorbs summation roundoff.
    """
    q = np.asarray(q, dtype=float)
    img = mu.points @ q.T
    s = np.einsum("nd,nd->n", img, img)
    lhs = math.exp(-1.0) * float(np.sum(mu.weights[s <= 1.0]))
    rhs = gaussian_integral(mu, q)
    return lhs, rhs


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
    breaks, masses = (v.tolist() for v in _level_masses(
        np.linalg.norm(mu.points @ q.T, axis=1), mu.weights))
    # one exp per break: the tail of each piece is the head of the next
    heads = [math.exp(-b * b) for b in breaks] + [0.0]
    rhs = 0.0
    for m_, head, tail in zip(masses, heads, heads[1:]):
        rhs += m_ * (head - tail)
    denom = abs(lhs) if lhs != 0.0 else 1.0
    return lhs, rhs, abs(lhs - rhs) / denom


def gaussian_content_check(mu: WeightedPointMeasure, q: np.ndarray, k: int,
                           alpha: float) -> tuple:
    """Gaussian integral against the dyadic curvature constant of Q's ellipsoid.

    If mu(t E_Q) <= C (t^k |Q|_k)^alpha along dyadic t covering the support,
    the layer decomposition gives

        integral <= Gamma(k alpha / 2 + 1) * 2^(k alpha) * C * |Q|_k^alpha,

    the 2^(k alpha) paying for rounding t up to the next dyadic level.
    Returns (lhs, bound, c_dyadic).
    """
    q = np.asarray(q, dtype=float)
    lhs = gaussian_integral(mu, q)
    qk = matrix_content(q, k)
    if not math.isfinite(qk):
        return lhs, math.inf, 0.0
    levels, mass = _level_masses(np.linalg.norm(mu.points @ q.T, axis=1),
                                 mu.weights)
    charged = levels[mass > 0.0]  # from the smallest norm that carries weight
    if charged.size == 0 or charged[0] == 0.0:
        # mass sits at ||Qx|| = 0: no dyadic level has zero mass below it
        return lhs, math.inf, math.inf
    j_lo = dyadic_exponents(float(charged[0]))[0] - 1
    j_hi = dyadic_exponents(float(levels[-1]))[1]
    c_dyadic = 0.0
    for j in range(j_lo + 1, j_hi + 1):
        t = 2.0 ** j
        at = int(np.searchsorted(levels, t, side="right"))
        below = float(mass[at - 1]) if at else 0.0
        c_dyadic = max(c_dyadic, below / (t ** k * qk) ** alpha)
    bound = math.gamma(k * alpha / 2.0 + 1.0) * 2.0 ** (k * alpha) * c_dyadic * qk ** alpha
    return lhs, bound, c_dyadic


# ---------------------------------------------------------------------------
# slab condition


def slab_constant(mu: WeightedPointMeasure, k: int, alpha: float,
                  bases) -> float:
    """sup over flats and slab widths of mu({dist <= delta}) / delta^(alpha k).

    Each flat is the span through the origin of the rows of a (k-1, d)
    basis array, orthonormal within FRAME_TOL; translate the points for an
    affine flat.  Widths range over the distinct positive atom distances,
    which dominate all real widths (shrinking delta to the nearest atom
    distance below only increases the ratio).  Mass within 1e-12 *
    max_radius of a flat, a tolerance that dilates with the measure, makes
    the sup infinite.
    """
    _check_k_alpha(mu, k, alpha)
    zero_tol = 1e-12 * mu.max_radius
    best = 0.0
    for i, basis in enumerate(bases):
        basis = np.asarray(basis, dtype=float)
        if basis.shape != (k - 1, mu.dim):
            raise ValueError(f"slab basis {i} must have shape (k-1, d) = "
                             f"{(k - 1, mu.dim)}, got {basis.shape}")
        err = np.max(np.abs(basis @ basis.T - np.eye(k - 1)), initial=0.0)
        if not err <= FRAME_TOL:
            raise ValueError(f"slab basis {i} rows not orthonormal (defect {err:.3e})")
        dist, mass = _level_masses(np.linalg.norm(
            mu.points - (mu.points @ basis.T) @ basis, axis=1), mu.weights)
        off = int(np.searchsorted(dist, zero_tol, side="right"))
        if off and mass[off - 1] > 0.0:
            return math.inf
        if off < dist.size:
            best = max(best, float(np.max(mass[off:] / dist[off:] ** (alpha * k))))
    return best


def slab_implication_check(mu: WeightedPointMeasure, k: int, alpha: float,
                           family: EllipsoidFamily) -> tuple:
    """Slab control implies the ellipsoid bound: checked for every member.

    Every point of B lies within its k-th largest semi-length of the span of
    the top k-1 axes, so mu(B) <= C_slab * l_k^(alpha k) <= C_slab * |B|_k^alpha
    once the slab family contains each member's top-axis span.  A span
    depends only on the frame and on which axes are longest, so each
    distinct flat enters slab_constant once; the bound depends only on the
    length tuple, and the member masses are the rows of _centred_masses.
    Returns (c_slab, all_ok, worst, n_checked): worst is the largest member
    mass / bound by the conventions of ratios (an infinite bound reads 0),
    and all_ok holds when it is at most 1 + SLAB_TOL.
    """
    _check_k_alpha(mu, k, alpha)
    masses = _centred_masses(mu, family)
    semi = family.length_tuples()
    tops = np.unique(np.argsort(-semi, axis=1, kind="stable")[:, :k - 1], axis=0)
    bases = [frame[:, axes].T for frame in family.frames for axes in tops]
    c_slab = slab_constant(mu, k, alpha, bases)
    bound = c_slab * np.sort(semi, axis=1)[:, mu.dim - k] ** (alpha * k)
    worst = float(np.max(ratios(masses, bound)))
    return c_slab, worst <= 1.0 + SLAB_TOL, worst, masses.size


# ---------------------------------------------------------------------------
# maximal function


def _maximal(mu: WeightedPointMeasure, k: int, family: EllipsoidFamily,
             centers: np.ndarray, reducers) -> list:
    """One maximal function per (alpha, inner) reducer, from one sweep.

    The inner members are the columns of the full length table whose
    lengths all lie below the top grid value.  Their masses equal a sweep
    of the inner table bit for bit: the same atoms fall in the same
    histogram bins in the same order.  With the atoms as centres (the
    maximal check) _sweep counts each pair of atoms once.
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
    per_frame = _frame_masses(mu, family, centers, lambda masses: [
        np.max(masses[:, c] / content_a, axis=1) for c, content_a in zip(cols, contents_a)])
    return [np.max(sups, axis=0) for sups in zip(*per_frame)]


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


def _check_p(p: float) -> None:
    # at p = inf, (t ** p * mass) ** (1 / p) reads 1.0 whatever the data
    if not (p > 0 and math.isfinite(p)):
        raise ValueError(f"p must be positive and finite, got {p}")


def weak_lp_norm(values, weights, p: float) -> float:
    """Weak L^p norm (sup_t t^p mu(|f| > t))^(1/p), exact for finite data.

    The sup is attained as t increases to a distinct value of |f|, where the
    super-level mass is mu(|f| >= value), the level mass of -|f|.
    """
    _check_p(p)
    v = np.abs(np.asarray(values, dtype=float))
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape:
        raise ValueError("values and weights must have matching shape")
    if np.isnan(v).any():
        raise ValueError("values must not be NaN")
    if not np.all(np.isfinite(w) & (w >= 0.0)):
        raise ValueError("weights must be finite and nonnegative")
    neg, mass_ge = _level_masses(-v, w)
    keep = neg < 0.0  # none: the norm is 0.0
    return float(np.max((-neg[keep]) ** p * mass_ge[keep], initial=0.0)) ** (1.0 / p)


def maximal_weak_bound_check(mu: WeightedPointMeasure, k: int, alpha: float,
                             p: float, family: EllipsoidFamily) -> tuple:
    """Self-improvement of the maximal function under the doubling family.

    If F_alpha has finite weak L^p norm then the maximal function at the
    smaller exponent alpha p / (p+1) is uniformly bounded:

        max over atoms of F_inner <= 2^(alpha k) * ||F_alpha||_{p,inf}^(p/(p+1)),

    where F_inner takes the sup over members whose double stays in the
    family (that is exactly what the covering argument consumes).  Both
    come from one sweep of the family around every atom, F_inner reading
    its inner columns.  Returns (lhs, rhs); lhs is 0.0 when no atom
    carries mass.
    """
    _check_p(p)
    f_full, f_inner = _maximal(mu, k, family, mu.points,
                               [(alpha, False), (alpha * p / (p + 1.0), True)])
    wk = weak_lp_norm(f_full, mu.weights, p)
    positive = mu.weights > 0.0
    lhs = float(np.max(f_inner[positive], initial=0.0))
    rhs = 2.0 ** (alpha * k) * wk ** (p / (p + 1.0))
    return lhs, rhs
