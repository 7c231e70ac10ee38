"""Multilinear forms with determinant-power kernels on discrete measures.

det_form evaluates the (k+1)-linear form

    sum over tuples of  prod_j f_j(y_j) w(y_j) * det(y_1, ..., y_{k+1})^(-gamma)

by exact enumeration; det_form_pinned is the k-linear variant with the first
vertex pinned at the origin.  Tuples whose determinant is at or below a
threshold tau are excluded from the sum and counted separately, for every
sign of gamma, so inverse powers never divide by (numerical) zero.

Every exact quantity (the forms, sublevel_mass, dyadic_profile) comes from
one enumerator, _enumerate.  It cuts the tuples into fixed blocks, each one
rectangle: the leading slots' entries as (R, 1) rows broadcast against a
slice of the last slot.  A product block takes the rows its flat range
touches and reduces a view of its own tuples; when all slots are alike the
rows are the nondecreasing prefixes, weighted along the last slot by their
multiplicities, 0 below the diagonal.  Blocks combine in block order with
math.fsum, so values do not depend on the worker count.  Rectangles and
sampled draws (CHUNK at a time) form their terms in _tuple_terms from slot
columns made once per call; one pass can reduce to several exponents:
cauchy_schwarz_check's three forms.

An index set E_j enters only by restricting slot j to its atoms, so set
forms enumerate and count E_1 x ... x E_k, with the whole measure's tau.

Exact enumeration is capped by a budget on the tuples it evaluates; beyond it
callers must switch to det_form_sampled, an unbiased uniform-tuple Monte
Carlo estimate whose integrand is formed in the same fixed blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry, parallel
from .measure import WeightedPointMeasure, _check_k_alpha, check_integer

DEFAULT_BUDGET = 10_000_000
TAU_SCALE = 1e-12
CAUCHY_SCHWARZ_TOL = 1e-12  # relative, of lab's cauchy-schwarz-duality record
# Sampled draws a block forms at once: ~2 MB of columns, differences and
# minor-table products at k = 3, not a whole block's ~24 MB.  Terms are per draw.
CHUNK = 1 << 14


class BudgetExceededError(RuntimeError):
    """Exact enumeration would exceed the tuple budget; use det_form_sampled."""


@dataclass(frozen=True)
class FunctionalResult:
    value: float
    tuples_total: int
    tuples_excluded: int
    stderr: float | None = None  # None in exact mode


@dataclass(frozen=True)
class DyadicProfile:
    """Masses of determinant layers {2^l <= det < 2^(l+1)} over a set family."""

    layers: dict
    gamma: float
    l_min: int | None
    l_max: int | None
    included_mass: float
    excluded_mass: float


def default_det_threshold(measures, k: int) -> float:
    """Exclusion threshold: TAU_SCALE times the product of per-slot scale maxima.

    For k copies of one measure this is TAU_SCALE * (max radius)^k.  The
    product form makes the threshold exactly covariant under per-measure
    dilations, which keeps the dilation identity for sublevel masses exact.
    """
    if isinstance(measures, WeightedPointMeasure):
        measures = [measures] * k
    return TAU_SCALE * math.prod(mu.max_radius for mu in measures)


def difference_threshold(measures) -> float:
    """Unpinned-form threshold TAU_SCALE * (2R)^k, R the largest atom distance
    to the pooled weighted centroid: 2R bounds every atom difference, and a
    common translation moves the centroid along, leaving tau unchanged."""
    pts = np.concatenate([m_.points for m_ in measures])
    w = np.concatenate([m_.weights for m_ in measures])
    center = np.average(pts, axis=0, weights=w if np.sum(w) > 0.0 else None)
    spread = 2.0 * float(np.max(np.linalg.norm(pts - center, axis=1)))
    return TAU_SCALE * spread ** (len(measures) - 1)


def _check_gamma(gamma) -> None:
    """A named error for a kernel exponent that is nan or infinite."""
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")


def _values_for_slots(measures, fs):
    """Per-slot atom values f_j * w_j, validating shapes and signs."""
    vals = []
    for j, mu in enumerate(measures):
        w = mu.weights
        if fs is not None and fs[j] is not None:
            f = np.asarray(fs[j], dtype=float)
            if f.shape != (mu.n_atoms,):
                raise ValueError(f"fs[{j}] must have one value per atom")
            if np.any(f < 0) or not np.all(np.isfinite(f)):
                raise ValueError(f"fs[{j}] must be finite and nonnegative")
            vals.append(f * w)
        else:
            vals.append(w)
    return vals


def _prefixes(n: int, m: int) -> tuple:
    """The nondecreasing (m-1)-tuples over [0, n), m >= 2, in colex order
    (by last entry, then by the entry before it, ...), as per-slot index
    arrays, and the multiplicities of the m-tuples they head: m times the
    prefix's number of distinct permutations when the m-th entry exceeds
    the prefix's last, that over c when it equals it, c the equal entries.

    The tuples ending in q extend the shorter ones whose last entry is at
    most q, a leading part of the shorter list, so each length is one
    segmented arange over the one before.
    """
    idx, mult, run = [np.arange(n)], np.ones(n), np.ones(n)
    for length in range(2, m):
        counts = np.searchsorted(idx[-1], np.arange(n), side="right")
        sel = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        last = np.repeat(np.arange(n), counts)
        run = np.where(idx[-1][sel] == last, run[sel] + 1.0, 1.0)
        mult = length * mult[sel] / run
        idx = [ix[sel] for ix in idx] + [last]
    return idx, m * mult, m * mult / (run + 1.0)


def _row_ranges(n: int, m: int) -> tuple:
    """(fixed row ranges [a, b) of _prefixes(n, m), tuples they evaluate).

    Range [a, b) is a rectangle: its rows against the last-slot atoms
    [p, n), p the last entry of row a.  It takes at most BLOCK // (n - p)
    rows, one at least, and none whose last entry exceeds p + (n - p) // 8,
    so at most an eighth of it lies below the diagonal.
    """
    rows = math.comb(n + m - 2, m - 1)
    ranges, visited, a, p = [], 0, 0, 0
    while a < rows:
        while math.comb(p + m - 1, m - 1) <= a:  # the rows ending at or below p
            p += 1
        width = n - p
        b = min(a + max(1, parallel.BLOCK // width),
                math.comb(min(n, p + 1 + width // 8) + m - 2, m - 1))
        ranges.append((a, b))
        visited += (b - a) * width
        a = b
    return ranges, visited


def _tuple_terms(cols_list, values_list, idx, pinned: bool):
    """Determinants and left-to-right slot-value products of a block of
    tuples, in the shape the keys broadcast to: idx[j] indexes slot j's
    contiguous coordinate columns cols_list[j] and its values_list[j], as an
    index array (sampled draws, a rectangle's (R, 1) leading slots) or a
    tuple key such as np.s_[None, lo:hi] (a rectangle's last slot)."""
    # the determinant temporaries are freed before the products are allocated
    dets = geometry._vertex_dets([[col[key] for col in cols] for cols, key
                                  in zip(cols_list, idx)], pinned)
    wprod = values_list[0][idx[0]]
    for values, key in zip(values_list[1:], idx[1:]):
        if isinstance(key, tuple):  # a rectangle's last slot widens the product
            wprod = wprod * values[key]
        else:
            wprod *= values[key]
    return dets, wprod


def _enumerate(points_list, values_list, tau: float, pinned: bool,
               symmetric: bool, budget: int, reduce):
    """(ordered tuple count, excluded count, [reduce(dets, wprod, included)
    per block]) over the product of the slots, in block order.

    Every block is one rectangle: leading-slot rows of shape (R, 1)
    broadcast against a contiguous slice of the last slot.  A product block
    [start, stop) of the fixed flat partition (last slot fastest) takes the
    rows it touches, against the whole last slot if there are several, and
    reduces the raveled view of its own tuples, so its values do not depend
    on the worker count.  symmetric=True, where every slot holds the same
    points and values, takes the rows of _prefixes in the fixed ranges of
    _row_ranges instead, each row weighted along its tail by the
    multiplicities, 0 below the diagonal.  Only here are the tuples with
    det <= tau excluded (included is dets > tau) and counted, by
    multiplicity.  The budget caps the tuples the rectangles evaluate.
    """
    sizes = [p.shape[0] for p in points_list]
    total, m, n = math.prod(sizes), len(sizes), sizes[-1]
    symmetric = symmetric and m > 1  # one slot: the same tuples either way
    # the nondecreasing tuples bound the rectangles' count from below
    visited = math.comb(n + m - 1, m) if symmetric else total
    if symmetric and visited <= budget:
        ranges, visited = _row_ranges(n, m)
    if visited > budget:
        raise BudgetExceededError(
            f"{visited} tuples to enumerate ({total} ordered) exceed the "
            f"exact budget {budget}")
    cols_list = [np.ascontiguousarray(p.T) for p in points_list]
    if symmetric:
        rows, above, on = _prefixes(n, m)
    else:
        ranges = parallel.block_ranges(total)

    def rectangle(lead, lo, hi):
        keys = [ix[:, None] for ix in lead] + [np.s_[None, lo:hi]]
        return _tuple_terms(cols_list, values_list, keys, pinned)

    def block(start, stop):
        if symmetric:
            p = rows[-1][start]
            dets, wprod = rectangle([ix[start:stop] for ix in rows], p, n)
            shift = rows[-1][start:stop] - p
            valid = np.arange(n - p) >= shift[:, None]
            mult = valid * above[start:stop, None]
            mult[np.arange(stop - start), shift] = on[start:stop]
            dets *= valid
            dets, wprod, mult = dets.ravel(), wprod.ravel(), mult.ravel()
        else:
            # a trailing unit axis gives the single row of a single slot
            (r0, c0), (r1, c1) = divmod(start, n), divmod(stop - 1, n)
            lo, hi = (c0, c1 + 1) if r1 == r0 else (0, n)
            lead = np.unravel_index(np.arange(r0, r1 + 1), sizes[:-1] + [1])[:-1]
            view = slice(c0 - lo, c0 - lo + stop - start)
            dets, wprod = (x.ravel()[view] for x in rectangle(lead, lo, hi))
        included = dets > tau
        if symmetric:
            wprod *= mult
            return reduce(dets, wprod, included), float(np.sum(mult[~included]))
        return reduce(dets, wprod, included), float(included.size - np.count_nonzero(included))

    blocks = parallel.map_blocks(block, ranges)
    return total, int(round(math.fsum(b[1] for b in blocks))), [b[0] for b in blocks]


def _enumerate_form(points_list, values_list, tau: float, symmetric: bool,
                    gammas, pinned: bool, budget: int) -> list:
    """Exact forms at each exponent in gammas, from one enumeration over the
    product of the slots (see _enumerate for symmetric)."""
    for g in gammas:
        _check_gamma(g)

    def reduce(dets, wprod, included):
        w_in, d_in = wprod[included], dets[included]
        return [float(np.sum(w_in if g == 0.0 else w_in * d_in ** (-g)))
                for g in gammas]

    total, excluded, results = _enumerate(points_list, values_list, tau, pinned,
                                          symmetric, budget, reduce)
    return [FunctionalResult(value=math.fsum(r[i] for r in results),
                             tuples_total=total, tuples_excluded=excluded)
            for i in range(len(gammas))]


def _form_slots(mu, k: int, fs, tau, pinned: bool):
    """(slot points, slot values, tau, symmetric) of a form of order k on one
    measure or a list of k (pinned) or k+1 slot measures of one dimension
    d >= k (at k > d every determinant is 0, and every tuple excluded),
    with no density or one per slot: tau defaults to the slots' threshold,
    and symmetric holds when every slot has one measure and one density, so
    the nondecreasing tuples suffice."""
    check_integer("k", k, 1)
    m = k if pinned else k + 1
    measures = [mu] * m if isinstance(mu, WeightedPointMeasure) else list(mu)
    if len(measures) != m:
        raise ValueError(f"expected {m} measures, got {len(measures)}")
    if fs is not None and len(fs) != m:
        raise ValueError(f"fs must hold one density per slot ({m}), got {len(fs)}")
    dims = sorted({m_.dim for m_ in measures})
    if len(dims) > 1:
        raise ValueError(f"slot measures must share one dimension, got {dims}")
    _check_k_alpha(measures[0], k)
    if tau is None:
        tau = (default_det_threshold(measures, k) if pinned
               else difference_threshold(measures))
    symmetric = all(x is measures[0] for x in measures) and (
        fs is None or all(f is None for f in fs) or all(f is fs[0] for f in fs))
    return ([m_.points for m_ in measures], _values_for_slots(measures, fs),
            tau, symmetric)


def det_form(mu, k: int, gamma: float, fs=None, *, tau: float = None,
             budget: int = DEFAULT_BUDGET) -> FunctionalResult:
    """Exact (k+1)-fold determinant-kernel form.

    The kernel is det^(-gamma): pass a negative gamma for positive
    determinant powers.  fs is an optional list of k+1 per-atom density
    vectors (None entries mean the constant 1).  When all slots share one
    measure and one density, rectangles of nondecreasing tuples with
    multiplicity weights cut the determinant work by nearly (k+1)!.
    """
    return _enumerate_form(*_form_slots(mu, k, fs, tau, pinned=False), (gamma,),
                           pinned=False, budget=budget)[0]


def det_form_pinned(mu, k: int, gamma: float, fs=None, *, tau: float = None,
                    budget: int = DEFAULT_BUDGET) -> FunctionalResult:
    """Exact k-fold form with one vertex pinned at the origin.

    Same kernel and exclusion conventions as det_form; dets here are
    det(0, y_1, ..., y_k).
    """
    return _enumerate_form(*_form_slots(mu, k, fs, tau, pinned=True), (gamma,),
                           pinned=True, budget=budget)[0]


def det_form_sampled(mu, k: int, gamma: float, *, samples: int,
                     seed: int = 0, tau: float = None,
                     pinned: bool = False) -> FunctionalResult:
    """Unbiased Monte Carlo estimate of det_form (or the pinned variant) with
    density 1 in every slot: the tuple count times the mean integrand over
    uniform draws with replacement; stderr is its standard error.  Block b of
    parallel.block_ranges(samples) draws its slots' indices, slot after slot,
    from the stream SeedSequence(seed).spawn(n_blocks)[b] and reduces its
    integrand to (sum, squared deviations from its mean); the blocks combine
    in block order by Chan, Golub and LeVeque's update, so the call holds a
    few MB per worker whatever samples is.
    """
    points_list, vals, tau, _ = _form_slots(mu, k, None, tau, pinned)
    _check_gamma(gamma)
    check_integer("samples", samples, 2)
    check_integer("seed", seed)
    samples, sizes = int(samples), [p.shape[0] for p in points_list]
    cols_list = [np.ascontiguousarray(p.T) for p in points_list]
    ranges = parallel.block_ranges(samples)
    streams = np.random.SeedSequence(seed).spawn(len(ranges))
    # one draw call per block, slot-major; a scalar bound draws ~3x faster
    high = sizes[0] if len(set(sizes)) == 1 else np.array(sizes)[:, None]

    def block(start, stop):
        rng = np.random.default_rng(streams[start // parallel.BLOCK])
        idx = rng.integers(0, high, size=(len(sizes), stop - start))
        # the integrand reuses slot 0's spent indices: one fresh array, fewer page faults
        integrand, excluded = idx[0].view(np.float64), 0
        for s in range(0, stop - start, CHUNK):
            dets, wprod = _tuple_terms(cols_list, vals, [ix[s:s + CHUNK] for ix in idx], pinned)
            included, chunk = dets > tau, integrand[s:s + CHUNK]
            # excluded terms may be inf or nan; d ** -0.0 is 1.0, so gamma = 0 keeps the bits
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                dets **= -gamma
                wprod *= dets
            np.copyto(chunk, 0.0)
            np.copyto(chunk, wprod, where=included)
            excluded += included.size - int(np.count_nonzero(included))
        n, block_sum = stop - start, np.add.reduce(integrand)
        np.square(np.subtract(integrand, block_sum / n, out=integrand), out=integrand)
        return block_sum, np.add.reduce(integrand), n, excluded

    blocks = parallel.map_blocks(block, ranges)
    mean = math.fsum(b[0] for b in blocks) / samples
    m2 = math.fsum(m2_b + n_b * (sum_b / n_b - mean) ** 2 for sum_b, m2_b, n_b, _ in blocks)
    total = math.prod(sizes)
    return FunctionalResult(value=float(total * mean), tuples_total=samples,
                            tuples_excluded=sum(b[3] for b in blocks),
                            stderr=float(total * math.sqrt(m2 / (samples - 1) / samples)))


def sublevel_mass(measures, delta: float, *, budget: int = DEFAULT_BUDGET) -> float:
    """Product-measure mass of {tau < det(0, y_1, ..., y_k) < delta}.

    measures is a list of k probability measures (k = len(measures)); the
    lower cutoff tau, the slots' default_det_threshold, discards degenerate
    tuples just like the forms do.  Exact for discrete measures, and exactly
    covariant under per-measure dilations, which scale tau by the product
    of the dilation factors.
    """
    measures = list(measures)
    points_list, weights_list, tau, _ = _form_slots(measures, len(measures),
                                                    None, None, pinned=True)
    if any(abs(m_.total_mass - 1.0) > 1e-9 for m_ in measures):
        raise ValueError("sublevel_mass expects probability measures")
    if not delta > 0:
        raise ValueError("delta must be positive")

    def reduce(dets, wprod, included):
        return float(np.sum(wprod[included & (dets < delta)]))

    _, _, results = _enumerate(points_list, weights_list, tau, pinned=True,
                               symmetric=False, budget=budget, reduce=reduce)
    return math.fsum(results)


def _index_sets(n: int, sets, k: int) -> list:
    """The k atom-index sets as int arrays: integer entries (or none), each
    in [0, n) and at most once."""
    check_integer("k", k, 1)
    if len(sets) != k:
        raise ValueError(f"expected {k} index sets")
    arrays = []
    for j, s in enumerate(sets):
        try:
            s = np.asarray(s)
        except ValueError:  # ragged nesting has no array shape
            s = None
        if s is None or s.ndim != 1:
            raise ValueError(f"index set {j} must be a flat list of atom indices")
        if s.size and not np.issubdtype(s.dtype, np.integer):
            raise ValueError(f"index set {j} has non-integer entries ({s.dtype})")
        if s.size and (s.min() < 0 or s.max() >= n):
            raise ValueError(f"index set {j} has an index outside [0, {n})")
        if np.unique(s).size != s.size:
            raise ValueError(f"index set {j} repeats an index")
        arrays.append(s.astype(int))
    return arrays


def dyadic_profile(mu: WeightedPointMeasure, k: int, sets, gamma: float) -> DyadicProfile:
    """Layer decomposition of the pinned form over E_1 x ... x E_k.

    sets is a list of k atom-index collections.  Tuples at or below the
    whole measure's tau are excluded; each included tuple lands in the
    layer l = floor(log2 det), the exact binary exponent from np.frexp less
    one; layer masses sum to the included product mass exactly.  Enumeration
    is capped at DEFAULT_BUDGET tuples.  Layers are sorted by 8-bit keys
    counted from tau's exponent, which hold: by Hadamard a pinned det is at
    most R^k = 10^12 tau, about 40 levels up (RuntimeError past 254).
    """
    _check_k_alpha(mu, k)
    sets = _index_sets(mu.n_atoms, sets, k)
    tau = default_det_threshold(mu, k)
    e_tau = int(np.frexp(max(tau, 2.0 ** -1074))[1])  # the smallest subnormal at tau = 0

    def reduce(dets, wprod, included):
        # key 0 excluded, e(det) - e(tau) + 1 >= 1 included: one stable (radix) sort
        # groups the layers in block order, so each layer sum sees the masked order
        keys = (np.frexp(dets)[1] - (e_tau - 1)) * included
        if keys.max() > 255:
            raise RuntimeError(f"a det {keys.max() - 1} levels above tau; dyadic keys hold 254")
        keys = keys.astype(np.uint8)
        wprod = wprod[np.argsort(keys, kind="stable")]
        cuts = np.cumsum(np.bincount(keys)).tolist()
        local = {key + e_tau - 2: float(np.sum(wprod[a:b]))
                 for key, (a, b) in enumerate(zip(cuts, cuts[1:]), 1) if b > a}
        return local, float(np.sum(wprod[:cuts[0]]))

    _, _, results = _enumerate([mu.points[s] for s in sets],
                               [mu.weights[s] for s in sets], tau, pinned=True,
                               symmetric=False, budget=DEFAULT_BUDGET, reduce=reduce)
    layers: dict = {}
    for local, _ in results:
        for l, m_ in local.items():
            layers[l] = layers.get(l, 0.0) + m_
    layers = {l: layers[l] for l in sorted(layers)}
    included_mass = math.fsum(layers.values())
    return DyadicProfile(layers=layers, gamma=gamma,
                         l_min=min(layers) if layers else None,
                         l_max=max(layers) if layers else None,
                         included_mass=included_mass,
                         excluded_mass=math.fsum(exc for _, exc in results))


def cauchy_schwarz_check(mu: WeightedPointMeasure, k: int, gamma: float, sets, *,
                         budget: int = DEFAULT_BUDGET) -> tuple:
    """Duality check (included mass)^2 <= (form at +gamma) * (form at -gamma).

    Both forms run over E_1 x ... x E_k with the whole measure's tau, so
    the inequality is exactly Cauchy-Schwarz on the included tuples and
    must hold to rounding.  Returns (lhs, rhs).
    """
    _check_k_alpha(mu, k)
    sets = _index_sets(mu.n_atoms, sets, k)
    inv, fwd, mass = _enumerate_form(
        [mu.points[s] for s in sets], [mu.weights[s] for s in sets],
        default_det_threshold(mu, k), False,
        (gamma, -gamma, 0.0), pinned=True, budget=budget)
    return mass.value ** 2, fwd.value * inv.value


@dataclass(frozen=True)
class WeakTypeProbeResult:
    sup_ratio: float
    witness: dict
    ratios: list = field(repr=False, default_factory=list)
    trials: int = 0


def _sample_sets(mu: WeightedPointMeasure, k: int, rng, kind: str):
    """Draw k atom-index sets of one structural kind."""
    n = mu.n_atoms
    pts = mu.points
    out = []
    for _ in range(k):
        if kind == "subset":
            size = max(1, int(round(n ** rng.uniform(0.3, 1.0))))
            out.append(rng.choice(n, size=min(size, n), replace=False))
        elif kind == "ball":
            center = pts[rng.integers(0, n)]
            dist = np.linalg.norm(pts - center, axis=1)
            r = np.quantile(dist, rng.uniform(0.05, 0.9))
            out.append(np.flatnonzero(dist <= r))
        elif kind == "halfspace":
            u = rng.standard_normal(mu.dim)
            u /= np.linalg.norm(u)
            proj = pts @ u
            c = np.quantile(proj, rng.uniform(0.1, 0.8))
            out.append(np.flatnonzero(proj >= c))
        else:  # shell
            center = pts[rng.integers(0, n)]
            dist = np.linalg.norm(pts - center, axis=1)
            hi = np.quantile(dist, rng.uniform(0.3, 0.95))
            sel = np.flatnonzero((dist > hi / 2.0) & (dist <= hi))
            out.append(sel if sel.size else np.flatnonzero(dist <= hi))
    return out


def weak_type_probe(mu: WeightedPointMeasure, k: int, gamma: float, alpha: float, *,
                    trials: int = 100, seed: int = 0,
                    budget: int = DEFAULT_BUDGET) -> WeakTypeProbeResult:
    """Empirical sup over set families of the normalized pinned form.

    For each trial a family E_1, ..., E_k is drawn (random subsets, metric
    balls, half-spaces, and shells in rotation) and the ratio

        pinned form over E_1 x ... x E_k / prod_j mu(E_j)^(1 - gamma/(k alpha))

    is recorded with the whole measure's tau.  Requires 0 < gamma < k alpha
    for the exponent to make sense; the sup and its witness are returned.
    """
    _check_k_alpha(mu, k, alpha)
    if not (0 < gamma < k * alpha):
        raise ValueError("need 0 < gamma < k * alpha")
    check_integer("trials", trials, 1)
    check_integer("seed", seed)
    if abs(mu.total_mass - 1.0) > 1e-9:
        raise ValueError("weak_type_probe expects a probability measure")
    tau = default_det_threshold(mu, k)
    rng = np.random.default_rng(seed)
    kinds = ("subset", "ball", "halfspace", "shell")
    exponent = 1.0 - gamma / (k * alpha)

    best = -math.inf
    witness = {}
    ratios = []
    for t in range(trials):
        kind = kinds[t % len(kinds)]
        sets = _sample_sets(mu, k, rng, kind)
        masses = [float(np.sum(mu.weights[s])) for s in sets]
        if any(m_ <= 0.0 for m_ in masses):
            continue
        form, = _enumerate_form([mu.points[s] for s in sets],
                                [mu.weights[s] for s in sets], tau, False,
                                (gamma,), pinned=True, budget=budget)
        ratio = form.value / math.prod(m_ ** exponent for m_ in masses)
        ratios.append(ratio)
        if ratio > best:
            best = ratio
            witness = {
                "kind": kind,
                "trial": t,
                "set_sizes": [int(s.shape[0]) for s in sets],
                "set_masses": masses,
                "form_value": form.value,
                "sets": [np.asarray(s, dtype=int) for s in sets],
            }
    if not ratios:
        raise RuntimeError("no probe trial produced nonempty sets")
    return WeakTypeProbeResult(sup_ratio=best, witness=witness,
                               ratios=ratios, trials=len(ratios))
