"""Multilinear forms with determinant-power kernels on discrete measures.

det_form evaluates the (k+1)-linear form

    sum over tuples of  prod_j f_j(y_j) w(y_j) * det(y_1, ..., y_{k+1})^(-gamma)

by exact enumeration; det_form_pinned is the k-linear variant with the first
vertex pinned at the origin.  Tuples whose determinant is at or below a
threshold tau are excluded from the sum and counted separately, for every
sign of gamma, so inverse powers never divide by (numerical) zero.

Every exact quantity (the forms, sublevel_mass, dyadic_profile) comes from
one enumerator, _enumerate: it walks the tuples in fixed blocks, forms
their determinants and slot-value products, and hands each block to a
reducer; blocks are combined in block order with math.fsum, so values do
not depend on the worker count.  When all slots are alike the blocks
partition the ranks of the nondecreasing tuples, which are unranked
directly and weighted by their multiplicities.  One pass can reduce to
several exponents, which is how cauchy_schwarz_check gets its three forms.

An index set E_j enters only by restricting slot j to its atoms, so set
forms enumerate and count E_1 x ... x E_k, with the whole measure's tau.

Exact enumeration is capped by a budget on the tuples it visits; beyond it
callers must switch to det_form_sampled, an unbiased uniform-tuple Monte
Carlo estimate whose integrand is formed in the same fixed blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry, parallel
from .measure import WeightedPointMeasure, _check_k_alpha

DEFAULT_BUDGET = 10_000_000
TAU_SCALE = 1e-12


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

    def weighted_sum(self) -> float:
        """sum_l 2^(-gamma l) * mass_l, the layer surrogate for the form."""
        return math.fsum(2.0 ** (-self.gamma * l) * m for l, m in self.layers.items())

    def reconstruction_bracket(self) -> tuple:
        """Interval certain to contain the exact pinned form on the same sets.

        Within layer l the kernel det^(-gamma) is between 2^(-gamma(l+1)) and
        2^(-gamma l) (endpoints swapping with the sign of gamma), so the
        weighted sum brackets the form within a factor 2^|gamma| either way.
        """
        s = self.weighted_sum()
        f = 2.0 ** abs(self.gamma)
        return (s / f, s * f)


def default_det_threshold(measures, k: int) -> float:
    """Exclusion threshold: TAU_SCALE times the product of per-slot scale maxima.

    For k copies of one measure this is TAU_SCALE * (max radius)^k.  The
    product form makes the threshold exactly covariant under per-measure
    dilations, which keeps the dilation identity for sublevel masses exact.
    """
    if isinstance(measures, WeightedPointMeasure):
        measures = [measures] * k
    prod = 1.0
    for mu in measures:
        prod *= mu.max_radius
    return TAU_SCALE * prod


def difference_threshold(measures) -> float:
    """Unpinned-form threshold TAU_SCALE * (2R)^k, R the largest atom distance
    to the pooled weighted centroid: 2R bounds every atom difference, and a
    common translation moves the centroid along, leaving tau unchanged."""
    pts = np.concatenate([m_.points for m_ in measures])
    w = np.concatenate([m_.weights for m_ in measures])
    center = np.average(pts, axis=0, weights=w if np.sum(w) > 0.0 else None)
    spread = 2.0 * float(np.max(np.linalg.norm(pts - center, axis=1)))
    return TAU_SCALE * spread ** (len(measures) - 1)


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


def _decode(flat: np.ndarray, sizes) -> list:
    """Mixed-radix decode of flat tuple indices into per-slot index arrays."""
    idx = [None] * len(sizes)
    rem = flat
    for j in range(len(sizes) - 1, -1, -1):
        rem, idx[j] = np.divmod(rem, sizes[j])
    return idx


def _rank_tables(n: int, m: int) -> list:
    """tables[L - 1][v]: the number of nondecreasing length-L tuples over
    [0, n) that start below v, the sum over u < v of C(n-u+L-2, L-1)."""
    return [np.array([math.comb(n + L - 1, L) - math.comb(n - v + L - 1, L)
                      for v in range(n + 1)], dtype=np.int64)
            for L in range(1, m + 1)]


def _unrank(ranks: np.ndarray, tables) -> list:
    """Per-slot index arrays of the nondecreasing tuples with the given
    lexicographic ranks (combinations with repetition, Knuth 7.2.1.3)."""
    idx = []
    low = np.zeros_like(ranks)
    for cum in tables[:0:-1]:
        # position among all tuples of this length, then its first entry
        pos = ranks + cum[low]
        low = np.searchsorted(cum, pos, side="right") - 1
        ranks = pos - cum[low]
        idx.append(low)
    # one entry left: the remaining rank counts up from the previous entry
    idx.append(low + ranks)
    return idx


def _tuple_terms(points_list, values_list, idx, pinned: bool):
    """Determinants and slot-value products of the index tuples; idx[j]
    holds the atom indices of slot j."""
    # coordinates are gathered from contiguous columns and freed with the
    # determinant temporaries before the products are allocated
    dets = geometry._vertex_dets(
        [[np.take(col, ix) for col in np.ascontiguousarray(points.T)]
         for points, ix in zip(points_list, idx)], pinned)
    wprod = np.take(values_list[0], idx[0])
    for j in range(1, len(idx)):
        wprod *= np.take(values_list[j], idx[j])
    return dets, wprod


def _multiplicities(idx) -> np.ndarray:
    """Number of distinct permutations of each nondecreasing index tuple."""
    m = len(idx)
    run = np.ones(idx[0].shape[0])
    fact_prod = np.ones(idx[0].shape[0])
    for j in range(1, m):
        eq = idx[j] == idx[j - 1]
        run = np.where(eq, run + 1.0, 1.0)
        fact_prod *= run
    # fact_prod accumulates prod over runs of (run length)! one factor at a time
    return math.factorial(m) / fact_prod


def _enumerate(points_list, values_list, pinned: bool, symmetric: bool,
               budget: int, reduce):
    """(ordered tuple count, [reduce(dets, wprod, mult) per block]) over the
    product of the slots, in block order.

    The fixed block partition of the flat tuple index keeps the results
    independent of the worker count.  symmetric=True partitions the ranks
    of the nondecreasing tuples instead and passes their multiplicities as
    mult (None otherwise); every slot must then hold the same points and
    values.  The budget caps the tuples visited.
    """
    sizes = [p.shape[0] for p in points_list]
    total = math.prod(sizes)
    m = len(sizes)
    visited = math.comb(sizes[0] + m - 1, m) if symmetric else total
    if visited > budget:
        raise BudgetExceededError(
            f"{visited} tuples to enumerate ({total} ordered) exceed the "
            f"exact budget {budget}")
    tables = _rank_tables(sizes[0], m) if symmetric else None

    def block(start, stop):
        pos = np.arange(start, stop, dtype=np.int64)
        mult = None
        if symmetric:
            idx = _unrank(pos, tables)
            mult = _multiplicities(idx)
        else:
            idx = _decode(pos, sizes)
        dets, wprod = _tuple_terms(points_list, values_list, idx, pinned)
        return reduce(dets, wprod, mult)

    return total, parallel.map_blocks(block, parallel.block_ranges(visited))


def _enumerate_form(points_list, values_list, tau: float, symmetric: bool,
                    gammas, pinned: bool, budget: int) -> list:
    """Exact forms at each exponent in gammas, from one enumeration over the
    product of the slots (see _enumerate for symmetric)."""

    def reduce(dets, wprod, mult):
        included = dets > tau
        if mult is None:
            n_exc = float(np.count_nonzero(~included))
        else:
            n_exc = float(np.sum(mult[~included]))
            wprod *= mult
        w_in, d_in = wprod[included], dets[included]
        return [float(np.sum(w_in if g == 0.0 else w_in * d_in ** (-g)))
                for g in gammas], n_exc

    total, results = _enumerate(points_list, values_list, pinned, symmetric,
                                budget, reduce)
    excluded = int(round(math.fsum(r[1] for r in results)))
    return [FunctionalResult(value=math.fsum(r[0][i] for r in results),
                             tuples_total=total, tuples_excluded=excluded)
            for i in range(len(gammas))]


def _form_slots(mu, k: int, fs, tau, pinned: bool):
    """(slot points, slot values, tau, symmetric) of a form of order k on one
    measure or a list of k (pinned) or k+1 slot measures: tau defaults to
    the slots' threshold, and symmetric holds when every slot has one
    measure and one density, so the nondecreasing tuples suffice."""
    if k < 1:
        raise ValueError("k must be at least 1")
    m = k if pinned else k + 1
    measures = [mu] * m if isinstance(mu, WeightedPointMeasure) else list(mu)
    if len(measures) != m:
        raise ValueError(f"expected {m} measures, got {len(measures)}")
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
    measure and one density, enumeration runs over nondecreasing tuples
    with multiplicity weights, cutting the determinant work by (k+1)!.
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


def det_form_sampled(mu, k: int, gamma: float, fs=None, *, samples: int,
                     seed: int = 0, tau: float = None,
                     pinned: bool = False) -> FunctionalResult:
    """Monte Carlo estimate of det_form (or the pinned variant).

    Tuples are drawn uniformly with replacement; the estimator is the tuple
    count times the sample mean of the integrand, which is unbiased for the
    exact sum.  stderr is the standard error of that estimate.
    """
    points_list, vals, tau, _ = _form_slots(mu, k, fs, tau, pinned)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    sizes = [p.shape[0] for p in points_list]
    rng = np.random.default_rng(seed)
    idx = [rng.integers(0, n, size=samples) for n in sizes]

    def block(start, stop):
        dets, wprod = _tuple_terms(points_list, vals,
                                   [ix[start:stop] for ix in idx], pinned)
        included = dets > tau
        integrand = np.zeros(stop - start)
        if gamma == 0.0:
            integrand[included] = wprod[included]
        else:
            integrand[included] = wprod[included] * dets[included] ** (-gamma)
        return integrand, int(np.count_nonzero(~included))

    results = parallel.map_blocks(block, parallel.block_ranges(samples))
    integrand = np.concatenate([r[0] for r in results])
    total = math.prod(sizes)
    est = float(total * np.mean(integrand))
    err = float(total * np.std(integrand, ddof=1) / math.sqrt(samples))
    return FunctionalResult(value=est, tuples_total=samples,
                            tuples_excluded=sum(r[1] for r in results),
                            stderr=err)


def sublevel_mass(measures, delta: float, *, tau: float = None,
                  budget: int = DEFAULT_BUDGET) -> float:
    """Product-measure mass of {tau < det(0, y_1, ..., y_k) < delta}.

    measures is a list of k probability measures (k = len(measures)); the
    lower cutoff discards degenerate tuples just like the forms do.  Exact
    for discrete measures, and exactly covariant under per-measure dilations
    when tau is scaled by the product of the dilation factors (the default
    tau already is).
    """
    measures = list(measures)
    k = len(measures)
    if k < 1:
        raise ValueError("need at least one measure")
    for m_ in measures:
        if abs(m_.total_mass - 1.0) > 1e-9:
            raise ValueError("sublevel_mass expects probability measures")
    if not delta > 0:
        raise ValueError("delta must be positive")
    if tau is None:
        tau = default_det_threshold(measures, k)

    def reduce(dets, wprod, mult):
        band = (dets > tau) & (dets < delta)
        return float(np.sum(wprod[band]))

    _, results = _enumerate([m_.points for m_ in measures],
                            [m_.weights for m_ in measures], pinned=True,
                            symmetric=False, budget=budget, reduce=reduce)
    return math.fsum(results)


def _index_sets(n: int, sets, k: int) -> list:
    """The k atom-index sets as int arrays: integer entries (or none), each
    in [0, n) and at most once."""
    if k < 1:
        raise ValueError("k must be at least 1")
    sets = [np.asarray(s) for s in sets]
    if len(sets) != k:
        raise ValueError(f"expected {k} index sets")
    for j, s in enumerate(sets):
        if s.size and not np.issubdtype(s.dtype, np.integer):
            raise ValueError(f"index set {j} has non-integer entries ({s.dtype})")
        if s.size and (s.min() < 0 or s.max() >= n):
            raise ValueError(f"index set {j} has an index outside [0, {n})")
        if np.unique(s).size != s.size:
            raise ValueError(f"index set {j} repeats an index")
    return [s.astype(int) for s in sets]


def dyadic_profile(mu: WeightedPointMeasure, k: int, sets, gamma: float, *,
                   tau: float = None, budget: int = DEFAULT_BUDGET) -> DyadicProfile:
    """Layer decomposition of the pinned form over E_1 x ... x E_k.

    sets is a list of k atom-index collections.  Each included tuple lands
    in the layer l = floor(log2 det); layer masses sum to the included
    product mass exactly.
    """
    _check_k_alpha(mu, k)
    sets = _index_sets(mu.n_atoms, sets, k)
    if tau is None:
        tau = default_det_threshold(mu, k)

    def reduce(dets, wprod, mult):
        included = dets > tau
        exc_mass = float(np.sum(wprod[~included]))
        # one stable (radix) sort groups the layers and keeps each layer's
        # tuples in block order, so each layer sum sees the masked order
        levels = np.floor(np.log2(dets[included])).astype(np.int16)
        order = np.argsort(levels, kind="stable")
        levels, wprod = levels[order], wprod[included][order]
        cuts = [0, *(np.flatnonzero(np.diff(levels)) + 1).tolist(), levels.size]
        local = {int(levels[a]): float(np.sum(wprod[a:b]))
                 for a, b in zip(cuts[:-1], cuts[1:]) if b > a}
        return local, exc_mass

    _, results = _enumerate([mu.points[s] for s in sets],
                            [mu.weights[s] for s in sets], pinned=True,
                            symmetric=False, budget=budget, reduce=reduce)
    layers: dict = {}
    excluded = []
    for local, exc in results:
        excluded.append(exc)
        for l, m_ in local.items():
            layers[l] = layers.get(l, 0.0) + m_
    layers = {l: layers[l] for l in sorted(layers)}
    included_mass = math.fsum(layers.values())
    return DyadicProfile(layers=layers, gamma=gamma,
                         l_min=min(layers) if layers else None,
                         l_max=max(layers) if layers else None,
                         included_mass=included_mass,
                         excluded_mass=math.fsum(excluded))


def cauchy_schwarz_check(mu: WeightedPointMeasure, k: int, gamma: float, sets, *,
                         tau: float = None, budget: int = DEFAULT_BUDGET,
                         rel_tol: float = 1e-12) -> tuple:
    """Duality check (included mass)^2 <= (form at +gamma) * (form at -gamma).

    Both forms run over E_1 x ... x E_k with the whole measure's tau, so
    the inequality is exactly Cauchy-Schwarz on the included tuples and
    must hold to rounding.  Returns (lhs, rhs, ok).
    """
    _check_k_alpha(mu, k)
    sets = _index_sets(mu.n_atoms, sets, k)
    if tau is None:
        tau = default_det_threshold(mu, k)
    inv, fwd, mass = _enumerate_form(
        [mu.points[s] for s in sets], [mu.weights[s] for s in sets], tau, False,
        (gamma, -gamma, 0.0), pinned=True, budget=budget)
    lhs = mass.value ** 2
    rhs = fwd.value * inv.value
    ok = lhs <= rhs * (1.0 + rel_tol)
    return lhs, rhs, ok


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
        elif kind == "shell":
            center = pts[rng.integers(0, n)]
            dist = np.linalg.norm(pts - center, axis=1)
            hi = np.quantile(dist, rng.uniform(0.3, 0.95))
            sel = np.flatnonzero((dist > hi / 2.0) & (dist <= hi))
            out.append(sel if sel.size else np.flatnonzero(dist <= hi))
        else:
            raise ValueError(f"unknown set kind {kind!r}")
    return out


def weak_type_probe(mu: WeightedPointMeasure, k: int, gamma: float, alpha: float, *,
                    trials: int = 100, seed: int = 0, set_sampler=None,
                    tau: float = None, budget: int = DEFAULT_BUDGET) -> WeakTypeProbeResult:
    """Empirical sup over set families of the normalized pinned form.

    For each trial a family E_1, ..., E_k is drawn (random subsets, metric
    balls, half-spaces, and shells in rotation, or a caller-provided
    sampler) and the ratio

        pinned form over E_1 x ... x E_k / prod_j mu(E_j)^(1 - gamma/(k alpha))

    is recorded with the whole measure's tau.  Requires 0 < gamma < k alpha
    for the exponent to make sense; the sup and its witness are returned.
    """
    _check_k_alpha(mu, k)
    if not (0 < gamma < k * alpha):
        raise ValueError("need 0 < gamma < k * alpha")
    if abs(mu.total_mass - 1.0) > 1e-9:
        raise ValueError("weak_type_probe expects a probability measure")
    if tau is None:
        tau = default_det_threshold(mu, k)
    rng = np.random.default_rng(seed)
    kinds = ("subset", "ball", "halfspace", "shell")
    exponent = 1.0 - gamma / (k * alpha)

    best = -math.inf
    witness = {}
    ratios = []
    for t in range(trials):
        kind = kinds[t % len(kinds)]
        if set_sampler is not None:
            sets = _index_sets(mu.n_atoms, set_sampler(mu, k, rng), k)
            kind = "custom"
        else:
            sets = _sample_sets(mu, k, rng, kind)
        masses = [float(np.sum(mu.weights[s])) for s in sets]
        if any(m_ <= 0.0 for m_ in masses):
            continue
        form, = _enumerate_form([mu.points[s] for s in sets],
                                [mu.weights[s] for s in sets], tau, False,
                                (gamma,), pinned=True, budget=budget)
        denom = 1.0
        for m_ in masses:
            denom *= m_ ** exponent
        ratio = form.value / denom
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
