"""Determinant-kernel forms against nested-loop oracles and exact identities."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import dilate, translate
from detcurve import functionals, geometry, parallel
from detcurve.functionals import (
    BudgetExceededError,
    cauchy_schwarz_check,
    default_det_threshold,
    det_form,
    det_form_pinned,
    det_form_sampled,
    difference_threshold,
    dyadic_profile,
    sublevel_mass,
    weak_type_probe,
)
from detcurve.geometry import Ellipsoid, k_content, simplex_det_many
from detcurve.measure import GeneratorSpec, WeightedPointMeasure, generate


def indicator(n, idx):
    """Per-atom indicator density of an index set: with it a form runs over
    every atom tuple, the reference route for the set-restricted slots."""
    out = np.zeros(n)
    out[np.asarray(idx, dtype=int)] = 1.0
    return out


def set_slots(mu, sets):
    """One slot measure per index set: its atoms and their weights."""
    return [WeightedPointMeasure(mu.points[s], mu.weights[s]) for s in sets]


def rel_diff(got, want):
    return 0.0 if got == want else abs(got - want) / abs(want)


def oracle_pinned(mu, gamma, tau):
    """All ordered pairs, plain loops, 2x2 cross products."""
    terms = []
    for i in range(mu.n_atoms):
        for j in range(mu.n_atoms):
            p, q = mu.points[i], mu.points[j]
            det = abs(p[0] * q[1] - p[1] * q[0])
            if det > tau:
                terms.append(mu.weights[i] * mu.weights[j] * det ** (-gamma))
    return math.fsum(terms)


def oracle_unpinned(mu, gamma, tau):
    terms = []
    for i in range(mu.n_atoms):
        for j in range(mu.n_atoms):
            for l in range(mu.n_atoms):
                u = mu.points[i] - mu.points[l]
                v = mu.points[j] - mu.points[l]
                det = abs(u[0] * v[1] - u[1] * v[0])
                if det > tau:
                    terms.append(mu.weights[i] * mu.weights[j]
                                 * mu.weights[l] * det ** (-gamma))
    return math.fsum(terms)


def assert_sampled_reference(got, slots, gamma, tau, samples, seed, pinned):
    """got is bit-equal to each block's integrand formed in one batch from
    the block's own stream, reduced to (sum, squared deviations) and
    combined pairwise in block order, and matches the one-pass mean and
    sample deviation of all blocks' integrands to 1e-12."""
    sizes = [mu.n_atoms for mu in slots]
    high = sizes[0] if len(set(sizes)) == 1 else np.array(sizes)[:, None]
    starts = range(0, samples, parallel.BLOCK)
    integrands, excluded = [], 0
    for start, stream in zip(starts, np.random.SeedSequence(seed).spawn(len(starts))):
        size = min(parallel.BLOCK, samples - start)
        idx = np.random.default_rng(stream).integers(0, high, size=(len(sizes), size))
        tuples = np.stack([mu.points[ix] for mu, ix in zip(slots, idx)], axis=1)
        dets = simplex_det_many(tuples, pinned=pinned)
        wprod = np.prod([mu.weights[ix] for mu, ix in zip(slots, idx)], axis=0)
        included = dets > tau
        integrand = np.zeros(size)
        integrand[included] = wprod[included] * dets[included] ** (-gamma)
        integrands.append(integrand)
        excluded += int(np.count_nonzero(~included))
    sums = [np.sum(x) for x in integrands]
    mean = math.fsum(sums) / samples
    m2 = math.fsum(np.sum((x - s / x.size) ** 2) + x.size * (s / x.size - mean) ** 2
                   for x, s in zip(integrands, sums))
    total = math.prod(sizes)
    assert got.value == float(total * mean)
    assert got.stderr == float(total * math.sqrt(m2 / (samples - 1) / samples))
    assert got.tuples_excluded == excluded
    whole = np.concatenate(integrands)
    assert got.value == pytest.approx(total * np.mean(whole), rel=1e-12, abs=0)
    assert got.stderr == pytest.approx(total * np.std(whole, ddof=1) / math.sqrt(samples),
                                       rel=1e-12, abs=0)


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestExactForms:
    def test_two_atom_distance_kernel(self):
        # k = 1 with gamma = -1 integrates the pairwise distance
        mu = WeightedPointMeasure(np.array([[0.0], [4.0]]), np.array([0.5, 0.5]))
        res = det_form(mu, 1, -1.0)
        assert res.value == pytest.approx(2.0, rel=1e-14)
        assert res.tuples_total == 4
        assert res.tuples_excluded == 2  # the two diagonal pairs

    def test_pinned_three_atom_oracle(self, three_atoms):
        tau = default_det_threshold(three_atoms, 2)
        want = oracle_pinned(three_atoms, 0.5, tau)
        got = det_form_pinned(three_atoms, 2, 0.5)
        assert got.value == pytest.approx(want, rel=1e-12)
        # hand value: .25 * 1 + .375 * sqrt(2)
        assert got.value == pytest.approx(0.25 + 0.375 * math.sqrt(2.0), rel=1e-12)
        assert got.tuples_excluded == 3

    def test_pinned_negative_gamma(self, three_atoms):
        tau = default_det_threshold(three_atoms, 2)
        want = oracle_pinned(three_atoms, -0.5, tau)
        got = det_form_pinned(three_atoms, 2, -0.5)
        assert got.value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_gamma(self, cube64, gamma):
        # a nan or infinite exponent gave a nan or inf form, and a
        # Cauchy-Schwarz check of (lhs, nan, False) or one that passed at inf
        calls = [lambda: det_form(cube64, 2, gamma),
                 lambda: det_form_pinned(cube64, 2, gamma),
                 lambda: det_form_sampled(cube64, 2, gamma, samples=10),
                 lambda: cauchy_schwarz_check(cube64, 2, gamma, [np.arange(8)] * 2)]
        for call in calls:
            with pytest.raises(ValueError, match=f"gamma must be finite, got {gamma}"):
                call()

    def test_exact_form_peak(self, monkeypatch):
        # a symmetric rectangle stops before an eighth of it lies below the
        # diagonal, ~57k tuples here; rectangles of a whole block traced 13.3 MB
        monkeypatch.setenv("DETCURVE_THREADS", "1")
        mu = generate(GeneratorSpec("sphere_uniform", 3, 56, 0))
        assert traced_peak(lambda: det_form(mu, 3, 0.5)) <= 10_000_000

    @pytest.mark.filterwarnings("ignore:overflow encountered in power")
    def test_overflowing_kernel_reads_inf(self):
        # det(y_0, y_1) = 2^-30 gives det^-40 = inf; the symmetric rectangle
        # holds (y_1, y_0) below its diagonal, where 0 weight times inf
        # would read nan
        t = np.linspace(0.3, 1.2, 18)
        pts = np.vstack([[[1.0, 0.0], [1.0, 2.0 ** -30]], np.c_[np.cos(t), np.sin(t)]])
        mu = WeightedPointMeasure(pts, np.full(20, 0.05))
        got = det_form_pinned(mu, 2, 40.0)
        want = det_form_pinned(mu, 2, 40.0, [np.ones(20), np.ones(20)])
        assert got.value == want.value == math.inf
        assert got.tuples_excluded == want.tuples_excluded

    def test_unpinned_collinear_atoms_vanish(self, three_atoms):
        # (1,0), (0,1), (.5,.5) are collinear: every distinct triple drops out
        res = det_form(three_atoms, 2, 0.5)
        assert res.value == 0.0
        assert res.tuples_excluded == 27

    def test_unpinned_right_triangle(self):
        mu = WeightedPointMeasure(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([0.5, 0.25, 0.25]))
        tau = 1e-12
        want = oracle_unpinned(mu, 0.5, tau)
        got = det_form(mu, 2, 0.5, tau=tau)
        assert got.value == pytest.approx(want, rel=1e-12)
        assert got.value == pytest.approx(6 * 0.5 * 0.25 * 0.25, rel=1e-14)

    def test_distinct_densities_disable_symmetry(self, three_atoms):
        tau = default_det_threshold(three_atoms, 2)
        f1 = indicator(3, [0, 1])
        f2 = indicator(3, [1, 2])
        got = det_form_pinned(three_atoms, 2, 0.5, [f1, f2])
        terms = []
        for i in (0, 1):
            for j in (1, 2):
                p, q = three_atoms.points[i], three_atoms.points[j]
                det = abs(p[0] * q[1] - p[1] * q[0])
                if det > tau:
                    terms.append(three_atoms.weights[i]
                                 * three_atoms.weights[j] * det ** (-0.5))
        assert got.value == pytest.approx(math.fsum(terms), rel=1e-12)

    def test_multi_measure_slots(self, three_atoms):
        other = translate(three_atoms, [0.25, 0.125])
        got = det_form_pinned([three_atoms, other], 2, 0.5)
        tau = default_det_threshold([three_atoms, other], 2)
        terms = []
        for i in range(3):
            for j in range(3):
                p, q = three_atoms.points[i], other.points[j]
                det = abs(p[0] * q[1] - p[1] * q[0])
                if det > tau:
                    terms.append(three_atoms.weights[i]
                                 * other.weights[j] * det ** (-0.5))
        assert got.value == pytest.approx(math.fsum(terms), rel=1e-12)

    def test_budget_error(self, cube64):
        with pytest.raises(BudgetExceededError):
            det_form(cube64, 2, 0.5, budget=100)

    def test_budget_counts_nondecreasing_tuples(self, cube64):
        # 64^3 = 262144 ordered triples, C(66, 3) = 45760 nondecreasing ones;
        # the budget counts the 48560 the rectangles evaluate, with the 2800
        # below their diagonals
        got = det_form(cube64, 2, 0.5, budget=48_560)
        assert got.tuples_total == 64 ** 3
        ones = [np.ones(64) for _ in range(3)]
        want = det_form(cube64, 2, 0.5, ones)
        assert got.value == pytest.approx(want.value, rel=1e-12)
        assert got.tuples_excluded == want.tuples_excluded
        with pytest.raises(BudgetExceededError, match=r"48560 tuples .*\(262144 ordered\)"):
            det_form(cube64, 2, 0.5, budget=48_559)
        # fewer than the nondecreasing tuples: no partition is made
        with pytest.raises(BudgetExceededError, match=r"45760 tuples .*\(262144 ordered\)"):
            det_form(cube64, 2, 0.5, budget=45_759)

    def test_rejects_negative_density(self, three_atoms):
        with pytest.raises(ValueError):
            det_form_pinned(three_atoms, 2, 0.5, [-np.ones(3), None])


class TestSlotShapes:
    @pytest.mark.parametrize("form,k,count", [
        (det_form, 2, 1), (det_form, 1, 3), (det_form_pinned, 1, 2),
        (det_form_pinned, 2, 1)])
    def test_rejects_density_count(self, three_atoms, form, k, count):
        # one density per slot: a short list would index past its end, a
        # long one would drop its extra densities
        with pytest.raises(ValueError, match=r"one density per slot"):
            form(three_atoms, k, 0.5, fs=[np.ones(3)] * count)

    @pytest.mark.parametrize("call", [
        lambda a, b: sublevel_mass([a, b], 0.5),
        lambda a, b: det_form_pinned([a, b], 2, 0.5),
        lambda a, b: det_form([a, a, b], 2, 0.5),
        lambda a, b: det_form_sampled([a, b], 1, 0.5, samples=10),
        lambda a, b: det_form_sampled([a, b], 2, 0.5, samples=10, pinned=True),
    ], ids=["sublevel_mass", "det_form_pinned", "det_form", "sampled",
            "sampled-pinned"])
    def test_rejects_mixed_dimensions(self, cube64, sphere80_d3, call):
        with pytest.raises(ValueError, match=r"one dimension, got \[2, 3\]"):
            call(cube64, sphere80_d3)

    @pytest.mark.parametrize("call", [
        lambda mu: det_form(mu, 3, 0.5),
        lambda mu: det_form_pinned(mu, 3, 0.5),
        lambda mu: det_form_sampled(mu, 3, 0.5, samples=10),
        lambda mu: det_form_sampled(mu, 3, 0.5, samples=10, pinned=True),
        lambda mu: sublevel_mass([mu] * 3, 0.5),
    ], ids=["det_form", "det_form_pinned", "sampled", "sampled-pinned",
            "sublevel_mass"])
    def test_rejects_k_above_dimension(self, cube64, call):
        # at k = 3 every tuple in the plane has determinant 0, so all would
        # be excluded and the form would read a vacuous 0.0
        with pytest.raises(ValueError, match=r"k must be in \[1, 2\], got 3"):
            call(cube64)


class TestInvariance:
    def test_translation_invariance_unpinned(self, cube64):
        # dyadic shift keeps the differences bitwise identical
        tau = 1e-12
        base = det_form(cube64, 2, 0.5, tau=tau)
        moved = det_form(translate(cube64, [0.5, -0.25]), 2, 0.5, tau=tau)
        assert moved.value == base.value
        assert moved.tuples_excluded == base.tuples_excluded

    @given(st.sampled_from([(2, 2), (2, 4), (2, 8), (3, 2), (3, 4)]),
           st.integers(1, 2), st.booleans(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_default_threshold_translation_invariant(self, grid, k, sampled, data):
        # dyadic grid plus integer shifts up to 2^20: every coordinate,
        # difference and the weighted centroid stay exact
        dim, side = grid
        mu = generate(GeneratorSpec("cube_lebesgue", dim, side ** dim))
        shift = data.draw(st.lists(st.integers(-2 ** 20, 2 ** 20),
                                   min_size=dim, max_size=dim))
        if sampled:
            run = lambda m: det_form_sampled(m, k, 0.5, samples=500, seed=1)
        else:
            run = lambda m: det_form(m, k, 0.5)
        base, moved = run(mu), run(translate(mu, shift))
        assert moved.value == base.value
        assert moved.tuples_excluded == base.tuples_excluded

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
           st.sampled_from([0.5, -1.0, 1.5]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_zero_padding_invariant(self, dim, k, pad, gamma, seed):
        # zero coordinates add exact zero minors, so every determinant, both
        # thresholds and hence the forms keep their bits in the larger space;
        # the forms refuse k > dim
        assume(k <= dim)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        mu = WeightedPointMeasure(rng.normal(size=(n, dim)),
                                  rng.uniform(0.1, 1.0, n))
        cols = np.sort(rng.choice(dim + pad, dim, replace=False))
        points = np.zeros((n, dim + pad))
        points[:, cols] = mu.points
        padded = WeightedPointMeasure(points, mu.weights)
        for form in (det_form, det_form_pinned):
            want, got = form(mu, k, gamma), form(padded, k, gamma)
            assert got.value == want.value
            assert got.tuples_excluded == want.tuples_excluded

    def test_dilation_identity_pinned(self, cube64):
        # dets scale by a^k, so the form scales by a^(-k gamma); default
        # thresholds are covariant, making the identity exact
        k, gamma, a = 2, 0.5, 2.0
        base = det_form_pinned(cube64, k, gamma)
        scaled = det_form_pinned(dilate(cube64, a), k, gamma)
        assert scaled.value == pytest.approx(
            a ** (-k * gamma) * base.value, rel=1e-12)
        assert scaled.tuples_excluded == base.tuples_excluded

    @given(st.sampled_from([(2, 3), (2, 4), (3, 2)]), st.integers(1, 2),
           st.booleans(), st.booleans(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, grid, k, pinned, distinct, data):
        # dyadic grid atoms, dilates and shifts keep every determinant exact,
        # so exclusions cannot flip; only the summation order moves values
        dim, side = grid
        n = side ** dim
        base = generate(GeneratorSpec("cube_lebesgue", dim, n))
        weights = np.arange(1.0, n + 1.0) / (n * (n + 1) / 2.0)
        mu = WeightedPointMeasure(base.points, weights)
        m = k if pinned else k + 1
        slots = ([mu, dilate(mu, 0.5), translate(mu, [0.25] * dim)][:m]
                 if distinct else mu)
        form = det_form_pinned if pinned else det_form
        want = form(slots, k, 0.5)

        perm = np.array(data.draw(st.permutations(range(n))))
        shuffle = lambda x: WeightedPointMeasure(x.points[perm], x.weights[perm])
        if distinct:
            order = data.draw(st.permutations(range(m)))
            moved = [shuffle(slots[j]) for j in order]
        else:
            moved = shuffle(mu)
        got = form(moved, k, 0.5)
        assert got.value == pytest.approx(want.value, rel=1e-12)
        assert got.tuples_excluded == want.tuples_excluded

    @given(st.sampled_from([(1, 8), (2, 2), (2, 4), (3, 2)]), st.booleans(),
           st.sampled_from([1.0, -1.0, -2.0, 0.0, -0.5]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_dilation_covariance_pinned(self, grid, distinct, gamma, data):
        # dyadic atoms and power-of-two factors scale tau, and the cofactor
        # determinants (of the edge matrix for k = d, of its Cauchy-Binet
        # minors for k < d), exactly; these exponents are exact powers
        # (reciprocal, square, sqrt of a power of four), so every term then
        # scales by one power of two.
        dim, side = grid
        n = side ** dim
        base = generate(GeneratorSpec("cube_lebesgue", dim, n))
        mu = WeightedPointMeasure(base.points,
                                  np.arange(1.0, n + 1.0) / (n * (n + 1) / 2.0))
        k = data.draw(st.integers(1, dim))
        shifts = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        if not distinct:
            shifts = [shifts[0]] * k
        if gamma == -0.5:  # the square root scales exactly by powers of four
            shifts = [2 * s_ for s_ in shifts]
        # distinct slot objects take the ordered path, like the dilated ones
        want = det_form_pinned([dilate(mu, 1.0) for _ in range(k)]
                               if distinct else mu, k, gamma)
        moved = ([dilate(mu, 2.0 ** s_) for s_ in shifts] if distinct
                 else dilate(mu, 2.0 ** shifts[0]))
        got = det_form_pinned(moved, k, gamma)
        scaled = 2.0 ** (-gamma * sum(shifts)) * want.value
        assert got.value == scaled
        assert got.tuples_excluded == want.tuples_excluded

    @given(st.sampled_from([(1, 8), (2, 4), (3, 2)]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_dilation_covariance_sublevel(self, grid, data):
        dim, side = grid
        n = side ** dim
        base = generate(GeneratorSpec("cube_lebesgue", dim, n))
        mu = WeightedPointMeasure(base.points,
                                  np.arange(1.0, n + 1.0) / (n * (n + 1) / 2.0))
        k = data.draw(st.integers(1, dim))
        shifts = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        # a non-dyadic cutoff: no determinant of the grid lies on it
        delta = 2.0 ** data.draw(st.integers(-6, 1)) / 3.0
        want = sublevel_mass([mu] * k, delta)
        got = sublevel_mass([dilate(mu, 2.0 ** s_) for s_ in shifts],
                            delta * 2.0 ** sum(shifts))
        assert got == want

    def test_threshold_covariance(self, cube64):
        t1 = default_det_threshold(cube64, 2)
        t2 = default_det_threshold(dilate(cube64, 2.0), 2)
        assert t2 == pytest.approx(4.0 * t1, rel=1e-15)

    @given(st.sampled_from([4, 5]), st.booleans(), st.integers(0, 2 ** 32 - 1),
           st.data())
    @settings(max_examples=30, deadline=None)
    def test_singular_integer_tuples_are_exact_zeros(self, d, pinned, seed, data):
        # one edge the sum of two others: every product and partial sum of
        # the minor table is a small integer, so each determinant is exactly
        # 0 (LAPACK's LU left ulp-level values on ~40% of them)
        rng = np.random.default_rng(seed)
        summed, a, b = data.draw(st.permutations(range(d)))[:3]
        edges = rng.integers(-5, 6, size=(300, d, d)).astype(float)
        edges[:, summed] = edges[:, a] + edges[:, b]
        base = rng.integers(-5, 6, size=(300, 1, d)).astype(float)
        stack = edges if pinned else np.concatenate([edges + base, base], axis=1)
        assert np.all(simplex_det_many(stack, pinned=pinned) == 0.0)
        m = stack.shape[1]
        cols, ones = np.ascontiguousarray(stack.reshape(-1, d).T), np.ones(300 * m)
        idx = [np.arange(j, 300 * m, m) for j in range(m)]
        dets, _ = functionals._tuple_terms([cols] * m, [ones] * m, idx, pinned)
        assert np.all(dets == 0.0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.5]), st.data())
    @settings(max_examples=15, deadline=None)
    def test_unimodular_shear_invariant(self, d, seed, tau, data):
        # det(A y_1, ..., A y_d) = det A det(y_1, ..., y_d) with det A = 1: on
        # a small integer lattice every minor is an exact integer, so a shear
        # keeps each determinant, hence both forms' values and exclusions, bit
        # for bit (tau explicit, as the default depends on the atoms)
        rng = np.random.default_rng(seed)
        n = 8 if d < 4 else 7
        mu = WeightedPointMeasure(rng.integers(-2, 3, size=(n, d)).astype(float),
                                  rng.uniform(0.1, 1.0, n))
        shear = np.eye(d)
        for _ in range(3):
            i, j = data.draw(st.permutations(range(d)))[:2]
            shear[i] += data.draw(st.integers(-2, 2)) * shear[j]
        moved = WeightedPointMeasure(mu.points @ shear.T, mu.weights)
        for form in (det_form, det_form_pinned):
            want, got = form(mu, d, 0.5, tau=tau), form(moved, d, 0.5, tau=tau)
            assert got.value == want.value
            assert got.tuples_excluded == want.tuples_excluded


class TestSublevelMass:
    def test_three_atom_oracle(self, three_atoms):
        # pinned pair dets are 1, .5, .5 (and zeros on the diagonal)
        assert sublevel_mass([three_atoms] * 2, 0.75) == pytest.approx(
            2 * (0.5 * 0.25 + 0.25 * 0.25))
        assert sublevel_mass([three_atoms] * 2, 0.25) == 0.0
        # delta above every det picks up all nondegenerate pairs
        assert sublevel_mass([three_atoms] * 2, 10.0) == pytest.approx(
            2 * (0.125 + 0.125 + 0.0625))

    def test_monotone_in_delta(self, cube64):
        masses = [sublevel_mass([cube64] * 2, d) for d in (0.01, 0.05, 0.2, 1.0)]
        assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))

    def test_dilation_covariance(self, cube64):
        big = dilate(cube64, 2.0)
        assert sublevel_mass([big] * 2, 4.0 * 0.125) == pytest.approx(
            sublevel_mass([cube64] * 2, 0.125), rel=1e-15)

    def test_rejects_bad_delta(self, three_atoms):
        with pytest.raises(ValueError):
            sublevel_mass([three_atoms] * 2, 0.0)

    @given(st.integers(2, 3), st.integers(0, 2 ** 32 - 1), st.data())
    @settings(max_examples=150, deadline=None)
    def test_necessity_sandwich(self, d, seed, data):
        # Hadamard after the frame map: y_1, ..., y_k in a centred ellipsoid
        # E give |y_1 ^ ... ^ y_k| <= |E|_k, so for the normalised
        # restriction nu of a measure to E the sublevel mass just above
        # |E|_k already holds every tuple it holds at inf
        k = data.draw(st.integers(1, d), label="k")
        rng = np.random.default_rng(seed)
        e = Ellipsoid(2.0 ** rng.uniform(-3.0, 3.0, d),
                      np.linalg.qr(rng.normal(size=(d, d)))[0])
        pts = rng.uniform(-1.0, 1.0, (24, d)) * e.semi_lengths @ e.frame.T
        inside = pts[e.contains_many(pts)]
        assume(len(inside) >= k)
        w = rng.uniform(0.5, 1.5, len(inside))
        nu = WeightedPointMeasure(inside, w / np.sum(w))
        content = k_content(e, k)
        assert (sublevel_mass([nu] * k, np.nextafter(content, math.inf))
                == sublevel_mass([nu] * k, math.inf))


class TestDyadicProfile:
    def test_layers_partition_included_mass(self, cube64):
        sets = [np.arange(0, 40), np.arange(20, 64)]
        prof = dyadic_profile(cube64, 2, sets, 0.5)
        set_mass = (40 / 64.0) * (44 / 64.0)
        assert prof.included_mass + prof.excluded_mass == pytest.approx(
            set_mass, rel=1e-12)
        assert prof.l_min <= prof.l_max <= 0

    def test_bracket_contains_exact_form(self, cube64):
        sets = [np.arange(0, 40), np.arange(20, 64)]
        fs = [indicator(64, s) for s in sets]
        for gamma in (0.5, -0.5):
            prof = dyadic_profile(cube64, 2, sets, gamma)
            # within layer l the kernel det^(-gamma) lies between
            # 2^(-gamma (l+1)) and 2^(-gamma l), so the layer sum brackets
            # the form within a factor 2^|gamma| either way
            s = math.fsum(2.0 ** (-gamma * l) * m for l, m in prof.layers.items())
            lo, hi = s / 2.0 ** abs(gamma), s * 2.0 ** abs(gamma)
            exact = det_form_pinned(cube64, 2, gamma, fs).value
            assert lo * (1 - 1e-12) <= exact <= hi * (1 + 1e-12)

    @pytest.mark.parametrize("j", [-3, 5, 20])
    def test_layer_just_below_power_of_two(self, j):
        # det(0, y_1, y_2) = 2^j (1 - 2^-53), which log2 rounds up to j
        det = math.ldexp(1.0 - 2.0 ** -53, j)
        assert np.floor(np.log2(det)) == j
        mu = WeightedPointMeasure(np.array([[det, 0.0], [0.0, 1.0]]),
                                  np.array([0.5, 0.5]))
        prof = dyadic_profile(mu, 2, [[0], [1]], 0.5)
        assert prof.layers == {j - 1: 0.25}

    def test_layer_levels_match_dets(self, three_atoms):
        prof = dyadic_profile(three_atoms, 2, [np.arange(3), np.arange(3)], 0.5)
        # dets 1, .5, .5 land in layers 0 and -1
        assert set(prof.layers) == {-1, 0}
        assert prof.layers[0] == pytest.approx(0.25)
        assert prof.layers[-1] == pytest.approx(0.375)


class TestCauchySchwarz:
    def test_random_families_never_violate(self, cube64):
        rng = np.random.default_rng(17)
        for _ in range(50):
            sets = [rng.choice(64, size=rng.integers(2, 40), replace=False)
                    for _ in range(2)]
            lhs, rhs, ok = cauchy_schwarz_check(cube64, 2, 0.5, sets)
            assert ok
            assert lhs <= rhs * (1 + 1e-12)

    def test_requires_k_sets(self, cube64):
        with pytest.raises(ValueError):
            cauchy_schwarz_check(cube64, 2, 0.5, [np.arange(4)])

    @pytest.mark.parametrize("fixture,k", [("cube64", 1), ("cube64", 2),
                                           ("sphere80_d3", 3)])
    def test_one_pass_equals_three_forms(self, request, fixture, k):
        mu = request.getfixturevalue(fixture)
        rng = np.random.default_rng(k)
        tau = default_det_threshold(mu, k)
        for _ in range(5):
            sets = [rng.choice(mu.n_atoms, size=rng.integers(1, 40), replace=False)
                    for _ in range(k)]
            inv, fwd, mass = (det_form_pinned(set_slots(mu, sets), k, g, tau=tau)
                              for g in (0.5, -0.5, 0.0))
            lhs, rhs, ok = cauchy_schwarz_check(mu, k, 0.5, sets)
            assert lhs == mass.value ** 2
            assert rhs == fwd.value * inv.value
            assert ok == (lhs <= rhs * (1.0 + 1e-12))


class TestSampledForm:
    def test_unbiased_against_exact(self, cube64):
        exact = det_form_pinned(cube64, 2, 0.5)
        est = det_form_sampled(cube64, 2, 0.5, samples=40_000, seed=3, pinned=True)
        assert est.stderr is not None and est.stderr > 0
        assert abs(est.value - exact.value) <= 4.0 * est.stderr

    def test_stderr_shrinks_with_samples(self, cube64):
        e1 = det_form_sampled(cube64, 2, 0.5, samples=5_000, seed=5, pinned=True)
        e2 = det_form_sampled(cube64, 2, 0.5, samples=80_000, seed=5, pinned=True)
        ratio = e1.stderr / e2.stderr
        assert 2.5 <= ratio <= 6.5  # expect 4 for a 16x sample increase

    def test_rejects_tiny_sample(self, cube64):
        with pytest.raises(ValueError):
            det_form_sampled(cube64, 2, 0.5, samples=1)

    @pytest.mark.parametrize("samples", [2.5, True, "10", None, np.array(2.5)])
    def test_rejects_non_integer_samples(self, cube64, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            det_form_sampled(cube64, 2, 0.5, samples=samples)

    def test_numpy_integer_samples(self, cube64):
        got = det_form_sampled(cube64, 2, 0.5, samples=np.int64(10), pinned=True)
        assert type(got.tuples_total) is int
        assert got == det_form_sampled(cube64, 2, 0.5, samples=10, pinned=True)

    @pytest.mark.parametrize("n,k,pinned", [(80, 3, False), (300, 2, True)])
    def test_memory_per_sample(self, monkeypatch, n, k, pinned):
        # draws, integrand and chunk temporaries are sized by the block, so
        # 8x the samples keeps the peak: below and above 256 atoms
        monkeypatch.setenv("DETCURVE_THREADS", "1")
        mu = generate(GeneratorSpec("sphere_uniform", 3, n, 0))
        peaks = [traced_peak(lambda: det_form_sampled(mu, k, 0.5, samples=samples,
                                                      pinned=pinned))
                 for samples in (500_000, 4_000_000)]
        assert peaks[1] - peaks[0] <= 2_000_000

    def test_peak_per_sample(self, monkeypatch):
        # one block's int64 draws of 4 slots (4 MB; slot 0's spent indices
        # hold the integrand) and one chunk's temporaries (~3 MB): a
        # sample-length store made 12+ bytes a sample
        monkeypatch.setenv("DETCURVE_THREADS", "1")
        mu = generate(GeneratorSpec("sphere_uniform", 3, 80, 0))
        peak = traced_peak(lambda: det_form_sampled(mu, 3, 0.5, samples=4_000_000))
        assert peak <= 8_000_000

    @pytest.mark.parametrize("block", [parallel.BLOCK, 1000])
    def test_streams_calibrated(self, monkeypatch, cube64, block):
        # 40 seeds' z-scores against the exact form, from one block per call
        # and from 20 blocks combined pairwise
        monkeypatch.setattr(parallel, "BLOCK", block)
        exact = det_form_pinned(cube64, 2, 0.5).value
        z = [(r.value - exact) / r.stderr for r in (
            det_form_sampled(cube64, 2, 0.5, samples=20_000, seed=seed, pinned=True)
            for seed in range(40))]
        assert abs(np.mean(z)) <= 0.6
        assert 0.6 <= np.std(z, ddof=1) <= 1.5

    def test_excluded_draws_add_zero(self, cube64):
        # subnormal products: an excluded draw that kept its spent index's
        # bits in the integrand would move the sum
        mu = WeightedPointMeasure(cube64.points, np.full(64, 1e-158))
        got = det_form_sampled(mu, 2, 0.5, samples=5000, seed=1, pinned=True)
        assert got.tuples_excluded > 0
        assert_sampled_reference(got, [mu, mu], 0.5, default_det_threshold(mu, 2),
                                 5000, 1, True)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_unequal_slots(self, monkeypatch, threads):
        # slots of 80 and 300 atoms draw against per-slot bounds
        monkeypatch.setenv("DETCURVE_THREADS", threads)
        slots = [generate(GeneratorSpec("sphere_uniform", 3, n, 0)) for n in (80, 300)]
        tau = default_det_threshold(slots, 2)
        got = det_form_sampled(slots, 2, 0.5, samples=parallel.BLOCK + 999, seed=3,
                               pinned=True)
        assert_sampled_reference(got, slots, 0.5, tau, parallel.BLOCK + 999, 3, True)
        exact = det_form_pinned(slots, 2, 0.5)
        assert abs(got.value - exact.value) <= 4.0 * got.stderr


class TestWeakTypeProbe:
    def test_probe_shape_and_witness(self, cube64):
        res = weak_type_probe(cube64, 2, 0.5, 1.0, trials=8, seed=0)
        assert len(res.ratios) == 8
        assert res.sup_ratio == max(res.ratios)
        assert math.isfinite(res.sup_ratio) and res.sup_ratio > 0
        assert len(res.witness["sets"]) == 2

    def test_rejects_bad_exponents(self, cube64):
        with pytest.raises(ValueError):
            weak_type_probe(cube64, 2, 3.0, 1.0, trials=2)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            weak_type_probe(cube64, 2, 0.5, math.inf, trials=2)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_no_trials(self, cube64, trials):
        # not "no probe trial produced nonempty sets": no trial was run
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            weak_type_probe(cube64, 2, 0.5, 1.0, trials=trials)


class TestRestrictedSlots:
    """Index sets restrict the slots; the indicator densities over all atoms
    give the same forms, summed in other blocks."""

    CASES = [("cube64", 1), ("cube64", 2), ("cube256", 1), ("cube256", 2),
             ("circle240", 1), ("circle240", 2), ("sphere80_d3", 1),
             ("sphere80_d3", 2), ("sphere80_d3", 3)]

    @staticmethod
    def draw_sets(mu, k, rng):
        return [rng.choice(mu.n_atoms, size=rng.integers(1, min(mu.n_atoms, 60)),
                           replace=False) for _ in range(k)]

    @pytest.mark.parametrize("fixture,k", CASES)
    def test_forms_match_indicator_route(self, request, fixture, k):
        mu = request.getfixturevalue(fixture)
        rng = np.random.default_rng(10 + k)
        tau = default_det_threshold(mu, k)
        worst = 0.0
        for _ in range(4 if k < 3 else 2):
            sets = self.draw_sets(mu, k, rng)
            fs = [indicator(mu.n_atoms, s) for s in sets]
            for g in (0.5, -0.5, 0.0):
                want = det_form_pinned(mu, k, g, fs)
                got = det_form_pinned(set_slots(mu, sets), k, g, tau=tau)
                worst = max(worst, rel_diff(got.value, want.value))
        assert worst <= 1e-15

    @pytest.mark.parametrize("fixture,k", CASES)
    def test_weak_type_ratios_match_indicator_route(self, request, monkeypatch,
                                                    fixture, k):
        mu = request.getfixturevalue(fixture)
        drawn = []
        original = functionals._sample_sets

        def recorder(mu_, k_, rng, kind):
            drawn.append(original(mu_, k_, rng, kind))
            return drawn[-1]

        monkeypatch.setattr(functionals, "_sample_sets", recorder)
        gamma, alpha = 0.5, 1.0
        res = weak_type_probe(mu, k, gamma, alpha, trials=3 if k < 3 else 2, seed=k)
        assert len(drawn) == len(res.ratios)  # every drawn set has mass
        exponent = 1.0 - gamma / (k * alpha)
        for sets, ratio in zip(drawn, res.ratios):
            form = det_form_pinned(mu, k, gamma,
                                   [indicator(mu.n_atoms, s) for s in sets])
            denom = 1.0
            for s in sets:
                denom *= float(np.sum(mu.weights[s])) ** exponent
            assert rel_diff(ratio, form.value / denom) <= 1e-15

    @pytest.mark.parametrize("pinned", [True, False])
    @pytest.mark.parametrize("fixture,k", [("cube64", 1), ("cube64", 2),
                                           ("sphere80_d3", 2)])
    def test_counts_run_over_the_sets(self, request, fixture, k, pinned):
        # sets of more than half of 20 atoms overlap, so tuples that repeat
        # an atom are excluded whenever there are two slots
        mu = request.getfixturevalue(fixture)
        rng = np.random.default_rng(k)
        m = k if pinned else k + 1
        sets = [rng.choice(20, size=int(rng.integers(11, 20)), replace=False)
                for _ in range(m)]
        if pinned:
            tau = default_det_threshold(mu, k)
            got = det_form_pinned(set_slots(mu, sets), k, 0.5, tau=tau)
        else:
            tau = difference_threshold([mu] * m)
            got = det_form(set_slots(mu, sets), k, 0.5, tau=tau)
        tuples = np.array(list(product(*sets)))
        dets = simplex_det_many(mu.points[tuples], pinned=pinned)
        assert got.tuples_total == math.prod(len(s) for s in sets)
        assert got.tuples_excluded == int(np.count_nonzero(dets <= tau))
        assert got.tuples_excluded > 0 or m == 1


# every entry point that takes atom-index sets, called with k sets (k = 2
# unless given)
SET_TAKERS = {
    "dyadic_profile": lambda mu, sets, k=2: dyadic_profile(mu, k, sets, 0.5),
    "cauchy_schwarz_check": lambda mu, sets, k=2: cauchy_schwarz_check(
        mu, k, 0.5, sets),
}


class TestIndexSets:
    @pytest.mark.parametrize("taker", sorted(SET_TAKERS))
    def test_rejects_repeated_index(self, cube64, taker):
        # atom 0 twice would count its mass twice
        with pytest.raises(ValueError, match="index set 0 repeats an index"):
            SET_TAKERS[taker](cube64, [[0, 0, 5, 9], [3, 7, 11]])

    @pytest.mark.parametrize("taker", sorted(SET_TAKERS))
    def test_rejects_negative_index(self, cube64, taker):
        # -1 would silently mean the last atom
        with pytest.raises(ValueError, match=r"has an index outside \[0, 64\)"):
            SET_TAKERS[taker](cube64, [[0, 5], [3, -1]])

    @pytest.mark.parametrize("taker", sorted(SET_TAKERS))
    def test_rejects_index_past_end(self, cube64, taker):
        with pytest.raises(ValueError, match=r"index set 0 has an index outside \[0, 64\)"):
            SET_TAKERS[taker](cube64, [[0, 64], [3]])

    @pytest.mark.parametrize("taker", sorted(SET_TAKERS))
    @pytest.mark.parametrize("bad", [[0.5, 1.7], [True, False], ["3", "7"],
                                     np.array([0.0, 1.0])],
                             ids=["float", "bool", "str", "float-array"])
    def test_rejects_non_integer_entries(self, cube64, taker, bad):
        # [0.5, 1.7] would be truncated to atoms 0 and 1, a mask read as them
        with pytest.raises(ValueError, match="index set 0 has non-integer entries"):
            SET_TAKERS[taker](cube64, [bad, [3]])

    @pytest.mark.parametrize("taker", sorted(SET_TAKERS))
    @pytest.mark.parametrize("k", [0, 3])
    def test_rejects_k_outside_dimension(self, cube64, taker, k):
        # at k = 3 every tuple in the plane has determinant 0, so all would
        # be excluded: a vacuous pass
        with pytest.raises(ValueError, match=rf"k must be in \[1, 2\], got {k}"):
            SET_TAKERS[taker](cube64, [[0, 1], [2, 3], [4, 5]][:k], k=k)

    @pytest.mark.parametrize("taker", sorted(SET_TAKERS))
    def test_rejects_nested(self, cube64, taker):
        # a list of index lists is not one set of atoms
        with pytest.raises(ValueError, match="index set 0 must be a flat list of atom indices"):
            SET_TAKERS[taker](cube64, [[[0, 1], [2, 3]], [0, 1]])

    @pytest.mark.parametrize("taker", sorted(SET_TAKERS))
    def test_rejects_ragged(self, cube64, taker):
        # a set holding a list has no array shape
        with pytest.raises(ValueError, match="index set 0 must be a flat list of atom indices"):
            SET_TAKERS[taker](cube64, [[0, [1, 2]], [0]])

    def test_empty_set_is_valid(self, cube64):
        # no tuple meets an empty set, so the set form has zero mass
        sets = [[], [3, 7, 11]]
        prof = dyadic_profile(cube64, 2, sets, 0.5)
        assert prof.layers == {}
        assert prof.included_mass == 0.0 and prof.excluded_mass == 0.0
        assert cauchy_schwarz_check(cube64, 2, 0.5, sets) == (0.0, 0.0, True)

    @pytest.mark.parametrize("taker", sorted(SET_TAKERS))
    def test_rejects_wrong_set_count(self, cube64, taker):
        with pytest.raises(ValueError, match="expected 2 index sets"):
            SET_TAKERS[taker](cube64, [[0, 1], [2], [3]])


def old_square_det(mats):
    """The (M, d, d) stacked-view determinant the row layout replaced, for
    d <= 3; for d >= 4 a Laplace expansion along the first row into the
    minors of the rows below, recursively, its terms added left to right
    (a fixed circuit, where the replaced code called LAPACK's LU)."""
    d = mats.shape[-1]
    if d == 1:
        return mats[:, 0, 0].copy()
    if d == 2:
        return mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    if d == 3:
        a, b, c = mats[:, 0, 0], mats[:, 0, 1], mats[:, 0, 2]
        p, q, r = mats[:, 1, 0], mats[:, 1, 1], mats[:, 1, 2]
        u, v, w = mats[:, 2, 0], mats[:, 2, 1], mats[:, 2, 2]
        return a * (q * w - r * v) - b * (p * w - r * u) + c * (p * v - q * u)
    total = mats[:, 0, 0] * old_square_det(mats[:, 1:, 1:])
    for j in range(1, d):
        term = mats[:, 0, j] * old_square_det(np.delete(mats[:, 1:], j, axis=2))
        total = total - term if j % 2 else total + term
    return total


def decode_filter(n, m):
    """Nondecreasing tuples by decoding all n^m flat indices and filtering."""
    idx = np.stack(np.unravel_index(np.arange(n ** m), [n] * m), axis=1)
    return idx[np.all(idx[:, :-1] <= idx[:, 1:], axis=1)]


def multiplicities(idx):
    """Distinct permutations of each nondecreasing index tuple, counted
    tuple by tuple: m! over the product of its equal-entry runs' factorials,
    built one factor at a time."""
    run = np.ones(idx[0].shape[0])
    fact_prod = np.ones(idx[0].shape[0])
    for j in range(1, len(idx)):
        run = np.where(idx[j] == idx[j - 1], run + 1.0, 1.0)
        fact_prod *= run
    return math.factorial(len(idx)) / fact_prod


def product_blocks(points_list, values_list, pinned):
    """(dets, wprod) of each product block through _enumerate."""
    def keep(dets, wprod, mult):
        assert mult is None
        return dets.copy(), wprod.copy()
    return functionals._enumerate(points_list, values_list, pinned, False,
                                  10 ** 7, keep)[1]


def gather_terms(points_list, values_list, idx, pinned):
    """Determinants and slot-value products of the index tuples idx[j] the
    way the kernel formed them before it took keys: np.take from contiguous
    columns, then an in-place product, left to right."""
    dets = geometry._vertex_dets(
        [[np.take(col, ix) for col in np.ascontiguousarray(points.T)]
         for points, ix in zip(points_list, idx)], pinned)
    wprod = np.take(values_list[0], idx[0])
    for j in range(1, len(idx)):
        wprod *= np.take(values_list[j], idx[j])
    return dets, wprod


def decode_gather_blocks(points_list, values_list, pinned):
    """The same blocks the way the product path formed them before it
    broadcast: decode every flat index, then gather_terms."""
    sizes = [p.shape[0] for p in points_list]
    return [gather_terms(
                points_list, values_list,
                np.unravel_index(np.arange(start, stop), sizes), pinned)
            for start, stop in parallel.block_ranges(math.prod(sizes))]


def assert_blocks_equal(got, want):
    assert len(got) == len(want)
    for (dets, wprod), (want_dets, want_wprod) in zip(got, want):
        assert np.array_equal(dets, want_dets)
        assert np.array_equal(wprod, want_wprod)


class TestKernelPaths:
    """The tuple kernel against the simpler code it replaced, bit for bit."""

    @pytest.mark.parametrize("n,m", list(product(range(1, 12), range(1, 5))))
    def test_unrank_equals_decode_filter(self, monkeypatch, n, m):
        # _prefixes unranks the nondecreasing m-tuples: row i is the tuple of
        # colex rank i, heading a row of an (m + 1)-tuple rectangle; the
        # weights of each row's tail against the multiplicities of the
        # (m + 1)-tuples counted one by one
        rows, above, on = functionals._prefixes(n, m + 1)
        want = decode_filter(n, m)
        want = want[np.lexsort(want.T)]
        assert np.array_equal(np.stack(rows, axis=1), want)
        full = decode_filter(n, m + 1)
        row_of = {tuple(r): i for i, r in enumerate(want.tolist())}
        got = [(above if v > r[-1] else on)[row_of[tuple(r)]]
               for *r, v in full.tolist()]
        assert np.array_equal(got, multiplicities(list(full.T)))
        # the row ranges partition the rows, and each stays within its bounds
        for block in (1, 2, 3, 5, 7, 40):
            monkeypatch.setattr(parallel, "BLOCK", block)
            ranges, visited = functionals._row_ranges(n, m + 1)
            assert [a for a, _ in ranges] == [0] + [b for _, b in ranges[:-1]]
            assert ranges[-1][1] == want.shape[0]
            areas = []
            for a, b in ranges:
                p = rows[-1][a]
                assert rows[-1][b - 1] <= p + (n - p) // 8
                assert b - a == 1 or (b - a) * (n - p) <= block
                areas.append((b - a) * (n - p))
            assert visited == sum(areas) >= math.comb(n + m, m + 1)

    @given(st.integers(1, 4), st.booleans(), st.integers(1, 9),
           st.sampled_from([5, 40]), st.sampled_from([0.5, -1.0, 0.0]),
           st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_equals_explicit_densities(self, m, pinned, n, block,
                                                 gamma, seed):
        # quarter-rounded atoms give exact degeneracies (so no exclusion
        # flips with the slot order) and n^m on both sides of the block
        assume(pinned or m > 1)
        k = m if pinned else m - 1
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(k, 5))
        mu = WeightedPointMeasure(np.round(rng.standard_normal((n, dim)) * 2) / 4,
                                  rng.random(n) + 0.1)
        form = det_form_pinned if pinned else det_form
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "BLOCK", block)
            for threads in ("1", "2"):
                mp.setenv("DETCURVE_THREADS", threads)
                runs.append((form(mu, k, gamma),
                             form(mu, k, gamma, [np.ones(n) for _ in range(m)])))
        (sym, explicit), again = runs
        assert again == runs[0]
        assert sym.value == pytest.approx(explicit.value, rel=1e-12, abs=0)
        assert sym.tuples_total == explicit.tuples_total == n ** m
        assert sym.tuples_excluded == explicit.tuples_excluded

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("pinned", [True, False])
    def test_square_dets_equal_stacked_reference(self, d, pinned):
        rng = np.random.default_rng(d)
        m = d if pinned else d + 1
        pts = rng.standard_normal((50, d))
        idx = [rng.integers(0, 50, size=4000) for _ in range(m)]
        stack = np.stack([pts[ix] for ix in idx], axis=1)
        diffs = stack if pinned else stack[:, :-1, :] - stack[:, -1:, :]
        want = np.abs(old_square_det(diffs))
        assert np.array_equal(simplex_det_many(stack, pinned=pinned), want)
        # the forms' coordinate-major kernel and its reference give the same bits
        cols, ones = np.ascontiguousarray(pts.T), np.ones(50)
        dets, _ = functionals._tuple_terms([cols] * m, [ones] * m, idx, pinned)
        assert np.array_equal(dets, want)
        dets, _ = gather_terms([pts] * m, [ones] * m, idx, pinned)
        assert np.array_equal(dets, want)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("m,pinned", [(1, True), (2, True), (3, True),
                                          (4, True), (2, False), (3, False),
                                          (4, False)])
    def test_product_blocks_equal_decode_gather(self, monkeypatch, threads,
                                                d, m, pinned):
        # block sizes 5, 13 and 40 against a last slot of 11 atoms give
        # blocks inside one row, blocks that start and end mid-row, and
        # blocks with whole rows between partial ones
        monkeypatch.setenv("DETCURVE_THREADS", threads)
        rng = np.random.default_rng(10 * d + m)
        sizes = [4, 3, 2][:m - 1] + [11]
        # quarter-rounded points give exact degeneracies; weights are not dyadic
        points_list = [np.round(rng.standard_normal((n, d)) * 4) / 4
                       for n in sizes]
        values_list = [rng.random(n) for n in sizes]
        for block in (5, 13, 40):
            monkeypatch.setattr(parallel, "BLOCK", block)
            assert_blocks_equal(
                product_blocks(points_list, values_list, pinned),
                decode_gather_blocks(points_list, values_list, pinned))

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("sizes", [(2, parallel.BLOCK + 1000),
                                       (parallel.BLOCK + 1000, 3)])
    def test_product_blocks_long_slot(self, monkeypatch, threads, sizes):
        # a last slot longer than a block, and one of 3 under a long first
        monkeypatch.setenv("DETCURVE_THREADS", threads)
        rng = np.random.default_rng(sum(sizes))
        points_list = [rng.standard_normal((n, 2)) for n in sizes]
        values_list = [rng.random(n) for n in sizes]
        for pinned in (True, False):
            assert_blocks_equal(
                product_blocks(points_list, values_list, pinned),
                decode_gather_blocks(points_list, values_list, pinned))
            if threads == "1":
                # a block takes at most two rows of the long slot: the
                # unpinned circuit's five arrays of two blocks' tuples, with
                # one more to spare
                peak = traced_peak(lambda: functionals._enumerate(
                    points_list, values_list, pinned, False, 10 ** 7,
                    lambda dets, wprod, mult: None))
                assert peak <= 6 * 2 * 8 * parallel.BLOCK

    def test_product_blocks_peak(self, monkeypatch):
        # 600^2 tuples in three blocks: the reducer gets a view of each
        # rectangle; concatenating a block's three pieces traced 4.2 MB here
        monkeypatch.setenv("DETCURVE_THREADS", "1")
        mu = generate(GeneratorSpec("sphere_uniform", 2, 600, 0))
        assert traced_peak(lambda: sublevel_mass([mu, mu], 1.0)) <= 3_800_000

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("k,pinned,n,samples", [
        pytest.param(2, True, 80, parallel.BLOCK + 54_321, id="2-True"),
        pytest.param(2, False, 80, parallel.BLOCK + 54_321, id="2-False"),
        pytest.param(3, False, 80, parallel.BLOCK + 54_321, id="3-False"),
        # more than 256 atoms are stored at two bytes an index
        pytest.param(2, True, 300, 2 * parallel.BLOCK + 1, id="2-True-300"),
        pytest.param(2, False, 300, 1000, id="2-False-300-short"),
        pytest.param(3, False, 80, 777, id="3-False-short"),
        # a chunk split inside the only block, and inside the second
        pytest.param(3, False, 80, functionals.CHUNK + 3, id="3-False-chunk-split"),
        pytest.param(2, True, 300, parallel.BLOCK + functionals.CHUNK + 5,
                     id="2-True-300-chunk-split"),
    ])
    def test_sampled_equals_single_batch(self, monkeypatch, threads, k, pinned,
                                         n, samples):
        # sample counts over a block, so the blocked path splits, and below
        monkeypatch.setenv("DETCURVE_THREADS", threads)
        mu = generate(GeneratorSpec("sphere_uniform", 3, n, 0))
        m = k if pinned else k + 1
        tau = (functionals.default_det_threshold(mu, k) if pinned
               else functionals.difference_threshold([mu] * m))
        got = det_form_sampled(mu, k, 0.5, samples=samples, seed=7, pinned=pinned)
        assert_sampled_reference(got, [mu] * m, 0.5, tau, samples, 7, pinned)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("chunk", [1, 7, 1000, 1 << 17])
    def test_chunks_keep_bits(self, monkeypatch, threads, chunk):
        # blocks of 1200 draws, cut into chunks of one, of 7, of 1000
        # (1000 + 200) and whole, against the default chunk at 1 thread; the
        # exact forms' rectangles (of at most 1200 tuples) take no chunks
        monkeypatch.setattr(parallel, "BLOCK", 1200)
        atoms = {1: 1400, 2: 52, 3: 19, 4: 12}  # 1330-1400 nondecreasing tuples

        def forms():
            exact = [form(generate(GeneratorSpec("sphere_uniform", 3,
                                                 atoms[k if pinned else k + 1], k)),
                          k, 0.5)
                     for k in (1, 2, 3) for pinned, form
                     in ((True, det_form_pinned), (False, det_form))]
            # one-byte (80 atoms) and two-byte (300 atoms) index stores
            sampled = [det_form_sampled(generate(GeneratorSpec("sphere_uniform", 3, n, 0)),
                                        k, 0.5, samples=1500, seed=5, pinned=pinned)
                       for n, k, pinned in ((80, 3, False), (300, 2, True))]
            return exact + sampled

        monkeypatch.setenv("DETCURVE_THREADS", "1")
        want = forms()
        monkeypatch.setenv("DETCURVE_THREADS", threads)
        monkeypatch.setattr(functionals, "CHUNK", chunk)
        assert forms() == want

    def test_dyadic_layers_equal_level_loop(self):
        # 400 x 401 tuples span two blocks; uneven weights make order matter
        base = generate(GeneratorSpec("sphere_uniform", 2, 420, 3))
        w = np.random.default_rng(3).random(420)
        mu = WeightedPointMeasure(base.points, w / w.sum())
        sets = [np.arange(400), np.arange(19, 420)]
        tau = functionals.default_det_threshold(mu, 2)

        def level_loop(dets, wprod, mult):
            included = dets > tau
            local = {}
            levels = np.frexp(dets[included])[1] - 1
            for l in np.unique(levels):
                local[int(l)] = float(np.sum(wprod[included][levels == l]))
            return local, float(np.sum(wprod[~included]))

        _, blocks = functionals._enumerate(
            [mu.points[s] for s in sets], [mu.weights[s] for s in sets],
            pinned=True, symmetric=False, budget=10 ** 7, reduce=level_loop)
        assert len(blocks) == 2
        layers = {}
        for local, _ in blocks:
            for l, m_ in local.items():
                layers[l] = layers.get(l, 0.0) + m_
        prof = dyadic_profile(mu, 2, sets, 0.5)
        assert list(prof.layers) == sorted(layers)
        assert all(prof.layers[l] == layers[l] for l in layers)
        assert prof.excluded_mass == math.fsum(exc for _, exc in blocks)
