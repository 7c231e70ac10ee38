"""Ellipsoid families, curvature search, Gaussian and slab checks, maximal bounds."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcurve import curvature
from detcurve.curvature import (
    CurvatureEstimate,
    EllipsoidFamily,
    curvature_ratio,
    default_family,
    default_frames,
    estimate_curvature_constant,
    gaussian_content_check,
    gaussian_integral,
    gaussian_lower_check,
    layer_cake_check,
    maximal_function,
    maximal_weak_bound_check,
    min_content_at_mass,
    slab_constant,
    slab_implication_check,
    _sweep,
    top_axes_flat,
    weak_lp_norm,
)
from detcurve.geometry import AffineSubspace, Ellipsoid, k_content, matrix_content
from detcurve.measure import WeightedPointMeasure, eval_measure, median_nn_distance


def dirac(point):
    point = np.asarray(point, dtype=float)
    return WeightedPointMeasure(point[None, :], np.array([1.0]))


class TestEllipsoidFamily:
    def test_dyadic_grid(self):
        fam = EllipsoidFamily.dyadic(2, -2, 0)
        assert np.allclose(fam.length_grid, [0.25, 0.5, 1.0])
        assert fam.size == 9
        assert len(list(fam.members())) == 9

    def test_floor_replaces_small_lengths(self):
        fam = EllipsoidFamily.dyadic(2, -4, 0, floor=0.1)
        assert np.allclose(fam.effective_lengths, [0.1, 0.125, 0.25, 0.5, 1.0])

    def test_doubling_mode_rejects_floor(self):
        with pytest.raises(ValueError):
            EllipsoidFamily.dyadic(2, -2, 0, floor=0.5, mode="doubling_dyadic")

    def test_doubling_mode_rejects_gapped_grid(self):
        with pytest.raises(ValueError):
            EllipsoidFamily(frames=(np.eye(2),),
                            length_grid=np.array([0.25, 1.0]),
                            mode="doubling_dyadic")

    def test_inner_tuples_drop_top_scale(self):
        fam = EllipsoidFamily.dyadic(2, -1, 1, mode="doubling_dyadic")
        full = fam.length_tuples()
        inner = fam.length_tuples(inner=True)
        assert full.shape == (9, 2)
        assert inner.shape == (4, 2)
        assert inner.max() == 1.0

    def test_inner_requires_doubling_mode(self):
        fam = EllipsoidFamily.dyadic(2, -1, 1)
        with pytest.raises(ValueError):
            fam.length_tuples(inner=True)

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            EllipsoidFamily(frames=(np.eye(2),),
                            length_grid=np.array([1.0, 0.5]))

    def test_default_frames_are_orthonormal(self, cube64):
        frames = default_frames(2, n_random=8, seed=0, points=cube64.points)
        assert np.allclose(frames[0], np.eye(2))
        for f in frames:
            assert np.allclose(f.T @ f, np.eye(2), atol=1e-10)

    def test_default_family_floor_is_median_nn(self, cube64):
        fam = default_family(cube64, n_frames=4)
        assert fam.floor == pytest.approx(median_nn_distance(cube64))


class TestCurvatureRatio:
    def test_dirac_ball(self):
        mu = dirac([0.0, 0.0])
        ball = Ellipsoid.ball(0.125, 2)
        assert curvature_ratio(mu, ball, 2, 1.0) == pytest.approx(64.0)
        assert curvature_ratio(mu, ball, 2, 0.5) == pytest.approx(8.0)

    def test_empty_ellipsoid(self):
        mu = dirac([5.0, 5.0])
        assert curvature_ratio(mu, Ellipsoid.ball(1.0, 2), 2, 1.0) == 0.0

    def test_zero_content_with_mass(self):
        mu = dirac([0.0, 0.0])
        flat = Ellipsoid(np.zeros(2), np.eye(2), np.array([math.inf, 1.0]))
        assert math.isinf(curvature_ratio(mu, flat, 2, 1.0))

    def test_infinite_content(self):
        mu = dirac([0.0, 0.0])
        huge = Ellipsoid(np.zeros(2), np.eye(2), np.array([0.0, 1.0]))
        assert curvature_ratio(mu, huge, 1, 1.0) == 0.0


class TestEstimateConstant:
    def test_dirac_attains_floor_ball(self):
        mu = dirac([0.0, 0.0])
        fam = EllipsoidFamily.dyadic(2, -4, 0, floor=1.0 / 16.0)
        est = estimate_curvature_constant(mu, 2, 1.0, fam)
        assert isinstance(est, CurvatureEstimate)
        assert est.constant == pytest.approx(256.0)
        assert np.allclose(est.witness.semi_lengths, 1.0 / 16.0)

    def test_beats_every_family_member(self, cube64):
        fam = default_family(cube64, n_frames=4, n_pca=2)
        est = estimate_curvature_constant(cube64, 2, 1.0, fam, refine=40)
        best_grid = max(curvature_ratio(cube64, b, 2, 1.0) for b in fam.members())
        assert est.constant >= best_grid * (1 - 1e-12)
        # the witness reproduces the reported constant
        assert curvature_ratio(cube64, est.witness, 2, 1.0) == pytest.approx(
            est.constant, rel=1e-12)

    def test_known_grid_constant(self, cube256):
        fam = default_family(cube256)
        est = estimate_curvature_constant(cube256, 2, 1.0, fam)
        assert est.constant == pytest.approx(1.75, rel=1e-9)


class TestMinContent:
    def test_radius_quantile_k1(self):
        pts = np.array([[0.2, 0.0], [0.0, 0.5], [1.0, 0.0]])
        mu = WeightedPointMeasure(pts, np.array([0.5, 0.25, 0.25]))
        fam = EllipsoidFamily.dyadic(2, -6, 1)
        content, witness = min_content_at_mass(mu, 1, 0.6, fam)
        assert content == pytest.approx(0.5)
        assert eval_measure(mu, witness) >= 0.6 - 1e-9

    def test_witness_consistency(self, cube64):
        fam = default_family(cube64, n_frames=4, n_pca=2)
        content, witness = min_content_at_mass(cube64, 2, 0.3, fam, refine=40)
        assert content == pytest.approx(k_content(witness, 2), rel=1e-12)
        assert eval_measure(cube64, witness) >= 0.3 - 1e-6

    def test_monotone_in_eps(self, cube64):
        fam = default_family(cube64, n_frames=4, n_pca=2)
        c_small, _ = min_content_at_mass(cube64, 2, 0.2, fam, refine=40)
        c_large, _ = min_content_at_mass(cube64, 2, 0.8, fam, refine=40)
        assert c_small <= c_large * (1 + 1e-9)


class TestGaussian:
    def test_integral_matches_loop(self, three_atoms):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(2, 2))
        want = math.fsum(
            w * math.exp(-float(np.sum((q @ p) ** 2)))
            for p, w in zip(three_atoms.points, three_atoms.weights))
        assert gaussian_integral(three_atoms, q) == pytest.approx(want, rel=1e-14)

    def test_form_center_shift(self, three_atoms):
        # atom (1, 0) sits at the centre x0 and contributes its full weight
        got = gaussian_integral(three_atoms, np.eye(2), np.array([1.0, 0.0]))
        want = 0.5 + 0.25 * math.exp(-2.0) + 0.25 * math.exp(-0.5)
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("x0", [0.5, [1.0], [1.0, 0.0, 0.0]])
    def test_rejects_misshapen_center(self, three_atoms, x0):
        # a scalar or one-entry centre would broadcast silently
        with pytest.raises(ValueError, match=r"x0 must have shape \(2,\)"):
            gaussian_integral(three_atoms, np.eye(2), x0)

    def test_lower_bound_random(self, cube64):
        rng = np.random.default_rng(6)
        for _ in range(20):
            q = rng.normal(size=(2, 2)) * 2.0 ** rng.uniform(-2, 2)
            lhs, rhs, ok = gaussian_lower_check(cube64, q)
            assert ok and lhs <= rhs * (1 + 1e-12)

    def test_layer_cake_single_atom(self):
        mu = dirac([0.6, 0.8])
        lhs, rhs, rel = layer_cake_check(mu, np.eye(2))
        assert lhs == pytest.approx(math.exp(-1.0))
        assert rel < 1e-14

    def test_layer_cake_cube(self, cube64):
        rng = np.random.default_rng(8)
        for _ in range(5):
            q = rng.normal(size=(2, 2))
            _, _, rel = layer_cake_check(cube64, q)
            assert rel < 1e-12

    def test_content_bound_cube(self, cube64):
        rng = np.random.default_rng(9)
        for _ in range(5):
            q = rng.normal(size=(2, 2)) * 2.0 ** rng.uniform(-1, 1)
            lhs, bound, c_dyadic, ok = gaussian_content_check(cube64, q, 2, 1.0)
            assert ok and c_dyadic > 0 and lhs <= bound * (1 + 1e-9)

    def test_content_bound_singular_matrix(self, cube64):
        q = np.array([[1.0, 0.0], [0.0, 0.0]])
        lhs, bound, c_dyadic, ok = gaussian_content_check(cube64, q, 2, 1.0)
        assert ok and math.isinf(bound) and c_dyadic == 0.0

    def test_content_bound_mass_at_kernel(self):
        mu = dirac([0.0, 0.0])
        lhs, bound, c_dyadic, ok = gaussian_content_check(mu, np.eye(2), 2, 1.0)
        assert ok and math.isinf(bound)


class TestSlab:
    def test_two_atom_constant(self):
        # sup over distances of mass(dist <= t) / t^(alpha k)
        mu = WeightedPointMeasure(np.array([[0.0, 0.5], [0.0, 1.0]]),
                                  np.array([0.5, 0.5]))
        axis = AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]]))
        assert slab_constant(mu, 2, 1.0, [axis]) == pytest.approx(2.0)
        assert slab_constant(mu, 2, 2.0, [axis]) == pytest.approx(8.0)

    @pytest.mark.filterwarnings("error")
    def test_zero_weight_atom_on_flat(self):
        # the atom on the flat has no mass, so the flat keeps its ratios;
        # the old 0/0 ratio was NaN and max(best, nan) dropped them
        mu = WeightedPointMeasure(np.array([[0.3, 0.0], [0.0, 0.5], [0.0, 1.0]]),
                                  np.array([0.0, 0.5, 0.5]))
        axis = AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]]))
        assert slab_constant(mu, 2, 1.0, [axis]) == 2.0

    def test_on_flat_mass_is_infinite(self, line64):
        axis = AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]]))
        assert math.isinf(slab_constant(line64, 2, 1.0, [axis]))

    def test_top_axes_flat(self):
        e = Ellipsoid.from_semi_lengths([2.0, 1.0])
        flat = top_axes_flat(e, 2)
        assert flat.dim == 1
        assert flat.distance([5.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
        assert flat.distance([0.0, 1.0]) == pytest.approx(1.0)

    def test_implication_on_cube(self, cube64):
        # axis-aligned flats miss the cell-centered atoms, so the slab
        # constant is finite and the member bounds are informative
        fam = EllipsoidFamily.dyadic(2, -4, 1)
        c_slab, all_ok, worst, n_checked = slab_implication_check(
            cube64, 2, 1.0, fam)
        assert all_ok and n_checked == 36
        assert math.isfinite(c_slab) and c_slab > 0
        assert worst >= 0.0  # margin is bound - mass, nonnegative when ok

    def test_implication_vacuous_on_flat_mass(self, cube64):
        # a frame whose top axis runs along the grid diagonal puts atoms on
        # the flat, the slab constant degenerates, and the check is vacuous
        diag = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
        fam = EllipsoidFamily.dyadic(2, -2, 0, frames=(diag,))
        c_slab, all_ok, worst, _ = slab_implication_check(cube64, 2, 1.0, fam)
        assert math.isinf(c_slab) and all_ok


class TestMaximal:
    def test_single_atom_values(self):
        mu = dirac([0.0, 0.0])
        fam = EllipsoidFamily.dyadic(2, -2, 1, mode="doubling_dyadic")
        f = maximal_function(mu, 2, 1.0, fam, np.array([[0.0, 0.0], [10.0, 10.0]]))
        assert f[0] == pytest.approx(16.0)  # quarter-ball of content 1/16
        assert f[1] == 0.0

    def test_inner_restricts_scales(self):
        mu = dirac([0.0, 0.0])
        fam = EllipsoidFamily.dyadic(2, 0, 1, mode="doubling_dyadic")
        full = maximal_function(mu, 2, 1.0, fam, np.zeros((1, 2)))
        inner = maximal_function(mu, 2, 1.0, fam, np.zeros((1, 2)), inner=True)
        assert full[0] == pytest.approx(1.0)
        assert inner[0] == pytest.approx(1.0)

    def test_requires_doubling_mode(self, cube64):
        fam = default_family(cube64, n_frames=2)
        with pytest.raises(ValueError):
            maximal_function(cube64, 2, 1.0, fam)

    def test_weak_lp_norm_hand_values(self):
        values = np.array([3.0, 1.0])
        weights = np.array([0.25, 0.75])
        assert weak_lp_norm(values, weights, 1.0) == pytest.approx(1.0)
        assert weak_lp_norm(values, weights, 2.0) == pytest.approx(1.5)
        assert weak_lp_norm(np.zeros(3), np.ones(3), 1.0) == 0.0

    @pytest.mark.parametrize("values,weights,message", [
        ([np.nan, 1.0], [0.5, 0.5], "values must not be NaN"),
        ([1.0, 2.0], [-0.5, 1.5], "weights must be finite and nonnegative"),
        ([1.0, 2.0], [np.inf, 0.5], "weights must be finite and nonnegative"),
        ([1.0, 2.0], [np.nan, 0.5], "weights must be finite and nonnegative")])
    def test_weak_lp_norm_rejects_bad_input(self, values, weights, message):
        # a NaN atom used to drop out of every level, taking its mass along
        with pytest.raises(ValueError, match=message):
            weak_lp_norm(np.array(values), np.array(weights), 1.0)

    @pytest.mark.parametrize("points", [
        np.array([[0.0, np.nan]]), np.array([[np.inf, 0.0]]), np.zeros(2), np.zeros((3, 3))])
    def test_rejects_bad_eval_points(self, cube64, points):
        fam = EllipsoidFamily.dyadic(2, -2, 1, mode="doubling_dyadic")
        with pytest.raises(ValueError, match="eval_points"):
            maximal_function(cube64, 2, 1.0, fam, points)

    def test_weak_bound_on_cube(self, cube64):
        fam = EllipsoidFamily.dyadic(
            2, -5, 1, frames=default_frames(2, n_random=3, seed=1),
            mode="doubling_dyadic")
        lhs, rhs, ok = maximal_weak_bound_check(cube64, 2, 1.0, 1.0, fam)
        assert ok and lhs <= rhs * (1 + 1e-9)


def brute_sweep(z, values, weights):
    """Weight sum over the atoms each member's Ellipsoid contains, z being
    coordinates in the frame, so the sweep is pinned to the evaluator."""
    return np.array([np.sum(weights[Ellipsoid.from_semi_lengths(lengths).contains_many(z)])
                     for lengths in product(values, repeat=z.shape[-1])])


def maximal_reference(mu, k, alpha, family, pts, inner=False):
    """The per-point loop that maximal_function replaced."""
    tuples = family.length_tuples(inner=inner)
    invsq = 1.0 / tuples ** 2
    contents_a = np.prod(np.sort(tuples, axis=1)[:, ::-1][:, :k], axis=1) ** alpha
    out = np.zeros(pts.shape[0])
    for frame in family.frames:
        z_atoms = mu.points @ frame
        z_eval = pts @ frame
        for m in range(pts.shape[0]):
            diff = z_atoms - z_eval[m]
            s = np.einsum("na,ta->nt", diff * diff, invsq)
            masses = np.einsum("n,nt->t", mu.weights, (s <= 1.0).astype(float))
            out[m] = max(out[m], float(np.max(masses / contents_a)))
    return out


def weak_bound_reference(mu, k, alpha, p, family):
    """The check as two separate sweeps: the full table at alpha and the
    inner table at alpha p / (p + 1)."""
    def sup(tuples, a):
        contents_a = np.prod(np.sort(tuples, axis=1)[:, ::-1][:, :k], axis=1) ** a
        out = np.zeros(mu.n_atoms)
        for _, masses in curvature._frame_masses(mu, family, tuples, mu.points):
            out = np.maximum(out, np.max(masses / contents_a, axis=1))
        return out

    wk = weak_lp_norm(sup(family.length_tuples(), alpha), mu.weights, p)
    f_inner = sup(family.length_tuples(inner=True), alpha * p / (p + 1.0))
    lhs = float(np.max(f_inner[mu.weights > 0.0]))
    rhs = 2.0 ** (alpha * k) * wk ** (p / (p + 1.0))
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-9)


class TestMaximalOneSweep:
    @pytest.mark.parametrize("fixture", ["cube64", "circle240", "sphere80_d3"])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_matches_two_sweeps(self, request, fixture, k, p):
        mu = request.getfixturevalue(fixture)
        fam = EllipsoidFamily.dyadic(mu.dim, -4, 1, mode="doubling_dyadic",
                                     frames=default_frames(mu.dim, n_random=2, seed=3))
        got = maximal_weak_bound_check(mu, k, 0.75, p, fam)
        assert got == weak_bound_reference(mu, k, 0.75, p, fam)

    def test_one_sweep(self, cube64, monkeypatch):
        calls = []
        original = curvature._frame_masses

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(curvature, "_frame_masses", counting)
        fam = EllipsoidFamily.dyadic(2, -3, 1, mode="doubling_dyadic")
        maximal_weak_bound_check(cube64, 2, 1.0, 1.0, fam)
        assert len(calls) == 1

    def test_grid_without_inner_members(self, cube64):
        fam = EllipsoidFamily.dyadic(2, 0, 0, mode="doubling_dyadic")
        with pytest.raises(ValueError, match="inner members"):
            maximal_weak_bound_check(cube64, 2, 1.0, 1.0, fam)
        assert maximal_function(cube64, 2, 1.0, fam).shape == (64,)


class TestSweep:
    @given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, d, seed):
        rng = np.random.default_rng(seed)
        values = np.unique(np.concatenate([
            rng.choice(2.0 ** np.arange(-2, 3), int(rng.integers(0, 4))),
            rng.uniform(0.2, 3.0, int(rng.integers(1, 3)))]))
        frame, r = np.linalg.qr(rng.standard_normal((d, d)))
        frame = frame * np.sign(np.diag(r))
        shift = rng.standard_normal(d)
        z_random = (rng.uniform(-3.0, 3.0, (int(rng.integers(1, 30)), d)) - shift) @ frame
        # atoms on and next to s == 1: coordinates are grid lengths times
        # factors whose squares sum to 1 exactly or to within an ulp
        factors = rng.choice([0.0, 0.5, math.sqrt(0.5), math.sqrt(0.75), 1.0],
                             (24, d))
        z_edge = factors * rng.choice(values, (24, d)) * rng.choice([-1.0, 1.0], (24, d))
        z_edge[::3] = np.nextafter(z_edge[::3], np.inf)
        z = np.concatenate([z_random, z_edge])
        weights = rng.integers(0, 4, z.shape[0]).astype(float)  # exact sums
        masses = _sweep(z, values, weights)
        assert masses.shape == (len(values) ** d,)
        assert np.array_equal(masses, brute_sweep(z, values, weights))
        batched = _sweep(np.stack([z, z[::-1] * 0.5]), values, weights)
        assert np.array_equal(batched[0], masses)
        assert np.array_equal(batched[1], brute_sweep(z[::-1] * 0.5, values, weights))

    @pytest.mark.parametrize("block", [None, 1])
    @pytest.mark.parametrize("inner", [False, True])
    def test_maximal_matches_point_loop(self, cube64, monkeypatch, block, inner):
        if block is not None:  # one centre per block
            monkeypatch.setattr(curvature, "SWEEP_BLOCK", block)
        fam = EllipsoidFamily.dyadic(2, -5, 1, frames=default_frames(2, n_random=3, seed=2),
                                     mode="doubling_dyadic")
        rng = np.random.default_rng(0)
        pts = np.concatenate([cube64.points, rng.uniform(-0.5, 1.5, (9, 2))])
        got = maximal_function(cube64, 2, 0.75, fam, pts, inner=inner)
        # weights 1/64 sum exactly in any order
        assert np.array_equal(got, maximal_reference(cube64, 2, 0.75, fam, pts, inner))

    @pytest.mark.parametrize("fixture", ["circle240", "sphere80_d3"])
    def test_maximal_matches_point_loop_general_weights(self, request, fixture):
        mu = request.getfixturevalue(fixture)
        fam = EllipsoidFamily.dyadic(mu.dim, -4, 1, mode="doubling_dyadic",
                                     frames=default_frames(mu.dim, n_random=2, seed=1))
        got = maximal_function(mu, 2, 1.0, fam)
        want = maximal_reference(mu, 2, 1.0, fam, mu.points)
        assert got == pytest.approx(want, rel=1e-12)

    def test_maximal_one_dimensional_and_empty(self):
        mu = WeightedPointMeasure(np.array([[0.0], [0.5], [0.75], [2.0]]),
                                  np.array([0.25, 0.25, 0.25, 0.25]))
        fam = EllipsoidFamily.dyadic(1, -2, 1, mode="doubling_dyadic")
        assert np.array_equal(maximal_function(mu, 1, 1.0, fam),
                              maximal_reference(mu, 1, 1.0, fam, mu.points))
        assert maximal_function(mu, 1, 1.0, fam, np.zeros((0, 1))).shape == (0,)

    def test_sweep_agrees_with_member_masses_d3(self):
        # atoms u * l with u on the unit sphere and l a grid length per axis
        # give s within an ulp of 1, where the order of the three terms
        # decides membership; signed axis permutations keep the frame
        # coordinates exact and dyadic lengths keep 1 / l ** 2 exact
        rng = np.random.default_rng(5)
        values = 2.0 ** np.arange(-1, 2)
        u = rng.standard_normal((256, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        mu = WeightedPointMeasure(u * rng.choice(values, (256, 3)), np.full(256, 1.0 / 256))
        frames = (np.eye(3), np.eye(3)[[2, 0, 1]], np.eye(3)[:, [1, 2, 0]] * [1.0, -1.0, 1.0])
        fam = EllipsoidFamily(frames=frames, length_grid=values)
        tuples = fam.length_tuples()
        einsum_differs = 0
        for frame, masses in curvature._frame_masses(mu, fam, tuples, np.zeros((1, 3))):
            z = mu.points @ frame
            for lengths, mass in zip(tuples, masses[0]):
                assert mass == eval_measure(mu, Ellipsoid.from_semi_lengths(lengths, frame=frame))
                assert mass == curvature._single_mass(mu, frame, lengths)
                s = np.einsum("na,a->n", z * z, 1.0 / lengths ** 2)
                einsum_differs += float(np.sum(mu.weights[s <= 1.0])) != mass
        assert einsum_differs > 0  # the data does reach the order-sensitive atoms
        est = estimate_curvature_constant(mu, 2, 1.0, fam, refine=0)
        assert est.constant == max(curvature_ratio(mu, b, 2, 1.0) for b in fam.members())


def slab_reference(mu, k, alpha, family, max_members, rel_tol=1e-9):
    """The per-member Ellipsoid and eval_measure loop slab_implication_check
    replaced."""
    members = list(family.members())
    members = members[::-(-len(members) // max_members)]
    c_slab = slab_constant(mu, k, alpha, [top_axes_flat(b, k) for b in members])
    all_ok, worst = True, math.inf
    for b in members:
        mass = eval_measure(mu, b)
        bound = c_slab * float(np.sort(b.semi_lengths)[::-1][k - 1]) ** (alpha * k)
        worst = min(worst, bound - mass)
        all_ok &= mass <= bound * (1.0 + rel_tol) or math.isinf(bound)
    return c_slab, all_ok, worst, len(members)


class TestSlabDedup:
    @pytest.mark.parametrize("fixture,alpha,max_members", [
        ("cube64", 1.0, 4096), ("cube64", 0.75, 50),
        ("circle240", 1.0, 4096), ("circle240", 0.75, 50)])
    def test_matches_member_loop(self, request, fixture, alpha, max_members):
        mu = request.getfixturevalue(fixture)
        # no data-adapted frames: on cube64 they run through atoms (c_slab inf)
        fam = EllipsoidFamily.dyadic(2, -5, 1, frames=default_frames(2, n_random=5, seed=1),
                                     floor=median_nn_distance(mu))
        got = slab_implication_check(mu, 2, alpha, fam, max_members=max_members)
        want = slab_reference(mu, 2, alpha, fam, max_members)
        assert math.isfinite(got[0])
        assert got[0] == want[0] and got[1] == want[1] and got[3] == want[3]
        if fixture == "cube64":  # weights 1/64 sum exactly in any order
            assert got[2] == want[2]
        else:
            assert got[2] == pytest.approx(want[2], rel=1e-12)

    @pytest.mark.parametrize("fixture,k,max_members", [
        ("cube64", 2, 4096), ("cube64", 2, 50),
        ("sphere80_d3", 2, 4096), ("sphere80_d3", 3, 100)])
    def test_matches_undeduplicated_flats(self, request, monkeypatch, fixture,
                                          k, max_members):
        mu = request.getfixturevalue(fixture)
        fam = default_family(mu, n_frames=3, n_pca=1)
        members = list(fam.members())
        stride = -(-len(members) // max_members) if len(members) > max_members else 1
        members = members[::stride]
        want = slab_constant(mu, k, 1.0, [top_axes_flat(b, k) for b in members])
        seen = []
        original = curvature.slab_constant

        def spy(mu_, k_, alpha_, flats):
            seen.extend(flats)
            return original(mu_, k_, alpha_, flats)

        monkeypatch.setattr(curvature, "slab_constant", spy)
        c_slab, _, _, n_checked = slab_implication_check(
            mu, k, 1.0, fam, max_members=max_members)
        assert c_slab == want
        assert n_checked == len(members)
        # one flat per frame and ordered choice of k-1 longest axes at most
        assert len(seen) <= len(fam.frames) * math.perm(mu.dim, k - 1)



# the curvature entry points on the d = 2 cube, with the arguments each takes
CURVATURE_ENTRIES = {
    "estimate_curvature_constant": (lambda mu, a: estimate_curvature_constant(
        mu, a["k"], a["alpha"], a["family"], refine=0), ("k", "alpha", "family")),
    "min_content_at_mass": (lambda mu, a: min_content_at_mass(
        mu, a["k"], 0.5, a["family"], refine=0), ("k", "family")),
    "slab_implication_check": (lambda mu, a: slab_implication_check(
        mu, a["k"], a["alpha"], a["family"], max_members=a["max_members"]),
        ("k", "alpha", "family", "max_members")),
    "maximal_function": (lambda mu, a: maximal_function(
        mu, a["k"], a["alpha"], a["family"]), ("k", "alpha", "family")),
    "maximal_weak_bound_check": (lambda mu, a: maximal_weak_bound_check(
        mu, a["k"], a["alpha"], 1.0, a["family"]), ("k", "alpha", "family")),
}
BAD_ARGUMENTS = [
    ("k", 0, r"k must be in \[1, 2\], got 0"),
    ("k", 3, r"k must be in \[1, 2\], got 3"),
    ("alpha", 0.0, "alpha must be positive"),
    ("alpha", -1.0, "alpha must be positive"),
    ("family", 3, "family dimension 3 does not match the measure's 2"),
    ("max_members", 0, "max_members must be at least 1"),
    ("max_members", -1, "max_members must be at least 1"),
]


def entry_arguments(**override):
    args = {"k": 2, "alpha": 1.0, "max_members": 64, "family": 2, **override}
    args["family"] = EllipsoidFamily.dyadic(args["family"], -4, 0,
                                            mode="doubling_dyadic")
    return args


class TestArgumentChecks:
    @pytest.mark.parametrize("entry,name,value,message", [
        pytest.param(entry, name, value, message, id=f"{entry}-{name}={value}")
        for entry, (_, takes) in sorted(CURVATURE_ENTRIES.items())
        for name, value, message in BAD_ARGUMENTS if name in takes])
    def test_rejects_by_name(self, cube64, entry, name, value, message):
        # before the checks: a vacuous slab pass at k > d, raw matmul errors
        # for a family of another dimension, a maximal function at alpha < 0
        with pytest.raises(ValueError, match=message):
            CURVATURE_ENTRIES[entry][0](cube64, entry_arguments(**{name: value}))

    @pytest.mark.parametrize("entry", sorted(CURVATURE_ENTRIES))
    def test_valid_arguments_run(self, cube64, entry):
        CURVATURE_ENTRIES[entry][0](cube64, entry_arguments())


# the inline distribution functions that curvature._level_masses replaced


def slab_flat_reference(mu, k, alpha, flat):
    """One flat's term of slab_constant as the per-flat sort computed it."""
    dist = flat.distance_many(mu.points)
    if float(np.sum(mu.weights[dist <= 1e-12 * max(1.0, mu.max_radius)])) > 0.0:
        return math.inf
    order = np.argsort(dist, kind="stable")
    d_sorted = dist[order]
    cum = np.cumsum(mu.weights[order])
    is_last = np.ones(len(d_sorted), dtype=bool)
    is_last[:-1] = d_sorted[:-1] != d_sorted[1:]
    ratios = cum[is_last] / d_sorted[is_last] ** (alpha * k)
    return max(0.0, float(np.max(ratios)))


def layer_cake_reference(mu, q):
    lhs = gaussian_integral(mu, q)
    r = np.linalg.norm(mu.points @ q.T, axis=1)
    order = np.argsort(r, kind="stable")
    r_sorted = r[order]
    cum = np.cumsum(mu.weights[order])
    breaks, last_idx = np.unique(r_sorted[::-1], return_index=True)
    masses = cum[len(r_sorted) - 1 - last_idx]
    rhs = 0.0
    for i, (a, m_) in enumerate(zip(breaks, masses)):
        b2 = breaks[i + 1] ** 2 if i + 1 < len(breaks) else math.inf
        tail = 0.0 if math.isinf(b2) else math.exp(-b2)
        rhs += m_ * (math.exp(-a * a) - tail)
    denom = abs(lhs) if lhs != 0.0 else 1.0
    return lhs, rhs, abs(lhs - rhs) / denom


def gaussian_content_reference(mu, q, k, alpha, rel_tol=1e-9):
    """One masked sum per dyadic level."""
    lhs = gaussian_integral(mu, q)
    qk = matrix_content(q, k)
    r = np.linalg.norm(mu.points @ q.T, axis=1)
    positive = r[(r > 0.0) & (mu.weights > 0.0)]
    if positive.size == 0 or float(np.sum(mu.weights[r == 0.0])) > 0.0:
        return lhs, math.inf, math.inf, True
    j_lo = math.floor(math.log2(float(np.min(positive)))) - 1
    j_hi = math.ceil(math.log2(float(np.max(r))))
    c_dyadic = 0.0
    for j in range(j_lo + 1, j_hi + 1):
        t = 2.0 ** j
        mass = float(np.sum(mu.weights[r <= t]))
        c_dyadic = max(c_dyadic, mass / (t ** k * qk) ** alpha)
    bound = math.gamma(k * alpha / 2.0 + 1.0) * 2.0 ** (k * alpha) * c_dyadic * qk ** alpha
    return lhs, bound, c_dyadic, lhs <= bound * (1.0 + rel_tol)


def weak_lp_norm_reference(values, weights, p):
    v = np.abs(values)
    order = np.argsort(-v, kind="stable")
    v_sorted = v[order]
    cum = np.cumsum(weights[order])
    firsts = np.ones(len(v_sorted), dtype=bool)
    firsts[1:] = v_sorted[1:] != v_sorted[:-1]
    lasts = np.ones(len(v_sorted), dtype=bool)
    lasts[:-1] = v_sorted[:-1] != v_sorted[1:]
    vals = v_sorted[firsts]
    mass_ge = cum[lasts]
    keep = vals > 0.0
    if not np.any(keep):
        return 0.0
    return float(np.max(vals[keep] ** p * mass_ge[keep])) ** (1.0 / p)


def radius_quantile_reference(mu, eps):
    """min_content_at_mass at k = 1."""
    eps_eff = eps - 1e-9 * max(1.0, eps)
    order = np.argsort(mu.radii, kind="stable")
    cum = np.cumsum(mu.weights[order])
    pos = min(int(np.searchsorted(cum, eps_eff)), mu.n_atoms - 1)
    return float(mu.radii[order][pos])


@pytest.fixture(scope="module")
def tied_cloud():
    """Random weights on 16 lattice sites off the origin: repeated atoms,
    and norms and distances tied between x and -x."""
    rng = np.random.default_rng(4)
    pts = (2.0 * rng.integers(-2, 2, size=(200, 2)) + 1.0) / 8.0
    return WeightedPointMeasure(pts, rng.uniform(0.5, 1.5, 200) / 200.0)


class TestLevelMasses:
    @pytest.mark.parametrize("fixture", ["cube64", "circle240", "sphere80_d3",
                                         "tied_cloud"])
    def test_matches_inline_copies(self, request, fixture):
        mu = request.getfixturevalue(fixture)
        d = mu.dim
        family = EllipsoidFamily.dyadic(d, -2, 0)
        rng = np.random.default_rng(12)
        for i in range(20):
            q = rng.normal(size=(d, d)) * 2.0 ** rng.uniform(-2, 2)
            assert layer_cake_check(mu, q) == layer_cake_reference(mu, q)
            # a cumulative sum replaces the masked sums
            assert gaussian_content_check(mu, q, 2, 0.75) == pytest.approx(
                gaussian_content_reference(mu, q, 2, 0.75), rel=1e-14)

            values = np.round(rng.exponential(size=mu.n_atoms), 1)  # ties, zeros
            p = 0.5 + 2.0 * rng.random()
            assert (weak_lp_norm(values, mu.weights, p)
                    == weak_lp_norm_reference(values, mu.weights, p))

            eps = mu.total_mass * (1.0 if i == 0 else rng.uniform(0.01, 1.0))
            radius, _ = min_content_at_mass(mu, 1, eps, family)
            assert radius == radius_quantile_reference(mu, eps)

            for k in range(2, d + 1):
                basis = (np.eye(d) if i % 2 else
                         np.linalg.qr(rng.normal(size=(d, d)))[0].T)[:k - 1]
                # every fifth flat runs through an atom: an infinite constant
                base = (mu.points[rng.integers(mu.n_atoms)] if i % 5 == 0
                        else rng.normal(size=d) * 0.1)
                flat = AffineSubspace(base, basis)
                alpha = 0.5 + rng.random()
                assert (slab_constant(mu, k, alpha, [flat])
                        == slab_flat_reference(mu, k, alpha, flat))
