"""Ellipsoid families, curvature search, Gaussian and slab checks, maximal bounds."""

import math
import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dilate
from detcurve import curvature, parallel
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
    weak_lp_norm,
)
from detcurve.geometry import Ellipsoid, k_content, matrix_content
from detcurve.measure import (GeneratorSpec, WeightedPointMeasure, eval_measure,
                              generate, median_nn_distance)


def dirac(point):
    point = np.asarray(point, dtype=float)
    return WeightedPointMeasure(point[None, :], np.array([1.0]))


def members(family):
    """Every member as an Ellipsoid, frame by frame in length_tuples order:
    the brute-force reference for the swept tables."""
    for frame in family.frames:
        for lengths in family.length_tuples():
            yield Ellipsoid(lengths, frame=frame)


def top_axes_flat(ellipsoid, k):
    """Basis rows of the span of the k-1 longest axes of a centred
    ellipsoid (stable ties): the reference for the flats
    slab_implication_check forms per length tuple."""
    order = np.argsort(-ellipsoid.semi_lengths, kind="stable")
    return ellipsoid.frame[:, order[:k - 1]].T


def frames_reference(dim, n_random, seed, points, n_pca):
    """default_frames one frame at a time: one eigh per principal frame, the
    subset draws between them, then one QR per random rotation."""
    rng = np.random.default_rng(seed)
    frames = [np.eye(dim)]

    def pca_frame(pts, center):
        x = pts - pts.mean(axis=0) if center else pts
        return np.linalg.eigh(x.T @ x)[1]

    if points is not None and len(points) >= 2:
        frames += [pca_frame(points, center=False), pca_frame(points, center=True)]
        size = min(len(points), max(dim + 1, 8))
        for _ in range(n_pca):
            sub = rng.choice(len(points), size=size, replace=False)
            frames.append(pca_frame(points[sub], center=True))
    for _ in range(n_random):
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        frames.append(q * np.sign(np.diag(r)))
    return frames


class TestEllipsoidFamily:
    def test_dyadic_grid(self):
        fam = EllipsoidFamily.dyadic(2, -2, 0)
        assert np.allclose(fam.length_grid, [0.25, 0.5, 1.0])
        assert fam.size == 9
        assert fam.length_tuples().shape == (9, 2)

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
        # from (1.5, 0) only the top semi-length 2 along the first axis
        # reaches the atom, and the inner sup reads no member at the top
        fam = EllipsoidFamily.dyadic(2, -1, 1, mode="doubling_dyadic")
        y = np.array([[1.5, 0.0]])
        assert maximal_function(dirac([0.0, 0.0]), 2, 1.0, fam, y)[0] == 1.0
        assert maximal_function(dirac([0.0, 0.0]), 2, 1.0, fam, y, inner=True)[0] == 0.0

    def test_inner_requires_doubling_mode(self):
        fam = EllipsoidFamily.dyadic(2, -1, 1)
        with pytest.raises(ValueError, match="doubling_dyadic"):
            maximal_function(dirac([0.0, 0.0]), 2, 1.0, fam, inner=True)

    def test_frames_are_copied_and_frozen(self, cube64):
        frame = np.eye(2)
        grid = 2.0 ** np.arange(-4, 1)
        fam = EllipsoidFamily(frames=(frame,), length_grid=grid)
        want = curvature._centred_masses(cube64, fam).copy()
        frame[:] = [[0.6, -0.8], [0.8, 0.6]]
        assert np.array_equal(fam.frames[0], np.eye(2))
        assert not fam.frames[0].flags.writeable
        rotated = EllipsoidFamily(frames=(frame,), length_grid=grid)
        assert not np.array_equal(curvature._centred_masses(cube64, rotated), want)
        # an equal measure object makes the family sweep its frames again
        twin = WeightedPointMeasure(cube64.points, cube64.weights)
        assert np.array_equal(curvature._centred_masses(twin, fam), want)
        assert np.array_equal(curvature._centred_masses(cube64, fam), want)

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            EllipsoidFamily(frames=(np.eye(2),),
                            length_grid=np.array([1.0, 0.5]))

    def test_default_frames_are_orthonormal(self, cube64):
        frames = default_frames(2, n_random=8, seed=0, points=cube64.points)
        assert np.allclose(frames[0], np.eye(2))
        for f in frames:
            assert np.allclose(f.T @ f, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_random", [0, 1, 64])
    @pytest.mark.parametrize("n_pca", [0, 8])
    @pytest.mark.parametrize("n_atoms", [None, 1, 50])
    def test_default_frames_match_per_frame_loop(self, dim, n_random, n_pca, n_atoms):
        rng = np.random.default_rng(dim)
        points = (None if n_atoms is None else  # stretched: distinct principal axes
                  rng.standard_normal((n_atoms, dim)) * [1.0, 3.0, 0.5, 2.0][:dim])
        for seed in (0, 7):
            got = default_frames(dim, n_random=n_random, seed=seed, points=points, n_pca=n_pca)
            want = frames_reference(dim, n_random, seed, points, n_pca)
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_default_family_floor_is_median_nn(self, cube64):
        fam = default_family(cube64, n_frames=4)
        assert fam.floor == pytest.approx(median_nn_distance(cube64))

    def test_default_family_doubling_rejects_floor(self, cube64):
        with pytest.raises(ValueError, match="does not take a floor, got 0.1"):
            default_family(cube64, n_frames=4, floor=0.1, mode="doubling_dyadic")


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
        flat = Ellipsoid(np.array([0.0, 1.0]))
        assert math.isinf(curvature_ratio(mu, flat, 2, 1.0))

    def test_infinite_content(self):
        mu = dirac([0.0, 0.0])
        huge = Ellipsoid(np.array([math.inf, 1.0]))
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
        best_grid = max(curvature_ratio(cube64, b, 2, 1.0) for b in members(fam))
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

    def test_k1_rejects_negative_refine(self, cube64):
        # the radius quantile at k = 1 used to return before refine was read
        fam = default_family(cube64, n_frames=2)
        with pytest.raises(ValueError, match="refine must be at least 0, got -5"):
            min_content_at_mass(cube64, 1, 0.5, fam, refine=-5)
        # a fractional budget used to pass the k = 1 branch unread too
        with pytest.raises(ValueError, match="refine must be an integer, got 2.5"):
            min_content_at_mass(cube64, 1, 0.5, fam, refine=2.5)

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


def same_ellipsoid(a, b):
    return (np.array_equal(a.frame, b.frame)
            and np.array_equal(a.semi_lengths, b.semi_lengths))


class TestMinContents:
    """Every min_content_at_mass call on a (measure, family) reads the one
    table of centred masses the family keeps."""

    # lengths up to 1 reach about pi / 4 of the cube's mass from the origin
    EPS = (0.1, 0.4, 0.95)

    @staticmethod
    def fresh():
        return EllipsoidFamily.dyadic(2, -4, 0, frames=default_frames(2, n_random=3, seed=1))

    def assert_fresh_bits(self, mu, k, eps, family):
        delta, witness = min_content_at_mass(mu, k, eps, family, refine=24)
        want_delta, want_witness = min_content_at_mass(mu, k, eps, self.fresh(),
                                                       refine=24)
        assert delta == want_delta
        assert same_ellipsoid(witness, want_witness)

    @pytest.mark.parametrize("k", [1, 2])
    def test_repeated_and_interleaved_calls_match_fresh_families(self, cube64, k):
        family = self.fresh()
        for eps in (*self.EPS, 0.4, 0.1, 0.95, 0.4):
            self.assert_fresh_bits(cube64, k, eps, family)
            # the other readers of the table in between
            estimate_curvature_constant(cube64, 2, 1.0, family, refine=0)
            slab_implication_check(cube64, 2, 1.0, family)

    def test_alternating_measures_get_their_own_tables(self, cube64, circle240):
        family = self.fresh()
        for mu in (cube64, circle240, cube64, circle240):
            for eps in self.EPS:
                self.assert_fresh_bits(mu, 2, eps, family)
            assert np.array_equal(curvature._centred_masses(mu, family),
                                  curvature._centred_masses(mu, self.fresh()))

    def test_table_is_read_only(self, cube64):
        masses = curvature._centred_masses(cube64, self.fresh())
        assert not masses.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            masses[0, 0] = 1.0

    def test_unreached_eps_grows_a_ball(self, cube64):
        family = self.fresh()
        masses = curvature._centred_masses(cube64, family)
        assert masses.shape == (len(family.frames), len(family.length_tuples()))
        assert masses.max() < 0.95  # no member reaches it: grow_ball starts
        delta, witness = min_content_at_mass(cube64, 2, 0.95, family, refine=0)
        assert np.array_equal(witness.semi_lengths, [2.0, 2.0])  # 1 doubled once
        assert np.array_equal(witness.frame, np.eye(2))
        assert delta == 2.0 ** 2
        assert eval_measure(cube64, witness) >= 0.95

    def test_witness_is_the_searched_member(self, line64):
        # 1 / (1 / h) != h: the witness keeps the lengths the search scored
        h = 0.026907488847906336
        family = EllipsoidFamily.dyadic(2, -6, 1, floor=h)
        delta, witness = min_content_at_mass(line64, 2, 1 / 64, family, refine=0)
        assert witness.semi_lengths.tolist() == [h, h]
        assert delta == h * h
        est = estimate_curvature_constant(line64, 2, 1.0, family, refine=0)
        assert est.witness.semi_lengths.tolist() == [h, h]

    def test_rejects_eps_outside_total_mass(self, cube64):
        for eps in (0.0, 1.5):
            with pytest.raises(ValueError, match=rf"eps must lie in \(0, total mass\], got {eps}"):
                min_content_at_mass(cube64, 2, eps, self.fresh(), refine=0)

    def test_one_sweep_for_three_calls(self, cube64, monkeypatch):
        calls = []
        original = curvature._frame_masses

        def counting(mu, family, centers, reduce):
            calls.append(mu)
            return original(mu, family, centers, reduce)

        monkeypatch.setattr(curvature, "_frame_masses", counting)
        family = self.fresh()
        for eps in self.EPS:
            min_content_at_mass(cube64, 2, eps, family, refine=0)
        assert len(calls) == 1 and calls[0] is cube64
        # the key is the measure object: an equal copy is swept again
        twin = WeightedPointMeasure(cube64.points, cube64.weights)
        min_content_at_mass(twin, 2, 0.1, family, refine=0)
        assert len(calls) == 2 and calls[1] is twin


class TestGaussian:
    def test_integral_matches_loop(self, three_atoms):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(2, 2))
        want = math.fsum(
            w * math.exp(-float(np.sum((q @ p) ** 2)))
            for p, w in zip(three_atoms.points, three_atoms.weights))
        assert gaussian_integral(three_atoms, q) == pytest.approx(want, rel=1e-14)

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
        axis = np.array([[1.0, 0.0]])
        assert slab_constant(mu, 2, 1.0, [axis]) == pytest.approx(2.0)
        assert slab_constant(mu, 2, 2.0, [axis]) == pytest.approx(8.0)

    @pytest.mark.filterwarnings("error")
    def test_zero_weight_atom_on_flat(self):
        # the atom on the flat has no mass, so the flat keeps its ratios;
        # the old 0/0 ratio was NaN and max(best, nan) dropped them
        mu = WeightedPointMeasure(np.array([[0.3, 0.0], [0.0, 0.5], [0.0, 1.0]]),
                                  np.array([0.0, 0.5, 0.5]))
        axis = np.array([[1.0, 0.0]])
        assert slab_constant(mu, 2, 1.0, [axis]) == 2.0

    def test_on_flat_mass_is_infinite(self, line64):
        assert math.isinf(slab_constant(line64, 2, 1.0, [np.array([[1.0, 0.0]])]))

    def test_affine_flat_by_translation(self):
        # the line through (0, 1) along (1, 1)/sqrt(2) is 1/sqrt(2) from the
        # origin: translate the atom by -(0, 1) and take the span of (1, 1)
        mu = dirac([0.0, -1.0])
        line = np.array([[1.0, 1.0]]) / math.sqrt(2.0)
        assert slab_constant(mu, 2, 1.0, [line]) == pytest.approx(2.0, rel=1e-12)
        # a zero-dimensional flat (k = 1) at the base point (1, 2): the atom
        # (1, 5) is 3 away
        assert slab_constant(dirac([0.0, 3.0]), 1, 1.0, [np.zeros((0, 2))]) == 1.0 / 3.0

    @pytest.mark.parametrize("k,basis,message", [
        (2, np.eye(2), r"slab basis 1 must have shape \(k-1, d\) = \(1, 2\), got \(2, 2\)"),
        (2, np.array([[1.0, 0.0, 0.0]]), r"got \(1, 3\)"),
        (1, np.array([[1.0, 0.0]]), r"= \(0, 2\), got \(1, 2\)"),
        (2, np.array([[1.0, 1e-5]]), "slab basis 1 rows not orthonormal"),
        (2, np.array([[0.6, 0.6]]), "rows not orthonormal"),
        (2, np.array([[math.nan, 0.0]]), "rows not orthonormal"),
    ], ids=["too-many-rows", "wrong-ambient", "k1-rows", "near-unit", "short", "nan"])
    def test_rejects_bad_basis(self, cube64, k, basis, message):
        # the bases are public input: each is checked, and the error names it
        good = np.eye(2)[:k - 1]
        with pytest.raises(ValueError, match=message):
            slab_constant(cube64, k, 1.0, [good, basis])

    def test_rejects_non_orthogonal_rows(self, sphere80_d3):
        rows = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]) / [[1.0], [math.sqrt(2.0)]]
        with pytest.raises(ValueError, match="slab basis 0 rows not orthonormal"):
            slab_constant(sphere80_d3, 3, 1.0, [rows])

    @pytest.mark.parametrize("j", [-60, -36, 0, 40])
    def test_dilation_covariant(self, cube64, j):
        # the zero tolerance dilates with the measure: at 2^-36 the old
        # 1e-12 * max(1, R) took the nearest atoms (2^-40 off the axis) as
        # on it and read inf; alpha k = 2 scales exactly by t^2
        t = 2.0 ** j
        scaled = WeightedPointMeasure(cube64.points * t, cube64.weights)
        axis = np.array([[1.0, 0.0]])
        got = slab_constant(scaled, 2, 1.0, [axis]) * t ** 2
        assert got == slab_constant(cube64, 2, 1.0, [axis]) == 32.0

    def test_top_axes_flat(self):
        e = Ellipsoid([2.0, 1.0])
        flat = top_axes_flat(e, 2)
        assert flat.shape == (1, 2)
        assert flat_distances(np.array([[5.0, 0.0], [0.0, 1.0]]), flat,
                              np.zeros(2)) == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_implication_on_cube(self, cube64):
        # axis-aligned flats miss the cell-centered atoms, so the slab
        # constant is finite and the member bounds are informative
        fam = EllipsoidFamily.dyadic(2, -4, 1)
        c_slab, all_ok, worst, n_checked = slab_implication_check(
            cube64, 2, 1.0, fam)
        assert all_ok and n_checked == 36
        assert math.isfinite(c_slab) and c_slab > 0
        assert 0.0 < worst <= 1.0  # the worst member mass / bound

    def test_implication_vacuous_on_flat_mass(self, cube64):
        # a frame whose top axis runs along the grid diagonal puts atoms on
        # the flat, the slab constant degenerates, and the check is vacuous
        diag = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
        fam = EllipsoidFamily.dyadic(2, -2, 0, frames=(diag,))
        c_slab, all_ok, worst, _ = slab_implication_check(cube64, 2, 1.0, fam)
        assert math.isinf(c_slab) and all_ok
        assert worst == 0.0  # every member's bound is inf


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

    @pytest.mark.parametrize("p", [math.inf, math.nan, 0.0, -1.0])
    def test_weak_lp_norm_rejects_bad_p(self, p):
        # at p = inf the norm read 1.0 for [0.5] and [2.0] alike
        with pytest.raises(ValueError, match="p must be positive and finite"):
            weak_lp_norm(np.array([2.0]), np.array([1.0]), p)

    @pytest.mark.parametrize("p", [math.inf, math.nan, 0.0])
    def test_weak_bound_rejects_bad_p(self, cube64, p):
        # p = inf used to surface as "alpha must be positive, got nan"
        fam = EllipsoidFamily.dyadic(2, -2, 1, mode="doubling_dyadic")
        with pytest.raises(ValueError, match="p must be positive and finite"):
            maximal_weak_bound_check(cube64, 2, 1.0, p, fam)

    def test_weak_bound_without_mass(self, cube64):
        # no atom carries mass: the max over positive-weight atoms is empty
        mu = WeightedPointMeasure(cube64.points, np.zeros(cube64.n_atoms))
        fam = EllipsoidFamily.dyadic(2, -2, 1, mode="doubling_dyadic")
        assert maximal_weak_bound_check(mu, 2, 1.0, 1.0, fam) == (0.0, 0.0, True)

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
    return np.array([np.sum(weights[Ellipsoid(lengths).contains_many(z)])
                     for lengths in product(values, repeat=z.shape[-1])])


def bincount_sweep(z, values, weights):
    """The per-centre sweep that _sweep's tiles replaced: one np.bincount of
    the weights over (length prefix, first admitting last-axis length),
    summed from the top, for atoms z relative to one centre.  The counts
    are formed here, not by curvature._counts: per length prefix, in
    itertools.product order, s = 0.0 + the prefix terms left to right, and
    an atom counts once for every last-axis length with s + q * v <= 1.0."""
    n_len, d = len(values), z.shape[1]
    invsq, q = (1.0 / values) ** 2, z * z
    pre = np.array(list(product(invsq, repeat=d - 1))).reshape(n_len ** (d - 1), d - 1)
    prefix = np.zeros((len(pre), len(z)))
    for a in range(d - 1):
        prefix = prefix + pre[:, a:a + 1] * q[:, a]
    count = sum(prefix + q[:, d - 1] * v <= 1.0 for v in invsq)
    bins = count + (n_len + 1) * np.arange(count.shape[0])[:, None]
    hist = np.bincount(bins.ravel(), weights=np.broadcast_to(weights, bins.shape).ravel(),
                       minlength=count.shape[0] * (n_len + 1))
    return np.cumsum(hist.reshape(-1, n_len + 1)[:, ::-1], axis=-1)[:, :n_len].ravel()


def maximal_reference(mu, k, alpha, family, pts, inner=False):
    """The per-point loop that maximal_function replaced."""
    values = family.effective_lengths[:-1] if inner else family.effective_lengths
    tuples = np.array(list(product(values, repeat=family.dim)))
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
    def sup(fam, a):
        tuples = fam.length_tuples()
        contents_a = np.prod(np.sort(tuples, axis=1)[:, ::-1][:, :k], axis=1) ** a
        out = np.zeros(mu.n_atoms)
        for masses in curvature._frame_masses(mu, fam, mu.points, lambda m: m):
            out = np.maximum(out, np.max(masses / contents_a, axis=1))
        return out

    inner = EllipsoidFamily(frames=family.frames, length_grid=family.length_grid[:-1],
                            mode=family.mode)
    wk = weak_lp_norm(sup(family, alpha), mu.weights, p)
    f_inner = sup(inner, alpha * p / (p + 1.0))
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

        def counting(mu, family, centers, reduce):
            calls.append(centers)
            return original(mu, family, centers, reduce)

        monkeypatch.setattr(curvature, "_frame_masses", counting)
        fam = EllipsoidFamily.dyadic(2, -3, 1, mode="doubling_dyadic")
        maximal_weak_bound_check(cube64, 2, 1.0, 1.0, fam)
        assert len(calls) == 1
        assert np.array_equal(calls[0], cube64.points)

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
        centres = np.stack([np.zeros(d), z[0] * 0.5])
        # the identity frame keeps the coordinates z exact
        masses = _sweep(z, centres, [np.eye(d)], values, weights, 1, False)
        assert masses.shape == (1, 2, len(values) ** d)
        assert np.array_equal(masses[0, 0], brute_sweep(z, values, weights))
        assert np.array_equal(masses[0, 1], brute_sweep(z - centres[1], values, weights))
        assert np.array_equal(_sweep(z, centres, [np.eye(d)], values, weights, 2, False),
                              masses)

    @pytest.mark.parametrize("n_len", [255, 256, 300])
    def test_count_type_boundary(self, n_len):
        # an atom at the centre is admitted by every length, so its count is
        # n_len: one past the uint8 range from 256 lengths on
        rng = np.random.default_rng(n_len)
        values = np.cumsum(rng.uniform(0.01, 0.02, n_len))
        z = np.concatenate([[[0.0]], values[::7, None], -values[::11, None],
                            rng.uniform(-1.1 * values[-1], 1.1 * values[-1], (40, 1))])
        weights = rng.integers(0, 4, z.shape[0]).astype(float)
        masses = _sweep(z, np.zeros((1, 1)), [np.eye(1)], values, weights, 1, False)[0, 0]
        assert masses[0] >= weights[0] > 0.0
        assert np.array_equal(masses, brute_sweep(z, values, weights))

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
        for frame, masses in zip(fam.frames, curvature._frame_masses(
                mu, fam, np.zeros((1, 3)), lambda m: m)):
            z = mu.points @ frame
            for lengths, mass in zip(tuples, masses[0]):
                assert mass == eval_measure(mu, Ellipsoid(lengths, frame=frame))
                assert mass == curvature._single_mass(mu, frame, lengths)
                s = np.einsum("na,a->n", z * z, 1.0 / lengths ** 2)
                einsum_differs += float(np.sum(mu.weights[s <= 1.0])) != mass
        assert einsum_differs > 0  # the data does reach the order-sensitive atoms
        est = estimate_curvature_constant(mu, 2, 1.0, fam, refine=0)
        assert est.constant == max(curvature_ratio(mu, b, 2, 1.0) for b in members(fam))


def per_centre_rows(mu, frame, values):
    """The reference sweep around each atom on its own: the rows the tiled
    sweep must reproduce, mirrored or not."""
    z = mu.points @ frame
    return np.stack([bincount_sweep(z - c, values, mu.weights) for c in z])


@pytest.fixture(scope="module")
def symmetric_measures(circle240, sphere80_d3):
    rng = np.random.default_rng(7)
    zero_weight = circle240.weights.copy()
    zero_weight[::5] = 0.0
    return {
        "circle240": circle240,  # non-dyadic weights
        "sphere80_d3": sphere80_d3,
        "zero-weight": WeightedPointMeasure(circle240.points, zero_weight),
        "one-atom": WeightedPointMeasure(np.array([[0.3, -0.2]]), np.array([0.7])),
        "line-d1": WeightedPointMeasure(rng.uniform(-1.0, 1.0, (37, 1)),
                                        rng.uniform(0.5, 1.5, 37) / 37.0),
    }


class TestSymmetricSweep:
    @pytest.mark.parametrize("name", ["circle240", "sphere80_d3", "zero-weight",
                                      "one-atom", "line-d1"])
    @pytest.mark.parametrize("inner", [False, True])
    def test_tiles_match_per_centre_rows(self, symmetric_measures, name, inner):
        mu = symmetric_measures[name]
        fam = EllipsoidFamily.dyadic(mu.dim, -4, 1, mode="doubling_dyadic",
                                     frames=default_frames(mu.dim, n_random=1, seed=5))
        values = fam.effective_lengths[:-1] if inner else fam.effective_lengths
        want = np.stack([per_centre_rows(mu, frame, values) for frame in fam.frames])
        # tile heights that divide N or not, one atom, all atoms and more at once
        for tile, mirror in product((1, 3, 7, 16, mu.n_atoms + 5, 3 * mu.n_atoms + 1),
                                    (True, False)):
            got = _sweep(mu.points, mu.points, fam.frames, values, mu.weights, tile, mirror)
            assert np.array_equal(got, want), (tile, mirror)

    @given(st.integers(1, 3), st.integers(1, 24), st.integers(0, 2 ** 32 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_mirror_and_tiles_match_reference(self, d, n, seed, data):
        tile = data.draw(st.integers(1, n + 5), label="tile")
        rng = np.random.default_rng(seed)
        values = np.unique(np.concatenate([
            rng.choice(2.0 ** np.arange(-2, 2), int(rng.integers(0, 3))),
            rng.uniform(0.2, 2.0, int(rng.integers(1, 4)))]))
        z = rng.uniform(-1.5, 1.5, (n, d))
        z[::3] = np.round(z[::3] * 4.0) / 4.0  # ties, repeats and s == 1 at dyadic lengths
        weights = rng.uniform(0.5, 1.5, n) / 3.0  # non-dyadic: the sum order shows
        weights[rng.random(n) < 0.3] = 0.0
        want = np.stack([bincount_sweep(z - c, values, weights) for c in z])
        for mirror in (True, False):  # the identity frame keeps z exact
            got = _sweep(z, z, [np.eye(d)], values, weights, tile, mirror)
            assert np.array_equal(got[0], want)

    @pytest.mark.parametrize("block", [None, 1])
    def test_frame_masses_take_symmetric_path(self, circle240, monkeypatch, block):
        if block is not None:  # one centre per tile
            monkeypatch.setattr(curvature, "SWEEP_BLOCK", block)
        monkeypatch.setenv("DETCURVE_THREADS", "1")  # the calls in frame order
        calls = []
        original = curvature._sweep

        def spy(*args):
            calls.append((args[2], args[6]))  # frames, mirror
            return original(*args)

        monkeypatch.setattr(curvature, "_sweep", spy)
        fam = EllipsoidFamily.dyadic(2, -4, 1, mode="doubling_dyadic",
                                     frames=default_frames(2, n_random=2, seed=5))

        def swept_frames(mirror):
            # every frame exactly once and in order, the mirrored ones one per call
            assert all(m == mirror and (len(f) == 1 or not mirror) for f, m in calls)
            got = [frame for f, _ in calls for frame in f]
            assert len(got) == len(fam.frames)
            assert all(g is frame for g, frame in zip(got, fam.frames))
            calls.clear()

        got = curvature._frame_masses(circle240, fam, circle240.points.copy(),
                                      lambda m: m)
        swept_frames(True)
        for frame, masses in zip(fam.frames, got):
            assert np.array_equal(masses, per_centre_rows(circle240, frame, fam.effective_lengths))
        curvature._frame_masses(circle240, fam, circle240.points[:-1], lambda m: m)
        swept_frames(False)  # other centres

    def test_memory_bounded_by_tile(self, cube256, monkeypatch):
        fam = EllipsoidFamily.dyadic(2, -5, 1, mode="doubling_dyadic",
                                     frames=default_frames(2, n_random=2, seed=5))
        n, n_pre = cube256.n_atoms, len(fam.length_grid)  # L ** (d - 1), d = 2
        want = maximal_weak_bound_check(cube256, 2, 1.0, 1.0, fam)
        tile = 8
        monkeypatch.setattr(curvature, "SWEEP_BLOCK", tile * n * n_pre)
        sizes = []
        original = curvature._counts

        def spy(z, invsq, *work):
            count = original(z, invsq, *work)
            sizes.append(count.size)
            return count

        monkeypatch.setattr(curvature, "_counts", spy)
        assert maximal_weak_bound_check(cube256, 2, 1.0, 1.0, fam) == want
        assert tile < n
        assert len(sizes) == len(fam.frames) * n // tile
        assert max(sizes) == tile * n_pre * n  # no N x N table


@pytest.fixture(scope="module")
def run_measures():
    """Non-dyadic weights, so the sum order shows, on clouds with ties and
    atoms on dyadic member boundaries, in d = 1, 2 and 3."""
    out = {}
    for d, n in ((1, 37), (2, 60), (3, 40)):
        rng = np.random.default_rng(20 + d)
        points = rng.uniform(-1.5, 1.5, (n, d))
        points[::3] = np.round(points[::3] * 4.0) / 4.0
        out[d] = WeightedPointMeasure(points, rng.uniform(0.5, 1.5, n) / (3.0 * n))
    return out


class TestFrameRuns:
    """A run of frames is one _sweep whose tiles run over the flattened
    (frame, centre) rows."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n_centres", [1, 5], ids=["centred", "five-centres"])
    def test_tiles_across_frames_match_reference(self, run_measures, monkeypatch, d,
                                                 n_centres):
        mu = run_measures[d]
        fam = EllipsoidFamily.dyadic(d, -3, 1, frames=default_frames(
            d, n_random=4, seed=d, points=mu.points, n_pca=1))
        centres = (np.zeros((1, d)) if n_centres == 1
                   else mu.points[:n_centres] * 0.5 + 0.125)
        values = fam.effective_lengths
        want = [np.stack([bincount_sweep(mu.points @ frame - c, values, mu.weights)
                          for c in centres @ frame]) for frame in fam.frames]
        p, f = len(centres), len(fam.frames)
        # tiles splitting a frame (P > 1), holding one frame, straddling frames
        # at and off their boundaries, and holding all of them
        for tile, work in product(sorted({1, max(1, p - 2), p, p + 1, 2 * p + 1, f * p}),
                                  (1, 2 ** 40)):  # one frame per run, or one run
            monkeypatch.setattr(curvature, "SWEEP_BLOCK", tile * mu.n_atoms * len(values) ** (d - 1))
            monkeypatch.setattr(curvature, "FRAME_WORK", work)
            got = curvature._frame_masses(mu, fam, centres, lambda m: m)
            assert len(got) == f
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (tile, work)

    def test_one_count_per_run_when_frames_fit_a_tile(self, cube64, monkeypatch):
        fam = default_family(cube64, n_frames=5)  # 16 frames
        n_len = len(fam.effective_lengths)
        assert 16 * cube64.n_atoms * n_len <= curvature.SWEEP_BLOCK
        rows = []
        original = curvature._counts

        def spy(z, invsq, *work):
            rows.append(z.shape[0])
            return original(z, invsq, *work)

        monkeypatch.setattr(curvature, "_counts", spy)
        for work, runs in ((curvature.FRAME_WORK, 1), (3 * n_len ** 2 * cube64.n_atoms, 6)):
            monkeypatch.setattr(curvature, "FRAME_WORK", work)
            rows.clear()
            curvature._frame_masses(cube64, fam, np.zeros((1, 2)), lambda m: m)
            assert len(rows) == runs and sum(rows) == 16

    @pytest.mark.parametrize("fixture", ["circle240", "sphere80_d3"])
    def test_centred_masses_across_threads(self, request, monkeypatch, fixture):
        mu = request.getfixturevalue(fixture)
        got = []
        for threads, work in product(("1", "3"), (curvature.FRAME_WORK, 1 << 18)):
            monkeypatch.setenv("DETCURVE_THREADS", threads)
            monkeypatch.setattr(curvature, "FRAME_WORK", work)
            # a new family each time, or it would serve its kept table
            got.append(curvature._centred_masses(mu, default_family(mu, n_frames=8, n_pca=2)))
        assert all(np.array_equal(g, got[0]) for g in got[1:])

    def test_many_tiles_peak_as_one(self):
        # each tile's temporaries go before the next tile counts
        rng = np.random.default_rng(9)
        points = rng.uniform(-1.0, 1.0, (2000, 2))
        weights, values = np.full(2000, 1.0 / 2000), 2.0 ** np.arange(-4, 2)
        frames, tile = default_frames(2, n_random=47, seed=9), 4

        def peak(frames):
            tracemalloc.start()
            try:
                _sweep(points, np.zeros((1, 2)), frames, values, weights, tile, False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(frames) <= 1.25 * peak(frames[:tile])

    def test_many_centres_peak_as_one_frame(self, monkeypatch):
        # a frame's P x T masses fill the histogram's SWEEP_BLOCK entries, so
        # a run of such frames goes to _sweep one frame a call
        rng = np.random.default_rng(3)
        mu = WeightedPointMeasure(rng.uniform(-1.0, 1.0, (8, 2)), np.full(8, 1.0 / 8))
        fam = EllipsoidFamily.dyadic(2, -4, 1, frames=default_frames(2, n_random=15, seed=3))
        centres = rng.uniform(-1.0, 1.0, (2000, 2))
        monkeypatch.setattr(curvature, "FRAME_WORK", 2 ** 40)  # one run

        def peak(family):
            tracemalloc.start()
            try:
                curvature._frame_masses(mu, family, centres, lambda m: m.max(axis=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = EllipsoidFamily(frames=fam.frames[:1], length_grid=fam.length_grid)
        assert peak(fam) <= 1.25 * peak(one)


class TestWorkspace:
    """_frame_masses gives each block that can run at once one _workspace,
    and every tile of its _sweep calls writes its scratch there."""

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("mirror", [True, False])
    def test_one_workspace_per_concurrent_block(self, cube64, monkeypatch, threads, mirror):
        fam = EllipsoidFamily.dyadic(2, -4, 1, mode="doubling_dyadic",
                                     frames=default_frames(2, n_random=4, seed=2))
        values, n = fam.effective_lengths, cube64.n_atoms
        centres = cube64.points if mirror else np.zeros((1, 2))
        made, used, blocks = [], [], []
        workspace, counts, map_blocks = curvature._workspace, curvature._counts, parallel.map_blocks

        def workspace_spy(*args):
            made.append(workspace(*args))
            return made[-1]

        def counts_spy(z, invsq, *work):
            used.append(work)
            return counts(z, invsq, *work)

        def map_blocks_spy(fn, ranges):
            blocks.append(len(ranges))
            return map_blocks(fn, ranges)

        monkeypatch.setattr(curvature, "_workspace", workspace_spy)
        monkeypatch.setattr(curvature, "_counts", counts_spy)
        monkeypatch.setattr(parallel, "map_blocks", map_blocks_spy)
        monkeypatch.setenv("DETCURVE_THREADS", threads)
        monkeypatch.setattr(curvature, "FRAME_WORK", 1)  # one frame per block
        monkeypatch.setattr(curvature, "SWEEP_BLOCK", 4 * n * len(values))  # 4 centres a tile
        got = curvature._frame_masses(cube64, fam, centres, lambda m: m)
        assert blocks == [len(fam.frames)]
        assert 1 <= len(made) <= min(int(threads), len(fam.frames))
        # every tile's counts went to one of them: 16 tiles a frame mirrored
        assert len(used) == len(fam.frames) * (16 if mirror else 1) > len(made)
        assert all(len(w) == 1 and any(w[0] is m for m in made) for w in used)
        for frame, masses in zip(fam.frames, got):
            z, c = cube64.points @ frame, centres @ frame
            want = np.stack([bincount_sweep(z - ci, values, cube64.weights) for ci in c])
            assert np.array_equal(masses, want)

    def test_blocks_share_no_workspace(self, circle240, monkeypatch):
        # more workers than cores, switching often: two blocks writing one
        # workspace at once would move masses
        fam = EllipsoidFamily.dyadic(2, -4, 1, mode="doubling_dyadic",
                                     frames=default_frames(2, n_random=7, seed=4))
        monkeypatch.setattr(curvature, "FRAME_WORK", 1)  # one frame per block
        monkeypatch.setenv("DETCURVE_THREADS", "1")
        want = curvature._frame_masses(circle240, fam, circle240.points, lambda m: m)
        monkeypatch.setenv("DETCURVE_THREADS", "6")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [curvature._frame_masses(circle240, fam, centres, lambda m: m)
                    for centres in (circle240.points, circle240.points, circle240.points[:-1])]
        finally:
            sys.setswitchinterval(interval)
        for got in runs[:2]:
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert all(np.array_equal(g, w[:-1]) for g, w in zip(runs[2], want))

    @pytest.mark.parametrize("mirror", [False, True])
    def test_d4_tiles_match_reference(self, mirror):
        # three prefix steps alternate between the float regions; one
        # workspace, sized for the largest tile, serves every tile height
        rng = np.random.default_rng(41)
        n, values = 23, np.array([0.5, 1.0, 1.5])
        z = rng.uniform(-1.5, 1.5, (n, 4))
        z[::3] = np.round(z[::3] * 4.0) / 4.0  # ties and s == 1 at dyadic lengths
        weights = rng.uniform(0.5, 1.5, n) / 3.0  # non-dyadic: the sum order shows
        want = np.stack([bincount_sweep(z - c, values, weights) for c in z])
        work = curvature._workspace((n + 4) * n, len(values), 4)
        for tile in (1, 2, 5, n, n + 4):
            got = _sweep(z, z, [np.eye(4)], values, weights, tile, mirror, work)
            assert np.array_equal(got[0], want), tile
            assert np.array_equal(_sweep(z, z, [np.eye(4)], values, weights, tile, mirror), got)


def ulp_steps(x, k):
    """x moved k ulps (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


class TestAdmissionThreshold:
    # b across binades: 0; the least subnormal, whose square underflows to
    # 0; 2^-27, whose square 2^-54 lies below the 2^-53 step of the
    # threshold; next to 2^-0.5, 1 and sqrt(2), where b * b crosses 0.5, 1
    # and 2; and 1e150, where b * b * 2^53 overflows
    B_ANCHORS = [0.0, 5e-324, 2.0 ** -27, 2.0 ** -0.5, 1.0, math.sqrt(2.0), 1e150]

    @given(st.one_of(
        st.builds(ulp_steps, st.sampled_from(B_ANCHORS), st.integers(-40, 40)),
        st.floats(0.0, 2.0), st.floats(0.0, 1e154)))
    @settings(max_examples=300, deadline=None)
    def test_one_compare_matches_the_sum(self, b):
        # with invsq = [1.0] the atom (a, b) has prefix fl(a * a) and last
        # term t = fl(b * b), so its count is the membership fl(a*a + b*b) <= 1
        edge = math.sqrt(max(0.0, 1.0 - b * b))
        below, above = [edge], [edge]
        for _ in range(40):  # the neighbours of edge within 40 ulps
            below.append(float(np.nextafter(below[-1], -math.inf)))
            above.append(float(np.nextafter(above[-1], math.inf)))
        a = [0.0] + below[::-1] + above[1:]
        count = curvature._counts(np.array([[x, b] for x in a]), np.array([1.0]))
        assert count.shape == (1, 82)
        assert count[0].tolist() == [int(x * x + b * b <= 1.0) for x in a]


class TestNumpySumOrder:
    def test_chained_add_at_equals_one_bincount(self):
        # the mirrored sweep's bit-identity rests on np.add.at adding in
        # index order, as np.bincount does, across split runs of indices
        rng = np.random.default_rng(11)
        bins = rng.integers(0, 8, 6000)  # ~750 repeats per bin
        weights = rng.uniform(0.1, 1.0, 6000) / 3.0  # non-dyadic
        want = np.bincount(bins, weights=weights, minlength=8)
        cuts = [0, 1, 700, 2500, 2501, 6000]
        hist = np.zeros(8)
        for a, b in zip(cuts[:-1], cuts[1:]):
            np.add.at(hist, bins[a:b], weights[a:b])
        assert np.array_equal(hist, want)
        # the data is order-sensitive: summing the runs apart moves bits
        split = sum(np.bincount(bins[a:b], weights=weights[a:b], minlength=8)
                    for a, b in zip(cuts[:-1], cuts[1:]))
        assert not np.array_equal(split, want)


class TestFrameBlocks:
    @pytest.mark.parametrize("fixture", ["cube64", "sphere80_d3"])
    def test_identical_across_threads_and_blocks(self, request, monkeypatch, fixture):
        mu = request.getfixturevalue(fixture)
        floored = default_family(mu, n_frames=4, n_pca=2)
        doubling = EllipsoidFamily.dyadic(mu.dim, -3, 1, mode="doubling_dyadic",
                                          frames=default_frames(mu.dim, n_random=5, seed=3))

        def run():
            swept = curvature._frame_masses(mu, floored, mu.points[:5], lambda m: m)
            # the atoms as centres: the symmetric sweep
            swept += curvature._frame_masses(mu, floored, mu.points, lambda m: m)
            # a new family each run, or it would serve its kept table
            est = estimate_curvature_constant(mu, 2, 1.0,
                                              default_family(mu, n_frames=4, n_pca=2),
                                              refine=12)
            return (swept, maximal_weak_bound_check(mu, 2, 0.75, 1.0, doubling),
                    (est.constant, est.witness.frame, est.witness.semi_lengths))

        monkeypatch.setenv("DETCURVE_THREADS", "1")
        want = run()
        for threads, work in product(["1", "2", "3"], [curvature.FRAME_WORK, 1, 2 ** 40]):
            monkeypatch.setenv("DETCURVE_THREADS", threads)
            monkeypatch.setattr(curvature, "FRAME_WORK", work)
            masses, check, (constant, frame, lengths) = run()
            assert all(np.array_equal(a, b) for a, b in zip(masses, want[0]))
            assert len(masses) == len(want[0]) == 2 * len(floored.frames)
            assert check == want[1]
            assert constant == want[2][0]
            assert np.array_equal(frame, want[2][1])
            assert np.array_equal(lengths, want[2][2])

    def test_blocks_hold_frame_work(self, cube64, monkeypatch):
        seen = []
        original = parallel.map_blocks

        def spy(fn, ranges):
            seen.append(ranges)
            return original(fn, ranges)

        monkeypatch.setattr(parallel, "map_blocks", spy)
        fam = default_family(cube64, n_frames=5)  # 16 frames
        tuples = fam.length_tuples()
        per_frame = len(tuples) * cube64.n_atoms
        for work in (3 * per_frame, 3 * per_frame - 1):
            monkeypatch.setattr(curvature, "FRAME_WORK", work)
            got = curvature._frame_masses(cube64, fam, np.zeros((1, 2)),
                                          lambda m: m.shape)
            assert got == [(1, len(tuples))] * 16
            assert seen[-1] == [(s, min(s + 3, 16)) for s in range(0, 16, 3)]
        # no centres, no work: one inline block, no division by zero
        assert curvature._frame_masses(cube64, fam, np.zeros((0, 2)),
                                       lambda m: m.shape) == [(0, len(tuples))] * 16
        assert seen[-1] == [(0, 16)]


def slab_reference(mu, k, alpha, family, rel_tol=1e-9):
    """The per-member Ellipsoid and eval_measure loop slab_implication_check
    replaced."""
    chosen = list(members(family))
    c_slab = slab_constant(mu, k, alpha, [top_axes_flat(b, k) for b in chosen])
    all_ok, worst = True, 0.0
    for b in chosen:
        mass = eval_measure(mu, b)
        bound = c_slab * float(np.sort(b.semi_lengths)[::-1][k - 1]) ** (alpha * k)
        worst = max(worst, 0.0 if mass == 0.0 else mass / bound if bound else math.inf)
        all_ok &= mass <= bound * (1.0 + rel_tol) or math.isinf(bound)
    return c_slab, all_ok, worst, len(chosen)


class TestSlabDedup:
    @staticmethod
    def random_frame_family(mu):
        # no data-adapted frames: on cube64 they run through atoms (c_slab inf)
        return EllipsoidFamily.dyadic(2, -5, 1, frames=default_frames(2, n_random=5, seed=1),
                                      floor=median_nn_distance(mu))

    @pytest.mark.parametrize("fixture,alpha", [
        ("cube64", 1.0), ("cube64", 0.75), ("circle240", 1.0), ("circle240", 0.75)])
    def test_matches_member_loop(self, request, fixture, alpha):
        mu = request.getfixturevalue(fixture)
        fam = self.random_frame_family(mu)
        got = slab_implication_check(mu, 2, alpha, fam)
        want = slab_reference(mu, 2, alpha, fam)
        assert math.isfinite(got[0])
        assert got[0] == want[0] and got[1] == want[1] and got[3] == want[3]
        if fixture == "cube64":  # weights 1/64 sum exactly in any order
            assert got[2] == want[2]
        else:
            assert got[2] == pytest.approx(want[2], rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 0.75])
    def test_fails_one_member_over_its_bound(self, cube64, monkeypatch, alpha):
        # negative control: the bundled cube report's slab record is still
        # vacuous (c_slab inf, ROADMAP item 5), so it is not the control;
        # this family's constant is finite, and one member's mass just past
        # c_slab * l_k^(alpha k) * (1 + 1e-9) must fail the check
        fam = self.random_frame_family(cube64)
        c_slab, all_ok, worst, n_checked = slab_implication_check(cube64, 2, alpha, fam)
        assert math.isfinite(c_slab) and all_ok and worst <= 1.0
        assert n_checked == fam.size
        table = curvature._centred_masses(cube64, fam)
        frame, t = len(fam.frames) // 2, len(fam.length_tuples()) // 3
        l_k = float(np.min(fam.length_tuples()[t]))  # k = d = 2
        bad = table.copy()
        bad[frame, t] = c_slab * l_k ** (alpha * 2) * (1.0 + 2e-9)
        monkeypatch.setattr(curvature, "_centred_masses", lambda mu, family: bad)
        got = slab_implication_check(cube64, 2, alpha, fam)
        assert got[0] == c_slab and got[1] is False
        assert got[2] == pytest.approx(1.0 + 2e-9, rel=1e-12)
        assert got[3] == n_checked

    @pytest.mark.parametrize("fixture,k,alpha", [
        ("cube64", 2, 1.0), ("sphere80_d3", 2, 1.0), ("sphere80_d3", 2, 0.75),
        ("sphere80_d3", 3, 1.0)])
    def test_matches_undeduplicated_flats(self, request, monkeypatch, fixture, k, alpha):
        mu = request.getfixturevalue(fixture)
        fam = default_family(mu, n_frames=3, n_pca=1)
        chosen = list(members(fam))
        want = slab_constant(mu, k, alpha, [top_axes_flat(b, k) for b in chosen])
        seen = []
        original = curvature.slab_constant

        def spy(mu_, k_, alpha_, bases):
            seen.extend(bases)
            return original(mu_, k_, alpha_, bases)

        monkeypatch.setattr(curvature, "slab_constant", spy)
        c_slab, _, _, n_checked = slab_implication_check(mu, k, alpha, fam)
        assert c_slab == want
        assert n_checked == len(chosen)
        # one flat per frame and ordered choice of k-1 longest axes at most
        assert len(seen) <= len(fam.frames) * math.perm(mu.dim, k - 1)



# the curvature entry points on the d = 2 cube, with the arguments each takes
CURVATURE_ENTRIES = {
    "estimate_curvature_constant": (lambda mu, a: estimate_curvature_constant(
        mu, a["k"], a["alpha"], a["family"], refine=a["refine"]),
        ("k", "alpha", "family", "refine")),
    "min_content_at_mass": (lambda mu, a: min_content_at_mass(
        mu, a["k"], 0.5, a["family"], refine=a["refine"]), ("k", "family", "refine")),
    "slab_implication_check": (lambda mu, a: slab_implication_check(
        mu, a["k"], a["alpha"], a["family"]), ("k", "alpha", "family")),
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
    ("alpha", math.inf, "alpha must be positive and finite, got inf"),
    ("family", 3, "family dimension 3 does not match the measure's 2"),
    # a negative budget used to run with no refinement
    ("refine", -5, "refine must be at least 0, got -5"),
    # a fractional budget used to be accepted without a word
    ("refine", 2.5, "refine must be an integer, got 2.5"),
]


def entry_arguments(**override):
    args = {"k": 2, "alpha": 1.0, "family": 2, "refine": 0, **override}
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

    @pytest.mark.parametrize("option,name,value", [
        ("n_frames", "n_random", -2), ("n_pca", "n_pca", -1)])
    def test_negative_frame_counts(self, cube64, option, name, value):
        # they used to drop the random frames or the subset frames silently
        with pytest.raises(ValueError, match=f"{name} must be at least 0, got {value}"):
            default_family(cube64, **{option: value})

    @pytest.mark.parametrize("name", ["n_random", "n_pca"])
    def test_fractional_frame_counts(self, cube64, name):
        # n_random=2.5 used to end in numpy's bare TypeError, n_pca=2.5 in
        # one from range()
        with pytest.raises(ValueError, match=f"{name} must be an integer, got 2.5"):
            default_frames(2, points=cube64.points, **{name: 2.5})


class TestOneObjective:
    """Both family searches maximise one objective(mass, content) in
    _grid_then_refine; min_content_at_mass maximises -content."""

    def test_ties_keep_the_first_frame_and_column(self, cube64):
        # the axis swap maps cube64 onto itself, so both frames' tables hold
        # the same scores in other columns, and each has tied best columns
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        fam = EllipsoidFamily.dyadic(2, -4, 0, frames=(np.eye(2), swap),
                                     floor=cube64.median_nn)
        masses = curvature._centred_masses(cube64, fam)
        tuples = fam.length_tuples()
        content = np.prod(tuples, axis=1)
        tables = [masses / content]
        witnesses = [estimate_curvature_constant(cube64, 2, 1.0, fam, refine=0).witness]
        for eps in (0.1, 0.3):
            tables.append(np.where(masses >= eps - 1e-9, -content, -math.inf))
            witnesses.append(min_content_at_mass(cube64, 2, eps, fam, refine=0)[1])
        for table, witness in zip(tables, witnesses):
            best = table.max(axis=1)
            assert best[0] == best[1] and np.sum(table[0] == best[0]) >= 2
            col = np.flatnonzero(table[0] == best[0])[0]
            assert np.array_equal(witness.frame, np.eye(2))
            assert np.array_equal(witness.semi_lengths, tuples[col])

    def test_refined_fallback_beats_the_grown_ball(self, cube64):
        # no member reaches mass 0.9, so the start is the grown ball; its
        # score is -content, and refinement must find a smaller content
        fam = EllipsoidFamily.dyadic(2, -6, -4, floor=0.0)
        grown, ball = min_content_at_mass(cube64, 2, 0.9, fam, refine=0)
        assert np.array_equal(ball.semi_lengths, [2.0, 2.0])
        delta, witness = min_content_at_mass(cube64, 2, 0.9, fam, refine=40)
        assert eval_measure(cube64, witness) >= 0.9
        assert delta == k_content(witness, 2) < grown


# the inline distribution functions that curvature._level_masses replaced


def flat_distances(points, basis, base):
    """Distances of the points to the affine flat base + span(basis rows)."""
    r = points - base
    if len(basis):
        r = r - (r @ basis.T) @ basis
    return np.linalg.norm(r, axis=1)


def slab_flat_reference(mu, k, alpha, basis, base):
    """One flat's term of slab_constant as the per-flat sort computed it, for
    the affine flat base + span(basis rows).  Mass within 1e-12 times the
    largest distance of an atom from base counts as on the flat; the rule
    was 1e-12 * max(1.0, mu.max_radius), which did not dilate."""
    dist = flat_distances(mu.points, basis, base)
    radius = float(np.max(np.linalg.norm(mu.points - base, axis=1)))
    if float(np.sum(mu.weights[dist <= 1e-12 * radius])) > 0.0:
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
        # telescoping: the tail is the next break's head, exp(-b * b)
        b2 = breaks[i + 1] * breaks[i + 1] if i + 1 < len(breaks) else math.inf
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

            for k in range(1, d + 1):
                basis = (np.eye(d) if i % 2 else
                         np.linalg.qr(rng.normal(size=(d, d)))[0].T)[:k - 1]
                # every fifth flat runs through an atom: an infinite constant
                base = (mu.points[rng.integers(mu.n_atoms)] if i % 5 == 0
                        else rng.normal(size=d) * 0.1)
                # slab_constant takes flats through the origin: translate
                shifted = WeightedPointMeasure(mu.points - base, mu.weights)
                alpha = 0.5 + rng.random()
                assert (slab_constant(shifted, k, alpha, [basis])
                        == slab_flat_reference(mu, k, alpha, basis, base))


COVARIANCE_MEASURES = ["circle240", "cube64", "sphere80_d3"]


@pytest.fixture(scope="module")
def covariance_measures(circle240, cube64, sphere80_d3):
    # the spheres have 2 * max_radius just above a power of two, where a
    # log2-derived exponent differs from the exact one
    return {"circle240": circle240, "cube64": cube64, "sphere80_d3": sphere80_d3}


class TestExactCovariance:
    """Dilating a measure by 2^j scales every search bit for bit: the
    default family by 2^j, contents by 2^(jk), the constant and the maximal
    function by 2^(-jk alpha), here at alpha = 1 so that the power is exact.
    With dyadic weights, the order of the atoms changes nothing."""

    @given(st.sampled_from(["cube64", "circle240"]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_atom_permutation(self, covariance_measures, name, seed):
        # weights of 1/256 sum exactly in any order
        mu = covariance_measures[name]
        mu = WeightedPointMeasure(mu.points, np.full(mu.n_atoms, 1.0 / 256.0))
        perm = np.random.default_rng(seed).permutation(mu.n_atoms)
        nu = WeightedPointMeasure(mu.points[perm], mu.weights[perm])
        frames = default_frames(2, n_random=8, seed=3)
        fam, fam_nu = (EllipsoidFamily.dyadic(2, -5, 1, frames=frames,
                                              floor=mu.median_nn) for _ in range(2))
        assert np.array_equal(curvature._centred_masses(nu, fam_nu),
                              curvature._centred_masses(mu, fam))
        got = estimate_curvature_constant(nu, 2, 1.0, fam_nu, refine=40)
        want = estimate_curvature_constant(mu, 2, 1.0, fam, refine=40)
        assert got.constant == want.constant

    @given(st.sampled_from(COVARIANCE_MEASURES), st.integers(-8, 8))
    @settings(max_examples=25, deadline=None)
    def test_default_family(self, covariance_measures, name, j):
        mu = covariance_measures[name]
        for mode in ("scale_floored_search", "doubling_dyadic"):
            fam = default_family(mu, mode=mode)
            got = default_family(dilate(mu, 2.0 ** j), mode=mode)
            assert np.array_equal(got.length_grid, fam.length_grid * 2.0 ** j)
            assert got.floor == fam.floor * 2.0 ** j
            assert got.size == fam.size and len(got.frames) == len(fam.frames)
            assert all(np.array_equal(f, g) for f, g in zip(got.frames, fam.frames))

    @pytest.mark.parametrize("points", [
        [[0.5, 0.25]],
        np.repeat(generate(GeneratorSpec("sphere_uniform", 2, 40, 1)).points, 2, axis=0)],
        ids=["one-atom", "coincident-pairs"])
    def test_fallback_floor(self, points):
        # no nearest-neighbour distance is positive, so the floor falls back
        # to 2^-10 of the radius, and it follows the dilation as well
        points = np.asarray(points)
        mu = WeightedPointMeasure(points, np.full(len(points), 1.0 / len(points)))
        fam = default_family(mu, n_frames=4)
        for j in range(-8, 9):
            got = default_family(dilate(mu, 2.0 ** j), n_frames=4)
            assert got.floor == fam.floor * 2.0 ** j
            assert np.array_equal(got.length_grid, fam.length_grid * 2.0 ** j)

    @given(st.sampled_from(COVARIANCE_MEASURES), st.integers(-8, 8),
           st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_constant_and_min_content(self, covariance_measures, name, j, k):
        mu = covariance_measures[name]
        nu = dilate(mu, 2.0 ** j)
        fam = default_family(mu, n_frames=8, n_pca=2)
        fam_nu = default_family(nu, n_frames=8, n_pca=2)
        got = estimate_curvature_constant(nu, k, 1.0, fam_nu, refine=40)
        want = estimate_curvature_constant(mu, k, 1.0, fam, refine=40)
        assert got.constant == want.constant * 2.0 ** (-j * k)
        assert got.family_size == want.family_size
        for eps in (0.1, 0.4):
            got_delta, _ = min_content_at_mass(nu, k, eps, fam_nu, refine=40)
            want_delta, _ = min_content_at_mass(mu, k, eps, fam, refine=40)
            assert got_delta == want_delta * 2.0 ** (j * k)

    @given(st.sampled_from(COVARIANCE_MEASURES), st.integers(-8, 8),
           st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_maximal_function(self, covariance_measures, name, j, inner):
        mu = covariance_measures[name]
        nu = dilate(mu, 2.0 ** j)
        k = 2
        fam = default_family(mu, n_frames=2, n_pca=1, mode="doubling_dyadic")
        fam_nu = default_family(nu, n_frames=2, n_pca=1, mode="doubling_dyadic")
        got = maximal_function(nu, k, 1.0, fam_nu, nu.points[::8], inner=inner)
        want = maximal_function(mu, k, 1.0, fam, mu.points[::8], inner=inner)
        assert np.array_equal(got, want * 2.0 ** (-j * k))


# the eight signed coordinate permutations of the plane; the last four swap the axes
SIGNED_PERMUTATIONS_2D = [np.eye(2)[list(order)] * signs
                          for order in ((0, 1), (1, 0))
                          for signs in product((1.0, -1.0), repeat=2)]
AXIS_SWAP_FUSED = pytest.mark.xfail(reason=(
    "mu.points @ frame goes to a BLAS kernel that fuses the multiply-add, so "
    "a swap of the two products moves last bits of the frame coordinates "
    "and atoms on a member boundary change sides"), strict=False)


class TestSignedPermutation:
    """A signed coordinate permutation S of the atoms (P S) and S^T of every
    family frame should leave every swept mass bit-equal in d = 2: each
    frame coordinate sums the same two products, in the other order when S
    swaps the axes.  Sign flips alone keep every mass; axis swaps do not
    where the matmul fuses a multiply-add (AXIS_SWAP_FUSED)."""

    @pytest.mark.parametrize("name", ["cube64", "circle240"])
    @pytest.mark.parametrize("mirror", [False, True], ids=["centred", "mirrored"])
    @pytest.mark.parametrize("s", [
        pytest.param(s, id=f"S{i}", marks=[AXIS_SWAP_FUSED] if s[0, 0] == 0.0 else [])
        for i, s in enumerate(SIGNED_PERMUTATIONS_2D)])
    def test_swept_masses(self, covariance_measures, name, mirror, s):
        mu = covariance_measures[name]
        frames = default_frames(2, n_random=8, seed=3, points=mu.points, n_pca=2)
        fam = EllipsoidFamily.dyadic(2, -5, 1, frames=frames, floor=mu.median_nn)
        nu = WeightedPointMeasure(mu.points @ s, mu.weights)
        fam_s = EllipsoidFamily(frames=tuple(s.T @ f for f in fam.frames),
                                length_grid=fam.length_grid, floor=fam.floor)

        def swept(m, family):
            centers = m.points if mirror else np.zeros((1, 2))
            return curvature._frame_masses(m, family, centers, lambda masses: masses)

        want, got = swept(mu, fam), swept(nu, fam_s)
        assert len(got) == len(want) == len(fam.frames)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
