"""Determinants, contents, and ellipsoid membership against direct oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import det_content_bound
from detcurve import geometry
from detcurve.geometry import (
    Ellipsoid,
    k_content,
    matrix_content,
    simplex_det_many,
)


def exact_det(matrix):
    """Leibniz determinant of an integer matrix, in Python integers."""
    total = 0
    for perm in itertools.permutations(range(len(matrix))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * math.prod(matrix[i][p] for i, p in enumerate(perm))
    return total


def simplex_det(points):
    """Determinant of one tuple of points: a one-tuple stack, the same bits
    as each row of a batch."""
    return float(simplex_det_many(np.asarray(points, dtype=float)[None])[0])


def ellipsoid_of(q):
    """The centred ellipsoid {x : ||Qx||^2 <= 1}: from Q = U diag(s) V^T,
    axes the columns of V and semi-lengths 1 / s."""
    _, s, vt = np.linalg.svd(q)
    return Ellipsoid(1.0 / s, frame=vt.T)


def coordinate_det(points):
    """|det| of the difference matrix, valid when the tuple is square."""
    pts = np.asarray(points, dtype=float)
    return abs(float(np.linalg.det(pts[:-1] - pts[-1])))


class TestSimplexDet:
    def test_matches_coordinate_determinant(self):
        rng = np.random.default_rng(7)
        for k in (1, 2, 3):
            for _ in range(200):
                pts = rng.normal(size=(k + 1, k))
                got = simplex_det(pts)
                want = coordinate_det(pts)
                assert got == pytest.approx(want, rel=1e-9)

    def test_segment_length(self):
        assert simplex_det([[0.0, 0.0], [3.0, 4.0]]) == pytest.approx(5.0)

    def test_unit_triangle(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert simplex_det(pts) == pytest.approx(1.0)

    def test_duplicate_point_is_zero(self):
        pts = np.array([[0.25, 0.5], [0.25, 0.5], [1.0, 1.0]])
        assert simplex_det(pts) == 0.0

    def test_collinear_in_higher_dimension(self):
        # k = 2 in d = 3, affinely degenerate: every Cauchy-Binet minor of
        # the dyadic edge matrix cancels exactly
        base = np.array([1.0, 2.0, 3.0])
        d = np.array([0.5, -1.0, 2.0])
        pts = np.stack([base, base + d, base + 2 * d])
        assert simplex_det(pts) == 0.0

    def test_embedding_invariance(self):
        # padding a zero coordinate must not change the value: the padded
        # minors are exact zeros and sqrt(x * x) == |x|
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(3, 2))
        padded = np.hstack([pts, np.zeros((3, 1))])
        assert simplex_det(padded) == simplex_det(pts)

    @pytest.mark.parametrize("eps", [1e-6, 5e-7, 1e-9])
    def test_thin_triangle_padded(self, eps):
        # a thin, non-degenerate triangle keeps its exact value in R^3
        pts = np.array([[1.0, 0.0], [1.0, eps], [0.0, 0.0]])
        padded = np.hstack([pts, np.zeros((3, 1))])
        assert simplex_det(pts) == eps
        assert simplex_det(padded) == eps
        assert simplex_det_many(padded[None, :2], pinned=True)[0] == eps

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            simplex_det_many(np.array([[[1.0, 2.0]]]))
        with pytest.raises(ValueError, match="d >= 1"):
            simplex_det_many(np.zeros((1, 2, 0)))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(4, 3))
        perm = rng.permutation(4)
        assert simplex_det(pts[perm]) == pytest.approx(simplex_det(pts), rel=1e-8)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(3, 2))
        v = rng.normal(size=2)
        assert simplex_det(pts + v) == pytest.approx(simplex_det(pts), rel=1e-8)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_dilation_homogeneity(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(4, 3))
        a = float(rng.uniform(0.5, 2.0))
        assert simplex_det(a * pts) == pytest.approx(a ** 3 * simplex_det(pts),
                                                     rel=1e-9)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_hadamard_bound_pinned(self, seed):
        # pinned det is at most the product of the vector norms
        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(1, 3, 3))
        det = float(simplex_det_many(vecs, pinned=True)[0])
        assert det <= float(np.prod(np.linalg.norm(vecs[0], axis=1))) * (1 + 1e-12)


class TestSimplexDetMany:
    def test_matches_scalar_unpinned(self):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(50, 3, 2))
        many = simplex_det_many(stack)
        for i in range(50):
            assert many[i] == pytest.approx(simplex_det(stack[i]), rel=1e-9)

    def test_pinned_prepends_origin(self):
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(20, 2, 2))
        many = simplex_det_many(stack, pinned=True)
        for i in range(20):
            with_origin = np.vstack([stack[i], np.zeros(2)])
            assert many[i] == pytest.approx(simplex_det(with_origin), rel=1e-9)

    def test_degenerate_tuples_are_exact_zeros(self):
        # proportional rows with dyadic coordinates: the square path cancels
        pts = np.array([[i / 16 for i in range(1, 9)],
                        [i / 8 for i in range(1, 9)]]).T
        pairs = np.stack([np.stack([p, q]) for p in pts for q in pts])
        dets = simplex_det_many(pairs, pinned=True)
        cross = np.abs(pairs[:, 0, 0] * pairs[:, 1, 1]
                       - pairs[:, 0, 1] * pairs[:, 1, 0])
        assert np.max(np.abs(dets - cross)) < 1e-14
        assert np.all(dets[cross == 0.0] < 1e-15)

    def test_gram_route_clamps_degenerates(self):
        # k = 1 in d = 2 uses the Gram route; equal points must give 0
        p = np.array([0.3, 0.7])
        stack = np.stack([np.stack([p, p]), np.stack([p, 2 * p])])
        dets = simplex_det_many(stack)
        assert dets[0] == 0.0
        assert dets[1] == pytest.approx(np.linalg.norm(p), rel=1e-12)

    @pytest.mark.parametrize("k,d", [(1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (3, 5)])
    @pytest.mark.parametrize("pinned", [True, False])
    def test_gram_route_is_exact_on_integers(self, k, d, pinned):
        # small-integer Gram entries and their cofactor determinants are
        # exact, so the value is the correctly rounded root of the exact one
        rng = np.random.default_rng(10 * k + d)
        stack = rng.integers(-6, 7, size=(300, k if pinned else k + 1, d))
        got = simplex_det_many(stack.astype(float), pinned=pinned)
        for tup, value in zip(stack.tolist(), got):
            vecs = tup if pinned else [[x - b for x, b in zip(v, tup[-1])]
                                       for v in tup[:-1]]
            gram = [[sum(x * y for x, y in zip(u, v)) for v in vecs] for u in vecs]
            assert value == math.sqrt(exact_det(gram))

    @pytest.mark.parametrize("k,d", [(1, 2), (2, 3), (2, 4), (3, 5)])
    def test_gram_route_scales_exactly(self, k, d):
        rng = np.random.default_rng(k + d)
        stack = rng.normal(size=(500, k, d))
        want = simplex_det_many(stack, pinned=True)
        for s in (-3, 2, 5):
            got = simplex_det_many(2.0 ** s * stack, pinned=True)
            assert np.array_equal(got, 2.0 ** (k * s) * want)

    @pytest.mark.parametrize("k,d", [(2, 1), (3, 1), (3, 2), (4, 3)])
    def test_more_vertices_than_dimensions_is_zero(self, k, d):
        rng = np.random.default_rng(k * d)
        stack = rng.normal(size=(200, k + 1, d))
        assert np.all(simplex_det_many(stack) == 0.0)
        assert np.all(simplex_det_many(stack[:, :k], pinned=True) == 0.0)
        assert all(simplex_det(pts) == 0.0 for pts in stack[:20])

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_square_det_accepts_broadcast_rows(self, d):
        # product blocks pass (R, 1) and (1, C) entries; the determinants
        # equal those of the entries broadcast to (R, C) and flattened
        rng = np.random.default_rng(d)
        rows = [[rng.standard_normal((6, 1) if i < d - 1 else (1, 7))
                 for _ in range(d)] for i in range(d)]
        flat = [[np.broadcast_to(x, (6, 7)).ravel() for x in row] for row in rows]
        got = np.broadcast_to(geometry._vertex_dets(rows, pinned=True), (6, 7))
        assert np.array_equal(got.ravel(), geometry._vertex_dets(flat, pinned=True))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            simplex_det_many(np.zeros((4, 2)))

    @pytest.mark.parametrize("shape,pinned", [((3, 1, 2), False), ((3, 0, 2), True),
                                              ((3, 2, 0), False), ((3, 1, 0), True)])
    def test_rejects_tuples_without_edges(self, shape, pinned):
        # a lone vertex or zero-dimensional points span no edge vector
        with pytest.raises(ValueError, match="edge vector"):
            simplex_det_many(np.ones(shape), pinned=pinned)


class TestEllipsoid:
    def test_ball_contents(self):
        b = Ellipsoid.ball(0.5, 3)
        assert k_content(b, 1) == pytest.approx(0.5)
        assert k_content(b, 2) == pytest.approx(0.25)
        assert k_content(b, 3) == pytest.approx(0.125)

    def test_content_is_top_k_product(self):
        e = Ellipsoid([3.0, 0.5, 2.0])
        assert k_content(e, 1) == pytest.approx(3.0)
        assert k_content(e, 2) == pytest.approx(6.0)
        assert k_content(e, 3) == pytest.approx(3.0)

    def test_infinite_axis(self):
        e = Ellipsoid(np.array([math.inf, 0.5]))
        assert math.isinf(k_content(e, 1))
        assert e.contains_many(np.array([[1e9, 0.0], [0.0, 0.6]])).tolist() == [True, False]

    def test_zero_axis(self):
        e = Ellipsoid(np.array([0.0, 1.0]))
        assert k_content(e, 2) == 0.0
        assert e.contains_many(np.array([[0.0, 0.5], [1e-9, 0.0]])).tolist() == [True, False]

    def test_contains_many_matches_loop(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        center = rng.normal(size=3)
        e = Ellipsoid(np.array([2.0, 1.0, 0.25]), q)
        pts = rng.normal(size=(40, 3))
        mask = e.contains_many(pts - center)
        for i in range(40):
            z = (pts[i] - center) @ e.frame
            assert mask[i] == (sum(z ** 2 * (1.0 / e.semi_lengths) ** 2) <= 1.0)

    @pytest.mark.parametrize("lengths", [[-1.0, 1.0], [math.nan, 1.0], [[1.0, 1.0]], []],
                             ids=["negative", "nan", "matrix", "empty"])
    def test_rejects_bad_lengths(self, lengths):
        with pytest.raises(ValueError, match="vector of nonnegative lengths"):
            Ellipsoid(lengths)

    def test_rejects_bad_frame(self):
        with pytest.raises(ValueError):
            Ellipsoid(np.ones(2), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_non_finite_frame(self):
        # a NaN defect compared False against FRAME_TOL and the frame passed
        with pytest.raises(ValueError, match="frame columns not orthonormal"):
            Ellipsoid(np.ones(2), np.full((2, 2), math.nan))

    def test_rejects_empty_frame(self):
        with pytest.raises(ValueError, match="frame must be square and nonempty"):
            geometry._check_frame(np.zeros((0, 0)))


class TestMatrixContent:
    def test_matches_ellipsoid_of(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            q = rng.normal(size=(3, 3))
            e = ellipsoid_of(q)
            for k in (1, 2, 3):
                assert matrix_content(q, k) == pytest.approx(
                    k_content(e, k), rel=1e-9)

    def test_diagonal_oracle(self):
        q = np.diag([2.0, 0.5, 4.0])
        # semi-lengths are 1/2, 2, 1/4; k smallest singular values of Q
        assert matrix_content(q, 1) == pytest.approx(2.0)
        assert matrix_content(q, 2) == pytest.approx(1.0)
        assert matrix_content(q, 3) == pytest.approx(0.25)

    def test_singular_is_infinite(self):
        q = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert math.isinf(matrix_content(q, 1))
        assert math.isinf(matrix_content(q, 2))

    def test_scaling(self):
        rng = np.random.default_rng(10)
        q = rng.normal(size=(2, 2))
        assert matrix_content(2.0 * q, 2) == pytest.approx(
            0.25 * matrix_content(q, 2), rel=1e-9)


class TestContentBound:
    def test_bound_holds_in_random_ellipsoids(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            k = int(rng.integers(1, min(d, 3) + 1))
            lengths = np.exp(rng.uniform(-1.5, 1.5, size=d))
            frame, _ = np.linalg.qr(rng.normal(size=(d, d)))
            e = Ellipsoid(lengths, frame)
            # sample points inside the ellipsoid
            raw = rng.normal(size=(k + 1, d))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            raw *= rng.uniform(0, 1, size=(k + 1, 1)) ** (1.0 / d)
            pts = (frame * lengths) @ raw.T
            bound = det_content_bound(d, k) * k_content(e, k)
            assert simplex_det(pts.T) <= bound * (1 + 1e-9)
