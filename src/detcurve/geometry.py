"""Simplex determinants, ellipsoids, and content functionals.

The determinant of a (k+1)-tuple of points is k! times the k-volume of the
simplex they span.  Batched and enumerated determinants share one routine,
_vertex_dets: square edge matrices (k == d) take their determinant
directly, other shapes the Cauchy-Binet root of the sum of the squared
k x k minors, so the value is defined for any ambient dimension d (it
vanishes when k > d or the tuple is affinely degenerate).  Determinants
and minors up to 3 x 3 go through one cofactor circuit, so the values are
exact under power-of-two dilations, and padding the points with zero
coordinates leaves them unchanged.

Ellipsoids are centred at the origin and stored as their semi-lengths and an
orthonormal frame; one routine, _inside, decides membership for them and for
the curvature layer's local refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

FRAME_TOL = 1e-12


def _check_frame(frame: np.ndarray) -> np.ndarray:
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2 or frame.shape[0] != frame.shape[1] or frame.size == 0:
        raise ValueError(f"frame must be square and nonempty, got shape {frame.shape}")
    d = frame.shape[0]
    err = np.max(np.abs(frame.T @ frame - np.eye(d)))
    if not err <= FRAME_TOL:  # a NaN defect fails too
        raise ValueError(f"frame columns not orthonormal (defect {err:.3e})")
    return frame


def _freeze(obj, **arrays) -> None:
    """Set read-only copies of the arrays as fields of a frozen dataclass."""
    for name, arr in arrays.items():
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _square_det(rows) -> np.ndarray:
    """Batched d x d determinants; rows[i][j] is entry (i, j), in arrays
    that broadcast together (gathered or broadcast coordinate columns).

    d <= 3 uses cofactor expansion: every operation is a fixed circuit of
    products and sums, so the result commutes exactly with power-of-two
    input scaling and cancels exactly on dyadic degeneracies.  LAPACK's LU
    guarantees neither (pivot ordering introduces ulp-level noise), which
    would break the exact dilation covariance of the forms.
    """
    d = len(rows)
    if d == 1:
        return rows[0][0]
    if d == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if d == 3:
        (a, b, c), (p, q, r), (u, v, w) = rows
        return a * (q * w - r * v) - b * (p * w - r * u) + c * (p * v - q * u)
    e = np.broadcast_arrays(*[x for row in rows for x in row])
    return np.linalg.det(np.stack(e, axis=-1).reshape(*e[0].shape, d, d))


def _vertex_dets(rows, pinned: bool) -> np.ndarray:
    """Batched simplex determinants, of the shape the arrays rows[i][j]
    (coordinate j of vertex i) broadcast to.

    With pinned=True the origin is an implicit extra vertex; otherwise the
    last vertex is the base and is subtracted from the others.  Square edge
    matrices (k == d) give |det|, which cancels exactly for degenerate
    tuples.  Otherwise Cauchy-Binet gives sqrt(det E E^T) as the root of
    the sum of the squared k x k minors of the k x d edge matrix E, over
    column subsets in lexicographic order.  No term squares the condition
    number, each minor cancels exactly where a square determinant does,
    and zero-padded coordinates only add exact zeros (sqrt(x * x) == |x|
    unless x * x under- or overflows), so padding keeps the value bits.
    k > d has no subsets and gives zeros.
    """
    if not pinned:
        base = rows[-1]
        rows = [[x - b for x, b in zip(row, base)] for row in rows[:-1]]
    k, d = len(rows), len(rows[0])
    if k == d:
        return np.abs(_square_det(rows))
    total = np.zeros(np.shape(rows[0][0]))
    for cols in combinations(range(d), k):
        minor = _square_det([[row[c] for c in cols] for row in rows])
        total = total + minor * minor
    return np.sqrt(total)


def simplex_det_many(stack: np.ndarray, pinned: bool = False) -> np.ndarray:
    """Batched simplex determinants.

    stack has shape (M, m, d): M tuples of m points each.  With pinned=True
    the origin is an implicit extra vertex and all m points are used as edge
    vectors; otherwise the last point is the base vertex.  Determinants and
    the Cauchy-Binet minors of k < d up to 3 x 3 are fixed cofactor
    circuits, so the values scale exactly under power-of-two dilations and
    dyadic degenerate tuples give 0.
    """
    stack = np.asarray(stack, dtype=float)
    if (stack.ndim != 3 or stack.shape[2] < 1
            or stack.shape[1] < (1 if pinned else 2)):
        raise ValueError(f"expected (M, m, d) stack with an edge vector and "
                         f"d >= 1, got shape {stack.shape}")
    return _vertex_dets(np.moveaxis(stack, 0, -1), pinned)


def _axis_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of (..., d) terms over the last axis, strictly left to right.

    The order decides atoms on s == 1 of a membership test s <= 1.0 once
    d >= 3 (numpy's einsum adds three terms as (x0 + x2) + x1), so every
    ellipsoid test and the curvature sweep add the axes in this one order.
    """
    s = np.zeros(terms.shape[:-1])
    for a in range(terms.shape[-1]):
        s = s + terms[..., a]
    return s


def _inside(z: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Membership of frame coordinates z (..., d) in the centred ellipsoid
    with semi-lengths (d,): s <= 1.0, s summing z_a ** 2 * (1.0 / l_a) ** 2
    over the positive axes with _axis_sum.  An infinite axis adds nothing;
    a nonzero coordinate along a zero-length axis puts the point outside.
    """
    positive = lengths > 0.0
    ok = _axis_sum(z[..., positive] ** 2 * (1.0 / lengths[positive]) ** 2) <= 1.0
    if not positive.all():
        ok &= np.all(z[..., ~positive] == 0.0, axis=-1)
    return ok


@dataclass(frozen=True)
class Ellipsoid:
    """Centred solid ellipsoid {x : sum_i (<x, frame[:, i]> / semi_lengths[i])^2 <= 1}.

    Semi-lengths may be 0 (the point must lie on the other axes' span) or
    inf (the axis is unconstrained); the frame defaults to the coordinate
    axes.
    """

    semi_lengths: np.ndarray
    frame: np.ndarray = None

    def __post_init__(self):
        lengths = np.asarray(self.semi_lengths, dtype=float)
        if lengths.ndim != 1 or lengths.size == 0 or not np.all(lengths >= 0):
            raise ValueError("semi_lengths must be a nonempty vector of nonnegative lengths")
        frame = _check_frame(np.eye(lengths.size) if self.frame is None else self.frame)
        if frame.shape[0] != lengths.size:
            raise ValueError("semi_lengths must match the frame dimension")
        _freeze(self, semi_lengths=lengths, frame=frame)

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    @classmethod
    def ball(cls, radius: float, dim: int) -> "Ellipsoid":
        """The ball of the given radius centred at the origin."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        return cls(np.full(dim, float(radius)))

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (N, d) array of points."""
        return _inside(np.asarray(points, dtype=float) @ self.frame, self.semi_lengths)


def k_content(ellipsoid: Ellipsoid, k: int) -> float:
    """Product of the k largest semi-lengths.

    Convention: within the selected factors, any zero length makes the
    product zero even if another factor is infinite.
    """
    if not 1 <= k <= ellipsoid.dim:
        raise ValueError(f"k must be in [1, {ellipsoid.dim}], got {k}")
    lengths = np.sort(ellipsoid.semi_lengths)[::-1][:k]
    if np.any(lengths == 0.0):
        return 0.0
    if np.any(np.isinf(lengths)):
        return math.inf
    return float(np.prod(lengths))


def matrix_content(q: np.ndarray, k: int) -> float:
    """k-content of the sublevel ellipsoid {x : ||Qx||^2 <= 1}.

    Equals the reciprocal of the product of the k smallest singular values
    of Q; infinite when Q is rank-deficient enough.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"Q must be square, got shape {q.shape}")
    if not 1 <= k <= q.shape[0]:
        raise ValueError(f"k must be in [1, {q.shape[0]}], got {k}")
    sigma = np.linalg.svd(q, compute_uv=False)
    prod = float(np.prod(sigma[-k:]))
    if prod == 0.0:
        return math.inf
    return 1.0 / prod
