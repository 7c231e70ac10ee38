"""Simplex determinants, ellipsoids, and content functionals.

The determinant of a (k+1)-tuple of points is k! times the k-volume of the
simplex they span.  Batched and enumerated determinants share one routine,
_vertex_dets: |det| of square edge matrices (k == d), otherwise the
Cauchy-Binet root of the sum of the squared k x k minors, so the value is
defined for any ambient dimension d (it vanishes when k > d or the tuple
is affinely degenerate).  Every determinant and every minor is one fixed
circuit of _minors, so the values are exact under power-of-two dilations,
and zero-padded coordinates leave them unchanged.

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


def _minors(rows) -> dict:
    """The k x k minors of the k x d matrix rows[i][j] (arrays that
    broadcast, of one shape per row), by column subset in lexicographic order.

    Built from the last row up: the minor of rows i.. on columns c_0 < ...
    expands along row i, sum_j (-1)^j rows[i][c_j] * (minor of rows i+1..
    without c_j), the later terms added in place into the first product.
    Each value is a fixed circuit of products and sums, without pivoting,
    so it scales exactly under power-of-two dilations and cancels exactly
    when every product is exact (small-integer or dyadic entries).  A k x k
    determinant costs about k * 2**(k - 1) products; a level holds at most
    C(d, min(k, d // 2)) block-length arrays.
    """
    table = {(c,): x for c, x in enumerate(rows[-1])}
    for i in range(len(rows) - 2, -1, -1):
        row, below, table = rows[i], table, {}
        for cols in combinations(range(len(row)), len(rows) - i):
            total = row[cols[0]] * below[cols[1:]]
            for j in range(1, len(cols)):
                op = np.add if j % 2 == 0 else np.subtract
                op(total, row[cols[j]] * below[cols[:j] + cols[j + 1:]], out=total)
            table[cols] = total
    return table


def _vertex_dets(rows, pinned: bool) -> np.ndarray:
    """Batched simplex determinants, of the shape the arrays rows[i][j]
    (coordinate j of vertex i) broadcast to.

    With pinned=True the origin is an implicit extra vertex; otherwise the
    last vertex is the base and is subtracted from the others.  Square edge
    matrices (k == d) give |det|; a repeated vertex cancels exactly only if
    its rows are the last two or every product is exact (tau excludes the
    ulp-level rest).  Otherwise Cauchy-Binet gives sqrt(det E E^T), the root
    of the sum of the squared k x k minors of the k x d edge matrix E in
    lexicographic order.  No term squares the condition number, and
    zero-padded coordinates only add exact zeros (sqrt(x * x) == |x| unless
    x * x under- or overflows), so padding keeps the value bits.  k > d has
    no minors and gives zeros.
    """
    if not pinned:
        base = rows[-1]
        rows = [[x - b for x, b in zip(row, base)] for row in rows[:-1]]
    if len(rows) == len(rows[0]):  # the one full minor
        return np.abs(*_minors(rows).values())
    total = np.zeros(np.broadcast_shapes(*(np.shape(x) for row in rows for x in row)))
    for minor in _minors(rows).values():
        total = total + minor * minor
    return np.sqrt(total)


def simplex_det_many(stack: np.ndarray, pinned: bool = False) -> np.ndarray:
    """Batched simplex determinants.

    stack has shape (M, m, d): M tuples of m points each.  With pinned=True
    the origin is an implicit extra vertex and all m points are used as edge
    vectors; otherwise the last point is the base vertex.  Every determinant
    and every Cauchy-Binet minor of k < d is one fixed circuit (_minors), so
    the values scale exactly under power-of-two dilations and dyadic
    degenerate tuples give 0, in every dimension.
    """
    stack = np.asarray(stack, dtype=float)
    if (stack.ndim != 3 or stack.shape[2] < 1
            or stack.shape[1] < (1 if pinned else 2)):
        raise ValueError(f"expected (M, m, d) stack with an edge vector and "
                         f"d >= 1, got shape {stack.shape}")
    return _vertex_dets(np.ascontiguousarray(np.moveaxis(stack, 0, -1)), pinned)


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
