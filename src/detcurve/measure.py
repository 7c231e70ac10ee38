"""Weighted point measures: construction, transforms, and file formats.

A measure is a finite list of atoms (points in R^d) with nonnegative
weights.  All transforms return new measures; atom arrays are read-only.

File formats, chosen by the file suffix (.csv or .json)
-------------------------------------------------------
CSV: header row "x1,...,xd[,weight]"; the weight column is optional and
defaults to 1/N.  JSON: an array of records with the same keys, e.g.
[{"x1": 0.0, "x2": 1.0, "weight": 0.5}, ...].
"""

from __future__ import annotations

import csv
import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .geometry import Ellipsoid, _freeze


@dataclass(frozen=True)
class WeightedPointMeasure:
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must be a nonempty (N, d) array, d >= 1, got shape {pts.shape}")
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must be a vector matching the number of points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        _freeze(self, points=pts, weights=w)

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)

    @property
    def max_radius(self) -> float:
        return float(np.max(self.radii))

    @cached_property
    def median_nn(self) -> float:
        """The median_nn_distance floor, computed once (atoms are read-only)."""
        return median_nn_distance(self)


def _check_k_alpha(mu: WeightedPointMeasure, k: int, alpha: float = None) -> None:
    """Named errors for k outside [1, d] and, when given, alpha not positive
    and finite (at alpha = inf the content powers read 0 or inf)."""
    if not 1 <= k <= mu.dim:
        raise ValueError(f"k must be in [1, {mu.dim}], got {k}")
    if alpha is not None and not (alpha > 0 and np.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def check_integer(name: str, value, low: int = 0) -> None:
    """A named error for a non-integer (bool, float, array) or one below low."""
    if type(value) is bool or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value!r}")


def eval_measure(mu: WeightedPointMeasure, region: Ellipsoid) -> float:
    """Mass of an ellipsoid: the exact weight sum over atoms inside it."""
    if not isinstance(region, Ellipsoid):
        raise TypeError(f"region must be an Ellipsoid, got {type(region).__name__}")
    return float(np.sum(mu.weights[region.contains_many(mu.points)]))


def pushforward(mu: WeightedPointMeasure, lin) -> WeightedPointMeasure:
    """Image measure under a linear map given as an (m, d) matrix."""
    lin = np.asarray(lin, dtype=float)
    if lin.ndim != 2 or lin.shape[1] != mu.dim:
        raise ValueError(f"map must be (m, {mu.dim}), got shape {lin.shape}")
    return WeightedPointMeasure(points=mu.points @ lin.T, weights=mu.weights)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a synthetic point cloud.

    family: one of "cube_lebesgue", "sphere_uniform", "subspace_lebesgue",
    "moment_curve".  count is the target atom count (grid families use the
    nearest per-axis side, so the actual count is side**m).  params carries
    family-specific options.
    """

    family: str
    dim: int
    count: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "dim": self.dim,
            "count": self.count,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorSpec":
        return cls(
            family=data["family"],
            dim=int(data["dim"]),
            count=int(data["count"]),
            seed=int(data.get("seed", 0)),
            params=dict(data.get("params", {})),
        )


def _grid_axis(side: int, cell_centered: bool) -> np.ndarray:
    if cell_centered:
        return (np.arange(side) + 0.5) / side
    if side == 1:
        return np.zeros(1)
    return np.arange(side) / (side - 1)


def _grid_points(dim: int, count: int, cell_centered: bool) -> np.ndarray:
    side = max(1, int(round(count ** (1.0 / dim))))
    axes = [_grid_axis(side, cell_centered)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def generate(spec: GeneratorSpec) -> WeightedPointMeasure:
    """Build the point cloud described by a GeneratorSpec.

    cube_lebesgue: cell-centered grid in [0,1]^d, no params (each atom stands
    for one cell of Lebesgue measure).  sphere_uniform: seeded uniform sample
    of the unit sphere.  subspace_lebesgue: endpoint grid on the first m
    coordinates (params "subspace_dim", default 1), zero elsewhere; the grid
    includes the origin.  moment_curve: t -> (t, t^2, ..., t^d) over an
    endpoint grid in params "t_range" (default [0, 1]), with optional
    per-atom params "weights".  All families are deterministic given seed.
    """
    check_integer("dim", spec.dim, 1)
    check_integer("count", spec.count, 1)
    check_integer("seed", spec.seed)

    if spec.family == "cube_lebesgue":
        if spec.params:
            raise ValueError(f"cube_lebesgue takes no params, got {sorted(spec.params)}")
        pts = _grid_points(spec.dim, spec.count, cell_centered=True)
        n = pts.shape[0]
        return WeightedPointMeasure(points=pts, weights=np.full(n, 1.0 / n))

    if spec.family == "sphere_uniform":
        rng = np.random.default_rng(spec.seed)
        raw = rng.standard_normal((spec.count, spec.dim))
        norms = np.linalg.norm(raw, axis=1)
        norms = np.where(norms == 0.0, 1.0, norms)
        pts = raw / norms[:, None]
        return WeightedPointMeasure(points=pts, weights=np.full(spec.count, 1.0 / spec.count))

    if spec.family == "subspace_lebesgue":
        m = int(spec.params.get("subspace_dim", 1))
        if not 1 <= m <= spec.dim:
            raise ValueError(f"subspace_dim must be in [1, {spec.dim}], got {m}")
        grid = _grid_points(m, spec.count, cell_centered=False)
        pts = np.zeros((grid.shape[0], spec.dim))
        pts[:, :m] = grid
        n = pts.shape[0]
        return WeightedPointMeasure(points=pts, weights=np.full(n, 1.0 / n))

    if spec.family == "moment_curve":
        t_range = spec.params.get("t_range", (0.0, 1.0))
        t = np.linspace(float(t_range[0]), float(t_range[1]), spec.count)
        pts = np.stack([t ** j for j in range(1, spec.dim + 1)], axis=1)
        if "weights" in spec.params:
            w = np.asarray(spec.params["weights"], dtype=float)
            if w.shape != (spec.count,):
                raise ValueError("weights length must equal count")
        else:
            w = np.full(spec.count, 1.0 / spec.count)
        return WeightedPointMeasure(points=pts, weights=w)

    raise ValueError(f"unknown generator family {spec.family!r}")


def median_nn_distance(mu: WeightedPointMeasure) -> float:
    """Median over atoms of the distance to the nearest other atom, exact
    in O(N) memory (see _nearest_distances).

    The default scale floor for ellipsoid families.  Falls back to 2^-10
    times the cloud radius (2^-10 when every atom sits at the origin) when
    there is a single atom or all nearest neighbors coincide, so the floor
    follows dilations in every case.
    """
    med = float(np.median(_nearest_distances(mu.points))) if mu.n_atoms > 1 else 0.0
    return med if med > 0.0 else (mu.max_radius or 1.0) * 2.0 ** -10


def _nearest_distances(points: np.ndarray) -> np.ndarray:
    """Per point of an (N >= 2, d) array, the least np.linalg.norm(p_i - p_j)
    over the other points, bit for bit, in O(N) memory: a grid hash.

    Equal points are each other's nearest.  A distinct point's candidates
    are the points whose cube cells of side h hash to the buckets of its
    3^d neighbouring cells (a collision only adds some); any other point is
    more than h away in some coordinate, so a best distance of at most
    h(1 - 1e-9) is the nearest, the margin covering the rounding of cell
    coordinates below 2^20.  h starts at 1.2 interquartile spacings, halves
    while cells are crowded (a curve or surface) and doubles for the points
    left; the last few, or at most 3^d points, take h = inf: all pairs.
    """
    n, d = points.shape
    ranks = np.lexsort(points.T)
    ranked = points[ranks]
    first = np.r_[True, np.any(ranked[1:] != ranked[:-1], axis=1)]
    runs = np.diff(np.r_[np.flatnonzero(first), n])
    if runs.size == 1:  # every point is equal
        return np.zeros(n)
    pts, nn, todo = ranked[first], np.zeros(runs.size), np.flatnonzero(runs == 1)
    q1, ref, q3 = np.quantile(pts, [0.25, 0.5, 0.75], axis=0)
    spread = np.where(q3 > q1, q3 - q1, np.ptp(pts, axis=0))
    spread = spread[spread > 0]  # N / 2^k points in the box: spacing 2 (volume / N)^(1/k)
    side = max(2.4 * np.exp(np.mean(np.log(spread)) - np.log(runs.size) / spread.size), 1e-300)
    mix = np.random.default_rng(0).integers(1 << 62, size=d) * 2 + 1  # odd hash multipliers
    steps = ((np.indices((3,) * d).reshape(d, -1).T - 1) @ mix if 3 ** d < runs.size
             else np.zeros(1, dtype=np.int64))  # all pairs: one cell
    shift, mask = 63 - runs.size.bit_length(), (2 << runs.size.bit_length()) - 1  # 2N-4N buckets
    halvings = 60  # of h, while the first cells are crowded
    while todo.size:
        if todo.size <= 8 or steps.size == 1:
            side, halvings = np.inf, 0
        u = (pts - ref) / side if side < np.inf else np.zeros_like(pts)  # pts - ref may be inf
        keys = np.floor(np.clip(u, -2.0 ** 62, 2.0 ** 62)).astype(np.int64) @ mix
        bucket = (keys >> shift) & mask
        count = np.bincount(bucket, minlength=mask + 1)
        if halvings and count[bucket].mean() > 3.0:
            side, halvings = side / 2, halvings - 1
            continue
        order, start, halvings = np.argsort(bucket), np.cumsum(count) - count, 0
        best = np.empty(todo.size)
        per = max(1, (1 << 16) // (steps.size * int(count.max())))  # pairs at once
        for s in range(0, todo.size, per):
            rows = todo[s:s + per]
            cand = ((keys[rows, None] + steps) >> shift) & mask
            c = count[cand].ravel()
            j = order[np.arange(c.sum()) + np.repeat(start[cand].ravel() - np.cumsum(c) + c, c)]
            each = count[cand].sum(axis=1)
            i = np.repeat(rows, each)
            dist = np.linalg.norm(np.take(pts, i, axis=0) - np.take(pts, j, axis=0), axis=1)
            dist[i == j] = np.inf
            best[s:s + per] = np.minimum.reduceat(dist, np.cumsum(each) - each)
        done = (np.abs(u[todo]).max(axis=1) < 2.0 ** 20) & (best <= side * (1.0 - 1e-9))
        nn[todo[done]] = best[done]
        todo = todo[~done]
        side *= 2
    out = np.empty(n)
    out[ranks] = np.repeat(nn, runs)
    return out


# ---------------------------------------------------------------------------
# file formats


def _columns(dim: int) -> list:
    return [f"x{i + 1}" for i in range(dim)]


def save_point_cloud(mu: WeightedPointMeasure, path) -> None:
    """Write a point cloud as CSV or JSON records, by the path's suffix."""
    path = Path(path)
    fmt = path.suffix.lstrip(".").lower()
    cols = _columns(mu.dim)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols + ["weight"])
            for p, w in zip(mu.points, mu.weights):
                writer.writerow([repr(float(v)) for v in p] + [repr(float(w))])
        return
    if fmt == "json":
        records = []
        for p, w in zip(mu.points, mu.weights):
            rec = {c: float(v) for c, v in zip(cols, p)}
            rec["weight"] = float(w)
            records.append(rec)
        with open(path, "w") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
        return
    raise ValueError(f"unknown point cloud format {fmt!r}")


def load_point_cloud(path) -> WeightedPointMeasure:
    """Read a point cloud from CSV (header required) or JSON records, by the
    path's suffix.

    Missing weight entries default to 1/N.  A row (data line or record,
    numbered from 1) with the wrong number of entries, other keys than the
    first record, a non-numeric entry, a non-finite coordinate (JSON null
    included) or a negative or non-finite weight raises a ValueError naming
    the file and the row.
    """
    path = Path(path)
    fmt = path.suffix.lstrip(".").lower()
    if fmt == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty CSV file")
            header = [h.strip() for h in header]
            rows = [row for row in reader if row]
        return _from_table(header, rows, str(path))
    if fmt == "json":
        with open(path) as fh:
            records = json.load(fh)
        if (not isinstance(records, list) or not records
                or not all(isinstance(rec, dict) for rec in records)):
            raise ValueError(f"{path}: expected a nonempty JSON array of records")
        keys = list(records[0])
        header = [k for k in keys if k != "weight"] + (["weight"] if "weight" in keys else [])
        for i, rec in enumerate(records, 1):
            if set(rec) != set(header):
                raise ValueError(f"{path}: record {i} has keys {list(rec)}, "
                                 f"expected {header}")
        rows = [[rec[c] for c in header] for rec in records]
        return _from_table(header, rows, str(path))
    raise ValueError(f"unknown point cloud format {fmt!r}")


def _from_table(header, rows, source: str) -> WeightedPointMeasure:
    has_weight = header and header[-1] == "weight"
    coord_cols = header[:-1] if has_weight else header
    dim = len(coord_cols)
    if dim < 1:
        raise ValueError(f"{source}: no coordinate columns found")
    expected = _columns(dim)
    if coord_cols != expected:
        raise ValueError(
            f"{source}: coordinate columns must be {expected}, got {coord_cols}")
    if not rows:
        raise ValueError(f"{source}: no data rows")
    for i, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise ValueError(f"{source}: row {i} has {len(row)} entries, "
                             f"expected {len(header)}")
    try:
        data = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        for i, row in enumerate(rows, 1):
            for v in row:
                try:
                    float(v)
                except (TypeError, ValueError):
                    raise ValueError(f"{source}: row {i} has a non-numeric "
                                     f"entry {v!r}") from exc
        raise
    ok = np.isfinite(data)
    if has_weight:
        ok[:, dim] &= data[:, dim] >= 0.0
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        what, rule = ("weight", "finite and nonnegative") if j == dim else ("coordinate", "finite")
        raise ValueError(f"{source}: row {i + 1} has {what} {rows[i][j]!r}; "
                         f"{what}s must be {rule}")
    w = data[:, dim] if has_weight else np.full(len(data), 1.0 / len(data))
    return WeightedPointMeasure(points=data[:, :dim], weights=w)
