"""Weighted point measures: construction, transforms, and file formats.

A measure is a finite list of atoms (points in R^d) with nonnegative
weights.  All transforms return new measures; atom arrays are read-only.

File formats
------------
CSV: header row "x1,...,xd[,weight]"; the weight column is optional and
defaults to 1/N.  JSON: an array of records with the same keys, e.g.
[{"x1": 0.0, "x2": 1.0, "weight": 0.5}, ...].
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import Ellipsoid


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
        pts = pts.copy()
        pts.setflags(write=False)
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

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


def _check_k_alpha(mu: WeightedPointMeasure, k: int, alpha: float = None) -> None:
    """Named errors for k outside [1, d] and, when given, alpha <= 0."""
    if not 1 <= k <= mu.dim:
        raise ValueError(f"k must be in [1, {mu.dim}], got {k}")
    if alpha is not None and not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")


def _region_mask(points: np.ndarray, region) -> np.ndarray:
    """Boolean mask of atoms inside a region.

    The region may be an Ellipsoid or a predicate.  A predicate is first
    tried vectorized on the whole (N, d) array; a result that is not an
    (N,) boolean mask, or a TypeError, ValueError or IndexError (what a
    per-point predicate raises on an array), falls back to a per-point
    call.  Any other exception propagates.
    """
    n = points.shape[0]
    if isinstance(region, Ellipsoid):
        return region.contains_many(points)
    if not callable(region):
        raise TypeError(f"region must be an Ellipsoid or callable, got {type(region)!r}")
    try:
        out = np.asarray(region(points))
        if out.shape == (n,) and out.dtype == bool:
            return out
    except (TypeError, ValueError, IndexError):
        pass
    return np.fromiter((bool(region(p)) for p in points), dtype=bool, count=n)


def eval_measure(mu: WeightedPointMeasure, region) -> float:
    """Mass of the region: the exact weight sum over atoms inside it."""
    mask = _region_mask(mu.points, region)
    return float(np.sum(mu.weights[mask]))


def dilate(mu: WeightedPointMeasure, a: float) -> WeightedPointMeasure:
    """Isotropic dilation: atoms scaled by a, weights unchanged."""
    if not (np.isfinite(a) and a > 0):
        raise ValueError(f"dilation factor must be positive and finite, got {a}")
    return WeightedPointMeasure(points=mu.points * a, weights=mu.weights)


def translate(mu: WeightedPointMeasure, v) -> WeightedPointMeasure:
    v = np.asarray(v, dtype=float)
    if v.shape != (mu.dim,):
        raise ValueError("translation vector dimension mismatch")
    return WeightedPointMeasure(points=mu.points + v, weights=mu.weights)


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
    if side < 1:
        raise ValueError("grid side must be at least 1")
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

    cube_lebesgue: regular cell-centered grid in [0,1]^d (each atom stands
    for one cell of Lebesgue measure), or scrambled Halton points with
    params={"low_discrepancy": True}.  sphere_uniform: seeded uniform sample
    of the unit sphere.  subspace_lebesgue: endpoint grid on the first m
    coordinates (params "subspace_dim", default 1), zero elsewhere; the grid
    includes the origin.  moment_curve: t -> (t, t^2, ..., t^d) over an
    endpoint grid in params "t_range" (default [0, 1]), with optional
    per-atom params "weights".  All families are deterministic given seed.
    """
    if spec.dim < 1:
        raise ValueError("dim must be at least 1")
    if spec.count < 1:
        raise ValueError("count must be at least 1")

    if spec.family == "cube_lebesgue":
        if spec.params.get("low_discrepancy", False):
            from scipy.stats import qmc

            sampler = qmc.Halton(d=spec.dim, scramble=True, seed=spec.seed)
            pts = sampler.random(spec.count)
        else:
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
    """Median over atoms of the distance to the nearest other atom.

    The default scale floor for ellipsoid families.  Falls back to a small
    fraction of the cloud radius when there is a single atom or all nearest
    neighbors coincide.

    A KD-tree proposes neighbours in O(N) memory; every candidate within a
    relative 1e-9 of the tree's nearest distance is measured again as
    np.linalg.norm(p_i - p_j), so ties and rounding match the all-pairs
    minimum exactly.
    """
    from scipy.spatial import cKDTree  # here: importing it costs ~0.3 s

    n = mu.n_atoms
    fallback = max(mu.max_radius, 1.0) * 2.0 ** -10
    if n < 2:
        return fallback
    pts = mu.points
    tree = cKDTree(pts)
    nn = np.empty(n)
    todo = np.arange(n)
    k = min(n, 2 * mu.dim + 2)
    while todo.size:
        dist, idx = tree.query(pts[todo], k=k)
        reach = dist[:, 1] * (1.0 + 1e-9)
        rows, cols = np.nonzero((dist <= reach[:, None]) & (idx != todo[:, None]))
        exact = np.linalg.norm(pts[todo[rows]] - pts[idx[rows, cols]], axis=1)
        nn[todo] = np.inf
        np.minimum.at(nn, todo[rows], exact)
        # atoms whose k-th neighbour is still in reach may have more candidates
        todo = todo[(dist[:, -1] <= reach) & (reach > 0.0) & (k < n)]
        k = min(n, 2 * k)
    med = float(np.median(nn))
    return med if med > 0.0 else fallback


# ---------------------------------------------------------------------------
# file formats


def _columns(dim: int) -> list:
    return [f"x{i + 1}" for i in range(dim)]


def save_point_cloud(mu: WeightedPointMeasure, path, fmt: str = None) -> None:
    path = Path(path)
    fmt = fmt or path.suffix.lstrip(".").lower()
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


def load_point_cloud(path, fmt: str = None) -> WeightedPointMeasure:
    """Read a point cloud from CSV (header required) or JSON records.

    Missing weight entries default to 1/N.
    """
    path = Path(path)
    fmt = fmt or path.suffix.lstrip(".").lower()
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
        if not isinstance(records, list) or not records:
            raise ValueError(f"{path}: expected a nonempty JSON array of records")
        keys = list(records[0].keys())
        header = [k for k in keys if k != "weight"] + (["weight"] if "weight" in keys else [])
        rows = []
        for rec in records:
            rows.append([rec[c] for c in header if c in rec])
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
    data = np.asarray(rows, dtype=float)
    if data.shape[1] != len(header):
        raise ValueError(f"{source}: ragged rows")
    pts = data[:, :dim]
    if has_weight:
        w = data[:, dim]
    else:
        w = np.full(pts.shape[0], 1.0 / pts.shape[0])
    return WeightedPointMeasure(points=pts, weights=w)
