"""Weighted point measures: construction, transforms, generators, and IO."""

import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dilate
from detcurve.geometry import Ellipsoid
from detcurve.measure import (
    GeneratorSpec,
    WeightedPointMeasure,
    _nearest_distances,
    eval_measure,
    generate,
    load_point_cloud,
    median_nn_distance,
    pushforward,
    save_point_cloud,
)


class TestWeightedPointMeasure:
    def test_basic_fields(self, three_atoms):
        assert three_atoms.n_atoms == 3
        assert three_atoms.dim == 2
        assert three_atoms.total_mass == pytest.approx(1.0)
        assert np.allclose(three_atoms.radii,
                           [1.0, 1.0, math.sqrt(0.5)])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            WeightedPointMeasure(np.zeros((2, 2)), np.array([0.5, -0.5]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            WeightedPointMeasure(np.zeros((3, 2)), np.ones(2))

    def test_rejects_zero_dimensional_points(self):
        with pytest.raises(ValueError, match="d >= 1"):
            WeightedPointMeasure(np.zeros((3, 0)), np.ones(3))


class TestEvalAndRestrict:
    def test_eval_with_ellipsoid(self, three_atoms):
        ball = Ellipsoid.ball(0.75, 2)
        assert eval_measure(three_atoms, ball) == pytest.approx(0.25)

    def test_eval_rejects_other_regions(self, three_atoms):
        # a predicate is no region: it raises instead of being called
        for region in (lambda pts: pts[:, 0] > 0.25, np.ones(3, dtype=bool)):
            with pytest.raises(TypeError, match="must be an Ellipsoid"):
                eval_measure(three_atoms, region)


class TestTransforms:
    def test_dilate(self, three_atoms):
        # a dilation is the pushforward by a multiple of the identity, bit
        # for bit: the off-diagonal products add exact zeros
        nu = pushforward(three_atoms, 0.3 * np.eye(2))
        assert np.array_equal(nu.points, dilate(three_atoms, 0.3).points)
        assert np.array_equal(nu.weights, three_atoms.weights)

    def test_pushforward_matrix(self, three_atoms):
        a = np.array([[1.0, 0.0]])  # drop the second coordinate
        nu = pushforward(three_atoms, a)
        assert nu.dim == 1
        assert np.allclose(nu.points[:, 0], three_atoms.points[:, 0])
        assert nu.total_mass == pytest.approx(1.0)


class TestGenerators:
    def test_cube_grid_structure(self, cube64):
        assert cube64.n_atoms == 64
        assert np.allclose(cube64.weights, 1.0 / 64.0)
        values = np.unique(cube64.points)
        assert np.allclose(values, (np.arange(8) + 0.5) / 8.0)

    def test_cube_median_nn(self, cube64, cube256):
        assert median_nn_distance(cube64) == pytest.approx(1.0 / 8.0)
        assert median_nn_distance(cube256) == pytest.approx(1.0 / 16.0)

    def test_generate_deterministic(self):
        spec = GeneratorSpec("sphere_uniform", 3, 50, 4)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)

    def test_sphere_unit_radii(self, sphere80_d3):
        assert np.allclose(sphere80_d3.radii, 1.0)
        assert sphere80_d3.total_mass == pytest.approx(1.0)

    def test_subspace_line_contains_origin(self, line64):
        assert line64.n_atoms == 64
        assert np.allclose(line64.points[:, 1], 0.0)
        assert np.any(np.all(line64.points == 0.0, axis=1))

    def test_moment_curve(self):
        mu = generate(GeneratorSpec("moment_curve", 3, 5))
        t = np.linspace(0.0, 1.0, 5)
        assert np.allclose(mu.points, np.stack([t, t ** 2, t ** 3], axis=1))

    def test_cube_rejects_params(self):
        with pytest.raises(ValueError, match="no params, got \\['low_discrepancy'\\]"):
            generate(GeneratorSpec("cube_lebesgue", 2, 100, 3,
                                   params={"low_discrepancy": True}))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("nope", 2, 10))

    def test_spec_round_trip(self):
        spec = GeneratorSpec("subspace_lebesgue", 3, 32, 2,
                             params={"subspace_dim": 2})
        assert GeneratorSpec.from_dict(spec.to_dict()) == spec


class TestPointCloudIO:
    def test_csv_round_trip(self, tmp_path, three_atoms):
        path = tmp_path / "cloud.csv"
        save_point_cloud(three_atoms, path)
        back = load_point_cloud(path)
        assert np.array_equal(back.points, three_atoms.points)
        assert np.array_equal(back.weights, three_atoms.weights)

    def test_json_round_trip(self, tmp_path, cube64):
        path = tmp_path / "cloud.json"
        save_point_cloud(cube64, path)
        back = load_point_cloud(path)
        assert np.array_equal(back.points, cube64.points)
        assert np.array_equal(back.weights, cube64.weights)

    def test_json_structure(self, tmp_path, three_atoms):
        path = tmp_path / "cloud.json"
        save_point_cloud(three_atoms, path)
        data = json.loads(path.read_text())
        assert isinstance(data, list) and len(data) == 3
        assert set(data[0]) == {"x1", "x2", "weight"}

    @pytest.mark.parametrize("name,text,message", [
        ("ragged.csv", "x1,x2,weight\n0,1,0.5\n1,0.5\n", "row 2 has 2 entries, expected 3"),
        ("ragged.json", '[{"x1": 0, "x2": 1}, {"x1": 1}]', "record 2 has keys ['x1']"),
        ("word.csv", "x1,x2\n0,1\n1,abc\n", "row 2 has a non-numeric entry 'abc'"),
        ("word.json", '[{"x1": 0, "x2": 1}, {"x1": [1], "x2": 0}]',
         "row 2 has a non-numeric entry [1]"),
        ("extra.json", '[{"x1": 0, "x2": 1}, {"x1": 1, "x2": 0, "x3": 2}]',
         "record 2 has keys ['x1', 'x2', 'x3'], expected ['x1', 'x2']"),
        ("null.json", '[{"x1": 0, "x2": 1}, {"x1": 1, "x2": null}]',
         "row 2 has coordinate None; coordinates must be finite"),
        ("nan.csv", "x1,x2\n0,1\nnan,2\n", "row 2 has coordinate 'nan'; coordinates must be finite"),
        ("inf.csv", "x1,x2,weight\n0,1,0.5\n1,-inf,0.5\n",
         "row 2 has coordinate '-inf'; coordinates must be finite"),
        ("negative.csv", "x1,x2,weight\n0,1,1.5\n1,2,-0.5\n",
         "row 2 has weight '-0.5'; weights must be finite and nonnegative"),
        ("negative.json", '[{"x1": 0, "x2": 1, "weight": -1}, {"x1": 1, "x2": 2, "weight": 2}]',
         "row 1 has weight -1; weights must be finite and nonnegative"),
    ])
    def test_bad_rows_name_file_and_row(self, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_point_cloud(path)

    def test_unknown_suffix_raises(self, tmp_path, three_atoms):
        with pytest.raises(ValueError):
            save_point_cloud(three_atoms, tmp_path / "cloud.xyz")


def dense_nearest(points):
    """Per atom, the least np.linalg.norm(p_i - p_j) over the other atoms:
    the all-pairs minimum, 256 rows of the distance matrix at a time."""
    nearest = []
    for s in range(0, len(points), 256):
        dist = np.linalg.norm(points[s:s + 256, None, :] - points[None, :, :], axis=2)
        dist[np.arange(len(dist)), np.arange(s, s + len(dist))] = np.inf
        nearest.append(np.min(dist, axis=1))
    return np.concatenate(nearest)


def uniform(points):
    points = np.asarray(points, dtype=float)
    return WeightedPointMeasure(points, np.full(len(points), 1.0 / len(points)))


def assert_all_pairs_exact(points):
    """Every atom's nearest distance equals the all-pairs minimum bit for
    bit, and the floor is the all-pairs floor that median_nn_distance
    replaced: their median, or 2^-10 radii when it is 0 or N < 2."""
    mu = uniform(points)
    nearest = dense_nearest(mu.points)
    if mu.n_atoms > 1:
        np.testing.assert_array_equal(_nearest_distances(mu.points), nearest)
    med = float(np.median(nearest)) if mu.n_atoms > 1 else 0.0
    assert median_nn_distance(mu) == (med if med > 0.0 else
                                      (mu.max_radius or 1.0) * 2.0 ** -10)


class TestMedianNN:
    @pytest.mark.parametrize("dim,count,scale,offset", [
        (2, 256, 1.0, 0.0), (2, 400, 0.3, 1.1), (3, 343, 1.0, 0.0),
        (3, 216, 0.1, -3.7), (4, 256, 1.0, 0.0)])
    def test_grids_with_tied_neighbours(self, dim, count, scale, offset):
        pts = generate(GeneratorSpec("cube_lebesgue", dim, count)).points
        assert_all_pairs_exact(pts[np.random.default_rng(dim).permutation(len(pts))]
                               * scale + offset)

    def test_duplicate_atoms(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 2))
        for pts in (np.concatenate([x, x[:40]]), np.concatenate([x, x[:150], x[:150]]),
                    rng.standard_normal((500, 3)), np.concatenate([np.zeros((3000, 2)), x])):
            assert_all_pairs_exact(pts)

    def test_coincident_and_tiny_clouds(self):
        ring = np.stack([np.cos(t := np.linspace(0.0, 6.0, 300)), np.sin(t)], axis=1)
        for pts in (np.zeros((30, 3)), np.ones((1, 2)), [[0.0, 0.0], [3.0, 4.0]],
                    [[2.0], [2.0], [5.0]], np.concatenate([np.zeros((1, 2)), ring]),
                    np.random.default_rng(5).random((50, 24)),
                    [[-1.7e308], [-0.5e308], [0.0], [1.7e308]]):
            with np.errstate(over="ignore"):  # differences beyond the float range
                assert_all_pairs_exact(pts)

    def test_memory_stays_linear(self):
        # the all-pairs version peaked at ~800 MB at this size
        mu = generate(GeneratorSpec("cube_lebesgue", 2, 4096))
        tracemalloc.start()
        try:
            median_nn_distance(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2 ** 20

    def test_memory_stays_linear_at_65536(self):
        # candidate pairs are measured in blocks of about 2^16
        mu = generate(GeneratorSpec("cube_lebesgue", 2, 65536))
        tracemalloc.start()
        try:
            assert median_nn_distance(mu) == 2.0 ** -8
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2 ** 20

    @given(st.integers(1, 5), st.integers(2, 600), st.integers(0, 8),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dyadic_lattice_ties(self, dim, count, level, seed):
        # on a 2^-level lattice nearest distances tie; coarse levels also
        # repeat atoms, and clouds of at most 3^dim atoms take the all-pairs
        # scan
        rng = np.random.default_rng(seed)
        assert_all_pairs_exact(np.floor(rng.random((count, dim)) * 2 ** level)
                               * 2.0 ** -level)

    def test_flat_clouds(self):
        t = np.linspace(-1.0, 2.0, 1500)
        for pts in (np.stack([t, 2.0 * t + 0.5, -t], axis=1),
                    generate(GeneratorSpec("subspace_lebesgue", 4, 400,
                                           params={"subspace_dim": 2})).points,
                    generate(GeneratorSpec("subspace_lebesgue", 2, 64,
                                           params={"subspace_dim": 1})).points):
            assert_all_pairs_exact(pts)

    @pytest.mark.parametrize("cloud", ["cauchy", "gaussian"])
    def test_spread_out_clouds(self, cloud):
        # atoms in the tails are left unsettled by the first cells
        rng = np.random.default_rng(3)
        assert_all_pairs_exact(rng.standard_cauchy((4096, 3)) if cloud == "cauchy"
                               else rng.standard_normal((2000, 2)))

    def test_far_outlier_does_not_overflow(self):
        # a mixed-radix cell index over this box would exceed int64
        pts = np.concatenate([np.random.default_rng(4).random((500, 4)),
                              np.full((1, 4), 1e12)])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert_all_pairs_exact(pts)
