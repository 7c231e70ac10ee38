"""Weighted point measures: construction, transforms, generators, and IO."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import dilate
from detcurve.geometry import Ellipsoid
from detcurve.measure import (
    GeneratorSpec,
    WeightedPointMeasure,
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


def dense_median_nn(mu):
    """The all-pairs floor that median_nn_distance replaced."""
    fallback = (mu.max_radius or 1.0) * 2.0 ** -10
    if mu.n_atoms < 2:
        return fallback
    diffs = mu.points[:, None, :] - mu.points[None, :, :]
    dist = np.linalg.norm(diffs, axis=2)
    np.fill_diagonal(dist, np.inf)
    med = float(np.median(np.min(dist, axis=1)))
    return med if med > 0.0 else fallback


def uniform(points):
    points = np.asarray(points, dtype=float)
    return WeightedPointMeasure(points, np.full(len(points), 1.0 / len(points)))


class TestMedianNN:
    @pytest.mark.parametrize("dim,count,scale,offset", [
        (2, 256, 1.0, 0.0), (2, 400, 0.3, 1.1), (3, 343, 1.0, 0.0),
        (3, 216, 0.1, -3.7), (4, 256, 1.0, 0.0)])
    def test_grids_with_tied_neighbours(self, dim, count, scale, offset):
        pts = generate(GeneratorSpec("cube_lebesgue", dim, count)).points
        mu = uniform(pts[np.random.default_rng(dim).permutation(len(pts))] * scale + offset)
        assert median_nn_distance(mu) == dense_median_nn(mu)

    def test_duplicate_atoms(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 2))
        for pts in (np.concatenate([x, x[:40]]), np.concatenate([x, x[:150], x[:150]]),
                    rng.standard_normal((500, 3))):
            assert median_nn_distance(uniform(pts)) == dense_median_nn(uniform(pts))

    def test_coincident_and_tiny_clouds(self):
        ring = np.stack([np.cos(t := np.linspace(0.0, 6.0, 300)), np.sin(t)], axis=1)
        for pts in (np.zeros((30, 3)), np.ones((1, 2)), [[0.0, 0.0], [3.0, 4.0]],
                    [[2.0], [2.0], [5.0]], np.concatenate([np.zeros((1, 2)), ring])):
            mu = uniform(pts)
            assert median_nn_distance(mu) == dense_median_nn(mu)

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
