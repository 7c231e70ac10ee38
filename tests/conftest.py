"""Shared fixtures and references: small deterministic measures reused
across test modules, the transforms the invariance tests apply to them, and
the simplex content bound."""

import math

import numpy as np
import pytest

from detcurve.measure import GeneratorSpec, WeightedPointMeasure, generate


def dilate(mu, a):
    """Isotropic dilation: atoms scaled by a, weights unchanged."""
    return WeightedPointMeasure(points=mu.points * a, weights=mu.weights)


def translate(mu, v):
    """Every atom moved by the vector v, weights unchanged."""
    return WeightedPointMeasure(points=mu.points + np.asarray(v, dtype=float),
                                weights=mu.weights)


def det_content_bound(d, k):
    """c(d, k) with det(0, y_1, .., y_k) <= c(d, k) * |B|_k for y_i in a
    centred ellipsoid B in R^d: Cauchy-Binet over the k-subsets of its axes
    and Hadamard's bound give k^(k/2) sqrt(binom(d, k)), and k! >= k^(k/2)."""
    return float(math.factorial(k)) * math.sqrt(math.comb(d, k))


@pytest.fixture(scope="session")
def cube64():
    return generate(GeneratorSpec("cube_lebesgue", 2, 64, 0))


@pytest.fixture(scope="session")
def cube256():
    return generate(GeneratorSpec("cube_lebesgue", 2, 256, 0))


@pytest.fixture(scope="session")
def sphere80_d3():
    return generate(GeneratorSpec("sphere_uniform", 3, 80, 0))


@pytest.fixture(scope="session")
def circle240():
    return generate(GeneratorSpec("sphere_uniform", 2, 240, 1))


@pytest.fixture(scope="session")
def line64():
    return generate(GeneratorSpec("subspace_lebesgue", 2, 64, 0,
                                  params={"subspace_dim": 1}))


@pytest.fixture()
def three_atoms():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    w = np.array([0.5, 0.25, 0.25])
    return WeightedPointMeasure(pts, w)
