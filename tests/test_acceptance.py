"""Acceptance gate: twelve numbered criteria, one printed line each.

Each test prints a single ``criterion-NN name: PASS/FAIL (...)`` line and
then asserts the stated tolerance (and time budget, where one applies).
Run ``pytest -s tests/test_acceptance.py`` to watch the lines as they go;
plain ``pytest`` keeps them in the captured output.
"""

import math
import time

import numpy as np
import pytest

from conftest import det_content_bound
from detcurve.curvature import (
    EllipsoidFamily,
    default_family,
    default_frames,
    estimate_curvature_constant,
    gaussian_lower_check,
    layer_cake_check,
    maximal_weak_bound_check,
)
from detcurve.functionals import cauchy_schwarz_check, weak_type_probe
from detcurve.geometry import Ellipsoid, k_content, simplex_det_many
from detcurve.lab import (
    BUNDLED_SCENARIOS,
    get_scenario,
    run_scenario,
    rwt_bound,
    sublevel_mass_factor,
    sublevel_shrink_factor,
    verify_necessity_growth,
    verify_sublevel_bound,
    verify_sublevel_bound_multi,
)
from detcurve.measure import GeneratorSpec, generate, pushforward


def announce(num, name, ok, detail):
    line = f"criterion-{num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return ok


def cube(count, seed=0):
    return generate(GeneratorSpec(family="cube_lebesgue", dim=2, count=count,
                                  seed=seed))


@pytest.fixture(scope="module")
def cube576():
    return cube(576)


@pytest.fixture(scope="module")
def sphere80():
    return generate(GeneratorSpec(family="sphere_uniform", dim=3, count=80,
                                  seed=0))


def test_criterion_01_determinant_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for k in (1, 2, 3):
        pts = rng.standard_normal((10_000, k + 1, k))
        oracle = np.abs(np.linalg.det(pts[:, :-1, :] - pts[:, -1:, :]))
        for i in range(10_000):
            val = simplex_det_many(pts[i][None])[0]
            worst = max(worst, abs(val - oracle[i]) / max(oracle[i], 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    assert announce(1, "determinant-oracle", ok,
                    f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_sublevel_constants(cube576, sphere80):
    assert sublevel_shrink_factor(2) == 0.25
    assert sublevel_mass_factor(2) == 8.0
    assert sublevel_shrink_factor(3) == 1.0 / 32.0
    assert sublevel_mass_factor(3) == 96.0
    eps_grid = (0.1, 0.2, 0.4)
    t0 = time.perf_counter()
    rec_cube, _ = verify_sublevel_bound(cube576, 2, eps_grid,
                                        default_family(cube576))
    rec_sphere, _ = verify_sublevel_bound(sphere80, 3, eps_grid,
                                          default_family(sphere80))
    elapsed = time.perf_counter() - t0
    bad = [r.name for r in rec_cube + rec_sphere if not r.passed]
    ok = not bad and elapsed < 60.0
    assert announce(2, "sublevel-mass-constants", ok,
                    f"{len(rec_cube) + len(rec_sphere)} checks, "
                    f"failures {bad or 'none'}, {elapsed:.2f}s")


def test_criterion_03_mixed_measures(cube576):
    circle = generate(GeneratorSpec(family="sphere_uniform", dim=2,
                                    count=240, seed=1))
    eps_grid = (0.1, 0.2, 0.4)
    t0 = time.perf_counter()
    records, consts = verify_sublevel_bound_multi(
        [cube576, circle], eps_grid,
        [default_family(cube576), default_family(circle)])
    elapsed = time.perf_counter() - t0
    assert consts["mixed_bound_factor"] == 2.0 * 8.0  # (k^k / k!) * C_k, k=2
    bad = [r.name for r in records if not r.passed]
    ok = not bad and elapsed < 30.0
    assert announce(3, "mixed-measure-sublevel", ok,
                    f"failures {bad or 'none'}, {elapsed:.2f}s")


def test_criterion_04_cauchy_schwarz_duality():
    mu = cube(256)
    rng = np.random.default_rng(7)
    violations = 0
    worst_slack = math.inf
    for _ in range(50):
        sets = [rng.choice(mu.n_atoms, size=rng.integers(4, 96),
                           replace=False) for _ in range(2)]
        lhs, rhs, ok = cauchy_schwarz_check(mu, 2, 0.5, sets, rel_tol=1e-12)
        violations += not ok
        if rhs > 0:
            worst_slack = min(worst_slack, rhs / max(lhs, 1e-300))
    ok = violations == 0
    assert announce(4, "cauchy-schwarz-duality", ok,
                    f"violations {violations}/50, "
                    f"tightest rhs/lhs {worst_slack:.3f}")


def test_criterion_05_gaussian_bounds(cube576):
    rng = np.random.default_rng(11)
    lower_fails = 0
    for _ in range(100):
        q = rng.standard_normal((2, 2)) * rng.lognormal(0.0, 1.0)
        _, _, ok = gaussian_lower_check(cube576, q)
        lower_fails += not ok
    worst_rel = 0.0
    for _ in range(20):
        q = rng.standard_normal((2, 2)) * rng.lognormal(0.0, 1.0)
        _, _, rel = layer_cake_check(cube576, q)
        worst_rel = max(worst_rel, rel)
    ok = lower_fails == 0 and worst_rel < 1e-6
    assert announce(5, "gaussian-comparisons", ok,
                    f"lower-bound failures {lower_fails}/100, "
                    f"layer-cake max rel err {worst_rel:.2e}")


def test_criterion_06_curvature_exponent():
    results = {}
    for alpha in (1.0, 1.25):
        for count in (256, 1024):
            mu = cube(count)
            est = estimate_curvature_constant(mu, 2, alpha,
                                              default_family(mu))
            results[(alpha, count)] = est.constant
    stable = results[(1.0, 1024)] / results[(1.0, 256)]
    stable = max(stable, 1.0 / stable)
    growth = results[(1.25, 1024)] / results[(1.25, 256)]
    ok = stable < 2.0 and growth >= 1.3
    assert announce(6, "curvature-exponent-scaling", ok,
                    f"alpha=1 spread {stable:.3f} (< 2), "
                    f"alpha=1.25 growth {growth:.3f} (>= 1.3, "
                    f"prediction {2 ** 0.5:.3f})")


def test_criterion_07_flat_necessity_growth():
    line = generate(GeneratorSpec(family="subspace_lebesgue", dim=2,
                                  count=64, seed=0,
                                  params={"subspace_dim": 1}))
    records, _ = verify_necessity_growth(line, 2, 1.0, base_floor=2.0 ** -7,
                                         deltas=(1, 2, 3), n_frames=8,
                                         refine=40)
    growth = [r for r in records if r.name.startswith("necessity-growth")]
    assert len(growth) == 3
    bad = [r.name for r in growth if not r.passed]
    detail = ", ".join(f"dj={i + 1}: {r.lhs:.3g}>={r.rhs:.3g}"
                       for i, r in enumerate(growth))
    ok = not bad
    assert announce(7, "flat-measure-necessity", ok, detail)


def test_criterion_08_content_bound():
    rng = np.random.default_rng(5)
    total = 0
    violations = 0
    while total < 10_000:
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(3, d) + 1))
        frame = np.linalg.qr(rng.standard_normal((d, d)))[0]
        lengths = rng.lognormal(0.0, 1.0, size=d)
        ell = Ellipsoid(lengths, frame=frame)
        batch = min(500, 10_000 - total)
        g = rng.standard_normal((batch * k, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = rng.uniform(0.0, 1.0, size=(batch * k, 1)) ** (1.0 / d)
        inside = (g * radii * lengths) @ frame
        tuples = inside.reshape(batch, k, d)
        dets = simplex_det_many(tuples, pinned=True)
        bound = det_content_bound(d, k) * k_content(ell, k)
        violations += int(np.sum(dets > bound * (1.0 + 1e-12)))
        total += batch
    ok = violations == 0
    assert announce(8, "simplex-content-bound", ok,
                    f"violations {violations}/{total}")


def test_criterion_09_weak_type_bound(cube576):
    t0 = time.perf_counter()
    est = estimate_curvature_constant(cube576, 2, 1.0,
                                      default_family(cube576))
    probe = weak_type_probe(cube576, 2, 0.5, 1.0, trials=100, seed=0)
    slack = 0.25
    bound = rwt_bound(2, 1.0, 0.5, est.constant + slack, [1.0, 1.0])
    elapsed = time.perf_counter() - t0
    margin = bound - probe.sup_ratio
    ok = probe.sup_ratio <= bound and elapsed < 60.0
    assert announce(9, "weak-type-series-bound", ok,
                    f"sup {probe.sup_ratio:.3f} <= bound {bound:.3f}, "
                    f"margin {margin:.3f}, curvature {est.constant:.4f}, "
                    f"{elapsed:.2f}s")


def test_criterion_10_maximal_self_improvement():
    mu = cube(256)
    family = EllipsoidFamily.dyadic(
        2, -5, 1, frames=default_frames(2, n_random=3, seed=1),
        mode="doubling_dyadic")
    lhs, rhs, ok = maximal_weak_bound_check(mu, 2, 1.0, 1.0, family)
    assert announce(10, "maximal-function-bound", ok,
                    f"sup inner {lhs:.4f} <= 2^2 * weak-norm^(1/2) "
                    f"{rhs:.4f}")


def test_criterion_11_sphere_pushforward_stability():
    constants = []
    for count in (500, 2000):
        sphere = generate(GeneratorSpec(family="sphere_uniform", dim=3,
                                        count=count, seed=0))
        shadow = pushforward(sphere, np.eye(3)[[0, 1]])
        est = estimate_curvature_constant(shadow, 2, 1.0,
                                          default_family(shadow))
        constants.append(est.constant)
    spread = constants[1] / constants[0]
    spread = max(spread, 1.0 / spread)
    ok = spread <= 2.0
    assert announce(11, "projection-stability", ok,
                    f"constants {constants[0]:.4f} -> {constants[1]:.4f}, "
                    f"spread {spread:.4f} (<= 2)")


def test_criterion_12_deterministic_reports(monkeypatch):
    outputs = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("DETCURVE_THREADS", threads)
        for name in BUNDLED_SCENARIOS:
            report = run_scenario(get_scenario(name))
            outputs.setdefault(name, []).append(report.to_json())
    mismatched = [name for name, (a, b) in outputs.items() if a != b]
    ok = not mismatched
    assert announce(12, "report-determinism", ok,
                    f"{len(outputs)} scenarios byte-identical across "
                    f"thread counts, mismatches {mismatched or 'none'}")
