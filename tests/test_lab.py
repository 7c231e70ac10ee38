"""Scenario configs, verification drivers, and the explicit constants."""

from collections import Counter

import numpy as np
import pytest

from detcurve import curvature, functionals, lab, measure
from detcurve.functionals import det_form_pinned
from detcurve.lab import (
    BUNDLED_SCENARIOS,
    FamilyParams,
    ScenarioConfig,
    get_scenario,
    multi_measure_factor,
    run_scenario,
    rwt_bound,
    rwt_series_bound,
    rwt_series_constant,
    scenario_measure,
    sublevel_mass_factor,
    sublevel_shrink_factor,
    thickened_copy,
    verify_cauchy_schwarz,
    verify_necessity_growth,
    verify_sublevel_bound,
    verify_sublevel_bound_multi,
)
from detcurve.measure import GeneratorSpec


class TestConstants:
    def test_shrink_factors(self):
        assert sublevel_shrink_factor(1) == 1.0
        assert sublevel_shrink_factor(2) == 0.25
        assert sublevel_shrink_factor(3) == 1.0 / 32.0

    def test_shrink_recursion(self):
        for k in range(2, 8):
            assert sublevel_shrink_factor(k) == pytest.approx(
                2.0 ** -k * sublevel_shrink_factor(k - 1), rel=1e-15)

    def test_mass_factors(self):
        assert sublevel_mass_factor(1) == 1.0
        assert sublevel_mass_factor(2) == 8.0
        assert sublevel_mass_factor(3) == 96.0

    def test_multi_measure_factor(self):
        assert multi_measure_factor(1) == 1.0
        assert multi_measure_factor(2) == 2.0
        assert multi_measure_factor(3) == pytest.approx(4.5)

    def test_rejects_bad_k(self):
        for fn in (sublevel_shrink_factor, sublevel_mass_factor,
                   multi_measure_factor):
            with pytest.raises(ValueError):
                fn(0)


class TestSeriesConstant:
    @pytest.mark.parametrize("k,alpha,gamma", [
        (2, 1.0, 0.5),
        (2, 1.25, 0.5),
        (3, 1.0, 0.25),
        (1, 1.0, 0.5),
        (2, 0.8, 0.3),
    ])
    def test_closed_form_brackets_integer_minimum(self, k, alpha, gamma):
        series_min = min(rwt_series_bound(k, alpha, gamma, l0)
                         for l0 in range(-400, 401))
        closed = rwt_series_constant(k, alpha, gamma)
        assert series_min <= closed * (1 + 1e-12)
        assert closed <= 2.0 ** (alpha - gamma) * series_min * (1 + 1e-12)

    def test_bound_formula(self):
        k, alpha, gamma = 2, 1.0, 0.5
        w, masses = 3.0, [0.5, 0.25]
        expo = 1.0 - gamma / (k * alpha)
        want = rwt_series_constant(k, alpha, gamma) * w ** (gamma / alpha) \
            * (0.5 ** expo) * (0.25 ** expo)
        assert rwt_bound(k, alpha, gamma, w, masses) == pytest.approx(want, rel=1e-14)

    def test_bound_monotone_in_curvature(self):
        lo = rwt_bound(2, 1.0, 0.5, 1.0, [1.0, 1.0])
        hi = rwt_bound(2, 1.0, 0.5, 4.0, [1.0, 1.0])
        assert hi == pytest.approx(2.0 * lo, rel=1e-12)

    @pytest.mark.parametrize("curvature", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_curvature(self, curvature):
        # a negative constant raised to gamma / alpha used to give a complex bound
        with pytest.raises(ValueError, match="curvature must be finite and "
                                             f"nonnegative, got {curvature}"):
            rwt_bound(2, 1.0, 0.5, curvature, [1.0, 1.0])

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            rwt_series_constant(2, 1.0, 1.0)
        with pytest.raises(ValueError):
            rwt_series_constant(2, 1.0, 0.0)
        with pytest.raises(ValueError):
            rwt_series_bound(2, 0.5, 0.6, 0)
        for fn in (rwt_series_constant, lambda *a: rwt_series_bound(*a, 0),
                   lambda *a: rwt_bound(*a, 1.0, [1.0, 1.0])):
            with pytest.raises(ValueError, match="alpha < inf, got gamma 0.5, alpha inf"):
                fn(2, float("inf"), 0.5)


class TestScenarioConfig:
    def test_round_trip(self):
        cfg = ScenarioConfig(
            name="round-trip",
            generator=GeneratorSpec("cube_lebesgue", 2, 64, 0),
            co_generators=(GeneratorSpec("sphere_uniform", 2, 32, 1),),
            checks=("sublevel", "cauchy_schwarz"),
            eps_grid=(0.1, 0.4),
            family=FamilyParams(n_frames=4, n_pca=2),
            trials=7)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_unsorted_eps(self):
        with pytest.raises(ValueError):
            ScenarioConfig(name="x",
                           generator=GeneratorSpec("cube_lebesgue", 2, 16, 0),
                           eps_grid=(0.4, 0.1))

    def test_rejects_unknown_check(self):
        with pytest.raises(ValueError):
            ScenarioConfig(name="x",
                           generator=GeneratorSpec("cube_lebesgue", 2, 16, 0),
                           checks=("nonsense",))

    def test_rejects_bad_weak_type_exponents(self):
        with pytest.raises(ValueError):
            ScenarioConfig(name="x",
                           generator=GeneratorSpec("cube_lebesgue", 2, 16, 0),
                           checks=("weak_type",), gamma=1.5, alpha=1.0)

    @pytest.mark.parametrize("field,value,message", [
        ("alpha", float("inf"), "alpha must be positive and finite, got inf"),
        ("alpha", float("nan"), "alpha must be positive and finite, got nan"),
        ("trials", 0, "trials must be at least 1, got 0"),
        ("trials", -3, "trials must be at least 1, got -3"),
        # refine -5 used to run with no refinement; a negative slack made the
        # weak-type bound complex, and slack nan made it nan
        ("refine", -5, "refine must be at least 0, got -5"),
        ("refine", 2.5, "refine must be an integer, got 2.5"),
        ("slack", -2.0, "slack must be finite and nonnegative, got -2.0"),
        ("slack", float("nan"), "slack must be finite and nonnegative, got nan")])
    def test_rejects_by_name(self, field, value, message):
        # trials 0 used to pass cauchy-schwarz-duality with lhs -inf
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(name="x",
                           generator=GeneratorSpec("cube_lebesgue", 2, 16, 0),
                           checks=("cauchy_schwarz",), **{field: value})

    @pytest.mark.parametrize("field,value,message", [
        ("n_frames", -1, "n_frames must be at least 0, got -1"),
        ("n_pca", 2.5, "n_pca must be an integer, got 2.5"),
        ("seed", -1, "seed must be at least 0, got -1"),
        ("mode", "grid", "mode must be one of .*, got 'grid'")])
    def test_rejects_bad_family(self, field, value, message):
        # these used to be accepted here and fail only in run_scenario
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(name="x",
                           generator=GeneratorSpec("cube_lebesgue", 2, 16, 0),
                           family=FamilyParams(**{field: value}))

    def test_rejects_extra_co_generators(self):
        circle = GeneratorSpec("sphere_uniform", 2, 32, 1)
        with pytest.raises(ValueError, match="at most the k - 1 = 1 slots"):
            ScenarioConfig(name="x",
                           generator=GeneratorSpec("cube_lebesgue", 2, 16, 0),
                           co_generators=(circle, circle), k=2,
                           checks=("sublevel_multi",))

    def test_refinement_stability_needs_spec_and_two_counts(self):
        with pytest.raises(ValueError, match="needs a GeneratorSpec"):
            ScenarioConfig(name="x", generator="cloud.csv",
                           checks=("refinement_stability",),
                           refinement_counts=(16, 64))
        with pytest.raises(ValueError, match="needs two refinement_counts"):
            ScenarioConfig(name="x",
                           generator=GeneratorSpec("cube_lebesgue", 2, 16, 0),
                           checks=("gaussian", "refinement_stability"),
                           refinement_counts=(64,))

    def test_pushforward_drop(self):
        cfg = ScenarioConfig(
            name="drop",
            generator=GeneratorSpec("sphere_uniform", 3, 40, 0),
            pushforward_drop=2, checks=("gaussian",))
        mu = scenario_measure(cfg)
        assert mu.dim == 2
        assert mu.n_atoms == 40

    @pytest.mark.parametrize("drop", [3, 7, -1, 1.5])
    @pytest.mark.parametrize("source", ["spec", "cloud"])
    def test_pushforward_drop_outside_the_axes(self, tmp_path, source, drop):
        # an axis outside [0, d) used to keep every axis: the unprojected
        # 3-d measure ran in place of its 2-d image
        generator = GeneratorSpec("sphere_uniform", 3, 40, 0)
        if source == "cloud":
            path = tmp_path / "sphere.csv"
            measure.save_point_cloud(measure.generate(generator), path)
            generator = str(path)
        cfg = ScenarioConfig(name="drop", generator=generator, pushforward_drop=drop,
                             checks=("gaussian",))
        with pytest.raises(ValueError, match=rf"pushforward_drop must be in \[0, 3\), "
                                             rf"got {drop}"):
            scenario_measure(cfg)


    def test_family_block_doubling_rejects_floor(self, cube64):
        cfg = ScenarioConfig.from_dict({
            "name": "x", "generator": GeneratorSpec("cube_lebesgue", 2, 64, 0).to_dict(),
            "family": {"n_frames": 4, "floor": 0.1, "mode": "doubling_dyadic"}})
        with pytest.raises(ValueError, match="does not take a floor, got 0.1"):
            cfg.family.build(cube64)


# every library call that takes a seed, each on cube64 (mu) where it takes a measure
SEEDED_CALLS = {
    "det_form_sampled": lambda mu, s: functionals.det_form_sampled(
        mu, 2, 0.5, samples=10, seed=s),
    "weak_type_probe": lambda mu, s: functionals.weak_type_probe(
        mu, 2, 0.5, 1.0, trials=1, seed=s),
    "default_frames": lambda mu, s: curvature.default_frames(2, seed=s),
    "default_family": lambda mu, s: curvature.default_family(mu, seed=s),
    "verify_cauchy_schwarz": lambda mu, s: verify_cauchy_schwarz(
        mu, 2, 0.5, trials=1, seed=s),
    "verify_gaussian_bounds": lambda mu, s: lab.verify_gaussian_bounds(
        mu, 2, 1.0, seed=s),
    "verify_maximal_bound": lambda mu, s: lab.verify_maximal_bound(mu, 2, 1.0, seed=s),
    "generate": lambda mu, s: measure.generate(
        GeneratorSpec("sphere_uniform", 2, 8, seed=s)),
    "ScenarioConfig": lambda mu, s: ScenarioConfig(
        name="x", generator=GeneratorSpec("cube_lebesgue", 2, 16, 0), seed=s),
}


@pytest.mark.parametrize("seed,message", [
    (-1, "seed must be at least 0, got -1"),
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
    (np.array(3), "seed must be an integer, got array"),
], ids=["negative", "float", "bool", "array"])
@pytest.mark.parametrize("call", SEEDED_CALLS.values(), ids=SEEDED_CALLS)
def test_bad_seed_is_named(cube64, call, seed, message):
    # -1 ended in numpy's bare "expected non-negative integer", 1.5 in a
    # TypeError, and ScenarioConfig took -1 and failed when run
    with pytest.raises(ValueError, match=message):
        call(cube64, seed)


def test_numpy_integer_seed(cube64):
    assert (functionals.det_form_sampled(cube64, 2, 0.5, samples=10, seed=np.int64(4))
            == functionals.det_form_sampled(cube64, 2, 0.5, samples=10, seed=4))


class TestDrivers:
    def test_sublevel_records(self, cube64):
        fam = FamilyParams(n_frames=4, n_pca=2).build(cube64)
        records, constants = verify_sublevel_bound(
            cube64, 2, (0.2, 0.4), fam, refine=40)
        names = [r.name for r in records]
        assert names[0] == "shrink-factor-recursion"
        assert "sublevel-bound-eps-0.2" in names
        assert all(r.passed for r in records)
        assert set(constants["delta_hat"]) == {"0.2", "0.4"}

    def test_sublevel_sweeps_once_for_every_eps(self, cube64, monkeypatch):
        calls = []
        original = curvature._frame_masses

        def counting(mu, family, centers, reduce):
            calls.append(centers)
            return original(mu, family, centers, reduce)

        fam = FamilyParams(n_frames=4, n_pca=2).build(cube64)
        monkeypatch.setattr(curvature, "_frame_masses", counting)
        verify_sublevel_bound(cube64, 2, (0.1, 0.2, 0.4), fam, refine=0)
        assert len(calls) == 1

    @pytest.mark.parametrize("n_families", [1, 3])
    def test_sublevel_multi_needs_one_family_per_measure(self, cube64, circle240,
                                                         n_families):
        fam = FamilyParams(n_frames=4, n_pca=2).build(cube64)
        with pytest.raises(ValueError, match="argument 2 is (shorter|longer)"):
            verify_sublevel_bound_multi([cube64, circle240], (0.2,),
                                        [fam] * n_families)

    def test_cauchy_schwarz_driver(self, cube64):
        records, _ = verify_cauchy_schwarz(cube64, 2, 0.5, trials=10, seed=0)
        assert len(records) == 1
        assert records[0].passed and records[0].rhs == 1.0
        assert 0.0 < records[0].lhs <= 1.0  # the worst trial ratio
        assert records[0].details == {"trials": 10, "failures": 0}

    def test_trial_records_take_the_kernel_tolerances(self, cube64):
        # one constant per trial relation, read by the kernel's ok and the record
        family = curvature.default_family(cube64, n_frames=2, n_pca=1)
        records = [*verify_cauchy_schwarz(cube64, 2, 0.5, trials=2)[0],
                   *lab.verify_gaussian_bounds(cube64, 2, 1.0)[0],
                   *lab.verify_slab_implication(cube64, 2, 1.0, family)[0],
                   *lab.verify_maximal_bound(cube64, 2, 1.0)[0]]
        assert {r.name: r.tol for r in records if r.name != "gaussian-layer-decomposition"} == {
            "cauchy-schwarz-duality": functionals.CAUCHY_SCHWARZ_TOL,
            "gaussian-lower-bound": curvature.GAUSSIAN_LOWER_TOL,
            "gaussian-content-bound": curvature.GAUSSIAN_CONTENT_TOL,
            "slab-implication": curvature.SLAB_TOL,
            "maximal-weak-bound": curvature.MAXIMAL_TOL}

    def test_cauchy_schwarz_needs_a_trial(self, cube64):
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            verify_cauchy_schwarz(cube64, 2, 0.5, trials=0)

    def test_necessity_growth_is_exact_on_line(self, line64):
        records, constants = verify_necessity_growth(
            line64, 2, 1.0, base_floor=2.0 ** -7, deltas=(1, 2),
            n_frames=8, refine=40)
        growth = {r.name: r.lhs for r in records if "growth" in r.name}
        assert growth["necessity-growth-dj-1"] == pytest.approx(4.0, rel=1e-9)
        assert growth["necessity-growth-dj-2"] == pytest.approx(16.0, rel=1e-9)
        stability = [r for r in records if r.name == "bounded-curvature-across-floors"]
        assert stability[0].expected_fail and not stability[0].passed

    def test_thickened_copy(self, line64):
        thick = thickened_copy(line64, 1, 2.0 ** -20)
        assert thick.total_mass == pytest.approx(1.0)
        offsets = thick.points[:, 1]
        assert np.all(np.abs(offsets) == 2.0 ** -20)
        assert offsets[0] > 0 > offsets[1]


class TestScenarios:
    def test_bundled_names_sorted(self):
        assert list(BUNDLED_SCENARIOS) == sorted(BUNDLED_SCENARIOS)

    def test_cube_report_sweeps(self, monkeypatch):
        # one origin table per (measure, family), however many eps and
        # checks read it, and one sweep about the atoms for the maximal
        calls = []
        original = curvature._frame_masses

        def counting(mu, family, centers, reduce):
            origin = centers.shape[0] == 1 and not centers.any()
            assert origin or np.array_equal(centers, mu.points)
            calls.append((mu.n_atoms, origin))
            return original(mu, family, centers, reduce)

        monkeypatch.setattr(curvature, "_frame_masses", counting)
        run_scenario(get_scenario("lebesgue-cube-d2-k2"))
        # the cube has 256 atoms, the circle 240
        assert Counter(n for n, origin in calls if origin) == {256: 1, 240: 1}
        assert [n for n, origin in calls if not origin] == [256]
        assert len(BUNDLED_SCENARIOS) == 3

    def test_get_scenario_unknown(self):
        with pytest.raises(KeyError):
            get_scenario("no-such-scenario")

    def test_tiny_scenario_runs_clean(self):
        cfg = ScenarioConfig(
            name="tiny",
            generator=GeneratorSpec("cube_lebesgue", 2, 64, 0),
            checks=("sublevel", "cauchy_schwarz"),
            eps_grid=(0.2,),
            family=FamilyParams(n_frames=4, n_pca=2),
            trials=6, refine=40)
        report = run_scenario(cfg)
        assert report.all_satisfied
        assert report.scenario == "tiny"
        assert set(report.timings) == {"sublevel", "cauchy_schwarz"}
        assert report.config["generator"]["family"] == "cube_lebesgue"

    @pytest.mark.parametrize("co_generators,builds", [
        ((), 1), ((GeneratorSpec("sphere_uniform", 2, 32, 1),), 2)])
    def test_one_family_per_measure(self, monkeypatch, co_generators, builds):
        # sublevel_multi reuses the scenario measure's family for its slots
        calls = []
        original = lab.default_family

        def spy(mu, **kwargs):
            calls.append(mu)
            return original(mu, **kwargs)

        monkeypatch.setattr(lab, "default_family", spy)
        cfg = ScenarioConfig(
            name="families",
            generator=GeneratorSpec("cube_lebesgue", 2, 64, 0),
            co_generators=co_generators,
            checks=("sublevel", "sublevel_multi"),
            eps_grid=(0.2,),
            family=FamilyParams(n_frames=4, n_pca=2),
            refine=8)
        assert run_scenario(cfg).all_satisfied
        assert len(calls) == builds

    @pytest.mark.parametrize("name,floors", [("flat-subspace-negative", 1),
                                             ("lebesgue-cube-d2-k2", 2),
                                             ("sphere-pushforward-d3", 2)])
    def test_one_floor_per_measure(self, monkeypatch, name, floors):
        # the nearest-neighbour floor is computed once per measure object,
        # however many checks and families read it
        calls = []
        original = measure.median_nn_distance

        def spy(mu):
            calls.append(mu)
            return original(mu)

        monkeypatch.setattr(measure, "median_nn_distance", spy)
        run_scenario(get_scenario(name))
        assert len(calls) == floors
        assert len({id(mu) for mu in calls}) == floors

    def test_expected_fail_flip(self):
        # a passing check listed in expected_fail must count as unsatisfied
        cfg = ScenarioConfig(
            name="flip",
            generator=GeneratorSpec("cube_lebesgue", 2, 64, 0),
            checks=("cauchy_schwarz",),
            expected_fail=("cauchy-schwarz-duality",),
            trials=4)
        report = run_scenario(cfg)
        rec = report.checks[0]
        assert rec.passed and rec.expected_fail
        assert not rec.satisfied
        assert not report.all_satisfied

    def test_flat_scenario_designed_failures(self):
        report = run_scenario(get_scenario("flat-subspace-negative"))
        assert report.all_satisfied
        flagged = {r.name for r in report.checks if r.expected_fail}
        assert flagged == {"bounded-curvature-across-floors",
                           "weak-type-near-flat"}
        for r in report.checks:
            if r.expected_fail:
                assert not r.passed


class TestDeterminism:
    def test_form_identical_across_thread_counts(self, monkeypatch, cube256):
        values = []
        for threads in ("1", "3"):
            monkeypatch.setenv("DETCURVE_THREADS", threads)
            values.append(det_form_pinned(cube256, 2, 0.5).value)
        assert values[0] == values[1]

    def test_scenario_json_identical_across_thread_counts(self, monkeypatch):
        outputs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("DETCURVE_THREADS", threads)
            report = run_scenario(get_scenario("flat-subspace-negative"))
            outputs.append(report.to_json())
        assert outputs[0] == outputs[1]
