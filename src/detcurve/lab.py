"""Scenario drivers: wire measures, searches, and functionals into checks.

Each verify_* function runs one inequality family and returns CheckRecords
plus the constants it measured.  run_scenario composes them according to a
ScenarioConfig; three bundled scenarios exercise the whole surface, one of
them a deliberate counterexample whose checks are expected to fail.

The quantitative backbone:

* shrink/mass factor pair (c_k, C_k): mass >= eps at k-content delta forces
  the k-fold pinned-determinant sublevel mass at threshold c_k * delta to
  stay below C_k * eps, with c_k = 2^(-(k-1)(k+2)/2) and C_k = 4^(k-1) k!.
* mixed-measure variant: same statement for k distinct measures at
  threshold c_k * (delta_1 ... delta_k)^(1/k), with an extra k^k / k!.
* weak-type constant: summing the trivial layer bound below a crossover
  index and the curvature layer bound above it gives an explicit constant
  rwt_series_constant(k, alpha, gamma) for the normalized set form; the
  integer-crossover penalty 2^(alpha-gamma) is included.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .curvature import (GAUSSIAN_CONTENT_TOL, GAUSSIAN_LOWER_TOL, MAXIMAL_TOL, MODES,
                        SLAB_TOL, EllipsoidFamily, default_family, dyadic_exponents,
                        estimate_curvature_constant, gaussian_content_check, gaussian_lower_check,
                        layer_cake_check, maximal_weak_bound_check, min_content_at_mass, ratios,
                        slab_implication_check)
from .functionals import (CAUCHY_SCHWARZ_TOL, DEFAULT_BUDGET, cauchy_schwarz_check,
                          sublevel_mass, weak_type_probe)
from .measure import (GeneratorSpec, WeightedPointMeasure, check_integer, generate,
                      load_point_cloud, pushforward)
from .reporting import CheckRecord, ScenarioReport

EPS_GRID_DEFAULT = (0.1, 0.2, 0.4)


# ---------------------------------------------------------------------------
# explicit constants


def sublevel_shrink_factor(k: int) -> float:
    """c_k = 2^(-(k-1)(k+2)/2); satisfies c_k = 2^(-k) c_(k-1), c_1 = 1."""
    check_integer("k", k, 1)
    return 2.0 ** (-(k - 1) * (k + 2) / 2.0)


def sublevel_mass_factor(k: int) -> float:
    """C_k = 4^(k-1) k!; C_1 = 1 anchors the exact one-dimensional case."""
    check_integer("k", k, 1)
    return 4.0 ** (k - 1) * math.factorial(k)


def multi_measure_factor(k: int) -> float:
    """Extra factor k^k / k! when the k slots carry distinct measures."""
    check_integer("k", k, 1)
    return k ** k / math.factorial(k)


def _check_rwt_exponents(alpha: float, gamma: float) -> None:
    if not 0 < gamma < alpha < math.inf:  # alpha = inf reads nan
        raise ValueError(f"need 0 < gamma < alpha < inf, got gamma {gamma}, alpha {alpha}")


def rwt_series_bound(k: int, alpha: float, gamma: float, l0: int) -> float:
    """Two-sided layer bound at integer crossover l0, at curvature constant
    W = 1 and set-mass product P = 1.

    Layers are indexed so layer l holds determinants in [2^(-l-1), 2^(-l)),
    where the kernel is at most 2^(gamma (l+1)).  Below the crossover the
    layer mass is bounded by the product of set masses P; above it by the
    sublevel estimate A_E * 2^(-l alpha) with

        A_E = (k^k/k!) * C_k * c_k^(-alpha) * W * P^(1 - 1/k)

    (the k^k/k! enters because restricting to distinct sets yields distinct
    normalized measures).  Both geometric series are summed in closed form;
    rwt_bound carries W and the set masses by homogeneity.
    """
    _check_rwt_exponents(alpha, gamma)
    c_k = sublevel_shrink_factor(k)
    head = 2.0 ** gamma * 2.0 ** (gamma * l0) / (1.0 - 2.0 ** -gamma)
    a_e = multi_measure_factor(k) * sublevel_mass_factor(k) * c_k ** -alpha
    tail = a_e * 2.0 ** gamma * 2.0 ** ((gamma - alpha) * (l0 + 1)) \
        / (1.0 - 2.0 ** (gamma - alpha))
    return head + tail


def rwt_series_constant(k: int, alpha: float, gamma: float) -> float:
    """Closed-form constant: 2^(alpha-gamma) times the real-crossover minimum
    of rwt_series_bound.

    The normalized set form is then bounded by

        rwt_series_constant * W^(gamma/alpha) * prod_j m_j^(1 - gamma/(k alpha)),

    and the 2^(alpha-gamma) pays for rounding the optimal crossover down to
    an integer.
    """
    _check_rwt_exponents(alpha, gamma)
    c_k = sublevel_shrink_factor(k)
    a0 = multi_measure_factor(k) * sublevel_mass_factor(k) * c_k ** -alpha * 2.0 ** gamma \
        / (1.0 - 2.0 ** (gamma - alpha))
    b0 = 1.0 / (1.0 - 2.0 ** -gamma)
    r = gamma / (alpha - gamma)
    h = r ** ((alpha - gamma) / alpha) + r ** (-gamma / alpha)
    return 2.0 ** (alpha - gamma) * a0 ** (gamma / alpha) \
        * b0 ** ((alpha - gamma) / alpha) * h


def rwt_bound(k: int, alpha: float, gamma: float, curvature: float,
              set_masses) -> float:
    """Explicit weak-type bound for the normalized set form."""
    if not (curvature >= 0 and math.isfinite(curvature)):
        raise ValueError(f"curvature must be finite and nonnegative, got {curvature}")
    exponent = 1.0 - gamma / (k * alpha)
    p = math.prod(float(m) ** exponent for m in set_masses)
    return rwt_series_constant(k, alpha, gamma) \
        * curvature ** (gamma / alpha) * p


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class FamilyParams:
    """Knobs forwarded to default_family (floor None means median NN)."""

    n_frames: int = 64
    n_pca: int = 8
    floor: float = None
    j_min: int = None
    j_max: int = None
    mode: str = "scale_floored_search"
    seed: int = 0

    def __post_init__(self):
        for name in ("n_frames", "n_pca", "seed"):
            check_integer(name, getattr(self, name))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def build(self, mu: WeightedPointMeasure) -> EllipsoidFamily:
        return default_family(mu, n_frames=self.n_frames, n_pca=self.n_pca,
                              floor=self.floor, j_min=self.j_min,
                              j_max=self.j_max, mode=self.mode, seed=self.seed)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete, serializable description of one verification run.

    expected_fail entries may name either a check group (an entry of
    `checks`) or an individual record; matching records are marked so a
    failure counts as the intended outcome.
    """

    name: str
    generator: object  # GeneratorSpec or a point-cloud file path
    co_generators: tuple = ()
    pushforward_drop: int = None
    k: int = 2
    alpha: float = 1.0
    gamma: float = 0.5
    eps_grid: tuple = EPS_GRID_DEFAULT
    checks: tuple = ("sublevel",)
    expected_fail: tuple = ()
    family: FamilyParams = field(default_factory=FamilyParams)
    budget: int = DEFAULT_BUDGET
    trials: int = 40
    seed: int = 0
    refine: int = 160
    slack: float = 0.25
    floor_shrink: tuple = (1, 2, 3)
    refinement_counts: tuple = ()

    def __post_init__(self):
        check_integer("k", self.k, 1)
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        check_integer("trials", self.trials, 1)
        check_integer("seed", self.seed)
        check_integer("refine", self.refine)
        if not (self.slack >= 0 and math.isfinite(self.slack)):
            raise ValueError(f"slack must be finite and nonnegative, got {self.slack}")
        eps = tuple(float(e) for e in self.eps_grid)
        if any(not 0 < e <= 1 for e in eps):
            raise ValueError("eps_grid values must lie in (0, 1]")
        if list(eps) != sorted(eps):
            raise ValueError("eps_grid must be sorted ascending")
        unknown = [c for c in self.checks if c not in KNOWN_CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {unknown}")
        needs_gamma = {"weak_type", "flat_weak_type"} & set(self.checks)
        if needs_gamma and not 0 < self.gamma < self.alpha:
            raise ValueError("weak-type checks need 0 < gamma < alpha")
        if len(self.co_generators) > self.k - 1:
            raise ValueError(f"co_generators fill at most the k - 1 = {self.k - 1} "
                             f"slots after the first, got {len(self.co_generators)}")
        if "refinement_stability" in self.checks:
            if not isinstance(self.generator, GeneratorSpec):
                raise ValueError("refinement_stability resizes the generator, so it "
                                 "needs a GeneratorSpec, not a point-cloud file")
            if len(self.refinement_counts) < 2:
                raise ValueError("refinement_stability needs two refinement_counts")
        object.__setattr__(self, "eps_grid", eps)
        for name in ("checks", "expected_fail", "co_generators", "floor_shrink",
                     "refinement_counts"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def to_dict(self) -> dict:
        def gen_dict(g):
            return g.to_dict() if isinstance(g, GeneratorSpec) else str(g)

        return {**asdict(self), "generator": gen_dict(self.generator),
                "co_generators": [gen_dict(g) for g in self.co_generators]}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        def gen_load(g):
            return GeneratorSpec.from_dict(g) if isinstance(g, dict) else g

        kwargs = dict(data)
        kwargs["generator"] = gen_load(data["generator"])
        kwargs["co_generators"] = [gen_load(g) for g in data.get("co_generators", ())]
        if "family" in data:
            kwargs["family"] = FamilyParams(**data["family"])
        return cls(**kwargs)


def _realize(spec) -> WeightedPointMeasure:
    if isinstance(spec, GeneratorSpec):
        return generate(spec)
    return load_point_cloud(str(spec))


def scenario_measure(config: ScenarioConfig) -> WeightedPointMeasure:
    mu = _realize(config.generator)
    drop = config.pushforward_drop
    if drop is not None:
        if drop not in range(mu.dim):
            raise ValueError(f"pushforward_drop must be in [0, {mu.dim}), got {drop}")
        mu = pushforward(mu, np.eye(mu.dim)[[i for i in range(mu.dim) if i != drop]])
    return mu


# ---------------------------------------------------------------------------
# verification drivers


def verify_sublevel_bound(mu: WeightedPointMeasure, k: int, eps_grid, family,
                          *, budget: int = DEFAULT_BUDGET, refine: int = 160):
    """Searched min-content level against the sublevel mass bound.

    For each eps: delta_hat from the family search (an upper bound for the
    true infimum, so the check errs toward failing), then the k-fold pinned
    sublevel mass at c_k * delta_hat must stay below C_k * eps.
    """
    if abs(mu.total_mass - 1.0) > 1e-9:
        raise ValueError("verify_sublevel_bound expects a probability measure")
    c_k = sublevel_shrink_factor(k)
    big_c = sublevel_mass_factor(k)
    records = []
    constants = {"shrink_factor": c_k, "mass_factor": big_c,
                 "delta_hat": {}, "sublevel_values": {}}

    rec_err = max(abs(sublevel_shrink_factor(j) -
                      2.0 ** -j * sublevel_shrink_factor(j - 1))
                  for j in range(2, 7))
    records.append(CheckRecord(
        "shrink-factor-recursion", rec_err, 0.0,
        details={"relation": "factor(k) = 2^-k * factor(k-1), k = 2..6"}))

    for eps in eps_grid:
        delta_hat, witness = min_content_at_mass(mu, k, eps, family, refine)
        value = sublevel_mass([mu] * k, c_k * delta_hat, budget=budget)
        bound = big_c * eps
        records.append(CheckRecord(
            f"sublevel-bound-eps-{eps:g}", value, bound,
            details={"delta_hat": delta_hat,
                     "threshold": c_k * delta_hat,
                     "witness_lengths": sorted(witness.semi_lengths.tolist(),
                                               reverse=True)}))
        constants["delta_hat"][f"{eps:g}"] = delta_hat
        constants["sublevel_values"][f"{eps:g}"] = value
    return records, constants


def verify_sublevel_bound_multi(measures, eps_grid, families, *,
                                budget: int = DEFAULT_BUDGET,
                                refine: int = 160):
    """Mixed-measure variant: threshold from the per-measure content levels.

    k = len(measures); the threshold is c_k times the geometric mean product
    (delta_1 ... delta_k)^(1/k) and the bound gains the k^k/k! factor.
    """
    measures = list(measures)
    k = len(measures)
    if any(abs(m_.total_mass - 1.0) > 1e-9 for m_ in measures):
        raise ValueError("expects probability measures")
    c_k = sublevel_shrink_factor(k)
    bound_factor = multi_measure_factor(k) * sublevel_mass_factor(k)
    records = []
    constants = {"mixed_bound_factor": bound_factor, "delta_hat_multi": {}}
    pairs = list(zip(measures, families, strict=True))
    for eps in eps_grid:
        deltas = [min_content_at_mass(m_, k, eps, fam, refine)[0]
                  for m_, fam in pairs]
        level = math.prod(delta_hat ** (1.0 / k) for delta_hat in deltas)
        value = sublevel_mass(measures, c_k * level, budget=budget)
        bound = bound_factor * eps
        records.append(CheckRecord(
            f"sublevel-mixed-eps-{eps:g}", value, bound,
            details={"delta_hats": deltas, "threshold": c_k * level}))
        constants["delta_hat_multi"][f"{eps:g}"] = deltas
    return records, constants


def verify_weak_type_bound(mu: WeightedPointMeasure, k: int, gamma: float,
                           alpha: float, family, *, trials: int = 100,
                           seed: int = 0, budget: int = DEFAULT_BUDGET,
                           refine: int = 160, slack: float = 0.25):
    """Probe the normalized set form against the explicit series constant.

    The curvature constant is a searched lower bound, so it is inflated by
    the relative slack before entering the bound; the probe witness is
    reported either way.  A second record cross-checks the closed-form
    constant against the brute-force integer-crossover minimum of the
    series it summarizes: the larger of min / closed and
    closed / (2^(alpha-gamma) min), against 1.
    """
    _check_rwt_exponents(alpha, gamma)
    estimate = estimate_curvature_constant(mu, k, alpha, family, refine=refine)
    probe = weak_type_probe(mu, k, gamma, alpha, trials=trials, seed=seed,
                            budget=budget)
    w_used = estimate.constant * (1.0 + slack)
    bound = rwt_bound(k, alpha, gamma, w_used, [1.0] * k)
    records = [CheckRecord(
        "weak-type-empirical-sup", probe.sup_ratio, bound,
        details={"curvature_estimate": estimate.constant,
                 "curvature_slack": slack,
                 "series_constant": rwt_series_constant(k, alpha, gamma),
                 "trials": probe.trials,
                 "witness": probe.witness})]

    # series_min <= closed <= 2^(alpha-gamma) * series_min, as one ratio
    closed = rwt_series_constant(k, alpha, gamma)
    series_values = [rwt_series_bound(k, alpha, gamma, l0)
                     for l0 in range(-512, 513)]
    series_min = min(series_values)
    rounding = 2.0 ** (alpha - gamma)
    records.append(CheckRecord(
        "weak-type-series-consistency",
        max(series_min / closed, closed / (rounding * series_min)), 1.0, tol=1e-12,
        details={"integer_crossover": int(np.argmin(series_values)) - 512,
                 "rounding_factor": rounding}))
    constants = {"curvature_estimate": estimate.constant,
                 "series_constant": closed,
                 "series_integer_min": series_min,
                 "probe_sup": probe.sup_ratio}
    return records, constants


def _worst_trial(name: str, sides, tol: float) -> CheckRecord:
    """A trial family of (lhs_i, rhs_i) as one record: the worst ratio
    lhs_i / rhs_i (0/0 = 0, m/0 = inf) against 1 at tol, with the trial and
    failure counts in details."""
    trial = ratios(*np.array(sides, dtype=float).T)
    return CheckRecord(name, float(np.max(trial)), 1.0, tol=tol, details={
        "trials": trial.size, "failures": int(np.sum(trial > 1.0 + tol))})


def verify_cauchy_schwarz(mu: WeightedPointMeasure, k: int, gamma: float, *,
                          trials: int = 50, seed: int = 0,
                          budget: int = DEFAULT_BUDGET):
    """Included-mass squared against the two opposite-power forms, on
    random index sets; reported as the worst trial ratio."""
    check_integer("trials", trials, 1)  # no trial, no worst ratio
    check_integer("seed", seed)
    rng = np.random.default_rng(seed)
    sides = []
    for _ in range(trials):
        sets = [np.sort(rng.choice(mu.n_atoms, size=int(rng.integers(1, mu.n_atoms + 1)),
                                   replace=False)) for _ in range(k)]
        sides.append(cauchy_schwarz_check(mu, k, gamma, sets, budget=budget)[:2])
    record = _worst_trial("cauchy-schwarz-duality", sides, CAUCHY_SCHWARZ_TOL)
    return [record], {"cs_worst_ratio": record.lhs}


def verify_gaussian_bounds(mu: WeightedPointMeasure, k: int, alpha: float, *,
                           seed: int = 0):
    """Exact lower bound on 100 random Q, then layer decomposition (relative
    error at most 1e-6) and dyadic content bound on 20 random Q each; the
    two bounds report their worst trial ratio."""
    n_lower, n_layer, layer_tol = 100, 20, 1e-6
    d = mu.dim
    check_integer("seed", seed)
    rng = np.random.default_rng(seed)

    def random_matrix():
        q = rng.standard_normal((d, d))
        return q * 2.0 ** rng.uniform(-2.0, 2.0)

    records = [_worst_trial("gaussian-lower-bound", [gaussian_lower_check(
        mu, random_matrix())[:2] for _ in range(n_lower)], GAUSSIAN_LOWER_TOL)]
    worst_err = max(layer_cake_check(mu, random_matrix())[2] for _ in range(n_layer))
    records.append(CheckRecord("gaussian-layer-decomposition", worst_err, layer_tol,
                               details={"trials": n_layer}))
    records.append(_worst_trial("gaussian-content-bound", [
        gaussian_content_check(mu, random_matrix(), k, alpha)[:2]
        for _ in range(n_layer)], GAUSSIAN_CONTENT_TOL))
    return records, {"gaussian_layer_worst_err": worst_err}


def verify_slab_implication(mu: WeightedPointMeasure, k: int, alpha: float,
                            family):
    """Slab constant over top-axis flats dominates every family member:
    the worst member mass / bound against 1.  The bound is inf for every
    member when the slab constant is (mass on a flat), and the record then
    reads 0 against 1."""
    c_slab, _, worst, n_checked = slab_implication_check(mu, k, alpha, family)
    records = [CheckRecord(
        "slab-implication", worst, 1.0, tol=SLAB_TOL,
        details={"slab_constant": c_slab, "members_checked": n_checked})]
    return records, {"slab_constant": c_slab}


def verify_maximal_bound(mu: WeightedPointMeasure, k: int, alpha: float, *,
                         seed: int = 0):
    """Family-restricted maximal inequality at p = 1 on a doubling-closed
    family with 6 random frames."""
    p = 1.0
    j_min = dyadic_exponents(mu.median_nn)[0] - 2
    family = default_family(mu, n_frames=6, n_pca=2, j_min=j_min,
                            mode="doubling_dyadic", seed=seed)
    lhs, rhs, _ = maximal_weak_bound_check(mu, k, alpha, p, family)
    records = [CheckRecord(
        "maximal-weak-bound", lhs, rhs, tol=MAXIMAL_TOL,
        details={"p": p, "family_size": family.size,
                 "grid": family.length_grid.tolist()})]
    return records, {"maximal_lhs": lhs, "maximal_rhs": rhs}


def verify_necessity_growth(mu: WeightedPointMeasure, k: int, alpha: float, *,
                            base_floor: float, deltas=(1, 2, 3),
                            n_frames: int = 16, seed: int = 0,
                            refine: int = 160):
    """Curvature blow-up of a flat-supported measure as the floor shrinks.

    The growth records assert constant(floor / 2^dj) >= 0.9 * 2^(k alpha dj)
    * constant(floor).  The companion stability record asserts the constant
    stays within a factor 2 across the sweep; for a measure carried by a
    lower-dimensional flat that is false by design, so it is expected_fail.
    """
    def constant_at(floor):
        fam = default_family(mu, n_frames=n_frames, n_pca=4, floor=floor,
                             seed=seed)
        return estimate_curvature_constant(mu, k, alpha, fam,
                                           refine=refine).constant

    base = constant_at(base_floor)
    records = []
    constants = {"necessity_constants": {"0": base}}
    last = base
    for dj in deltas:
        value = constant_at(base_floor * 2.0 ** -dj)
        growth = value / base if base > 0 else math.inf
        needed = 0.9 * 2.0 ** (k * alpha * dj)
        records.append(CheckRecord(
            f"necessity-growth-dj-{dj}", growth, needed, ">=",
            details={"constant": value, "base_constant": base,
                     "floor": base_floor * 2.0 ** -dj}))
        constants["necessity_constants"][str(dj)] = value
        last = value
    spread = last / base if base > 0 else math.inf
    records.append(CheckRecord(
        "bounded-curvature-across-floors", spread, 2.0, expected_fail=True,
        details={"note": "flat-supported measures admit no single curvature "
                         "constant; this stability assertion must fail"}))
    return records, constants


def thickened_copy(mu: WeightedPointMeasure, coordinate: int,
                   offset: float) -> WeightedPointMeasure:
    """Shift atoms off a flat by +-offset along one coordinate, alternating."""
    pts = mu.points.copy()
    signs = np.where(np.arange(mu.n_atoms) % 2 == 0, 1.0, -1.0)
    pts[:, coordinate] += offset * signs
    return WeightedPointMeasure(points=pts, weights=mu.weights)


def verify_flat_blowup(mu: WeightedPointMeasure, k: int, gamma: float,
                       alpha: float, *, trials: int = 12,
                       seed: int = 0, budget: int = DEFAULT_BUDGET,
                       slack: float = 0.25):
    """Near-flat measure versus the weak-type bound at a coarse floor.

    The measure is thickened off its flat by a transverse offset of 2^-28
    and the curvature constant is measured (local refinement budget 64)
    with the floor held at the atom spacing, the median nearest-neighbour
    distance, the scale where the measure still looks curved.  The probe
    then exploits determinants of the order of the offset, so the bound
    fails: exactly the necessity direction of the equivalence.  All records
    are expected_fail.
    """
    _check_rwt_exponents(alpha, gamma)
    offset = 2.0 ** -28
    near = thickened_copy(mu, mu.dim - 1, offset)
    coarse_floor = mu.median_nn
    fam = default_family(near, n_frames=8, n_pca=2, floor=coarse_floor,
                         seed=seed)
    estimate = estimate_curvature_constant(near, k, alpha, fam, refine=64)
    probe = weak_type_probe(near, k, gamma, alpha, trials=trials, seed=seed,
                            budget=budget)
    bound = rwt_bound(k, alpha, gamma, estimate.constant * (1.0 + slack),
                      [1.0] * k)
    records = [CheckRecord(
        "weak-type-near-flat", probe.sup_ratio, bound, expected_fail=True,
        details={"offset": offset, "coarse_floor": coarse_floor,
                 "curvature_at_coarse_floor": estimate.constant,
                 "note": "bound uses the coarse-scale constant; the measure "
                         "is not curved below that scale, so this must fail"})]
    constants = {"near_flat_probe_sup": probe.sup_ratio,
                 "near_flat_bound": bound}
    return records, constants


def verify_refinement_stability(config: "ScenarioConfig",
                                mu: WeightedPointMeasure):
    """Curvature estimate stability across sample-size refinement: the
    constants at the first and last refinement_counts agree within a
    factor 2.  mu, the scenario's own measure, serves the count its
    generator already has."""
    counts = config.refinement_counts
    factor = 2.0
    values = []
    for count in counts:
        m_ = mu if count == config.generator.count else scenario_measure(replace(
            config, generator=replace(config.generator, count=int(count))))
        fam = config.family.build(m_)
        est = estimate_curvature_constant(m_, config.k, config.alpha, fam,
                                          refine=config.refine)
        values.append(est.constant)
    ratio = values[-1] / values[0] if values[0] > 0 else math.inf
    spread = max(ratio, 1.0 / ratio) if ratio > 0 else math.inf
    records = [CheckRecord(
        f"refinement-stability-{counts[0]}-{counts[-1]}", spread, factor,
        details={"constants": values, "counts": list(counts)})]
    return records, {"refinement_constants": values}


# ---------------------------------------------------------------------------
# scenario runner


def _multi_check(config, mu, get_family):
    measures = [mu] + [_realize(g) for g in config.co_generators]
    if len(measures) != config.k:
        measures = (measures * config.k)[:config.k]
    families = [get_family() if m_ is mu else config.family.build(m_)
                for m_ in measures]
    return verify_sublevel_bound_multi(measures, config.eps_grid, families,
                                       budget=config.budget, refine=config.refine)


def _necessity_check(config, mu):
    base_floor = 2.0 ** (dyadic_exponents(mu.median_nn)[0] - 1)
    return verify_necessity_growth(mu, config.k, config.alpha,
                                   base_floor=base_floor,
                                   deltas=config.floor_shrink,
                                   seed=config.seed, refine=config.refine)


# check name -> driver(config, mu, get_family) returning (records, constants);
# the lambdas look the verify_* functions up in the module globals at call time
_CHECKS = {
    "sublevel": lambda c, mu, fam: verify_sublevel_bound(
        mu, c.k, c.eps_grid, fam(), budget=c.budget, refine=c.refine),
    "sublevel_multi": _multi_check,
    "weak_type": lambda c, mu, fam: verify_weak_type_bound(
        mu, c.k, c.gamma, c.alpha, fam(), trials=c.trials, seed=c.seed,
        budget=c.budget, refine=c.refine, slack=c.slack),
    "cauchy_schwarz": lambda c, mu, fam: verify_cauchy_schwarz(
        mu, c.k, c.gamma, trials=c.trials, seed=c.seed, budget=c.budget),
    "gaussian": lambda c, mu, fam: verify_gaussian_bounds(
        mu, c.k, c.alpha, seed=c.seed),
    "slab": lambda c, mu, fam: verify_slab_implication(mu, c.k, c.alpha, fam()),
    "maximal": lambda c, mu, fam: verify_maximal_bound(
        mu, c.k, c.alpha, seed=c.seed),
    "necessity": lambda c, mu, fam: _necessity_check(c, mu),
    "flat_weak_type": lambda c, mu, fam: verify_flat_blowup(
        mu, c.k, c.gamma, c.alpha, trials=min(c.trials, 12), seed=c.seed,
        budget=c.budget, slack=c.slack),
    "refinement_stability": lambda c, mu, fam: verify_refinement_stability(c, mu),
}
KNOWN_CHECKS = tuple(_CHECKS)


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Execute every configured check and collect one report."""
    report = ScenarioReport(scenario=config.name, config=config.to_dict())
    mu = scenario_measure(config)
    family = None

    def get_family():
        nonlocal family
        if family is None:
            family = config.family.build(mu)
        return family

    for name in config.checks:
        t0 = time.perf_counter()
        records, consts = _CHECKS[name](config, mu, get_family)
        report.timings[name] = time.perf_counter() - t0

        for rec in records:
            flip = name in config.expected_fail or rec.name in config.expected_fail
            if flip and not rec.expected_fail:
                rec = replace(rec, expected_fail=True)
            report.add(rec)
        report.constants.update(consts)
    return report


# ---------------------------------------------------------------------------
# bundled scenarios


def _bundled() -> dict:
    cube = GeneratorSpec(family="cube_lebesgue", dim=2, count=256, seed=0)
    circle = GeneratorSpec(family="sphere_uniform", dim=2, count=240, seed=1)
    line = GeneratorSpec(family="subspace_lebesgue", dim=2, count=64, seed=0,
                         params={"subspace_dim": 1})
    sphere3 = GeneratorSpec(family="sphere_uniform", dim=3, count=500, seed=0)
    return {
        "lebesgue-cube-d2-k2": ScenarioConfig(
            name="lebesgue-cube-d2-k2",
            generator=cube,
            co_generators=(circle,),
            k=2, alpha=1.0, gamma=0.5,
            checks=("sublevel", "sublevel_multi", "weak_type",
                    "cauchy_schwarz", "gaussian", "slab", "maximal"),
            trials=40, seed=0),
        "flat-subspace-negative": ScenarioConfig(
            name="flat-subspace-negative",
            generator=line,
            k=2, alpha=1.0, gamma=0.5,
            checks=("necessity", "flat_weak_type"),
            trials=12, seed=0),
        "sphere-pushforward-d3": ScenarioConfig(
            name="sphere-pushforward-d3",
            generator=sphere3,
            pushforward_drop=2,
            k=2, alpha=1.0, gamma=0.5,
            checks=("refinement_stability", "gaussian"),
            refinement_counts=(500, 2000),
            seed=0),
    }


BUNDLED_SCENARIOS = tuple(sorted(_bundled()))


def get_scenario(name: str) -> ScenarioConfig:
    table = _bundled()
    if name not in table:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"bundled: {', '.join(sorted(table))}")
    return table[name]
