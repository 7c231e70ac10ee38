"""detcurve: determinant functionals and curvature of discrete measures.

Numerical companions to a family of multilinear determinant inequalities:
exact evaluation of determinant-kernel forms on weighted point measures,
curvature-constant estimation over ellipsoid families, sublevel and
weak-type bounds with explicit constants, and reproducible verification
scenarios.
"""

from .geometry import (AffineSubspace, Ellipsoid, det_content_bound,
                       ellipsoid_of, k_content, matrix_content, simplex_det,
                       simplex_det_many)
from .measure import (GeneratorSpec, WeightedPointMeasure, dilate,
                      eval_measure, generate, load_point_cloud,
                      median_nn_distance, pushforward, save_point_cloud,
                      translate)
from .curvature import (CurvatureEstimate, EllipsoidFamily, GaussianForm,
                        curvature_ratio, default_family, default_frames,
                        estimate_curvature_constant, gaussian_content_check,
                        gaussian_integral, gaussian_lower_check,
                        layer_cake_check, maximal_function,
                        maximal_weak_bound_check, min_content_at_mass,
                        slab_constant, slab_implication_check, weak_lp_norm)
from .functionals import (BudgetExceededError, DyadicProfile,
                          FunctionalResult, WeakTypeProbeResult,
                          cauchy_schwarz_check, det_form, det_form_pinned,
                          det_form_sampled, dyadic_profile, sublevel_mass,
                          weak_type_probe)
from .reporting import CheckRecord, ScenarioReport, emit_report
from .lab import (BUNDLED_SCENARIOS, FamilyParams, ScenarioConfig,
                  get_scenario, multi_measure_factor, run_scenario,
                  rwt_bound, rwt_series_bound, rwt_series_constant,
                  sublevel_mass_factor, sublevel_shrink_factor,
                  verify_sublevel_bound, verify_sublevel_bound_multi,
                  verify_weak_type_bound)

__version__ = "0.1.0"

__all__ = [
    "AffineSubspace", "BUNDLED_SCENARIOS", "BudgetExceededError",
    "CheckRecord", "CurvatureEstimate", "DyadicProfile", "Ellipsoid",
    "EllipsoidFamily", "FamilyParams", "FunctionalResult", "GaussianForm",
    "GeneratorSpec", "ScenarioConfig", "ScenarioReport",
    "WeakTypeProbeResult", "WeightedPointMeasure", "cauchy_schwarz_check",
    "curvature_ratio", "default_family", "default_frames",
    "det_content_bound", "det_form", "det_form_pinned", "det_form_sampled",
    "dilate", "dyadic_profile", "ellipsoid_of", "emit_report",
    "estimate_curvature_constant", "eval_measure",
    "gaussian_content_check", "gaussian_integral", "gaussian_lower_check",
    "generate", "get_scenario", "k_content",
    "layer_cake_check", "load_point_cloud", "matrix_content",
    "maximal_function", "maximal_weak_bound_check", "median_nn_distance",
    "min_content_at_mass", "multi_measure_factor", "pushforward",
    "run_scenario", "rwt_bound", "rwt_series_bound", "rwt_series_constant",
    "save_point_cloud", "simplex_det", "simplex_det_many", "slab_constant",
    "slab_implication_check", "sublevel_mass", "sublevel_mass_factor",
    "sublevel_shrink_factor", "translate", "verify_sublevel_bound",
    "verify_sublevel_bound_multi", "verify_weak_type_bound",
    "weak_lp_norm", "weak_type_probe",
]
