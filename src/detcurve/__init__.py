"""detcurve: determinant functionals and curvature of discrete measures.

Numerical companions to a family of multilinear determinant inequalities:
exact evaluation of determinant-kernel forms on weighted point measures,
curvature-constant estimation over ellipsoid families, sublevel and
weak-type bounds with explicit constants, and reproducible verification
scenarios.
"""

from .geometry import Ellipsoid, simplex_det_many
from .measure import (GeneratorSpec, WeightedPointMeasure, eval_measure,
                      generate, load_point_cloud, median_nn_distance,
                      pushforward, save_point_cloud)
from .curvature import (curvature_ratio, default_family,
                        estimate_curvature_constant, gaussian_content_check,
                        gaussian_lower_check, layer_cake_check,
                        maximal_function, maximal_weak_bound_check,
                        min_content_at_mass, slab_constant,
                        slab_implication_check)
from .functionals import (BudgetExceededError, cauchy_schwarz_check, det_form,
                          det_form_pinned, det_form_sampled, dyadic_profile,
                          sublevel_mass, weak_type_probe)
from .reporting import ScenarioReport, emit_report
from .lab import (ScenarioConfig, get_scenario, run_scenario,
                  verify_sublevel_bound, verify_sublevel_bound_multi,
                  verify_weak_type_bound)

__version__ = "0.1.0"

# the names README.md documents or bench/ uses; everything else is imported
# from its module
__all__ = [
    "BudgetExceededError", "Ellipsoid", "GeneratorSpec", "ScenarioConfig",
    "ScenarioReport", "WeightedPointMeasure", "cauchy_schwarz_check",
    "curvature_ratio", "default_family", "det_form", "det_form_pinned",
    "det_form_sampled", "dyadic_profile", "emit_report",
    "estimate_curvature_constant", "eval_measure", "gaussian_content_check",
    "gaussian_lower_check", "generate", "get_scenario", "layer_cake_check",
    "load_point_cloud", "maximal_function", "maximal_weak_bound_check",
    "median_nn_distance", "min_content_at_mass", "pushforward",
    "run_scenario", "save_point_cloud", "simplex_det_many", "slab_constant",
    "slab_implication_check", "sublevel_mass", "verify_sublevel_bound",
    "verify_sublevel_bound_multi", "verify_weak_type_bound",
    "weak_type_probe",
]
