"""Command-line front end.

Subcommands: analyze (curvature constant of a point cloud), functional
(determinant-kernel form values), verify (run a scenario and print its
check table), report (run scenarios and write their serialized reports).
Exit code 0 means every check that was not an expected failure passed.
DETCURVE_THREADS caps worker threads for the tuple enumerations and the
curvature sweeps.  --timings adds per-check wall times to JSON reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .curvature import default_family, estimate_curvature_constant
from .functionals import (BudgetExceededError, _check_gamma, _index_sets,
                          default_det_threshold, det_form, det_form_pinned,
                          det_form_sampled, difference_threshold)
from .lab import BUNDLED_SCENARIOS, ScenarioConfig, get_scenario, run_scenario
from .measure import WeightedPointMeasure, _check_k_alpha, load_point_cloud
from .reporting import emit_report


def _add_family_args(parser):
    parser.add_argument("--frames", type=int, default=64,
                        help="number of random frames in the search family")
    parser.add_argument("--floor", type=float, default=None,
                        help="semi-length floor (default: median NN distance)")
    parser.add_argument("--refine", type=int, default=160,
                        help="local search evaluation budget")
    parser.add_argument("--seed", type=int, default=0)


def _check_flags(mu, k, alpha=None, gamma=0.0):
    """--k (and --alpha, --gamma) against the loaded cloud: an exit message
    naming the flag, as the parameter name leads each message."""
    try:
        _check_k_alpha(mu, k, alpha)
        _check_gamma(gamma)
    except ValueError as exc:
        raise SystemExit(f"--{exc}") from exc


def _cmd_analyze(args) -> int:
    for flag, value in (("--frames", args.frames), ("--refine", args.refine)):
        if value < 0:
            raise SystemExit(f"{flag} must be a nonnegative count, got {value}")
    if args.floor is not None and not (args.floor >= 0 and math.isfinite(args.floor)):
        raise SystemExit(f"--floor must be a finite nonnegative length, got {args.floor}")
    mu = load_point_cloud(args.cloud)
    _check_flags(mu, args.k, args.alpha)
    family = default_family(mu, n_frames=args.frames, floor=args.floor,
                            seed=args.seed)
    est = estimate_curvature_constant(mu, args.k, args.alpha, family,
                                      refine=args.refine)
    out = {
        "k": args.k,
        "alpha": est.alpha,
        "constant": est.constant,
        "family_size": est.family_size,
        "witness": {
            "semi_lengths": sorted(est.witness.semi_lengths.tolist(),
                                   reverse=True),
            "frame": est.witness.frame.tolist(),
        },
        "atoms": mu.n_atoms,
        "dim": mu.dim,
    }
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def _load_sets(path, m, mu):
    """One slot measure per index set: the atoms of the set, their weights."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or len(raw) != m:
        raise SystemExit(f"--sets file must hold {m} index lists")
    try:
        sets = _index_sets(mu.n_atoms, raw, m)
    except ValueError as exc:
        raise SystemExit(f"--sets: {exc}") from exc
    for j, s in enumerate(sets):
        if not s.size:
            raise SystemExit(f"--sets: index set {j} is empty")
    return [WeightedPointMeasure(mu.points[s], mu.weights[s]) for s in sets]


def _cmd_functional(args) -> int:
    if args.samples < 0 or args.samples == 1:
        raise SystemExit(f"--samples must be 0 (enumerate) or at least 2, got {args.samples}")
    mu = load_point_cloud(args.cloud)
    _check_flags(mu, args.k, gamma=args.gamma)
    slots, tau = mu, None
    if args.sets:
        m = args.k if args.pinned else args.k + 1
        slots = _load_sets(args.sets, m, mu)
        tau = (default_det_threshold(mu, args.k) if args.pinned
               else difference_threshold([mu] * m))
    try:
        if args.samples:
            result = det_form_sampled(slots, args.k, args.gamma, tau=tau,
                                      samples=args.samples, seed=args.seed,
                                      pinned=args.pinned)
        elif args.pinned:
            result = det_form_pinned(slots, args.k, args.gamma, tau=tau,
                                     budget=args.budget)
        else:
            result = det_form(slots, args.k, args.gamma, tau=tau,
                              budget=args.budget)
    except BudgetExceededError as exc:
        raise SystemExit(f"--budget: {exc}; raise --budget or sample with "
                         f"--samples") from exc
    out = {
        "value": result.value,
        "tuples_total": result.tuples_total,
        "tuples_excluded": result.tuples_excluded,
        "k": args.k,
        "gamma": args.gamma,
        "pinned": bool(args.pinned),
    }
    if result.stderr is not None:
        out["stderr"] = result.stderr
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def _load_scenario(ref: str) -> ScenarioConfig:
    if os.path.exists(ref):
        with open(ref, encoding="utf-8") as fh:
            return ScenarioConfig.from_dict(json.load(fh))
    try:
        return get_scenario(ref)
    except KeyError as exc:
        raise SystemExit(str(exc))


def _exit_code(report) -> int:
    hard = [c for c in report.checks if not c.expected_fail]
    return 0 if all(c.passed for c in hard) else 1


def _cmd_verify(args) -> int:
    report = run_scenario(_load_scenario(args.scenario))
    report.print_summary()
    if args.report:
        emit_report(report, args.report, fmt=args.format,
                    include_timings=args.timings)
        print(f"report written to {args.report}")
    return _exit_code(report)


def _cmd_report(args) -> int:
    names = args.scenario or list(BUNDLED_SCENARIOS)
    code = 0
    multiple = len(names) > 1
    for name in names:
        report = run_scenario(_load_scenario(name))
        if multiple:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{report.scenario}.{args.format}")
        else:
            path = args.out
        emit_report(report, path, fmt=args.format, include_timings=args.timings)
        report.print_summary()
        print(f"report written to {path}")
        code = max(code, _exit_code(report))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detcurve",
        description="Determinant functionals and curvature diagnostics "
                    "for weighted point measures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze",
                          help="estimate the curvature constant of a cloud")
    p_an.add_argument("cloud", help="CSV or JSON point-cloud file")
    p_an.add_argument("--k", type=int, required=True)
    p_an.add_argument("--alpha", type=float, required=True)
    _add_family_args(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_fn = sub.add_parser("functional",
                          help="evaluate a determinant-kernel form")
    p_fn.add_argument("cloud")
    p_fn.add_argument("--k", type=int, required=True)
    p_fn.add_argument("--gamma", type=float, required=True)
    p_fn.add_argument("--pinned", action="store_true",
                      help="pin one vertex at the origin (k-fold form)")
    p_fn.add_argument("--sets", default=None,
                      help="JSON file, one nonempty atom-index list per slot; "
                           "each slot runs over its set only (tuple counts: the "
                           "product of set sizes) with the whole cloud's tau")
    p_fn.add_argument("--budget", type=int, default=10_000_000)
    p_fn.add_argument("--samples", type=int, default=0,
                      help="sample this many tuples instead of enumerating")
    p_fn.add_argument("--seed", type=int, default=0)
    p_fn.set_defaults(func=_cmd_functional)

    p_ve = sub.add_parser(
        "verify",
        help="run a scenario (bundled name or config JSON) and print checks",
        epilog="bundled scenarios: " + ", ".join(BUNDLED_SCENARIOS))
    p_ve.add_argument("scenario")
    p_ve.add_argument("--report", default=None,
                      help="also write the report to this path")
    p_ve.add_argument("--format", choices=("json", "csv"), default=None)
    p_ve.add_argument("--timings", action="store_true",
                      help="add per-check wall times to the JSON report")
    p_ve.set_defaults(func=_cmd_verify)

    p_re = sub.add_parser("report",
                          help="run scenarios and write serialized reports")
    p_re.add_argument("--scenario", action="append", default=None,
                      help="scenario name or config path (repeatable; "
                           "default: all bundled)")
    p_re.add_argument("--format", choices=("json", "csv"), default="json")
    p_re.add_argument("--out", required=True,
                      help="output file (single scenario) or directory")
    p_re.add_argument("--timings", action="store_true",
                      help="add per-check wall times to the JSON reports")
    p_re.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:  # analyze and functional
        raise SystemExit(f"--seed must be a nonnegative integer, got {args.seed}")
    if getattr(args, "timings", False):
        if args.command == "verify" and not args.report:
            parser.error("--timings needs --report")
        if args.format == "csv" or (args.format is None and args.report.endswith(".csv")):
            parser.error("--timings writes JSON reports and cannot be combined "
                         "with --format csv (or a .csv --report path)")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
