"""The three benchmark workloads: fixed operation lists with output checks.

A workload is built from the input files that inputs.make_inputs wrote.
One pass runs its operations in order; each operation is a call into the
package's public API plus a check of what came back.  Calls go through the
package modules (functionals.det_form, cli.main, ...) so that the traced
run's patches on those names see them.

Why these three (see NOTES.md for the layer-to-metric mapping):

* scenario-report -- what users run: `detcurve report` on the three
  bundled scenarios.  Many small, set-restricted kernel calls, all below
  one parallel block, so the thread pool is bypassed.
* forms-exact -- a few full-support enumerations of ~1e7 tuples each: the
  tuple kernel, the determinant kernel and the thread pool do the work;
  the curvature layer does none.
* curvature-sweep -- ellipsoid searches at sizes above the bundled
  scenarios and no tuple enumeration: the curvature and measure layers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

from detcurve import cli, curvature, functionals, lab, measure

GAMMA = 0.5


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Operation:
    """A named call (timed) and a check of its result (not timed)."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _quiet(fn, *args):
    """Call fn with stdout captured; returns (result, captured text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


def _check_cloud(mu, n_atoms: int, dim: int) -> None:
    expect(mu.n_atoms == n_atoms and mu.dim == dim,
           f"cloud shape {(mu.n_atoms, mu.dim)} != {(n_atoms, dim)}")
    expect(abs(mu.total_mass - 1.0) <= 1e-12, "cloud mass is not 1")


class ScenarioReport:
    """`detcurve report` on each scenario config, JSON and CSV in turn.

    Even passes write JSON and odd passes CSV, so every run of two passes
    or more covers both report formats at the same cost per pass.
    """

    name = "scenario-report"

    def __init__(self, files: dict, seed: int, out_dir: str):
        self.files = files
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def operations(self, index: int) -> list:
        fmt = ("json", "csv")[index % 2]
        ops = []
        for scenario, config in self.files.items():
            out = os.path.join(self.out_dir, f"{scenario}.{fmt}")
            argv = ["report", "--scenario", config, "--format", fmt,
                    "--out", out]
            ops.append(Operation(
                f"report:{scenario}:{fmt}",
                lambda argv=argv: _quiet(cli.main, argv)[0],
                lambda code, out=out, fmt=fmt: self._check(code, out, fmt)))
        return ops

    @staticmethod
    def _check(code, path, fmt) -> None:
        with open(path, encoding="utf-8", newline="") as fh:
            if fmt == "json":
                rows = json.load(fh)["checks"]
            else:
                rows = [{"name": row["name"],
                         "expected_fail": row["expected_fail"] == "True",
                         "satisfied": row["satisfied"] == "True"}
                        for row in csv.DictReader(fh)]
        expect(len(rows) > 0, "report holds no checks")
        bad = [r["name"] for r in rows
               if not r["expected_fail"] and not r["satisfied"]]
        expect(not bad, f"unsatisfied checks: {bad}")
        expect(code == 0, f"detcurve report exited with {code}")


class FormsExact:
    """Large full-support determinant forms, exact and sampled."""

    name = "forms-exact"
    SAMPLES = 2_000_000

    def __init__(self, files: dict, seed: int, out_dir: str):
        self.files = files
        self.seed = seed

    def operations(self, index: int) -> list:
        s = {}  # results shared by later checks within the pass

        def load():
            s["sphere"] = measure.load_point_cloud(self.files["sphere56"])
            s["grid"] = measure.load_point_cloud(self.files["grid3025"])

        def check_load(_):
            _check_cloud(s["sphere"], 56, 3)
            _check_cloud(s["grid"], 3025, 2)

        def det_form():
            s["exact"] = functionals.det_form(s["sphere"], 3, GAMMA)
            return s["exact"]

        def check_det_form(r):
            expect(r.tuples_total == 56 ** 4, "det_form tuple count")
            expect(math.isfinite(r.value) and r.value > 0, "det_form value")

        def pinned_symmetric():
            s["sym"] = functionals.det_form_pinned(s["grid"], 2, GAMMA)
            return s["sym"]

        def check_pinned_symmetric(r):
            expect(r.tuples_total == 3025 ** 2, "pinned tuple count")
            expect(math.isfinite(r.value) and r.value > 0, "pinned value")

        def pinned_explicit():
            n = s["grid"].n_atoms
            return functionals.det_form_pinned(
                s["grid"], 2, GAMMA, [np.ones(n), np.ones(n)])

        def check_pinned_explicit(r):
            sym = s["sym"]
            expect(abs(r.value - sym.value) <= 1e-12 * abs(sym.value),
                   f"explicit {r.value!r} != symmetric {sym.value!r}")
            expect(r.tuples_excluded == sym.tuples_excluded,
                   f"excluded {r.tuples_excluded} != {sym.tuples_excluded}")

        def profile():
            sets = [np.arange(s["grid"].n_atoms)] * 2
            s["profile"] = functionals.dyadic_profile(s["grid"], 2, sets,
                                                      GAMMA)
            return s["profile"]

        def check_profile(p):
            total = p.included_mass + p.excluded_mass
            expect(abs(total - 1.0) <= 1e-12,
                   f"included + excluded = {total!r}")

        def sublevel():
            # every included determinant lies below 2^(l_max + 1)
            delta = 2.0 ** (s["profile"].l_max + 1)
            return functionals.sublevel_mass([s["grid"], s["grid"]], delta)

        def check_sublevel(mass):
            inc = s["profile"].included_mass
            expect(abs(mass - inc) <= 1e-12 * inc,
                   f"sublevel mass {mass!r} != included mass {inc!r}")

        def sampled():
            return functionals.det_form_sampled(
                s["sphere"], 3, GAMMA, samples=self.SAMPLES, seed=self.seed)

        def check_sampled(r):
            gap = abs(r.value - s["exact"].value)
            expect(gap <= 6.0 * r.stderr,
                   f"sampled off by {gap / r.stderr:.2f} stderr")

        return [
            Operation("load_point_cloud", load, check_load),
            Operation("det_form:k3:sphere56", det_form, check_det_form),
            Operation("det_form_pinned:symmetric", pinned_symmetric,
                      check_pinned_symmetric),
            Operation("det_form_pinned:explicit", pinned_explicit,
                      check_pinned_explicit),
            Operation("dyadic_profile", profile, check_profile),
            Operation("sublevel_mass", sublevel, check_sublevel),
            Operation("det_form_sampled", sampled, check_sampled),
        ]


class CurvatureSweep:
    """Ellipsoid-family searches on clouds larger than the scenarios'."""

    name = "curvature-sweep"
    K = 2
    ALPHA = 1.0
    EPS = (0.1, 0.2, 0.4)

    def __init__(self, files: dict, seed: int, out_dir: str):
        self.files = files
        self.seed = seed

    def operations(self, index: int) -> list:
        s = {}
        k, alpha = self.K, self.ALPHA

        def analyze():
            argv = ["analyze", self.files["grid4096"], "--k", str(k),
                    "--alpha", repr(alpha), "--seed", str(self.seed)]
            code, text = _quiet(cli.main, argv)
            return code, json.loads(text)

        def check_analyze(result):
            code, out = result
            expect(code == 0, f"detcurve analyze exited with {code}")
            expect(out["atoms"] == 4096 and out["dim"] == 2, "analyze shape")
            expect(math.isfinite(out["constant"]) and out["constant"] > 0,
                   f"analyze constant {out['constant']!r}")
            s["analyze_family_size"] = out["family_size"]

        def grid_family():
            s["grid"] = measure.load_point_cloud(self.files["grid4096"])
            s["family"] = curvature.default_family(s["grid"], seed=self.seed)
            return s["family"]

        def check_grid_family(family):
            _check_cloud(s["grid"], 4096, 2)
            expect(family.size == s["analyze_family_size"],
                   "API family size differs from the analyze command's")

        def min_content(eps):
            return curvature.min_content_at_mass(s["grid"], k, eps,
                                                 s["family"])

        def check_min_content(result, eps):
            delta, witness = result
            mass = measure.eval_measure(s["grid"], witness)
            # the documented tolerance of min_content_at_mass
            expect(mass >= eps - 1e-9 * max(1.0, eps),
                   f"witness mass {mass!r} < eps {eps}")
            expect(math.isfinite(delta) and delta > 0, f"delta {delta!r}")

        def sphere_estimate():
            mu = measure.load_point_cloud(self.files["sphere2000"])
            family = curvature.default_family(mu, seed=self.seed)
            s["sphere"] = mu
            return curvature.estimate_curvature_constant(mu, k, alpha, family)

        def check_sphere_estimate(est):
            _check_cloud(s["sphere"], 2000, 3)
            ratio = curvature.curvature_ratio(s["sphere"], est.witness, k,
                                              alpha)
            expect(ratio == est.constant,
                   f"witness ratio {ratio!r} != constant {est.constant!r}")
            expect(math.isfinite(est.constant) and est.constant > 0,
                   f"constant {est.constant!r}")

        def maximal():
            mu = measure.load_point_cloud(self.files["grid400"])
            return lab.verify_maximal_bound(mu, k, alpha, seed=self.seed)

        def check_maximal(result):
            records, _ = result
            failed = [r.name for r in records if not r.passed]
            expect(records and not failed, f"maximal check failed: {failed}")

        ops = [Operation("analyze:grid4096", analyze, check_analyze),
               Operation("default_family:grid4096", grid_family,
                         check_grid_family)]
        for eps in self.EPS:
            ops.append(Operation(
                f"min_content_at_mass:{eps:g}",
                lambda eps=eps: min_content(eps),
                lambda r, eps=eps: check_min_content(r, eps)))
        ops += [Operation("estimate_curvature_constant:sphere2000",
                          sphere_estimate, check_sphere_estimate),
                Operation("verify_maximal_bound:grid400", maximal,
                          check_maximal)]
        return ops


WORKLOADS = {w.name: w for w in (ScenarioReport, FormsExact, CurvatureSweep)}
