"""Span tracing of the detcurve layers, installed from outside the package.

install() wraps each layer's public functions at every name other modules
call them through: the defining module and every detcurve module that
imported the same object (so detcurve.lab.min_content_at_mass and
detcurve.curvature.median_nn_distance are wrapped as well as the
originals), plus Ellipsoid.contains_many on the class.  uninstall() puts
the originals back.

Each wrapped call records one span: name, layer, start, end and the span
that was open when it began.  parallel.map_blocks additionally wraps the
block function it is given, so every block runs in a span of the caller's
layer whose parent is the map_blocks span, also in pool threads.  Counts
are taken from call arguments and return values only; tuple, member-atom
and byte counts are therefore computed, not measured.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import os
import statistics
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from detcurve import (cli, curvature, functionals, geometry, lab, measure,
                      parallel, reporting)

LAYERS = ("functionals", "geometry", "parallel", "curvature", "measure",
          "lab", "reporting", "cli")

# check name in ScenarioConfig.checks -> the lab function run_scenario calls
CHECK_FUNCTIONS = {
    "sublevel": "verify_sublevel_bound",
    "sublevel_multi": "verify_sublevel_bound_multi",
    "weak_type": "verify_weak_type_bound",
    "cauchy_schwarz": "verify_cauchy_schwarz",
    "gaussian": "verify_gaussian_bounds",
    "slab": "verify_slab_implication",
    "maximal": "verify_maximal_bound",
    "necessity": "verify_necessity_growth",
    "flat_weak_type": "verify_flat_blowup",
    "refinement_stability": "verify_refinement_stability",
}
SCENARIOS = ("flat-subspace-negative", "lebesgue-cube-d2-k2",
             "sphere-pushforward-d3")

# Every per-layer metric, with its unit, in report order.
METRICS = [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("functionals.calls", "count"),
    ("functionals.tuples", "count"),
    ("functionals.tuples_per_s", "1/s"),
    ("functionals.excluded_frac", "ratio"),
    ("functionals.symmetric_keep_ratio", "ratio"),
    ("functionals.support_ratio", "ratio"),
    ("geometry.simplex_det_rows", "count"),
    ("geometry.simplex_det_s", "s"),
    ("geometry.simplex_det_bytes_computed", "bytes"),
    ("geometry.contains_many_calls", "count"),
    ("geometry.contains_many_s", "s"),
    ("parallel.map_blocks_calls", "count"),
    ("parallel.map_blocks_s", "s"),
    ("parallel.blocks", "count"),
    ("parallel.busy_s", "s"),
    ("parallel.speedup_1_to_n", "ratio"),
    ("curvature.calls", "count"),
    ("curvature.family_s", "s"),
    ("curvature.estimate_s", "s"),
    ("curvature.min_content_s", "s"),
    ("curvature.maximal_s", "s"),
    ("curvature.slab_s", "s"),
    ("curvature.member_atom_tests", "count"),
    ("curvature.member_atom_tests_per_s", "1/s"),
    ("measure.median_nn_calls", "count"),
    ("measure.median_nn_s", "s"),
    ("measure.median_nn_peak_mb", "MB"),
    ("measure.eval_measure_calls", "count"),
    ("measure.eval_measure_s", "s"),
    ("measure.io_s", "s"),
    ("measure.io_bytes", "bytes"),
    ("lab.run_scenario_s", "s"),
] + [(f"lab.check.{name}_s", "s") for name in CHECK_FUNCTIONS] + [
    (f"lab.scenario.{name}_s", "s") for name in SCENARIOS] + [
    ("reporting.serialize_s", "s"),
    ("reporting.bytes", "bytes"),
    ("cli.calls", "count"),
    ("cli.main_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("machine.nproc", "count"),
    ("machine.workers", "count"),
    ("machine.l2_kib", "KiB"),
    ("machine.l3_kib", "KiB"),
]
COMPUTED = ("functionals.tuples", "functionals.tuples_per_s",
            "functionals.symmetric_keep_ratio", "functionals.support_ratio",
            "geometry.simplex_det_rows", "geometry.simplex_det_bytes_computed",
            "curvature.member_atom_tests", "curvature.member_atom_tests_per_s",
            "measure.io_bytes", "reporting.bytes")


class Span:
    __slots__ = ("id", "parent", "name", "layer", "t0", "t1", "thread",
                 "counts", "tag")

    def __init__(self, span_id, parent, name, layer):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.thread = threading.get_ident()
        self.counts = {}
        self.tag = None
        self.t1 = None
        self.t0 = time.perf_counter()

    def as_list(self, pass_index) -> list:
        return [self.id, self.parent, self.name, self.t0, self.t1,
                self.thread, pass_index, self.tag, self.counts]


# ---------------------------------------------------------------------------
# counts from arguments and results


def _slot_measures(mu, m):
    if isinstance(mu, measure.WeightedPointMeasure):
        return [mu] * m
    return list(mu)


def _form_counts(pinned):
    def counts(a, r):
        m = a["k"] if pinned else a["k"] + 1
        measures = _slot_measures(a["mu"], m)
        fs = a["fs"]
        out = {"tuples": r.tuples_total, "result_tuples": r.tuples_total,
               "excluded": r.tuples_excluded}
        # det_form's symmetric path: one measure and one density in all slots
        same = all(x is measures[0] for x in measures)
        if same and (fs is None or all(f is None for f in fs)
                     or all(f is fs[0] for f in fs)):
            n = measures[0].n_atoms
            out["sym_kept"] = math.comb(n + m - 1, m)
            out["sym_decoded"] = n ** m
        if fs is not None:
            support = 1
            for mu_j, f in zip(measures, fs):
                support *= mu_j.n_atoms if f is None else np.count_nonzero(f)
            out["support_tuples"] = support
            out["weighted_tuples"] = r.tuples_total
        return out
    return counts


def _sampled_counts(a, r):
    return {"tuples": r.tuples_total, "result_tuples": r.tuples_total,
            "excluded": r.tuples_excluded}


def _sublevel_counts(a, r):
    return {"tuples": math.prod(m.n_atoms for m in a["measures"])}


def _profile_counts(a, r):
    return {"tuples": math.prod(len(s) for s in a["sets"])}


def _simplex_counts(a, r):
    stack = np.asarray(a["stack"])
    return {"rows": stack.shape[0],
            "bytes": stack.size * 8 + stack.shape[0] * 8}


def _grid_tests(a, r):
    if a["k"] == 1 and "eps" in a:  # min_content_at_mass: radius quantile
        return {"member_atom_tests": 0}
    return {"member_atom_tests": a["family"].size * a["mu"].n_atoms}


def _maximal_tests(a, r):
    family = a["family"]
    lengths = len(family.effective_lengths) - (1 if a["inner"] else 0)
    n_eval = (a["mu"].n_atoms if a["eval_points"] is None
              else len(a["eval_points"]))
    return {"member_atom_tests": len(family.frames) * lengths ** family.dim
            * a["mu"].n_atoms * n_eval}


def _slab_tests(a, r):
    return {"member_atom_tests": r[3] * a["mu"].n_atoms}


def _file_bytes(a, r):
    return {"bytes": os.path.getsize(a["path"])}


# (module, attribute, layer, counts from (bound arguments, result));
# map_blocks and median_nn_distance get the special wrappers in install()
TARGETS = [
    (functionals, "det_form", "functionals", _form_counts(False)),
    (functionals, "det_form_pinned", "functionals", _form_counts(True)),
    (functionals, "det_form_sampled", "functionals", _sampled_counts),
    (functionals, "sublevel_mass", "functionals", _sublevel_counts),
    (functionals, "dyadic_profile", "functionals", _profile_counts),
    (functionals, "cauchy_schwarz_check", "functionals", None),
    (functionals, "weak_type_probe", "functionals", None),
    (geometry, "simplex_det_many", "geometry", _simplex_counts),
    (geometry, "Ellipsoid.contains_many", "geometry", None),
    (parallel, "map_blocks", "parallel", None),
    (curvature, "default_family", "curvature", None),
    (curvature, "estimate_curvature_constant", "curvature", _grid_tests),
    (curvature, "min_content_at_mass", "curvature", _grid_tests),
    (curvature, "maximal_function", "curvature", _maximal_tests),
    (curvature, "maximal_weak_bound_check", "curvature", None),
    (curvature, "slab_implication_check", "curvature", _slab_tests),
    (curvature, "slab_constant", "curvature", None),
    (curvature, "curvature_ratio", "curvature", None),
    (curvature, "gaussian_lower_check", "curvature", None),
    (curvature, "layer_cake_check", "curvature", None),
    (curvature, "gaussian_content_check", "curvature", None),
    (measure, "median_nn_distance", "measure", None),
    (measure, "eval_measure", "measure", None),
    (measure, "generate", "measure", None),
    (measure, "load_point_cloud", "measure", _file_bytes),
    (measure, "save_point_cloud", "measure", _file_bytes),
    (lab, "run_scenario", "lab", None),
    (reporting, "emit_report", "reporting", _file_bytes),
    (cli, "main", "cli", None),
] + [(lab, fn, "lab", None) for fn in CHECK_FUNCTIONS.values()]


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans = []  # (pass index, Span)
        self.pass_index = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, layer, parent=None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), parent.id if parent else None, name,
                    layer)
        stack.append(span)
        return span

    def close(self, span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append((self.pass_index, span))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, layer, counter):
        signature = inspect.signature(fn)
        tag = next((c for c, d in CHECK_FUNCTIONS.items() if d == name), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            if name == "run_scenario":  # lab.scenario.<config name>_s
                span.tag = (args[0] if args else kwargs["config"]).name
            else:
                span.tag = tag
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts.update(counter(bound.arguments, result))
            return result
        return traced

    def _wrap_map_blocks(self, fn):
        @functools.wraps(fn)
        def traced(block_fn, ranges):
            caller = self._stack()[-1] if self._stack() else None
            layer = caller.layer if caller else "parallel"
            span = self.open("map_blocks", "parallel")
            span.counts["blocks"] = len(ranges)

            def block(start, stop):
                inner = self.open("block", layer, parent=span)
                try:
                    return block_fn(start, stop)
                finally:
                    self.close(inner)
            try:
                return fn(block, ranges)
            finally:
                self.close(span)
        return traced

    def _wrap_median_nn(self, fn):
        @functools.wraps(fn)
        def traced(mu):
            span = self.open("median_nn_distance", "measure")
            tracemalloc.start()
            try:
                return fn(mu)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.close(span)
                span.counts["peak_bytes"] = peak
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "detcurve" or key.startswith("detcurve.")]
        for module, attr, layer, counter in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, attr, layer, counter))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            if attr == "map_blocks":
                wrapper = self._wrap_map_blocks(original)
            elif attr == "median_nn_distance":
                wrapper = self._wrap_median_nn(original)
            else:
                wrapper = self._wrap(original, attr, layer, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- metrics -----------------------------------------------------------

    def pass_metrics(self, index) -> dict:
        """Per-layer metrics of one traced pass (see METRICS)."""
        return layer_metrics([s for i, s in self.spans if i == index])

    def dump(self) -> list:
        return [s.as_list(i) for i, s in self.spans]


def _covered(span, children) -> float:
    """Length of the union of the children's intervals inside span."""
    total = 0.0
    end = span.t0
    for t0, t1 in sorted((max(c.t0, span.t0), min(c.t1, span.t1))
                         for c in children):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def layer_metrics(spans) -> dict:
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def outermost(s):
        p = by_id.get(s.parent)
        while p is not None:
            if p.layer == s.layer:
                return False
            p = by_id.get(p.parent)
        return True

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    dur = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    layer_wall = defaultdict(float)
    for s in spans:
        d = s.t1 - s.t0
        out[f"{s.layer}.self_s"] += d - _covered(s, children[s.id])
        key = f"{s.layer}.{s.name}"
        dur[key] += d
        calls[key] += 1
        if s.tag is not None:
            dur[f"{s.layer}.tag.{s.tag}"] += d
        for c, v in s.counts.items():
            if c == "peak_bytes":
                counts["measure.peak_bytes"] = max(
                    counts["measure.peak_bytes"], v)
            else:
                counts[f"{s.layer}.{c}"] += v
        if s.name != "block" and outermost(s):
            layer_wall[s.layer] += d

    def ratio(num, den):
        return num / den if den else 0.0

    sweeps = ("estimate_curvature_constant", "min_content_at_mass",
              "maximal_function", "slab_implication_check")
    out.update({
        "functionals.calls": sum(n for k, n in calls.items()
                                 if k.startswith("functionals.")
                                 and k != "functionals.block"),
        "functionals.tuples": counts["functionals.tuples"],
        "functionals.tuples_per_s": ratio(counts["functionals.tuples"],
                                          layer_wall["functionals"]),
        "functionals.excluded_frac": ratio(counts["functionals.excluded"],
                                           counts["functionals.result_tuples"]),
        "functionals.symmetric_keep_ratio": ratio(
            counts["functionals.sym_kept"], counts["functionals.sym_decoded"]),
        "functionals.support_ratio": ratio(
            counts["functionals.support_tuples"],
            counts["functionals.weighted_tuples"]),
        "geometry.simplex_det_rows": counts["geometry.rows"],
        "geometry.simplex_det_s": dur["geometry.simplex_det_many"],
        "geometry.simplex_det_bytes_computed": counts["geometry.bytes"],
        "geometry.contains_many_calls": calls["geometry.Ellipsoid.contains_many"],
        "geometry.contains_many_s": dur["geometry.Ellipsoid.contains_many"],
        "parallel.map_blocks_calls": calls["parallel.map_blocks"],
        "parallel.map_blocks_s": dur["parallel.map_blocks"],
        "parallel.blocks": counts["parallel.blocks"],
        "parallel.busy_s": sum(s.t1 - s.t0 for s in spans
                               if s.name == "block"),
        "curvature.calls": sum(n for k, n in calls.items()
                               if k.startswith("curvature.")),
        "curvature.family_s": dur["curvature.default_family"],
        "curvature.estimate_s": dur["curvature.estimate_curvature_constant"],
        "curvature.min_content_s": dur["curvature.min_content_at_mass"],
        "curvature.maximal_s": dur["curvature.maximal_function"],
        "curvature.slab_s": dur["curvature.slab_implication_check"],
        "curvature.member_atom_tests": counts["curvature.member_atom_tests"],
        "curvature.member_atom_tests_per_s": ratio(
            counts["curvature.member_atom_tests"],
            sum(dur[f"curvature.{n}"] for n in sweeps)),
        "measure.median_nn_calls": calls["measure.median_nn_distance"],
        "measure.median_nn_s": dur["measure.median_nn_distance"],
        "measure.median_nn_peak_mb": counts["measure.peak_bytes"] / 2 ** 20,
        "measure.eval_measure_calls": calls["measure.eval_measure"],
        "measure.eval_measure_s": dur["measure.eval_measure"],
        "measure.io_s": (dur["measure.load_point_cloud"]
                         + dur["measure.save_point_cloud"]),
        "measure.io_bytes": counts["measure.bytes"],
        "lab.run_scenario_s": dur["lab.run_scenario"],
        "reporting.serialize_s": dur["reporting.emit_report"],
        "reporting.bytes": counts["reporting.bytes"],
        "cli.calls": calls["cli.main"],
        "cli.main_s": dur["cli.main"],
        "trace.spans": len(spans),
    })
    for name in CHECK_FUNCTIONS:
        out[f"lab.check.{name}_s"] = dur[f"lab.tag.{name}"]
    for name in SCENARIOS:
        out[f"lab.scenario.{name}_s"] = dur[f"lab.tag.{name}"]
    return out


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over passes (counts repeat exactly)."""
    return {key: statistics.median(m[key] for m in per_pass)
            for key in per_pass[0]}
