"""Check records and scenario reports with deterministic serialization.

A report collects named inequality checks (each with both sides, the
relation between them, and an expected_fail flag for deliberate
counterexamples) plus enough context to rerun the scenario.  Serialized
output is sorted and excludes wall-clock timings, so byte-identical reruns
produce byte-identical reports; timings stay available in memory and in
JSON on request (include_timings).
"""

from __future__ import annotations

import csv
import io
import json
import math
import platform
from dataclasses import dataclass, field

import numpy as np


def runtime_versions() -> dict:
    from . import __version__  # set once the package's imports are done
    return {
        "detcurve": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


@dataclass(frozen=True)
class CheckRecord:
    """One verified inequality, lhs <= rhs or lhs >= rhs.

    The verdict is derived from the two sides, the relation and a relative
    tolerance: "<=" passes when lhs <= rhs * (1 + tol) and has margin
    rhs - lhs; ">=" is its mirror image, rhs <= lhs * (1 + tol) with margin
    lhs - rhs.  A negative margin is the shortfall at tol 0.

    satisfied means the check behaved as intended: a passing check, or an
    expected_fail check that indeed failed.  An expected_fail check that
    passes signals the counterexample stopped working and counts as
    unsatisfied.
    """

    name: str
    lhs: float
    rhs: float
    relation: str = "<="
    tol: float = 0.0
    expected_fail: bool = False
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.relation not in ("<=", ">="):
            raise ValueError(f"relation must be '<=' or '>=', got {self.relation!r}")
        if not (self.tol >= 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be finite and nonnegative, got {self.tol}")

    def _ordered(self) -> tuple:
        """(smaller, larger) side as the relation claims them."""
        return (self.lhs, self.rhs) if self.relation == "<=" else (self.rhs, self.lhs)

    @property
    def passed(self) -> bool:
        small, large = self._ordered()
        return bool(small <= large * (1.0 + self.tol))

    @property
    def margin(self) -> float:
        small, large = self._ordered()
        return float(large - small)

    @property
    def direction(self) -> str:
        return f"lhs {self.relation} rhs" + (f" (tol {self.tol:g})" if self.tol else "")

    @property
    def satisfied(self) -> bool:
        return bool(self.passed) != bool(self.expected_fail)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "direction": self.direction,
            "margin": float(self.margin),
            "expected_fail": bool(self.expected_fail),
            "satisfied": self.satisfied,
            "details": _plain(self.details),
        }

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tag = " (expected failure)" if self.expected_fail else ""
        mark = "ok" if self.satisfied else "REGRESSION"
        return (f"{status}{tag} [{mark}] {self.name}: "
                f"lhs={self.lhs:.6g} rhs={self.rhs:.6g} ({self.direction})")


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json can emit them."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


@dataclass
class ScenarioReport:
    scenario: str
    config: dict
    constants: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    versions: dict = field(default_factory=runtime_versions)
    timings: dict = field(default_factory=dict)

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(not c.satisfied for c in self.checks)

    def add(self, check: CheckRecord) -> CheckRecord:
        self.checks.append(check)
        return check

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "scenario": self.scenario,
            "config": _plain(self.config),
            "constants": _plain(self.constants),
            "checks": [c.to_dict() for c in self.checks],
            "versions": dict(self.versions),
            "all_satisfied": self.all_satisfied,
        }
        if include_timings:
            out["timings"] = _plain(self.timings)
        return out

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_dict(include_timings), indent=1, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "passed", "expected_fail", "satisfied",
                         "lhs", "rhs", "direction", "margin"])
        for c in self.checks:
            writer.writerow([c.name, c.passed, c.expected_fail, c.satisfied,
                             repr(float(c.lhs)), repr(float(c.rhs)),
                             c.direction, repr(float(c.margin))])
        return buf.getvalue()

    def print_summary(self) -> None:
        """The check table on standard output."""
        print(f"scenario: {self.scenario}")
        for c in self.checks:
            print("  " + c.summary_line())
        verdict = "all checks satisfied" if self.all_satisfied else \
            f"{self.n_failed} check(s) NOT satisfied"
        print(f"  => {verdict}")


def emit_report(report: ScenarioReport, path, fmt: str = None,
                include_timings: bool = False) -> None:
    """Write the report as JSON or CSV (fmt None: by the path's suffix);
    include_timings adds the wall times to a JSON report."""
    path = str(path)
    if fmt is None:
        fmt = "csv" if path.endswith(".csv") else "json"
    if include_timings and fmt != "json":
        raise ValueError(f"include_timings needs the json format, got {fmt!r}")
    if fmt == "json":
        text = report.to_json(include_timings)
    elif fmt == "csv":
        text = report.to_csv()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

