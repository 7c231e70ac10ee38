"""The bundled scenario reports, byte for byte against committed copies.

Each scenario runs once at the default thread count, and its JSON and CSV
reports must equal the files in tests/golden.  The JSON files record the
runtime versions; under other versions the floating-point results may
legitimately differ, so the test is skipped.  After an intended change to
the report bytes, regenerate the files and name the change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

Every record in the reports must also re-derive from what it prints.
"""

import functools
import json
import math
import re
from pathlib import Path

import pytest

from detcurve.lab import BUNDLED_SCENARIOS, get_scenario, run_scenario
from detcurve.reporting import emit_report, runtime_versions

GOLDEN = Path(__file__).resolve().parent / "golden"


@functools.cache
def bundled_report(name):
    return run_scenario(get_scenario(name))


@pytest.mark.parametrize("name", sorted(BUNDLED_SCENARIOS))
def test_report_bytes(name):
    want_json = (GOLDEN / f"{name}.json").read_bytes()
    recorded = json.loads(want_json)["versions"]
    if recorded != runtime_versions():
        pytest.skip(f"golden reports were made under {recorded}, "
                    f"this run has {runtime_versions()}")
    report = bundled_report(name)
    assert report.to_json().encode("utf-8") == want_json
    assert report.to_csv().encode("utf-8") == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(BUNDLED_SCENARIOS))
def test_records_rederive_from_their_sides(name):
    # no bundled driver reports an infinite side, so both must be finite;
    # the relation and tol are read back from the printed direction, the
    # margin is the relation's difference and passed its verdict, and a
    # trial family passes exactly when none of its trials failed
    for rec in bundled_report(name).checks:
        row = rec.to_dict()
        lhs, rhs = row["lhs"], row["rhs"]
        assert math.isfinite(lhs) and math.isfinite(rhs), row
        match = re.fullmatch(r"lhs (<=|>=) rhs(?: \(tol (\S+)\))?", row["direction"])
        relation, tol = match[1], float(match[2] or 0.0)
        assert (relation, tol) == (rec.relation, rec.tol), row
        small, large = (lhs, rhs) if relation == "<=" else (rhs, lhs)
        assert row["margin"] == large - small, row
        assert row["passed"] == (small <= large * (1.0 + tol)), row
        if "failures" in row["details"]:
            assert row["passed"] == (row["details"]["failures"] == 0), row


def regenerate() -> None:
    for name in sorted(BUNDLED_SCENARIOS):
        report = run_scenario(get_scenario(name))
        for fmt in ("json", "csv"):
            emit_report(report, GOLDEN / f"{name}.{fmt}", fmt=fmt)


if __name__ == "__main__":
    regenerate()
