"""The bundled scenario reports, byte for byte against committed copies.

Each scenario runs once at the default thread count, and its JSON and CSV
reports must equal the files in tests/golden.  The JSON files record the
runtime versions; under other versions the floating-point results may
legitimately differ, so the test is skipped.  After an intended change to
the report bytes, regenerate the files and name the change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from detcurve.lab import BUNDLED_SCENARIOS, get_scenario, run_scenario
from detcurve.reporting import emit_report, runtime_versions

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", sorted(BUNDLED_SCENARIOS))
def test_report_bytes(name):
    want_json = (GOLDEN / f"{name}.json").read_bytes()
    recorded = json.loads(want_json)["versions"]
    if recorded != runtime_versions():
        pytest.skip(f"golden reports were made under {recorded}, "
                    f"this run has {runtime_versions()}")
    report = run_scenario(get_scenario(name))
    assert report.to_json().encode("utf-8") == want_json
    assert report.to_csv().encode("utf-8") == (GOLDEN / f"{name}.csv").read_bytes()


def regenerate() -> None:
    for name in sorted(BUNDLED_SCENARIOS):
        report = run_scenario(get_scenario(name))
        for fmt in ("json", "csv"):
            emit_report(report, GOLDEN / f"{name}.{fmt}", fmt=fmt)


if __name__ == "__main__":
    regenerate()
