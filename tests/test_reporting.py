"""Check records and scenario reports: serialization and summary lines."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import detcurve
from detcurve.reporting import (
    CheckRecord,
    ScenarioReport,
    emit_report,
    runtime_versions,
)


def sample_report():
    rep = ScenarioReport(scenario="sample", config={"k": 2})
    rep.add(CheckRecord(name="good", passed=True, lhs=1.0, rhs=2.0,
                        margin=1.0, details={"note": "fine"}))
    rep.add(CheckRecord(name="designed-failure", passed=False, lhs=5.0,
                        rhs=2.0, expected_fail=True))
    rep.constants["c"] = 0.25
    rep.timings["good"] = 0.123
    return rep


class TestCheckRecord:
    def test_satisfied_truth_table(self):
        mk = lambda p, e: CheckRecord(name="x", passed=p, lhs=0, rhs=0,
                                      expected_fail=e)
        assert mk(True, False).satisfied
        assert not mk(False, False).satisfied
        assert mk(False, True).satisfied
        assert not mk(True, True).satisfied

    def test_satisfied_handles_numpy_bool(self):
        rec = CheckRecord(name="x", passed=np.bool_(True), lhs=0, rhs=0)
        assert rec.satisfied is True
        json.dumps(rec.to_dict())  # must not choke on numpy scalars

    def test_summary_line_variants(self):
        ok = CheckRecord(name="a", passed=True, lhs=1, rhs=2)
        assert ok.summary_line().startswith("PASS")
        bad = CheckRecord(name="b", passed=False, lhs=3, rhs=2)
        assert "REGRESSION" in bad.summary_line()
        designed = CheckRecord(name="c", passed=False, lhs=3, rhs=2,
                               expected_fail=True)
        line = designed.summary_line()
        assert "expected failure" in line and "REGRESSION" not in line

    def test_dict_round_trip(self):
        rec = CheckRecord(name="r", passed=False, lhs=1.5, rhs=0.5,
                          direction="lhs >= rhs", margin=-1.0,
                          expected_fail=True,
                          details={"vec": np.array([1.0, 2.0]),
                                   "num": np.float64(3.5)})
        # the serialised record holds plain values: numpy ones converted
        rep = ScenarioReport(scenario="s", config={}, checks=[rec])
        back = json.loads(rep.to_json())["checks"][0]
        assert back == {**rec.to_dict(), "details": {"num": 3.5, "vec": [1.0, 2.0]}}
        assert back["name"] == "r" and back["passed"] is False
        assert back["expected_fail"] is True and back["satisfied"] is True


class TestScenarioReport:
    def test_flags(self):
        rep = sample_report()
        assert rep.all_satisfied
        assert rep.n_failed == 0
        rep.add(CheckRecord(name="regression", passed=False, lhs=9, rhs=1))
        assert not rep.all_satisfied
        assert rep.n_failed == 1

    def test_json_round_trip_drops_timings(self):
        rep = sample_report()
        data = json.loads(rep.to_json())
        assert "timings" not in data
        assert data["scenario"] == rep.scenario
        assert [r["name"] for r in data["checks"]] == [r.name for r in rep.checks]
        assert data["constants"] == rep.constants

    def test_json_timings_on_request(self):
        rep = sample_report()
        assert "timings" not in json.loads(rep.to_json())
        assert json.loads(rep.to_json(include_timings=True))["timings"] == {"good": 0.123}

    def test_json_is_sorted_and_stable(self):
        rep = sample_report()
        a = rep.to_json()
        b = rep.to_json()
        assert a == b
        data = json.loads(a)
        assert list(data) == sorted(data)

    def test_csv_shape(self):
        rep = sample_report()
        lines = rep.to_csv().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["name", "passed", "expected_fail", "satisfied"]
        assert len(lines) == 3

    def test_emit_and_load_by_suffix(self, tmp_path):
        rep = sample_report()
        path = tmp_path / "rep.json"
        emit_report(rep, path)
        back = json.loads(path.read_text(encoding="utf-8"))
        assert back["scenario"] == "sample"
        csv_path = tmp_path / "rep.csv"
        emit_report(rep, csv_path)
        assert csv_path.read_text().startswith("name,")

    def test_emit_unknown_fmt(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(sample_report(), tmp_path / "rep.txt", fmt="xml")

    def test_emit_timings_in_json_only(self, tmp_path):
        rep = sample_report()
        rep.timings["sublevel"] = 0.25
        path = tmp_path / "rep.json"
        emit_report(rep, path, include_timings=True)
        assert path.read_text(encoding="utf-8") == rep.to_json(include_timings=True)
        emit_report(rep, path)
        assert "timings" not in json.loads(path.read_text(encoding="utf-8"))
        with pytest.raises(ValueError, match="include_timings needs the json format, got 'csv'"):
            emit_report(rep, tmp_path / "rep.csv", include_timings=True)
        assert not (tmp_path / "rep.csv").exists()

    def test_emit_suffix_defaults_to_json(self, tmp_path):
        path = tmp_path / "rep.txt"
        emit_report(sample_report(), path)
        json.loads(path.read_text())


class TestVersions:
    def test_keys_present(self):
        v = runtime_versions()
        assert set(v) == {"detcurve", "numpy", "python"}

    def test_package_version_is_the_project_version(self):
        # the metadata lookup read 0.0.0 whenever the package ran from src/
        pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(
            encoding="utf-8")
        project = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
        assert runtime_versions()["detcurve"] == detcurve.__version__ == project
