"""Check records and scenario reports: serialization and summary lines."""

import json
import math
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
    rep.add(CheckRecord("good", 1.0, 2.0, details={"note": "fine"}))
    rep.add(CheckRecord("designed-failure", 5.0, 2.0, expected_fail=True))
    rep.constants["c"] = 0.25
    rep.timings["good"] = 0.123
    return rep


class TestCheckRecord:
    def test_satisfied_truth_table(self):
        for relation, holds, fails in [("<=", (1.0, 2.0), (3.0, 2.0)),
                                       (">=", (3.0, 2.0), (1.0, 2.0))]:
            mk = lambda sides, e: CheckRecord("x", *sides, relation, expected_fail=e)
            assert mk(holds, False).passed and mk(holds, False).satisfied
            assert not mk(fails, False).passed and not mk(fails, False).satisfied
            assert mk(fails, True).satisfied
            assert not mk(holds, True).satisfied
            assert mk((2.0, 2.0), False).passed  # equal sides hold either way

    @pytest.mark.parametrize("relation", ["<=", ">="])
    @pytest.mark.parametrize("bound,tol", [(1.0, 1e-12), (0.7, 1e-9), (3e5, 0.25),
                                           (2.5, 0.0)])
    def test_tolerance_edge(self, relation, bound, tol):
        # the record passes at exactly bound * (1 + tol) and fails one float past it
        edge = bound * (1.0 + tol)
        past = np.nextafter(edge, math.inf)
        if relation == "<=":
            at = CheckRecord("e", edge, bound, tol=tol)
            beyond = CheckRecord("e", past, bound, tol=tol)
        else:
            at = CheckRecord("e", bound, edge, ">=", tol)
            beyond = CheckRecord("e", bound, past, ">=", tol)
        assert at.passed and not beyond.passed

    def test_margin_and_direction_follow_the_relation(self):
        below = CheckRecord("b", 64.0, 2.0)
        assert below.margin == -62.0 and below.direction == "lhs <= rhs"
        above = CheckRecord("a", 4.0, 3.6, ">=")
        assert above.margin == 4.0 - 3.6 and above.direction == "lhs >= rhs"
        assert CheckRecord("t", 0.5, 1.0, tol=1e-12).direction == "lhs <= rhs (tol 1e-12)"

    @pytest.mark.parametrize("kwargs,message", [
        ({"relation": "<"}, "relation must be '<=' or '>=', got '<'"),
        ({"relation": "=="}, "relation must be '<=' or '>=', got '=='"),
        ({"tol": -1e-9}, "tol must be finite and nonnegative, got -1e-09"),
        ({"tol": math.inf}, "tol must be finite and nonnegative, got inf"),
        ({"tol": math.nan}, "tol must be finite and nonnegative, got nan")])
    def test_rejects_bad_relation_and_tol(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CheckRecord("x", 1.0, 2.0, **kwargs)

    def test_satisfied_handles_numpy_bool(self):
        # numpy sides make the derived comparison an np.bool_
        rec = CheckRecord("x", np.float64(1.0), np.float64(2.0), tol=np.float64(1e-9))
        assert rec.passed is True and rec.satisfied is True
        assert type(rec.margin) is float
        json.dumps(rec.to_dict())  # must not choke on numpy scalars

    def test_summary_line_variants(self):
        ok = CheckRecord("a", 1, 2)
        assert ok.summary_line().startswith("PASS")
        bad = CheckRecord("b", 3, 2)
        assert "REGRESSION" in bad.summary_line()
        designed = CheckRecord("c", 3, 2, expected_fail=True)
        line = designed.summary_line()
        assert "expected failure" in line and "REGRESSION" not in line

    def test_dict_round_trip(self):
        rec = CheckRecord("r", 0.5, 1.5, ">=", expected_fail=True,
                          details={"vec": np.array([1.0, 2.0]),
                                   "num": np.float64(3.5)})
        # the serialised record holds plain values: numpy ones converted
        rep = ScenarioReport(scenario="s", config={}, checks=[rec])
        back = json.loads(rep.to_json())["checks"][0]
        assert back == {**rec.to_dict(), "details": {"num": 3.5, "vec": [1.0, 2.0]}}
        assert back["name"] == "r" and back["passed"] is False
        assert back["direction"] == "lhs >= rhs" and back["margin"] == -1.0
        assert back["expected_fail"] is True and back["satisfied"] is True
        # the keys every report consumer reads
        assert set(back) == {"name", "passed", "lhs", "rhs", "direction", "margin",
                             "expected_fail", "satisfied", "details"}


class TestScenarioReport:
    def test_flags(self):
        rep = sample_report()
        assert rep.all_satisfied
        assert rep.n_failed == 0
        rep.add(CheckRecord("regression", 9, 1))
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
        assert header == ["name", "passed", "expected_fail", "satisfied",
                          "lhs", "rhs", "direction", "margin"]
        assert lines[1] == "good,True,False,True,1.0,2.0,lhs <= rhs,1.0"
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
