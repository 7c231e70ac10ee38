"""End-to-end command-line tests run in process through main()."""

import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from detcurve.cli import main
from detcurve.functionals import default_det_threshold, difference_threshold
from detcurve.geometry import simplex_det_many
from detcurve.lab import get_scenario
from detcurve.measure import (GeneratorSpec, generate, load_point_cloud,
                              save_point_cloud)
from detcurve.reporting import runtime_versions

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.fixture(scope="module")
def cloud_path(tmp_path_factory):
    mu = generate(GeneratorSpec(family="cube_lebesgue", dim=2, count=64,
                                seed=0))
    path = tmp_path_factory.mktemp("clouds") / "cube64.csv"
    save_point_cloud(mu, path)
    return str(path)


class TestAnalyze:
    def test_json_output(self, cloud_path, capsys):
        code = main(["analyze", cloud_path, "--k", "2", "--alpha", "1.0",
                     "--frames", "8", "--refine", "20"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["k"] == 2 and out["atoms"] == 64 and out["dim"] == 2
        assert out["constant"] > 0
        assert len(out["witness"]["semi_lengths"]) == 2

    @pytest.mark.parametrize("flags,message", [
        (["--k", "3", "--alpha", "1.0"], r"--k must be in \[1, 2\], got 3"),
        (["--k", "2", "--alpha", "0"], "--alpha must be positive and finite, got 0.0"),
    ], ids=["k", "alpha"])
    def test_bad_flag_exits(self, cloud_path, flags, message):
        # checked against the loaded cloud before the family is built
        with pytest.raises(SystemExit, match=message):
            main(["analyze", cloud_path, *flags])

    @pytest.mark.parametrize("flag,value,message", [
        ("--frames", "-3", "--frames must be a nonnegative count, got -3"),
        ("--refine", "-3", "--refine must be a nonnegative count, got -3"),
        ("--floor", "-1", "--floor must be a finite nonnegative length, got -1.0"),
        ("--floor", "nan", "--floor must be a finite nonnegative length, got nan"),
        ("--seed", "-1", "--seed must be a nonnegative integer, got -1")])
    def test_bad_family_flag_exits(self, cloud_path, flag, value, message):
        # negative counts used to run with fewer frames or no refinement, a
        # bad floor ended in a traceback from the family, a negative seed in
        # one from numpy
        with pytest.raises(SystemExit) as exc:
            main(["analyze", cloud_path, "--k", "2", "--alpha", "1.0", flag, value])
        assert exc.value.code == message


class TestFunctional:
    def test_budget_overrun_exits_with_one_line(self, cloud_path):
        # it used to end in a BudgetExceededError traceback
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "detcurve.cli", "functional",
                              cloud_path, "--k", "2", "--gamma", "0.5", "--budget", "10"],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 1 and run.stdout == ""
        assert run.stderr.endswith("\n") and run.stderr.count("\n") == 1
        assert run.stderr.startswith("--budget: ") and "--samples" in run.stderr

    @pytest.mark.parametrize("flag,value,message", [
        ("--samples", "1", "--samples must be 0 (enumerate) or at least 2, got 1"),
        ("--samples", "-3", "--samples must be 0 (enumerate) or at least 2, got -3"),
        ("--seed", "-1", "--seed must be a nonnegative integer, got -1")])
    def test_bad_count_flag_exits(self, cloud_path, flag, value, message):
        # these ended in a ValueError traceback from det_form_sampled or numpy
        with pytest.raises(SystemExit) as exc:
            main(["functional", cloud_path, "--k", "2", "--gamma", "0.5",
                  "--samples", "500", flag, value])
        assert exc.value.code == message

    def test_plain_form(self, cloud_path, capsys):
        code = main(["functional", cloud_path, "--k", "1", "--gamma", "0.5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tuples_total"] == 64 * 64
        assert out["value"] > 0 and not out["pinned"]

    def test_pinned_with_sets(self, cloud_path, capsys, tmp_path):
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps([[0, 1, 2, 3], [4, 5, 6, 7]]))
        code = main(["functional", cloud_path, "--k", "2", "--gamma", "0.5",
                     "--pinned", "--sets", str(sets_path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        # each slot is restricted to its set: 4 x 4 pairs, not 64 x 64
        assert out["tuples_total"] == 4 * 4 and out["pinned"]
        assert out["value"] > 0

    @pytest.mark.parametrize("pinned", [True, False])
    def test_sets_count_excluded_over_the_sets(self, cloud_path, capsys,
                                               tmp_path, pinned):
        # overlapping sets: pairs that repeat an atom have determinant 0
        sets = [[0, 1, 2, 3, 9], [2, 3, 4, 5], [3, 5, 8]]
        k = 2
        m = k if pinned else k + 1
        mu = load_point_cloud(cloud_path)
        tau = (default_det_threshold(mu, k) if pinned
               else difference_threshold([mu] * m))
        tuples = np.array(list(product(*sets[:m])))
        dets = simplex_det_many(mu.points[tuples], pinned=pinned)
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps(sets[:m]))
        code = main(["functional", cloud_path, "--k", str(k), "--gamma", "0.5",
                     "--sets", str(sets_path)] + (["--pinned"] if pinned else []))
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tuples_total"] == len(tuples)
        assert out["tuples_excluded"] == int(np.count_nonzero(dets <= tau)) > 0

    def test_empty_set_exits(self, cloud_path, tmp_path):
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps([[0, 1], []]))
        with pytest.raises(SystemExit, match="--sets: index set 1 is empty"):
            main(["functional", cloud_path, "--k", "2", "--gamma", "0.5",
                  "--pinned", "--sets", str(sets_path)])

    def test_sampled_reports_stderr(self, cloud_path, capsys):
        code = main(["functional", cloud_path, "--k", "2", "--gamma", "0.25",
                     "--samples", "500", "--seed", "3"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stderr"] >= 0

    def test_wrong_set_count_exits(self, cloud_path, tmp_path):
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps([[0]]))
        with pytest.raises(SystemExit):
            main(["functional", cloud_path, "--k", "2", "--gamma", "0.5",
                  "--sets", str(sets_path)])

    def test_out_of_range_index_exits(self, cloud_path, tmp_path):
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps([[0], [99]]))
        with pytest.raises(SystemExit, match=r"index set 1 has an index outside \[0, 64\)"):
            main(["functional", cloud_path, "--k", "1", "--gamma", "0.5",
                  "--sets", str(sets_path)])

    @pytest.mark.parametrize("bad", [[0.5, 1.7], [True, False], ["a", "b"]],
                             ids=["float", "bool", "str"])
    def test_non_integer_index_exits(self, cloud_path, tmp_path, bad):
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps([[2], bad]))
        with pytest.raises(SystemExit, match="--sets: index set 1 has non-integer entries"):
            main(["functional", cloud_path, "--k", "1", "--gamma", "0.5",
                  "--sets", str(sets_path)])

    def test_nested_set_exits(self, cloud_path, tmp_path):
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps([[[0, 1], [2, 3]], [0, 1]]))
        with pytest.raises(SystemExit, match="--sets: index set 0 must be a flat list"):
            main(["functional", cloud_path, "--k", "2", "--gamma", "0.5",
                  "--pinned", "--sets", str(sets_path)])

    def test_ragged_set_exits(self, cloud_path, tmp_path):
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps([[0, [1, 2]], [0]]))
        with pytest.raises(SystemExit, match="--sets: index set 0 must be a flat list"):
            main(["functional", cloud_path, "--k", "2", "--gamma", "0.5",
                  "--pinned", "--sets", str(sets_path)])

    def test_k_outside_cloud_exits(self, cloud_path):
        with pytest.raises(SystemExit, match=r"--k must be in \[1, 2\], got 3"):
            main(["functional", cloud_path, "--k", "3", "--gamma", "0.5"])

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_non_finite_gamma_exits(self, cloud_path, gamma):
        with pytest.raises(SystemExit, match=f"^--gamma must be finite, got {gamma}$"):
            main(["functional", cloud_path, "--k", "1", f"--gamma={gamma}"])

    def test_repeated_index_exits(self, cloud_path, tmp_path):
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps([[0, 0], [1]]))
        with pytest.raises(SystemExit, match="repeats an index"):
            main(["functional", cloud_path, "--k", "2", "--gamma", "0.5",
                  "--pinned", "--sets", str(sets_path)])


class TestVerify:
    def test_bundled_scenario_passes(self, capsys):
        code = main(["verify", "flat-subspace-negative"])
        assert code == 0
        out = capsys.readouterr().out
        assert "expected failure" in out

    def test_hard_failure_gives_exit_one(self, tmp_path, capsys):
        # Running the flat-measure blow-up prediction against a curved cube
        # is a misconfiguration: growth stays near one and the hard growth
        # assertions fail, which must surface as a nonzero exit.
        data = get_scenario("flat-subspace-negative").to_dict()
        data["name"] = "cube-necessity-misconfig"
        data["generator"] = {"family": "cube_lebesgue", "dim": 2,
                             "count": 64, "seed": 0, "params": {}}
        data["checks"] = ["necessity"]
        data["floor_shrink"] = [1]
        data["refine"] = 20
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(data))
        code = main(["verify", str(path)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    @pytest.mark.parametrize("drop", [7, -1])
    def test_pushforward_drop_outside_the_axes(self, tmp_path, drop):
        # the bundled sphere scenario drops axis 2 of 3; any axis outside
        # [0, 3) used to run the unprojected measure
        data = get_scenario("sphere-pushforward-d3").to_dict()
        data["pushforward_drop"] = drop
        path = tmp_path / "drop.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=rf"pushforward_drop must be in \[0, 3\), "
                                             rf"got {drop}"):
            main(["verify", str(path)])

    def test_report_side_output(self, tmp_path, capsys):
        out_path = tmp_path / "flat.json"
        code = main(["verify", "flat-subspace-negative",
                     "--report", str(out_path)])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["scenario"] == "flat-subspace-negative"

    def test_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["verify", "no-such-scenario"])


class TestReport:
    def test_single_json_file(self, tmp_path, capsys):
        out_path = tmp_path / "single.json"
        code = main(["report", "--scenario", "flat-subspace-negative",
                     "--out", str(out_path)])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["scenario"] == "flat-subspace-negative"

    def test_directory_of_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = main(["report", "--scenario", "flat-subspace-negative",
                     "--scenario", "sphere-pushforward-d3",
                     "--format", "csv", "--out", str(out_dir)])
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["flat-subspace-negative.csv",
                         "sphere-pushforward-d3.csv"]
        for p in out_dir.iterdir():
            assert p.read_text().startswith("name,")


class TestTimings:
    def test_report_key_present(self, tmp_path, capsys):
        out_path = tmp_path / "timed.json"
        code = main(["report", "--scenario", "flat-subspace-negative",
                     "--out", str(out_path), "--timings"])
        assert code == 0
        data = json.loads(out_path.read_text())
        timings = data["timings"]
        assert set(timings) == set(get_scenario("flat-subspace-negative").checks)
        assert all(isinstance(t, float) and t >= 0.0 for t in timings.values())

    def test_verify_key_present(self, tmp_path, capsys):
        out_path = tmp_path / "timed.json"
        code = main(["verify", "flat-subspace-negative", "--report", str(out_path),
                     "--timings"])
        assert code == 0
        assert json.loads(out_path.read_text())["timings"]

    def test_key_absent_and_bytes_golden(self, tmp_path, capsys):
        name = "flat-subspace-negative"
        want = (GOLDEN / f"{name}.json").read_bytes()
        out_path = tmp_path / "plain.json"
        assert main(["report", "--scenario", name, "--out", str(out_path)]) == 0
        got = out_path.read_bytes()
        assert "timings" not in json.loads(got)
        if json.loads(want)["versions"] == runtime_versions():
            assert got == want

    @pytest.mark.parametrize("argv", [
        ["report", "--scenario", "flat-subspace-negative", "--format", "csv",
         "--out", "x.csv", "--timings"],
        ["verify", "flat-subspace-negative", "--format", "csv", "--report",
         "x.json", "--timings"],
        ["verify", "flat-subspace-negative", "--report", "x.csv", "--timings"],
    ])
    def test_csv_is_an_argument_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--timings" in err and "--format csv" in err
        assert not list(tmp_path.iterdir())

    def test_verify_needs_report(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "flat-subspace-negative", "--timings"])
        assert exc.value.code == 2
        assert "--timings needs --report" in capsys.readouterr().err
