import dataclasses
import hashlib
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import uvi.cli as cli
import uvi.operators as operators
import uvi.solver as solver
from uvi.geometry import EuclideanBall
from uvi.operators import convex_min_problem, make_problem


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "problem": {"name": "rps", "params": {}},
        "mode": {"kind": "universal"},
        "T": 50,
        "g0": 1.0,
        "seeds": [0],
        "eval_every": 10,
        "record_every": 1,
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    doc = {key: value for key, value in doc.items() if value is not OMIT}
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


OMIT = object()


def count_solves(monkeypatch):
    calls = []
    solve = solver.universal_mirror_prox

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(solver, "universal_mirror_prox", counting)
    return calls


def count_problem_builds(monkeypatch):
    calls = []
    build = operators.make_problem

    def counting(name, **params):
        calls.append(name)
        return build(name, **params)

    monkeypatch.setattr(operators, "make_problem", counting)
    return calls


class TestRun:
    def test_rps_single_step_summary(self, tmp_path, capsys):
        path = write_config(tmp_path, T=1, eval_every=1)
        assert cli.cmd_run(str(path)) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["mean_final_gap"] == 0.0
        assert summary["per_seed"][0]["final_gap"] == 0.0
        assert (tmp_path / "out" / "trace_0.csv").exists()

    def test_unknown_problem_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, problem={"name": "bogus", "params": {}})
        assert cli.cmd_run(str(path)) == 2

    def test_unusable_output_dir_exits_2_before_solving(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "blocker").write_text("a file, not a directory")
        solves = count_solves(monkeypatch)
        path = write_config(tmp_path, T=3, output_dir=str(tmp_path / "blocker"))
        assert cli.cmd_run(str(path)) == 2
        assert capsys.readouterr().err == (
            f"error: cannot create output directory {tmp_path / 'blocker'}: File exists\n")
        assert solves == []

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.cmd_run(str(path)) == 2

    def test_bad_mode_and_schedule_exit_2(self, tmp_path):
        assert cli.cmd_run(str(write_config(tmp_path, mode={"kind": "warp"}))) == 2
        assert cli.cmd_run(str(write_config(tmp_path, eval_every=7, record_every=2))) == 2
        assert cli.cmd_run(str(write_config(tmp_path, noise={"bound": 0.1}, seeds=[]))) == 2

    @pytest.mark.parametrize("overrides, message", [
        ({"g0": float("inf")}, "g0 must be positive and finite"),
        ({"g0": float("nan")}, "g0 must be positive and finite"),
        ({"mode": {"kind": "fixed-step", "eta": float("inf")}}, "requires a finite eta"),
        ({"mode": {"kind": "fixed-step", "eta": 1e-200}}, "whose square is nonzero"),
        ({"noise": {"bound": float("nan")}}, "noise bound must be finite"),
        ({"noise": {"bound": float("inf")}}, "noise bound must be finite"),
        # Its square, the variance bound of summary.json, used to overflow with a traceback.
        ({"noise": {"bound": 1e200}}, "noise bound must be finite and nonnegative, with a "
                                      "finite square, got 1e+200"),
        ({"T": 2.7}, "T must be an integer, got 2.7"),
        ({"T": True}, "T must be an integer, got True"),
        ({"seeds": [0.9]}, "seeds must be an integer, got 0.9"),
        ({"record_every": 1.5}, "record_every must be an integer"),
        ({"eval_every": True}, "eval_every must be an integer"),
        ({"seeds": [1, 1]}, "seeds must be distinct"),
        ({"seeds": [0, -1]}, "seeds must be nonnegative, got [0, -1]"),
        ({"problem": {"name": "l1-ball"}, "T": 10, "noise": {"bound": 0.1}, "seeds": [-1]},
         "seeds must be nonnegative, got [-1]"),
        ({"problem": {"name": "rps", "params": {"foo": 1}}}, "'rps' has no param 'foo'"),
        ({"problem": {"name": "rps", "params": [1]}}, "'rps': params must be an object"),
        # A falsy non-object used to run with the default params.
        ({"problem": {"name": "rps", "params": []}}, "'rps': params must be an object, got []"),
        ({"problem": {"name": "rps", "params": 0}}, "'rps': params must be an object, got 0"),
        ({"problem": {"name": "rps", "params": False}},
         "'rps': params must be an object, got False"),
        ({"problem": {"name": "rps", "params": ""}}, "'rps': params must be an object, got ''"),
        ({"problem": {"name": "l1-ball", "params": {"radius": 1e-170}}, "T": 5},
         "squared diameter underflows to 0"),
        ({"mode": "fixed-step"}, "mode must be an object, got 'fixed-step'"),
        ({"problem": "rps"}, "problem must be an object, got 'rps'"),
        ({"problem": {"name": ["rps"]}}, "problem name must be a string, got ['rps']"),
        ({"g0": True}, "g0 must be a number, got True"),
        ({"g0": "2"}, "g0 must be a number, got '2'"),
        ({"g0": 10**400}, "g0 is out of the float range"),
        ({"mode": {"kind": "fixed-step", "eta": True}}, "eta must be a number, got True"),
        ({"mode": {"kind": "universal", "eta": 0.5}},
         "eta is only used in fixed-step mode, got eta=0.5 in universal mode"),
        ({"noise": {"bound": True}}, "noise bound must be a number, got True"),
        ({"problem": {"name": "random-game", "params": {"d1": 2.5}}},
         "d1 must be an integer, got 2.5"),
        ({"problem": {"name": "random-game", "params": {"seed": True}}},
         "seed must be an integer, got True"),
        ({"problem": {"name": "quadratic-ball", "params": {"x0": [[1, 2]]}}},
         "x0 must be a 1-D vector"),
        ({"problem": {"name": "l1-ball", "params": {"radius": 10**400}}},
         "radius is out of the float range"),
        ({"problem": {"name": "l1-ball", "params": {"x0": {"a": 1}}}},
         "x0 must hold numbers in the float range, got {'a': 1}"),
        ({"problem": {"name": "piecewise-max", "params": {"slopes": [[10**400, 1]],
                                                          "offsets": [0]}}},
         "slopes must hold numbers in the float range"),
        ({"problem": {"name": "piecewise-max", "params": {"offsets": [0, 0, 0]}}},
         "slopes and offsets must be given together"),
        ({"problem": {"name": "l1-ball", "params": {"radius": 1e200}}},
         "ball radius 1e+200 too large, squared diameter overflows"),
        ({"problem": {"name": "piecewise-max", "params": {"upper": float("inf")}}},
         "box widths too large, squared diameter overflows"),
        # The LP failure used to exit 1 with a traceback, the non-finite targets 3 after solving.
        ({"problem": {"name": "piecewise-max", "params": {"slopes": [[1e160, 0], [0, 1]],
                                                          "offsets": [0, 0]}}},
         "reference LP for piecewise-max failed"),
        ({"problem": {"name": "quadratic-ball", "params": {"x0": [float("nan"), 0]}}},
         "x0 must have finite entries, got [nan, 0]"),
        ({"problem": {"name": "l1-ball", "params": {"x0": [float("inf"), 0]}}},
         "x0 must have finite entries, got [inf, 0]"),
        # ||x0||^2 overflows, so ||x0|| = inf (1e160^2 = 1e320 too): both used to exit 3
        # after solving, with a duality gap of nan.
        ({"problem": {"name": "quadratic-ball", "params": {"x0": [1e200, 0]}}},
         "x0 and radius overflow the float range: ||x0|| = inf"),
        ({"problem": {"name": "quadratic-ball", "params": {"x0": [1e160, 0]}}},
         "x0 and radius overflow the float range: ||x0|| = inf"),
        # str() used to turn these into directories named None, True, 5, ...
        ({"output_dir": None}, "output_dir must be a string, got None"),
        ({"output_dir": True}, "output_dir must be a string, got True"),
        ({"output_dir": 5}, "output_dir must be a string, got 5"),
        ({"output_dir": ["out"]}, "output_dir must be a string, got ['out']"),
        # A misspelt key used to be ignored, and the run used its default.
        ({"eval_evry": 5}, "unknown config key 'eval_evry'; known keys: problem, mode, T, g0, "
                           "noise, seeds, eval_every, record_every, output_dir"),
        ({"problem": {"name": "rps", "parmas": {"x": 1}}},
         "unknown problem key 'parmas'; known keys: name, params"),
        ({"mode": {"kind": "universal", "eta_": 2}},
         "unknown mode key 'eta_'; known keys: kind, eta"),
        ({"noise": {"bound": 0.1, "sigma": 3}},
         "unknown noise key 'sigma'; known keys: bound"),
        # The variance bound is derived from the noise bound, never configured.
        ({"noise": {"bound": 0.5, "sigma_sq": 0.25}},
         "unknown noise key 'sigma_sq'; known keys: bound"),
        # These used to read "'int' object is not iterable" and "got '1'".
        ({"seeds": 5}, "seeds must be a list of integers, got 5"),
        ({"seeds": "12"}, "seeds must be a list of integers, got '12'"),
        # ||x0|| overflows (1e160^2 = 1e320 too): both used to end in a bare overflow
        # RuntimeWarning under -W error, and to report a mean final gap of 0 without it.
        ({"problem": {"name": "l1-ball", "params": {"x0": [1e200, 0]}}},
         "x0 overflows the float range: ||x0|| = inf"),
        ({"problem": {"name": "l1-ball", "params": {"x0": [1e160, 0]}}},
         "x0 overflows the float range: ||x0|| = inf"),
        # With eta-in-universal-mode, the CLI's checks of the mode's kind.
        ({"mode": {"kind": "warp"}}, "error: unknown mode 'warp'\n"),
        ({"mode": {"kind": "fixed-step"}}, "error: fixed-step mode requires a finite eta > 0 "
                                           "whose square is nonzero, got None\n"),
        # Finite widths whose squared sum overflows: under -W error this used to
        # end in a bare overflow RuntimeWarning from the box's diameter.
        ({"problem": {"name": "piecewise-max", "params": {
            "slopes": [[1.0, 0.0]], "offsets": [0.0], "lower": 1e308, "upper": 1.7e308}}},
         "box widths too large, squared diameter overflows"),
        # These used to read numpy's "expected non-negative integer", "negative
        # dimensions are not allowed" and "offsets must be a 1-D vector".
        ({"problem": {"name": "random-game", "params": {"seed": -1}}},
         "seed must be a non-negative integer, got -1"),
        ({"problem": {"name": "random-game", "params": {"d1": -1}}},
         "d1 must be an integer >= 2, got -1"),
        ({"problem": {"name": "random-game", "params": {"d2": 0}}},
         "d2 must be an integer >= 2, got 0"),
        # This used to read the simplex's "simplex needs dimension >= 2".
        ({"problem": {"name": "random-game", "params": {"d1": 1, "d2": 3}}},
         "d1 must be an integer >= 2, got 1"),
        ({"problem": {"name": "piecewise-max", "params": {"slopes": [[1.0, 0.0]]}}},
         "slopes and offsets must be given together"),
    ], ids=["g0-inf", "g0-nan", "eta-inf", "eta-square-underflows", "noise-nan",
            "noise-inf", "noise-square-overflows", "T-fraction", "T-bool", "seed-fraction",
            "record-every-fraction", "eval-every-bool", "seeds-duplicate", "seed-negative",
            "seed-negative-noisy", "param-unknown", "params-not-object", "params-empty-list",
            "params-zero", "params-false", "params-empty-string",
            "l1-radius-diameter-underflows", "mode-string", "problem-string",
            "problem-name-list", "g0-bool", "g0-string", "g0-int-overflows", "eta-bool",
            "eta-in-universal-mode",
            "noise-bool", "d1-fraction", "game-seed-bool", "x0-matrix",
            "radius-int-overflows", "x0-object", "slopes-int-overflows", "offsets-without-slopes",
            "l1-radius-diameter-overflows", "box-upper-inf", "piecewise-lp-fails",
            "x0-nan", "x0-inf", "x0-1e200-norm-overflows", "x0-1e160-norm-overflows",
            "output-dir-null", "output-dir-bool", "output-dir-int", "output-dir-list",
            "config-key-unknown", "problem-key-unknown", "mode-key-unknown", "noise-key-unknown",
            "noise-sigma-sq-key", "seeds-int", "seeds-string", "l1-x0-1e200-norm-overflows",
            "l1-x0-1e160-norm-overflows", "mode-kind-unknown", "fixed-step-without-eta",
            "box-widths-square-overflows", "game-seed-negative", "d1-negative", "d2-zero",
            "d1-one", "slopes-without-offsets"])
    def test_bad_numeric_config_exits_2_before_solving(self, tmp_path, monkeypatch, capsys,
                                                       overrides, message):
        monkeypatch.delenv("UVI_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, **overrides)
        assert cli.cmd_run(str(path)) == 2
        assert message in capsys.readouterr().err
        assert cli.cmd_sweep(str(path), [5, 10]) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_tiny_l1_radius_with_subnormal_diameter_runs(self, tmp_path, capsys):
        path = write_config(tmp_path, problem={"name": "l1-ball", "params": {"radius": 1e-160}},
                            T=5, eval_every=OMIT)
        assert cli.cmd_run(str(path)) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["mean_final_gap"] >= 0.0

    def test_null_params_are_absent(self, tmp_path):
        absent = write_config(tmp_path, name="absent.json", problem={"name": "rps"},
                              output_dir=str(tmp_path / "absent"))
        null = write_config(tmp_path, name="null.json", problem={"name": "rps", "params": None},
                            output_dir=str(tmp_path / "null"))
        assert cli.cmd_run(str(absent)) == 0
        assert cli.cmd_run(str(null)) == 0
        assert tree_bytes(tmp_path / "absent") == tree_bytes(tmp_path / "null")

    def test_integral_floats_are_integers(self, tmp_path):
        ints = write_config(tmp_path, name="ints.json", T=20, seeds=[3],
                            output_dir=str(tmp_path / "ints"))
        floats = write_config(tmp_path, name="floats.json", T=2e1, eval_every=1e1, seeds=[3.0],
                              record_every=1.0, output_dir=str(tmp_path / "floats"))
        assert cli.cmd_run(str(ints)) == 0
        assert cli.cmd_run(str(floats)) == 0
        assert tree_bytes(tmp_path / "ints") == tree_bytes(tmp_path / "floats")

    def test_integral_float_catalog_params_are_integers(self, tmp_path):
        # Only summary.json's params differ: they are the config's, as given.
        game = {"name": "random-game", "params": {"d1": 3, "d2": 2, "seed": 5}}
        ints = write_config(tmp_path, name="ints.json", T=20, problem=game,
                            output_dir=str(tmp_path / "ints"))
        floats = write_config(tmp_path, name="floats.json", T=20,
                              problem={**game, "params": {"d1": 3.0, "d2": 2e0, "seed": 5.0}},
                              output_dir=str(tmp_path / "floats"))
        assert cli.cmd_run(str(ints)) == 0
        assert cli.cmd_run(str(floats)) == 0
        assert tree_bytes(tmp_path / "ints")["trace_0.csv"] == \
            tree_bytes(tmp_path / "floats")["trace_0.csv"]

    def test_config_holds_one_solver_config(self, tmp_path):
        config = cli.ExperimentConfig.from_file(write_config(
            tmp_path, mode={"kind": "fixed-step", "eta": 0.25}, T=30, g0=2.0,
            noise={"bound": 0.5}))
        assert config.solve == solver.SolverConfig(iterations=30, g0=2.0, eta=0.25,
                                                   record_every=1, eval_every=10)
        assert config.noise_bound == 0.5
        mirrored = {"iterations", "g0", "mode", "eta", "record_every", "eval_every"}
        assert not mirrored & {f.name for f in dataclasses.fields(cli.ExperimentConfig)}

    def test_config_is_frozen(self, tmp_path):
        config = cli.ExperimentConfig.from_dict(json.loads(write_config(tmp_path).read_text()))
        for f in dataclasses.fields(config):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.solve.iterations = 0
        with pytest.raises(AttributeError):
            config.seeds.append(1)

    def test_config_owns_its_inputs(self, tmp_path):
        ball = {"name": "quadratic-ball", "params": {"radius": 1.0, "x0": [2.0, 0.0]}}
        doc = json.loads(write_config(tmp_path, problem=ball, seeds=[0, 1]).read_text())
        config = cli.ExperimentConfig.from_dict(doc)
        doc["problem"]["params"]["radius"] = 9.0
        doc["problem"]["params"]["x0"].append(1.0)
        doc["seeds"].append(2)
        assert config.problem_params == {"radius": 1.0, "x0": [2.0, 0.0]}
        assert config.seeds == (0, 1)

    def test_numeric_abort_exits_3(self, tmp_path, monkeypatch, capsys):
        bad = convex_min_problem(
            f=lambda x: 0.5 * float(x @ x),
            grad=lambda x: x * np.nan,
            geom=EuclideanBall(1.0, 2),
            g_bound=1.0,
            min_value=0.0,
            name="nan-grad",
        )
        monkeypatch.setattr(operators, "make_problem", lambda name, **kw: bad)
        path = write_config(tmp_path)
        assert cli.cmd_run(str(path)) == 3
        assert "aborted at step" in capsys.readouterr().err

    @pytest.mark.parametrize("g0, eta", [(1e155, "0"), (1e-300, "inf")])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_step_size_out_of_range_exits_3(self, tmp_path, capsys, command, g0, eta):
        path = write_config(tmp_path, T=20, g0=g0, eval_every=OMIT)
        code = cli.main([command, str(path)] + (["--T", "10,20"] if command == "sweep" else []))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric abort: aborted at step t=1, eta={eta}: step size"), err

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("UVI_OUTPUT_DIR", str(override))
        path = write_config(tmp_path, T=5, eval_every=5)
        assert cli.cmd_run(str(path)) == 0
        assert (override / "summary.json").exists()

    def test_concurrent_products_write_the_same_bytes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("UVI_OUTPUT_DIR", raising=False)
        calls = []
        concurrently = operators._concurrently
        monkeypatch.setattr(operators, "_concurrently",
                            lambda first, second: calls.append(1) or concurrently(first, second))
        outputs, counts = [], []
        for threshold in (0, math.inf):  # every game's products at once, then none
            monkeypatch.setattr(operators, "_CONCURRENT_BYTES", threshold)
            out = tmp_path / str(threshold)
            path = write_config(tmp_path, T=60, eval_every=1, record_every=1,
                                noise={"bound": 0.5}, seeds=[0, 3], output_dir=str(out),
                                problem={"name": "random-game",
                                         "params": {"d1": 6, "d2": 4, "seed": 3}})
            assert cli.cmd_run(str(path)) == 0
            outputs.append(tree_bytes(out))
            counts.append(len(calls))
        assert counts[0] >= 2 * 60 and counts[1] == counts[0]  # all at threshold 0
        assert sorted(outputs[0]) == ["summary.json", "trace_0.csv", "trace_3.csv"]
        assert outputs[0] == outputs[1]

    def test_reruns_are_byte_identical(self, tmp_path):
        path = write_config(
            tmp_path, T=40, eval_every=10,
            noise={"bound": 0.3}, seeds=[0, 1],
            problem={"name": "l1-ball", "params": {}},
        )
        assert cli.cmd_run(str(path)) == 0
        first = {
            f.name: f.read_bytes() for f in sorted((tmp_path / "out").iterdir())
        }
        assert cli.cmd_run(str(path)) == 0
        second = {
            f.name: f.read_bytes() for f in sorted((tmp_path / "out").iterdir())
        }
        assert first == second
        assert "trace_1.csv" in first

    def test_zero_noise_matches_deterministic_bitwise(self, tmp_path):
        det_dir = tmp_path / "det"
        noise_dir = tmp_path / "noise"
        p1 = write_config(tmp_path, name="a.json", T=30, eval_every=10,
                          output_dir=str(det_dir))
        p2 = write_config(tmp_path, name="b.json", T=30, eval_every=10,
                          output_dir=str(noise_dir), noise={"bound": 0.0})
        assert cli.cmd_run(str(p1)) == 0
        assert cli.cmd_run(str(p2)) == 0
        assert (det_dir / "trace_0.csv").read_bytes() == (
            noise_dir / "trace_0.csv"
        ).read_bytes()

    def test_zero_noise_without_seeds_runs_as_the_exact_operator(self, tmp_path):
        # A bound of 0 is no noise, and with no noise an empty seed list is [0].
        exact = write_config(tmp_path, name="a.json", T=5, eval_every=OMIT,
                             output_dir=str(tmp_path / "exact"))
        zero = write_config(tmp_path, name="b.json", T=5, eval_every=OMIT, seeds=[],
                            output_dir=str(tmp_path / "zero"), noise={"bound": 0})
        assert cli.cmd_run(str(exact)) == 0
        assert cli.cmd_run(str(zero)) == 0
        assert (tmp_path / "zero" / "trace_0.csv").read_bytes() == (
            tmp_path / "exact" / "trace_0.csv").read_bytes()

    def test_csv_round_trips_17_digits(self, tmp_path):
        path = write_config(tmp_path, T=20, eval_every=5,
                            problem={"name": "l1-ball", "params": {}})
        assert cli.cmd_run(str(path)) == 0
        lines = (tmp_path / "out" / "trace_0.csv").read_text().strip().splitlines()
        assert lines[0] == "t,eta,z_sq,gap_of_running_avg"
        run = solver.mirror_prox(
            operators.make_problem("l1-ball"),
            solver.SolverConfig(iterations=20, record_every=1),
        )
        for line, rec in zip(lines[1:], run.records):
            t, eta, z_sq, _gap = line.split(",")
            assert int(t) == rec.t
            assert float(eta) == rec.eta  # exact round trip
            assert float(z_sq) == rec.z_sq

    def test_summary_holds_catalog_params_not_matrix(self, tmp_path):
        params = {"d1": 4, "d2": 3, "seed": 2}
        path = write_config(tmp_path, T=5, eval_every=5,
                            problem={"name": "random-game", "params": params})
        assert cli.cmd_run(str(path)) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["problem"]["params"] == params
        assert "matrix" not in summary["problem"]["params"]
        rebuilt = operators.make_problem("random-game", **summary["problem"]["params"])
        assert rebuilt.g_bound == summary["problem"]["g_bound"]

    def test_problem_built_once(self, tmp_path, monkeypatch):
        calls = count_problem_builds(monkeypatch)
        assert cli.cmd_run(str(write_config(tmp_path, T=5, eval_every=5))) == 0
        assert calls == ["rps"]

    def test_fixed_step_mode(self, tmp_path):
        path = write_config(tmp_path, mode={"kind": "fixed-step", "eta": 0.25}, T=20,
                            eval_every=20)
        assert cli.cmd_run(str(path)) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["mode"] == "fixed-step"
        assert summary["eta"] == 0.25


class TestSweep:
    def test_sweep_writes_rate_fit(self, tmp_path, capsys):
        path = write_config(
            tmp_path, problem={"name": "random-game", "params": {"seed": 2}},
            eval_every=1, record_every=1,
        )
        assert cli.cmd_sweep(str(path), [100, 200, 400]) == 0
        doc = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
        assert doc["t_values"] == [100, 200, 400]
        assert doc["rate_fit"] is not None
        assert doc["rate_fit"]["exponent"] < 0
        for T in (100, 200, 400):
            assert (tmp_path / "out" / f"T_{T}" / "summary.json").exists()

    def test_repeated_budget_is_one_fit_point(self, tmp_path, capsys):
        path = write_config(tmp_path, problem={"name": "l1-ball", "params": {}}, eval_every=OMIT)
        assert cli.main(["sweep", str(path), "--T", "50,50,50"]) == 0
        out = capsys.readouterr().out
        assert "rate fit skipped" in out and out.count("T=50:") == 3
        doc = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
        assert doc["t_values"] == [50, 50, 50] and doc["rate_fit"] is None

        def fit(t_list):
            assert cli.main(["sweep", str(path), "--T", t_list]) == 0
            return json.loads((tmp_path / "out" / "sweep_summary.json").read_text())

        repeated, distinct = fit("30,10,20,10"), fit("30,10,20")
        assert repeated["t_values"] == [30, 10, 20, 10]
        assert repeated["rate_fit"] == distinct["rate_fit"] is not None

    def test_sweep_bad_config(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "bogus", "params": {}})
        assert cli.cmd_sweep(str(path), [100]) == 2

    def test_empty_sweep_is_not_a_run(self, tmp_path, monkeypatch, capsys):
        solves = count_solves(monkeypatch)
        path = write_config(tmp_path)
        assert cli.cmd_sweep(str(path), []) == 2
        assert capsys.readouterr().err == "error: sweep needs at least one T value\n"
        assert solves == [] and not (tmp_path / "out").exists()

    def test_unusable_output_dir_exits_2_before_solving(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "blocker").write_text("a file, not a directory")
        solves = count_solves(monkeypatch)
        path = write_config(tmp_path, output_dir=str(tmp_path / "blocker"))
        assert cli.cmd_sweep(str(path), [1, 2, 3]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot create output directory {tmp_path / 'blocker' / 'T_1'}: "
            "Not a directory\n")
        assert solves == []

    def test_sweep_t_below_one_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        with pytest.raises(SystemExit) as err:
            cli.main(["sweep", str(path), "--T", "0,100,200"])
        assert err.value.code == 2
        assert cli.cmd_sweep(str(path), [0, 100, 200]) == 2
        assert not list(tmp_path.glob("out/T_*"))

    def test_sweep_checks_every_budget_before_solving(self, tmp_path, capsys):
        # The invalid budget sits between two valid ones; none is solved.
        path = write_config(tmp_path, T=100, record_every=4, eval_every=OMIT)
        assert cli.cmd_sweep(str(path), [100, 0, 200]) == 2
        assert not list(tmp_path.glob("out/T_*"))

    def test_default_gap_schedule_needs_no_multiple_of_record_every(self, tmp_path, capsys):
        # Without eval_every only step T has a gap, so T need not be a
        # multiple of record_every.
        path = write_config(tmp_path, T=1000, record_every=3, eval_every=OMIT)
        assert cli.cmd_run(str(path)) == 0
        out = tmp_path / "out"
        assert json.loads((out / "summary.json").read_text())["eval_every"] == 1000
        rows = [row.split(",") for row in (out / "trace_0.csv").read_text().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(3, 1000, 3)) + [1000]
        assert [row[3] != "" for row in rows] == [False] * (len(rows) - 1) + [True]

    def test_sweep_default_gap_schedule_takes_any_budget(self, tmp_path, capsys):
        path = write_config(tmp_path, T=1000, record_every=3, eval_every=OMIT)
        assert cli.main(["sweep", str(path), "--T", "999,1000"]) == 0
        for T in (999, 1000):
            rows = (tmp_path / "out" / f"T_{T}" / "trace_0.csv").read_text().splitlines()
            assert rows[-1].startswith(f"{T},") and not rows[-1].endswith(",")

    def test_sweep_default_eval_every_is_each_t(self, tmp_path, capsys):
        path = write_config(tmp_path, T=10, eval_every=OMIT)
        assert cli.cmd_sweep(str(path), [10, 20]) == 0
        for T in (10, 20):
            out = tmp_path / "out" / f"T_{T}"
            summary = json.loads((out / "summary.json").read_text())
            assert summary["eval_every"] == T
            rows = (out / "trace_0.csv").read_text().splitlines()[1:]
            assert [row.endswith(",") for row in rows] == [True] * (T - 1) + [False]

    def test_sweep_builds_problem_once(self, tmp_path, monkeypatch, capsys):
        calls = count_problem_builds(monkeypatch)
        assert cli.cmd_sweep(str(write_config(tmp_path)), [10, 20, 40]) == 0
        assert calls == ["rps"]


def tree_bytes(root):
    return {f.relative_to(root).as_posix(): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


def assert_whole_output(tmp_path, case, command):
    """``uvi run`` of ``case.CONFIG``, or ``uvi sweep`` over ``case.T_LIST``,
    writes exactly the files and text of ``case.EXPECTED[command]``."""
    path = write_config(tmp_path, **case.CONFIG)
    if command == "run":
        assert cli.cmd_run(str(path)) == 0
    else:
        assert cli.cmd_sweep(str(path), case.T_LIST) == 0
    out = tmp_path / "out"
    assert {name: data.decode("utf-8") for name, data in tree_bytes(out).items()} \
        == case.EXPECTED[command]


class TestAnytimeSweep:
    """A sweep solves each seed once at max(T); its outputs equal separate runs."""

    NOISY = {"problem": {"name": "l1-ball", "params": {}},
             "noise": {"bound": 0.3}, "seeds": [0, 1]}

    @pytest.mark.parametrize("t_list,overrides", [
        ([30, 10, 20, 10], {**NOISY, "record_every": 1, "eval_every": 5}),
        ([21, 50, 35], {**NOISY, "record_every": 7, "eval_every": 14}),
        ([12, 4, 8], {"record_every": 2, "eval_every": OMIT}),
        ([20, 40], {**NOISY, "mode": {"kind": "fixed-step", "eta": 0.25},
                    "record_every": 5, "eval_every": 10}),
    ], ids=["unsorted-duplicate-lemma3", "record-every-off-grid", "no-eval-every",
            "fixed-step"])
    def test_sweep_equals_separate_runs(self, tmp_path, capsys, t_list, overrides):
        sweep_dir = tmp_path / "sweep"
        path = write_config(tmp_path, output_dir=str(sweep_dir), **overrides)
        assert cli.cmd_sweep(str(path), t_list) == 0
        printed = capsys.readouterr().out.splitlines()

        gaps = {}
        for T in set(t_list):
            run_dir = tmp_path / f"run_{T}"
            run_path = write_config(tmp_path, name=f"run_{T}.json", T=T,
                                    output_dir=str(run_dir), **overrides)
            assert cli.cmd_run(str(run_path)) == 0
            assert tree_bytes(sweep_dir / f"T_{T}") == tree_bytes(run_dir)
            gaps[T] = json.loads((run_dir / "summary.json").read_text())["mean_final_gap"]
        assert sorted(p.name for p in sweep_dir.iterdir()) == sorted(
            [f"T_{T}" for T in set(t_list)] + ["sweep_summary.json"])
        doc = json.loads((sweep_dir / "sweep_summary.json").read_text())
        assert doc["t_values"] == t_list
        assert doc["mean_final_gaps"] == [gaps[T] for T in t_list]
        assert printed[:len(t_list)] == [
            f"T={T}: mean final gap {gaps[T]:.6g}" for T in t_list]

    def test_one_solve_per_seed(self, tmp_path, monkeypatch, capsys):
        # Every step recorded: the seeds still solve together, in one batch.
        calls = []
        solve = solver.universal_mirror_prox

        def counting(problem, config, oracle=None, **kwargs):
            calls.append((config.iterations, list(kwargs["oracles"])))
            return solve(problem, config, oracle, **kwargs)

        monkeypatch.setattr(solver, "universal_mirror_prox", counting)
        path = write_config(tmp_path, seeds=[0, 1, 2], noise={"bound": 0.1})
        assert cli.cmd_sweep(str(path), [20, 10, 40, 20]) == 0
        assert calls == [(40, [0, 1, 2])]

    def test_thinned_seeds_solve_in_one_batch(self, tmp_path, monkeypatch, capsys):
        calls = []
        solve = solver.universal_mirror_prox

        def counting(problem, config, oracle=None, **kwargs):
            calls.append((config.iterations, list(kwargs["oracles"])))
            return solve(problem, config, oracle, **kwargs)

        monkeypatch.setattr(solver, "universal_mirror_prox", counting)
        path = write_config(tmp_path, seeds=[4, 0, 2], noise={"bound": 0.1},
                            record_every=5, eval_every=10)
        assert cli.cmd_sweep(str(path), [20, 10, 40]) == 0
        assert calls == [(40, [4, 0, 2])]

    def test_batch_abort_writes_no_trace(self, tmp_path, monkeypatch, capsys):
        calls = []

        def grad(x):  # the third seed's loss turns NaN at step 4
            calls.append(1)
            out = x - 0.5
            if len(calls) == 8:
                out[2] = np.nan
            return out

        bad = convex_min_problem(f=lambda x: 0.0, grad=grad, geom=EuclideanBall(1.0, 2),
                                 g_bound=2.0, min_value=0.0, name="nan-batch")
        monkeypatch.setattr(operators, "make_problem", lambda name, **kw: bad)
        # Noisy, so that each seed is a row of its own.
        path = write_config(tmp_path, seeds=[3, 1, 8], record_every=5, eval_every=10,
                            noise={"bound": 0.1})
        assert cli.cmd_run(str(path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric abort: aborted at step t=4, eta=") and "(seed 8)" in err
        assert list((tmp_path / "out").iterdir()) == []

    def test_gap_failure_aborts_and_writes_no_trace(self, tmp_path, monkeypatch, capsys):
        calls = []

        def gap_eval(x):  # one call per step on both seeds; the second's turns negative
            calls.append(1)
            return np.array([0.0, -1.0 if len(calls) >= 3 else 0.0])

        bad = dataclasses.replace(operators.make_problem("l1-ball"), dual_gap_eval=gap_eval)
        monkeypatch.setattr(operators, "make_problem", lambda name, **kw: bad)
        path = write_config(tmp_path, seeds=[4, 6], noise={"bound": 0.2}, T=10,
                            eval_every=1, record_every=1)
        assert cli.cmd_run(str(path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric abort: aborted at step t=3, eta="), err
        assert err.rstrip().endswith(
            "running average: duality gap -1.0 is negative beyond tolerance (seed 6)")
        assert list((tmp_path / "out").iterdir()) == []

    def test_abort_leaves_no_summaries(self, tmp_path, monkeypatch, capsys):
        steps = []

        def grad(x):  # finite for 15 steps (two operator calls each), then NaN
            steps.append(1)
            return x if len(steps) <= 30 else x * np.nan

        bad = convex_min_problem(f=lambda x: 0.5 * float(x @ x), grad=grad,
                                 geom=EuclideanBall(1.0, 2), g_bound=1.0,
                                 min_value=0.0, name="nan-late")
        monkeypatch.setattr(operators, "make_problem", lambda name, **kw: bad)
        path = write_config(tmp_path, eval_every=OMIT)
        assert cli.cmd_sweep(str(path), [10, 20]) == 3
        captured = capsys.readouterr()
        assert "numeric abort: aborted at step t=16" in captured.err
        assert "T=" not in captured.out
        out = tmp_path / "out"
        assert not (out / "sweep_summary.json").exists()
        assert not list(out.glob("T_*/summary.json"))


class TestSeedLoop:
    """run and sweep share one seed loop; a multi-seed deterministic config
    keeps the output bytes of the separate loops each command had before."""

    CONFIG = {"problem": {"name": "random-game", "params": {"d1": 3, "d2": 4, "seed": 5}},
              "T": 12, "seeds": [2, 0, 5], "eval_every": 3, "record_every": 1}
    T_LIST = [12, 6, 9]
    # {"run": {path: text}, "sweep": {path: text}}, written before the loops
    # were shared.
    EXPECTED = json.loads(
        (Path(__file__).parent / "fixtures" / "deterministic_seeds.json").read_text())

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_deterministic_output_unchanged(self, tmp_path, capsys, command):
        assert_whole_output(tmp_path, self, command)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_fixed_step_solves_through_the_timed_name(self, tmp_path, monkeypatch, capsys,
                                                       command):
        # bench/worker.py times every solve by wrapping solver.universal_mirror_prox.
        solves = count_solves(monkeypatch)
        path = write_config(tmp_path, **self.CONFIG, mode={"kind": "fixed-step", "eta": 0.3})
        if command == "run":
            assert cli.cmd_run(str(path)) == 0
        else:
            assert cli.cmd_sweep(str(path), self.T_LIST) == 0
        assert solves == [1]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_deterministic_seeds_share_one_row(self, tmp_path, monkeypatch, capsys, command):
        calls = []
        solve = solver.universal_mirror_prox

        def counting(problem, config, oracle=None, **kwargs):
            calls.append((config.iterations, kwargs["oracles"]))
            return solve(problem, config, oracle, **kwargs)

        monkeypatch.setattr(solver, "universal_mirror_prox", counting)
        path = write_config(tmp_path, **self.CONFIG)
        if command == "run":
            assert cli.cmd_run(str(path)) == 0
        else:
            assert cli.cmd_sweep(str(path), self.T_LIST) == 0
        assert calls == [(12, {2: None})]

    def test_zero_noise_bound_solves_one_row(self, tmp_path, monkeypatch, capsys):
        calls = []
        solve = solver.universal_mirror_prox

        def counting(problem, config, oracle=None, **kwargs):
            calls.append(kwargs["oracles"])
            return solve(problem, config, oracle, **kwargs)

        monkeypatch.setattr(solver, "universal_mirror_prox", counting)
        game = {"name": "random-game", "params": {"d1": 4, "d2": 3, "seed": 1}}
        path = write_config(tmp_path, problem=game, noise={"bound": 0}, seeds=[0, 1, 2])
        assert cli.cmd_run(str(path)) == 0
        assert calls == [{0: None}]
        # sha256 of the files written while every seed was solved as its own row.
        trace = "8b0398f3112e68a4936cc26066b961694c62fab883eb98780b1007810934d0d4"
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in tree_bytes(tmp_path / "out").items()} == {
            "summary.json": "81780b3923a48f1cd3c8e108df4a9d5f0040937f646a11491581ae7b05d5a9d4",
            "trace_0.csv": trace, "trace_1.csv": trace, "trace_2.csv": trace}


class TestNoisyEveryStep:
    """A noisy config with every step recorded, whose gap column has empty and
    filled cells, keeps its whole output bytes (fixture taken before the
    solver evaluated the gaps in its loop)."""

    CONFIG = {"problem": {"name": "random-game", "params": {"d1": 5, "d2": 4, "seed": 0}},
              "T": 40, "noise": {"bound": 0.5}, "seeds": [3, 1], "eval_every": 5,
              "record_every": 1}
    T_LIST = [40, 25, 30]
    # {"run": {path: text}, "sweep": {path: text}}
    EXPECTED = json.loads(
        (Path(__file__).parent / "fixtures" / "noisy_every_step.json").read_text())

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_noisy_output_unchanged(self, tmp_path, capsys, command):
        assert_whole_output(tmp_path, self, command)


class TestFixedStepOutput:
    """A noisy fixed-step config keeps its whole output bytes (fixture taken
    before the CLI passed the fixed-step solver a ``SolverConfig``)."""

    CONFIG = {"problem": {"name": "random-game", "params": {"d1": 4, "d2": 3, "seed": 1}},
              "mode": {"kind": "fixed-step", "eta": 0.2}, "T": 9,
              "noise": {"bound": 0.3}, "seeds": [0, 1], "eval_every": 3, "record_every": 1}
    T_LIST = [6, 9]
    # {"run": {path: text}, "sweep": {path: text}}
    EXPECTED = json.loads(
        (Path(__file__).parent / "fixtures" / "fixed_step_sweep.json").read_text())

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_fixed_step_output_unchanged(self, tmp_path, capsys, command):
        assert_whole_output(tmp_path, self, command)


class TestTwinProductOutput:
    """A noisy square game, whose product geometry takes the twin prox path
    that every benchmark workload takes, keeps its whole output bytes in
    both modes (fixture taken before the geometry prepared the prox steps)."""

    GAME = {"problem": {"name": "random-game", "params": {"d1": 4, "d2": 4, "seed": 2}},
            "T": 30, "noise": {"bound": 0.5}, "seeds": [4, 1], "eval_every": 5,
            "record_every": 1}
    MODES = {"universal": {}, "fixed-step": {"mode": {"kind": "fixed-step", "eta": 0.3}}}
    T_LIST = [30, 10, 20]
    # {mode: {"run": {path: text}, "sweep": {path: text}}}
    FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "twin_product.json").read_text())

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_twin_output_unchanged(self, tmp_path, capsys, mode, command):
        assert make_problem("random-game", **self.GAME["problem"]["params"]).geom._twin
        case = SimpleNamespace(CONFIG={**self.GAME, **self.MODES[mode]}, T_LIST=self.T_LIST,
                               EXPECTED=self.FIXTURE[mode])
        assert_whole_output(tmp_path, case, command)


def summary_bounds(tmp_path, problem, noise):
    """summary.json's ``bounds`` block of a two-seed run, floats as ``float.hex``."""
    path = write_config(tmp_path, problem={"name": problem, "params": {}}, T=40, seeds=[0, 1],
                        noise=OMIT if noise is None else {"bound": noise})
    assert cli.cmd_run(str(path)) == 0
    bounds = json.loads((tmp_path / "out" / "summary.json").read_text())["bounds"]
    return {key: value.hex() if isinstance(value, float) else value
            for key, value in bounds.items()}


class TestSummaryBounds:
    """The theorem bounds of summary.json keep their exact floats, with no
    noise and with each noise bound (fixture taken while the noise variance
    was still a config key)."""

    # {problem: {str(noise bound or None): {key: hex float, bool or None}}}
    FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "summary_bounds.json").read_text())

    @pytest.mark.parametrize("noise", [None, 0, 0.3, 0.5])
    @pytest.mark.parametrize("problem", ["rps", "quadratic-ball", "l1-ball"])
    def test_bounds_unchanged(self, tmp_path, capsys, problem, noise):
        assert summary_bounds(tmp_path, problem, noise) == self.FIXTURE[problem][str(noise)]

    def test_overflowing_bounds_are_null(self, tmp_path, capsys):
        # alpha = 1e160, so alpha**2 overflows; it used to raise after the solve,
        # leaving trace_0.csv without a summary.json.
        path = write_config(tmp_path, T=5, g0=1e-60, noise={"bound": 1e100}, eval_every=OMIT)
        assert cli.cmd_run(str(path)) == 0
        bounds = json.loads((tmp_path / "out" / "summary.json").read_text())["bounds"]
        assert bounds["thm1_rhs"] is None and bounds["thm4_rhs"] is None
        assert math.isfinite(bounds["thm2_rhs"]) and bounds["thm3_rhs"] == bounds["thm2_rhs"]


def verify_rows(out):
    """The (name, status) rows of ``uvi verify``'s stdout, and its last line."""
    lines = out.splitlines()
    return [tuple(line.split()) for line in lines[:-1]], lines[-1]


class TestVerify:
    # The stdout of ``uvi verify --suite all``, which CI diffs against a
    # process run; while every row passes, it does not depend on the seed.
    ALL_ROWS, _ = verify_rows((Path(__file__).parent / "fixtures" / "verify_all.txt").read_text())

    def test_malformed_suite_name(self):
        assert cli.cmd_verify("bogus") == 2

    def test_lemma_suite_passes(self, capsys):
        assert cli.cmd_verify("lemmas", seed=42) == 0
        rows, last = verify_rows(capsys.readouterr().out)
        assert (rows, last) == (self.ALL_ROWS[:6], "VERIFY PASS (6 checks)")

    def test_invariants_suite_passes(self, capsys):
        assert cli.cmd_verify("invariants", seed=42) == 0
        rows, last = verify_rows(capsys.readouterr().out)
        assert (rows, last) == (self.ALL_ROWS[6:], "VERIFY PASS (11 checks)")

    def test_broken_catalog_problem_fails(self, monkeypatch, capsys):
        catalog = operators.builtin_problems()
        ball = catalog["quadratic-ball"]
        catalog["quadratic-ball"] = lambda: dataclasses.replace(ball(), g_bound=0.5)
        monkeypatch.setattr(operators, "builtin_problems", lambda: catalog)
        assert cli.cmd_verify("invariants", seed=42) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "FAIL" in line] == [
            "adapter-quadratic-ball  FAIL  G bound at sample 0",
            "solver-quadratic-ball   FAIL  solver aborted: aborted at step t=1, eta=1.41421: "
            "movement/eta ratio 0.707107 exceeds operator bound 0.5",
            "VERIFY FAIL (2/11 checks failed)",
        ]


class TestMain:
    def test_run_subcommand(self, tmp_path):
        path = write_config(tmp_path, T=2, eval_every=2)
        assert cli.main(["run", str(path)]) == 0

    def test_sweep_t_list_parsing(self, tmp_path):
        path = write_config(tmp_path, T=2, eval_every=1)
        assert cli.main(["sweep", str(path), "--T", "10,20,40"]) == 0

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_verify_seed_via_argparse_exits_2(self, seed, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--suite", "lemmas", "--seed", seed])
        assert err.value.code == 2
        assert "seed" in capsys.readouterr().err

    def test_bad_suite_via_argparse_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--suite", "bogus"])
        assert err.value.code == 2
