"""Self-tests of the benchmark's output checks.

    python3 -m pytest -q bench/test_checks.py

Each check must pass on fresh output of the real CLI and reject a copy of
that output with one deliberate corruption.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from uvi import cli  # noqa: E402

FULL_RUN = workloads.Operation("run", {
    "problem": {"name": "random-game", "params": {"d1": 20, "d2": 30, "seed": 3}},
    "T": 400,
    "noise": {"bound": 0.5},
    "seeds": [1, 2],
    "record_every": 1,
    "eval_every": 1,
})


def _run_cli(op, tmp: Path) -> Path:
    config = tmp / "config.json"
    config.write_text(json.dumps(op.config), encoding="utf-8")
    out = tmp / "out"
    previous = os.environ.get("UVI_OUTPUT_DIR")
    os.environ["UVI_OUTPUT_DIR"] = str(out)
    try:
        assert cli.main(op.argv(str(config))) == 0
    finally:
        if previous is None:
            del os.environ["UVI_OUTPUT_DIR"]
        else:
            os.environ["UVI_OUTPUT_DIR"] = previous
    return out


@pytest.fixture(scope="module")
def full_out(tmp_path_factory):
    return _run_cli(FULL_RUN, tmp_path_factory.mktemp("full"))


@pytest.fixture(scope="module")
def sweep_op():
    return next(op for op in workloads.build("small-stoch-sweep", 0)
                if op.config["problem"]["name"] == "l1-ball")


@pytest.fixture(scope="module")
def sweep_out(sweep_op, tmp_path_factory):
    return _run_cli(sweep_op, tmp_path_factory.mktemp("sweep"))


@pytest.fixture
def copy(full_out, tmp_path):
    target = tmp_path / "copy"
    shutil.copytree(full_out, target)
    return target


def _failures(op, out):
    return {solve: p for solve, p in checks.check_operation(op, out).items() if p}


def _edit_csv(path: Path, row: int, column: int, value: str):
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_summary(path: Path, seed: int, **values):
    summary = json.loads(path.read_text(encoding="utf-8"))
    for entry in summary["per_seed"]:
        if entry["seed"] == seed:
            entry.update(values)
    path.write_text(json.dumps(summary), encoding="utf-8")


def test_fresh_run_passes(full_out):
    assert _failures(FULL_RUN, full_out) == {}


def test_fresh_sweep_passes(sweep_op, sweep_out):
    assert _failures(sweep_op, sweep_out) == {}


def test_rejects_perturbed_eta(copy):
    trace = copy / "trace_1.csv"
    eta = float(trace.read_text().splitlines()[200].split(",")[1])
    _edit_csv(trace, 200, 1, "%.17g" % (eta * (1 - 1e-9)))
    failures = _failures(FULL_RUN, copy)
    assert list(failures) == [(400, 1)]
    assert "recomputed" in failures[(400, 1)][0]


def test_rejects_increasing_eta(copy):
    trace = copy / "trace_2.csv"
    eta = float(trace.read_text().splitlines()[50].split(",")[1])
    _edit_csv(trace, 51, 1, "%.17g" % (eta * 1.5))
    assert any("eta increases" in p for p in _failures(FULL_RUN, copy)[(400, 2)])


def test_rejects_negative_gap(copy):
    _edit_csv(copy / "trace_2.csv", 10, 3, "-1e-06")
    assert any("negative" in p for p in _failures(FULL_RUN, copy)[(400, 2)])


def test_rejects_negative_final_gap(copy):
    _edit_summary(copy / "summary.json", 1, final_gap=-1e-06)
    assert any("negative" in p for p in _failures(FULL_RUN, copy)[(400, 1)])


def test_rejects_z_sq_above_g_squared(copy):
    g = checks.operator_bound(FULL_RUN.config["problem"], 0.5)
    _edit_summary(copy / "summary.json", 2, max_z_sq=g * g * 1.001)
    assert any("max_z_sq" in p for p in _failures(FULL_RUN, copy)[(400, 2)])


def test_rejects_trace_z_sq_above_g_squared(copy):
    g = checks.operator_bound(FULL_RUN.config["problem"], 0.5)
    _edit_csv(copy / "trace_1.csv", 400, 2, "%.17g" % (g * g * 1.001))
    assert any("exceeds G^2" in p for p in _failures(FULL_RUN, copy)[(400, 1)])


def test_rejects_regret_lhs_above_rhs(copy):
    summary = json.loads((copy / "summary.json").read_text())
    rhs = next(e for e in summary["per_seed"] if e["seed"] == 1)["lemma3_rhs"]
    _edit_summary(copy / "summary.json", 1, lemma3_lhs=rhs + 1e-3)
    assert any("regret bound" in p for p in _failures(FULL_RUN, copy)[(400, 1)])


def test_rejects_movement_ratio_above_g(copy):
    g = checks.operator_bound(FULL_RUN.config["problem"], 0.5)
    _edit_summary(copy / "summary.json", 1, max_xy_ratio=g * 1.001)
    assert any("max_xy_ratio" in p for p in _failures(FULL_RUN, copy)[(400, 1)])


def test_rejects_sweep_without_decay(sweep_op, sweep_out, tmp_path):
    target = tmp_path / "sweep"
    shutil.copytree(sweep_out, target)
    t_list = list(sweep_op.t_list)
    sweep = json.loads((target / "sweep_summary.json").read_text())
    means = sweep["mean_final_gaps"]
    # Raise every gap of the longest budget consistently, so that only the
    # decay check can object.
    factor = 2.0 * means[0] / means[-1]
    last = target / f"T_{t_list[-1]}"
    summary = json.loads((last / "summary.json").read_text())
    for entry in summary["per_seed"]:
        entry["final_gap"] *= factor
        trace = last / f"trace_{entry['seed']}.csv"
        rows = len(trace.read_text().splitlines())
        _edit_csv(trace, rows - 1, 3, repr(entry["final_gap"]))
    summary["mean_final_gap"] *= factor
    (last / "summary.json").write_text(json.dumps(summary))
    means[-1] = summary["mean_final_gap"]
    sweep["rate_fit"]["exponent"] = checks.fit_exponent(t_list, means)
    (target / "sweep_summary.json").write_text(json.dumps(sweep))
    failures = _failures(sweep_op, target)
    assert len(failures) == len(sweep_op.solves)
    assert all(any("does not fall" in p for p in f) for f in failures.values())
