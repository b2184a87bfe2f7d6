"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Shared fixtures run the deterministic and stochastic sweeps once and feed
criteria 1-6 and 8; every trace produced here is also checked against the
movement invariants (criterion 5). A sweep solves each problem and seed once
at its largest T and reads the shorter budgets off exact checkpoints; the
stochastic sweeps solve their seeds together, in one batch per problem.
"""

import json
import time

import numpy as np
import pytest

import uvi
import uvi.cli as cli
from uvi.analysis import (
    lemma_oracle_checks,
    rate_fit,
    regret_bound_sides,
)
from uvi.operators import StochasticOracle, make_problem, matrix_game
from uvi.solver import SolverConfig, fixed_step_mirror_prox, universal_mirror_prox

ASYM = [[0.0, -1.0], [1.0, 0.0]]
SWEEP_T = (500, 1000, 2000, 4000)
NOISE_BOUND = 0.5
N_SEEDS = 20


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}  {name}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def seed_oracle(problem, seed, noise):
    """The oracle of ``seed``, on the noise stream the CLI gives that seed."""
    stream = np.random.SeedSequence(seed).spawn(2)[0]
    return StochasticOracle(problem, noise, rng_seed=stream)


def run_universal(problem, T, *, g0, record_every=None, checkpoints=(), oracles=None):
    """A deterministic run, or with ``oracles`` a batch of seeds."""
    config = SolverConfig(
        iterations=T, g0=g0, record_every=record_every or T
    )
    return universal_mirror_prox(problem, config, checkpoints=checkpoints, oracles=oracles)


@pytest.fixture(scope="module")
def trace_registry():
    return []


@pytest.fixture(scope="module")
def game():
    return matrix_game(ASYM, name="asym-2x2")


@pytest.fixture(scope="module")
def l1():
    return make_problem("l1-ball")


@pytest.fixture(scope="module")
def det_sweeps(game, l1, trace_registry):
    out = {}
    for key, problem in (("game", game), ("l1", l1)):
        started = time.perf_counter()
        points = []
        run = run_universal(problem, max(SWEEP_T), g0=problem.g_bound, checkpoints=SWEEP_T)
        for T in SWEEP_T:
            trace = run.prefix(T)
            trace_registry.append((f"{key}-det-T{T}", trace))
            points.append((T, uvi.dual_gap(problem, trace.x_avg)))
        out[key] = {"points": points, "seconds": time.perf_counter() - started}
    return out


@pytest.fixture(scope="module")
def stoch_sweeps(game, l1, trace_registry):
    out = {}
    for key, problem, t_values in (
        ("game", game, (1000, 4000)),
        ("l1", l1, SWEEP_T),
    ):
        g0 = problem.g_bound + NOISE_BOUND
        started = time.perf_counter()
        gaps = {T: [] for T in t_values}
        kept = {T: [] for T in t_values}
        oracles = {seed: seed_oracle(problem, seed, NOISE_BOUND) for seed in range(N_SEEDS)}
        batch = run_universal(problem, max(t_values), g0=g0, checkpoints=t_values,
                              oracles=oracles)
        for seed, run in batch.traces.items():
            for T in t_values:
                trace = run.prefix(T)
                if seed < 3:
                    kept[T].append((f"{key}-stoch-T{T}-s{seed}", trace))
                gaps[T].append(uvi.dual_gap(problem, trace.x_avg))
        for T in t_values:
            trace_registry.extend(kept[T])
        means = {T: float(np.mean(gaps[T])) for T in t_values}
        out[key] = {"means": means, "seconds": time.perf_counter() - started}
    return out


@pytest.fixture(scope="module")
def full_runs(game, l1, trace_registry):
    out = {}
    for key, problem in (("game", game), ("l1", l1)):
        trace = run_universal(problem, 500, g0=problem.g_bound, record_every=1,
                              checkpoints=(100, 250))
        trace_registry.append((f"{key}-full-T500", trace))
        out[key] = (problem, trace)
    return out


def test_criterion_01_smooth_deterministic_rate(det_sweeps):
    data = det_sweeps["game"]
    fit = rate_fit(data["points"])
    ok = fit["exponent"] <= -0.8 and fit["r2"] >= 0.95 and data["seconds"] < 5.0
    report(
        1,
        "smooth deterministic rate (2x2 game)",
        ok,
        f"exponent={fit['exponent']:.3f} r2={fit['r2']:.3f} time={data['seconds']:.1f}s",
    )


def test_criterion_02_nonsmooth_deterministic_rate(det_sweeps):
    data = det_sweeps["l1"]
    fit = rate_fit(data["points"])
    ok = -0.7 <= fit["exponent"] <= -0.35 and data["seconds"] < 5.0
    report(
        2,
        "non-smooth deterministic rate (l1-ball)",
        ok,
        f"exponent={fit['exponent']:.3f} time={data['seconds']:.1f}s",
    )


def test_criterion_03_stochastic_smooth_decay(stoch_sweeps):
    means = stoch_sweeps["game"]["means"]
    seconds = stoch_sweeps["game"]["seconds"]
    ratio = means[4000] / means[1000]
    ok = ratio <= 0.6 and seconds < 60.0
    report(
        3,
        "stochastic smooth decay (game, 20 seeds)",
        ok,
        f"mean4000/mean1000={ratio:.3f} time={seconds:.1f}s",
    )


def test_criterion_04_stochastic_nonsmooth_decay(stoch_sweeps):
    means = stoch_sweeps["l1"]["means"]
    values = [means[T] for T in SWEEP_T]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    ratio = means[4000] / means[1000]
    ok = decreasing and ratio <= 0.65
    report(
        4,
        "stochastic non-smooth decay (l1-ball, 20 seeds)",
        ok,
        f"means={['%.2e' % v for v in values]} ratio={ratio:.3f}",
    )


def test_criterion_05_movement_invariants(
    det_sweeps, stoch_sweeps, full_runs, trace_registry
):
    worst = ""
    ok = True
    for label, trace in trace_registry:
        cap = trace.g_bound
        ratios = max(trace.max_xy_ratio, trace.max_yy_ratio)
        z_max = np.sqrt(trace.max_z_sq)
        if ratios > cap + 1e-9 or z_max > cap + 1e-9:
            ok = False
            worst = f"{label}: ratio={ratios:.6g} Z={z_max:.6g} G={cap:.6g}"
            break
    report(
        5,
        f"movement/step-size invariants over {len(trace_registry)} runs",
        ok,
        worst or "all within G + 1e-9",
    )


def test_criterion_06_regret_bound_prefixes(full_runs):
    ok = True
    details = []
    for key, (problem, trace) in full_runs.items():
        for T in (100, 250, 500):
            lhs, rhs = regret_bound_sides(problem, trace.prefix(T))
            details.append(f"{key}@{T}: {lhs:.3f}<={rhs:.3f}")
            ok &= lhs <= rhs + 1e-6
    report(6, "regret bound along runs", ok, "; ".join(details))


def test_criterion_07_inequality_oracles():
    failed = [f"{name}: {detail}" for name, ok, detail in lemma_oracle_checks(42) if not ok]
    report(7, "appendix inequality oracles", not failed,
           "; ".join(failed) or "4x1000 instances + prop1")


def test_criterion_08_universal_vs_tuned_baseline(game, det_sweeps):
    baseline = fixed_step_mirror_prox(game, SolverConfig(
        iterations=4000, mode="fixed-step", eta=1.0 / game.smoothness, record_every=4000))
    base_gap = uvi.dual_gap(game, baseline.x_avg)
    uni_gap = dict(det_sweeps["game"]["points"])[4000]
    ok = uni_gap <= 10.0 * base_gap
    report(
        8,
        "universal within 10x of tuned fixed step",
        ok,
        f"universal={uni_gap:.3e} fixed(1/L)={base_gap:.3e}",
    )


def test_criterion_09_adapter_correctness(catalog_adapter_invariants):
    failed = [f"{name}: {detail}"
              for name, (ok, detail) in catalog_adapter_invariants.items() if not ok]
    report(9, "adapter invariants on the catalog (1000 pairs each)", not failed,
           "; ".join(failed))


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "problem": {"name": "l1-ball", "params": {}},
        "mode": {"kind": "universal"},
        "T": 200,
        "g0": 1.0,
        "noise": {"bound": 0.25},
        "seeds": [0, 1],
        "eval_every": 50,
        "record_every": 1,
        "output_dir": str(tmp_path / "runA"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")

    def outputs():
        return {f.name: f.read_bytes() for f in sorted((tmp_path / "runA").iterdir())}

    assert cli.cmd_run(str(path)) == 0
    first = outputs()
    assert cli.cmd_run(str(path)) == 0
    ok = outputs() == first and sorted(first) == ["summary.json", "trace_0.csv", "trace_1.csv"]
    report(10, "byte-identical CSVs and summary across reruns", ok)
