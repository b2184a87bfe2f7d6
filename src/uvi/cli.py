"""Experiment runner and verification suites.

Subcommands:

* ``uvi run <config.json>`` - one solver run per seed, writing
  ``trace_<seed>.csv`` and ``summary.json`` into the output directory.
* ``uvi sweep <config.json> --T 500,1000,2000,4000`` - repeats the run
  across iteration budgets and fits the log-log rate exponent. Each seed
  is solved once, at max(T), with every other budget read off an exact
  checkpoint of that run (see ``uvi.solver``), so each ``T_<T>/``
  directory is byte-identical to a separate ``uvi run`` with that T. The
  T list may be unsorted and hold duplicates; the ``T=`` lines and
  ``sweep_summary.json`` follow it as given.
  Summaries are written only once every seed has been solved: after a
  numeric abort the ``T_<T>/`` directories hold the trace CSVs of the
  seeds solved before the failing one, and no ``summary.json`` or
  ``sweep_summary.json`` is written.
* ``uvi verify --suite {lemmas,invariants,all} --seed N`` - executes the
  inequality oracles and the solver/operator invariant sweeps, printing a
  pass/fail table.

Config schema (JSON):

    {
      "problem":      {"name": "rps", "params": {}},
      "mode":         {"kind": "universal"}            // or
                      {"kind": "fixed-step", "eta": 0.5},
      "T":            1000,
      "g0":           1.0,
      "noise":        {"bound": 0.5, "sigma_sq": null},  // optional
      "seeds":        [0, 1],
      "eval_every":   100,          // optional, default: T (final only)
      "record_every": 1,            // optional
      "output_dir":   "out"         // UVI_OUTPUT_DIR overrides
    }

Per-seed randomness uses numpy's PCG64: SeedSequence(seed) is split into a
stream for oracle noise and a reserved stream for verification sampling, so
traces are reproducible byte-for-byte across runs and platforms. CSV floats
are written with 17 significant digits ('.' decimal separator), enough to
round-trip exactly. Exit codes: 0 success, 1 verification failure, 2 config
error, 3 numeric abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import analysis, gap, operators, solver
from .geometry import EntropicSimplex

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    problem_name: str
    problem_params: dict
    mode: str
    eta: Optional[float]
    iterations: int
    g0: float
    noise_bound: Optional[float]
    noise_sigma_sq: Optional[float]
    seeds: List[int]
    eval_every: Optional[int]
    record_every: int
    output_dir: str
    problem: Optional[operators.VIProblem] = field(default=None, repr=False)

    @property
    def stochastic(self) -> bool:
        return self.noise_bound is not None

    @property
    def gap_every(self) -> int:
        """Gap-evaluation spacing; without ``eval_every``, only step T."""
        return self.iterations if self.eval_every is None else self.eval_every

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        try:
            problem = doc["problem"]
            name = problem["name"]
            params = problem.get("params", {}) or {}
            mode_doc = doc.get("mode", {"kind": "universal"})
            kind = mode_doc.get("kind", "universal")
            eta = mode_doc.get("eta")
            iterations = int(doc["T"])
            g0 = float(doc.get("g0", 1.0))
            noise = doc.get("noise")
            noise_bound = None if noise is None else float(noise["bound"])
            noise_sigma = None if noise is None else noise.get("sigma_sq")
            seeds = [int(s) for s in doc.get("seeds", [0])]
            eval_every = doc.get("eval_every")
            eval_every = None if eval_every is None else int(eval_every)
            record_every = int(doc.get("record_every", 1))
            output_dir = str(doc.get("output_dir", "uvi-out"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc

        cfg = cls(
            problem_name=name,
            problem_params=params,
            mode=kind,
            eta=None if eta is None else float(eta),
            iterations=iterations,
            g0=g0,
            noise_bound=noise_bound,
            noise_sigma_sq=None if noise_sigma is None else float(noise_sigma),
            seeds=seeds,
            eval_every=eval_every,
            record_every=record_every,
            output_dir=output_dir,
        )
        cfg.validate()
        return cfg

    def validate(self):
        # SolverConfig checks T, g0, the mode, eta and record_every; the
        # oracle's rule checks the noise bound and sigma_sq.
        try:
            self.solver_config()
            if self.stochastic:
                operators._noise_sigma_sq(self.noise_bound, self.noise_sigma_sq)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.stochastic and not self.seeds:
            raise ConfigError("stochastic mode requires a non-empty seed list")
        if not self.seeds:
            self.seeds = [0]
        if self.gap_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if self.gap_every % self.record_every != 0:
            raise ConfigError("eval_every must be a multiple of record_every")
        if self.problem is None:
            # Built once per command; fails early on unknown names or bad params.
            self.problem = operators.make_problem(self.problem_name, **self.problem_params)

    def solver_config(self) -> solver.SolverConfig:
        return solver.SolverConfig(
            iterations=self.iterations,
            g0=self.g0,
            mode=self.mode,
            eta=self.eta,
            record_every=self.record_every,
        )


def _oracle_for_seed(config, problem, seed: int) -> Optional[operators.StochasticOracle]:
    if not config.stochastic:
        return None
    noise_stream, _verify_stream = np.random.SeedSequence(seed).spawn(2)
    return operators.StochasticOracle(
        base=problem,
        noise_bound=config.noise_bound,
        sigma_sq=config.noise_sigma_sq,
        rng_seed=noise_stream,
    )


def _fmt(x: float) -> str:
    return "%.17g" % x


def _write_trace_csv(path: Path, problem, trace, eval_every: int):
    last_t = trace.records[-1].t
    lines = ["t,eta,z_sq,gap_of_running_avg"]
    for rec in trace.records:
        scheduled = rec.t % eval_every == 0 or rec.t == last_t
        gap_str = _fmt(gap.dual_gap(problem, rec.x_prefix / rec.t)) if scheduled else ""
        lines.append(f"{rec.t},{_fmt(rec.eta)},{_fmt(rec.z_sq)},{gap_str}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _output_dir(config) -> Path:
    return Path(os.environ.get("UVI_OUTPUT_DIR", config.output_dir))


def _solve(config: ExperimentConfig, seed: int, checkpoints=()) -> solver.RunTrace:
    """One seed's run of ``config.iterations`` steps, snapshotting ``checkpoints``."""
    problem = config.problem
    oracle = _oracle_for_seed(config, problem, seed)
    # Called through the module so that wrappers installed on it see every solve.
    if config.mode == "universal":
        return solver.universal_mirror_prox(
            problem, config.solver_config(), oracle, checkpoints=checkpoints
        )
    return solver.fixed_step_mirror_prox(
        problem, config.eta, config.iterations,
        record_every=config.record_every, oracle=oracle, checkpoints=checkpoints,
    )


def _seed_entry(config: ExperimentConfig, seed: int, trace, out: Path) -> dict:
    """Write one seed's trace CSV and return its summary entry."""
    problem = config.problem
    _write_trace_csv(out / f"trace_{seed}.csv", problem, trace, config.gap_every)
    entry = {
        "seed": seed,
        "final_gap": gap.dual_gap(problem, trace.x_avg),
        "eta_final": trace.eta_final,
        "max_xy_ratio": trace.max_xy_ratio,
        "max_yy_ratio": trace.max_yy_ratio,
        "max_z_sq": trace.max_z_sq,
    }
    if config.record_every == 1:
        lhs, rhs = analysis.regret_bound_sides(problem, trace)
        entry["lemma3_lhs"] = lhs
        entry["lemma3_rhs"] = rhs
    return entry


def run_experiment(config: ExperimentConfig, out_dir: Optional[Path] = None) -> dict:
    """Execute one run per seed; write CSV traces and summary.json."""
    out = _output_dir(config) if out_dir is None else Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    per_seed = [_seed_entry(config, seed, _solve(config, seed), out)
                for seed in config.seeds]
    summary = _write_summary(config, per_seed, out)
    return {"summary": summary, "out_dir": out}


def _write_summary(config: ExperimentConfig, per_seed: List[dict], out: Path) -> dict:
    """Aggregate the per-seed entries and theorem bounds into summary.json."""
    problem = config.problem
    mean_gap = float(np.mean([e["final_gap"] for e in per_seed]))
    g_total = problem.g_bound + (config.noise_bound or 0.0)
    sigma_sq = None
    if config.stochastic:
        sigma_sq = operators._noise_sigma_sq(config.noise_bound, config.noise_sigma_sq)
    report = analysis.theorem_bounds(
        problem, config.solver_config(), sigma_sq=sigma_sq, g_bound=g_total
    )
    report.observed_gap = mean_gap
    if per_seed and "lemma3_lhs" in per_seed[0]:
        report.lemma3_lhs = per_seed[0]["lemma3_lhs"]
        report.lemma3_rhs = per_seed[0]["lemma3_rhs"]

    summary = {
        "problem": {
            "name": problem.name,
            "params": config.problem_params,
            "g_bound": problem.g_bound,
            "smoothness": problem.smoothness,
            "diameter": problem.geom.diameter(),
            "gap_tolerance": problem.gap_tolerance,
        },
        "mode": config.mode,
        "eta": config.eta,
        "T": config.iterations,
        "g0": config.g0,
        "noise": None
        if not config.stochastic
        else {"bound": config.noise_bound, "sigma_sq": sigma_sq},
        "eval_every": config.gap_every,
        "record_every": config.record_every,
        "seeds": config.seeds,
        "per_seed": per_seed,
        "mean_final_gap": mean_gap,
        "bounds": {
            "alpha": report.alpha,
            "thm1_rhs": report.thm1_rhs,
            "thm2_rhs": report.thm2_rhs,
            "thm3_rhs": report.thm3_rhs,
            "thm4_rhs": report.thm4_rhs,
            "observed_gap": report.observed_gap,
            "lemma3_lhs": report.lemma3_lhs,
            "lemma3_rhs": report.lemma3_rhs,
            "log_regime_clamped": report.log_regime_clamped,
        },
    }
    (out / "summary.json").write_text(
        json.dumps(_json_safe(summary), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    return summary


def cmd_run(config_path: str) -> int:
    try:
        config = ExperimentConfig.from_file(config_path)
    except (ConfigError, operators.UnknownProblemError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = run_experiment(config)
    except solver.SolverError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(
        f"run complete: {len(config.seeds)} seed(s), "
        f"mean final gap {result['summary']['mean_final_gap']:.6g} "
        f"-> {result['out_dir']}"
    )
    return EXIT_OK


def cmd_sweep(config_path: str, t_list: List[int]) -> int:
    try:
        config = ExperimentConfig.from_file(config_path)
        if len(t_list) < 1:
            raise ConfigError("sweep needs at least one T value")
        # Every budget is checked before the first solve writes anything.
        subs = {T: dataclasses.replace(config, iterations=int(T)) for T in t_list}
        for sub in subs.values():
            sub.validate()
    except (ConfigError, operators.UnknownProblemError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    base_out = _output_dir(config)
    outs = {T: base_out / f"T_{T}" for T in subs}
    for out in outs.values():
        out.mkdir(parents=True, exist_ok=True)
    longest = subs[max(subs)]
    per_seed = {T: [] for T in subs}
    try:
        # One solve per seed; only that seed's trace is held at a time.
        for seed in config.seeds:
            trace = _solve(longest, seed, checkpoints=subs)
            for T, sub in subs.items():
                per_seed[T].append(_seed_entry(sub, seed, trace.prefix(T), outs[T]))
            del trace
    except solver.SolverError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    mean_gaps = {T: _write_summary(sub, per_seed[T], outs[T])["mean_final_gap"]
                 for T, sub in subs.items()}
    points = [(T, mean_gaps[T]) for T in t_list]
    for T, mean_gap in points:
        print(f"T={T}: mean final gap {mean_gap:.6g}")

    sweep_summary = {"t_values": [int(t) for t, _ in points],
                     "mean_final_gaps": [g for _, g in points]}
    try:
        fit = analysis.rate_fit(points)
        sweep_summary["rate_fit"] = fit
        print(f"rate fit: exponent {fit['exponent']:.4f}, r2 {fit['r2']:.4f}")
    except ValueError as exc:
        sweep_summary["rate_fit"] = None
        print(f"rate fit skipped: {exc}")
    (base_out / "sweep_summary.json").write_text(
        json.dumps(_json_safe(sweep_summary), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _check_lemma_oracles(seed: int):
    rng = np.random.default_rng(seed)
    checks = []
    for label, runner in (
        ("lemma4", lambda a0, s, a: analysis.lemma4_check(a0, s, a)),
        ("lemma5", lambda a0, s, a: analysis.lemma5_check(a0, s, a)),
        ("lemma7", lambda a0, s, a: analysis.lemma7_check(s)),
        ("lemma8", lambda a0, s, a: analysis.lemma8_check(s)),
    ):
        failure = ""
        for i in range(1000):
            n = int(rng.integers(1, 201))
            a = float(rng.uniform(1e-3, 10.0))
            a0 = float(rng.uniform(1e-3, 10.0))
            seq = rng.uniform(0.0, a, size=n)
            result = runner(a0, seq, a)
            if not result["holds"]:
                failure = (f"instance {i}: n={n} a0={a0:.6g} a={a:.6g} "
                           f"lhs={result['lhs']:.6g} rhs={result['rhs']:.6g}")
                break
        checks.append((f"{label}-random-1000", failure == "", failure))

    for d, n in ((3, 10), (5, 50)):
        result = analysis.prop1_mc(EntropicSimplex(d), n, 10_000, seed=seed)
        detail = f"lhs={result['lhs_estimate']:.4f} rhs={result['rhs']:.4f}"
        checks.append((f"prop1-simplex-d{d}-n{n}", result["holds"], detail))
    return checks


def _check_problem_invariants(problem, seed: int, pairs: int = 1000):
    rng = np.random.default_rng(seed)
    geom = problem.geom
    monotone = compatible = convex = bounded = smooth = True
    detail = ""
    lips = problem.smoothness
    for i in range(pairs):
        x, y = geom.sample(rng), geom.sample(rng)
        fx, fy = problem.operator(x), problem.operator(y)
        if float((x - y) @ (fx - fy)) < -1e-9:
            monotone, detail = False, f"monotonicity pair {i}"
            break
        if problem.gap(x, y) > float(fx @ (x - y)) + 1e-9:
            compatible, detail = False, f"compatibility pair {i}"
            break
        lam = float(rng.uniform())
        z = geom.sample(rng)
        mixed = problem.gap(lam * x + (1 - lam) * z, y)
        if mixed > lam * problem.gap(x, y) + (1 - lam) * problem.gap(z, y) + 1e-9:
            convex, detail = False, f"convexity triple {i}"
            break
        if geom.dual_norm(fx) > problem.g_bound + 1e-9:
            bounded, detail = False, f"G bound at sample {i}"
            break
        if lips is not None:
            if geom.dual_norm(fx - fy) > lips * geom.primal_norm(x - y) * (1 + 1e-6) + 1e-12:
                smooth, detail = False, f"L bound pair {i}"
                break
    gaps_ok = True
    for i in range(100):
        if gap.dual_gap(problem, geom.sample(rng)) < -1e-9:
            gaps_ok, detail = False, f"negative gap sample {i}"
            break
    if gaps_ok and problem.known_solution is not None:
        if gap.dual_gap(problem, problem.known_solution) > 1e-9:
            gaps_ok, detail = False, "known solution has positive gap"
    ok = monotone and compatible and convex and bounded and smooth and gaps_ok
    return ok, detail


def _check_solver_invariants(problem, seed: int, noise_bound: float = 0.0, T: int = 300):
    config = solver.SolverConfig(iterations=T, g0=1.0, record_every=1)
    oracle = None
    if noise_bound > 0:
        oracle = operators.StochasticOracle(problem, noise_bound, rng_seed=seed)
    trace = solver.universal_mirror_prox(problem, config, oracle)
    g_cap = trace.g_bound

    etas = [rec.eta for rec in trace.records]
    if any(b > a + 1e-15 for a, b in zip(etas, etas[1:])):
        return False, "eta not non-increasing"
    if trace.max_xy_ratio > g_cap + 1e-9 or trace.max_yy_ratio > g_cap + 1e-9:
        return False, f"movement ratio {max(trace.max_xy_ratio, trace.max_yy_ratio):.6g} > G"
    if trace.max_z_sq > g_cap**2 + 1e-9:
        return False, f"Z^2 {trace.max_z_sq:.6g} > G^2"
    geom = problem.geom
    if not geom.contains(trace.x_avg, tol=1e-10):
        return False, "averaged output infeasible"
    for rec in trace.records[:: max(1, T // 50)]:
        if not (geom.contains(rec.x, tol=1e-10) and geom.contains(rec.y, tol=1e-10)):
            return False, f"iterate infeasible at t={rec.t}"

    if oracle is None:
        lhs, rhs = analysis.regret_bound_sides(problem, trace)
        if lhs > rhs + 1e-6:
            return False, f"regret bound violated: lhs={lhs:.6g} rhs={rhs:.6g}"
        rng = np.random.default_rng(seed + 1)
        for i in range(20):
            x = geom.sample(rng)
            delta_avg = problem.gap(trace.x_avg, x) * T
            delta_sum = sum(problem.gap(rec.x, x) for rec in trace.records)
            linear_sum = sum(float(rec.g @ (rec.x - x)) for rec in trace.records)
            if not (delta_avg <= delta_sum + 1e-6 and delta_sum <= linear_sum + 1e-6):
                return False, f"gap-sum chain violated at probe {i}"
    else:
        oracle2 = operators.StochasticOracle(problem, noise_bound, rng_seed=seed)
        trace2 = solver.universal_mirror_prox(problem, config, oracle2)
        if not np.array_equal(trace.x_avg, trace2.x_avg):
            return False, "stochastic rerun with same seed differs"
    return True, ""


def cmd_verify(suite: str, seed: int = 42) -> int:
    if suite not in ("lemmas", "invariants", "all"):
        print(f"error: unknown suite {suite!r}", file=sys.stderr)
        return EXIT_CONFIG
    checks = []
    if suite in ("lemmas", "all"):
        checks.extend(_check_lemma_oracles(seed))
    if suite in ("invariants", "all"):
        for name in sorted(operators.builtin_problems()):
            problem = operators.make_problem(name)
            ok, detail = _check_problem_invariants(problem, seed)
            checks.append((f"adapter-{name}", ok, detail))
        for name in ("rps", "quadratic-ball", "l1-ball"):
            problem = operators.make_problem(name)
            ok, detail = _check_solver_invariants(problem, seed)
            checks.append((f"solver-{name}", ok, detail))
        rps = operators.make_problem("rps")
        ok, detail = _check_solver_invariants(rps, seed, noise_bound=0.25)
        checks.append(("solver-rps-stochastic", ok, detail))

    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f"  {detail}" if detail and not ok else ""
        print(f"{name:<{width}}  {status}{suffix}")
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        print(f"VERIFY FAIL ({len(failed)}/{len(checks)} checks failed)")
        return EXIT_VERIFY_FAIL
    print(f"VERIFY PASS ({len(checks)} checks)")
    return EXIT_OK


def _parse_t_list(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad T list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty T list")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"T values must be >= 1, got {text!r}")
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="uvi", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("config")

    p_sweep = sub.add_parser("sweep", help="repeat a config across T values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--T", dest="t_list", type=_parse_t_list, required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all",
                          choices=["lemmas", "invariants", "all"])
    p_verify.add_argument("--seed", type=int, default=42)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.t_list)
    return cmd_verify(args.suite, args.seed)


if __name__ == "__main__":
    sys.exit(main())
