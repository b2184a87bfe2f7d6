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
  ``sweep_summary.json`` follow it as given, and the rate fit takes each
  distinct budget once.
* ``uvi verify --suite {lemmas,invariants,all} --seed N`` - prints the
  pass/fail table of the inequality oracles, the invariant sweeps or both,
  the suites of ``uvi.analysis.SUITES``, which the tests assert too.

A config's seeds are solved together, in one batch (``oracles=`` in
``uvi.solver``); without noise, or with a noise bound of 0, every seed
runs the same solve, so it is solved once, as one row, and every seed
reads that trace. The solver evaluates the gap column of each trace CSV
as it runs, so a trace holds no d-vector however many steps it records.
Files are written only once every seed has been solved: a numeric abort,
a failed gap check included, writes no trace CSV and no ``summary.json``
or ``sweep_summary.json``.

Config schema (JSON):

    {
      "problem":      {"name": "rps", "params": {}},  // integer params such as
                                                      // d1 follow T's rule
      "mode":         {"kind": "universal"}            // or
                      {"kind": "fixed-step", "eta": 0.5},  // eta: fixed-step only
      "T":            1000,         // integer; 1e3 passes, 2.7 and true do not
      "g0":           1.0,          // a number; true is not one
      "noise":        {"bound": 0.5},  // optional; summary.json adds sigma_sq = bound^2
      "seeds":        [0, 1],       // distinct nonnegative integers
      "eval_every":   100,          // optional integer, default: final step only
      "record_every": 1,            // optional integer
      "output_dir":   "out"         // a string; UVI_OUTPUT_DIR overrides
    }

Per-seed randomness uses numpy's PCG64: the oracle noise of a seed is drawn
from the first child of SeedSequence(seed), so traces are reproducible
byte-for-byte across runs and platforms. CSV floats are written with 17
significant digits ('.' decimal separator), enough to round-trip exactly.
Exit codes: 0 success, 1 verification failure, 2 config error (any
malformed config or an output directory that cannot be created, found
before anything is solved), 3 numeric abort.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import analysis, operators, solver

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config: the solve settings, the noise bound, the seeds, and
    the problem, built once. Frozen, on a tuple of seeds and its own copy of
    the params, so it stays as checked."""

    problem_params: dict
    solve: solver.SolverConfig
    noise_bound: Optional[float]
    seeds: Tuple[int, ...]
    output_dir: str
    problem: operators.VIProblem = field(repr=False)

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
            doc = _object("config", doc, ("problem", "mode", "T", "g0", "noise", "seeds",
                                          "eval_every", "record_every", "output_dir"))
            problem = _object("problem", doc["problem"], ("name", "params"))
            name = problem["name"]
            params = {} if problem.get("params") is None else problem["params"]
            mode = _object("mode", doc.get("mode", {"kind": "universal"}), ("kind", "eta"))
            kind = mode.get("kind", "universal")
            eta = _optional(_real, "eta", mode.get("eta"))
            iterations = _integer("T", doc["T"])
            g0 = _real("g0", doc.get("g0", 1.0))
            noise = doc.get("noise")
            if noise is not None:
                _object("noise", noise, ("bound",))
            noise_bound = None if noise is None else _real("noise bound", noise["bound"])
            seeds = doc.get("seeds", [0])
            if not isinstance(seeds, list):
                raise ConfigError(f"seeds must be a list of integers, got {seeds!r}")
            seeds = [_integer("seeds", s) for s in seeds]
            eval_every = _optional(_integer, "eval_every", doc.get("eval_every"))
            record_every = _integer("record_every", doc.get("record_every", 1))
            output_dir = doc.get("output_dir", "uvi-out")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        if not isinstance(output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
        if not isinstance(name, str):
            raise ConfigError(f"problem name must be a string, got {name!r}")
        if not isinstance(params, dict):
            raise ConfigError(f"problem {name!r}: params must be an object, got {params!r}")

        # The mode's kind decides whether eta is set; SolverConfig checks T,
        # g0, eta, record_every and eval_every, the oracle's rule the noise bound.
        try:
            if kind not in ("universal", "fixed-step"):
                raise ConfigError(f"unknown mode {kind!r}")
            if kind == "universal" and eta is not None:
                raise ConfigError(f"eta is only used in fixed-step mode, got eta={eta} "
                                  f"in universal mode")
            if kind == "fixed-step" and eta is None:
                raise ConfigError("fixed-step mode requires a finite eta > 0 whose square "
                                  "is nonzero, got None")
            solve = solver.SolverConfig(iterations=iterations, g0=g0, eta=eta,
                                        record_every=record_every, eval_every=eval_every)
            if noise_bound is not None:
                operators._check_noise_bound(noise_bound)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if noise_bound and not seeds:  # a bound of 0 runs as the exact operator
            raise ConfigError("stochastic mode requires a non-empty seed list")
        seeds = seeds or [0]
        if len(set(seeds)) != len(seeds):
            raise ConfigError(f"seeds must be distinct, got {seeds}")
        if min(seeds) < 0:
            raise ConfigError(f"seeds must be nonnegative, got {seeds}")
        # Built once per command; fails early on unknown names or bad params.
        return cls(problem_params=copy.deepcopy(params), solve=solve,
                   noise_bound=noise_bound, seeds=tuple(seeds), output_dir=output_dir,
                   problem=operators.make_problem(name, **params))


# The catalog's number rules: 1e3 is an integer; bools and strings are not numbers.
_integer, _real = operators._integer, operators._real


def _object(where: str, value, known: tuple) -> dict:
    """``value`` if it is an object whose keys are all in ``known``, else ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    for key in value:
        if key not in known:
            raise ConfigError(f"unknown {where} key {key!r}; known keys: {', '.join(known)}")
    return value


def _optional(parse, key: str, value):
    return None if value is None else parse(key, value)


def _oracle_for_seed(config, seed: int) -> Optional[operators.StochasticOracle]:
    if not config.noise_bound:
        return None
    noise_stream, = np.random.SeedSequence(seed).spawn(1)
    return operators.StochasticOracle(base=config.problem, noise_bound=config.noise_bound,
                                      rng_seed=noise_stream)


def _fmt(x: float) -> str:
    return "%.17g" % x


def _write_trace_csv(path: Path, trace):
    lines = ["t,eta,z_sq,gap_of_running_avg"]
    for rec in trace.records:
        gap_str = "" if rec.gap is None else _fmt(rec.gap)
        lines.append(f"{rec.t},{_fmt(rec.eta)},{_fmt(rec.z_sq)},{gap_str}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: Path, doc: dict):
    path.write_text(json.dumps(_json_safe(doc), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


def _output_dir(config) -> Path:
    return Path(os.environ.get("UVI_OUTPUT_DIR", config.output_dir))


def _make_dirs(dirs) -> None:
    """Create each output directory; ConfigError names the first that cannot be."""
    for out in dirs:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory {out}: {exc.strerror or exc}") from exc


def _seed_entry(config: ExperimentConfig, seed: int, trace, out: Path) -> dict:
    """Write one seed's trace CSV and return its summary entry."""
    _write_trace_csv(out / f"trace_{seed}.csv", trace)
    entry = {
        "seed": seed,
        # The gap the solver evaluated at step T, that of x_avg.
        "final_gap": trace.records[-1].gap,
        "eta_final": trace.records[-1].eta,
        "max_xy_ratio": trace.max_xy_ratio,
        "max_yy_ratio": trace.max_yy_ratio,
        "max_z_sq": trace.max_z_sq,
    }
    if config.solve.record_every == 1:
        lhs, rhs = analysis.regret_bound_sides(config.problem, trace)
        entry["lemma3_lhs"] = lhs
        entry["lemma3_rhs"] = rhs
    return entry


def _solve_seeds(config: ExperimentConfig, budgets: dict, outs: dict) -> dict:
    """Write every seed's trace CSV for each budget; the summary entries, by T.

    ``budgets`` maps each T to its ``SolverConfig``, ``outs`` to its output
    directory. Every seed is solved once, at max(T), in one batch; without
    a nonzero noise bound, the seeds share one row, solved as the first seed.
    """
    rows = config.seeds if config.noise_bound else config.seeds[:1]
    oracles = {seed: _oracle_for_seed(config, seed) for seed in rows}
    # Both step rules go through the name bench/worker.py wraps to time each solve.
    traces = solver.universal_mirror_prox(config.problem, budgets[max(budgets)],
                                          oracles=oracles, checkpoints=budgets).traces
    return {T: [_seed_entry(config, seed, traces.get(seed, traces[rows[0]]).prefix(T), outs[T])
                for seed in config.seeds]
            for T in budgets}


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute one run per seed; write CSV traces and summary.json.

    The output directory is created first; ConfigError if it cannot be.
    """
    out = _output_dir(config)
    _make_dirs([out])
    T = config.solve.iterations
    per_seed = _solve_seeds(config, {T: config.solve}, {T: out})[T]
    summary = _write_summary(config, config.solve, per_seed, out)
    return {"summary": summary, "out_dir": out}


def _write_summary(config: ExperimentConfig, solve: solver.SolverConfig,
                   per_seed: List[dict], out: Path) -> dict:
    """Aggregate the per-seed entries and theorem bounds of the ``solve``
    budget into summary.json."""
    problem = config.problem
    mean_gap = float(np.mean([e["final_gap"] for e in per_seed]))
    bounds = analysis.theorem_bounds(problem, solve, config.noise_bound)

    summary = {
        "problem": {
            "name": problem.name,
            "params": config.problem_params,
            "g_bound": problem.g_bound,
            "smoothness": problem.smoothness,
            "diameter": problem.geom.diameter(),
            # Pinned by every summary.json golden; always 0.0, as every catalog
            # minimum is a closed form or an exact LP.
            "gap_tolerance": 0.0,
        },
        "mode": "universal" if solve.eta is None else "fixed-step",
        "eta": solve.eta,
        "T": solve.iterations,
        "g0": solve.g0,
        "noise": None if config.noise_bound is None
        else {"bound": config.noise_bound, "sigma_sq": config.noise_bound**2},
        # The gap spacing: T without eval_every.
        "eval_every": solve.eval_every or solve.iterations,
        "record_every": solve.record_every,
        "seeds": config.seeds,
        "per_seed": per_seed,
        "mean_final_gap": mean_gap,
        "bounds": {
            **bounds,
            "observed_gap": mean_gap,
            # The regret bound's two sides along the first seed's run.
            "lemma3_lhs": per_seed[0].get("lemma3_lhs"),
            "lemma3_rhs": per_seed[0].get("lemma3_rhs"),
        },
    }
    _write_json(out / "summary.json", summary)
    return summary


def cmd_run(config_path: str) -> int:
    try:
        config = ExperimentConfig.from_file(config_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = run_experiment(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
        # SolverConfig checks every budget before the first solve writes anything.
        budgets = {T: dataclasses.replace(config.solve, iterations=int(T)) for T in t_list}
        base_out = _output_dir(config)
        outs = {T: base_out / f"T_{T}" for T in budgets}
        _make_dirs(outs.values())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        per_seed = _solve_seeds(config, budgets, outs)
    except solver.SolverError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    mean_gaps = {T: _write_summary(config, solve, per_seed[T], outs[T])["mean_final_gap"]
                 for T, solve in budgets.items()}
    points = [(T, mean_gaps[T]) for T in t_list]
    for T, mean_gap in points:
        print(f"T={T}: mean final gap {mean_gap:.6g}")

    sweep_summary = {"t_values": [int(t) for t, _ in points],
                     "mean_final_gaps": [g for _, g in points]}
    try:
        # One point per distinct budget: a repeated T is not more data.
        fit = analysis.rate_fit(list(mean_gaps.items()))
        sweep_summary["rate_fit"] = fit
        print(f"rate fit: exponent {fit['exponent']:.4f}, r2 {fit['r2']:.4f}")
    except ValueError as exc:
        sweep_summary["rate_fit"] = None
        print(f"rate fit skipped: {exc}")
    _write_json(base_out / "sweep_summary.json", sweep_summary)
    return EXIT_OK


def cmd_verify(suite: str, seed: int = 42) -> int:
    if suite != "all" and suite not in analysis.SUITES:
        print(f"error: unknown suite {suite!r}", file=sys.stderr)
        return EXIT_CONFIG
    checks = []
    for name, run_suite in analysis.SUITES.items():
        if suite in (name, "all"):
            checks.extend(run_suite(seed))

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


def _parse_seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


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
                          choices=[*analysis.SUITES, "all"])
    p_verify.add_argument("--seed", type=_parse_seed, default=42)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.t_list)
    return cmd_verify(args.suite, args.seed)


if __name__ == "__main__":
    sys.exit(main())
