"""Benchmark of the `uvi` CLI: one workload, measured for a fixed time.

    python3 bench/run.py --workload small-stoch-sweep --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload's operations, each round in a fresh
worker process (worker.py), until ``--seconds`` have passed and at least
three rounds are done. Every round's output files are checked (checks.py).
With ``--trace 0`` it reports the end-to-end metrics as medians over the
rounds; with ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones (tracing.py). The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Outputs live under ``.bench_work/`` in the
checkout and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150

# Single-threaded BLAS, set before numpy loads here or in a worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import workloads  # noqa: E402


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("UVI_OUTPUT_DIR", None)
    return env


def _output_size(directory: Path) -> tuple:
    files = [p for p in directory.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_round(ops, plan_path: Path, round_dir: Path, trace: bool, spans_path: Path) -> dict:
    """Run one round in a worker; check its outputs; return its figures."""
    round_dir.mkdir(parents=True)
    argv = [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(round_dir),
            "1" if trace else "0", str(spans_path)]
    try:
        proc = subprocess.run(argv, env=_worker_env(), capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round exceeded {ROUND_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])

    failed = 0
    wrong = []
    for i, (op, code) in enumerate(zip(ops, result["codes"])):
        if code != 0:
            failed += len(op.solves)
            continue
        for solve, problems in checks.check_operation(op, round_dir / f"op{i}").items():
            if problems:
                failed += 1
                wrong.append(f"op{i} T={solve[0]} seed={solve[1]}: {'; '.join(problems)}")
    result["failed"] = failed
    result["wrong"] = wrong
    result["files_written"], result["output_bytes"] = _output_size(round_dir)
    shutil.rmtree(round_dir)
    return result


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def end_to_end(rounds) -> dict:
    return {
        "setup_s": {"value": _median(rounds, "setup_s"), "unit": "s"},
        "wall_s": {"value": _median(rounds, "wall_s"), "unit": "s"},
        "solver_iters_per_s": {
            "value": statistics.median(r["iterations"] / r["solver_s"] for r in rounds),
            "unit": "iter/s"},
        "peak_rss_mb": {"value": _median(rounds, "peak_rss_mb"), "unit": "MB"},
    }


def per_layer(plain, traced) -> dict:
    metrics = {}
    for name, (_, unit) in traced[0]["layers"].items():
        value = statistics.median(r["layers"][name][0] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    metrics["cli.output_bytes"] = {"value": traced[0]["output_bytes"], "unit": "B"}
    metrics["cli.files_written"] = {"value": traced[0]["files_written"], "unit": "count"}
    metrics["trace.overhead_s"] = {
        "value": _median(traced, "wall_s") - _median(plain, "wall_s"), "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uvi" / "cli.py").is_file():
        print(f"error: no uvi sources under {SRC}", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    plain, traced = [], []
    try:
        run_dir.mkdir(parents=True)
        plan = []
        for i, op in enumerate(ops):
            path = run_dir / f"config{i}.json"
            path.write_text(json.dumps(op.config, indent=2), encoding="utf-8")
            plan.append({"config": str(path), "argv": op.argv(str(path))})
        plan_path = run_dir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")

        deadline = time.monotonic() + args.seconds
        k = 0
        while True:
            trace = bool(args.trace) and k % 2 == 1
            result = run_round(ops, plan_path, run_dir / f"round{k}", trace,
                               WORK / f"spans-{args.workload}.npz")
            (traced if trace else plain).append(result)
            k += 1
            enough = len(traced) >= 1 if args.trace else len(plain) >= MIN_ROUNDS
            if enough and time.monotonic() >= deadline:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rounds = plain + traced
    wrong = [w for r in rounds for w in r["wrong"]]
    for line in wrong[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced rounds of {sum(len(op.solves) for op in ops)} solves")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(len(op.solves) for op in ops) * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
