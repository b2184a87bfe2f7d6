"""Steadiness of the end-to-end metrics: repeat runs, report quartiles.

    python3 bench/steady.py --runs 10 --first-seed 100 --seconds 30 [--workload NAME ...]

Runs ``bench/run.py --trace 0`` once per seed, one run at a time, on every
workload named (all by default). For each end-to-end metric it prints the
median, the first and third quartiles (``statistics.quantiles(n=4)``) and
their spread as a share of the median, next to the metric's bound from
BENCHMARK.json; a spread above a third of the bound is flagged. It also
prints the share of failed solves, which must be the same in every run.
``--out`` saves every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list, bounds: dict) -> list:
    lines = []
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    lines.append(f"  correct in every run: {correct}; failed share(s): {shares}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        lines.append(f"  {name:20s} median {med:12.6g} {unit:7s} q1 {q1:12.6g} q3 {q3:12.6g} "
                     f"spread {spread:7.2%} bound {bound if bound is not None else '-'}{flag}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    seconds = args.seconds if args.seconds is not None else spec.get("run_seconds", 30)
    names = args.workload or [w["name"] for w in spec.get("workloads", [])] \
        or list(workloads.WORKLOADS)

    saved = {}
    for workload in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()), flush=True)
        print(f"{workload}: {args.runs} runs of {seconds} s")
        print("\n".join(summarize(results, bounds)), flush=True)
        saved[workload] = results
    if args.out is not None:
        args.out.write_text(json.dumps(saved, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
