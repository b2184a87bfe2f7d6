"""One round of a workload, in a fresh process.

Usage: worker.py <plan.json> <round_dir> <trace 0|1> [<spans.npz>]

The plan lists the operations: a config path plus the `uvi` argv to run.
The worker times set-up (importing `uvi`, then loading and validating each
config, which builds its problem), then calls the CLI entry point once per
operation with ``UVI_OUTPUT_DIR`` pointing into the round directory. It
prints one JSON line with the timings, exit codes and peak RSS. With trace
1 it also records spans (see tracing.py) around the CLI calls only.
"""

import json
import os
import resource
import sys
import time
import traceback


def main(argv):
    plan_path, round_dir, trace = argv[0], argv[1], argv[2] == "1"
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    t0 = time.perf_counter()
    from uvi import cli, solver

    for op in plan:
        try:
            cli.ExperimentConfig.from_file(op["config"])
        except ValueError as exc:  # the CLI call below reports it as exit 2
            print(f"set-up: {exc}", file=sys.stderr)
    setup_s = time.perf_counter() - t0

    solver_s = 0.0
    iterations = 0
    if trace:
        import tracing

        rec = tracing.SpanRecorder()
        tracing.install(rec)
        call_cli = rec.wrap("cli.main", cli.main)
    else:
        call_cli = cli.main

        def timed(fn):
            def call(*args, **kwargs):
                nonlocal solver_s, iterations
                started = time.perf_counter()
                result = fn(*args, **kwargs)
                solver_s += time.perf_counter() - started
                iterations += result.iterations
                return result
            return call

        solver.universal_mirror_prox = timed(solver.universal_mirror_prox)
        solver.fixed_step_mirror_prox = timed(solver.fixed_step_mirror_prox)

    codes = []
    t1 = time.perf_counter()
    for i, op in enumerate(plan):
        os.environ["UVI_OUTPUT_DIR"] = os.path.join(round_dir, f"op{i}")
        try:
            codes.append(int(call_cli(op["argv"])))
        except SystemExit as exc:
            codes.append(exc.code if isinstance(exc.code, int) else 2)
        except Exception:  # an operation that crashes counts as failed
            traceback.print_exc()
            codes.append(1)
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "codes": codes}
    if trace:
        result["layers"] = tracing.layer_report(rec, wall_s)
        if len(argv) > 3:
            rec.save(argv[3])
    else:
        result["solver_s"] = solver_s
        result["iterations"] = iterations
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
