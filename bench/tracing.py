"""Span recorder for the traced run, and the per-layer report built from it.

The recorder wraps public functions of each `uvi` module from the outside
(nothing under ``src/`` is edited). Each call becomes one span: name,
start, end and the index of the span that was open when it began. Spans
stay in flat in-memory arrays until the round ends; ``save`` writes them
out and ``layer_report`` turns them into self times and counts.

Self time is a span's duration minus the durations of its direct
children. Calls nest, so a `ProductGeometry.prox_step` span holds its two
block `prox_step` spans and their `check_point` spans, and each layer's
self time excludes the layers it calls into. The wrapper's own cost falls
partly outside the timestamps it takes and lands in the caller's self
time; ``trace.overhead_s`` reports the total.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("geometry", "operators", "solver", "gap", "analysis", "cli")


class SpanRecorder:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        # Per-span facts a layer metric needs, keyed by span index.
        self.solves: dict = {}
        self.operator_bytes = 0

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_result=None):
        nid = self._intern(name)
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(rec.current)
            ends.append(0.0)
            rec.current = i
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                rec.current = parents[i]
            if on_result is not None:
                on_result(i, args, result)
            return result

        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _operator_bytes(problem) -> int:
    """Bytes one operator call computes on: matrix reads plus vector traffic.

    A matrix game reads its payoff matrix twice (A @ v and A.T @ u); every
    operator reads its input and writes its output vector.
    """
    matrix = problem.params.get("matrix")
    vectors = 2 * 8 * problem.geom.dim
    if matrix is not None:
        return 2 * 8 * len(matrix) * len(matrix[0]) + vectors
    return vectors


def install(rec: SpanRecorder) -> None:
    """Wrap the public entry points of every `uvi` layer with ``rec``."""
    from uvi import analysis, cli, gap, geometry, operators, solver

    for cls in (geometry.Geometry, geometry._EuclideanGeometry, geometry.EuclideanBall,
                geometry.EuclideanBox, geometry.EuclideanSimplex,
                geometry.EntropicSimplex, geometry.ProductGeometry):
        for attr, fn in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            setattr(cls, attr, rec.wrap(f"geometry.{attr}", fn))

    sizes: dict = {}

    def count_bytes(_i, args, _result):
        problem = args[0]
        key = id(problem)
        if key not in sizes:
            sizes[key] = _operator_bytes(problem)
        rec.operator_bytes += sizes[key]

    operators.VIProblem.operator = rec.wrap(
        "operators.operator", operators.VIProblem.operator, count_bytes)
    # The solver calls noisy_eval through its own module namespace.
    solver.noisy_eval = rec.wrap("operators.noisy_eval", solver.noisy_eval)
    operators.make_problem = rec.wrap("operators.make_problem", operators.make_problem)

    def note_solve(i, args, trace):
        problem = args[0]
        rec.solves[i] = (trace.iterations, len(trace.records), problem.geom.dim)

    for attr in ("universal_mirror_prox", "fixed_step_mirror_prox"):
        setattr(solver, attr,
                rec.wrap(f"solver.{attr}", getattr(solver, attr), note_solve))

    gap.dual_gap = rec.wrap("gap.dual_gap", gap.dual_gap)
    for attr in ("regret_bound_sides", "theorem_bounds", "rate_fit"):
        setattr(analysis, attr, rec.wrap(f"analysis.{attr}", getattr(analysis, attr)))

    for attr in ("run_experiment", "cmd_run", "cmd_sweep"):
        setattr(cli, attr, rec.wrap(f"cli.{attr}", getattr(cli, attr)))
    for attr in ("from_file", "from_dict"):
        fn = vars(cli.ExperimentConfig)[attr].__func__
        setattr(cli.ExperimentConfig, attr,
                classmethod(rec.wrap(f"cli.config.{attr}", fn)))


def layer_report(rec: SpanRecorder, traced_wall_s: float) -> dict:
    """Per-layer counts and self times from the recorded spans."""
    names = rec.names
    name_id = np.frombuffer(rec.name_id, dtype=np.int32)
    parent = np.frombuffer(rec.parent, dtype=np.int32)
    start = np.frombuffer(rec.start, dtype=np.float64)
    end = np.frombuffer(rec.end, dtype=np.float64)
    n_names = len(names)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    calls = np.bincount(name_id, minlength=n_names)
    self_by_name = np.bincount(name_id, weights=self_t, minlength=n_names)

    def ids(*wanted):
        return [names.index(w) for w in wanted if w in names]

    def n_calls(*wanted):
        return int(sum(calls[i] for i in ids(*wanted)))

    def self_s(*wanted):
        return float(sum(self_by_name[i] for i in ids(*wanted)))

    layer_of = np.array([n.split(".")[0] for n in names])
    layer_self = {layer: float(self_by_name[layer_of == layer].sum()) for layer in LAYERS}

    iterations = sum(it for it, _, _ in rec.solves.values())
    record_bytes = sum(recs * 5 * dim * 8 for _, recs, dim in rec.solves.values())

    # Calls made while a solver span is open, for per-iteration counts.
    is_solver = np.isin(name_id, ids("solver.universal_mirror_prox",
                                     "solver.fixed_step_mirror_prox"))
    s_start, s_end = start[is_solver], end[is_solver]
    slot = np.searchsorted(s_start, start, side="right") - 1
    in_solver = (slot >= 0) & ~is_solver
    in_solver[in_solver] = start[in_solver] <= s_end[slot[in_solver]]

    def per_iter(name):
        if not iterations:
            return 0.0
        return float(np.count_nonzero(in_solver & np.isin(name_id, ids(name)))) / iterations

    # Config loading time counts from the outermost from_file/from_dict span.
    config_ids = ids("cli.config.from_file", "cli.config.from_dict")
    is_config = np.isin(name_id, config_ids)
    parent_name = np.where(has_parent, name_id[parent], -1)
    outer_config = is_config & ~np.isin(parent_name, config_ids)
    op_self = self_s("operators.operator")

    return {
        "geometry.prox_step.calls": (n_calls("geometry.prox_step"), "count"),
        "geometry.prox_step.self_s": (self_s("geometry.prox_step"), "s"),
        "geometry.norm.calls": (n_calls("geometry.primal_norm", "geometry.dual_norm"), "count"),
        "geometry.norm.self_s": (self_s("geometry.primal_norm", "geometry.dual_norm"), "s"),
        "geometry.check_point.per_iter": (per_iter("geometry.check_point"), "calls/iter"),
        "geometry.contains.per_iter": (per_iter("geometry.contains"), "calls/iter"),
        "geometry.contains.self_s": (self_s("geometry.contains"), "s"),
        "geometry.self_s": (layer_self["geometry"], "s"),
        "operators.operator.calls": (n_calls("operators.operator"), "count"),
        "operators.operator.self_s": (op_self, "s"),
        "operators.operator.bytes_computed": (rec.operator_bytes, "B"),
        "operators.operator.gbps_computed": (
            rec.operator_bytes / op_self / 1e9 if op_self > 0 else 0.0, "GB/s"),
        "operators.noisy_eval.calls": (n_calls("operators.noisy_eval"), "count"),
        "operators.noisy_eval.self_s": (self_s("operators.noisy_eval"), "s"),
        "operators.make_problem.calls": (n_calls("operators.make_problem"), "count"),
        "operators.make_problem.s": (
            float(dur[np.isin(name_id, ids("operators.make_problem"))].sum()), "s"),
        "operators.self_s": (layer_self["operators"], "s"),
        "solver.iterations": (iterations, "count"),
        "solver.self_s": (layer_self["solver"], "s"),
        "solver.self_us_per_iter": (
            layer_self["solver"] / iterations * 1e6 if iterations else 0.0, "us"),
        "solver.record_bytes_computed": (record_bytes, "B"),
        "gap.dual_gap.calls": (n_calls("gap.dual_gap"), "count"),
        "gap.dual_gap.self_s": (self_s("gap.dual_gap"), "s"),
        "gap.self_s": (layer_self["gap"], "s"),
        "analysis.regret_bound_sides.self_s": (self_s("analysis.regret_bound_sides"), "s"),
        "analysis.self_s": (layer_self["analysis"], "s"),
        "cli.config.s": (float(dur[outer_config].sum()), "s"),
        "cli.self_s": (layer_self["cli"], "s"),
        "trace.spans": (len(dur), "count"),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace.unattributed_s": (traced_wall_s - sum(layer_self.values()), "s"),
    }
