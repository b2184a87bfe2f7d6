"""Duality-gap evaluation at points and along run traces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .operators import VIProblem
from .solver import RunTrace

__all__ = ["GapError", "GapSeries", "dual_gap", "gap_series"]


class GapError(ValueError):
    """Infeasible query point or missing duality-gap evaluator."""


@dataclass
class GapSeries:
    """Duality gap of the running average at increasing checkpoints."""

    steps: List[int]
    gaps: List[float]
    final_gap: float


def dual_gap(problem: VIProblem, x) -> float:
    """Exact duality gap at a feasible point via the registered evaluator."""
    geom = problem.geom
    x = geom.check_point(x)
    if not geom._contains(x, 1e-8):
        raise GapError(f"point is not feasible for {geom.kind}")
    if problem.dual_gap_eval is None:
        raise GapError(f"problem {problem.name!r} has no registered duality-gap evaluator")
    value = float(problem.dual_gap_eval(x))
    if value < -1e-9:
        raise GapError(f"duality gap {value} is negative beyond tolerance")
    return value


def gap_series(problem: VIProblem, trace: RunTrace, eval_every: int) -> GapSeries:
    """Gap of the running average x_bar_t at multiples of eval_every plus t=T.

    Running averages are reconstructed from the exact prefix sums stored in
    the trace, so thinning never degrades them. eval_every larger than T
    yields only the final checkpoint.
    """
    if eval_every < 1:
        raise ValueError("eval_every must be >= 1")
    if not trace.records:
        raise ValueError("trace has no recorded steps")
    steps: List[int] = []
    gaps: List[float] = []
    last_t = trace.records[-1].t
    for rec in trace.records:
        if rec.t % eval_every == 0 or rec.t == last_t:
            steps.append(rec.t)
            gaps.append(dual_gap(problem, rec.x_prefix / rec.t))
    return GapSeries(steps=steps, gaps=gaps, final_gap=gaps[-1])
