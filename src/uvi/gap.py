"""Exact duality gaps at feasible points.

``dual_gap`` checks one point and evaluates the problem's registered
evaluator there. The solver loop evaluates the gap of every seed's running
average through ``_dual_gaps``, the same checks on a stack of points, one
per row: one feasibility test for the stack and, for a ``batched``
problem, one evaluator call (see ``uvi.solver``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from .operators import VIProblem

__all__ = ["GapError", "dual_gap"]


class GapError(ValueError):
    """Infeasible query point, missing duality-gap evaluator, or a gap below
    -1e-9; ``row`` is the failing row of a stacked evaluation."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


def dual_gap(problem: VIProblem, x) -> float:
    """Exact duality gap at a feasible point via the registered evaluator."""
    return _dual_gaps(problem, problem.geom.check_point(x))[0]


def _dual_gaps(problem: VIProblem, points: np.ndarray) -> List[float]:
    """The gaps at each row of an (S, dim) stack, or at one dim-vector, as
    Python floats; the shape of ``points`` is trusted.

    Each row must be feasible to 1e-8 and its gap at least -1e-9; a
    ``batched`` problem's evaluator takes the whole stack, any other is
    called row by row. Raises GapError naming the first failing row.
    """
    geom = problem.geom
    feasible = geom._contains(points, 1e-8)
    if not feasible.all():
        raise GapError(f"point is not feasible for {geom.kind}", int(np.argmin(feasible)))
    evaluate = problem.dual_gap_eval
    if evaluate is None:
        raise GapError(f"problem {problem.name!r} has no registered duality-gap evaluator")
    if points.ndim == 1:
        values = [float(evaluate(points))]
    elif problem.batched:
        values = np.asarray(evaluate(points), dtype=float)
        if values.shape != (len(points),):
            raise GapError(f"duality-gap evaluator must return one value per row, "
                           f"got shape {values.shape}")
        values = values.tolist()
    else:
        values = [float(evaluate(row)) for row in points]
    for row, value in enumerate(values):
        if value < -1e-9:
            raise GapError(f"duality gap {value} is negative beyond tolerance", row)
    return values
