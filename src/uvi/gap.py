"""Exact duality gaps at feasible points.

``dual_gap`` checks one point and evaluates it as a one-row stack through
``_dual_gaps``, the path the solver loop takes for the running averages
of all its seeds: one feasibility test and one evaluator call for the
stack (see ``uvi.solver``).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from .operators import VIProblem

__all__ = ["GapError", "dual_gap"]


class GapError(ValueError):
    """Infeasible query point, or a gap not of one value per row, not finite
    or below -1e-9; ``row`` is the failing row of a stacked evaluation."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


def dual_gap(problem: VIProblem, x) -> float:
    """Exact duality gap at a feasible point via the problem's evaluator."""
    return _dual_gaps(problem, problem.geom.check_point(x)[None])[0]


def _dual_gaps(problem: VIProblem, points: np.ndarray) -> List[float]:
    """The gaps at each row of an (S, dim) stack, as Python floats; the
    shape of ``points`` is trusted.

    The evaluator takes the whole stack and must return one value per row.
    Each row must be feasible to 1e-8 and its gap finite and at least -1e-9.
    Raises GapError naming the first failing row.
    """
    geom = problem.geom
    feasible = geom._contains(points, 1e-8)
    if not feasible.all():
        raise GapError(f"point is not feasible for {geom.kind}", int(np.argmin(feasible)))
    values = np.asarray(problem.dual_gap_eval(points), dtype=float)
    if values.shape != (len(points),):
        raise GapError(f"duality-gap evaluator must return one value per row, "
                       f"got shape {values.shape}")
    values = values.tolist()
    for row, value in enumerate(values):
        if not math.isfinite(value):
            raise GapError(f"duality gap {value} is not finite", row)
        if value < -1e-9:
            raise GapError(f"duality gap {value} is negative beyond tolerance", row)
    return values
