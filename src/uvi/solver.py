"""Adaptive and fixed-step mirror-prox solvers.

The core loop is the optimistic two-prox update anchored at y_{t-1},

    x_t = argmin_{x in K}  M_t.x + (1/eta_t) D_R(x, y_{t-1}),
    y_t = argmin_{x in K}  g_t.x + (1/eta_t) D_R(x, y_{t-1}),

with the extragradient choices M_t = F(y_{t-1}) and g_t = F(x_t) (fresh
independent samples of each in stochastic mode). Universal mode derives the
step size from the normalized iterate movement,

    Z_t^2  = (||x_t - y_t||^2 + ||x_t - y_{t-1}||^2) / (5 eta_t^2),
    eta_t  = D / sqrt(G0^2 + sum_{tau < t} Z_tau^2),

computed in the geometry's primal norm, so eta_t settles to a constant when
the operator's local variation dies out and decays like 1/sqrt(t) when it
does not; no smoothness or noise constants are supplied. The output is the
uniform average of the x_t iterates.

Every step enforces the movement invariants ||x_t - y_{t-1}|| <= eta_t G and
||y_t - y_{t-1}|| <= eta_t G (hence Z_t <= G), where G bounds the dual norm
of the sampled operator; a violation, a non-finite operator value or a
non-finite iterate aborts the run with the step index and step size in the
exception.

Arguments are validated once, at the public entry points: the geometry's
``prox_step``, ``noisy_eval`` (shape and feasibility of the query point) and
``dual_gap``. The loop itself evaluates the operator through
``noisy_eval`` or ``VIProblem.operator`` and then calls the geometry's
unchecked prox and norm kernels on raw arrays, whose outputs are feasible by
construction; each of the three movement norms is computed once per step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .geometry import GeometryError
from .operators import StochasticOracle, VIProblem, noisy_eval

__all__ = [
    "SolverConfig",
    "StepRecord",
    "RunTrace",
    "SolverError",
    "DivergenceError",
    "InvariantError",
    "update_eta",
    "compute_z_sq",
    "universal_mirror_prox",
    "fixed_step_mirror_prox",
]

_MOVEMENT_TOL = 1e-9


class SolverError(RuntimeError):
    """Run aborted; carries the step index and step size of the failure."""

    def __init__(self, t: int, eta: float, message: str):
        super().__init__(f"aborted at step t={t}, eta={eta:.6g}: {message}")
        self.t = t
        self.eta = eta


class DivergenceError(SolverError):
    """Non-finite iterate or operator value."""


class InvariantError(SolverError):
    """Movement bound violated; indicates a wrong g_bound or a geometry bug."""


@dataclass
class SolverConfig:
    """Iteration budget, step-size prior G0, mode, and trace thinning."""

    iterations: int
    g0: float = 1.0
    mode: str = "universal"
    eta: Optional[float] = None
    record_every: int = 1

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not self.g0 > 0:
            raise ValueError("g0 must be positive")
        if self.mode not in ("universal", "fixed-step"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "fixed-step" and not (self.eta is not None and self.eta > 0):
            raise ValueError("fixed-step mode requires eta > 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class StepRecord:
    """One recorded step; x_prefix is the exact running sum of x_1..x_t."""

    t: int
    eta: float
    z_sq: float
    x: np.ndarray
    y: np.ndarray
    m: np.ndarray
    g: np.ndarray
    x_prefix: np.ndarray


@dataclass
class RunTrace:
    """Recorded steps plus exact aggregates of a single run."""

    problem_name: str
    mode: str
    iterations: int
    record_every: int
    g0: float
    g_bound: float
    stochastic: bool
    records: List[StepRecord]
    x_avg: np.ndarray
    duration: float
    eta_final: float
    z_sq_total: float
    max_xy_ratio: float
    max_yy_ratio: float
    max_z_sq: float


def update_eta(z_sq_accum: float, diameter: float, g0: float) -> float:
    """Adaptive step size D / sqrt(G0^2 + accumulated Z^2); D/G0 at t=1."""
    if diameter <= 0 or g0 <= 0:
        raise ValueError("diameter and g0 must be positive")
    return diameter / math.sqrt(g0 * g0 + z_sq_accum)


def compute_z_sq(xy_norm: float, xy_prev_norm: float, eta_t: float) -> float:
    """Movement statistic (||x_t - y_t||^2 + ||x_t - y_{t-1}||^2) / (5 eta_t^2)."""
    if not eta_t > 0:
        raise ValueError("eta_t must be positive")
    return (xy_norm * xy_norm + xy_prev_norm * xy_prev_norm) / (5.0 * eta_t * eta_t)


def _direction(value: np.ndarray, dim: int) -> np.ndarray:
    """An operator value the prox kernels can take, or GeometryError."""
    if value.shape != (dim,) or not np.isfinite(value).all():
        raise GeometryError(
            f"operator value must be a finite vector of dimension {dim}"
        )
    return value


def _run_loop(
    problem: VIProblem, config: SolverConfig, oracle: Optional[StochasticOracle]
) -> RunTrace:
    geom = problem.geom
    dim = geom.dim
    prox, norm = geom._prox, geom._primal_norm
    diameter = geom.diameter()
    fixed = config.mode == "fixed-step"
    if oracle is not None:
        if oracle.base is not problem:
            raise ValueError("oracle was built for a different problem instance")
        g_cap = oracle.g_bound
        evaluate = lambda p: noisy_eval(oracle, p)  # noqa: E731
    else:
        g_cap = problem.g_bound
        evaluate = problem.operator

    y_prev = geom.min_point()
    sum_x = np.zeros(dim)
    comp = np.zeros(dim)
    records: List[StepRecord] = []
    z_sq_accum = max_xy = max_yy = max_zsq = 0.0
    eta = 0.0
    started = time.perf_counter()

    for t in range(1, config.iterations + 1):
        eta = config.eta if fixed else update_eta(z_sq_accum, diameter, config.g0)
        try:
            m = _direction(evaluate(y_prev), dim)
            x = prox(y_prev, m, eta)
            g = _direction(evaluate(x), dim)
            y = prox(y_prev, g, eta)
        except GeometryError as exc:
            raise DivergenceError(t, eta, str(exc)) from exc
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise DivergenceError(t, eta, "non-finite iterate")

        xy_prev = norm(x - y_prev)
        z_sq = compute_z_sq(norm(x - y), xy_prev, eta)
        ratio_x = xy_prev / eta
        ratio_y = norm(y - y_prev) / eta
        if math.isfinite(g_cap):
            if ratio_x > g_cap + _MOVEMENT_TOL or ratio_y > g_cap + _MOVEMENT_TOL:
                raise InvariantError(
                    t, eta, f"movement/eta ratio {max(ratio_x, ratio_y):.6g} "
                    f"exceeds operator bound {g_cap:.6g}"
                )
            if z_sq > g_cap * g_cap + _MOVEMENT_TOL:
                raise InvariantError(
                    t, eta, f"Z^2 = {z_sq:.6g} exceeds G^2 = {g_cap * g_cap:.6g}"
                )
        max_xy = max(max_xy, ratio_x)
        max_yy = max(max_yy, ratio_y)
        max_zsq = max(max_zsq, z_sq)

        # Kahan-compensated running sum keeps the average exact to ~1e-16.
        incr = x - comp
        total = sum_x + incr
        comp = (total - sum_x) - incr
        sum_x = total

        if t % config.record_every == 0 or t == config.iterations:
            records.append(
                StepRecord(t=t, eta=eta, z_sq=z_sq, x=x, y=y, m=m, g=g,
                           x_prefix=sum_x.copy())
            )
        z_sq_accum += z_sq
        y_prev = y

    return RunTrace(
        problem_name=problem.name,
        mode=config.mode,
        iterations=config.iterations,
        record_every=config.record_every,
        g0=config.g0,
        g_bound=g_cap,
        stochastic=oracle is not None,
        records=records,
        x_avg=sum_x / config.iterations,
        duration=time.perf_counter() - started,
        eta_final=eta,
        z_sq_total=z_sq_accum,
        max_xy_ratio=max_xy,
        max_yy_ratio=max_yy,
        max_z_sq=max_zsq,
    )


def universal_mirror_prox(
    problem: VIProblem,
    config: SolverConfig,
    oracle: Optional[StochasticOracle] = None,
) -> RunTrace:
    """Run the adaptive-step solver; pass an oracle for the stochastic setting."""
    if config.mode != "universal":
        raise ValueError("config.mode must be 'universal'")
    return _run_loop(problem, config, oracle)


def fixed_step_mirror_prox(
    problem: VIProblem,
    eta: float,
    iterations: int,
    *,
    record_every: int = 1,
    oracle: Optional[StochasticOracle] = None,
) -> RunTrace:
    """Classic mirror-prox with constant step size, as a tuned baseline."""
    config = SolverConfig(
        iterations=iterations, mode="fixed-step", eta=eta, record_every=record_every
    )
    return _run_loop(problem, config, oracle)
