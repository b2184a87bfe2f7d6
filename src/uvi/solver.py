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
exception, and so does an adaptive step size that leaves the floating-point
range (eta_t = 0 or inf, or eta_t^2 = 0) at extreme payoff scales or G0.
``SolverConfig`` rejects a fixed step whose square underflows.

Arguments are validated once, at the public entry points: the geometry's
``prox_step``, ``VIProblem.operator`` (dimension of the query point),
``noisy_eval`` (dimension and feasibility, the boundary for callers that
sample the oracle themselves) and ``dual_gap``. The loop evaluates the
operator through ``VIProblem.operator`` or, in stochastic mode, the oracle's
unchecked ``_sample`` kernel, and calls the geometry's unchecked prox and
norm kernels on raw arrays; prox outputs are feasible by construction, so
the loop's query points need no feasibility check. Each of the three
movement norms is computed once per step.

A recorded step (``StepRecord``) keeps the exact prefix sum of the x's and
the scalars the step rule and the Lemma 3 regret bound are built from:
||x_t - y_t||, ||x_t - y_{t-1}|| and ||g_t - M_t||*. It keeps no other
d-vector: not x_t, g_t, the anchor y_t or the hint M_t. With every step
recorded, the loop also streams the two sums the hindsight regret needs,
sum_t g_t and sum_t g_t.x_t, into the trace (``g_sum``, ``gx_sum``), and
``uvi.analysis.replay_steps`` re-runs the steps through the public checked
methods wherever a check needs the vectors themselves.

No step depends on the budget T, so a run of T steps is an exact prefix of
any longer run on the same problem, oracle seed and step rule. Both solvers
take ``checkpoints``, budgets in ``1..iterations``: at each one the loop
snapshots what a run with ``iterations=T`` would return (``x_avg`` from the
same Kahan sum, ``eta_final``, ``z_sq_total``, the three maxima, the two
regret sums, and the records ``t % record_every == 0 or t == T``), available as
``trace.prefix(T)`` and bitwise equal to that separate run. The returned
trace itself is the full run; its records hold no extra checkpoint rows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from .geometry import GeometryError
# The loop does not call noisy_eval; it stays in this namespace because
# bench/tracing.py wraps solver.noisy_eval by that name.
from .operators import StochasticOracle, VIProblem, noisy_eval  # noqa: F401

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
        if not (self.g0 > 0 and math.isfinite(self.g0)):
            raise ValueError(f"g0 must be positive and finite, got {self.g0}")
        if self.mode not in ("universal", "fixed-step"):
            raise ValueError(f"unknown mode {self.mode!r}")
        # Z_t^2 divides by eta^2, so the square must not underflow to 0.
        if self.mode == "fixed-step" and not (
            self.eta is not None and self.eta > 0 and self.eta * self.eta > 0
            and math.isfinite(self.eta)
        ):
            raise ValueError(
                f"fixed-step mode requires a finite eta > 0 whose square is "
                f"nonzero, got {self.eta}"
            )
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class StepRecord:
    """One recorded step: its exact prefix sum plus the three norms the step
    rule and the regret bound are built from.

    x_prefix is the exact running sum of x_1..x_t. xy_norm = ||x_t - y_t||
    and xy_prev_norm = ||x_t - y_{t-1}|| are the movement norms Z_t^2 was
    computed from; gm_dual_norm = ||g_t - M_t||* is the distance between
    the step's loss and its hint. The iterate x_t, the loss g_t, the anchor
    y_t and the hint M_t are not kept; in a trace with every step recorded,
    ``uvi.analysis.replay_steps`` recomputes them bitwise from y_0 =
    ``min_point()`` and the recorded eta_t.
    """

    t: int
    eta: float
    z_sq: float
    x_prefix: np.ndarray
    xy_norm: float
    xy_prev_norm: float
    gm_dual_norm: float


@dataclass
class RunTrace:
    """Recorded steps plus exact aggregates of a single run.

    With every step recorded (record_every=1), g_sum = sum_t g_t, summed in
    step order, and gx_sum = sum_t g_t.x_t are the streamed sums the
    hindsight regret of ``uvi.analysis.regret_bound_sides`` is built from;
    both are None for a thinned trace.
    """

    iterations: int
    record_every: int
    g_bound: float
    records: List[StepRecord]
    x_avg: np.ndarray
    eta_final: float
    z_sq_total: float
    max_xy_ratio: float
    max_yy_ratio: float
    max_z_sq: float
    g_sum: Optional[np.ndarray] = None
    gx_sum: Optional[float] = None
    checkpoints: Dict[int, "RunTrace"] = field(default_factory=dict, repr=False)

    def prefix(self, T: int) -> "RunTrace":
        """The trace a run with ``iterations=T`` returns; T must be a checkpoint."""
        if T == self.iterations:
            return self
        try:
            return self.checkpoints[T]
        except KeyError:
            raise KeyError(f"T={T} is not a checkpoint of this run") from None


def update_eta(z_sq_accum: float, diameter: float, g0: float) -> float:
    """Adaptive step size D / sqrt(G0^2 + accumulated Z^2); D/G0 at t=1.

    Where G0^2 + sum Z^2 overflows the result is 0, and where it underflows
    to 0 the result is inf; the solver loop aborts on either.
    """
    if diameter <= 0 or g0 <= 0:
        raise ValueError("diameter and g0 must be positive")
    root = math.sqrt(g0 * g0 + z_sq_accum)
    return diameter / root if root > 0 else math.inf


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


def _checkpoint_set(checkpoints: Iterable[int], iterations: int) -> set:
    budgets = {operator.index(T) for T in checkpoints}
    bad = sorted(T for T in budgets if not 1 <= T <= iterations)
    if bad:
        raise ValueError(f"checkpoints must lie in 1..{iterations}, got {bad}")
    return budgets | {iterations}  # the run is its own last checkpoint


def _run_loop(
    problem: VIProblem,
    config: SolverConfig,
    oracle: Optional[StochasticOracle],
    checkpoints: Iterable[int],
) -> RunTrace:
    budgets = _checkpoint_set(checkpoints, config.iterations)
    geom = problem.geom
    dim = geom.dim
    prox, norm = geom._prox, geom._primal_norm
    diameter = geom.diameter()
    fixed = config.mode == "fixed-step"
    if oracle is not None:
        if oracle.base is not problem:
            raise ValueError("oracle was built for a different problem instance")
        g_cap = oracle.g_bound
        evaluate = oracle._sample
    else:
        g_cap = problem.g_bound
        evaluate = problem.operator

    y_prev = geom.min_point()
    sum_x = np.zeros(dim)
    comp = np.zeros(dim)
    records: List[StepRecord] = []
    snapshots: Dict[int, RunTrace] = {}
    z_sq_accum = max_xy = max_yy = max_zsq = 0.0
    # The regret sums are streamed only where every step is recorded.
    streamed = config.record_every == 1
    g_sum = np.zeros(dim) if streamed else None
    gx_sum = 0.0 if streamed else None

    for t in range(1, config.iterations + 1):
        if fixed:
            eta = config.eta  # range-checked by SolverConfig
        else:
            eta = update_eta(z_sq_accum, diameter, config.g0)
            # Z_t^2 divides by eta_t^2, so the square must not underflow to 0 either.
            if not (eta * eta > 0.0 and eta < math.inf):
                raise DivergenceError(
                    t, eta, "step size out of floating-point range: eta_t must be "
                    "positive and finite, with a nonzero square"
                )
        try:
            m = _direction(evaluate(y_prev), dim)
            x = prox(y_prev, m, eta)
            g = _direction(evaluate(x), dim)
            y = prox(y_prev, g, eta)
        except GeometryError as exc:
            raise DivergenceError(t, eta, str(exc)) from exc
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise DivergenceError(t, eta, "non-finite iterate")

        xy_norm = norm(x - y)
        xy_prev_norm = norm(x - y_prev)
        z_sq = compute_z_sq(xy_norm, xy_prev_norm, eta)
        ratio_x = xy_prev_norm / eta
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

        z_sq_accum += z_sq
        y_prev = y

        on_schedule = t % config.record_every == 0
        if on_schedule or t in budgets:
            if streamed:
                g_sum += g
                gx_sum += float(g @ x)
            rec = StepRecord(t=t, eta=eta, z_sq=z_sq, x_prefix=sum_x.copy(),
                             xy_norm=xy_norm, xy_prev_norm=xy_prev_norm,
                             gm_dual_norm=geom._dual_norm(g - m))
            if on_schedule:
                records.append(rec)
            if t in budgets:
                # A run of t steps also records its last step off schedule;
                # that row belongs to this snapshot only.
                snapshots[t] = RunTrace(
                    iterations=t,
                    record_every=config.record_every,
                    g_bound=g_cap,
                    records=records + ([] if on_schedule else [rec]),
                    x_avg=sum_x / t,
                    eta_final=eta,
                    z_sq_total=z_sq_accum,
                    max_xy_ratio=max_xy,
                    max_yy_ratio=max_yy,
                    max_z_sq=max_zsq,
                    g_sum=None if g_sum is None else g_sum.copy(),
                    gx_sum=gx_sum,
                )

    trace = snapshots.pop(config.iterations)
    trace.checkpoints = snapshots
    return trace


def universal_mirror_prox(
    problem: VIProblem,
    config: SolverConfig,
    oracle: Optional[StochasticOracle] = None,
    *,
    checkpoints: Iterable[int] = (),
) -> RunTrace:
    """Run the adaptive-step solver; pass an oracle for the stochastic setting.

    Each budget in ``checkpoints`` is readable afterwards as ``prefix(T)``.
    """
    if config.mode != "universal":
        raise ValueError("config.mode must be 'universal'")
    return _run_loop(problem, config, oracle, checkpoints)


def fixed_step_mirror_prox(
    problem: VIProblem,
    eta: float,
    iterations: int,
    *,
    record_every: int = 1,
    oracle: Optional[StochasticOracle] = None,
    checkpoints: Iterable[int] = (),
) -> RunTrace:
    """Classic mirror-prox with constant step size, as a tuned baseline.

    Each budget in ``checkpoints`` is readable afterwards as ``prefix(T)``.
    """
    config = SolverConfig(
        iterations=iterations, mode="fixed-step", eta=eta, record_every=record_every
    )
    return _run_loop(problem, config, oracle, checkpoints)
