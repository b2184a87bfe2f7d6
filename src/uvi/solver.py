"""Mirror-prox with the adaptive step size or a fixed one.

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
exception, and so does a step size out of floating-point range (eta_t = 0
or inf, or eta_t^2 = 0), which the adaptive rule reaches at extreme payoff
scales or G0. The frozen ``SolverConfig`` rejects a fixed step whose square
underflows.

Arguments are validated once, at the public entry points: the geometry's
``prox_step``, ``VIProblem.operator`` (dimension of the query point),
``noisy_eval`` (dimension and feasibility, the boundary for callers that
sample the oracle themselves) and ``dual_gap``. The loop calls the
unchecked ``operator_eval`` and the geometry's unchecked prox and norm
kernels on raw arrays, and adds each oracle's noise rows itself, from
slabs it alone sizes and never past the run's 2T draws (see ``_sampler``).
Prox outputs are feasible by construction, so the loop's query points need
no feasibility check. Each of the three movement norms is computed once per
step, and both prox steps share one ``_prox_base`` of their anchor and one
``_steps`` of their step sizes.

One loop solves a batch of seeds (``oracles=``, a mapping from each seed to
its oracle, all oracles or all None) as (S, d) arrays, one seed per row; a
single solve is the S = 1 batch, a (1, d) stack. The kernels reduce row by
row (see ``uvi.geometry``), and the operator and gap evaluator take the
whole stack and give each row bitwise its own value (see ``VIProblem``), so
every seed's trace is bitwise the trace of its own solve. Each seed keeps its
own oracle and generator, its step size and its own running ``RunTrace``
inside the loop (Z^2 sum, maxima, gx_sum and records), all per-seed Python
floats, as is every guard; an abort names the seed. After each step's
kernels and a recorded step's gaps (so a failed gap check comes before a
failed movement guard), one pass over the seeds runs the guards and
updates, records and snapshots each running trace, which never leaves the
loop. A batch returns a ``RunBatch``: one trace per seed, with
``iterations`` and ``records`` over all seeds.

A recorded step (``StepRecord``) keeps scalars only: the ones the step
rule and the Lemma 3 regret bound are built from, ||x_t - y_t||,
||x_t - y_{t-1}|| and ||g_t - M_t||*, and the exact duality gap of the
running average x_bar_t = (x_1 + ... + x_t) / t where one is due. Gaps are
due at every multiple of ``SolverConfig.eval_every`` and at the last step
of every checkpoint, and the loop evaluates them in place, for all seeds
in one call through the checked ``uvi.gap`` path (feasibility to 1e-8, a
finite gap no lower than -1e-9); a failure aborts the run. So a trace
holds no d-vector per step, only its O(d) aggregates. With every step
recorded, the loop also streams the two sums the hindsight regret needs,
sum_t g_t and sum_t g_t.x_t, into the trace (``g_sum``, ``gx_sum``), and
``uvi.analysis.replay_steps`` re-runs the steps through the public checked
methods wherever a check needs the vectors themselves.

``mirror_prox`` takes every solve setting from one ``SolverConfig``, whose
``eta`` names the step rule: None is adaptive, a number a fixed step.

No step depends on the budget T, so a run of T steps is an exact prefix of
any longer run on the same problem, oracle seed and step rule. ``mirror_prox``
takes ``checkpoints``, budgets in ``1..iterations``: at each one the loop
snapshots each seed's running trace as what a run with ``iterations=T``
would return (``x_avg`` from the same Kahan sum, ``z_sq_total``, the
three maxima, the two regret sums, and the records
``t % record_every == 0 or t == T``, the last one with its gap), available
as ``trace.prefix(T)`` and bitwise equal to that separate run. The
returned trace itself is the snapshot at the full budget; its records hold
no extra checkpoint rows or gaps.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional

import numpy as np

from .gap import GapError, _dual_gaps
# The loop does not call noisy_eval; it stays in this namespace because
# bench/tracing.py wraps solver.noisy_eval by that name.
from .operators import StochasticOracle, VIProblem, noisy_eval  # noqa: F401

__all__ = [
    "SolverConfig",
    "StepRecord",
    "RunTrace",
    "RunBatch",
    "SolverError",
    "DivergenceError",
    "InvariantError",
    "GapCheckError",
    "update_eta",
    "compute_z_sq",
    "mirror_prox",
]

_MOVEMENT_TOL = 1e-9
# Each seed's noise rows are drawn in slabs of about this many bytes of float64.
_NOISE_BLOCK_BYTES = 65536


class SolverError(RuntimeError):
    """Run aborted; carries the step index and step size of the failure, and
    in a batched solve the seed that failed."""

    def __init__(self, t: int, eta: float, message: str, seed=None):
        where = "" if seed is None else f" (seed {seed})"
        super().__init__(f"aborted at step t={t}, eta={eta:.6g}: {message}{where}")
        self.t = t
        self.eta = eta
        self.seed = seed


class DivergenceError(SolverError):
    """Non-finite iterate or operator value."""


class InvariantError(SolverError):
    """Movement bound violated; indicates a wrong g_bound or a geometry bug."""


class GapCheckError(SolverError):
    """The running average is infeasible or its duality gap not finite or below -1e-9."""


def _as_integer(key: str, value) -> int:
    """``value`` as an int if it is an integer, numpy's included; a bool or a
    float is not one (ValueError)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, step-size prior G0, the step rule ``eta`` (None for
    the adaptive step, else the fixed step), trace thinning, and the gap
    spacing: gaps at multiples of ``eval_every`` (a multiple of
    ``record_every``) and at each checkpoint's last step, or at the
    checkpoints only when it is None.
    ``iterations``, ``record_every`` and ``eval_every`` are integers; a bool
    or a float, even an integral one, raises ValueError."""

    iterations: int
    g0: float = 1.0
    eta: Optional[float] = None
    record_every: int = 1
    eval_every: Optional[int] = None

    def __post_init__(self):
        _as_integer("iterations", self.iterations)
        _as_integer("record_every", self.record_every)
        if self.eval_every is not None:
            _as_integer("eval_every", self.eval_every)
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (self.g0 > 0 and math.isfinite(self.g0)):
            raise ValueError(f"g0 must be positive and finite, got {self.g0}")
        # Z_t^2 divides by eta^2, so the square must not underflow to 0.
        eta = self.eta
        if eta is not None and not (eta > 0 and eta * eta > 0 and math.isfinite(eta)):
            raise ValueError(f"fixed-step mode requires a finite eta > 0 whose square is "
                             f"nonzero, got {eta}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.eval_every is not None:
            if self.eval_every < 1:
                raise ValueError("eval_every must be >= 1")
            if self.eval_every % self.record_every != 0:
                raise ValueError("eval_every must be a multiple of record_every")


@dataclass(slots=True)
class StepRecord:
    """One recorded step: its step size and Z_t^2, the three norms the step
    rule and the regret bound are built from, and the gap of the running
    average.

    xy_norm = ||x_t - y_t|| and xy_prev_norm = ||x_t - y_{t-1}|| are the
    movement norms Z_t^2 was computed from; gm_dual_norm = ||g_t - M_t||*
    is the distance between the step's loss and its hint. gap is the exact
    duality gap of (x_1 + ... + x_t) / t where one is due (see the module
    docstring), else None. No d-vector is kept; in a trace with every step
    recorded, ``uvi.analysis.replay_steps`` recomputes x_t, g_t, y_t and
    M_t bitwise from y_0 = ``min_point()`` and the recorded eta_t.
    """

    t: int
    eta: float
    z_sq: float
    xy_norm: float
    xy_prev_norm: float
    gm_dual_norm: float
    gap: Optional[float] = None


@dataclass
class RunTrace:
    """Recorded steps plus exact aggregates of a single run. The last step is
    always recorded: ``records[-1]`` holds the final step size and the gap.

    The loop updates each seed's running trace in place and returns only
    snapshots of it, which share no list, array or dict with each other.

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


@dataclass
class RunBatch:
    """The traces of one batched solve, by seed, in the order the seeds were given."""

    traces: Dict[Hashable, RunTrace]

    @property
    def iterations(self) -> int:
        """Seed-steps run: every seed's iterations, summed."""
        return sum(trace.iterations for trace in self.traces.values())

    @property
    def records(self) -> List[StepRecord]:
        """Every seed's records, seed after seed."""
        return [rec for trace in self.traces.values() for rec in trace.records]


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


def _checkpoint_set(checkpoints: Iterable[int], iterations: int) -> set:
    budgets = {_as_integer("checkpoint", T) for T in checkpoints}
    bad = sorted(T for T in budgets if not 1 <= T <= iterations)
    if bad:
        raise ValueError(f"checkpoints must lie in 1..{iterations}, got {bad}")
    return budgets | {iterations}  # the run is its own last checkpoint


def _sampler(problem: VIProblem, oracles: List[Optional[StochasticOracle]], seeds: list,
             samples: int):
    """F, plus each seed's noise row, at the loop's points (see ``_run_loop``).

    Every seed has an oracle, or none has. The S seeds' noise rows come from
    one (rows, S, d) stack, refilled slab by slab from each seed's own
    ``_noise(rows)``, and each sample adds one slice; ``rows`` is about
    ``_NOISE_BLOCK_BYTES`` of a seed's rows and never exceeds what is left
    of the run's ``samples`` draws, so no oracle hands out a row the run
    does not use.
    The returned ``sample(points, t, etas)`` makes one ``operator_eval``
    call per stack and raises step ``t``'s ``DivergenceError``, naming the
    first seed when the values are not an (S, d) stack, or the first seed
    whose value is not finite.
    """
    dim = problem.geom.dim
    bad_value = f"operator value must be a finite vector of dimension {dim}"
    slab_rows = max(1, _NOISE_BLOCK_BYTES // (8 * dim))

    def noise_rows():
        due = samples
        while due:
            rows = min(slab_rows, due)
            due -= rows
            # No name holds a slab, so it is freed before the next one is drawn.
            yield from np.stack([o._noise(rows) for o in oracles], axis=1)

    noise = None if oracles[0] is None else noise_rows()

    def sample(points, t, etas):
        values = np.asarray(problem.operator_eval(points), dtype=float)
        if values.shape != points.shape:
            raise DivergenceError(t, etas[0], bad_value, seeds[0])
        if noise is not None:
            values = values + next(noise)
        if not np.isfinite(values).all():
            s = int(np.argmin(np.isfinite(values).all(axis=1)))
            raise DivergenceError(t, etas[s], bad_value, seeds[s])
        return values

    return sample


def _run_loop(
    problem: VIProblem,
    config: SolverConfig,
    oracles: List[Optional[StochasticOracle]],
    seeds: list,
    checkpoints: Iterable[int],
) -> List[RunTrace]:
    """One trace per seed, seed s solved with ``oracles[s]`` as row s of each (n, d) stack."""
    budgets = _checkpoint_set(checkpoints, config.iterations)
    geom = problem.geom
    n, dim = len(oracles), geom.dim
    diameter = geom.diameter()
    for oracle in oracles:
        if oracle is not None and oracle.base is not problem:
            raise ValueError("oracle was built for a different problem instance")
    if len({o is None for o in oracles}) > 1:
        raise ValueError("oracles must be all StochasticOracles or all None, not a mix")
    sample = _sampler(problem, oracles, seeds, 2 * config.iterations)

    y_prev = np.tile(geom.min_point(), (n, 1))
    sum_x = np.zeros((n, dim))
    comp = np.zeros((n, dim))
    # The regret sums are streamed only where every step is recorded.
    streamed = config.record_every == 1
    g_sum = np.zeros((n, dim)) if streamed else None
    # Each seed's running trace, updated in place; every checkpoint snapshots it.
    runs = [RunTrace(iterations=0, record_every=config.record_every,
                     g_bound=problem.g_bound if o is None else o.g_bound, records=[],
                     x_avg=None, z_sq_total=0.0, max_xy_ratio=0.0, max_yy_ratio=0.0,
                     max_z_sq=0.0, gx_sum=0.0 if streamed else None)
            for o in oracles]

    for t in range(1, config.iterations + 1):
        if config.eta is not None:
            etas = [config.eta] * n
        else:
            etas = [update_eta(run.z_sq_total, diameter, config.g0) for run in runs]
        for s, eta in enumerate(etas):
            # Z_t^2 divides by eta_t^2, so the square must not underflow to 0 either.
            if not (eta * eta > 0.0 and eta < math.inf):
                raise DivergenceError(
                    t, eta, "step size out of floating-point range: eta_t must be "
                    "positive and finite, with a nonzero square", seeds[s]
                )
        step = geom._steps(etas)
        base = geom._prox_base(y_prev)  # shared by both prox steps from y_{t-1}
        m = sample(y_prev, t, etas)
        x = geom._prox_from(base, m, step)
        g = sample(x, t, etas)
        y = geom._prox_from(base, g, step)

        # The three movement norms of every seed, in one kernel call. y_{t-1}
        # is finite, so a non-finite x_t or y_t gives a non-finite norm.
        moves = np.concatenate([x - y, x - y_prev, y - y_prev])
        norms = geom._primal_norm(moves).tolist()
        if not math.isfinite(sum(norms)):
            finite = np.isfinite(np.stack([x, y])).all(axis=(0, 2))
            if not finite.all():
                s = int(np.argmin(finite))
                raise DivergenceError(t, etas[s], "non-finite iterate", seeds[s])

        # Kahan-compensated running sum keeps the average exact to ~1e-16.
        incr = x - comp
        total = sum_x + incr
        comp = (total - sum_x) - incr
        sum_x = total
        y_prev = y

        # A recorded step's values over the whole stack, before the per-seed pass.
        on_schedule = t % config.record_every == 0
        at_budget = t in budgets
        recorded = on_schedule or at_budget
        if recorded:
            if streamed:
                g_sum += g
                gx = np.vecdot(g, x).tolist()
            gm_norms = geom._dual_norm(g - m).tolist()
            # eval_every is a multiple of record_every, so an eval step is on schedule.
            eval_step = config.eval_every is not None and t % config.eval_every == 0
            if eval_step or at_budget:
                x_avg = sum_x / t
                try:
                    gaps = _dual_gaps(problem, x_avg)
                except GapError as exc:
                    raise GapCheckError(
                        t, etas[exc.row], f"running average: {exc}", seeds[exc.row]
                    ) from exc

        for s, run in enumerate(runs):
            eta, g_cap = etas[s], run.g_bound
            xy_norm, xy_prev_norm = norms[s], norms[n + s]
            z_sq = compute_z_sq(xy_norm, xy_prev_norm, eta)
            ratio_x = xy_prev_norm / eta
            ratio_y = norms[2 * n + s] / eta
            # An infinite or NaN G fails neither comparison.
            if ratio_x > g_cap + _MOVEMENT_TOL or ratio_y > g_cap + _MOVEMENT_TOL:
                raise InvariantError(
                    t, eta, f"movement/eta ratio {max(ratio_x, ratio_y):.6g} "
                    f"exceeds operator bound {g_cap:.6g}", seeds[s]
                )
            if z_sq > g_cap * g_cap + _MOVEMENT_TOL:
                raise InvariantError(
                    t, eta, f"Z^2 = {z_sq:.6g} exceeds G^2 = {g_cap * g_cap:.6g}", seeds[s]
                )
            run.max_xy_ratio = max(run.max_xy_ratio, ratio_x)
            run.max_yy_ratio = max(run.max_yy_ratio, ratio_y)
            run.max_z_sq = max(run.max_z_sq, z_sq)
            run.z_sq_total += z_sq
            if not recorded:
                continue
            if streamed:
                run.gx_sum += gx[s]
            rec = StepRecord(t=t, eta=eta, z_sq=z_sq, xy_norm=xy_norm,
                             xy_prev_norm=xy_prev_norm, gm_dual_norm=gm_norms[s],
                             gap=gaps[s] if eval_step else None)
            if at_budget:
                # A run of t steps also records its last step, with its gap,
                # off either schedule; that row belongs to this snapshot only.
                run.checkpoints[t] = dataclasses.replace(
                    run, iterations=t,
                    records=run.records + [dataclasses.replace(rec, gap=gaps[s])],
                    x_avg=x_avg[s].copy(),
                    g_sum=None if g_sum is None else g_sum[s].copy(), checkpoints={})
            if on_schedule:
                run.records.append(rec)

    # Each seed returns its last snapshot, holding the earlier ones.
    traces = [run.checkpoints.pop(config.iterations) for run in runs]
    for trace, run in zip(traces, runs):
        trace.checkpoints = run.checkpoints
    return traces


def mirror_prox(
    problem: VIProblem,
    config: SolverConfig,
    oracle: Optional[StochasticOracle] = None,
    *,
    checkpoints: Iterable[int] = (),
    oracles: Optional[Mapping[Hashable, Optional[StochasticOracle]]] = None,
):
    """Run mirror-prox with the step rule ``config.eta`` names: the adaptive
    step when it is None, or that constant step as a tuned baseline. Pass an oracle
    for the stochastic setting.

    Each budget in ``checkpoints`` is readable afterwards as ``prefix(T)``.
    Returns a RunTrace; with ``oracles``, a mapping from each seed to its
    oracle (all oracles, or all None for deterministic seeds), solves every
    seed in one batch and returns a RunBatch whose trace for each seed is
    bitwise its own run.
    """
    if oracles is None:
        return _run_loop(problem, config, [oracle], [None], checkpoints)[0]
    if oracle is not None:
        raise ValueError("pass either oracle or oracles, not both")
    if not oracles:
        raise ValueError("oracles must hold at least one seed")
    traces = _run_loop(problem, config, list(oracles.values()), list(oracles), checkpoints)
    return RunBatch(dict(zip(oracles, traces)))


# bench/worker.py and bench/tracing.py wrap the solver by these two names.
universal_mirror_prox = fixed_step_mirror_prox = mirror_prox
