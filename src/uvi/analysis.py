"""Rate-bound calculators and executable inequality oracles.

``theorem_bounds`` evaluates the convergence-rate expressions for the four
regimes (smooth/non-smooth x noiseless/noisy) with unit leading constants;
these are shape values for scaling comparisons only, never absolute ones.

The ``lemma*_check`` functions evaluate both sides of the scalar-sequence
inequalities that drive the adaptive-step analysis, and ``prop1_mc`` checks
the martingale-smoothing bound by Monte Carlo against an adversarially
chosen feasible point. ``regret_bound_sides`` computes both sides of the
optimistic-update regret bound along an actual run from the sums and norms
the solver loop streams; its left-hand side is the hindsight regret, and
``gap_certificate`` bounds the exact gap of a run's average by its accuracy
certificate. ``replay_steps`` recomputes an every-step run's vectors, and
``solver_invariants`` checks them against its records bitwise. The suites
of ``SUITES`` are the one copy of every check ``uvi verify`` and tests run.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import gap, operators, solver
from .geometry import EntropicSimplex, Geometry, GeometryError
from .operators import VIProblem
from .solver import RunTrace, SolverConfig, StepRecord

__all__ = [
    "theorem_bounds",
    "lemma4_check",
    "lemma5_check",
    "lemma7_check",
    "lemma8_check",
    "prop1_mc",
    "rate_fit",
    "regret_bound_sides",
    "ReplayedStep",
    "replay_steps",
    "lemma_oracle_checks",
    "adapter_invariants",
    "gap_certificate",
    "solver_invariants",
    "invariant_checks",
    "SUITES",
]

_HOLD_TOL = 1e-12


def theorem_bounds(
    problem: VIProblem, config: SolverConfig, noise_bound: Optional[float] = None
) -> dict:
    """Unit-constant rate shapes for the applicable convergence theorems, as
    the ``bounds`` entries of summary.json.

    Smooth deterministic: (alpha G D + alpha^2 L D^2 + L D^2 log(L D / G0)) / T.
    Non-smooth: alpha G D sqrt(log(1+T)) / sqrt(T) (log(1+T) keeps the shape
    strictly decreasing from T=1 on). Noisy variants add / swap in sigma.
    T and G0 are the config's ``iterations`` and ``g0``. With a ``noise_bound``,
    G is the sampled operator's bound ``problem.g_bound + noise_bound`` and
    sigma^2 = noise_bound^2, the exact second moment of the sign noise's dual
    norm (see ``StochasticOracle``). alpha = max(G/G0, G0/G) measures the
    quality of the step-size prior. Shapes that need constants the run lacks
    (L for the smooth rates, noise for the noisy ones) are None;
    ``log_regime_clamped`` flags that log(L D / G0) was negative and got
    clamped to 0. A shape past the float range is inf (null in summary.json).
    """
    T = config.iterations
    g0 = config.g0
    G = problem.g_bound + (noise_bound or 0.0)
    D = problem.geom.diameter()
    L = problem.smoothness

    alpha = max(G / g0, g0 / G) if G > 0 else math.inf
    sqrt_log_t = math.sqrt(math.log(1.0 + T))

    bounds = {"alpha": alpha, "thm1_rhs": None, "thm2_rhs": None, "thm3_rhs": None,
              "thm4_rhs": None, "log_regime_clamped": False}
    if math.isfinite(alpha):
        bounds["thm2_rhs"] = alpha * G * D * sqrt_log_t / math.sqrt(T)
        if noise_bound is not None:
            bounds["thm3_rhs"] = bounds["thm2_rhs"]
        if L is not None:
            log_term = math.log(L * D / g0) if L * D > 0 else -math.inf
            if log_term < 0.0:
                log_term = 0.0
                bounds["log_regime_clamped"] = True
            try:
                alpha_sq = alpha**2
            except OverflowError:  # float ** raises where float * gives inf
                alpha_sq = math.inf
            smooth_part = (
                alpha * G * D + alpha_sq * L * D * D + L * D * D * log_term
            ) / T
            bounds["thm1_rhs"] = smooth_part
            if noise_bound is not None:  # sigma is noise_bound
                bounds["thm4_rhs"] = (
                    smooth_part + alpha * noise_bound * D * sqrt_log_t / math.sqrt(T))
    return bounds


def _sequence(seq, cap) -> Tuple[np.ndarray, float]:
    arr = np.asarray(seq, dtype=float)
    if arr.ndim != 1:
        raise ValueError("sequence must be 1-D")
    if arr.size and float(arr.min()) < 0:
        raise ValueError("sequence entries must be nonnegative")
    top = float(arr.max()) if arr.size else 0.0
    if cap is None:
        cap = top
    elif cap < top - 1e-15:
        raise ValueError("cap must dominate every sequence entry")
    return arr, float(cap)


def lemma4_check(a0: float, seq: Sequence[float], cap: Optional[float] = None) -> dict:
    """Two-sided bound on sum_i a_i / sqrt(a0 + sum_{j<i} a_j).

    Lower: sqrt(a0 + sum_{i<=n-1} a_i) - sqrt(a0) (and the strengthened
    full-sum variant, reported as lhs_full). Upper:
    2a/sqrt(a0) + 3 sqrt(a) + 3 sqrt(a0 + sum_{i<=n-1} a_i), where a caps
    the entries.
    """
    if not a0 > 0:
        raise ValueError("a0 must be positive")
    arr, a = _sequence(seq, cap)
    prefix = np.concatenate([[0.0], np.cumsum(arr)])
    mid = float(np.sum(arr / np.sqrt(a0 + prefix[:-1]))) if arr.size else 0.0
    partial = float(prefix[-2]) if arr.size else 0.0
    total = float(prefix[-1])
    lhs = math.sqrt(a0 + partial) - math.sqrt(a0)
    lhs_full = math.sqrt(a0 + total) - math.sqrt(a0)
    rhs = 2.0 * a / math.sqrt(a0) + 3.0 * math.sqrt(a) + 3.0 * math.sqrt(a0 + partial)
    holds = (
        lhs <= mid + _HOLD_TOL * (1 + abs(mid))
        and lhs_full <= mid + _HOLD_TOL * (1 + abs(mid))
        and mid <= rhs + _HOLD_TOL * (1 + abs(rhs))
    )
    return {"lhs": lhs, "lhs_full": lhs_full, "mid": mid, "rhs": rhs, "holds": holds}


def lemma5_check(a0: float, seq: Sequence[float], cap: Optional[float] = None) -> dict:
    """sum_i a_i/(a0 + sum_{j<i} a_j) <= 2 + 4a/a0 + 2 log(1 + sum_{i<=n-1} a_i / a0)."""
    if not a0 > 0:
        raise ValueError("a0 must be positive")
    arr, a = _sequence(seq, cap)
    prefix = np.concatenate([[0.0], np.cumsum(arr)])
    lhs = float(np.sum(arr / (a0 + prefix[:-1]))) if arr.size else 0.0
    partial = float(prefix[-2]) if arr.size else 0.0
    rhs = 2.0 + 4.0 * a / a0 + 2.0 * math.log1p(partial / a0)
    holds = lhs <= rhs + _HOLD_TOL * (1 + abs(rhs))
    return {"lhs": lhs, "rhs": rhs, "holds": holds}


def lemma7_check(seq: Sequence[float]) -> dict:
    """sum_i a_i / sqrt(sum_{j<=i} a_j) <= 2 sqrt(sum_i a_i), with 0/0 := 0."""
    arr, _ = _sequence(seq, None)
    csum = np.cumsum(arr)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(csum > 0, arr / np.sqrt(np.where(csum > 0, csum, 1.0)), 0.0)
    lhs = float(terms.sum())
    rhs = 2.0 * math.sqrt(float(csum[-1])) if arr.size else 0.0
    holds = lhs <= rhs + _HOLD_TOL * (1 + abs(rhs))
    return {"lhs": lhs, "rhs": rhs, "holds": holds}


def lemma8_check(seq: Sequence[float]) -> dict:
    """sum_i b_i / (1 + sum_{j<=i} b_j) <= 1 + log(1 + sum_i b_i)."""
    arr, _ = _sequence(seq, None)
    csum = np.cumsum(arr)
    lhs = float(np.sum(arr / (1.0 + csum))) if arr.size else 0.0
    rhs = 1.0 + math.log1p(float(csum[-1])) if arr.size else 1.0
    holds = lhs <= rhs + _HOLD_TOL * (1 + abs(rhs))
    return {"lhs": lhs, "rhs": rhs, "holds": holds}


def prop1_mc(
    geom: Geometry,
    n: int,
    trials: int,
    seed: int = 0,
) -> dict:
    """Monte-Carlo check of the martingale-smoothing inner-product bound.

    Draws n independent sign-noise vectors Z_i of unit dual norm, lets X be
    the feasible maximizer of (sum_i Z_i).x (so X depends on the whole
    sequence, the adversarial case the bound is made for), and compares the
    sample mean of (sum_i Z_i).X against

        rhs = D_sc * sqrt(sum_i E||Z_i||*^2),   D_sc = sqrt(2 (max R - min R)),

    where D_sc is the diameter in the convention R - min R <= D_sc^2 / 2
    assumed by the bound, and E||Z_i||*^2 = 1 exactly under this noise
    model. The bound's derivation optimizes D_sc^2/(2s) + (s/2) sum E
    over s, giving the D_sc * sqrt(.) value used here. Holds allows CLT
    slack 3/sqrt(trials).
    """
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be >= 1")
    rng = np.random.default_rng(seed)
    d = geom.dim
    scale = 1.0 / geom.dual_norm(np.ones(d))
    signs = rng.integers(0, 2, size=(trials, n, d)) * 2 - 1
    sums = signs.sum(axis=1) * scale
    values = np.empty(trials)
    for k in range(trials):
        values[k] = -geom.linear_minimize(-sums[k])[1]
    lhs = float(values.mean())
    rhs = math.sqrt(2.0 * geom.diameter_sq) * math.sqrt(n)
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    holds = lhs <= rhs * (1.0 + 3.0 / math.sqrt(trials)) + _HOLD_TOL
    return {"lhs_estimate": lhs, "rhs": rhs, "stderr": stderr, "holds": holds}


def rate_fit(points: Sequence[Tuple[float, float]]) -> dict:
    """Least-squares slope of log(gap) against log(T); nonpositive gaps drop."""
    kept = [(float(t), float(g)) for t, g in points if g > 0]
    if len(kept) < 3:
        raise ValueError("rate fit needs at least 3 positive gap values")
    if len({t for t, _ in kept}) < 2:  # a slope needs two distinct log T
        raise ValueError("rate fit needs positive gap values at 2 or more distinct T")
    x = np.log([t for t, _ in kept])
    y = np.log([g for _, g in kept])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"exponent": float(slope), "r2": r2}


def regret_bound_sides(problem: VIProblem, trace: RunTrace) -> Tuple[float, float]:
    """Both sides of the optimistic-update regret bound over a run.

    LHS: sum_t g_t.(x_t - x*) with x* the exact linear minimizer of
    sum_t g_t over K, taken as sum_t g_t.x_t - min_K (sum_t g_t).x from the
    two sums the loop streams (``trace.gx_sum``, ``trace.g_sum``). RHS:
    D^2/eta_1 + D^2/eta_t + sum_t ||g_t - M_t||* ||x_t - y_t||
    - (1/2) sum_t (1/eta_t)(||x_t - y_t||^2 + ||x_t - y_{t-1}||^2),
    with the norms the solver loop recorded. Requires record_every=1 so
    every step is available; for a shorter budget pass ``trace.prefix(T)``.
    """
    if trace.record_every != 1:
        raise ValueError("regret bound needs every step recorded (record_every=1)")
    records = trace.records
    geom = problem.geom
    d_sq = geom.diameter_sq

    lhs = trace.gx_sum - geom.linear_minimize(trace.g_sum)[1]
    rhs = d_sq / records[0].eta + d_sq / records[-1].eta
    for rec in records:
        xy, xyp = rec.xy_norm, rec.xy_prev_norm
        rhs += rec.gm_dual_norm * xy
        rhs -= 0.5 * (xy * xy + xyp * xyp) / rec.eta
    return lhs, rhs


class ReplayedStep(NamedTuple):
    """One step of a run as ``replay_steps`` recomputes it: the record, the
    anchor y_{t-1}, the hint M_t, the iterate x_t, the loss g_t and y_t."""

    record: StepRecord
    y_prev: np.ndarray
    m: np.ndarray
    x: np.ndarray
    g: np.ndarray
    y: np.ndarray


def replay_steps(
    problem: VIProblem,
    trace: RunTrace,
    oracle: Optional[operators.StochasticOracle] = None,
) -> Iterator[ReplayedStep]:
    """Re-run each step of an every-step trace through the public checked methods.

    From y_0 = ``min_point()``, step t evaluates M_t = F(y_{t-1}) and
    g_t = F(x_t) with ``problem.operator`` or, for a stochastic run,
    ``noisy_eval`` on ``oracle``, a fresh twin of the run's oracle (same
    problem, noise and seed), and takes both prox steps with the recorded
    eta_t. The solver loop makes the same calls through unchecked kernels,
    so each step is bitwise the run's own. Requires record_every=1; raises
    GeometryError at the first x_t or y_t that is not in K to 1e-10.
    """
    if trace.record_every != 1:
        raise ValueError("replay needs every step recorded (record_every=1)")
    if oracle is None:
        evaluate = problem.operator
    elif oracle.base is not problem:
        raise ValueError("oracle was built for a different problem instance")
    else:
        def evaluate(point):
            return operators.noisy_eval(oracle, point)
    geom = problem.geom
    y_prev = geom.min_point()
    for rec in trace.records:
        m = evaluate(y_prev)
        x = geom.prox_step(y_prev, m, rec.eta)
        g = evaluate(x)
        y = geom.prox_step(y_prev, g, rec.eta)
        if not (geom.contains(x) and geom.contains(y)):
            raise GeometryError(f"iterate infeasible at t={rec.t}")
        yield ReplayedStep(rec, y_prev, m, x, g, y)
        y_prev = y


def lemma_oracle_checks(seed: int) -> List[Tuple[str, bool, str]]:
    """1000 random instances of each of Lemmas 4, 5, 7 and 8, then ``prop1_mc``
    on two entropic simplices; returns ``(name, ok, detail)`` per check."""
    rng = np.random.default_rng(seed)
    checks = []
    for label, runner in (
        ("lemma4", lemma4_check),
        ("lemma5", lemma5_check),
        ("lemma7", lambda a0, s, a: lemma7_check(s)),
        ("lemma8", lambda a0, s, a: lemma8_check(s)),
    ):
        failure = ""
        for i in range(1000):
            n = int(rng.integers(1, 201))
            a = float(rng.uniform(1e-3, 10.0))
            a0 = float(rng.uniform(1e-3, 10.0))
            result = runner(a0, rng.uniform(0.0, a, size=n), a)
            if not result["holds"]:
                failure = (f"instance {i}: n={n} a0={a0:.6g} a={a:.6g} "
                           f"lhs={result['lhs']:.6g} rhs={result['rhs']:.6g}")
                break
        checks.append((f"{label}-random-1000", failure == "", failure))

    for d, n in ((3, 10), (5, 50)):
        result = prop1_mc(EntropicSimplex(d), n, 10_000, seed=seed)
        detail = f"lhs={result['lhs_estimate']:.4f} rhs={result['rhs']:.4f}"
        checks.append((f"prop1-simplex-d{d}-n{n}", result["holds"], detail))
    return checks


def adapter_invariants(problem: VIProblem, seed: int) -> Tuple[bool, str]:
    """The problem's stated properties over 1000 random pairs, then its gaps.

    Per pair: F is a finite vector at both points (``VIProblem.operator``),
    monotonicity of F, compatibility Delta(x, y) <= F(x).(x - y),
    convexity of Delta in x, ||F(x)||* <= G and, when the problem states
    one, ||F(x) - F(y)||* <= L ||x - y||. Then at 100 random points x, each
    with a fresh y, the stated gap must be finite, non-negative and within
    Delta(x, y) <= gap(x) <= F(x).x - min_K F(x).y, the supremum of the
    compatibility bound, both to 1e-9; and it must be zero at
    ``known_solution``.
    """
    rng = np.random.default_rng(seed)
    geom = problem.geom
    lips = problem.smoothness
    for i in range(1000):
        x, y = geom.sample(rng), geom.sample(rng)
        try:
            fx, fy = problem.operator(x), problem.operator(y)
        except ValueError as exc:  # a value that is not a finite vector of dimension d
            return False, f"operator at sample {i}: {exc}"
        if float((x - y) @ (fx - fy)) < -1e-9:
            return False, f"monotonicity pair {i}"
        if problem.gap(x, y) > float(fx @ (x - y)) + 1e-9:
            return False, f"compatibility pair {i}"
        lam = float(rng.uniform())
        z = geom.sample(rng)
        mixed = problem.gap(lam * x + (1 - lam) * z, y)
        if mixed > lam * problem.gap(x, y) + (1 - lam) * problem.gap(z, y) + 1e-9:
            return False, f"convexity triple {i}"
        if geom.dual_norm(fx) > problem.g_bound + 1e-9:
            return False, f"G bound at sample {i}"
        if lips is not None:
            if geom.dual_norm(fx - fy) > lips * geom.primal_norm(x - y) * (1 + 1e-6) + 1e-12:
                return False, f"L bound pair {i}"
    for i in range(100):
        x, y = geom.sample(rng), geom.sample(rng)
        try:
            fx = problem.operator(x)
            value = gap.dual_gap(problem, x)
        except ValueError as exc:  # a bad F(x), or a gap not finite or below -1e-9
            return False, f"gap sample {i}: {exc}"
        lower = problem.gap(x, y)
        if value < lower - 1e-9:
            return False, f"gap sample {i} below Delta(x, y) = {lower:.6g}: gap {value:.6g}"
        upper = float(fx @ x) - geom.linear_minimize(fx)[1]
        if value > upper + 1e-9:
            return False, (f"gap sample {i} above F(x).x - min_K F(x).y = {upper:.6g}: "
                           f"gap {value:.6g}")
    if problem.known_solution is not None:
        if gap.dual_gap(problem, problem.known_solution) > 1e-9:
            return False, "known solution has positive gap"
    return True, ""


def gap_certificate(problem: VIProblem, x_avg: np.ndarray, pairs: Iterable) -> Tuple[bool, str]:
    """gap(x_avg) <= cert = (sum_t F(x_t).x_t - min_K (sum_t F(x_t)).x) / T for a
    run's pairs (x_t, F(x_t)), t = 1..T, F noise-free, x_avg the mean of the x_t.
    This accuracy certificate (Nemirovski, Onn & Rothblum 2010) is exact for a
    Delta compatible with F and convex in x: T Delta(x_avg, x) <= sum_t Delta(x_t, x)
    <= sum_t F(x_t).(x_t - x) at every x in K, whose supremum over K is T cert."""
    f_sum, fx_sum = 0.0, 0.0
    for T, (x_t, f_t) in enumerate(pairs, start=1):
        f_sum, fx_sum = f_sum + f_t, fx_sum + float(f_t @ x_t)
    cert = (fx_sum - problem.geom.linear_minimize(f_sum)[1]) / T
    value = gap.dual_gap(problem, x_avg)
    if value > cert * (1 + _HOLD_TOL) + _HOLD_TOL:
        return False, f"gap {value:.6g} of the average exceeds its certificate {cert:.6g}"
    return True, ""


def solver_invariants(
    problem: VIProblem, seed: int, noise_bound: float = 0.0
) -> Tuple[bool, str]:
    """Invariants of one universal run of 300 steps at G0 = G with every step
    recorded, checked in one pass over its ``replay_steps``.

    The run must not abort (its guards bound the movement ratios by G and
    Z_t^2 by G^2). At every step eta_t must be bitwise
    D / sqrt(G0^2 + sum_{tau<t} Z_tau^2) of the recorded Z^2, x_t and y_t
    feasible, and the replayed ||x_t - y_t||, ||x_t - y_{t-1}|| and
    ||g_t - M_t||* bitwise the recorded norms; a stochastic replay draws from
    a fresh oracle of the same seed. The average must be feasible and meet
    ``gap_certificate`` on the x_t, and a deterministic run the regret bound.
    """
    g0 = problem.g_bound + noise_bound
    config = SolverConfig(iterations=300, g0=g0, record_every=1)

    def oracle():  # a fresh one, or None, for the run and its replay alike
        if noise_bound <= 0:
            return None
        return operators.StochasticOracle(problem, noise_bound, rng_seed=seed)

    try:
        trace = solver.mirror_prox(problem, config, oracle())
    except solver.SolverError as exc:
        return False, f"solver aborted: {exc}"
    geom, diameter, z = problem.geom, problem.geom.diameter(), 0.0
    pairs = []  # the loop's x_t, with F(x_t) noise-free in a stochastic run too
    try:
        for rec, y_prev, m, x, g, y in replay_steps(problem, trace, oracle()):
            want = diameter / math.sqrt(g0 * g0 + z)  # the step rule, not solver.update_eta
            if rec.eta != want:
                return False, (f"eta at t={rec.t} is {rec.eta:.17g}, "
                               f"the step rule gives {want:.17g}")
            z += rec.z_sq
            norms = geom.primal_norm(x - y), geom.primal_norm(x - y_prev), geom.dual_norm(g - m)
            if norms != (rec.xy_norm, rec.xy_prev_norm, rec.gm_dual_norm):
                return False, f"replayed step t={rec.t} differs from the run"
            pairs.append((x, problem.operator(x)))
    except GeometryError as exc:  # a replayed iterate outside K
        return False, str(exc)
    if not geom.contains(trace.x_avg):
        return False, "averaged output infeasible"
    if noise_bound <= 0:  # the regret bound, whose left side is then T cert
        lhs, rhs = regret_bound_sides(problem, trace)
        if lhs > rhs + 1e-6:
            return False, f"regret bound violated: lhs={lhs:.6g} rhs={rhs:.6g}"
    return gap_certificate(problem, trace.x_avg, pairs)


def invariant_checks(seed: int) -> List[Tuple[str, bool, str]]:
    """``adapter_invariants`` on every catalog problem, by name, then
    ``solver_invariants`` on every one, in catalog order, and with noise on
    ``rps``; ``(name, ok, detail)`` each."""
    make, catalog = operators.make_problem, operators.builtin_problems()
    checks = [(f"adapter-{name}", *adapter_invariants(make(name), seed))
              for name in sorted(catalog)]
    checks += [(f"solver-{name}", *solver_invariants(make(name), seed)) for name in catalog]
    checks.append(("solver-rps-stochastic", *solver_invariants(make("rps"), seed, 0.25)))
    return checks


# ``uvi verify``'s suites, in the order ``--suite all`` runs them.
SUITES = {"lemmas": lemma_oracle_checks, "invariants": invariant_checks}
