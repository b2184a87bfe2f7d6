"""Monotone operators, compatible gap functions, and bounded-noise oracles.

A problem couples an operator F over a geometry's feasible set with a gap
function satisfying Delta(x, y) <= F(x).(x - y), convex in x, whose maximum
over y (the duality gap) vanishes exactly at solutions. Two adapters cover
the standard cases:

* convex minimization: Delta(x, y) = f(x) - f(y), F = grad f, and the
  duality gap f(x) - min_K f;
* convex-concave saddle problems: Delta(x, x0) = phi(u, v0) - phi(u0, v)
  with F(x) = (grad_u phi, -grad_v phi) over the scaled product geometry.

The stochastic oracle adds zero-mean sign noise whose dual norm is bounded
almost surely, so the sampled operator stays norm-bounded as required by
the solver's movement invariants.

``VIProblem.operator``/``gap`` and ``noisy_eval`` validate their points
once, at this boundary; the operator and gap closures behind them take raw
arrays of the right dimension unchecked.
The catalog operators also take a stack of points, one per row
(``VIProblem.batched``), so the solver loop evaluates a batch of seeds in
one call.

A matrix game's operator and duality gap both need the two products A v
and u A. When the payoff array holds at least 4 MiB (``_CONCURRENT_BYTES``;
1000x1000 holds 8 MB), A v runs on one helper thread, started on first use,
while the calling thread computes u A; numpy releases the GIL inside both.
Each product is the same numpy call on the same arrays as when run in turn,
so no output bit can change; neither product is split, as that would change
its reduction order. Smaller games run both in turn: handing a call to the
thread costs more than it saves below the measured crossover, which lies
between 500x500 (1.9 MiB) and 550x550 (2.3 MiB) at one point.
"""

from __future__ import annotations

import inspect
import math
import numbers
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .geometry import (
    EntropicSimplex,
    EuclideanBall,
    EuclideanBox,
    Geometry,
    GeometryError,
    ProductGeometry,
)

__all__ = [
    "VIProblem",
    "StochasticOracle",
    "UnknownProblemError",
    "convex_min_problem",
    "saddle_problem",
    "matrix_game",
    "noisy_eval",
    "builtin_problems",
    "make_problem",
]


class UnknownProblemError(ValueError):
    """Requested catalog problem name does not exist."""


@dataclass
class VIProblem:
    """A monotone operator with a compatible gap function over a feasible set.

    ``g_bound`` is a bound on the dual norm of F over K (and of any oracle
    sample); ``smoothness`` is the dual-norm Lipschitz constant of F when it
    exists; ``dual_gap_eval`` evaluates the exact duality gap when one is
    registered; ``gap_tolerance`` records the accuracy of the reference
    minimum used by that evaluator (0 for closed forms). ``params`` holds
    what the adapter's caller passed; a matrix game's holds its payoff
    array under ``"matrix"``. With ``batched`` set,
    ``operator_eval`` also maps an (S, d) stack of points to a new (S, d)
    array whose row s is bitwise its value at row s alone, and
    ``dual_gap_eval`` maps it to the S gaps the same way; the library hands
    a batched ``dual_gap_eval`` only such stacks, a single point as a
    one-row stack. Without ``batched``, the solver loop and ``uvi.gap``
    call a user operator and evaluator one row at a time.
    """

    name: str
    geom: Geometry
    operator_eval: Callable[[np.ndarray], np.ndarray]
    gap_eval: Callable[[np.ndarray, np.ndarray], float]
    g_bound: float
    smoothness: Optional[float] = None
    dual_gap_eval: Optional[Callable[[np.ndarray], float]] = None
    known_solution: Optional[np.ndarray] = None
    gap_tolerance: float = 0.0
    params: dict = field(default_factory=dict)
    batched: bool = False

    def operator(self, x) -> np.ndarray:
        return np.asarray(self.operator_eval(self.geom.check_point(x)), dtype=float)

    def gap(self, x, y) -> float:
        check = self.geom.check_point
        return float(self.gap_eval(check(x), check(y)))


def _reference_minimum(f, geom: Geometry) -> tuple[float, float]:
    """High-accuracy inner solve for min_K f when no closed form is supplied.

    Multi-start SLSQP with the feasible set expressed as constraints; the
    returned tolerance is recorded on the problem as ``gap_tolerance``.
    """
    from scipy.optimize import minimize

    bounds = None
    constraints = ()
    if isinstance(geom, EuclideanBall):
        r2 = geom.radius * geom.radius
        constraints = ({"type": "ineq", "fun": lambda x: r2 - float(x @ x)},)
    elif isinstance(geom, EuclideanBox):
        bounds = list(zip(geom.lower, geom.upper))
    elif isinstance(geom, (EntropicSimplex,)) or geom.kind == "euclidean-simplex":
        bounds = [(0.0, None)] * geom.dim
        constraints = ({"type": "eq", "fun": lambda x: float(x.sum()) - 1.0},)
    else:
        raise GeometryError(
            f"no reference-minimum solver for geometry kind {geom.kind!r}"
        )

    rng = np.random.default_rng(0)
    starts = [geom.min_point()] + [geom.sample(rng) for _ in range(8)]
    best = math.inf
    for x0 in starts:
        res = minimize(
            lambda x: float(f(x)),
            x0,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": 500, "ftol": 1e-14},
        )
        if res.fun < best:
            best = float(res.fun)
    return best, 1e-8


def convex_min_problem(
    f,
    grad,
    geom: Geometry,
    *,
    g_bound: float,
    smoothness: Optional[float] = None,
    name: str = "convex-min",
    min_value: Optional[float] = None,
    minimizer=None,
    params: Optional[dict] = None,
    batched: bool = False,
) -> VIProblem:
    """Adapt a convex objective to the gap-function interface.

    Delta(x, y) = f(x) - f(y) and F = grad; the duality gap is
    f(x) - min_K f, with the minimum taken from ``min_value`` when the
    closed form is known and from a cached inner solve otherwise. Set
    ``batched`` when ``grad`` also takes a stack of points, one per row
    (see ``VIProblem``); the duality gap maps ``f`` over the rows of a
    stack either way.
    """
    if min_value is None:
        min_value, gap_tol = _reference_minimum(f, geom)
    else:
        min_value, gap_tol = float(min_value), 0.0

    def gap_eval(x, y):
        return float(f(x) - f(y))

    def dual_gap_eval(x):
        if x.ndim == 1:
            return float(f(x)) - min_value
        return np.array([float(f(row)) - min_value for row in x])

    return VIProblem(
        name=name,
        geom=geom,
        operator_eval=lambda x: np.asarray(grad(x), dtype=float),
        gap_eval=gap_eval,
        g_bound=float(g_bound),
        smoothness=smoothness,
        dual_gap_eval=dual_gap_eval,
        known_solution=None if minimizer is None else np.asarray(minimizer, float),
        gap_tolerance=gap_tol,
        params=dict(params or {}),
        batched=batched,
    )


def saddle_problem(
    phi,
    grad_u,
    grad_v,
    geom_u: Geometry,
    geom_v: Geometry,
    *,
    g_bound: float,
    smoothness: Optional[float] = None,
    name: str = "saddle",
    dual_gap_eval=None,
    known_solution=None,
    params: Optional[dict] = None,
    batched: bool = False,
) -> VIProblem:
    """Adapt a convex-concave function phi(u, v) to the gap-function interface.

    F(u, v) = (grad_u phi, -grad_v phi) and
    Delta((u, v), (u0, v0)) = phi(u, v0) - phi(u0, v), both over the scaled
    product geometry of the two blocks. Set ``batched`` when ``grad_u`` and
    ``grad_v``, and ``dual_gap_eval`` if given, also take stacks of points,
    one per row.
    """
    geom = ProductGeometry(geom_u, geom_v)
    u0, v0 = geom_u.min_point(), geom_v.min_point()
    gu = np.asarray(grad_u(u0, v0), dtype=float)
    gv = np.asarray(grad_v(u0, v0), dtype=float)
    if gu.shape != (geom_u.dim,) or gv.shape != (geom_v.dim,):
        raise GeometryError(
            f"block-dimension mismatch: gradients have shapes {gu.shape}/{gv.shape}, "
            f"geometry blocks have dims {geom_u.dim}/{geom_v.dim}"
        )

    operator_eval, gap_eval = _saddle_evals(
        geom, phi, lambda u, v: (grad_u(u, v), grad_v(u, v)))
    return VIProblem(
        name=name,
        geom=geom,
        operator_eval=operator_eval,
        gap_eval=gap_eval,
        g_bound=float(g_bound),
        smoothness=smoothness,
        dual_gap_eval=dual_gap_eval,
        known_solution=known_solution,
        params=dict(params or {}),
        batched=batched,
    )


def _saddle_evals(geom: ProductGeometry, phi, grads):
    """The operator and gap closures of phi(u, v) over ``geom``, where
    ``grads(u, v)`` returns the pair (grad_u phi, grad_v phi)."""

    def operator_eval(x):
        gu, gv = grads(*geom._split(x))
        return np.concatenate([np.asarray(gu, float), -np.asarray(gv, float)], axis=-1)

    def gap_eval(x, x0):
        u, v = geom._split(x)
        u0, v0 = geom._split(x0)
        return float(phi(u, v0) - phi(u0, v))

    return operator_eval, gap_eval


# A payoff matrix of at least this many bytes runs its two products at once,
# one on the helper thread. The operator at one point, best of 7 (1 BLAS
# thread, 2-core KVM host): 500x500 (1.9 MiB) 160 us in turn, 211 us at once;
# 550x550 (2.3 MiB) 213 vs 144 us; 700x700 (3.7 MiB) 381 vs 217 us;
# 1000x1000 (7.6 MiB) 785 vs 424 us. 4 MiB sits above the 2 MiB per-core L2
# and clear of the crossover.
_CONCURRENT_BYTES = 1 << 22


class _Job:
    """One call for the helper thread; ``done`` is released once it has run."""

    __slots__ = ("call", "done", "value", "error")

    def __init__(self, call):
        self.call, self.value, self.error = call, None, None
        self.done = threading.Lock()
        self.done.acquire()

    def run(self):
        try:
            self.value = self.call()
        except BaseException as exc:
            self.error = exc
        self.done.release()


def _helper_loop(jobs):
    while True:
        jobs.get().run()


_jobs = None  # the helper thread's queue; the thread starts on first use
_jobs_lock = threading.Lock()


def _forget_helper():
    # A forked child has no helper thread; it starts its own on first use.
    global _jobs, _jobs_lock
    _jobs, _jobs_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


def _concurrently(first, second):
    """(first(), second()), running ``first`` on the helper thread meanwhile.

    Returns, or raises the error of ``second`` or else of ``first``, only
    once both calls have finished. Each caller waits on its own job only,
    so any number of threads may share the helper.
    """
    global _jobs
    with _jobs_lock:
        if _jobs is None:
            import queue  # here, so that small problems do not import it

            _jobs = queue.SimpleQueue()
            threading.Thread(target=_helper_loop, args=(_jobs,), name="uvi-products",
                             daemon=True).start()
        jobs = _jobs
    job = _Job(first)
    jobs.put(job)
    try:
        value = second()
    finally:
        job.done.acquire()
    if job.error is not None:
        raise job.error
    return job.value, value


def matrix_game(A, *, name: str = "matrix-game", clamp_eps: float = 1e-12) -> VIProblem:
    """Bilinear zero-sum game phi(u, v) = u.A.v over two entropic simplices.

    The operator bound comes from max_ij |A_ij| through the product dual
    norm, and the smoothness constant uses the cross-block Lipschitz
    constants L12 = L21 = max_ij |A_ij| (the l1->linf operator norm of A):
    L = 2 max|A| sqrt(log d1 * log d2). The duality gap is exact by vertex
    enumeration: max_j (A'u)_j - min_i (Av)_i.

    ``params["matrix"]`` is the float64 array the operator and gap use, the
    only copy of the payoff matrix; a float64 input array is used as given,
    not copied, and building the problem makes no temporary copy of it.
    The operator and the duality gap take both products from one
    ``products(u, v)``, which runs them at once for an array of at least
    ``_CONCURRENT_BYTES`` and in turn otherwise, with the same bits either
    way (see the module docstring).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("payoff matrix must be a non-empty 2-D array")
    # NaN and +-inf all show in the maximum or the minimum.
    hi, lo = float(A.max()), float(A.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError("payoff matrix must have finite entries")
    d1, d2 = A.shape
    geom_u = EntropicSimplex(d1, clamp_eps)
    geom_v = EntropicSimplex(d2, clamp_eps)
    amax = max(abs(hi), abs(lo))  # +0.0, not -0.0, for an all-(-0.0) matrix
    du2, dv2 = geom_u.diameter_sq, geom_v.diameter_sq
    g_bound = amax * math.sqrt(du2 + dv2)
    smoothness = 2.0 * amax * math.sqrt(du2 * dv2)

    concurrent = A.nbytes >= _CONCURRENT_BYTES

    def products(u, v):
        # One point or a stack, row by row bitwise A @ v and A.T @ u.
        if concurrent:
            return _concurrently(lambda: np.matvec(A, v), lambda: np.vecmat(u, A))
        return np.matvec(A, v), np.vecmat(u, A)

    def dual_gap_eval(x):
        av, ua = products(x[..., :d1], x[..., d1:])
        return np.max(ua, axis=-1) - np.min(av, axis=-1)

    geom = ProductGeometry(geom_u, geom_v)
    operator_eval, gap_eval = _saddle_evals(geom, lambda u, v: float(u @ A @ v), products)
    return VIProblem(
        name=name,
        geom=geom,
        operator_eval=operator_eval,
        gap_eval=gap_eval,
        g_bound=g_bound,
        smoothness=smoothness,
        dual_gap_eval=dual_gap_eval,
        params={"matrix": A},
        batched=True,
    )


def _noise_sigma_sq(noise_bound: float, sigma_sq: Optional[float]) -> float:
    """The variance bound of sign noise with dual-norm bound ``noise_bound``.

    ``sigma_sq`` defaults to noise_bound^2, the exact second moment; a given
    value must be finite and may not understate it. Raises ValueError.
    """
    if not (math.isfinite(noise_bound) and noise_bound >= 0):
        raise ValueError(f"noise bound must be finite and nonnegative, got {noise_bound}")
    if sigma_sq is None:
        return noise_bound**2
    if not math.isfinite(sigma_sq):
        raise ValueError(f"noise sigma_sq must be finite, got {sigma_sq}")
    if sigma_sq < noise_bound**2 * (1 - 1e-12):
        raise ValueError(
            "sigma_sq understates the noise model: sign noise with dual-norm "
            f"bound {noise_bound} has second moment {noise_bound ** 2}"
        )
    return sigma_sq


@dataclass
class StochasticOracle:
    """Unbiased sampled operator F + zeta with bounded sign noise.

    Each coordinate of zeta is an independent fair sign times
    noise_bound / c, where c is the dual norm of the all-ones vector, so
    dual_norm(zeta) = noise_bound almost surely and the second moment of
    the dual norm is exactly noise_bound^2. ``sigma_sq`` stores the variance
    bound for verification only; the solver never reads it. One oracle
    instance per run; the generator is PCG64 seeded from ``rng_seed``.

    ``_noise(count)`` draws the next ``count`` rows of zeta in one
    ``integers`` call of (count, d) signs. PCG64's bounded integer draws do
    not depend on how a request is chunked, so a row is bitwise the one a
    separate draw of d signs would give, however the stream is split.
    ``noisy_eval`` checks the point, then adds one row. The solver loop
    evaluates the operator itself and takes each noisy seed's rows in slabs
    (see ``uvi.solver``), never more than its run still needs; so after a
    run of T steps the oracle's next row is the (2T + 1)-th of its stream,
    however the run was batched. With noise_bound 0 nothing is drawn.
    """

    base: VIProblem
    noise_bound: float
    sigma_sq: Optional[float] = None
    rng_seed: Union[int, np.random.SeedSequence] = 0

    def __post_init__(self):
        self.sigma_sq = _noise_sigma_sq(self.noise_bound, self.sigma_sq)
        self._rng = np.random.default_rng(self.rng_seed)
        self._unit_dual = self.base.geom.dual_norm(np.ones(self.base.geom.dim))

    @property
    def g_bound(self) -> float:
        return self.base.g_bound + self.noise_bound

    def _noise(self, count: int) -> np.ndarray:
        """The next ``count`` noise rows, as (count, dim)."""
        signs = self._rng.integers(0, 2, size=(count, self.base.geom.dim))
        return (self.noise_bound / self._unit_dual) * (signs * 2 - 1)


def noisy_eval(oracle: StochasticOracle, x) -> np.ndarray:
    """One fresh unbiased sample of the operator at a feasible point."""
    geom = oracle.base.geom
    x = geom.check_point(x)
    if not geom._contains(x, 1e-8):
        raise GeometryError(f"noisy_eval: point is not feasible for {geom.kind}")
    f = oracle.base.operator(x)
    if oracle.noise_bound == 0.0:
        return f
    return f + oracle._noise(1)[0]


# ---------------------------------------------------------------------------
# Builtin problem catalog
# ---------------------------------------------------------------------------

def _integer(key: str, value) -> int:
    """An integer parameter; integral floats such as 1e3 pass, bools do not."""
    if isinstance(value, float) and value.is_integer() or (
            isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _real(key: str, value) -> float:
    """A real parameter as a float; bools and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} is out of the float range") from None


def _array(key: str, value, ndim: int) -> np.ndarray:
    """A float array of ``ndim`` (1 or 2) dimensions."""
    try:
        x = np.asarray(value, dtype=float)
    except (TypeError, OverflowError):
        raise ValueError(f"{key} must hold numbers in the float range, got {value!r}") from None
    if x.ndim != ndim:
        raise ValueError(f"{key} must be a {ndim}-D {('vector', 'matrix')[ndim - 1]}, "
                         f"got shape {x.shape}")
    return x


_RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


def _make_rps() -> VIProblem:
    problem = matrix_game(_RPS, name="rps")
    problem.known_solution = np.full(6, 1.0 / 3.0)
    return problem


def _make_random_game(d1: int = 3, d2: int = 3, seed: int = 0) -> VIProblem:
    d1, d2, seed = _integer("d1", d1), _integer("d2", d2), _integer("seed", seed)
    rng = np.random.default_rng(seed)
    return matrix_game(rng.uniform(-1.0, 1.0, size=(d1, d2)), name="random-game")


def _make_quadratic_ball(radius: float = 1.0, x0=(1.5, 0.0)) -> VIProblem:
    """f(x) = ||x - x0||^2 / 2 over an l2 ball.

    With x0 outside the ball the constrained minimizer sits on the boundary
    with a nonzero gradient, which is the regime where gradient magnitudes
    do not vanish even though the problem is smooth.
    """
    x0, radius = _array("x0", x0, 1), _real("radius", radius)
    geom = EuclideanBall(radius, x0.size)
    nrm = float(np.linalg.norm(x0))
    if nrm <= radius:
        minimizer, min_value = x0.copy(), 0.0
    else:
        minimizer = x0 * (radius / nrm)
        min_value = 0.5 * (nrm - radius) ** 2
    return convex_min_problem(
        f=lambda x: 0.5 * float((x - x0) @ (x - x0)),
        grad=lambda x: x - x0,
        geom=geom,
        g_bound=radius + nrm,
        smoothness=1.0,
        name="quadratic-ball",
        min_value=min_value,
        minimizer=minimizer,
        batched=True,
    )


def _l1_min_on_ball(x0: np.ndarray, radius: float) -> tuple[float, np.ndarray]:
    """Exact min of ||x - x0||_1 over the ball ||x||_2 <= r, and its minimizer.

    By minimax the minimum equals the dual max_{t in [0,1]^d} a.t - r||t||_2
    with a = |x0|, attained at s = sign(x0) * t. At the dual optimum the k
    largest a_i saturate: t_i = min(1, a_i c) with
    c = sqrt(k / (r^2 - sum_{i>k} a_i^2)), for a value of
    sum_{i<=k} a_i - sqrt(k (r^2 - sum_{i>k} a_i^2)) (a sorted decreasing),
    and the minimizer is the best response r s / ||s||. Every candidate t
    is dual feasible, so the best candidate over k is the optimum.
    """
    nrm = float(np.linalg.norm(x0))
    if nrm <= radius:
        return 0.0, x0.copy()
    a = np.abs(x0)
    r_sq = radius * radius
    # tail_sq[k] = sum of the squares of all but the k largest |x0_i|.
    tail_sq = np.append(np.cumsum(np.sort(a * a))[::-1], 0.0)
    best, best_t = -math.inf, None
    for k in range(1, a.size + 1):
        slack = r_sq - float(tail_sq[k])
        if slack <= 0:
            continue
        t = np.minimum(1.0, a * math.sqrt(k / slack))
        value = float(a @ t) - radius * float(np.linalg.norm(t))
        if value > best:
            best, best_t = value, t
    s = np.sign(x0) * best_t
    return best, radius * s / float(np.linalg.norm(s))


def _make_l1_ball(radius: float = 1.0, x0=(-0.16, -0.6, 0.4)) -> VIProblem:
    """f(x) = ||x - x0||_1 over an l2 ball; non-smooth at the target point.

    The default target is interior, so the iterates keep straddling the
    kinks instead of settling in a smooth region. Zero coordinates of the
    residual take subgradient component 0 (deterministic, minimal norm).
    The reference minimum is exact for every target (``gap_tolerance`` 0).
    """
    x0, radius = _array("x0", x0, 1), _real("radius", radius)
    geom = EuclideanBall(radius, x0.size)
    min_value, minimizer = _l1_min_on_ball(x0, radius)
    return convex_min_problem(
        f=lambda x: float(np.abs(x - x0).sum()),
        grad=lambda x: np.sign(x - x0),
        geom=geom,
        g_bound=math.sqrt(x0.size),
        name="l1-ball",
        min_value=min_value,
        minimizer=minimizer,
        batched=True,
    )


def _make_piecewise_max(slopes=None, offsets=None, lower=-1.0, upper=1.0) -> VIProblem:
    """f(x) = max_i (a_i.x + b_i) over a box; the reference minimum is an LP."""
    if slopes is None and offsets is None:
        slopes = [[1.0, 1.0], [-1.0, 0.3], [0.2, -1.0]]
        offsets = [-0.5, 0.0, -0.1]
    a, b = _array("slopes", slopes, 2), _array("offsets", offsets, 1)
    if b.shape != (a.shape[0],):
        raise ValueError("slopes must be (k, d) and offsets length k")
    d = a.shape[1]
    lower, upper = _real("lower", lower), _real("upper", upper)
    geom = EuclideanBox(np.full(d, lower), np.full(d, upper))

    def f(x):
        return float(np.max(a @ x + b))

    def grad(x):
        return a[np.argmax(np.matvec(a, x) + b, axis=-1)]

    # Exact epigraph LP: min s  s.t.  a_i.x + b_i <= s,  x in the box.
    from scipy.optimize import linprog

    c = np.zeros(d + 1)
    c[-1] = 1.0
    A_ub = np.hstack([a, -np.ones((a.shape[0], 1))])
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=-b,
        bounds=[(lower, upper)] * d + [(None, None)],
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"reference LP for piecewise-max failed: {res.message}")
    return convex_min_problem(
        f=f,
        grad=grad,
        geom=geom,
        g_bound=float(np.linalg.norm(a, axis=1).max()),
        name="piecewise-max",
        min_value=float(res.fun),
        minimizer=np.asarray(res.x[:d], float),
        batched=True,
    )


def builtin_problems() -> dict:
    """Catalog of named problem factories addressable from run configs; each
    raises ValueError on a param that is not a number, integer or array of
    the kind it takes."""
    return {
        "rps": _make_rps,
        "random-game": _make_random_game,
        "quadratic-ball": _make_quadratic_ball,
        "l1-ball": _make_l1_ball,
        "piecewise-max": _make_piecewise_max,
    }


def make_problem(name: str, **params) -> VIProblem:
    catalog = builtin_problems()
    if name not in catalog:
        known = ", ".join(sorted(catalog))
        raise UnknownProblemError(f"unknown problem {name!r}; known problems: {known}")
    accepted = inspect.signature(catalog[name]).parameters
    for param in params:
        if param not in accepted:
            raise ValueError(f"problem {name!r} has no param {param!r}; "
                             f"known params: {', '.join(accepted) or 'none'}")
    return catalog[name](**params)
