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
the solver's movement invariants; its bound is positive, and an exact
operator is passed as no oracle.

``VIProblem.operator``/``gap`` and ``noisy_eval`` validate their points
once, at this boundary; the operator and gap closures behind them take raw
arrays of the right dimension unchecked. Every problem's operator and
duality gap take an (S, d) stack of points, one per row, so the solver
loop evaluates a batch of seeds in one call. In both adapters the user's
gradients and duality gap take the stack too; only the objectives f and
phi take one point.

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

    ``dual_gap_eval`` evaluates the exact duality gap, which every problem
    states. ``g_bound`` is a bound on the dual norm of F over K (and of any
    oracle sample); ``smoothness`` is the dual-norm Lipschitz constant of F
    when it exists. An evaluator that is not callable raises TypeError, and
    a NaN or negative ``g_bound`` or ``smoothness`` raises ValueError.
    ``params`` is empty but for a matrix game's, which holds its payoff
    array under ``"matrix"``.

    ``operator_eval`` maps an (S, d) stack of points to a new (S, d) array
    whose row s is bitwise its value at row s alone, and ``dual_gap_eval``
    maps it to the S gaps the same way; the library hands both only such
    stacks, a single point as a one-row stack. ``gap_eval`` takes two
    single points.
    """

    name: str
    geom: Geometry
    operator_eval: Callable[[np.ndarray], np.ndarray]
    gap_eval: Callable[[np.ndarray, np.ndarray], float]
    dual_gap_eval: Callable[[np.ndarray], np.ndarray]
    g_bound: float
    smoothness: Optional[float] = None
    known_solution: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in ("operator_eval", "gap_eval", "dual_gap_eval"):
            value = getattr(self, key)
            if not callable(value):
                raise TypeError(f"problem {self.name!r}: {key} must be callable, got {value!r}")
        # ``not x >= 0`` also refuses NaN; an infinite bound passes.
        if not self.g_bound >= 0:
            raise ValueError(f"problem {self.name!r}: g_bound must be >= 0, got {self.g_bound}")
        if self.smoothness is not None and not self.smoothness >= 0:
            raise ValueError(f"problem {self.name!r}: smoothness must be None or >= 0, "
                             f"got {self.smoothness}")

    def operator(self, x) -> np.ndarray:
        """F at one point, which must be a finite vector of its dimension (ValueError)."""
        x = self.geom.check_point(x)[None]
        value = np.asarray(self.operator_eval(x), dtype=float)
        if value.shape != x.shape or not np.isfinite(value).all():
            raise ValueError(f"problem {self.name!r}: operator value must be a finite vector "
                             f"of dimension {self.geom.dim}")
        return value[0]

    def gap(self, x, y) -> float:
        check = self.geom.check_point
        return float(self.gap_eval(check(x), check(y)))


def convex_min_problem(
    f,
    grad,
    geom: Geometry,
    *,
    g_bound: float,
    min_value: float,
    smoothness: Optional[float] = None,
    name: str = "convex-min",
    minimizer=None,
) -> VIProblem:
    """Adapt a convex objective to the gap-function interface.

    Delta(x, y) = f(x) - f(y) and F = grad; the duality gap is
    f(x) - min_K f, with min_K f the caller's ``min_value``, taken as
    given: a wrong one shifts every gap by the same amount, and one that is
    not finite raises ValueError. ``grad`` takes a stack of points, one per
    row, and is the operator (see ``VIProblem``); ``f`` takes one point, and
    the duality gap maps it over the rows of a stack.
    """
    min_value = float(min_value)
    if not math.isfinite(min_value):
        raise ValueError(f"problem {name!r}: min_value must be finite, got {min_value}")

    def gap_eval(x, y):
        return float(f(x) - f(y))

    return VIProblem(
        name=name,
        geom=geom,
        operator_eval=grad,
        gap_eval=gap_eval,
        dual_gap_eval=lambda x: np.array([float(f(row)) - min_value for row in x]),
        g_bound=float(g_bound),
        smoothness=smoothness,
        known_solution=None if minimizer is None else np.asarray(minimizer, float),
    )


def saddle_problem(
    phi,
    grads,
    geom_u: Geometry,
    geom_v: Geometry,
    *,
    dual_gap_eval,
    g_bound: float,
    smoothness: Optional[float] = None,
    name: str = "saddle",
    known_solution=None,
) -> VIProblem:
    """Adapt a convex-concave function phi(u, v) to the gap-function interface.

    F(u, v) = (grad_u phi, -grad_v phi) and
    Delta((u, v), (u0, v0)) = phi(u, v0) - phi(u0, v), both over the scaled
    product geometry of the two blocks. ``dual_gap_eval`` is the caller's
    exact duality gap max_{v'} phi(u, v') - min_{u'} phi(u', v), taken as
    given. ``grads(u, v)`` maps the blocks of a stack of points to the pair
    (grad_u phi, grad_v phi) and ``dual_gap_eval`` takes the stack; ``phi``
    takes one point. A pair of the wrong shapes raises GeometryError at the
    build and is a NaN value later, which the solver loop reports; a gap
    that is not one value per row raises ValueError at the build.
    """
    geom = ProductGeometry(geom_u, geom_v)
    x0 = np.concatenate([geom_u.min_point(), geom_v.min_point()])[None]
    gu, gv = (np.asarray(g, dtype=float) for g in grads(*geom._split(x0)))
    if gu.shape != (1, geom_u.dim) or gv.shape != (1, geom_v.dim):
        raise GeometryError(
            f"block-dimension mismatch: gradients have shapes {gu.shape}/{gv.shape}, "
            f"geometry blocks have dims {geom_u.dim}/{geom_v.dim}"
        )
    gap_shape = np.shape(dual_gap_eval(x0))
    if gap_shape != (1,):
        raise ValueError(f"saddle {name!r}: dual_gap_eval must return one value per row, "
                         f"got shape {gap_shape}")

    def operator_eval(x):
        u, v = geom._split(x)
        gu, gv = grads(u, v)
        gu, gv = np.asarray(gu, dtype=float), np.asarray(gv, dtype=float)
        if gu.shape != u.shape or gv.shape != v.shape:
            return np.full(x.shape, np.nan)
        return np.concatenate([gu, -gv], axis=-1)

    def gap_eval(x, x0):
        u, v = geom._split(x)
        u0, v0 = geom._split(x0)
        return float(phi(u, v0) - phi(u0, v))

    return VIProblem(
        name=name,
        geom=geom,
        operator_eval=operator_eval,
        gap_eval=gap_eval,
        dual_gap_eval=dual_gap_eval,
        g_bound=float(g_bound),
        smoothness=smoothness,
        known_solution=known_solution,
    )


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


def matrix_game(A, *, name: str = "matrix-game") -> VIProblem:
    """Bilinear zero-sum game phi(u, v) = u.A.v over two entropic simplices,
    built by ``saddle_problem``.

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
    geom_u = EntropicSimplex(d1)
    geom_v = EntropicSimplex(d2)
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

    problem = saddle_problem(lambda u, v: float(u @ A @ v), products, geom_u, geom_v,
                             dual_gap_eval=dual_gap_eval, g_bound=g_bound,
                             smoothness=smoothness, name=name)
    problem.params["matrix"] = A
    return problem


def _check_noise_bound(noise_bound: float) -> None:
    # The variance bound noise_bound^2 must be a float too.
    if not (noise_bound >= 0 and math.isfinite(noise_bound * noise_bound)):
        raise ValueError("noise bound must be finite and nonnegative, with a finite square, "
                         f"got {noise_bound}")


@dataclass
class StochasticOracle:
    """Unbiased sampled operator F + zeta with bounded sign noise.

    Each coordinate of zeta is an independent fair sign times
    noise_bound / c, where c is the dual norm of the all-ones vector, so
    dual_norm(zeta) = noise_bound almost surely and the second moment of
    the dual norm is exactly noise_bound^2: ``uvi.analysis.theorem_bounds``
    derives the variance bound sigma^2 from the noise bound alone.
    ``noise_bound`` must be positive with a finite square (ValueError); an
    exact operator is no oracle, not a zero bound.
    One oracle instance per run; the generator is PCG64 seeded from
    ``rng_seed``.

    ``_noise(count)`` draws the next ``count`` rows of zeta in one
    ``integers`` call of (count, d) signs. PCG64's bounded integer draws do
    not depend on how a request is chunked, so a row is bitwise the one a
    separate draw of d signs would give, however the stream is split.
    ``noisy_eval`` checks the point, then adds one row. The solver loop
    evaluates the operator itself and takes each noisy seed's rows in slabs
    (see ``uvi.solver``), never more than its run still needs; so after a
    run of T steps the oracle's next row is the (2T + 1)-th of its stream,
    however the run was batched.
    """

    base: VIProblem
    noise_bound: float
    rng_seed: Union[int, np.random.SeedSequence] = 0

    def __post_init__(self):
        _check_noise_bound(self.noise_bound)
        if self.noise_bound == 0:
            raise ValueError("noise bound must be positive; pass no oracle for the exact operator")
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
    return oracle.base.operator(x) + oracle._noise(1)[0]


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
    """A finite float array of ``ndim`` (1 or 2) dimensions."""
    try:
        x = np.asarray(value, dtype=float)
    except (TypeError, OverflowError):
        raise ValueError(f"{key} must hold numbers in the float range, got {value!r}") from None
    if x.ndim != ndim:
        raise ValueError(f"{key} must be a {ndim}-D {('vector', 'matrix')[ndim - 1]}, "
                         f"got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{key} must have finite entries, got {value!r}")
    return x


_RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


def _make_rps() -> VIProblem:
    problem = matrix_game(_RPS, name="rps")
    problem.known_solution = np.full(6, 1.0 / 3.0)
    return problem


def _make_random_game(d1: int = 3, d2: int = 3, seed: int = 0) -> VIProblem:
    d1, d2, seed = _integer("d1", d1), _integer("d2", d2), _integer("seed", seed)
    for key, value in (("d1", d1), ("d2", d2)):
        if value < 2:
            raise ValueError(f"{key} must be an integer >= 2, got {value}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
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
    with np.errstate(over="ignore"):  # an overflow is reported below, as a ValueError
        nrm = float(np.linalg.norm(x0))
    if nrm <= radius:
        minimizer, min_value = x0.copy(), 0.0
    else:
        minimizer = x0 * (radius / nrm)
        min_value = 0.5 * (nrm - radius) ** 2
    g_bound = radius + nrm
    if not (math.isfinite(g_bound) and math.isfinite(min_value)):
        raise ValueError(f"x0 and radius overflow the float range: ||x0|| = {nrm}")
    return convex_min_problem(
        f=lambda x: 0.5 * float((x - x0) @ (x - x0)),
        grad=lambda x: x - x0,
        geom=geom,
        g_bound=g_bound,
        smoothness=1.0,
        name="quadratic-ball",
        min_value=min_value,
        minimizer=minimizer,
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
    if not math.isfinite(nrm):
        raise ValueError(f"x0 overflows the float range: ||x0|| = {nrm}")
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
    The reference minimum is exact for every target (``_l1_min_on_ball``).
    """
    x0, radius = _array("x0", x0, 1), _real("radius", radius)
    geom = EuclideanBall(radius, x0.size)
    with np.errstate(over="ignore"):  # an overflow is reported as a ValueError
        min_value, minimizer = _l1_min_on_ball(x0, radius)
    return convex_min_problem(
        f=lambda x: float(np.abs(x - x0).sum()),
        grad=lambda x: np.sign(x - x0),
        geom=geom,
        g_bound=math.sqrt(x0.size),
        name="l1-ball",
        min_value=min_value,
        minimizer=minimizer,
    )


def _make_piecewise_max(slopes=None, offsets=None, lower=-1.0, upper=1.0) -> VIProblem:
    """f(x) = max_i (a_i.x + b_i) over a box; the reference minimum is an LP."""
    if (slopes is None) != (offsets is None):
        raise ValueError("slopes and offsets must be given together")
    if slopes is None:
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
        raise ValueError(f"reference LP for piecewise-max failed: {res.message}")
    return convex_min_problem(
        f=f,
        grad=grad,
        geom=geom,
        g_bound=float(np.linalg.norm(a, axis=1).max()),
        name="piecewise-max",
        min_value=float(res.fun),
        minimizer=np.asarray(res.x[:d], float),
    )


def builtin_problems() -> dict:
    """Catalog of named problem factories addressable from run configs; each
    raises ValueError on a param that is not a number, integer or finite
    array of the kind it takes, and ``piecewise-max`` also when its
    reference LP fails."""
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
