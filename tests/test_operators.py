import dataclasses
import math
import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import uvi
import uvi.operators as operators
from uvi.geometry import EntropicSimplex, EuclideanBall, GeometryError
from uvi.operators import (
    StochasticOracle,
    UnknownProblemError,
    builtin_problems,
    convex_min_problem,
    make_problem,
    matrix_game,
    noisy_eval,
    saddle_problem,
)
from uvi.solver import _NOISE_BLOCK_BYTES, SolverConfig, mirror_prox
from uvi.analysis import adapter_invariants
from uvi.operators import _check_noise_bound, _l1_min_on_ball

RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


def quadratic_on_ball(radius=1.0, dim=2):
    return convex_min_problem(
        f=lambda x: 0.5 * float(x @ x),
        grad=lambda x: np.asarray(x, float),
        geom=EuclideanBall(radius, dim),
        g_bound=radius,
        smoothness=1.0,
        min_value=0.0,
        minimizer=np.zeros(dim),
        name="half-norm-sq",
    )


class TestConvexMinAdapter:
    def test_gap_is_function_difference(self):
        p = quadratic_on_ball()
        assert p.gap([1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5)

    def test_compatibility_at_example_pair(self):
        p = quadratic_on_ball()
        x, y = np.array([1.0, 0.0]), np.array([0.0, 0.0])
        assert p.gap(x, y) <= float(p.operator(x) @ (x - y)) + 1e-12
        assert float(p.operator(x) @ (x - y)) == pytest.approx(1.0)

    def test_l1_sign_subgradient_equality_case(self):
        p = convex_min_problem(
            f=lambda x: float(np.abs(x).sum()),
            grad=lambda x: np.sign(x),
            geom=EuclideanBall(1.0, 2),
            g_bound=math.sqrt(2.0),
            min_value=0.0,
            name="l1",
        )
        x, y = np.array([0.5, -0.5]), np.zeros(2)
        assert p.gap(x, y) == pytest.approx(1.0)
        np.testing.assert_allclose(p.operator(x), [1.0, -1.0])
        assert float(p.operator(x) @ (x - y)) == pytest.approx(1.0)


class TestSaddleAdapter:
    def test_rps_uniform_is_stationary(self):
        p = matrix_game(RPS, name="rps")
        x = np.full(6, 1.0 / 3.0)
        np.testing.assert_allclose(p.operator(x), np.zeros(6), atol=1e-15)

    def test_gap_between_uniform_and_vertex(self):
        p = matrix_game(RPS, name="rps")
        uniform = np.full(6, 1.0 / 3.0)
        vertex = np.zeros(6)
        vertex[0] = vertex[3] = 1.0
        assert p.gap(uniform, vertex) == pytest.approx(0.0, abs=1e-15)

    def test_bilinear_gap_equals_linearization(self):
        # For bilinear payoffs the gap inequality is tight everywhere.
        p = matrix_game(RPS, name="rps")
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y = p.geom.sample(rng), p.geom.sample(rng)
            assert p.gap(x, y) == pytest.approx(float(p.operator(x) @ (x - y)), abs=1e-12)

    def test_block_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            saddle_problem(
                phi=lambda u, v: float(u @ u) - float(v @ v),
                grads=lambda u, v: (np.zeros(u.shape[:-1] + (5,)), -2 * v),
                geom_u=EntropicSimplex(3),
                geom_v=EntropicSimplex(3),
                # max_v' phi - min_u' phi, with min ||.||^2 = 1/3 on each simplex.
                dual_gap_eval=lambda x: np.vecdot(x, x) - 2.0 / 3.0,
                g_bound=1.0,
            )


class TestMatrixGame:
    def test_rps_constants(self):
        p = matrix_game(RPS)
        ln3 = math.log(3.0)
        assert p.smoothness == pytest.approx(2.0 * ln3)
        assert p.g_bound == pytest.approx(math.sqrt(2.0 * ln3))
        assert p.geom.diameter() == pytest.approx(math.sqrt(2.0))

    def test_zero_game(self):
        p = matrix_game(np.zeros((2, 2)))
        assert p.smoothness == 0.0 and p.g_bound == 0.0
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = p.geom.sample(rng)
            np.testing.assert_allclose(p.operator(x), np.zeros(4))
            assert p.dual_gap_eval(x) == pytest.approx(0.0, abs=1e-12)

    def test_rps_vertex_gap_by_enumeration(self):
        p = matrix_game(RPS)
        vertex = np.zeros(6)
        vertex[0] = vertex[3] = 1.0
        assert p.dual_gap_eval(vertex) == pytest.approx(2.0)

    def test_bad_matrices(self):
        with pytest.raises(ValueError):
            matrix_game(np.zeros((0, 3)))
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="must have finite entries"):
                matrix_game([[bad, 0.0], [0.0, 1.0]])

    def test_negative_zero_game_has_positive_zero_bound(self):
        p = matrix_game(np.full((2, 3), -0.0))
        assert math.copysign(1.0, p.g_bound) == 1.0
        assert math.copysign(1.0, p.smoothness) == 1.0

    def test_build_makes_no_temporary_matrix_copy(self):
        tracemalloc.start()
        try:
            make_problem("random-game", d1=1000, d2=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 1000 * 1000 * 8, peak  # 1.25 x the float64 matrix

    def test_batched_operator_rows_equal_single_points(self):
        p = make_problem("random-game", d1=30, d2=20, seed=2)
        points = np.stack([p.geom.sample(np.random.default_rng(s)) for s in range(4)])
        values = p.operator_eval(points)
        assert values.shape == (4, 50)
        for point, value in zip(points, values):
            u, v = point[:30], point[30:]
            A = p.params["matrix"]
            assert np.array_equal(value, np.concatenate([A @ v, -(A.T @ u)]))

    def test_batched_dual_gap_rows_equal_single_points(self):
        p = make_problem("random-game", d1=30, d2=20, seed=2)
        points = np.stack([p.geom.sample(np.random.default_rng(s)) for s in range(4)])
        gaps = p.dual_gap_eval(points)
        assert gaps.shape == (4,)
        A = p.params["matrix"]
        for point, value in zip(points, gaps):
            u, v = point[:30], point[30:]
            assert value == float(np.max(A.T @ u) - np.min(A @ v))

    def test_large_game_holds_one_matrix(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            p = make_problem("random-game", d1=1000, d2=1000)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 1.25 * 1000 * 1000 * 8, held  # 1.25 x the float64 matrix
        matrix = p.params["matrix"]
        assert isinstance(matrix, np.ndarray) and matrix.dtype == np.float64
        assert matrix.shape == (1000, 1000)

    def test_float64_matrix_used_as_given(self):
        A = np.random.default_rng(3).uniform(-1.0, 1.0, size=(4, 3))
        p = matrix_game(A)
        assert np.shares_memory(p.params["matrix"], A)
        assert p.params["matrix"].shape == (4, 3)
        np.testing.assert_array_equal(p.operator(p.geom.min_point())[:4],
                                      A @ np.full(3, 1.0 / 3.0))


def count_concurrent_calls(monkeypatch):
    calls = []
    concurrently = operators._concurrently

    def counting(first, second):
        calls.append(1)
        return concurrently(first, second)

    monkeypatch.setattr(operators, "_concurrently", counting)
    return calls


def direct_products(A, x):
    """The operator and the duality gap at x from direct numpy calls."""
    u, v = x[..., :A.shape[0]], x[..., A.shape[0]:]
    value = np.concatenate([np.matvec(A, v), -np.vecmat(u, A)], axis=-1)
    gap = np.max(np.vecmat(u, A), axis=-1) - np.min(np.matvec(A, v), axis=-1)
    return value, gap


def solve_bytes(problem):
    """Every recorded float of a short noisy every-step solve, as bytes."""
    oracle = StochasticOracle(problem, 0.5, rng_seed=4)
    config = SolverConfig(iterations=30, record_every=1, eval_every=1)
    run = mirror_prox(problem, config, oracle)
    return run.x_avg.tobytes() + repr([dataclasses.astuple(r) for r in run.records]).encode()


def _solve_in_child(conn, problem):
    conn.send((operators._jobs is None, solve_bytes(problem)))
    conn.close()


@pytest.fixture(scope="module")
def game_1000():
    return make_problem("random-game", d1=1000, d2=1000, seed=8)


class TestConcurrentProducts:
    """A large game's two products run at once, one on the helper thread;
    every value stays bitwise that of the direct numpy calls."""

    @pytest.mark.parametrize("shape", [(6, 6), (7, 5)], ids=["square", "7x5"])
    def test_small_games_at_threshold_zero_are_bitwise(self, monkeypatch, shape):
        monkeypatch.setattr(operators, "_CONCURRENT_BYTES", 0)
        calls = count_concurrent_calls(monkeypatch)
        A = np.random.default_rng(6).uniform(-1.0, 1.0, size=shape)
        self.assert_bitwise(matrix_game(A))
        assert len(calls) == 5  # the build's block check, then the four above

    def test_1000x1000_game_at_default_threshold_is_bitwise(self, monkeypatch, game_1000):
        assert game_1000.params["matrix"].nbytes >= operators._CONCURRENT_BYTES
        calls = count_concurrent_calls(monkeypatch)
        self.assert_bitwise(game_1000)
        assert len(calls) == 4

    def test_small_game_at_default_threshold_runs_inline(self, monkeypatch):
        calls = count_concurrent_calls(monkeypatch)
        self.assert_bitwise(matrix_game(RPS))
        assert calls == []

    def test_solve_below_threshold_starts_no_thread(self):
        # 700x700 (3.7 MiB) is the largest square game run in turn.
        p = make_problem("random-game", d1=700, d2=700, seed=8)
        assert p.params["matrix"].nbytes < operators._CONCURRENT_BYTES
        before = set(threading.enumerate())
        mirror_prox(p, SolverConfig(iterations=3))
        assert set(threading.enumerate()) == before

    @staticmethod
    def assert_bitwise(problem):
        A = problem.params["matrix"]
        rng = np.random.default_rng(9)
        points = np.stack([problem.geom.sample(rng) for _ in range(3)])
        for x in (points[0], points):  # one d-vector, one 3-row stack
            value, gap = direct_products(A, x)
            assert problem.operator_eval(x).tobytes() == value.tobytes()
            assert np.asarray(problem.dual_gap_eval(x)).tobytes() == gap.tobytes()

    @pytest.mark.parametrize("side", ["helper", "caller"])
    def test_error_is_raised_after_both_calls_finish(self, side):
        finished = []

        def slow():
            time.sleep(0.05)
            finished.append("slow")
            return 1.0

        def fail():
            raise ZeroDivisionError(side)

        first, second = (fail, slow) if side == "helper" else (slow, fail)
        with pytest.raises(ZeroDivisionError, match=side):
            operators._concurrently(first, second)
        assert finished == ["slow"]

    def test_helper_side_product_error_propagates(self, monkeypatch):
        monkeypatch.setattr(operators, "_CONCURRENT_BYTES", 0)
        A = np.random.default_rng(6).uniform(-1.0, 1.0, size=(7, 5))
        p = matrix_game(A)
        x = p.geom.min_point()
        # One entry too many lands in v: A @ v fails on the helper, u @ A does not.
        with pytest.raises(ValueError, match="matvec"):
            p.operator_eval(np.append(x, 0.0))
        assert p.operator_eval(x).tobytes() == direct_products(A, x)[0].tobytes()

    def test_caller_threads_share_the_helper(self, monkeypatch):
        monkeypatch.setattr(operators, "_CONCURRENT_BYTES", 0)
        A = np.random.default_rng(6).uniform(-1.0, 1.0, size=(40, 30))
        p = matrix_game(A)
        points = np.stack([p.geom.sample(np.random.default_rng(s)) for s in range(3)])
        wrong = []

        def evaluate(x):
            want = direct_products(A, x)[0].tobytes()
            for _ in range(200):
                if p.operator_eval(x).tobytes() != want:
                    wrong.append(x)

        threads = [threading.Thread(target=evaluate, args=(x,)) for x in points]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    # Forking while the helper thread runs is the case under test.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_forked_child_starts_its_own_helper(self, monkeypatch):
        monkeypatch.setattr(operators, "_CONCURRENT_BYTES", 0)
        p = make_problem("random-game", d1=30, d2=20, seed=2)
        expected = solve_bytes(p)
        assert operators._jobs is not None  # the helper thread runs
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_solve_in_child, args=(send, p))
        child.start()
        try:
            send.close()
            assert receive.poll(60), "the forked child's solve did not finish"
            forgot, got = receive.recv()
            child.join(60)
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert forgot and got == expected


class TestStochasticOracle:
    def _entropic_problem(self):
        c = np.array([0.3, -0.7, 0.2])
        return convex_min_problem(
            f=lambda x: float(c @ x),
            grad=lambda x: np.broadcast_to(c, x.shape),
            geom=EntropicSimplex(3),
            g_bound=0.7,
            min_value=-0.7,
            name="linear-simplex",
        )

    def test_zero_bound_is_refused(self):
        # The exact operator is no oracle; a zero bound is not a second way to say so.
        with pytest.raises(ValueError, match="noise bound must be positive; pass no oracle"):
            StochasticOracle(self._entropic_problem(), 0.0, rng_seed=0)

    def test_consecutive_calls_differ(self):
        p = self._entropic_problem()
        oracle = StochasticOracle(p, 0.1, rng_seed=0)
        x = p.geom.min_point()
        a, b = noisy_eval(oracle, x), noisy_eval(oracle, x)
        assert not np.array_equal(a, b)

    def test_linf_dual_noise_exact_magnitude(self):
        p = self._entropic_problem()
        oracle = StochasticOracle(p, 0.1, rng_seed=7)
        x = p.geom.min_point()
        f = p.operator(x)
        samples = p.operator(x) + oracle._noise(2000)
        noise = samples - f
        linf = np.abs(noise).max(axis=1)
        np.testing.assert_allclose(linf, 0.1, atol=1e-15)
        assert float((np.abs(noise).max(axis=1) ** 2).mean()) <= 0.01 + 1e-12

    def test_unbiasedness_within_five_standard_errors(self):
        p = self._entropic_problem()
        oracle = StochasticOracle(p, 0.5, rng_seed=11)
        x = p.geom.min_point()
        n = 100_000
        samples = p.operator(x) + oracle._noise(n)
        err = samples.mean(axis=0) - p.operator(x)
        coord_sd = 0.5  # each coordinate is +-0.5 for the linf-dual geometry
        assert np.all(np.abs(err) <= 5 * coord_sd / math.sqrt(n))

    def test_empirical_dual_norm_second_moment(self):
        p = self._entropic_problem()
        oracle = StochasticOracle(p, 0.5, rng_seed=13)
        x = p.geom.min_point()
        samples = p.operator(x) + oracle._noise(100_000)
        sq = np.abs(samples - p.operator(x)).max(axis=1) ** 2
        assert float(sq.mean()) <= oracle.noise_bound**2 * 1.1

    def test_product_geometry_noise_respects_dual_bound(self):
        p = matrix_game(RPS)
        oracle = StochasticOracle(p, 0.5, rng_seed=3)
        x = p.geom.min_point()
        for _ in range(200):
            zeta = noisy_eval(oracle, x) - p.operator(x)
            assert p.geom.dual_norm(zeta) <= 0.5 + 1e-12

    def test_infeasible_point_rejected(self):
        p = self._entropic_problem()
        oracle = StochasticOracle(p, 0.1, rng_seed=0)
        with pytest.raises(GeometryError):
            noisy_eval(oracle, np.array([0.9, 0.9, 0.9]))

    def test_g_bound_includes_noise(self):
        p = self._entropic_problem()
        oracle = StochasticOracle(p, 0.25, rng_seed=0)
        assert oracle.g_bound == pytest.approx(p.g_bound + 0.25)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -0.1, 1e200])
    def test_non_finite_or_negative_noise_rejected(self, bound):
        # The config check and the oracle share one rule.
        with pytest.raises(ValueError, match="noise bound"):
            _check_noise_bound(bound)
        with pytest.raises(ValueError, match="noise bound"):
            StochasticOracle(self._entropic_problem(), bound)

    @pytest.mark.parametrize("point", [[0.5, 0.5], [[1.0, 0.0, 0.0]]], ids=["short", "matrix"])
    def test_wrong_shape_point_rejected(self, point):
        oracle = StochasticOracle(self._entropic_problem(), 0.1, rng_seed=0)
        with pytest.raises(GeometryError):
            noisy_eval(oracle, np.array(point))

    def test_negative_batch_count_rejected(self):
        p = self._entropic_problem()
        with pytest.raises(ValueError):
            StochasticOracle(p, 0.1, rng_seed=0)._noise(-1)


def linear_ball_problem(dim):
    c = np.linspace(-1.0, 1.0, dim)
    return convex_min_problem(
        f=lambda x: float(c @ x), grad=lambda x: np.broadcast_to(c, x.shape),
        geom=EuclideanBall(1.0, dim),
        g_bound=float(np.linalg.norm(c)), min_value=-float(np.linalg.norm(c)),
        name="linear-ball",
    )


class TestOracleStream:
    """Noise drawn in rows of any count is bitwise the stream of one draw of
    d signs per sample."""

    @pytest.mark.parametrize("problem", [
        linear_ball_problem(3), matrix_game(RPS), linear_ball_problem(600),
        linear_ball_problem(9000),  # above the solver's slab budget: one-row slabs
    ], ids=["d3", "game-d6", "d600", "d9000"])
    def test_matches_one_draw_per_sample(self, problem):
        seed, bound = 21, 0.4
        oracle = StochasticOracle(problem, bound, rng_seed=seed)
        reference = np.random.default_rng(seed)
        scale = bound / problem.geom.dual_norm(np.ones(problem.geom.dim))
        x = problem.geom.min_point()
        f = problem.operator(x)

        def expected(count):
            rows = [f + scale * (reference.integers(0, 2, size=f.size) * 2 - 1)
                    for _ in range(count)]
            return np.array(rows).reshape(count, f.size)

        # Random single and multi-row draws over at least three of the
        # solver's noise slabs.
        picks = np.random.default_rng(5)
        block_rows = max(1, _NOISE_BLOCK_BYTES // (8 * problem.geom.dim))
        budget = min(3 * block_rows + 7, 8200)
        drawn = 0
        while drawn < budget:
            if picks.uniform() < 0.5:
                got, want = noisy_eval(oracle, x)[None, :], expected(1)
            else:
                count = int(picks.integers(0, min(block_rows + 3, 400) + 1))
                got, want = f + oracle._noise(count), expected(count)
            assert got.shape == want.shape
            assert np.array_equal(got, want), drawn
            drawn += len(want)


class TestPointDimensionChecked:
    """A wrong-length point raises at the problem's boundary, never broadcasts."""

    @staticmethod
    def generic_saddle():
        return saddle_problem(
            phi=lambda u, v: float(u @ v),
            grads=lambda u, v: (v, u),
            geom_u=EuclideanBall(1.0, 2),
            geom_v=EuclideanBall(1.0, 2),
            # max_v' u.v' - min_u' u'.v over the unit balls.
            dual_gap_eval=lambda x: (np.linalg.norm(x[..., :2], axis=-1)
                                     + np.linalg.norm(x[..., 2:], axis=-1)),
            g_bound=2.0,
            name="bilinear-balls",
        )

    @pytest.mark.parametrize("build", [
        lambda: make_problem("quadratic-ball"),
        lambda: make_problem("l1-ball"),
        lambda: matrix_game(RPS),
        generic_saddle,
    ], ids=["quadratic-ball", "l1-ball", "matrix-game", "saddle"])
    def test_operator_and_gap_reject_wrong_length(self, build):
        p = build()
        good = p.geom.min_point()
        for bad in (good[:-1], np.append(good, 0.0), np.array([0.3])):
            with pytest.raises(GeometryError):
                p.operator(bad)
            with pytest.raises(GeometryError):
                p.gap(bad, good)
            with pytest.raises(GeometryError):
                p.gap(good, bad)
        assert p.operator(good).shape == good.shape

    @pytest.mark.parametrize("grad", [
        lambda x: x[..., :1],  # one coordinate per point
        lambda x: np.array([1.0, 2.0]),  # one vector, whatever the stack
        lambda x: np.full(x.shape, np.nan),
    ], ids=["one-coordinate", "ignores-stack", "nan"])
    def test_operator_value_must_be_a_finite_vector(self, grad):
        # As the solver loop refuses it, not a NaN row or a broadcast scalar.
        p = convex_min_problem(f=lambda x: 0.0, grad=grad, geom=EuclideanBall(1.0, 2),
                               g_bound=1.0, min_value=0.0, name="bad-grad")
        message = "'bad-grad': operator value must be a finite vector of dimension 2"
        with pytest.raises(ValueError, match=message):
            p.operator([0.0, 0.0])


class TestProblemValues:
    """A problem's bounds and reference minimum are checked when it is built."""

    @pytest.mark.parametrize("fields, message", [
        ({"g_bound": math.nan}, "g_bound must be >= 0, got nan"),
        ({"g_bound": -1.0}, "g_bound must be >= 0, got -1.0"),
        ({"smoothness": math.nan}, "smoothness must be None or >= 0, got nan"),
        ({"smoothness": -1.0}, "smoothness must be None or >= 0, got -1.0"),
    ], ids=["g-nan", "g-negative", "L-nan", "L-negative"])
    def test_bad_bound_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"'rps': {message}"):
            dataclasses.replace(make_problem("rps"), **fields)

    @pytest.mark.parametrize("min_value", [math.nan, math.inf, -math.inf])
    def test_non_finite_min_value_rejected(self, min_value):
        message = f"'convex-min': min_value must be finite, got {min_value}"
        with pytest.raises(ValueError, match=message):
            convex_min_problem(f=lambda x: 0.0, grad=np.zeros_like,
                               geom=EuclideanBall(1.0, 2), g_bound=1.0, min_value=min_value)


class TestCatalog:
    def test_catalog_names(self):
        assert set(builtin_problems()) == {
            "rps",
            "random-game",
            "quadratic-ball",
            "l1-ball",
            "piecewise-max",
        }

    def test_unknown_name(self):
        with pytest.raises(UnknownProblemError):
            make_problem("nope")

    def test_quadratic_ball_interior_target(self):
        p = make_problem("quadratic-ball", x0=(0.3, 0.0))
        assert uvi.dual_gap(p, np.array([0.3, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_ball_exterior_target(self):
        p = make_problem("quadratic-ball")  # x0 = (1.5, 0), outside the unit ball
        np.testing.assert_allclose(p.known_solution, [1.0, 0.0])
        assert uvi.dual_gap(p, p.known_solution) == pytest.approx(0.0, abs=1e-12)
        # the constrained optimum keeps a nonzero gradient
        assert np.linalg.norm(p.operator(p.known_solution)) > 0.4

    def test_l1_ball_axis_target(self):
        p = make_problem("l1-ball", x0=(2.0, 0.0))
        np.testing.assert_allclose(p.known_solution, [1.0, 0.0])
        assert uvi.dual_gap(p, p.known_solution) == pytest.approx(0.0, abs=1e-12)
        # f(0) - min = 2 - 1
        assert uvi.dual_gap(p, np.zeros(2)) == pytest.approx(1.0)

    def test_l1_ball_exterior_exact_minimum(self):
        p = make_problem("l1-ball", x0=(1.5, 1.0, 0.0))
        np.testing.assert_allclose(p.known_solution, np.array([1.0, 1.0, 0.0]) / math.sqrt(2),
                                   rtol=0, atol=1e-15)
        # dual_gap of the minimizer is f(x*) - min, exact to rounding
        assert uvi.dual_gap(p, p.known_solution) == pytest.approx(0.0, abs=1e-15)
        x = np.array([0.6, 0.8, 0.0])
        assert uvi.dual_gap(p, x) == pytest.approx(0.9 + 0.2 - (2.5 - math.sqrt(2)), abs=1e-14)
        value, _ = _l1_min_on_ball(np.array([1.5, 1.0, 0.0]), 1.0)
        assert value == pytest.approx(2.5 - math.sqrt(2), abs=1e-15)

    def test_l1_min_random_exterior_targets(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 200:
            d = int(rng.integers(2, 9))
            radius = float(rng.uniform(0.3, 2.0))
            x0 = rng.normal(size=d) * rng.uniform(0.5, 3.0)
            if rng.uniform() < 0.3:
                x0[rng.integers(d)] = 0.0
            if np.linalg.norm(x0) <= radius:
                continue
            checked += 1
            value, minimizer = _l1_min_on_ball(x0, radius)
            assert np.linalg.norm(minimizer) <= radius * (1 + 1e-12)
            assert abs(float(np.abs(minimizer - x0).sum()) - value) <= 1e-12
            ball = EuclideanBall(radius, d)
            for _ in range(50):
                y = ball.sample(rng)
                assert float(np.abs(y - x0).sum()) >= value - 1e-12

    def test_l1_ball_default_interior(self):
        p = make_problem("l1-ball")
        assert uvi.dual_gap(p, p.known_solution) == pytest.approx(0.0, abs=1e-12)

    def test_rps_equilibrium(self):
        p = make_problem("rps")
        assert uvi.dual_gap(p, p.known_solution) == pytest.approx(0.0, abs=1e-12)

    def test_piecewise_max_reference_minimum(self):
        p = make_problem("piecewise-max")
        assert uvi.dual_gap(p, p.known_solution) == pytest.approx(0.0, abs=1e-9)
        rng = np.random.default_rng(5)
        for _ in range(200):
            assert uvi.dual_gap(p, p.geom.sample(rng)) >= -1e-9

    def test_integer_params_take_integral_floats_only(self):
        a = make_problem("random-game", d1=4, d2=3, seed=9)
        b = make_problem("random-game", d1=4.0, d2=3e0, seed=np.int64(9))
        np.testing.assert_array_equal(a.params["matrix"], b.params["matrix"])
        assert b.params["matrix"].shape == (4, 3)
        for param, value in [("d1", 2.5), ("d2", True), ("seed", "1"), ("seed", 1.5)]:
            with pytest.raises(ValueError, match=f"{param} must be an integer, got {value!r}"):
                make_problem("random-game", **{param: value})

    @pytest.mark.parametrize("name", ["quadratic-ball", "l1-ball"])
    def test_target_must_be_a_vector(self, name):
        for x0 in ([[1.0, 2.0]], 0.5):
            with pytest.raises(ValueError, match="x0 must be a 1-D vector"):
                make_problem(name, x0=x0)
        with pytest.raises(ValueError, match="radius must be a number, got True"):
            make_problem(name, radius=True)

    def test_box_bounds_must_be_numbers(self):
        with pytest.raises(ValueError, match="upper must be a number, got '1'"):
            make_problem("piecewise-max", upper="1")

    def test_random_game_reproducible(self):
        a = make_problem("random-game", d1=4, d2=3, seed=9)
        b = make_problem("random-game", d1=4, d2=3, seed=9)
        np.testing.assert_array_equal(
            np.asarray(a.params["matrix"]), np.asarray(b.params["matrix"])
        )

    @pytest.mark.parametrize("name", sorted(builtin_problems()))
    def test_adapter_invariants_on_catalog(self, name, catalog_adapter_invariants):
        assert catalog_adapter_invariants[name] == (True, "")

    @pytest.mark.parametrize("fields, label", [
        ({"operator_eval": lambda x: -x}, "monotonicity pair 0"),
        ({"g_bound": 0.1}, "G bound at sample"),
        ({"smoothness": 0.5}, "L bound pair 0"),
        ({"dual_gap_eval": lambda x: np.full(len(x), -1.0)},
         "gap sample 0: duality gap -1.0 is negative"),
        ({"known_solution": np.array([0.5, 0.0])}, "known solution has positive gap"),
        # Delta(x, y) above F(x).(x - y), then Delta concave in x.
        ({"gap_eval": lambda x, y: float(x @ (x - y)) + 1e-6}, "compatibility pair 0"),
        ({"gap_eval": lambda x, y: 0.5 * float(x @ x - y @ y) - float((x - y) @ (x - y))},
         "convexity triple 0"),
        # A stated gap above sup_y F(x).(x - y), which is at most 2 on the unit
        # ball, then one below Delta(x, y).
        ({"dual_gap_eval": lambda x: 0.5 * np.vecdot(x, x) + 2.0},
         "gap sample 0 above F(x).x - min_K F(x).y"),
        ({"dual_gap_eval": lambda x: np.zeros(len(x))}, "gap sample 0 below Delta(x, y)"),
        ({"operator_eval": lambda x: x[..., :1]}, "operator at sample 0: problem 'half-norm-sq': "
         "operator value must be a finite vector of dimension 2"),
    ])
    def test_adapter_invariants_flag_broken_problem(self, fields, label):
        assert adapter_invariants(quadratic_on_ball(), 0) == (True, "")
        ok, detail = adapter_invariants(dataclasses.replace(quadratic_on_ball(), **fields), 0)
        assert not ok and detail.startswith(label), detail
