import math

import numpy as np
import pytest

import uvi
from uvi.geometry import EntropicSimplex, EuclideanBall, EuclideanSimplex
import uvi.operators as operators
import uvi.solver as solver
from uvi.operators import (
    StochasticOracle,
    convex_min_problem,
    make_problem,
    matrix_game,
    noisy_eval,
)
from uvi.solver import (
    DivergenceError,
    SolverConfig,
    compute_z_sq,
    fixed_step_mirror_prox,
    universal_mirror_prox,
    update_eta,
)

from helpers import reference_game_run

ASYM = [[0.0, -1.0], [1.0, 0.0]]


class TestUpdateEta:
    def test_first_step_is_d_over_g0(self):
        assert update_eta(0.0, 1.0, 2.0) == pytest.approx(0.5)

    def test_accumulated_movement(self):
        assert update_eta(3.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_constant_under_zero_movement(self):
        z_sq_accum = 0.0
        first = update_eta(z_sq_accum, 2.0, 1.0)
        z_sq_accum += 0.0
        assert update_eta(z_sq_accum, 2.0, 1.0) == first


def z_sq_of(geom, x, y, y_prev, eta):
    """Z^2 from the two movement norms the solver loop measures."""
    return compute_z_sq(geom.primal_norm(x - y), geom.primal_norm(x - y_prev), eta)


class TestComputeZSq:
    def test_no_movement(self):
        geom = EuclideanBall(1.0, 2)
        p = np.array([0.1, 0.0])
        assert z_sq_of(geom, p, p, p, 0.5) == 0.0

    def test_frozen_value(self):
        geom = EuclideanBall(1.0, 2)
        x = np.zeros(2)
        y = np.array([0.1, 0.0])
        y_prev = np.array([0.2, 0.0])
        assert z_sq_of(geom, x, y, y_prev, 0.5) == pytest.approx(0.04)

    def test_invalid_eta(self):
        geom = EuclideanBall(1.0, 2)
        with pytest.raises(ValueError):
            z_sq_of(geom, np.zeros(2), np.zeros(2), np.zeros(2), 0.0)


def two_prox(geom, y_prev, hint, loss, eta):
    """One round's two prox steps from y_{t-1}: hint gives x_t, loss gives y_t."""
    return geom.prox_step(y_prev, hint, eta), geom.prox_step(y_prev, loss, eta)


class TestOptimisticStep:
    def test_zero_vectors_fix_point(self):
        geom = EntropicSimplex(3)
        x, y = two_prox(geom, geom.min_point(), np.zeros(3), np.zeros(3), 1.0)
        np.testing.assert_allclose(x, geom.min_point(), atol=1e-12)
        np.testing.assert_allclose(y, geom.min_point(), atol=1e-12)

    def test_euclidean_interior_steps(self):
        geom = EuclideanBall(1.0, 2)
        x, y = two_prox(geom, np.zeros(2), np.array([0.1, 0.0]), np.array([0.2, 0.0]), 1.0)
        np.testing.assert_allclose(x, [-0.1, 0.0], atol=1e-15)
        np.testing.assert_allclose(y, [-0.2, 0.0], atol=1e-15)

    def test_entropic_closed_form(self):
        geom = EntropicSimplex(2)
        x, _ = two_prox(geom, geom.min_point(), np.array([1.0, 0.0]), np.zeros(2), 1.0)
        expected = np.array([math.exp(-1.0), 1.0]) / (math.exp(-1.0) + 1.0)
        np.testing.assert_allclose(x, expected, atol=1e-12)


class TestUniversalRuns:
    def test_start_at_optimum_stays(self):
        p = make_problem("quadratic-ball", x0=(0.0, 0.0))
        trace = universal_mirror_prox(p, SolverConfig(iterations=50))
        np.testing.assert_array_equal(trace.x_avg, np.zeros(2))
        assert uvi.dual_gap(p, trace.x_avg) == 0.0
        assert trace.max_z_sq == 0.0

    def test_rps_single_step_hand_trace(self):
        p = make_problem("rps")
        trace = universal_mirror_prox(p, SolverConfig(iterations=1))
        np.testing.assert_allclose(trace.x_avg, np.full(6, 1.0 / 3.0), atol=1e-15)
        assert uvi.dual_gap(p, trace.x_avg) == pytest.approx(0.0, abs=1e-15)

    def test_asymmetric_game_golden_run(self):
        # Cross-checked against a from-the-formulas transcription of the
        # recursion; observed gap 4.886e-4 at T=2000 with g0=1.
        p = matrix_game(ASYM, name="asym-2x2")
        trace = universal_mirror_prox(p, SolverConfig(iterations=2000, record_every=2000))
        got = uvi.dual_gap(p, trace.x_avg)
        expected = reference_game_run(ASYM, 2000, 1.0)
        assert got == pytest.approx(expected, abs=1e-8)
        assert got <= 0.02

    def test_eta_monotone_and_movement_bounds(self):
        p = make_problem("l1-ball")
        trace = universal_mirror_prox(p, SolverConfig(iterations=400))
        etas = [rec.eta for rec in trace.records]
        assert all(b <= a + 1e-15 for a, b in zip(etas, etas[1:]))
        assert trace.max_xy_ratio <= p.g_bound + 1e-9
        assert trace.max_yy_ratio <= p.g_bound + 1e-9
        assert trace.max_z_sq <= p.g_bound**2 + 1e-9

    def test_iterates_feasible_and_average_exact(self):
        p = matrix_game(ASYM)
        trace = universal_mirror_prox(p, SolverConfig(iterations=300))
        for rec in trace.records[::23]:
            assert p.geom.contains(rec.x, tol=1e-10)
            assert p.geom.contains(rec.y, tol=1e-10)
        assert p.geom.contains(trace.x_avg, tol=1e-10)
        stacked = np.mean([rec.x for rec in trace.records], axis=0)
        np.testing.assert_allclose(trace.x_avg, stacked, rtol=1e-12)

    def test_prefix_sums_are_exact(self):
        p = make_problem("quadratic-ball")
        trace = universal_mirror_prox(p, SolverConfig(iterations=100))
        direct = np.cumsum([rec.x for rec in trace.records], axis=0)
        for rec, expected in zip(trace.records, direct):
            np.testing.assert_allclose(rec.x_prefix, expected, rtol=1e-12)

    def test_trace_thinning_keeps_aggregates(self):
        p = matrix_game(ASYM)
        full = universal_mirror_prox(p, SolverConfig(iterations=500, record_every=1))
        thin = universal_mirror_prox(p, SolverConfig(iterations=500, record_every=100))
        assert [rec.t for rec in thin.records] == [100, 200, 300, 400, 500]
        np.testing.assert_array_equal(full.x_avg, thin.x_avg)
        assert full.z_sq_total == thin.z_sq_total
        assert full.max_z_sq == thin.max_z_sq


class TestFixedStep:
    def test_rps_tuned_baseline_golden(self):
        p = make_problem("rps")
        trace = fixed_step_mirror_prox(p, 1.0 / p.smoothness, 1000, record_every=1000)
        assert uvi.dual_gap(p, trace.x_avg) <= 0.01

    def test_zero_eta_rejected(self):
        p = make_problem("rps")
        with pytest.raises(ValueError):
            fixed_step_mirror_prox(p, 0.0, 10)

    def test_zero_game_stays_at_start(self):
        p = matrix_game(np.zeros((2, 2)))
        trace = fixed_step_mirror_prox(p, 0.7, 25)
        np.testing.assert_allclose(trace.x_avg, np.full(4, 0.5), atol=1e-12)
        assert p.dual_gap_eval(trace.x_avg) == pytest.approx(0.0, abs=1e-12)

    def test_movement_bound_holds_for_fixed_step(self):
        p = matrix_game(ASYM)
        trace = fixed_step_mirror_prox(p, 1.0 / p.smoothness, 500)
        assert trace.max_xy_ratio <= p.g_bound + 1e-9
        assert trace.max_yy_ratio <= p.g_bound + 1e-9


class TestStochasticRuns:
    def test_same_seed_bitwise_identical(self):
        p = matrix_game(ASYM)
        cfg = SolverConfig(iterations=200)
        t1 = universal_mirror_prox(p, cfg, StochasticOracle(p, 0.3, rng_seed=5))
        t2 = universal_mirror_prox(p, cfg, StochasticOracle(p, 0.3, rng_seed=5))
        np.testing.assert_array_equal(t1.x_avg, t2.x_avg)
        for r1, r2 in zip(t1.records, t2.records):
            assert r1.eta == r2.eta and r1.z_sq == r2.z_sq
            np.testing.assert_array_equal(r1.x, r2.x)

    def test_different_seeds_differ(self):
        p = matrix_game(ASYM)
        cfg = SolverConfig(iterations=200)
        t1 = universal_mirror_prox(p, cfg, StochasticOracle(p, 0.3, rng_seed=5))
        t2 = universal_mirror_prox(p, cfg, StochasticOracle(p, 0.3, rng_seed=6))
        assert not np.array_equal(t1.x_avg, t2.x_avg)

    def test_movement_bound_uses_noise_inflated_g(self):
        p = matrix_game(ASYM)
        oracle = StochasticOracle(p, 0.5, rng_seed=2)
        trace = universal_mirror_prox(p, SolverConfig(iterations=300), oracle)
        cap = p.g_bound + 0.5
        assert trace.g_bound == pytest.approx(cap)
        assert trace.max_xy_ratio <= cap + 1e-9
        assert trace.max_z_sq <= cap**2 + 1e-9

    def test_oracle_problem_mismatch(self):
        p1, p2 = matrix_game(ASYM), matrix_game(ASYM)
        oracle = StochasticOracle(p1, 0.1, rng_seed=0)
        with pytest.raises(ValueError):
            universal_mirror_prox(p2, SolverConfig(iterations=5), oracle)


class TestOracleKernelInLoop:
    """The loop samples through the oracle kernel, on the same noise stream."""

    def test_solve_does_not_call_checked_noisy_eval(self, monkeypatch):
        def refuse(oracle, x):
            raise AssertionError("solver loop called noisy_eval")

        monkeypatch.setattr(solver, "noisy_eval", refuse)
        monkeypatch.setattr(operators, "noisy_eval", refuse)
        p = matrix_game(ASYM)
        trace = universal_mirror_prox(p, SolverConfig(iterations=50),
                                      StochasticOracle(p, 0.3, rng_seed=4))
        assert trace.iterations == 50

    @pytest.mark.parametrize("name", ["random-game", "l1-ball"])
    def test_loop_samples_equal_public_samples(self, name):
        p = make_problem(name)
        trace = universal_mirror_prox(p, SolverConfig(iterations=300),
                                      StochasticOracle(p, 0.5, rng_seed=9))
        twin = StochasticOracle(p, 0.5, rng_seed=9)
        y_prev = p.geom.min_point()
        for rec in trace.records:
            assert np.array_equal(noisy_eval(twin, y_prev), rec.m), rec.t
            assert np.array_equal(noisy_eval(twin, rec.x), rec.g), rec.t
            y_prev = rec.y

    # float.hex of a 2000-step run with noise 0.5 and oracle seed 3, captured
    # with one noise draw per sample; block draws must reproduce it bitwise.
    GOLDEN = {
        "random-game": (
            ["0x1.5b2aaffc1a1bfp-1", "0x1.4926f5e4bc23dp-2", "0x1.0754461f4849dp-11",
             "0x1.dbebc9e24fd3bp-2", "0x1.11e7ad1254a77p-1", "0x1.136fe41b75a4fp-12"],
            "0x1.f974b0db3c19fp+6",
        ),
        "l1-ball": (
            ["-0x1.45a15ed19d056p-3", "-0x1.3301df0acfe88p-1", "0x1.985b4ee46612ep-2"],
            "0x1.eef5c89c4c584p+11",
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_noisy_golden_values(self, name):
        p = make_problem(name)
        trace = universal_mirror_prox(p, SolverConfig(iterations=2000, record_every=2000),
                                      StochasticOracle(p, 0.5, rng_seed=3))
        x_avg, z_sq_total = self.GOLDEN[name]
        assert [float(v).hex() for v in trace.x_avg] == x_avg
        assert trace.z_sq_total.hex() == z_sq_total


def assert_same_trace(got, want):
    """Field-for-field bitwise equality of two RunTraces (checkpoints aside)."""
    for name in ("iterations", "record_every", "g_bound", "eta_final", "z_sq_total",
                 "max_xy_ratio", "max_yy_ratio", "max_z_sq"):
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(got.x_avg, want.x_avg)
    assert [rec.t for rec in got.records] == [rec.t for rec in want.records]
    for a, b in zip(got.records, want.records):
        assert a.eta == b.eta and a.z_sq == b.z_sq
        for name in ("x", "y", "m", "g", "x_prefix"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (a.t, name)


def checkpoint_solve(problem, mode, noise, T, checkpoints=(), record_every=7):
    oracle = StochasticOracle(problem, noise, rng_seed=11) if noise else None
    if mode == "universal":
        config = SolverConfig(iterations=T, record_every=record_every)
        return universal_mirror_prox(problem, config, oracle, checkpoints=checkpoints)
    return fixed_step_mirror_prox(problem, 0.2, T, record_every=record_every,
                                  oracle=oracle, checkpoints=checkpoints)


class TestCheckpoints:
    BUDGETS = (1, 7, 20, 45, 60)

    @pytest.mark.parametrize("noise", [0.0, 0.4], ids=["det", "noisy"])
    @pytest.mark.parametrize("mode", ["universal", "fixed-step"])
    @pytest.mark.parametrize("name", ["asym-game", "l1-ball"])
    def test_prefix_equals_separate_run(self, name, mode, noise):
        problem = matrix_game(ASYM) if name == "asym-game" else make_problem("l1-ball")
        # Unsorted, with a duplicate; 20 and 45 are off the record_every=7 grid.
        full = checkpoint_solve(problem, mode, noise, 60, checkpoints=(45, 7, 1, 20, 7))
        assert_same_trace(full, checkpoint_solve(problem, mode, noise, 60))
        for T in self.BUDGETS:
            prefix = full.prefix(T)
            assert [rec.t for rec in prefix.records] == [
                t for t in range(1, T + 1) if t % 7 == 0 or t == T]
            assert_same_trace(prefix, checkpoint_solve(problem, mode, noise, T))

    def test_every_step_recorded(self):
        problem = make_problem("l1-ball")
        full = checkpoint_solve(problem, "universal", 0.4, 30, (10, 25), record_every=1)
        for T in (10, 25):
            prefix = full.prefix(T)
            assert prefix.z_sq_total == sum(rec.z_sq for rec in prefix.records)
            assert prefix.eta_final == prefix.records[-1].eta
            assert_same_trace(prefix,
                              checkpoint_solve(problem, "universal", 0.4, T, record_every=1))

    def test_unrequested_budget_has_no_prefix(self):
        trace = checkpoint_solve(make_problem("l1-ball"), "universal", 0.0, 20, (5,))
        assert trace.prefix(20) is trace
        with pytest.raises(KeyError):
            trace.prefix(6)

    @pytest.mark.parametrize("bad", [0, -3, 21])
    @pytest.mark.parametrize("mode", ["universal", "fixed-step"])
    def test_out_of_range_checkpoint_rejected(self, mode, bad):
        with pytest.raises(ValueError):
            checkpoint_solve(make_problem("l1-ball"), mode, 0.0, 20, (5, bad))


class TestGuards:
    def test_non_finite_operator_aborts_with_diagnostics(self):
        p = convex_min_problem(
            f=lambda x: 0.5 * float(x @ x),
            grad=lambda x: x * np.nan,
            geom=EuclideanBall(1.0, 2),
            g_bound=1.0,
            min_value=0.0,
            name="nan-grad",
        )
        with pytest.raises(DivergenceError) as err:
            universal_mirror_prox(p, SolverConfig(iterations=5))
        assert err.value.t == 1
        assert err.value.eta == pytest.approx(math.sqrt(0.5))

    @pytest.mark.parametrize("grad", [
        lambda x: np.array([np.inf, 0.0, 0.0]),  # would slip through the entropic prox
        lambda x: np.array([np.nan, 0.0, 0.0]),  # would crash the simplex projection
        lambda x: np.zeros(2),
        lambda x: np.float64(0.5),
    ], ids=["inf", "nan", "short", "scalar"])
    @pytest.mark.parametrize("geom", [EntropicSimplex(3), EuclideanSimplex(3)],
                             ids=lambda g: g.kind)
    def test_bad_operator_value_aborts(self, geom, grad):
        p = convex_min_problem(f=lambda x: 0.0, grad=grad, geom=geom,
                               g_bound=1.0, min_value=0.0, name="bad-grad")
        with pytest.raises(DivergenceError) as err:
            universal_mirror_prox(p, SolverConfig(iterations=5))
        assert err.value.t == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(iterations=0)
        with pytest.raises(ValueError):
            SolverConfig(iterations=1, g0=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                SolverConfig(iterations=1, g0=bad)
            with pytest.raises(ValueError):
                SolverConfig(iterations=1, mode="fixed-step", eta=bad)
            with pytest.raises(ValueError):
                fixed_step_mirror_prox(make_problem("rps"), bad, 5)
        with pytest.raises(ValueError):
            SolverConfig(iterations=1, mode="fixed-step")
        with pytest.raises(ValueError):
            SolverConfig(iterations=1, mode="bogus")
        with pytest.raises(ValueError):
            universal_mirror_prox(
                make_problem("rps"), SolverConfig(iterations=1, mode="fixed-step", eta=0.1)
            )
