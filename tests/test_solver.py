import dataclasses
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import uvi
from uvi.analysis import gap_certificate, replay_steps
from uvi.geometry import (
    EntropicSimplex,
    EuclideanBall,
    EuclideanBox,
    EuclideanSimplex,
)
import uvi.operators as operators
import uvi.solver as solver
from uvi.operators import (
    StochasticOracle,
    convex_min_problem,
    make_problem,
    matrix_game,
    saddle_problem,
)
from uvi.gap import dual_gap
from uvi.solver import (
    DivergenceError,
    GapCheckError,
    SolverError,
    SolverConfig,
    compute_z_sq,
    mirror_prox,
    update_eta,
)

from helpers import reference_game_run

ASYM = [[0.0, -1.0], [1.0, 0.0]]


def fixed(iterations, eta, **kwargs):
    """The config of a fixed-step solve with step ``eta``."""
    return SolverConfig(iterations=iterations, mode="fixed-step", eta=eta, **kwargs)


def kahan_prefixes(xs):
    """The loop's Kahan-compensated running sums of the iterates, step by step."""
    sum_x = comp = 0.0
    for x in xs:
        incr = x - comp
        total = sum_x + incr
        comp = (total - sum_x) - incr
        sum_x = total
        yield sum_x


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
        trace = mirror_prox(p, SolverConfig(iterations=50))
        np.testing.assert_array_equal(trace.x_avg, np.zeros(2))
        assert uvi.dual_gap(p, trace.x_avg) == 0.0
        assert trace.max_z_sq == 0.0

    def test_rps_single_step_hand_trace(self):
        p = make_problem("rps")
        trace = mirror_prox(p, SolverConfig(iterations=1))
        np.testing.assert_allclose(trace.x_avg, np.full(6, 1.0 / 3.0), atol=1e-15)
        assert uvi.dual_gap(p, trace.x_avg) == pytest.approx(0.0, abs=1e-15)

    def test_asymmetric_game_golden_run(self):
        # Cross-checked against a from-the-formulas transcription of the
        # recursion; observed gap 4.886e-4 at T=2000 with g0=1.
        p = matrix_game(ASYM, name="asym-2x2")
        trace = mirror_prox(p, SolverConfig(iterations=2000, record_every=2000))
        got = uvi.dual_gap(p, trace.x_avg)
        expected = reference_game_run(ASYM, 2000, 1.0)
        assert got == pytest.approx(expected, abs=1e-8)
        assert got <= 0.02

    def test_eta_monotone_and_movement_bounds(self):
        p = make_problem("l1-ball")
        trace = mirror_prox(p, SolverConfig(iterations=400))
        etas = [rec.eta for rec in trace.records]
        assert all(b <= a + 1e-15 for a, b in zip(etas, etas[1:]))
        assert trace.max_xy_ratio <= p.g_bound + 1e-9
        assert trace.max_yy_ratio <= p.g_bound + 1e-9
        assert trace.max_z_sq <= p.g_bound**2 + 1e-9

    def test_iterates_feasible_and_average_exact(self):
        p = matrix_game(ASYM)
        trace = mirror_prox(p, SolverConfig(iterations=300))
        steps = list(replay_steps(p, trace))
        for step in steps:
            if step.record.t % 23 == 1:
                assert p.geom.contains(step.x)
                assert p.geom.contains(step.y)
        assert p.geom.contains(trace.x_avg)
        stacked = np.mean([step.x for step in steps], axis=0)
        np.testing.assert_allclose(trace.x_avg, stacked, rtol=1e-12)

    def test_prefix_sums_are_exact(self):
        # Every checkpoint's average and every step's gap come from the
        # loop's Kahan prefix sum; both are bitwise those of the replay.
        p = make_problem("quadratic-ball")
        trace = mirror_prox(p, SolverConfig(iterations=100, eval_every=1),
                            checkpoints=range(1, 101))
        xs = [step.x for step in replay_steps(p, trace)]
        for rec, prefix in zip(trace.records, kahan_prefixes(xs)):
            assert np.array_equal(trace.prefix(rec.t).x_avg, prefix / rec.t), rec.t
            assert rec.gap == dual_gap(p, prefix / rec.t), rec.t
        direct = np.cumsum(xs, axis=0)
        np.testing.assert_allclose(trace.x_avg, direct[-1] / 100, rtol=1e-12)

    @pytest.mark.parametrize("noise", [0.0, 0.4], ids=["det", "noisy"])
    def test_regret_sums_are_streamed_in_step_order(self, noise):
        p = make_problem("l1-ball")
        oracle = StochasticOracle(p, noise, rng_seed=8) if noise else None
        trace = mirror_prox(p, SolverConfig(iterations=200), oracle)
        twin = StochasticOracle(p, noise, rng_seed=8) if noise else None
        g_sum, gx_sum = np.zeros(p.geom.dim), 0.0
        for step in replay_steps(p, trace, twin):
            g_sum += step.g
            gx_sum += float(step.g @ step.x)
        assert np.array_equal(trace.g_sum, g_sum)
        assert trace.gx_sum == gx_sum

    def test_trace_thinning_keeps_aggregates(self):
        p = matrix_game(ASYM)
        full = mirror_prox(p, SolverConfig(iterations=500, record_every=1))
        thin = mirror_prox(p, SolverConfig(iterations=500, record_every=100))
        assert [rec.t for rec in thin.records] == [100, 200, 300, 400, 500]
        np.testing.assert_array_equal(full.x_avg, thin.x_avg)
        assert full.z_sq_total == thin.z_sq_total
        assert full.max_z_sq == thin.max_z_sq
        assert thin.g_sum is None and thin.gx_sum is None  # streamed at record_every=1 only


def test_one_solver_under_every_name():
    # The two old names stay only as aliases, for the benchmark's wrappers.
    assert solver.universal_mirror_prox is solver.fixed_step_mirror_prox is solver.mirror_prox
    assert uvi.mirror_prox is solver.mirror_prox
    assert not hasattr(uvi, "universal_mirror_prox") and not hasattr(uvi, "fixed_step_mirror_prox")
    assert "mirror_prox" in solver.__all__ and "universal_mirror_prox" not in solver.__all__


class TestFixedStep:
    def test_rps_tuned_baseline_golden(self):
        p = make_problem("rps")
        trace = mirror_prox(p, fixed(1000, 1.0 / p.smoothness, record_every=1000))
        assert uvi.dual_gap(p, trace.x_avg) <= 0.01

    def test_zero_eta_rejected(self):
        p = make_problem("rps")
        with pytest.raises(ValueError):
            mirror_prox(p, fixed(10, 0.0))

    def test_zero_game_stays_at_start(self):
        p = matrix_game(np.zeros((2, 2)))
        trace = mirror_prox(p, fixed(25, 0.7))
        np.testing.assert_allclose(trace.x_avg, np.full(4, 0.5), atol=1e-12)
        assert p.dual_gap_eval(trace.x_avg) == pytest.approx(0.0, abs=1e-12)

    def test_movement_bound_holds_for_fixed_step(self):
        p = matrix_game(ASYM)
        trace = mirror_prox(p, fixed(500, 1.0 / p.smoothness))
        assert trace.max_xy_ratio <= p.g_bound + 1e-9
        assert trace.max_yy_ratio <= p.g_bound + 1e-9

    def test_eta_outside_fixed_step_rejected(self):
        # An eta the adaptive rule would ignore is a config error, not a no-op.
        with pytest.raises(ValueError, match="eta is only used in fixed-step mode"):
            SolverConfig(iterations=10, eta=0.5)


class TestStochasticRuns:
    def test_same_seed_bitwise_identical(self):
        p = matrix_game(ASYM)
        cfg = SolverConfig(iterations=200, eval_every=1)
        t1 = mirror_prox(p, cfg, StochasticOracle(p, 0.3, rng_seed=5))
        t2 = mirror_prox(p, cfg, StochasticOracle(p, 0.3, rng_seed=5))
        np.testing.assert_array_equal(t1.x_avg, t2.x_avg)
        for r1, r2 in zip(t1.records, t2.records):
            assert r1.eta == r2.eta and r1.z_sq == r2.z_sq
            assert r1.gap == r2.gap and r1.gap is not None

    def test_different_seeds_differ(self):
        p = matrix_game(ASYM)
        cfg = SolverConfig(iterations=200)
        t1 = mirror_prox(p, cfg, StochasticOracle(p, 0.3, rng_seed=5))
        t2 = mirror_prox(p, cfg, StochasticOracle(p, 0.3, rng_seed=6))
        assert not np.array_equal(t1.x_avg, t2.x_avg)

    def test_movement_bound_uses_noise_inflated_g(self):
        p = matrix_game(ASYM)
        oracle = StochasticOracle(p, 0.5, rng_seed=2)
        trace = mirror_prox(p, SolverConfig(iterations=300), oracle)
        cap = p.g_bound + 0.5
        assert trace.g_bound == pytest.approx(cap)
        assert trace.max_xy_ratio <= cap + 1e-9
        assert trace.max_z_sq <= cap**2 + 1e-9

    def test_oracle_problem_mismatch(self):
        p1, p2 = matrix_game(ASYM), matrix_game(ASYM)
        oracle = StochasticOracle(p1, 0.1, rng_seed=0)
        with pytest.raises(ValueError):
            mirror_prox(p2, SolverConfig(iterations=5), oracle)


class TestOracleKernelInLoop:
    """The loop samples through the oracle kernel, on the same noise stream."""

    def test_solve_does_not_call_checked_noisy_eval(self, monkeypatch):
        def refuse(oracle, x):
            raise AssertionError("solver loop called noisy_eval")

        monkeypatch.setattr(solver, "noisy_eval", refuse)
        monkeypatch.setattr(operators, "noisy_eval", refuse)
        p = matrix_game(ASYM)
        trace = mirror_prox(p, SolverConfig(iterations=50),
                            StochasticOracle(p, 0.3, rng_seed=4))
        assert trace.iterations == 50

    @pytest.mark.parametrize("name", ["random-game", "l1-ball"])
    def test_loop_samples_equal_public_samples(self, name):
        # The replay samples through the checked noisy_eval and prox_step; its
        # Kahan prefix and norms must be the records' at every step.
        p = make_problem(name)
        trace = mirror_prox(p, SolverConfig(iterations=300, eval_every=1),
                            StochasticOracle(p, 0.5, rng_seed=9),
                            checkpoints=range(1, 301))
        twin = StochasticOracle(p, 0.5, rng_seed=9)
        geom = p.geom
        sum_x, comp = np.zeros(geom.dim), np.zeros(geom.dim)
        for rec, y_prev, m, x, g, y in replay_steps(p, trace, twin):
            incr = x - comp
            total = sum_x + incr
            comp = (total - sum_x) - incr
            sum_x = total
            assert np.array_equal(trace.prefix(rec.t).x_avg, sum_x / rec.t), rec.t
            assert rec.gap == dual_gap(p, sum_x / rec.t), rec.t
            assert rec.xy_norm == geom.primal_norm(x - y), rec.t
            assert rec.xy_prev_norm == geom.primal_norm(x - y_prev), rec.t
            assert rec.gm_dual_norm == geom.dual_norm(g - m), rec.t
        assert rec.t == 300

    def test_replay_rejects_thinned_trace_and_foreign_oracle(self):
        p = matrix_game(ASYM)
        thin = mirror_prox(p, SolverConfig(iterations=10, record_every=5))
        with pytest.raises(ValueError, match="record_every=1"):
            next(replay_steps(p, thin))
        full = mirror_prox(p, SolverConfig(iterations=10))
        with pytest.raises(ValueError, match="different problem"):
            next(replay_steps(p, full, StochasticOracle(matrix_game(ASYM), 0.1, rng_seed=0)))

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
        trace = mirror_prox(p, SolverConfig(iterations=2000, record_every=2000),
                            StochasticOracle(p, 0.5, rng_seed=3))
        x_avg, z_sq_total = self.GOLDEN[name]
        assert [float(v).hex() for v in trace.x_avg] == x_avg
        assert trace.z_sq_total.hex() == z_sq_total


def assert_same_trace(got, want):
    """Field-for-field bitwise equality of two RunTraces (checkpoints aside)."""
    for name in ("iterations", "record_every", "g_bound", "eta_final", "z_sq_total",
                 "max_xy_ratio", "max_yy_ratio", "max_z_sq", "gx_sum"):
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(got.x_avg, want.x_avg)
    if want.g_sum is None:
        assert got.g_sum is None
    else:
        assert np.array_equal(got.g_sum, want.g_sum)
    assert [rec.t for rec in got.records] == [rec.t for rec in want.records]
    for a, b in zip(got.records, want.records):
        for name in ("eta", "z_sq", "xy_norm", "xy_prev_norm", "gm_dual_norm", "gap"):
            assert getattr(a, name) == getattr(b, name), (a.t, name)
    # Each run's last step carries its gap.
    assert got.records[-1].gap == want.records[-1].gap is not None


def checkpoint_solve(problem, mode, noise, T, checkpoints=(), record_every=7):
    """A solve with a gap at every recorded step."""
    oracle = StochasticOracle(problem, noise, rng_seed=11) if noise else None
    config = SolverConfig(iterations=T, mode=mode, eta=0.2 if mode == "fixed-step" else None,
                          record_every=record_every, eval_every=record_every)
    return mirror_prox(problem, config, oracle, checkpoints=checkpoints)


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

    @pytest.mark.parametrize("mutated", [20, 40, 60])
    def test_checkpoint_traces_share_nothing(self, mutated):
        def solve():
            full = checkpoint_solve(make_problem("l1-ball"), "universal", 0.4, 60, (20, 40),
                                    record_every=1)
            return {T: full.prefix(T) for T in (20, 40, 60)}

        traces, fresh = solve(), solve()
        for a, b in itertools.combinations(traces.values(), 2):
            assert a.records is not b.records and a.checkpoints is not b.checkpoints
            assert not np.shares_memory(a.x_avg, b.x_avg)
            assert not np.shares_memory(a.g_sum, b.g_sum)
        trace = traces[mutated]
        trace.records.append(trace.records[0])
        trace.x_avg += 1.0
        trace.g_sum += 1.0
        trace.checkpoints[0] = trace
        for T in traces.keys() - {mutated}:
            assert_same_trace(traces[T], fresh[T])
            assert traces[T].checkpoints.keys() == fresh[T].checkpoints.keys()

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
            mirror_prox(p, SolverConfig(iterations=5))
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
            mirror_prox(p, SolverConfig(iterations=5))
        assert err.value.t == 1

    @pytest.mark.parametrize("scale, g0, eta", [
        (1.0, 1e155, 0.0),  # g0^2 overflows, so eta_1 = 0
        (1.0, 1e-300, math.inf),  # g0^2 underflows to 0, so eta_1 = inf
        (2.0**515, 2.0**515, 0.0),
        (2.0**-1000, 2.0**-1000, math.inf),
    ], ids=["g0-1e155", "g0-1e-300", "payoff-2^515", "payoff-2^-1000"])
    def test_step_size_out_of_range_aborts(self, scale, g0, eta):
        p = matrix_game(make_problem("rps").params["matrix"] * scale)
        with pytest.raises(DivergenceError) as err:
            mirror_prox(p, SolverConfig(iterations=20, g0=g0))
        assert err.value.t == 1
        assert err.value.eta == eta

    def test_non_finite_iterate_aborts_naming_the_seed(self):
        # Finite operator values and step size, but eta_1 * F overflows in the
        # entropic prox. Its overflow warnings are silenced here so that the
        # loop's own iterate guard, not the warning, ends the run.
        p = matrix_game(make_problem("rps").params["matrix"] * 1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="non-finite iterate") as err:
                mirror_prox(p, SolverConfig(iterations=5, g0=1e-10),
                            oracles={3: None, 9: None})
        assert (err.value.t, err.value.eta, err.value.seed) == (1, math.sqrt(2.0) * 1e10, 3)
        assert str(err.value) == ("aborted at step t=1, eta=1.41421e+10: "
                                  "non-finite iterate (seed 3)")

    def test_movement_ratio_above_g_aborts_naming_the_seed(self):
        p = dataclasses.replace(make_problem("quadratic-ball"), g_bound=0.5)
        with pytest.raises(solver.InvariantError) as err:
            mirror_prox(p, SolverConfig(iterations=5, g0=0.5), oracles={3: None, 9: None})
        assert str(err.value) == ("aborted at step t=1, eta=1.41421: movement/eta ratio "
                                  "0.707107 exceeds operator bound 0.5 (seed 3)")

    def test_z_sq_above_g_squared_aborts(self, monkeypatch):
        # Z^2 divided by 4 eta^2, not 5: the row invariant_checks reports for
        # that mutant.
        monkeypatch.setattr(solver, "compute_z_sq",
                            lambda a, b, eta: (a * a + b * b) / (4.0 * eta * eta))
        with pytest.raises(solver.InvariantError) as err:
            mirror_prox(make_problem("l1-ball"),
                        SolverConfig(iterations=300, g0=math.sqrt(3), record_every=1))
        assert (err.value.t, err.value.seed) == (221, None)
        assert str(err.value) == ("aborted at step t=221, eta=0.0318465: "
                                  "Z^2 = 3.75 exceeds G^2 = 3")

    def test_infinite_g_bound_trips_no_movement_guard(self):
        p = dataclasses.replace(make_problem("quadratic-ball"), g_bound=math.inf)
        trace = mirror_prox(p, SolverConfig(iterations=50))
        assert trace.g_bound == math.inf
        assert trace.max_xy_ratio == pytest.approx(math.sqrt(2.0))

    def test_config_is_frozen(self):
        configs = [SolverConfig(iterations=5), fixed(5, 0.5, record_every=5, eval_every=5)]
        for config in configs:
            for f in dataclasses.fields(config):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(config, f.name, 0)
            # replace() builds a new config and checks it again.
            with pytest.raises(ValueError, match="iterations must be >= 1"):
                dataclasses.replace(config, iterations=0)

    def test_fixed_step_meets_the_step_size_guard(self):
        # Both step rules run the loop's one range guard; a zero fixed step
        # forced past the frozen config aborts there, not in compute_z_sq.
        config = fixed(5, 0.5)
        object.__setattr__(config, "eta", 0.0)
        with pytest.raises(DivergenceError, match="step size out of floating-point range"):
            mirror_prox(make_problem("rps"), config)

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
                mirror_prox(make_problem("rps"), fixed(5, bad))
        for bad in (1e-200, -0.1):
            with pytest.raises(ValueError, match="whose square is nonzero"):
                mirror_prox(make_problem("rps"), fixed(5, bad))
        with pytest.raises(ValueError):
            SolverConfig(iterations=1, mode="fixed-step")
        with pytest.raises(ValueError):
            SolverConfig(iterations=1, mode="bogus")
        with pytest.raises(ValueError, match="eval_every must be >= 1"):
            SolverConfig(iterations=10, eval_every=0)
        with pytest.raises(ValueError, match="eval_every must be a multiple of record_every"):
            SolverConfig(iterations=10, record_every=2, eval_every=7)
        with pytest.raises(ValueError, match="multiple of record_every"):
            mirror_prox(make_problem("rps"),
                        fixed(10, 0.1, record_every=2, eval_every=3))


class TestStreamedGaps:
    """Each gap the loop streams is the checked gap of the replayed average."""

    SEEDS = (3, 8)

    @pytest.mark.parametrize("noise", [0.0, 0.4], ids=["det", "noisy"])
    @pytest.mark.parametrize("name", ["rps", "random-game-30x20", "l1-ball",
                                      "quadratic-ball", "piecewise-max"])
    def test_gap_equals_replayed_average_gap(self, name, noise):
        problem = BATCH_PROBLEMS[name]()

        def oracle(seed):
            return StochasticOracle(problem, noise, rng_seed=seed) if noise else None

        batch = mirror_prox(problem, SolverConfig(iterations=60, eval_every=1),
                            oracles={seed: oracle(seed) for seed in self.SEEDS})
        for seed, trace in batch.traces.items():
            xs = [step.x for step in replay_steps(problem, trace, oracle(seed))]
            for rec, prefix in zip(trace.records, kahan_prefixes(xs)):
                assert rec.gap == dual_gap(problem, prefix / rec.t), (seed, rec.t)
            assert rec.t == 60

    @staticmethod
    def negative_from_step(step, row):
        """l1-ball whose evaluator returns -1.0 for ``row`` from ``step`` on."""
        calls = []

        def gap_eval(x):  # one call per evaluated step, on the stack of seeds
            calls.append(1)
            values = np.zeros(len(x))
            if len(calls) >= step:
                values[row] = -1.0
            return values

        return dataclasses.replace(make_problem("l1-ball"), dual_gap_eval=gap_eval)

    def test_negative_gap_aborts_naming_the_seed(self):
        problem = self.negative_from_step(3, 1)
        oracles = {seed: StochasticOracle(problem, 0.3, rng_seed=seed) for seed in self.SEEDS}
        with pytest.raises(GapCheckError) as err:
            mirror_prox(problem, SolverConfig(iterations=10, eval_every=1),
                        oracles=oracles)
        plain = make_problem("l1-ball")
        single = mirror_prox(plain, SolverConfig(iterations=3),
                             StochasticOracle(plain, 0.3, rng_seed=8))
        eta = single.records[2].eta
        assert (err.value.t, err.value.eta, err.value.seed) == (3, eta, 8)
        assert str(err.value) == (f"aborted at step t=3, eta={eta:.6g}: running average: "
                                  "duality gap -1.0 is negative beyond tolerance (seed 8)")
        assert isinstance(err.value, SolverError)


class TestTraceMemory:
    def test_every_step_trace_holds_no_vector_per_step(self):
        # A record keeps scalars only, its gap included; no d-vector is kept.
        p = make_problem("random-game", d1=300, d2=300)
        oracle = StochasticOracle(p, 0.5, rng_seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = mirror_prox(p, SolverConfig(iterations=2000, eval_every=1),
                                oracle)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace.records) == 2000
        assert all(rec.gap is not None for rec in trace.records)
        assert held <= 0.25 * 2000 * 600 * 8, held  # 0.25 x one (T, d) float64 array


def bilinear_saddle(geom_u, geom_v, seed):
    """u.B.v over the two blocks; its gradients and duality gap take one
    point at a time."""
    B = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(geom_u.dim, geom_v.dim))

    def gap(x):  # max_v' u.B.v' - min_u' u'.B.v by the blocks' exact linear minimizers
        u, v = x[: geom_u.dim], x[geom_u.dim :]
        return -geom_v.linear_minimize(-(B.T @ u))[1] - geom_u.linear_minimize(B @ v)[1]

    return saddle_problem(
        phi=lambda u, v: float(u @ B @ v),
        grad_u=lambda u, v: np.matvec(B, v),
        grad_v=lambda u, v: np.vecmat(u, B),
        geom_u=geom_u, geom_v=geom_v, g_bound=10.0, dual_gap_eval=gap,
    )


def user_box_quadratic():
    """A user objective whose gradient takes one point at a time; its minimum
    over the box is 0.5, at c clipped to the box."""
    c = np.array([0.5, 2.0, -0.3])
    return convex_min_problem(
        f=lambda x: 0.5 * float((x - c) @ (x - c)),
        grad=lambda x: np.array([x[0] - c[0], x[1] - c[1], x[2] - c[2]]),
        geom=EuclideanBox(-np.ones(3), np.ones(3)),
        g_bound=5.0, min_value=0.5, minimizer=[0.5, 1.0, -0.3], name="user-box",
    )


BATCH_PROBLEMS = {
    "rps": lambda: make_problem("rps"),
    "random-game-30x20": lambda: make_problem("random-game", d1=30, d2=20, seed=3),
    "l1-ball": lambda: make_problem("l1-ball"),
    "quadratic-ball": lambda: make_problem("quadratic-ball"),
    "piecewise-max": lambda: make_problem("piecewise-max"),
    "entropic-x-ball": lambda: bilinear_saddle(EntropicSimplex(2), EuclideanBall(1.0, 2), 4),
    "euclidean-simplices": lambda: bilinear_saddle(EuclideanSimplex(40), EuclideanSimplex(30), 5),
    "user-convex-min": user_box_quadratic,
}


class TestGapCertificate:
    """The gap of each run's average lies within its accuracy certificate,
    which also checks the minimum a user problem states."""

    @pytest.mark.parametrize("T", [40, 300])
    @pytest.mark.parametrize("name", sorted(BATCH_PROBLEMS))
    def test_average_gap_within_certificate(self, name, T):
        problem = BATCH_PROBLEMS[name]()
        trace = mirror_prox(problem, SolverConfig(iterations=T))
        pairs = ((step.x, problem.operator(step.x)) for step in replay_steps(problem, trace))
        assert gap_certificate(problem, trace.x_avg, pairs) == (True, "")


class TestSeedBatch:
    """A batch of seeds solves each seed bitwise as its own run would."""

    SEEDS = (2, 5, 9)
    BUDGETS = (20, 45)

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("noise", [0.0, 0.3], ids=["det", "noisy"])
    @pytest.mark.parametrize("name", sorted(BATCH_PROBLEMS))
    def test_batch_equals_separate_solves(self, name, noise, record_every):
        problem = BATCH_PROBLEMS[name]()

        def oracle(seed):
            return StochasticOracle(problem, noise, rng_seed=seed) if noise else None

        config = SolverConfig(iterations=60, record_every=record_every,
                              eval_every=record_every)
        batch = mirror_prox(problem, config, checkpoints=self.BUDGETS,
                            oracles={seed: oracle(seed) for seed in self.SEEDS})
        assert list(batch.traces) == list(self.SEEDS)
        assert batch.iterations == 60 * len(self.SEEDS)
        assert len(batch.records) == sum(len(t.records) for t in batch.traces.values())
        for seed in self.SEEDS:
            single = mirror_prox(problem, config, oracle(seed),
                                 checkpoints=self.BUDGETS)
            got = batch.traces[seed]
            assert_same_trace(got, single)
            for T in self.BUDGETS:
                assert_same_trace(got.prefix(T), single.prefix(T))

    @pytest.mark.parametrize("name", sorted(BATCH_PROBLEMS))
    def test_fixed_step_batch_equals_separate_solves(self, name):
        # Both the twin product path (rps) and the split one (the other games
        # and saddles).
        problem = BATCH_PROBLEMS[name]()
        oracles = {seed: StochasticOracle(problem, 0.3, rng_seed=seed) for seed in self.SEEDS}
        config = fixed(40, 0.2, record_every=1, eval_every=1)
        batch = mirror_prox(problem, config, oracles=oracles)
        for seed in self.SEEDS:
            single = mirror_prox(problem, config,
                                 StochasticOracle(problem, 0.3, rng_seed=seed))
            assert_same_trace(batch.traces[seed], single)

    def test_noise_stack_crosses_blocks(self):
        """On a d = 600 ball the noise blocks are 13 rows, so T = 61 (122 samples)
        crosses nine block boundaries and ends inside a block. Each seed's
        trace, and its oracle's next noise row after the solve, equal those
        of its own single solve; that row is the (2T + 1)-th of a fresh
        stream, so neither solve took a row it did not use."""
        x0 = np.linspace(-0.05, 0.05, 600)
        x0[0] = 1.5
        problem = make_problem("quadratic-ball", x0=x0)
        assert max(1, solver._NOISE_BLOCK_BYTES // (8 * problem.geom.dim)) == 13

        def oracles():
            return {seed: StochasticOracle(problem, 0.3, rng_seed=seed) for seed in self.SEEDS}

        T = 61
        config = SolverConfig(iterations=T, record_every=1, eval_every=1)
        batch_oracles = oracles()
        batch = mirror_prox(problem, config, oracles=batch_oracles)
        fresh = oracles()
        for seed, oracle in oracles().items():
            assert_same_trace(batch.traces[seed], mirror_prox(problem, config, oracle))
            fresh[seed]._noise(2 * T)
            after = fresh[seed]._noise(1)[0]
            assert np.array_equal(batch_oracles[seed]._noise(1)[0], after), seed
            assert np.array_equal(oracle._noise(1)[0], after), seed

    def test_oracle_and_oracles_are_exclusive(self):
        problem = make_problem("rps")
        config = SolverConfig(iterations=5)
        with pytest.raises(ValueError, match="either oracle or oracles"):
            mirror_prox(problem, config, StochasticOracle(problem, 0.1),
                        oracles={0: None})
        with pytest.raises(ValueError, match="at least one seed"):
            mirror_prox(problem, config, oracles={})
        with pytest.raises(ValueError, match="different problem"):
            mirror_prox(problem, config, oracles={
                0: None, 1: StochasticOracle(make_problem("rps"), 0.1)})

    def test_mixed_batch_is_refused(self):
        # A batch is all stochastic or all deterministic; the CLI never mixes.
        problem = make_problem("rps")
        for oracles in ({0: None, 1: StochasticOracle(problem, 0.1)},
                        {1: StochasticOracle(problem, 0.1), 0: None}):
            with pytest.raises(ValueError, match="all StochasticOracles or all None, not a mix"):
                mirror_prox(problem, SolverConfig(iterations=5), oracles=oracles)

    @staticmethod
    def nan_on_second_seed(batched):
        """x - 0.5, except NaN for the second seed's loss g_3 at step 3."""
        calls = []

        def grad(x):
            calls.append(1)
            out = x - 0.5
            if batched and len(calls) == 6:  # step 3: hint M_3, then loss g_3
                out[1] = np.nan
            if not batched and len(calls) == 3 * 5 + 2:  # rows go seed after seed
                out = out * np.nan
            return out

        return convex_min_problem(f=lambda x: 0.0, grad=grad, geom=EuclideanBall(1.0, 2),
                                  g_bound=2.0, min_value=0.0, name="nan-seed",
                                  batched=batched)

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "row-by-row"])
    @pytest.mark.parametrize("grad", [lambda x: x[..., :1], lambda x: 0.5],
                             ids=["one-coordinate", "scalar"])
    def test_wrong_shape_aborts_at_the_first_step(self, grad, batched):
        problem = convex_min_problem(f=lambda x: 0.0, grad=grad, geom=EuclideanBall(1.0, 2),
                                     g_bound=2.0, min_value=0.0, batched=batched)
        with pytest.raises(DivergenceError,
                           match="operator value must be a finite vector of dimension 2") as err:
            mirror_prox(problem, SolverConfig(iterations=10),
                        oracles={4: None, 8: None})
        assert (err.value.t, err.value.seed) == (1, 4)

    @pytest.mark.parametrize("adapter", ["convex-min-grad", "saddle-dual-gap"])
    def test_ragged_per_point_values_abort_naming_the_seed(self, adapter):
        # Rows go seed after seed, so the second call is seed 8's at t = 1.
        def second_call_returns(usual, odd):
            calls = []

            def value(x):
                calls.append(1)
                return (odd if len(calls) == 2 else usual)(x)

            return value

        ball = EuclideanBall(1.0, 2)
        if adapter == "convex-min-grad":
            grad = second_call_returns(lambda x: x, lambda x: x[:1])
            problem = convex_min_problem(f=lambda x: 0.0, grad=grad, geom=ball,
                                         g_bound=2.0, min_value=0.0)
            error, message = DivergenceError, "operator value must be a finite vector"
        else:
            def zero(u, v):
                return np.zeros(2)

            gap = second_call_returns(lambda x: 0.0, lambda x: np.zeros(2))
            problem = saddle_problem(phi=lambda u, v: 0.0, grad_u=zero, grad_v=zero,
                                     geom_u=ball, geom_v=ball, g_bound=1.0,
                                     dual_gap_eval=gap)
            error, message = GapCheckError, "running average: duality gap nan is not finite"
        with pytest.raises(error, match=message) as err:
            mirror_prox(problem, SolverConfig(iterations=10, eval_every=1),
                        oracles={4: None, 8: None})
        assert (err.value.t, err.value.seed) == (1, 8)

    def test_saddle_block_shapes_checked_at_every_call(self):
        # The right total length from the wrong blocks, from the third call of
        # each gradient on: the build makes the first, and rows go seed after
        # seed, so the third is seed 8's hint at t = 1.
        calls = []

        def grad_u(u, v):
            calls.append(1)
            return u[..., :1] if len(calls) >= 3 else u

        def grad_v(u, v):
            return np.concatenate([v, v[..., :1]], axis=-1) if len(calls) >= 3 else v

        ball = EuclideanBall(1.0, 2)
        problem = saddle_problem(phi=lambda u, v: 0.0, grad_u=grad_u, grad_v=grad_v,
                                 geom_u=ball, geom_v=ball, g_bound=10.0)
        with pytest.raises(DivergenceError,
                           match="operator value must be a finite vector of dimension 4") as err:
            mirror_prox(problem, SolverConfig(iterations=5),
                        oracles={4: None, 8: None})
        assert (err.value.t, err.value.seed) == (1, 8)

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "row-by-row"])
    def test_abort_names_the_seed(self, batched):
        problem = self.nan_on_second_seed(batched)
        oracles = {seed: None for seed in self.SEEDS}
        with pytest.raises(DivergenceError) as err:
            mirror_prox(problem, SolverConfig(iterations=10), oracles=oracles)
        single = mirror_prox(make_problem("quadratic-ball", x0=(0.5, 0.5)),
                             SolverConfig(iterations=3))
        eta = single.records[2].eta
        assert (err.value.t, err.value.eta, err.value.seed) == (3, eta, 5)
        message = str(err.value)
        assert message.startswith(f"aborted at step t=3, eta={eta:.6g}: operator value")
        assert message.endswith("(seed 5)")
        assert isinstance(err.value, SolverError)


def trace_hex(trace):
    """Every float of a trace as ``float.hex``: its records, aggregates and sums."""
    def hexed(value):
        return None if value is None else float(value).hex()

    return {
        "records": [[rec.t] + [hexed(getattr(rec, name)) for name in
                               ("eta", "z_sq", "xy_norm", "xy_prev_norm", "gm_dual_norm", "gap")]
                    for rec in trace.records],
        "aggregates": [hexed(getattr(trace, name)) for name in
                       ("eta_final", "z_sq_total", "max_xy_ratio", "max_yy_ratio", "max_z_sq")],
        "x_avg": [hexed(v) for v in trace.x_avg],
        "g_sum": [hexed(v) for v in trace.g_sum],
        "gx_sum": hexed(trace.gx_sum),
    }


PER_POINT_PROBLEMS = {
    "user-box": user_box_quadratic,
    "user-saddle": lambda: bilinear_saddle(EntropicSimplex(3), EuclideanBall(1.0, 2), 6),
}


def per_point_golden_runs(name):
    """{run: {seed: trace_hex}} for one per-point user problem: a deterministic
    solve, and a batch of two noisy seeds; T = 40 with every step recorded
    and evaluated."""
    problem = PER_POINT_PROBLEMS[name]()
    config = SolverConfig(iterations=40, record_every=1, eval_every=1)
    noisy = mirror_prox(problem, config, oracles={
        seed: StochasticOracle(problem, 0.3, rng_seed=seed) for seed in (3, 8)})
    return {
        "det": {"0": trace_hex(mirror_prox(problem, config))},
        "noisy": {str(seed): trace_hex(trace) for seed, trace in noisy.traces.items()},
    }


class TestPerPointGolden:
    """A user problem whose callables take one point at a time reproduces its
    stored traces bit for bit."""

    FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "per_point_user.json").read_text())

    @pytest.mark.parametrize("name", sorted(PER_POINT_PROBLEMS))
    def test_traces_unchanged(self, name):
        assert per_point_golden_runs(name) == self.FIXTURE[name]
