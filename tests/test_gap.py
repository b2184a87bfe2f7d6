import dataclasses

import numpy as np
import pytest

import uvi
from uvi.analysis import gap_sum_chain, regret_bound_sides, replay_steps
from uvi.gap import GapError, _dual_gaps, dual_gap
from uvi.operators import convex_min_problem, make_problem, matrix_game, saddle_problem
from uvi.geometry import EntropicSimplex, EuclideanBall
from uvi.solver import RunTrace, SolverConfig, StepRecord, universal_mirror_prox

from helpers import sample_batch

ASYM = [[0.0, -1.0], [1.0, 0.0]]


def synthetic_trace(geom, xs, gs, record_every=1):
    """A trace of the given iterates and losses; its movement norms are 0."""
    records = []
    prefix = np.zeros(geom.dim)
    g_sum, gx_sum = np.zeros(geom.dim), 0.0
    for t, (x, g) in enumerate(zip(xs, gs), start=1):
        x, g = np.asarray(x, float), np.asarray(g, float)
        prefix = prefix + x
        g_sum += g
        gx_sum += float(g @ x)
        records.append(
            StepRecord(t=t, eta=1.0, z_sq=0.0, xy_norm=0.0, xy_prev_norm=0.0, gm_dual_norm=0.0)
        )
    return RunTrace(
        iterations=len(xs),
        record_every=record_every,
        g_bound=np.inf,
        records=records,
        x_avg=prefix / len(xs),
        eta_final=1.0,
        z_sq_total=0.0,
        max_xy_ratio=0.0,
        max_yy_ratio=0.0,
        max_z_sq=0.0,
        g_sum=g_sum,
        gx_sum=gx_sum,
    )


class TestDualGap:
    def test_rps_uniform_equilibrium(self):
        p = make_problem("rps")
        assert dual_gap(p, np.full(6, 1.0 / 3.0)) == pytest.approx(0.0, abs=1e-12)

    def test_rps_vertex_pair(self):
        p = make_problem("rps")
        x = np.zeros(6)
        x[0] = x[3] = 1.0
        assert dual_gap(p, x) == pytest.approx(2.0)

    def test_known_minimizer(self):
        p = make_problem("quadratic-ball")
        assert dual_gap(p, p.known_solution) == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_point_rejected(self):
        p = make_problem("rps")
        with pytest.raises(GapError):
            dual_gap(p, np.full(6, 0.5))

    def test_vertex_enumeration_dominates_random_search(self):
        # The registered evaluator maximizes exactly; random probing of the
        # gap function can only approach it from below.
        p = make_problem("random-game", d1=3, d2=4, seed=11)
        rng = np.random.default_rng(19)
        x = p.geom.sample(rng)
        exact = dual_gap(p, x)
        probed = max(p.gap(x, p.geom.sample(rng)) for _ in range(10_000))
        assert probed <= exact + 1e-12
        assert probed >= 0.5 * exact  # the search does get within range

    def test_missing_evaluator(self):
        p = saddle_problem(
            phi=lambda u, v: float(u @ u) / 2 - float(v @ v) / 2,
            grad_u=lambda u, v: u,
            grad_v=lambda u, v: -v,
            geom_u=EntropicSimplex(2),
            geom_v=EntropicSimplex(2),
            g_bound=2.0,
        )
        with pytest.raises(GapError):
            dual_gap(p, p.geom.min_point())


def streamed_gaps(trace):
    """The (t, gap) of every record whose gap the solver evaluated."""
    return [(rec.t, rec.gap) for rec in trace.records if rec.gap is not None]


class TestStackedGaps:
    """The loop's stacked gap path is the checked single-point path, row by row."""

    @pytest.mark.parametrize("name", ["rps", "random-game", "l1-ball", "piecewise-max"])
    def test_rows_equal_single_points(self, name):
        p = make_problem(name)
        points = sample_batch(p.geom, np.random.default_rng(4), 6)
        assert _dual_gaps(p, points) == [dual_gap(p, x) for x in points]

    def test_unbatched_evaluator_rows_equal_single_points(self):
        c = np.array([0.3, -0.2])
        p = convex_min_problem(f=lambda x: float((x - c) @ (x - c)), grad=lambda x: 2 * (x - c),
                               geom=EuclideanBall(1.0, 2), g_bound=3.0, min_value=0.0)
        points = sample_batch(p.geom, np.random.default_rng(5), 4)
        assert not p.batched
        assert _dual_gaps(p, points) == [dual_gap(p, x) for x in points]

    def test_batched_evaluator_must_return_a_value_per_row(self):
        p = dataclasses.replace(make_problem("rps"), dual_gap_eval=lambda x: 0.0)
        with pytest.raises(GapError, match="one value per row, got shape"):
            _dual_gaps(p, np.full((2, 6), 1.0 / 3.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_gap_rejected(self, value):
        p = dataclasses.replace(make_problem("rps"),
                                dual_gap_eval=lambda x: np.array([0.0, value]))
        with pytest.raises(GapError, match="is not finite") as err:
            _dual_gaps(p, np.full((2, 6), 1.0 / 3.0))
        assert err.value.row == 1
        with pytest.raises(GapError, match="is not finite"):
            dual_gap(dataclasses.replace(p, dual_gap_eval=lambda x: np.full(len(x), value)),
                     np.full(6, 1.0 / 3.0))

    def test_batched_evaluator_receives_only_stacks(self):
        # dual_gap hands a batched evaluator its point as a one-row stack.
        game = make_problem("random-game", d1=3, d2=4, seed=2)
        seen = []

        def stacks_only(x):
            if x.ndim != 2:
                raise AssertionError(f"evaluator got shape {x.shape}")
            seen.append(x.shape)
            return game.dual_gap_eval(x)

        p = dataclasses.replace(game, dual_gap_eval=stacks_only)
        x = sample_batch(p.geom, np.random.default_rng(6), 1)[0]
        assert uvi.dual_gap(p, x) == float(game.dual_gap_eval(x[None])[0])
        assert seen == [(1, 7)]

    def test_nan_objective_aborts_the_run(self):
        # f turns NaN on part of the ball; the running average reaches it.
        target = np.array([0.8, 0.0])
        p = convex_min_problem(f=lambda x: np.nan if x[0] > 0.3 else float(x @ x),
                               grad=lambda x: x - target, geom=EuclideanBall(1.0, 2),
                               g_bound=2.0, min_value=0.0)
        with pytest.raises(uvi.GapCheckError, match="duality gap nan is not finite"):
            universal_mirror_prox(p, SolverConfig(iterations=500, eval_every=50))

    def test_failing_row_is_named(self):
        p = make_problem("rps")
        points = np.full((3, 6), 1.0 / 3.0)
        points[2] = 0.5
        with pytest.raises(GapError, match="not feasible") as err:
            _dual_gaps(p, points)
        assert err.value.row == 2


class TestGapSeries:
    """The solver evaluates the gap of the running average at multiples of
    eval_every plus the last step, and stores it in the records."""

    def test_checkpoint_schedule(self):
        p = make_problem("rps")
        trace = universal_mirror_prox(p, SolverConfig(iterations=10, eval_every=5))
        assert [t for t, _ in streamed_gaps(trace)] == [5, 10]

    def test_eval_every_beyond_horizon(self):
        p = make_problem("rps")
        trace = universal_mirror_prox(p, SolverConfig(iterations=10, eval_every=100))
        assert [t for t, _ in streamed_gaps(trace)] == [10]
        assert trace.records[-1].gap == dual_gap(p, trace.x_avg)

    def test_constant_trace_at_solution(self):
        p = make_problem("quadratic-ball", x0=(0.0, 0.0))
        trace = universal_mirror_prox(p, SolverConfig(iterations=20, eval_every=4))
        assert [t for t, _ in streamed_gaps(trace)] == [4, 8, 12, 16, 20]
        assert all(g == 0.0 for _, g in streamed_gaps(trace))

    def test_running_average_gap_shrinks(self):
        p = matrix_game(ASYM, name="asym-2x2")
        trace = universal_mirror_prox(
            p, SolverConfig(iterations=2000, record_every=200, eval_every=200))
        by_step = dict(streamed_gaps(trace))
        assert by_step[2000] < by_step[200]

    def test_thinned_trace_matches_full(self):
        p = matrix_game(ASYM)
        full = universal_mirror_prox(p, SolverConfig(iterations=300, record_every=1,
                                                     eval_every=50))
        thin = universal_mirror_prox(p, SolverConfig(iterations=300, record_every=50,
                                                     eval_every=50))
        assert streamed_gaps(full) == streamed_gaps(thin)

    def test_checkpoint_gap_stays_in_its_snapshot(self):
        # Step 7 is recorded but not an eval step: the run of 7 steps has its
        # gap there, the full run does not.
        p = make_problem("random-game", d1=4, d2=3)
        trace = universal_mirror_prox(p, SolverConfig(iterations=12, eval_every=5),
                                      checkpoints=(7,))
        assert [t for t, _ in streamed_gaps(trace)] == [5, 10, 12]
        assert [t for t, _ in streamed_gaps(trace.prefix(7))] == [5, 7]
        assert trace.records[6].gap is None
        assert trace.prefix(7).records[-1].gap == dual_gap(p, trace.prefix(7).x_avg)

    def test_no_evaluator_records_no_gaps(self):
        p = saddle_problem(phi=lambda u, v: 0.0, grad_u=lambda u, v: 0.0 * u,
                           grad_v=lambda u, v: 0.0 * v, geom_u=EntropicSimplex(2),
                           geom_v=EntropicSimplex(2), g_bound=1.0)
        trace = universal_mirror_prox(p, SolverConfig(iterations=6, eval_every=2))
        assert streamed_gaps(trace) == []


class TestRegret:
    def _simplex_problem(self):
        c = np.array([0.0, 0.0])
        return convex_min_problem(
            f=lambda x: float(c @ x),
            grad=lambda x: c,
            geom=EntropicSimplex(2),
            g_bound=1.0,
            min_value=0.0,
            name="flat",
        )

    def test_single_step_vertex_minimization(self):
        p = self._simplex_problem()
        trace = synthetic_trace(p.geom, [[0.5, 0.5]], [[1.0, 0.0]])
        assert regret_bound_sides(p, trace)[0] == pytest.approx(0.5)

    def test_zero_losses(self):
        p = self._simplex_problem()
        trace = synthetic_trace(p.geom, [[0.5, 0.5]] * 3, [[0.0, 0.0]] * 3)
        assert regret_bound_sides(p, trace)[0] == 0.0

    def test_thinned_trace_rejected(self):
        p = self._simplex_problem()
        trace = synthetic_trace(p.geom, [[0.5, 0.5]], [[1.0, 0.0]], record_every=2)
        with pytest.raises(ValueError, match="record_every=1"):
            regret_bound_sides(p, trace)

    def test_ball_closed_form_minimization(self):
        geom = EuclideanBall(2.0, 2)
        p = convex_min_problem(
            f=lambda x: 0.0, grad=lambda x: np.zeros(2), geom=geom,
            g_bound=1.0, min_value=0.0, name="flat-ball",
        )
        gs = [[1.0, 0.0], [0.0, 1.0]]
        xs = [[0.1, 0.0], [0.0, 0.2]]
        trace = synthetic_trace(geom, xs, gs)
        # played = 0.1 + 0.2; best = -2*||(1,1)|| = -2*sqrt(2)
        assert regret_bound_sides(p, trace)[0] == pytest.approx(0.3 + 2.0 * np.sqrt(2.0))

    def test_gap_sum_chain_flags_losses_that_miss_the_gap(self):
        # f(x) = c.x on the 2-simplex, but the recorded loss is g_1 = 0, so
        # sum Delta(x_t, x) = 1 - x[0] exceeds sum g_t.(x_t - x) = 0.
        c = np.array([1.0, 0.0])
        p = convex_min_problem(f=lambda x: float(c @ x), grad=lambda x: c,
                               geom=EntropicSimplex(2), g_bound=1.0, min_value=0.0,
                               name="linear")
        steps = [(np.array([1.0, 0.0]), np.zeros(2))]
        assert gap_sum_chain(p, steps, np.random.default_rng(0), probes=5) == (
            False, "gap-sum chain violated at probe 0")

    def test_gap_sum_chain_along_run(self):
        p = matrix_game(ASYM)
        trace = universal_mirror_prox(p, SolverConfig(iterations=300))
        steps = ((step.x, step.g) for step in replay_steps(p, trace))
        assert gap_sum_chain(p, steps, np.random.default_rng(3), probes=100) == (True, "")
