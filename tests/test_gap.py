import numpy as np
import pytest

import uvi
from uvi.gap import GapError, dual_gap, gap_series, regret
from uvi.operators import convex_min_problem, make_problem, matrix_game, saddle_problem
from uvi.geometry import EntropicSimplex, EuclideanBall
from uvi.solver import RunTrace, SolverConfig, StepRecord, universal_mirror_prox

ASYM = [[0.0, -1.0], [1.0, 0.0]]


def synthetic_trace(geom, xs, gs, record_every=1):
    records = []
    prefix = np.zeros(geom.dim)
    for t, (x, g) in enumerate(zip(xs, gs), start=1):
        x = np.asarray(x, float)
        prefix = prefix + x
        records.append(
            StepRecord(t=t, eta=1.0, z_sq=0.0, x=x, y=x, m=np.asarray(g, float),
                       g=np.asarray(g, float), x_prefix=prefix.copy())
        )
    return RunTrace(
        problem_name="synthetic",
        mode="universal",
        iterations=len(xs),
        record_every=record_every,
        g0=1.0,
        g_bound=np.inf,
        stochastic=False,
        records=records,
        x_avg=prefix / len(xs),
        duration=0.0,
        eta_final=1.0,
        z_sq_total=0.0,
        max_xy_ratio=0.0,
        max_yy_ratio=0.0,
        max_z_sq=0.0,
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


class TestGapSeries:
    def test_checkpoint_schedule(self):
        p = make_problem("rps")
        trace = universal_mirror_prox(p, SolverConfig(iterations=10))
        series = gap_series(p, trace, eval_every=5)
        assert series.steps == [5, 10]

    def test_eval_every_beyond_horizon(self):
        p = make_problem("rps")
        trace = universal_mirror_prox(p, SolverConfig(iterations=10))
        series = gap_series(p, trace, eval_every=100)
        assert series.steps == [10]
        assert series.final_gap == series.gaps[-1]

    def test_constant_trace_at_solution(self):
        p = make_problem("quadratic-ball", x0=(0.0, 0.0))
        trace = universal_mirror_prox(p, SolverConfig(iterations=20))
        series = gap_series(p, trace, eval_every=4)
        assert series.steps == [4, 8, 12, 16, 20]
        assert all(g == 0.0 for g in series.gaps)

    def test_running_average_gap_shrinks(self):
        p = matrix_game(ASYM, name="asym-2x2")
        trace = universal_mirror_prox(p, SolverConfig(iterations=2000, record_every=200))
        series = gap_series(p, trace, eval_every=200)
        by_step = dict(zip(series.steps, series.gaps))
        assert by_step[2000] < by_step[200]

    def test_thinned_trace_matches_full(self):
        p = matrix_game(ASYM)
        full = universal_mirror_prox(p, SolverConfig(iterations=300, record_every=1))
        thin = universal_mirror_prox(p, SolverConfig(iterations=300, record_every=50))
        s_full = gap_series(p, full, eval_every=50)
        s_thin = gap_series(p, thin, eval_every=50)
        assert s_full.steps == s_thin.steps
        np.testing.assert_array_equal(s_full.gaps, s_thin.gaps)


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
        assert regret(trace, p) == pytest.approx(0.5)

    def test_zero_losses(self):
        p = self._simplex_problem()
        trace = synthetic_trace(p.geom, [[0.5, 0.5]] * 3, [[0.0, 0.0]] * 3)
        assert regret(trace, p) == 0.0

    def test_thinned_trace_rejected(self):
        p = self._simplex_problem()
        trace = synthetic_trace(p.geom, [[0.5, 0.5]], [[1.0, 0.0]], record_every=2)
        with pytest.raises(ValueError, match="record_every=1"):
            regret(trace, p)

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
        assert regret(trace, p) == pytest.approx(0.3 + 2.0 * np.sqrt(2.0))

    def test_gap_sum_chain_along_run(self):
        # T * Delta(avg, x) <= sum_t Delta(x_t, x) <= sum_t g_t.(x_t - x)
        p = matrix_game(ASYM)
        T = 300
        trace = universal_mirror_prox(p, SolverConfig(iterations=T))
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = p.geom.sample(rng)
            delta_avg = T * p.gap(trace.x_avg, x)
            delta_sum = sum(p.gap(rec.x, x) for rec in trace.records)
            linear = sum(float(rec.g @ (rec.x - x)) for rec in trace.records)
            assert delta_avg <= delta_sum + 1e-6
            assert delta_sum <= linear + 1e-6
