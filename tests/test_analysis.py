import inspect
import math

import numpy as np
import pytest

from uvi.analysis import (
    lemma4_check,
    lemma5_check,
    lemma7_check,
    lemma8_check,
    prop1_mc,
    rate_fit,
    regret_bound_sides,
    replay_steps,
    theorem_bounds,
)
from uvi.geometry import EntropicSimplex, EuclideanBall
from uvi.operators import make_problem, matrix_game
from uvi.solver import SolverConfig, universal_mirror_prox

ASYM = [[0.0, -1.0], [1.0, 0.0]]


class TestTheoremBounds:
    def test_alpha_matched_prior(self):
        p = make_problem("rps")
        report = theorem_bounds(p, SolverConfig(iterations=100, g0=p.g_bound))
        assert report.alpha == pytest.approx(1.0)

    def test_budget_comes_from_the_config(self):
        p = make_problem("l1-ball")
        assert "T" not in inspect.signature(theorem_bounds).parameters
        short, long = (theorem_bounds(p, SolverConfig(iterations=T)) for T in (100, 400))
        assert long.thm2_rhs < short.thm2_rhs

    def test_alpha_definition(self):
        p = make_problem("quadratic-ball")  # G = 2.5
        report = theorem_bounds(p, SolverConfig(iterations=100, g0=1.25))
        assert report.alpha == pytest.approx(2.0)
        report = theorem_bounds(p, SolverConfig(iterations=100, g0=5.0))
        assert report.alpha == pytest.approx(2.0)

    def test_presence_rules(self):
        smooth = make_problem("rps")
        nonsmooth = make_problem("l1-ball")
        cfg = SolverConfig(iterations=100)
        r = theorem_bounds(smooth, cfg)
        assert r.thm1_rhs is not None and r.thm2_rhs is not None
        assert r.thm3_rhs is None and r.thm4_rhs is None
        r = theorem_bounds(smooth, cfg, sigma_sq=0.25)
        assert r.thm3_rhs is not None and r.thm4_rhs is not None
        r = theorem_bounds(nonsmooth, cfg, sigma_sq=0.25)
        assert r.thm1_rhs is None and r.thm4_rhs is None
        assert r.thm3_rhs is not None

    def test_shape_value_plugin(self):
        p = make_problem("rps")
        T = 1000
        cfg = SolverConfig(iterations=T, g0=p.g_bound)
        r = theorem_bounds(p, cfg)
        G, D, L = p.g_bound, p.geom.diameter(), p.smoothness
        expected = (G * D + L * D * D + L * D * D * math.log(L * D / p.g_bound)) / T
        assert r.thm1_rhs == pytest.approx(expected)
        assert r.thm2_rhs == pytest.approx(G * D * math.sqrt(math.log(1 + T) / T))

    def test_monotone_decreasing_in_t(self):
        p = make_problem("rps")
        prev = None
        for T in (1, 2, 3, 10, 100, 1000, 10000):
            r = theorem_bounds(p, SolverConfig(iterations=T), sigma_sq=0.5)
            values = (r.thm1_rhs, r.thm2_rhs, r.thm3_rhs, r.thm4_rhs)
            if prev is not None:
                assert all(b < a for a, b in zip(prev, values))
            prev = values

    def test_thm2_weakly_increasing_in_g(self):
        cfg = SolverConfig(iterations=100, g0=1.0)
        p = make_problem("rps")
        values = [
            theorem_bounds(p, cfg, g_bound=G).thm2_rhs for G in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_log_clamp_flag(self):
        p = make_problem("rps")  # L*D ~ 3.1
        r = theorem_bounds(p, SolverConfig(iterations=10, g0=100.0))
        assert r.log_regime_clamped
        assert r.thm1_rhs >= 0.0


class TestLemma4:
    def test_frozen_example(self):
        r = lemma4_check(1.0, [1.0, 1.0], cap=1.0)
        assert r["mid"] == pytest.approx(1.0 + 1.0 / math.sqrt(2.0))
        assert r["lhs"] == pytest.approx(math.sqrt(2.0) - 1.0)
        assert r["rhs"] == pytest.approx(2.0 + 3.0 + 3.0 * math.sqrt(2.0))
        assert r["holds"]

    def test_empty_sequence(self):
        r = lemma4_check(4.0, [])
        assert r["mid"] == 0.0 and r["lhs"] == 0.0 and r["holds"]

    def test_errors(self):
        with pytest.raises(ValueError):
            lemma4_check(0.0, [1.0])
        with pytest.raises(ValueError):
            lemma4_check(1.0, [-0.1])
        with pytest.raises(ValueError):
            lemma4_check(1.0, [2.0], cap=1.0)

    def test_randomized_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            a = float(rng.uniform(1e-3, 10.0))
            a0 = float(rng.uniform(1e-3, 10.0))
            r = lemma4_check(a0, rng.uniform(0.0, a, size=n), cap=a)
            assert r["holds"]
            assert r["mid"] >= r["lhs"] - 1e-12
            assert r["mid"] >= r["lhs_full"] - 1e-12


class TestLemma5:
    def test_frozen_example(self):
        r = lemma5_check(1.0, [1.0], cap=1.0)
        assert r["lhs"] == pytest.approx(1.0)
        assert r["rhs"] == pytest.approx(6.0)
        assert r["holds"]

    def test_empty_sequence(self):
        assert lemma5_check(1.0, [])["holds"]

    def test_randomized_oracle(self):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            a = float(rng.uniform(1e-3, 10.0))
            a0 = float(rng.uniform(1e-3, 10.0))
            assert lemma5_check(a0, rng.uniform(0.0, a, size=n), cap=a)["holds"]


class TestLemma7And8:
    def test_single_term(self):
        r = lemma7_check([1.0])
        assert r["lhs"] == pytest.approx(1.0) and r["rhs"] == pytest.approx(2.0)

    def test_all_zeros(self):
        assert lemma7_check(np.zeros(5))["lhs"] == 0.0
        assert lemma7_check(np.zeros(5))["holds"]
        assert lemma8_check(np.zeros(5))["lhs"] == 0.0
        assert lemma8_check(np.zeros(5))["holds"]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lemma7_check([-1.0])
        with pytest.raises(ValueError):
            lemma8_check([-1.0])

    def test_randomized_oracles(self):
        rng = np.random.default_rng(107)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            seq = rng.uniform(0.0, 10.0, size=n)
            assert lemma7_check(seq)["holds"]
            assert lemma8_check(seq)["holds"]


class TestProp1:
    def test_zero_magnitude(self):
        r = prop1_mc(EntropicSimplex(3), 5, 100, seed=0, magnitude=0.0)
        assert r["lhs_estimate"] == 0.0 and r["rhs"] == 0.0 and r["holds"]

    def test_simplex_instances_hold(self):
        assert prop1_mc(EntropicSimplex(3), 10, 10_000, seed=42)["holds"]
        assert prop1_mc(EntropicSimplex(5), 50, 10_000, seed=42)["holds"]

    def test_ball_geometry_holds(self):
        assert prop1_mc(EuclideanBall(1.0, 4), 20, 5_000, seed=7)["holds"]

    def test_fixed_direction_is_mean_zero(self):
        r = prop1_mc(EntropicSimplex(3), 1, 20_000, seed=11, adversarial=False)
        assert abs(r["lhs_estimate"]) <= 3.0 * r["stderr"] + 1e-12

    def test_adversary_needs_the_diameter_slack(self):
        # The adversarial pick is genuinely larger than a fixed-direction one.
        adv = prop1_mc(EntropicSimplex(3), 10, 10_000, seed=1)
        fix = prop1_mc(EntropicSimplex(3), 10, 10_000, seed=1, adversarial=False)
        assert adv["lhs_estimate"] > fix["lhs_estimate"] + 0.5

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            prop1_mc(EntropicSimplex(3), 0, 10)
        with pytest.raises(ValueError):
            prop1_mc(EntropicSimplex(3), 1, 10, magnitude=-1.0)


class TestRateFit:
    def test_exact_inverse_t(self):
        pts = [(T, 7.0 / T) for T in (100, 200, 400)]
        fit = rate_fit(pts)
        assert fit["exponent"] == pytest.approx(-1.0, abs=1e-9)
        assert fit["r2"] == pytest.approx(1.0)

    def test_exact_inverse_sqrt(self):
        pts = [(T, 3.0 / math.sqrt(T)) for T in (100, 200, 400, 800)]
        assert rate_fit(pts)["exponent"] == pytest.approx(-0.5, abs=1e-9)

    def test_nonpositive_points_dropped(self):
        pts = [(100, 1.0), (200, 0.5), (400, 0.25), (800, 0.0)]
        assert rate_fit(pts)["exponent"] == pytest.approx(-1.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            rate_fit([(100, 1.0), (200, 0.0), (400, -1.0)])


FACTORIES = [
    lambda: matrix_game(ASYM, name="asym-2x2"),
    lambda: make_problem("l1-ball"),
    lambda: make_problem("quadratic-ball"),
]


class TestRegretBound:
    # float.hex of (lhs, rhs) at T = 100, 250, 500. The rhs halves were
    # captured when the sides were recomputed from stored y_t and M_t
    # vectors; the norms the loop records must reproduce them bitwise. The
    # lhs halves come from the streamed sums, sum g_t.x_t - min_K (sum g_t).x.
    GOLDEN = {
        "asym-2x2": [("0x1.3964c3de8cfb8p+0", "0x1.886f7bdebcbe8p+1"),
                     ("0x1.3964c3dfd6d42p+0", "0x1.886f7bdebcbe8p+1"),
                     ("0x1.3964c3e1fc928p+0", "0x1.886f7bdebcbe8p+1")],
        "l1-ball": [("0x1.025dc1287810dp+4", "0x1.81eeb34f91182p+4"),
                    ("0x1.9e94c6438fc28p+4", "0x1.357fbc716d491p+5"),
                    ("0x1.225d2f55c0c81p+5", "0x1.ba4cd576b3536p+5")],
        "quadratic-ball": [("0x1.1f887f57e95a0p+0", "0x1.8097d6c318cbep+1"),
                           ("0x1.1f887f57e95c0p+0", "0x1.8097d6c318cbep+1"),
                           ("0x1.1f887f57e9580p+0", "0x1.8097d6c318cbep+1")],
    }

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_sides_hold_on_prefixes(self, factory):
        problem = factory()
        cfg = SolverConfig(iterations=500, g0=problem.g_bound, record_every=1)
        trace = universal_mirror_prox(problem, cfg, checkpoints=(100, 250))
        got = []
        for T in (100, 250, 500):
            lhs, rhs = regret_bound_sides(problem, trace.prefix(T))
            assert lhs <= rhs + 1e-6
            got.append((lhs.hex(), rhs.hex()))
        assert got == self.GOLDEN[problem.name]

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_streamed_lhs_equals_replayed_regret(self, factory):
        problem = factory()
        cfg = SolverConfig(iterations=500, g0=problem.g_bound, record_every=1)
        trace = universal_mirror_prox(problem, cfg)
        steps = list(replay_steps(problem, trace))
        x_star, _ = problem.geom.linear_minimize(sum(step.g for step in steps))
        regret = sum(float(step.g @ (step.x - x_star)) for step in steps)
        lhs, _ = regret_bound_sides(problem, trace)
        assert lhs == pytest.approx(regret, rel=1e-12, abs=0.0)

    def test_requires_full_trace(self):
        p = make_problem("rps")
        trace = universal_mirror_prox(p, SolverConfig(iterations=50, record_every=10))
        with pytest.raises(ValueError):
            regret_bound_sides(p, trace)
