"""Metamorphic invariants of the adaptive solver: transformed inputs whose
outputs are known from the untransformed run, with no reference values."""

import numpy as np
import pytest

from uvi.gap import dual_gap
from uvi.operators import StochasticOracle, matrix_game
from uvi.solver import SolverConfig, mirror_prox

T = 500
A = np.random.default_rng(2).uniform(-1.0, 1.0, size=(4, 5))


def solve(matrix, g0=1.0, noise=0.0):
    """(problem, x_avg) of a T-step universal run on the game, oracle seed 1."""
    problem = matrix_game(matrix)
    oracle = StochasticOracle(problem, noise, rng_seed=1) if noise else None
    trace = mirror_prox(problem, SolverConfig(iterations=T, g0=g0, record_every=T),
                        oracle)
    return problem, trace.x_avg


@pytest.mark.parametrize("noise", [0.0, 0.3], ids=["det", "noisy"])
@pytest.mark.parametrize("k", [-40, -1, 7, 100, 500])
def test_payoff_scale_equivariance(k, noise):
    # Scaling F, G0 and the noise by c = 2^k scales eta_t by 1/c and leaves
    # every iterate unchanged; powers of two make that exact.
    c = 2.0**k
    problem, base = solve(A, noise=noise)
    scaled_problem, scaled = solve(A * c, g0=c, noise=noise * c)
    assert np.array_equal(scaled, base)
    assert dual_gap(scaled_problem, scaled) == c * dual_gap(problem, base)


def test_swapping_players():
    # The column player of -A^T plays the row player of A and vice versa.
    d1, d2 = A.shape
    _, base = solve(A)
    _, swapped = solve(-A.T)
    assert np.array_equal(np.concatenate([swapped[d2:], swapped[:d2]]), base)


def test_row_and_column_permutation():
    # Relabelling strategies permutes the average; sums are reordered, so
    # agreement is to rounding, not bitwise.
    d1, d2 = A.shape
    rows = np.random.default_rng(3).permutation(d1)
    cols = np.random.default_rng(4).permutation(d2)
    problem, base = solve(A)
    permuted_problem, permuted = solve(A[rows][:, cols])
    u, v = np.empty(d1), np.empty(d2)
    u[rows], v[cols] = permuted[:d1], permuted[d1:]
    np.testing.assert_allclose(np.concatenate([u, v]), base, rtol=0.0, atol=1e-12)
    assert dual_gap(permuted_problem, permuted) == pytest.approx(
        dual_gap(problem, base), rel=0.0, abs=1e-12)
