"""Shared test utilities: batch sampling/objectives and independent oracles."""

import math

import numpy as np


def sample_batch(geom, rng, n):
    """n feasible points, shape (n, dim); vectorized per geometry kind."""
    kind = geom.kind
    if kind == "euclidean-ball":
        v = rng.normal(size=(n, geom.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        radii = geom.radius * rng.uniform(size=(n, 1)) ** (1.0 / geom.dim)
        return v * radii
    if kind == "euclidean-box":
        return rng.uniform(geom.lower, geom.upper, size=(n, geom.dim))
    if kind in ("euclidean-simplex", "entropic-simplex"):
        return rng.dirichlet(np.ones(geom.dim), size=n)
    if kind == "product":
        return np.hstack([sample_batch(geom.u, rng, n), sample_batch(geom.v, rng, n)])
    raise ValueError(kind)


def interiorize(geom, point, floor=1e-9):
    """Push a feasible point into the interior where mirror gradients exist."""
    if geom.kind == "entropic-simplex":
        out = np.maximum(point, floor)
        return out / out.sum()
    if geom.kind == "product":
        u, v = point[: geom.u.dim], point[geom.u.dim :]
        return np.concatenate([interiorize(geom.u, u, floor), interiorize(geom.v, v, floor)])
    return point


def bregman_batch(geom, X, y):
    """Row-wise Bregman divergence D_R(X[i], y) of each geometry's mirror map."""
    kind = geom.kind
    if kind in ("euclidean-ball", "euclidean-box", "euclidean-simplex"):
        diff = X - y
        return 0.5 * np.einsum("ij,ij->i", diff, diff)
    if kind == "entropic-simplex":
        safe = np.maximum(X, 1e-300)
        return np.sum(np.where(X > 0, X * np.log(safe / y), 0.0), axis=1)
    if kind == "product":
        du = geom.u.dim
        return (
            bregman_batch(geom.u, X[:, :du], y[:du]) / geom.u.diameter_sq
            + bregman_batch(geom.v, X[:, du:], y[du:]) / geom.v.diameter_sq
        )
    raise ValueError(kind)


def prox_objective_batch(geom, X, anchor, direction, eta):
    """direction.x + D_R(x, anchor)/eta for each row x of X."""
    return X @ direction + bregman_batch(geom, X, anchor) / eta


def reference_game_run(A, T, g0):
    """Straightforward transcription of the adaptive two-prox recursion for a
    bilinear game over two entropy-regularized simplices; returns the duality
    gap of the averaged iterate. Kept independent of the package code paths.
    """
    A = np.asarray(A, dtype=float)
    d1, d2 = A.shape
    du2, dv2 = math.log(d1), math.log(d2)
    diam = math.sqrt(2.0)
    eps = 1e-12

    def mw(p, step, grad):
        w = p * np.exp(-step * grad)
        w = w / w.sum()
        w = np.maximum(w, eps)
        return w / w.sum()

    def pnorm_sq(block_u, block_v):
        nu = float(np.abs(block_u).sum())
        nv = float(np.abs(block_v).sum())
        return nu * nu / du2 + nv * nv / dv2

    u = np.full(d1, 1.0 / d1)
    v = np.full(d2, 1.0 / d2)
    sum_u = np.zeros(d1)
    sum_v = np.zeros(d2)
    zsum = 0.0
    for _ in range(T):
        eta = diam / math.sqrt(g0 * g0 + zsum)
        mu, mv = A @ v, -(A.T @ u)
        xu, xv = mw(u, eta * du2, mu), mw(v, eta * dv2, mv)
        gu, gv = A @ xv, -(A.T @ xu)
        yu, yv = mw(u, eta * du2, gu), mw(v, eta * dv2, gv)
        zsum += (pnorm_sq(xu - yu, xv - yv) + pnorm_sq(xu - u, xv - v)) / (
            5.0 * eta * eta
        )
        sum_u += xu
        sum_v += xv
        u, v = yu, yv
    ubar, vbar = sum_u / T, sum_v / T
    return float(np.max(A.T @ ubar) - np.min(A @ vbar))
