"""Feasible-set geometries for constrained mirror-prox solvers.

Each geometry couples a compact convex set K with a mirror map R that is
1-strongly convex w.r.t. the set's primal norm, and exposes closed forms for
everything the solver touches: Bregman divergence, prox (argmin) steps, the
primal/dual norm pair, the R-minimizer, and the Bregman diameter
D = sqrt(max_K R - min_K R).

Supported sets: Euclidean balls and boxes (squared-distance mirror map,
l2/l2 norm pair), the probability simplex under either the squared-distance
map or the negative-entropy map (l1/linf norms, multiplicative prox), and
two-block products with the 1/D^2 block scaling that keeps the product map
1-strongly convex w.r.t. the blended norm.

The prox, norm and membership kernels take a leading batch axis: points
of shape (..., dim), a step size that is a float or an array of shape
(..., 1), and norms and membership flags of shape (...). Every reduction
in them runs along the last axis (row-wise sums, minima, maxima,
``np.vecdot``), so each row of a batched call is bitwise the call on that
row alone; the solver loop runs a batch of seeds through the same code a
single point takes. For the same reason a product of two equal simplex
blocks (every square matrix game) runs each prox and norm kernel as one
block-kernel call on an (..., 2, d') view of its points, bitwise the two
per-block calls that any other product makes.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "GeometryError",
    "Geometry",
    "EuclideanBall",
    "EuclideanBox",
    "EuclideanSimplex",
    "EntropicSimplex",
    "ProductGeometry",
    "project_simplex",
]


_row_sum = np.add.reduce
_row_max = np.maximum.reduce
_row_min = np.minimum.reduce


class GeometryError(ValueError):
    """Dimension mismatch, infeasible input, or invalid geometry parameter."""


def project_simplex(z: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the standard simplex (sort-and-threshold),
    row by row along the last axis.

    Deterministic: ties in the sort resolve by numpy's stable ordering, and
    the optimum is unique anyway (strictly convex objective).
    """
    u = np.sort(z, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    ks = np.arange(1, z.shape[-1] + 1)
    feasible = u + (1.0 - css) / ks > 0
    # k is the last feasible index of each row.
    k = z.shape[-1] - np.argmax(feasible[..., ::-1], axis=-1)
    tau = (np.take_along_axis(css, (k - 1)[..., None], axis=-1) - 1.0) / k[..., None]
    return np.maximum(z - tau, 0.0)


class Geometry:
    """Base class; concrete geometries supply the closed forms as unchecked
    kernels (``_prox``, ``_primal_norm``, ...) on raw float arrays. Each
    public method validates its arguments once, then calls its kernel.

    A prox step is ``_prox_from(_prox_base(anchor), direction, eta)``: the
    two prox steps of one solver round share their anchor, so they share
    its ``_prox_base`` too (the logarithm, for the entropic map).
    """

    kind = "abstract"

    def __init__(self, dim: int, diameter_sq: float, clamp_eps: float = 0.0):
        if dim < 1:
            raise GeometryError("dimension must be positive")
        self.dim = int(dim)
        self.diameter_sq = float(diameter_sq)
        self.clamp_eps = float(clamp_eps)

    def check_point(self, v) -> np.ndarray:
        arr = np.asarray(v, dtype=float)
        if arr.shape != (self.dim,):
            raise GeometryError(
                f"{self.kind}: expected vector of dimension {self.dim}, "
                f"got shape {arr.shape}"
            )
        return arr

    def diameter(self) -> float:
        return math.sqrt(self.diameter_sq)

    def bregman(self, x, y) -> float:
        return self._bregman(self.check_point(x), self.check_point(y))

    def prox_step(self, anchor, direction, eta) -> np.ndarray:
        anchor = self.check_point(anchor)
        direction = self.check_point(direction)
        if not eta > 0:
            raise GeometryError(f"prox step size must be positive, got {eta}")
        if not np.all(np.isfinite(direction)):
            raise GeometryError("prox direction has non-finite components")
        self._check_anchor(anchor)
        return self._prox(anchor, direction, float(eta))

    def primal_norm(self, v) -> float:
        return float(self._primal_norm(self.check_point(v)))

    def dual_norm(self, v) -> float:
        return float(self._dual_norm(self.check_point(v)))

    def mirror_value(self, x) -> float:
        """R(x), shifted so that min over K is exactly 0."""
        return self._mirror_value(self.check_point(x))

    def contains(self, x, tol: float = 1e-10) -> bool:
        return bool(self._contains(self.check_point(x), tol))

    def linear_minimize(self, c) -> tuple[np.ndarray, float]:
        """Exact argmin/min of the linear function c.x over K."""
        return self._linear_minimize(self.check_point(c))

    # Interface implemented by subclasses.
    def min_point(self) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def _check_anchor(self, anchor) -> None:
        """Raise GeometryError where the mirror-map gradient is undefined."""

    def _bregman(self, x, y) -> float:
        raise NotImplementedError

    def _prox(self, anchor, direction, eta) -> np.ndarray:
        return self._prox_from(self._prox_base(anchor), direction, eta)

    def _prox_base(self, anchor):
        """What the prox step needs of its anchor; the anchor itself by default."""
        return anchor

    def _prox_from(self, base, direction, eta) -> np.ndarray:
        raise NotImplementedError

    def _primal_norm(self, v):
        raise NotImplementedError

    def _dual_norm(self, v):
        raise NotImplementedError

    def _mirror_value(self, x) -> float:
        raise NotImplementedError

    def _contains(self, x, tol):
        """Whether each row of x lies in K up to ``tol``, as a boolean array."""
        raise NotImplementedError

    def _linear_minimize(self, c) -> tuple[np.ndarray, float]:
        raise NotImplementedError


def _require_diameter(geom: Geometry, what: str) -> None:
    """The step rule divides by D, so D^2 must not underflow to 0 or overflow."""
    if not geom.diameter_sq > 0:
        raise GeometryError(
            f"{geom.kind}: {what} too small, squared diameter underflows to 0"
        )
    if geom.diameter_sq == math.inf:
        raise GeometryError(f"{geom.kind}: {what} too large, squared diameter overflows")


class _EuclideanGeometry(Geometry):
    """Shared closed forms for R(x) = ||x - center||^2 / 2 geometries."""

    def _bregman(self, x, y) -> float:
        d = x - y
        return 0.5 * float(d @ d)

    def _prox_from(self, anchor, direction, eta) -> np.ndarray:
        return self.project(anchor - eta * direction)

    def _primal_norm(self, v):
        return np.sqrt(np.vecdot(v, v))

    def _dual_norm(self, v):
        return self._primal_norm(v)

    def _mirror_value(self, x) -> float:
        d = x - self.min_point()
        return 0.5 * float(d @ d)

    def project(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class EuclideanBall(_EuclideanGeometry):
    """l2 ball of given radius centered at the origin."""

    kind = "euclidean-ball"

    def __init__(self, radius: float, dim: int):
        if not radius > 0:
            raise GeometryError("ball radius must be positive")
        super().__init__(dim, 0.5 * radius * radius)
        _require_diameter(self, f"ball radius {radius!r}")
        self.radius = float(radius)

    def project(self, z):
        # Rows inside the ball are scaled by radius / radius = 1.0 exactly.
        nrm = np.sqrt(np.vecdot(z, z))
        return z * (self.radius / np.maximum(nrm, self.radius))[..., None]

    def min_point(self):
        return np.zeros(self.dim)

    def _contains(self, x, tol):
        return np.sqrt(np.vecdot(x, x)) <= self.radius + tol

    def sample(self, rng):
        v = rng.normal(size=self.dim)
        v /= np.linalg.norm(v)
        return v * self.radius * rng.uniform() ** (1.0 / self.dim)

    def _linear_minimize(self, c):
        nrm = np.linalg.norm(c)
        if nrm == 0.0:
            return np.zeros(self.dim), 0.0
        x = -(self.radius / nrm) * c
        return x, -self.radius * float(nrm)


class EuclideanBox(_EuclideanGeometry):
    """Axis-aligned box [lower_i, upper_i] with the squared-distance map."""

    kind = "euclidean-box"

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise GeometryError("box bounds must be 1-D arrays of equal length")
        if not np.all(lower < upper):
            raise GeometryError("box requires lower < upper in every coordinate")
        half = 0.5 * (upper - lower)
        super().__init__(lower.size, 0.5 * float(half @ half))
        _require_diameter(self, "box widths")
        self.lower = lower
        self.upper = upper
        self.center = 0.5 * (lower + upper)

    def project(self, z):
        return np.clip(z, self.lower, self.upper)

    def min_point(self):
        return self.center.copy()

    def _contains(self, x, tol):
        return np.all(x >= self.lower - tol, axis=-1) & np.all(x <= self.upper + tol, axis=-1)

    def sample(self, rng):
        return rng.uniform(self.lower, self.upper)

    def _linear_minimize(self, c):
        x = np.where(c > 0, self.lower, np.where(c < 0, self.upper, self.lower))
        return x.astype(float), float(c @ x)


class _SimplexSet(Geometry):
    """The probability simplex as a set: center, membership, samples, vertices."""

    def min_point(self):
        return np.full(self.dim, 1.0 / self.dim)

    def _contains(self, x, tol):
        return (_row_min(x, axis=-1) >= -tol) & (np.abs(_row_sum(x, axis=-1) - 1.0) <= tol)

    def sample(self, rng):
        return rng.dirichlet(np.ones(self.dim))

    def _linear_minimize(self, c):
        i = int(np.argmin(c))
        x = np.zeros(self.dim)
        x[i] = 1.0
        return x, float(c[i])


class EuclideanSimplex(_SimplexSet, _EuclideanGeometry):
    """Probability simplex with the squared-distance mirror map (l2/l2)."""

    kind = "euclidean-simplex"

    def __init__(self, dim: int):
        if dim < 2:
            raise GeometryError("simplex needs dimension >= 2")
        super().__init__(dim, 0.5 * (1.0 - 1.0 / dim))

    def project(self, z):
        return project_simplex(z)


class EntropicSimplex(_SimplexSet):
    """Probability simplex with the negative-entropy mirror map.

    R(x) = sum_i x_i log x_i + log d, so min R = 0 at the uniform point and
    the Bregman diameter squared is exactly log d. The norm pair is l1/linf
    and the prox step is the multiplicative update
    anchor_i * exp(-eta * direction_i), normalized, then clamped away from
    the boundary so the mirror-map gradient stays finite.
    """

    kind = "entropic-simplex"

    def __init__(self, dim: int, clamp_eps: float = 1e-12):
        if dim < 2:
            raise GeometryError("simplex needs dimension >= 2")
        if not clamp_eps > 0:
            raise GeometryError("clamp_eps must be positive")
        super().__init__(dim, math.log(dim), clamp_eps)

    def _bregman(self, x, y) -> float:
        if float(np.min(x)) < -1e-9:
            raise GeometryError("bregman: first argument is outside the simplex")
        if float(np.min(y)) <= 0.0:
            raise GeometryError(
                "bregman: second argument must be interior (all coordinates > 0)"
            )
        xp = np.maximum(x, 0.0)
        terms = np.where(xp > 0.0, xp * np.log(np.maximum(xp, 1e-300) / y), 0.0)
        return float(terms.sum())

    def _check_anchor(self, anchor) -> None:
        if float(np.min(anchor)) <= 0.0:
            raise GeometryError("prox anchor must be interior (all coordinates > 0)")

    def _prox_base(self, anchor):
        return np.log(anchor)

    def _prox_from(self, log_anchor, direction, eta) -> np.ndarray:
        # The ufunc reductions are ndarray.max/sum without their Python wrappers.
        logw = log_anchor - eta * direction
        logw -= _row_max(logw, axis=-1, keepdims=True)
        w = np.exp(logw)
        w /= _row_sum(w, axis=-1, keepdims=True)
        w = np.maximum(w, self.clamp_eps)
        return w / _row_sum(w, axis=-1, keepdims=True)

    def _primal_norm(self, v):
        return _row_sum(np.abs(v), axis=-1)

    def _dual_norm(self, v):
        return _row_max(np.abs(v), axis=-1)

    def _mirror_value(self, x) -> float:
        xp = np.maximum(x, 0.0)
        terms = np.where(xp > 0.0, xp * np.log(np.maximum(xp, 1e-300)), 0.0)
        return float(terms.sum()) + math.log(self.dim)


class ProductGeometry(Geometry):
    """Two-block product K = U x V with block maps scaled by 1/D_U^2, 1/D_V^2.

    R(u, v) = R_U(u)/D_U^2 + R_V(v)/D_V^2, which has range exactly [0, 2], so
    the product diameter squared is 2 by construction. The primal norm is
    sqrt(||u||_U^2/D_U^2 + ||v||_V^2/D_V^2) and its dual is
    sqrt(D_U^2 (||u||_U*)^2 + D_V^2 (||v||_V*)^2). The prox step separates
    into block prox steps with effective step sizes eta*D_U^2 and eta*D_V^2.

    When both blocks are the same simplex geometry (the same class, ``dim``
    and ``clamp_eps``, as in every square matrix game), the prox and norm
    kernels view a point of shape (..., 2 d') as (..., 2, d') and make one
    block-kernel call on it, with the step eta*D^2 broadcast to (..., 1, 1)
    and no ``concatenate``. The block kernels reduce along the last axis
    only, so this twin path is bitwise the split path, which serves every
    other pair of blocks.
    """

    kind = "product"

    def __init__(self, geom_u: Geometry, geom_v: Geometry):
        super().__init__(geom_u.dim + geom_v.dim, 2.0)
        self.u = geom_u
        self.v = geom_v
        # A simplex geometry is fixed by its class, dim and clamp_eps; other
        # sets (box bounds, ball radii) carry more than those.
        self._twin = (
            type(geom_u) is type(geom_v)
            and type(geom_u) in (EntropicSimplex, EuclideanSimplex)
            and geom_u.dim == geom_v.dim
            and geom_u.clamp_eps == geom_v.clamp_eps
        )

    def split(self, x):
        return self._split(self.check_point(x))

    def _split(self, x):
        return x[..., : self.u.dim], x[..., self.u.dim :]

    def _pair(self, x):
        """The (..., 2, d') view of a twin product's point."""
        return x.reshape(x.shape[:-1] + (2, self.u.dim))

    def _bregman(self, x, y) -> float:
        xu, xv = self._split(x)
        yu, yv = self._split(y)
        return (
            self.u._bregman(xu, yu) / self.u.diameter_sq
            + self.v._bregman(xv, yv) / self.v.diameter_sq
        )

    def _check_anchor(self, anchor) -> None:
        au, av = self._split(anchor)
        self.u._check_anchor(au)
        self.v._check_anchor(av)

    def _prox_base(self, anchor):
        if self._twin:
            return self.u._prox_base(self._pair(anchor))
        au, av = self._split(anchor)
        return self.u._prox_base(au), self.v._prox_base(av)

    def _prox_from(self, base, direction, eta) -> np.ndarray:
        if self._twin:
            step = np.asarray(eta * self.u.diameter_sq)[..., None]
            pair = self.u._prox_from(base, self._pair(direction), step)
            return pair.reshape(direction.shape)
        bu, bv = base
        du, dv = self._split(direction)
        pu = self.u._prox_from(bu, du, eta * self.u.diameter_sq)
        pv = self.v._prox_from(bv, dv, eta * self.v.diameter_sq)
        return np.concatenate([pu, pv], axis=-1)

    def _primal_norm(self, v):
        if self._twin:
            n = self.u._primal_norm(self._pair(v))
            sq = n * n / self.u.diameter_sq
            return np.sqrt(sq[..., 0] + sq[..., 1])
        vu, vv = self._split(v)
        nu = self.u._primal_norm(vu)
        nv = self.v._primal_norm(vv)
        return np.sqrt(nu * nu / self.u.diameter_sq + nv * nv / self.v.diameter_sq)

    def _dual_norm(self, v):
        if self._twin:
            s = self.u._dual_norm(self._pair(v))
            sq = self.u.diameter_sq * s * s
            return np.sqrt(sq[..., 0] + sq[..., 1])
        vu, vv = self._split(v)
        su = self.u._dual_norm(vu)
        sv = self.v._dual_norm(vv)
        return np.sqrt(self.u.diameter_sq * su * su + self.v.diameter_sq * sv * sv)

    def min_point(self):
        return np.concatenate([self.u.min_point(), self.v.min_point()])

    def _mirror_value(self, x) -> float:
        xu, xv = self._split(x)
        return (
            self.u._mirror_value(xu) / self.u.diameter_sq
            + self.v._mirror_value(xv) / self.v.diameter_sq
        )

    def _contains(self, x, tol):
        xu, xv = self._split(x)
        return self.u._contains(xu, tol) & self.v._contains(xv, tol)

    def sample(self, rng):
        return np.concatenate([self.u.sample(rng), self.v.sample(rng)])

    def _linear_minimize(self, c):
        cu, cv = self._split(c)
        pu, vu = self.u._linear_minimize(cu)
        pv, vv = self.v._linear_minimize(cv)
        return np.concatenate([pu, pv]), vu + vv
