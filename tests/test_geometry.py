import math

import numpy as np
import pytest

from uvi.geometry import (
    EntropicSimplex,
    EuclideanBall,
    EuclideanBox,
    EuclideanSimplex,
    GeometryError,
    ProductGeometry,
)

from helpers import bregman_batch, interiorize, prox_objective_batch, sample_batch


def all_geometries():
    return [
        EuclideanBall(1.0, 3),
        EuclideanBall(2.0, 2),
        EuclideanBox(np.array([-1.0, 0.0, -2.0]), np.array([1.0, 2.0, -0.5])),
        EuclideanSimplex(4),
        EntropicSimplex(3),
        EntropicSimplex(2),
        ProductGeometry(EntropicSimplex(3), EntropicSimplex(3)),
        ProductGeometry(EntropicSimplex(2), EuclideanBall(1.0, 2)),
    ]


class TestBregman:
    """Closed-form values of the tests' reference divergence, ``bregman_batch``."""

    def test_euclidean_half_squared_distance(self):
        geom = EuclideanBall(1.0, 2)
        got = bregman_batch(geom, np.array([[1.0, 0.0]]), np.zeros(2))[0]
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_entropic_zero_at_equal_points(self):
        geom = EntropicSimplex(3)
        u = geom.min_point()
        assert bregman_batch(geom, u[None], u)[0] == pytest.approx(0.0, abs=1e-12)

    def test_entropic_matches_kl_sum(self):
        geom = EntropicSimplex(2)
        got = bregman_batch(geom, np.array([[0.5, 0.5]]), np.array([0.25, 0.75]))[0]
        assert got == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        for geom in all_geometries():
            x, y = geom.sample(rng), geom.sample(rng)
            assert bregman_batch(geom, x[None], x)[0] <= 1e-12
            if geom.primal_norm(x - y) > 1e-3:
                assert bregman_batch(geom, x[None], y)[0] > 1e-12


class TestProxStep:
    def test_entropic_zero_direction_fixed_point(self):
        geom = EntropicSimplex(3)
        u = geom.min_point()
        out = geom.prox_step(u, np.zeros(3), 1.0)
        np.testing.assert_allclose(out, u, atol=1e-12)

    def test_ball_radial_projection(self):
        geom = EuclideanBall(1.0, 2)
        out = geom.prox_step([0.0, 0.0], [2.0, 0.0], 1.0)
        np.testing.assert_allclose(out, [-1.0, 0.0], atol=1e-12)

    def test_euclidean_simplex_projection(self):
        geom = EuclideanSimplex(2)
        out = geom.prox_step([0.5, 0.5], [-0.2, 0.2], 0.5)
        np.testing.assert_allclose(out, [0.6, 0.4], atol=1e-12)

    def test_entropic_multiplicative_closed_form(self):
        geom = EntropicSimplex(2)
        out = geom.prox_step([0.5, 0.5], [1.0, 0.0], 1.0)
        expected = np.array([math.exp(-1.0), 1.0]) / (math.exp(-1.0) + 1.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_zero_direction_returns_anchor(self):
        rng = np.random.default_rng(5)
        for geom in all_geometries():
            anchor = interiorize(geom, geom.sample(rng))
            out = geom.prox_step(anchor, np.zeros(geom.dim), 1.0)
            assert geom.primal_norm(out - anchor) <= 1e-12 * geom.dim + 1e-10

    def test_invalid_eta_and_direction(self):
        geom = EuclideanBall(1.0, 2)
        with pytest.raises(GeometryError):
            geom.prox_step([0.0, 0.0], [1.0, 0.0], 0.0)
        with pytest.raises(GeometryError):
            geom.prox_step([0.0, 0.0], [np.nan, 0.0], 1.0)
        # An infinite or NaN step would give a NaN point, not an error.
        for geom in all_geometries():
            anchor = geom.min_point()
            for eta in (math.inf, math.nan, -math.inf):
                with pytest.raises(GeometryError, match="must be positive and finite"):
                    geom.prox_step(anchor, np.ones(geom.dim), eta)

    def test_outputs_feasible(self):
        rng = np.random.default_rng(11)
        for geom in all_geometries():
            for _ in range(50):
                anchor = interiorize(geom, geom.sample(rng))
                direction = rng.normal(size=geom.dim)
                eta = float(rng.uniform(0.01, 3.0))
                out = geom.prox_step(anchor, direction, eta)
                assert geom.contains(out)

    def test_prox_optimality_against_random_candidates(self):
        # The returned point must beat 100 random feasible candidates on the
        # prox objective direction.x + D_R(x, anchor)/eta.
        rng = np.random.default_rng(7)
        for geom in all_geometries():
            anchors = sample_batch(geom, rng, 1000)
            for anchor in anchors:
                anchor = interiorize(geom, anchor, floor=1e-12)
                direction = rng.normal(size=geom.dim)
                eta = float(rng.uniform(0.05, 2.0))
                out = geom.prox_step(anchor, direction, eta)
                candidates = sample_batch(geom, rng, 100)
                best = prox_objective_batch(geom, candidates, anchor, direction, eta).min()
                ours = prox_objective_batch(geom, out[None], anchor, direction, eta)[0]
                assert ours <= best + 1e-9


class TestNorms:
    def test_entropic_l1_linf(self):
        geom = EntropicSimplex(3)
        v = np.array([1.0, -1.0, 0.0])
        assert geom.primal_norm(v) == pytest.approx(2.0)
        assert geom.dual_norm(v) == pytest.approx(1.0)

    def test_product_norm_formulas(self):
        geom = ProductGeometry(EntropicSimplex(3), EntropicSimplex(3))
        e1e1 = np.zeros(6)
        e1e1[0] = e1e1[3] = 1.0
        ln3 = math.log(3.0)
        assert geom.primal_norm(e1e1) == pytest.approx(math.sqrt(2.0 / ln3), abs=1e-12)
        assert geom.dual_norm(e1e1) == pytest.approx(math.sqrt(2.0 * ln3), abs=1e-12)

    def test_zero_vector(self):
        for geom in all_geometries():
            z = np.zeros(geom.dim)
            assert geom.primal_norm(z) == 0.0
            assert geom.dual_norm(z) == 0.0

    def test_generalized_cauchy_schwarz(self):
        rng = np.random.default_rng(13)
        for geom in all_geometries():
            for _ in range(200):
                g = rng.normal(size=geom.dim)
                v = rng.normal(size=geom.dim)
                lhs = abs(float(g @ v))
                rhs = geom.dual_norm(g) * geom.primal_norm(v)
                assert lhs <= rhs * (1 + 1e-12) + 1e-15

    def test_product_dual_norm_duality_monte_carlo(self):
        # Random search over unit-primal-norm vectors reaches the dual norm
        # from below within 2%.
        geom = ProductGeometry(EntropicSimplex(3), EntropicSimplex(3))
        rng = np.random.default_rng(17)
        g = rng.normal(size=geom.dim)
        dual = geom.dual_norm(g)
        best = 0.0
        for k in range(10_000):
            if k % 2 == 0:
                v = rng.normal(size=geom.dim)
            else:
                v = np.zeros(geom.dim)
                v[rng.integers(0, 3)] = rng.choice([-1.0, 1.0])
                v[3 + rng.integers(0, 3)] = rng.choice([-1.0, 1.0])
                v *= rng.uniform(0.1, 1.0, size=geom.dim)
            v /= geom.primal_norm(v)
            best = max(best, float(g @ v))
        assert best <= dual * (1 + 1e-9)
        assert best >= 0.98 * dual


TWIN_PAIRS = {
    "entropic": (EntropicSimplex(3), EntropicSimplex(3)),
    # The test runs it with directions large enough that the entropic prox's 1e-12 floor binds.
    "entropic-clamped": (EntropicSimplex(4), EntropicSimplex(4)),
    "euclidean-simplex": (EuclideanSimplex(4), EuclideanSimplex(4)),
}
SPLIT_PAIRS = {
    "unequal-dims": (EntropicSimplex(3), EntropicSimplex(4)),
    "unequal-class": (EuclideanSimplex(3), EntropicSimplex(3)),
    "unequal-radius": (EuclideanBall(1.0, 3), EuclideanBall(2.0, 3)),
    # Same kind, dim and diameter, different bounds.
    "shifted-boxes": (EuclideanBox([0.0, 0.0], [1.0, 1.0]), EuclideanBox([1.0, 1.0], [2.0, 2.0])),
}


def split_reference(geom, anchor, direction, eta):
    """The product kernels built from the block kernels plus ``concatenate``."""
    u, v, d = geom.u, geom.v, geom.u.dim
    bu, bv = u._prox_base(anchor[..., :d]), v._prox_base(anchor[..., d:])
    du, dv = direction[..., :d], direction[..., d:]
    prox = np.concatenate([u._prox_from(bu, du, eta * u.diameter_sq),
                           v._prox_from(bv, dv, eta * v.diameter_sq)], axis=-1)
    nu, nv = u._primal_norm(du), v._primal_norm(dv)
    su, sv = u._dual_norm(du), v._dual_norm(dv)
    return {
        "base": np.concatenate([bu, bv], axis=-1),
        "prox": prox,
        "primal": np.sqrt(nu * nu / u.diameter_sq + nv * nv / v.diameter_sq),
        "dual": np.sqrt(u.diameter_sq * su * su + v.diameter_sq * sv * sv),
    }


def unclamped_entropic_weights(geom, anchor, direction, eta):
    """The normalized multiplicative weights of a product of two entropic
    blocks before the prox's floor, as an (..., 2, d') array."""
    pair = (2, geom.u.dim)
    step = np.asarray(eta)[..., None] * geom.u.diameter_sq
    logw = (np.log(anchor.reshape(anchor.shape[:-1] + pair))
            - step * direction.reshape(direction.shape[:-1] + pair))
    w = np.exp(logw - logw.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


class TestProductKernelPaths:
    """Twin blocks run one block call on an (..., 2, d') view; any other pair
    splits. Both are bitwise the block kernels plus ``concatenate``."""

    @pytest.mark.parametrize("lead, eta_kind", [
        ((), "float"), ((1,), "float"), ((1,), "column"), ((3,), "float"), ((3,), "column"),
    ], ids=["point", "S=1", "S=1-column", "S=3", "S=3-column"])
    @pytest.mark.parametrize("name", sorted(TWIN_PAIRS) + sorted(SPLIT_PAIRS))
    def test_kernels_equal_block_reference(self, name, lead, eta_kind):
        geom = ProductGeometry(*(TWIN_PAIRS.get(name) or SPLIT_PAIRS[name]))
        assert geom._twin == (name in TWIN_PAIRS)
        rng = np.random.default_rng(43)
        count = lead[0] if lead else 1
        anchor = np.array([interiorize(geom, p) for p in sample_batch(geom, rng, count)])
        # Large steps, so box and ball constraints bind on some rows, and the
        # entropic floor on some rows of "entropic-clamped".
        scale = 100.0 if name == "entropic-clamped" else 5.0
        direction = scale * rng.normal(size=(count, geom.dim))
        anchor, direction = anchor.reshape(lead + (-1,)), direction.reshape(lead + (-1,))
        eta = 0.7 if eta_kind == "float" else rng.uniform(0.2, 1.5, size=(count, 1))
        if name == "entropic-clamped":
            assert (unclamped_entropic_weights(geom, anchor, direction, eta) < 1e-12).any()
        ref = split_reference(geom, anchor, direction, eta)
        etas = [0.7] * count if eta_kind == "float" else eta[:, 0].tolist()

        base = geom._prox_base(anchor)
        flat = (base.reshape(anchor.shape) if isinstance(base, np.ndarray)
                else np.concatenate(base, axis=-1))
        # A single point takes the prox kernel through prox_step, as a one-row stack.
        prox = (geom.prox_step(anchor, direction, eta) if lead == ()
                else geom._prox_from(base, direction, geom._steps(etas)))
        got = {
            "base": flat,
            "prox": prox,
            "primal": geom._primal_norm(direction),
            "dual": geom._dual_norm(direction),
        }
        for key, want in ref.items():
            assert got[key].shape == want.shape, key
            assert got[key].tobytes() == want.tobytes(), key


class TestContains:
    def test_rows_equal_single_points(self):
        # Feasible rows, rows moved out of every set, and a NaN row.
        rng = np.random.default_rng(23)
        for geom in all_geometries():
            inside = sample_batch(geom, rng, 5)
            rows = np.vstack([inside, inside[:2] + 10.0, np.full((1, geom.dim), np.nan)])
            flags = geom._contains(rows, 1e-10)
            assert flags.shape == (len(rows),), geom.kind
            assert flags.tolist() == [geom.contains(row) for row in rows], geom.kind
            assert flags[:5].all() and not flags[5:].any(), geom.kind

    def test_public_contains_returns_bool(self):
        for geom in all_geometries():
            assert geom.contains(geom.min_point()) is True


class TestStrongConvexity:
    @pytest.mark.parametrize("geom", all_geometries(), ids=lambda g: g.kind + str(g.dim))
    def test_bregman_dominates_half_squared_norm(self, geom):
        rng = np.random.default_rng(23)
        pts = sample_batch(geom, rng, 2000).reshape(1000, 2, geom.dim)
        for x, y in pts:
            y = interiorize(geom, y, floor=1e-12)
            nrm = geom.primal_norm(x - y)
            assert bregman_batch(geom, x[None], y)[0] >= 0.5 * nrm * nrm - 1e-10


class TestMinPointAndDiameter:
    def test_min_points(self):
        np.testing.assert_allclose(EntropicSimplex(4).min_point(), np.full(4, 0.25))
        np.testing.assert_allclose(EuclideanBall(2.0, 3).min_point(), np.zeros(3))
        prod = ProductGeometry(EuclideanSimplex(2), EuclideanSimplex(3))
        np.testing.assert_allclose(
            prod.min_point(), np.concatenate([np.full(2, 0.5), np.full(3, 1 / 3)])
        )

    def test_min_point_minimizes_mirror_value(self):
        # The minimiser of R in closed form: uniform on a simplex, the centre
        # of a ball or box, and block by block on a product.
        def minimiser(geom):
            if geom.kind == "product":
                return np.concatenate([minimiser(geom.u), minimiser(geom.v)])
            if geom.kind in ("euclidean-simplex", "entropic-simplex"):
                return np.full(geom.dim, 1.0 / geom.dim)
            if geom.kind == "euclidean-box":
                return (geom.lower + geom.upper) / 2
            return np.zeros(geom.dim)

        for geom in all_geometries():
            np.testing.assert_allclose(geom.min_point(), minimiser(geom), rtol=0, atol=1e-15)

    def test_diameters(self):
        assert EntropicSimplex(3).diameter() == pytest.approx(math.sqrt(math.log(3.0)))
        assert EuclideanBall(2.0, 2).diameter() == pytest.approx(math.sqrt(2.0))
        prod = ProductGeometry(EntropicSimplex(3), EntropicSimplex(3))
        assert prod.diameter() == pytest.approx(math.sqrt(2.0))

    def test_diameter_matches_sampled_mirror_range(self):
        # At the interior minimiser of R, D_R(x, min_point) = R(x) - min R, so
        # over samples it never exceeds the stored squared diameter.
        rng = np.random.default_rng(31)
        for geom in all_geometries():
            centre = geom.min_point()
            samples = np.array([geom.sample(rng) for _ in range(500)])
            assert bregman_batch(geom, samples, centre).max() <= geom.diameter_sq + 1e-9


class TestLinearMinimize:
    def test_simplex_vertex(self):
        geom = EntropicSimplex(3)
        point, value = geom.linear_minimize(np.array([0.3, -0.8, 0.1]))
        np.testing.assert_allclose(point, [0.0, 1.0, 0.0])
        assert value == pytest.approx(-0.8)

    def test_ball_closed_form(self):
        geom = EuclideanBall(2.0, 2)
        point, value = geom.linear_minimize(np.array([3.0, 4.0]))
        assert value == pytest.approx(-10.0)
        np.testing.assert_allclose(point, [-1.2, -1.6])

    def test_box_picks_lower_unless_negative(self):
        # Only a negative coefficient picks the upper bound; 0.0, -0.0 and NaN
        # pick the lower one, like a positive coefficient.
        geom = EuclideanBox(np.array([-1.0, -2.0, -3.0, -4.0, -5.0]),
                            np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        point, _ = geom.linear_minimize(np.array([0.0, -0.0, np.nan, 2.0, -2.0]))
        assert point.dtype == np.float64
        np.testing.assert_array_equal(point, [-1.0, -2.0, -3.0, -4.0, 5.0])
        _, value = geom.linear_minimize(np.array([0.0, -0.0, 0.5, 2.0, -2.0]))
        assert value == -1.5 - 8.0 - 10.0

    def test_beats_random_search(self):
        rng = np.random.default_rng(37)
        for geom in all_geometries():
            c = rng.normal(size=geom.dim)
            _, value = geom.linear_minimize(c)
            samples = sample_batch(geom, rng, 2000)
            assert value <= float((samples @ c).min()) + 1e-9


class TestConstructionErrors:
    def test_bad_parameters(self):
        with pytest.raises(GeometryError):
            EuclideanBall(0.0, 2)
        with pytest.raises(GeometryError):
            EuclideanBox(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(GeometryError):
            EntropicSimplex(1)
        with pytest.raises(GeometryError):
            EuclideanSimplex(1)

    def test_squared_diameter_underflow_rejected(self):
        # The step rule divides by D: a set so small that D^2 underflows to 0
        # is refused, while a subnormal D^2 still builds.
        with pytest.raises(GeometryError, match="squared diameter underflows to 0"):
            EuclideanBall(1e-170, 3)
        with pytest.raises(GeometryError, match="squared diameter underflows to 0"):
            EuclideanBox(np.zeros(2), np.full(2, 1e-170))
        assert EuclideanBall(1e-160, 3).diameter_sq > 0
        assert EuclideanBox(np.zeros(2), np.full(2, 1e-160)).diameter_sq > 0

    def test_project_simplex_matches_bruteforce(self):
        rng = np.random.default_rng(41)
        grid = None
        for _ in range(50):
            z = rng.normal(size=3) * 2
            out = EuclideanSimplex(3).project(z)
            assert abs(out.sum() - 1.0) < 1e-10 and np.all(out >= 0)
            if grid is None:
                ticks = np.linspace(0, 1, 101)
                grid = np.array(
                    [
                        [a, b, 1 - a - b]
                        for a in ticks
                        for b in ticks
                        if a + b <= 1 + 1e-12
                    ]
                )
            dists = np.linalg.norm(grid - z, axis=1)
            assert np.linalg.norm(out - z) <= dists.min() + 1e-4
