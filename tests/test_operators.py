import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bochner2d import _jets
from bochner2d import bochner as bo
from bochner2d import operators as op
from bochner2d import surfaces as surf

from conftest import interior_points, second_form_curvature, to_parts
from stencil_oracle import diff1


def field_battery():
    """Analytic fields with exact partials, nontrivial on every built-in."""
    du = op.coordinate_field(0)
    dv = op.coordinate_field(1)

    def coeff(u, v):
        return np.stack(np.broadcast_arrays(np.cos(u) + 2.0, np.sin(v)), axis=-1)

    def d_coeff(u, v):
        out = np.zeros(np.broadcast(u, v).shape + (2, 2))
        out[..., 0, 0] = -np.sin(u)
        out[..., 1, 1] = np.cos(v) + 0.0 * u
        return out

    def dd_coeff(u, v):
        out = np.zeros(np.broadcast(u, v).shape + (3, 2))
        out[..., 0, 0] = -np.cos(u)
        out[..., 2, 1] = -np.sin(v) + 0.0 * u
        return out

    wavy = op.TangentField(coeff, d_coeff, dd_coeff, name="wavy")
    return [du, dv, op.add_fields(du, dv), wavy]


def covariant_gradient(surface, X, u, v):
    """m[..., k, i] = (grad_{e_i} X)^k, read off the node batch of the residuals."""
    return _jets.value_last(bo._NodeBatch.of(surface, X, u, v, order=1).grad_x.v, 2)


class TestChristoffel:
    def test_torus_closed_forms(self, torus21):
        u, v = interior_points(torus21, 12)
        gam = op.local_geometry(torus21, u, v).christoffel
        np.testing.assert_allclose(gam[..., 1, 0, 0], (2 + np.cos(v)) * np.sin(v),
                                   atol=1e-12)
        np.testing.assert_allclose(gam[..., 0, 0, 1], -np.sin(v) / (2 + np.cos(v)),
                                   atol=1e-12)

    def test_torus_spot_values(self, torus21):
        gam = op.local_geometry(torus21, 0.3, np.pi / 2).christoffel
        assert abs(gam[1, 0, 0] - 2.0) < 1e-14
        gam0 = op.local_geometry(torus21, 0.3, 0.0).christoffel
        assert abs(gam0[0, 0, 1]) < 1e-14

    def test_clifford_flat(self, clifford1):
        u, v = interior_points(clifford1, 10)
        np.testing.assert_allclose(op.local_geometry(clifford1, u, v).christoffel, 0.0,
                                   atol=1e-15)

    @settings(max_examples=25)
    @given(st.floats(0.3, 2.8), st.floats(0.05, 6.2))
    def test_lower_index_symmetry(self, u, v):
        for s in (surf.torus(2.0, 1.0), surf.sphere(1.0), surf.ellipsoid(1.0, 1.3, 0.7)):
            gam = op.local_geometry(s, u, v).christoffel
            np.testing.assert_allclose(gam, np.swapaxes(gam, -1, -2), atol=1e-13)


class TestGaussCurvature:
    def test_sphere_constant(self, sphere1):
        u, v = interior_points(sphere1, 10)
        np.testing.assert_allclose(op.gauss_curvature_at(sphere1, u, v), 1.0,
                                   atol=1e-11)

    def test_torus_closed_form(self, torus21):
        u, v = interior_points(torus21, 20)
        K = op.gauss_curvature_at(torus21, u, v)
        np.testing.assert_allclose(K, np.cos(v) / (2 + np.cos(v)), atol=1e-12)
        assert abs(op.gauss_curvature_at(torus21, 0.0, 0.0) - 1.0 / 3.0) < 1e-13
        assert abs(op.gauss_curvature_at(torus21, 0.0, np.pi / 2)) < 1e-13

    def test_clifford_flat(self, clifford1):
        u, v = interior_points(clifford1, 10)
        np.testing.assert_allclose(op.gauss_curvature_at(clifford1, u, v), 0.0,
                                   atol=1e-15)

    def test_against_shape_operator(self, torus21, sphere1, ellipsoid_abc):
        # independent oracle: det(II)/det(I) via the unit normal in R^3
        for s in (torus21, sphere1, ellipsoid_abc):
            u, v = interior_points(s, 25, seed=11)
            K_metric = op.gauss_curvature_at(s, u, v)
            K_shape = second_form_curvature(s, u, v)
            np.testing.assert_allclose(K_metric, K_shape, atol=1e-10, err_msg=s.name)

    def test_fd_backend_converges_order_four(self, torus21):
        g = surf.chart_grid(torus21, 12, 12)
        K_exact = op.gauss_curvature_at(torus21, g.U, g.V)
        hs = (1e-2, 5e-3, 2.5e-3)
        errs = []
        for h in hs:
            fd = surf.torus(2.0, 1.0, mode="fd", step=h)
            errs.append(float(np.max(np.abs(op.gauss_curvature_at(fd, g.U, g.V)
                                            - K_exact))))
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert order >= 3.9


class TestCovariantDerivative:
    def test_torus_self_transport(self, torus21):
        u, v = interior_points(torus21, 12)
        du = op.coordinate_field(0)
        res = covariant_gradient(torus21, du, u, v) @ np.array((1.0, 0.0))
        np.testing.assert_allclose(res[..., 0], 0.0, atol=1e-13)
        np.testing.assert_allclose(res[..., 1], (2 + np.cos(v)) * np.sin(v), atol=1e-12)

    def test_zero_field(self, all_surfaces):
        zero = op.constant_field(0.0, 0.0)
        for s in all_surfaces:
            u, v = interior_points(s, 6)
            np.testing.assert_allclose(
                covariant_gradient(s, zero, u, v) @ np.array((0.3, -1.2)), 0.0,
                atol=1e-15)

    def test_clifford_constant_field(self, clifford1):
        u, v = interior_points(clifford1, 6)
        c = op.constant_field(0.7, -0.4)
        np.testing.assert_allclose(
            covariant_gradient(clifford1, c, u, v) @ np.array((1.0, 1.0)), 0.0,
            atol=1e-15)

    def test_torsion_free(self, all_surfaces):
        du, dv = op.coordinate_field(0), op.coordinate_field(1)
        for s in all_surfaces:
            u, v = interior_points(s, 15)
            lhs = covariant_gradient(s, dv, u, v) @ np.array((1.0, 0.0))
            rhs = covariant_gradient(s, du, u, v) @ np.array((0.0, 1.0))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10, err_msg=s.name)

    def test_metric_compatibility(self, torus21, ellipsoid_abc):
        # d/du g(X, Y) == g(grad_u X, Y) + g(X, grad_u Y), derivative by stencil
        X, Y = field_battery()[2], field_battery()[3]
        for s in (torus21, ellipsoid_abc):
            u, v = interior_points(s, 10, seed=2)

            def pairing(uu, vv):
                g = surf._assemble(s, uu, vv, 0)[0]
                a = X.coeff(uu, vv)
                b = Y.coeff(uu, vv)
                return np.einsum("ij...,...i,...j->...", g, a, b)

            lhs = diff1(pairing, u, v, 0, 1e-4)
            gX = covariant_gradient(s, X, u, v) @ np.array((1.0, 0.0))
            gY = covariant_gradient(s, Y, u, v) @ np.array((1.0, 0.0))
            g = surf._assemble(s, u, v, 0)[0]
            rhs = (np.einsum("ij...,...i,...j->...", g, gX, Y.coeff(u, v))
                   + np.einsum("ij...,...i,...j->...", g, X.coeff(u, v), gY))
            np.testing.assert_allclose(lhs, rhs, atol=1e-6, err_msg=s.name)


class TestDivergence:
    def test_du_divergence_free_on_torus(self, torus21):
        u, v = interior_points(torus21, 12)
        du = op.coordinate_field(0)
        np.testing.assert_allclose(op.divergence_at(torus21, du, u, v), 0.0, atol=1e-13)

    def test_curvature_potential_coefficients(self, torus21):
        # field (0, sin v / (2 + cos v)) has divergence cos v / (2 + cos v)
        def coeff(u, v):
            return np.stack(np.broadcast_arrays(0.0 * u, np.sin(v) / (2 + np.cos(v))),
                            axis=-1)

        def d_coeff(u, v):
            out = np.zeros(np.broadcast(u, v).shape + (2, 2))
            w = 2 + np.cos(v)
            out[..., 1, 1] = (np.cos(v) * w + np.sin(v) ** 2) / w ** 2
            return out

        Y = op.TangentField(coeff, d_coeff, name="pot")
        u, v = interior_points(torus21, 15)
        np.testing.assert_allclose(op.divergence_at(torus21, Y, u, v),
                                   np.cos(v) / (2 + np.cos(v)), atol=1e-12)

    def test_zero_field(self, all_surfaces):
        zero = op.constant_field(0.0, 0.0)
        for s in all_surfaces:
            u, v = interior_points(s, 6)
            np.testing.assert_allclose(op.divergence_at(s, zero, u, v), 0.0, atol=1e-15)

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    def test_unit_field_takes_the_divergence_metric(self, metric_assemblies, mode):
        # the field's jet reads the metric that div assembles
        s = surf.torus(2.0, 1.0, mode=mode)
        T = bo.normalize_field(s, op.add_fields(op.coordinate_field(0),
                                                op.coordinate_field(1)))
        u, v = interior_points(s, 9)
        assert np.all(np.isfinite(op.divergence_at(s, T, u, v)))
        assert metric_assemblies == [1]

    def test_trace_route_agrees(self, all_surfaces):
        # div X == trace(grad X) within 1e-8 for the whole battery
        for s in all_surfaces:
            u, v = interior_points(s, 15, seed=4)
            for X in field_battery():
                div = op.divergence_at(s, X, u, v)
                m = covariant_gradient(s, X, u, v)
                trace = np.einsum("...kk->...", m)
                np.testing.assert_allclose(div, trace, atol=1e-8,
                                           err_msg=f"{s.name}/{X.name}")


class TestOperatorMatrix:
    def test_zero_field_zero_matrix(self, torus21):
        zero = op.constant_field(0.0, 0.0)
        u, v = interior_points(torus21, 6)
        np.testing.assert_allclose(covariant_gradient(torus21, zero, u, v),
                                   0.0, atol=1e-15)

    def test_torus_du_column(self, torus21):
        # -grad_{e_u} du = -(Gamma^u_uu, Gamma^v_uu) = (0, -2) at v = pi/2
        m = covariant_gradient(torus21, op.coordinate_field(0), 0.4, np.pi / 2)
        np.testing.assert_allclose(-m[..., :, 0], [0.0, -2.0], atol=1e-13)


class TestRicci:
    def test_sphere_round_values(self, sphere1):
        ric = op.local_geometry(sphere1, 1.0, 0.5).ricci
        np.testing.assert_allclose(ric[0, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(ric[1, 1], np.sin(1.0) ** 2, atol=1e-12)

    def test_torus_spot_value(self, torus21):
        du = op.coordinate_field(0)
        # at v = 0: Ric(du, du) = K g_uu = (1/3) * 9 = 3
        geo = op.local_geometry(torus21, 0.2, 0.0)
        assert abs(geo.ricci[0, 0] - 3.0) < 1e-12
        assert abs(op.ricci_residual_at(torus21, du, du, 0.2, 0.0)) < 1e-12
        assert geo.g[0, 0] == pytest.approx(9.0)

    def test_residual_battery_all_surfaces(self, all_surfaces):
        fields = field_battery()
        pairs = [(fields[0], fields[0]), (fields[0], fields[1]),
                 (fields[2], fields[3])]
        for s in all_surfaces:
            u, v = interior_points(s, 20, seed=8)
            for X, Y in pairs:
                res = op.ricci_residual_at(s, X, Y, u, v)
                assert np.max(res) < 1e-8, (s.name, X.name, Y.name)

    def test_clifford_both_sides_vanish(self, clifford1):
        u, v = interior_points(clifford1, 8)
        ric = op.local_geometry(clifford1, u, v).ricci
        np.testing.assert_allclose(ric, 0.0, atol=1e-15)


class TestProductRule:
    def test_canonical_check(self, torus21, sphere1, clifford1, ellipsoid_abc):
        f = op.ScalarField(
            value=lambda u, v: np.cos(u) + np.sin(v),
            grad=lambda u, v: np.stack(
                np.broadcast_arrays(-np.sin(u), np.cos(v)), axis=-1),
            name="cos(u)+sin(v)")
        X = op.add_fields(op.coordinate_field(0), op.coordinate_field(1))
        for s in (torus21, sphere1, clifford1, ellipsoid_abc):
            g = surf.chart_grid(s, 24, 24)
            mask = surf.guarded_mask(s, g.U, g.V)
            res = op.product_rule_residual_at(s, f, X, g.U[mask], g.V[mask])
            assert np.max(res) < 1e-8, s.name

    def test_without_callbacks_is_nontrivial(self, torus21):
        # same identity via stencil differentiation only
        f = op.ScalarField(value=lambda u, v: np.cos(u) + np.sin(v), name="f")
        X = op.TangentField(
            lambda u, v: np.stack(np.broadcast_arrays(np.cos(v) + 2.0, np.sin(u)),
                                  axis=-1), name="plain")
        u, v = interior_points(torus21, 10)
        res = op.product_rule_residual_at(torus21, f, X, u, v)
        assert np.max(res) < 1e-8


class TestFieldJets:
    def test_fallback_matches_callbacks(self, torus21):
        wavy = field_battery()[3]
        plain = op.TangentField(wavy.coeff, name="plain")
        u, v = interior_points(torus21, 10)
        a1, d1, dd1 = to_parts(wavy.jet(torus21, u, v, 2, None), 1)
        a2, d2, dd2 = to_parts(plain.jet(torus21, u, v, 2, None), 1)
        np.testing.assert_allclose(a1, a2, atol=1e-15)
        np.testing.assert_allclose(d1, d2, atol=1e-9)
        np.testing.assert_allclose(dd1, dd2, atol=1e-7)

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    def test_callbacks_of_one_coordinate(self, mode):
        # the stencils call a callback on u + offs[:, None] and v + offs[None, :];
        # one that reads u or v alone returns that coordinate's shape, which
        # is broadcast to the nodes, so it gives what its "+ 0 * v" form gives
        s = surf.torus(2.0, 1.0, mode=mode)
        u, v = interior_points(s, 7)
        du = op.coordinate_field(0)
        for f, g in [(lambda a, b: np.cos(a), lambda a, b: np.cos(a) + 0 * b),
                     (lambda a, b: np.sin(b), lambda a, b: np.sin(b) + 0 * a)]:
            assert np.array_equal(
                op.product_rule_residual_at(s, op.ScalarField(f), du, u, v),
                op.product_rule_residual_at(s, op.ScalarField(g), du, u, v))
        X = op.TangentField(lambda a, b: np.stack([np.cos(a) + 2, np.ones_like(a)], -1))
        Y = op.TangentField(lambda a, b: np.stack([np.cos(a) + 2 + 0 * b,
                                                   np.ones_like(a) + 0 * b], -1))
        assert np.array_equal(bo.bochner_residual(s, X, u, v),
                              bo.bochner_residual(s, Y, u, v))

    def test_fd_mode_ignores_callbacks(self):
        # lying callbacks must not be consulted in fd mode
        def bad(u, v):
            raise AssertionError("callback used in fd mode")

        fd = surf.torus(2.0, 1.0, mode="fd")
        field = op.TangentField(op.coordinate_field(0).coeff, bad, bad, name="trap")
        a, d = to_parts(field.jet(fd, 0.3, 0.4, 1, None), 0)
        np.testing.assert_allclose(d, 0.0, atol=1e-10)
