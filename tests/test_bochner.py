import numpy as np
import pytest

from bochner2d import bochner as bo
from bochner2d import operators as op
from bochner2d import surfaces as surf
from bochner2d.errors import NotUnitFieldError, ZeroFieldPointError

from conftest import interior_points


def unit_du(surface):
    return bo.normalize_field(surface, op.coordinate_field(0))


def unit_mix(surface):
    return bo.normalize_field(
        surface, op.add_fields(op.coordinate_field(0), op.coordinate_field(1)))


def guarded_grid(surface, nu=32, nv=32):
    g = surf.chart_grid(surface, nu, nv)
    mask = surf.guarded_mask(surface, g.U, g.V)
    return g.U[mask], g.V[mask]


class TestNormalize:
    def test_torus_du(self, torus21):
        T = unit_du(torus21)
        u, v = interior_points(torus21, 15)
        vals = T.coeff(u, v)
        np.testing.assert_allclose(vals[..., 0], 1.0 / (2 + np.cos(v)), atol=1e-14)
        np.testing.assert_allclose(vals[..., 1], 0.0, atol=1e-15)

    def test_unit_postcondition(self, all_surfaces):
        for s in all_surfaces:
            T = unit_mix(s)
            u, v = interior_points(s, 20, seed=7)
            g = surf.metric_only(s, u, v)
            t = T.coeff(u, v)
            n2 = np.einsum("...ij,...i,...j->...", g, t, t)
            np.testing.assert_allclose(n2, 1.0, atol=1e-12, err_msg=s.name)

    def test_idempotent_on_unit_input(self, torus21):
        T = unit_du(torus21)
        TT = bo.normalize_field(torus21, T)
        u, v = interior_points(torus21, 10)
        np.testing.assert_allclose(TT.coeff(u, v), T.coeff(u, v), atol=1e-12)

    def test_zero_field_point(self, torus21):
        X = op.TangentField(
            lambda u, v: np.stack(np.broadcast_arrays(np.sin(u), 0.0 * v), axis=-1),
            name="sin(u) du")
        T = bo.normalize_field(torus21, X, floor=1e-6)
        with pytest.raises(ZeroFieldPointError) as exc:
            T.coeff(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert exc.value.points

    def test_floor_validation(self, torus21):
        with pytest.raises(ValueError):
            bo.normalize_field(torus21, op.coordinate_field(0), floor=0.0)


class TestBochnerIdentity:
    def test_clifford_constant_field_all_terms_zero(self, clifford1):
        u, v = interior_points(clifford1, 10)
        res = bo.bochner_residual(clifford1, op.coordinate_field(0), u, v)
        np.testing.assert_allclose(res, 0.0, atol=1e-15)

    def test_torus_du(self, torus21):
        U, V = guarded_grid(torus21, 64, 64)
        res = bo.bochner_residual(torus21, op.coordinate_field(0), U, V)
        assert np.max(res) < 1e-6

    def test_sphere_azimuthal(self, sphere1):
        U, V = guarded_grid(sphere1, 32, 64)
        res = bo.bochner_residual(sphere1, op.coordinate_field(1), U, V)
        assert np.max(res) < 1e-6

    def test_unit_fields_all_surfaces(self, all_surfaces):
        for s in all_surfaces:
            U, V = guarded_grid(s)
            res = bo.bochner_residual(s, unit_mix(s), U, V)
            assert np.max(res) < 1e-6, s.name


class TestTraceIdentity:
    def test_torus_unit_du(self, torus21):
        U, V = guarded_grid(torus21)
        res = bo.trace_identity_residual(torus21, unit_du(torus21), U, V)
        assert np.max(res) < 1e-6

    def test_clifford_scaled_du(self, clifford1):
        T = op.constant_field(np.sqrt(2.0), 0.0, name="sqrt2 du")
        U, V = guarded_grid(clifford1)
        res = bo.trace_identity_residual(clifford1, T, U, V)
        np.testing.assert_allclose(res, 0.0, atol=1e-14)

    def test_rejects_non_unit(self, torus21):
        with pytest.raises(NotUnitFieldError):
            bo.trace_identity_residual(torus21, op.coordinate_field(0), 0.3, 0.4)

    def test_all_unit_fields(self, all_surfaces):
        for s in all_surfaces:
            U, V = guarded_grid(s)
            for T in (unit_du(s), unit_mix(s)):
                res = bo.trace_identity_residual(s, T, U, V)
                assert np.max(res) < 1e-6, (s.name, T.name)


class TestUnitFrameMatrix:
    def test_first_row_vanishes(self, all_surfaces):
        for s in all_surfaces:
            U, V = guarded_grid(s)
            for T in (unit_du(s), unit_mix(s)):
                m = bo.unit_frame_operator_matrix(s, T, U, V)
                assert np.max(np.abs(m[..., 0, :])) < 1e-8, (s.name, T.name)

    def test_companion_is_unit_and_orthogonal(self, torus21):
        T = unit_mix(torus21)
        u, v = interior_points(torus21, 15)
        e = bo.unit_frame_companion(torus21, T, u, v)
        g = surf.metric_only(torus21, u, v)
        t = T.coeff(u, v)
        np.testing.assert_allclose(
            np.einsum("...ij,...i,...j->...", g, e, e), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            np.einsum("...ij,...i,...j->...", g, e, t), 0.0, atol=1e-12)

    def test_companion_fallback_near_parallel(self, torus21):
        # T parallel to du forces the dv seed
        T = unit_du(torus21)
        e = bo.unit_frame_companion(torus21, T, 0.3, 0.4)
        assert abs(e[..., 1]) > 0.5


class TestCurvaturePotential:
    def test_torus_coefficients(self, torus21):
        Y = bo.curvature_potential_field(torus21, unit_du(torus21))
        u, v = interior_points(torus21, 15)
        vals = Y.coeff(u, v)
        np.testing.assert_allclose(vals[..., 0], 0.0, atol=1e-13)
        np.testing.assert_allclose(vals[..., 1], np.sin(v) / (2 + np.cos(v)),
                                   atol=1e-13)

    def test_clifford_geodesic_field_gives_zero(self, clifford1):
        T = op.constant_field(np.sqrt(2.0), 0.0)
        Y = bo.curvature_potential_field(clifford1, T)
        u, v = interior_points(clifford1, 8)
        np.testing.assert_allclose(Y.coeff(u, v), 0.0, atol=1e-14)

    def test_sphere_polar_coefficient(self, sphere1):
        T = bo.normalize_field(sphere1, op.coordinate_field(1))
        Y = bo.curvature_potential_field(sphere1, T)
        u, v = interior_points(sphere1, 12)
        vals = Y.coeff(u, v)
        np.testing.assert_allclose(vals[..., 0], -np.cos(u) / np.sin(u), atol=1e-11)
        np.testing.assert_allclose(vals[..., 1], 0.0, atol=1e-12)

    def test_rejects_non_unit(self, torus21):
        Y = bo.curvature_potential_field(torus21, op.coordinate_field(0))
        with pytest.raises(NotUnitFieldError):
            Y.coeff(0.3, 0.4)

    def test_sign_flip_invariance(self, torus21, sphere1):
        for s, T in ((torus21, unit_mix(torus21)),
                     (sphere1, bo.normalize_field(sphere1, op.coordinate_field(1)))):
            Y_plus = bo.curvature_potential_field(s, T)
            Y_minus = bo.curvature_potential_field(s, op.scale_field(-1.0, T))
            U, V = guarded_grid(s, 16, 16)
            np.testing.assert_allclose(Y_minus.coeff(U, V), Y_plus.coeff(U, V),
                                       atol=1e-10, err_msg=s.name)


class TestCurvatureIdentity:
    def test_torus_spot_values(self, torus21):
        T = unit_du(torus21)
        Y = bo.curvature_potential_field(torus21, T)
        # frozen hand values: K = div Y = 1/3 at v = 0 and 0 at v = pi/2
        assert float(op.divergence_at(torus21, Y, 0.3, 0.0)) == pytest.approx(1 / 3, abs=1e-12)
        assert float(op.divergence_at(torus21, Y, 0.3, np.pi / 2)) == pytest.approx(0.0, abs=1e-12)
        r0 = bo.curvature_identity_residual(torus21, T, 0.3, 0.0)
        rq = bo.curvature_identity_residual(torus21, T, 0.3, np.pi / 2)
        assert float(r0) < 1e-12 and float(rq) < 1e-12

    def test_sphere_guard_band(self, sphere1):
        T = bo.normalize_field(sphere1, op.coordinate_field(1))
        U, V = guarded_grid(sphere1, 32, 64)
        res = bo.curvature_identity_residual(sphere1, T, U, V)
        assert np.max(res) < 1e-6

    def test_analytic_sup_all_surfaces(self, all_surfaces):
        for s in all_surfaces:
            U, V = guarded_grid(s)
            res = bo.curvature_identity_residual(s, unit_mix(s), U, V)
            assert np.max(res) < 1e-6, s.name

    def test_fd_backend_within_tolerance(self):
        fd = surf.torus(2.0, 1.0, mode="fd", step=1e-3)
        T = bo.normalize_field(fd, op.coordinate_field(0))
        U, V = guarded_grid(fd, 32, 32)
        res = bo.curvature_identity_residual(fd, T, U, V)
        assert np.max(res) < 1e-3

    def test_rejects_non_unit(self, torus21):
        with pytest.raises(NotUnitFieldError):
            bo.curvature_identity_residual(torus21, op.coordinate_field(0), 0.3, 0.4)


class TestChainedConsistency:
    def test_residual_bookkeeping(self, all_surfaces):
        # the combined identity cannot exceed the sum of its three ingredients
        for s in all_surfaces:
            U, V = guarded_grid(s)
            r = bo.chained_residuals(s, unit_mix(s), U, V)
            assert np.max(r["bound_slack"]) <= 1e-9, s.name

    def test_divergence_scaling_identity(self, all_surfaces):
        for s in all_surfaces:
            U, V = guarded_grid(s)
            for T in (unit_du(s), unit_mix(s)):
                res = bo.divergence_scaling_residual(s, T, U, V)
                assert np.max(res) < 1e-6, (s.name, T.name)


class TestNestedDerivedFields:
    """Derived fields inside callers that assemble a metric of lower order:
    each must still get its partials to the order it was asked for."""

    def test_product_rule_of_derived_fields(self, all_surfaces):
        for s in all_surfaces:
            u, v = interior_points(s, 20, seed=3)
            T = unit_mix(s)
            pot = bo.curvature_potential_field(s, T)
            for f in (op.divergence_scalar_field(s, op.coordinate_field(0)),
                      op.divergence_scalar_field(s, T)):
                for X in (op.coordinate_field(1), pot,
                          bo.self_covariant_derivative(s, T)):
                    res = op.product_rule_residual_at(s, f, X, u, v)
                    assert np.max(res) < 1e-12, (s.name, f.name, X.name)

    def test_unit_field_of_the_curvature_potential(self, torus21, sphere1,
                                                   ellipsoid_abc):
        for s in (torus21, sphere1, ellipsoid_abc):
            u, v = interior_points(s, 20, seed=3)
            T = bo.normalize_field(s, bo.curvature_potential_field(s, unit_mix(s)))
            assert np.max(bo.trace_identity_residual(s, T, u, v)) < 1e-12, s.name
            m = bo.unit_frame_operator_matrix(s, T, u, v)
            assert np.max(np.abs(m[..., 0, :])) < 1e-12, s.name


class TestOrthogonality:
    def test_self_transport_orthogonal_to_unit_field(self, all_surfaces):
        # differentiate g(T, T) = 1: grad_T T is g-orthogonal to T
        for s in all_surfaces:
            U, V = guarded_grid(s)
            for T in (unit_du(s), unit_mix(s)):
                w = bo.self_covariant_derivative(s, T)
                g = surf.metric_only(s, U, V)
                ip = np.einsum("...ij,...i,...j->...", g, w.coeff(U, V), T.coeff(U, V))
                assert np.max(np.abs(ip)) < 1e-8, (s.name, T.name)


class TestReports:
    def test_residual_report_summary(self, torus21):
        T = unit_du(torus21)
        g = surf.chart_grid(torus21, 16, 16)
        vals = bo.curvature_identity_residual(torus21, T, g.U, g.V)
        rep = bo.residual_report("curvature_identity", vals, g.U, g.V, 1e-6)
        assert rep.passed and rep.sup <= 1e-6 and rep.n_points == 256
        assert rep.mean <= rep.sup

    def test_point_residual_invariant(self):
        r = bo.point_residual("x", 2.0, 0.1, 0.2, 1.0)
        assert not r.passed
        r2 = bo.point_residual("x", 0.5, 0.1, 0.2, 1.0)
        assert r2.passed
