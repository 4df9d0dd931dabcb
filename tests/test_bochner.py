import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bochner2d import _jets
from bochner2d import bochner as bo
from bochner2d import cli
from bochner2d import operators as op
from bochner2d import surfaces as surf
from bochner2d.errors import DegenerateMetricError, NotUnitFieldError, ZeroFieldPointError

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


def field_norm(surface, X, u, v):
    """Pointwise metric norm g(X, X)^(1/2)."""
    g = op._metric(surface, u, v, 0)
    return np.sqrt(op._quadratic(g.v, _jets.value(X.jet(surface, u, v, 0, g))))


def divergence_scalar_field(surface, X, name=None):
    """div X as a ScalarField; its partials come from the jets of X and g."""
    def jet(_, u, v, order, g):
        g = op._metric(surface, u, v, order + 1, g)
        return op._divergence(X.jet(surface, u, v, order + 1, g), op._levi_civita(g)[1])

    return op.ScalarField(lambda u, v: _jets.value(jet(None, u, v, 0, None)),
                          name=name or f"div({X.name})", jet=jet)


def self_covariant_derivative(surface, T):
    """grad_T T as a tangent field."""
    def jet(_, u, v, order, g):
        return bo._NodeBatch.of(surface, T, u, v, order + 1, g).transport

    return op._derived(jet, f"selfgrad({T.name})")


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
            g = surf._assemble(s, u, v, 0)[0]
            t = T.coeff(u, v)
            n2 = np.einsum("ij...,...i,...j->...", g, t, t)
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

    def test_non_finite_norm_counted_apart(self, torus21):
        # g(X, X) is 0 at u = 0 and overflows to inf elsewhere
        X = op.TangentField(
            lambda u, v: np.stack(np.broadcast_arrays(1e200 * np.sin(u), 0.0 * v),
                                  axis=-1), name="big")
        T = bo.normalize_field(torus21, X)
        with pytest.raises(ZeroFieldPointError) as exc:
            T.coeff(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5, 0.5]))
        assert str(exc.value) == (
            "field 'big' has norm below floor 1e-09 at 1 point(s) and a non-finite "
            "norm at 2 point(s), first at (u, v) = (0, 0.5)")
        assert len(exc.value.points) == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_unit_partials_counted_apart(self, torus21):
        # at u = 0 the norm is finite, but d_u X = 1e200 squares to inf in
        # the second partials of g(X, X); at u = 1 the norm overflows
        T = bo.normalize_field(torus21, cli.parse_field("1e200*sin(u)+1,0"))
        u, v = np.array([0.0, 1.0]), np.array([0.5, 0.5])
        with pytest.raises(ZeroFieldPointError) as exc:
            bo.bochner_residual(torus21, T, u, v)
        assert str(exc.value) == (
            "field 'expr(1e200*sin(u)+1,0)' has a non-finite norm at 1 point(s) and "
            "non-finite unit-field partials at 1 point(s), first at (u, v) = (0, 0.5)")
        assert len(exc.value.points) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_first_partials_named_at_order_one(self, torus21):
        # at u = 0 the order-1 unit jet is finite, but d_u T ~ 1e200 would
        # square to inf in (div T)^2
        T = bo.normalize_field(torus21, cli.parse_field("1e200*sin(u)+1,0"))
        with pytest.raises(ZeroFieldPointError) as exc:
            bo.trace_identity_residual(torus21, T, np.zeros(2), np.array([0.5, 1.0]))
        assert str(exc.value) == (
            "field 'expr(1e200*sin(u)+1,0)' has non-finite unit-field partials at "
            "2 point(s), first at (u, v) = (0, 0.5)")
        assert exc.value.points == [surf.ChartPoint(0.0, 0.5), surf.ChartPoint(0.0, 1.0)]

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_nan_unit_deviation(self, torus21):
        # g(X, X) is inf or NaN at these nodes: a NaN deviation is no unit field
        grid = surf.chart_grid(torus21, 16, 16)
        with pytest.raises(NotUnitFieldError):
            bo.trace_identity_residual(torus21, cli.parse_field("1e200,1e200"),
                                       grid.U, grid.V)

    def test_all_unit_fields(self, all_surfaces):
        for s in all_surfaces:
            U, V = guarded_grid(s)
            for T in (unit_du(s), unit_mix(s)):
                res = bo.trace_identity_residual(s, T, U, V)
                assert np.max(res) < 1e-6, (s.name, T.name)


def companion_by_own_assembly(surface, T, u, v):
    """`bochner._companion` of T at (u, v), shape (..., 2), on an order-0
    metric assembly of its own, which T's values take too."""
    g = _jets.Jet(surf._assemble(surface, u, v, 0)[0])
    t = _jets.value(T.jet(surface, u, v, 0, g))
    return bo._companion(_jets.value_last(g.v, 2), _jets.value_last(t, 1))


class TestUnitFrameMatrix:
    def test_first_row_vanishes(self, all_surfaces):
        for s in all_surfaces:
            U, V = guarded_grid(s)
            for T in (unit_du(s), unit_mix(s)):
                m = bo.unit_frame_operator_matrix(s, T, U, V)
                assert np.max(np.abs(m[..., 0, :])) < 1e-8, (s.name, T.name)

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    def test_one_metric_assembly_and_the_companion_route(self, metric_assemblies, mode):
        # E comes from the batch's metric and T, bit for bit what
        # `companion_by_own_assembly` gives from its own assembly and T's
        # values on it, one order-0 assembly
        for kind, params in (("torus", (2.0, 1.0)), ("sphere", (1.0,)),
                             ("clifford_torus", (1.0,)), ("ellipsoid", (1.0, 1.3, 0.7))):
            s = surf.make_surface(kind, params, mode=mode)
            U, V = guarded_grid(s, 12, 10)
            fields = [unit_du(s), unit_mix(s)]
            if kind == "clifford_torus":        # where sqrt(2) du is unit
                fields.append(op.constant_field(np.sqrt(2.0), 0.0))
            for T in fields:
                del metric_assemblies[:]
                m = bo.unit_frame_operator_matrix(s, T, U, V)
                assert metric_assemblies == [1], (s.name, T.name)
                del metric_assemblies[:]
                e = np.moveaxis(companion_by_own_assembly(s, T, U, V), -1, 0)
                assert metric_assemblies == [0], (s.name, T.name)
                batch = bo._NodeBatch.of(s, T, U, V, order=1)
                basis = np.stack([_jets.value(batch.x), e], axis=1)
                a_cols = np.einsum("ki...,ij...->kj...", -batch.grad_x.v, basis)
                want = np.einsum("ij...,ik...,kl...->jl...", basis, batch.g.v, a_cols)
                assert np.array_equal(m, np.moveaxis(want, (0, 1), (-2, -1))), (s.name, T.name)

    def test_companion_is_unit_and_orthogonal(self, torus21):
        T = unit_mix(torus21)
        u, v = interior_points(torus21, 15)
        g = surf._assemble(torus21, u, v, 0)[0]
        t = T.coeff(u, v)
        e = bo._companion(_jets.value_last(g, 2), t)
        np.testing.assert_allclose(
            np.einsum("ij...,...i,...j->...", g, e, e), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            np.einsum("ij...,...i,...j->...", g, e, t), 0.0, atol=1e-12)

    def test_companion_fallback_near_parallel(self, torus21):
        # T parallel to du forces the dv seed
        T = unit_du(torus21)
        g = surf._assemble(torus21, 0.3, 0.4, 0)[0]
        e = bo._companion(_jets.value_last(g, 2), T.coeff(0.3, 0.4))
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
                res = bo.chained_residuals(s, T, U, V)["product"]
                assert np.max(res) < 1e-6, (s.name, T.name)


class TestNestedDerivedFields:
    """Derived fields inside callers that assemble a metric of lower order:
    each must still get its partials to the order it was asked for."""

    def test_product_rule_of_derived_fields(self, all_surfaces):
        for s in all_surfaces:
            u, v = interior_points(s, 20, seed=3)
            T = unit_mix(s)
            pot = bo.curvature_potential_field(s, T)
            for f in (divergence_scalar_field(s, op.coordinate_field(0)),
                      divergence_scalar_field(s, T)):
                for X in (op.coordinate_field(1), pot,
                          self_covariant_derivative(s, T)):
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
                w = self_covariant_derivative(s, T)
                g = surf._assemble(s, U, V, 0)[0]
                ip = np.einsum("ij...,...i,...j->...", g, w.coeff(U, V), T.coeff(U, V))
                assert np.max(np.abs(ip)) < 1e-8, (s.name, T.name)


class TestEmptySelection:
    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    def test_public_residuals_of_no_nodes_are_empty(self, mode):
        s = surf.torus(2.0, 1.0, mode=mode)
        T = unit_du(s)
        f = op.ScalarField(lambda u, v: np.cos(u) + np.sin(v), name="f")
        none = np.array([])
        assert T.coeff(none, none).shape == (0, 2)
        results = [bo.bochner_residual(s, T, none, none),
                   bo.trace_identity_residual(s, T, none, none),
                   bo.curvature_identity_residual(s, T, none, none),
                   *bo.chained_residuals(s, T, none, none).values(),
                   op.ricci_residual_at(s, T, T, none, none),
                   op.product_rule_residual_at(s, f, T, none, none)]
        for values in results:
            assert values.shape == (0,)


class TestReports:
    def test_residual_report_summary(self, torus21):
        # the report entry `verify` builds from a check's residuals
        T = unit_du(torus21)
        g = surf.chart_grid(torus21, 16, 16)
        vals = bo.curvature_identity_residual(torus21, T, g.U, g.V)
        rep = cli._check_entry("curvature_identity", vals.ravel(), g.U.ravel(),
                               g.V.ravel(), 1e-6, False)
        assert rep["pass"] and rep["sup"] <= 1e-6 and rep["n_points"] == 256
        assert rep["mean"] <= rep["sup"]


class TestBatchComposition:
    """A node's residuals do not depend on the other nodes of its batch.

    `verify` evaluates tiles of at most `cli.BATCH_NODES` nodes, and its sup
    must equal the public residual functions' max bit for bit; both hold
    only if every node's arithmetic is independent of which nodes share its
    batch and where it sits in it.
    """

    @settings(max_examples=40)
    @given(surface=st.sampled_from(("torus:2,1", "sphere:1", "clifford:1",
                                    "ellipsoid:1,1.3,0.7")),
           backend=st.sampled_from(("analytic", "fd")),
           field=st.sampled_from(("du", "dv", "du+dv", "sin(u)+2,cos(v)")),
           nu=st.integers(4, 12), nv=st.integers(4, 12),
           data=st.data())
    def test_subset_rows_match_the_full_batch(self, surface, backend, field,
                                              nu, nv, data):
        s = cli.parse_surface(surface, cli.parse_backend(backend))
        X = cli.parse_field(field)
        g = surf.chart_grid(s, nu, nv)
        usable = (surf.guarded_mask(s, g.U, g.V)
                  & (field_norm(s, X, g.U, g.V) >= bo.ZERO_FLOOR))
        U, V = g.U[usable], g.V[usable]
        f, Y = cli._product_rule_pair()
        full = bo._verify_pass(s, X, f, Y, U, V)
        order = data.draw(st.permutations(range(U.size)))
        idx = np.array(order[:data.draw(st.integers(1, U.size))])
        part = bo._verify_pass(s, X, f, Y, U[idx], V[idx])
        assert np.array_equal(part, full[idx], equal_nan=True)


def concatenated_failure_codes(n2, trace, floor, unit):
    """`bochner._failure_codes` testing the unit jet's parts for finiteness as
    one concatenated array."""
    codes = np.zeros(np.shape(n2), dtype=np.int8)
    codes[op._vanishes(n2, trace, floor)] = bo._ZERO_NORM
    codes[~np.isfinite(n2)] = bo._NON_FINITE_NORM
    if codes.size:
        parts = [x.reshape((-1,) + codes.shape) for x in (unit.v, unit.d, unit.dd)
                 if x is not None]
        ok = codes == 0
        if unit.d is not None:
            codes[ok & (np.abs(parts[1]) > bo.PARTIAL_MAX).any(axis=0)] = bo._LARGE_PARTIAL
        codes[ok & ~np.isfinite(np.concatenate(parts)).all(axis=0)] = bo._NON_FINITE_PARTIAL
    return codes


@settings(max_examples=80)
@given(st.integers(0, 2), st.sampled_from([(1,), (7,), (3, 4)]),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2 ** 16),
                          st.sampled_from([np.nan, np.inf, -np.inf, 1e300])), max_size=8),
       st.integers(0, 2 ** 32 - 1))
def test_failure_codes_check_the_parts_one_by_one(order, nodes, bad, seed):
    # the same codes as one finiteness test over the concatenated parts,
    # with NaN, inf and large values at random parts and nodes, and zero
    # or non-finite norms at others
    rng = np.random.default_rng(seed)
    parts = [rng.standard_normal((rows, 2) + nodes) for rows in (1, 2, 3)[:order + 1]]
    parts[0] = parts[0][0]
    for k, at, value in bad:
        part = parts[min(k, order)].reshape(-1)
        part[at % part.size] = value
    n2 = rng.choice([0.0, 1.0, 2.5, np.nan, np.inf], size=nodes)
    trace = rng.uniform(0.5, 2.0, nodes)
    unit = _jets.Jet(*parts)
    codes = bo._failure_codes(n2, trace, bo.ZERO_FLOOR, unit)
    want = concatenated_failure_codes(n2, trace, bo.ZERO_FLOOR, unit)
    assert codes.dtype == want.dtype and np.array_equal(codes, want)


class TestFailureCodes:
    """`verify` flags the nodes without a usable unit field in its one pass.

    With X = A sin(k u) + c, A = 10^e, the norm of X vanishes (c = 0) or
    overflows, or the partials of its unit field overflow, at some nodes and
    not at others.  The message of
    each flagged node, in `_verify_pass`'s rows and in the report's
    failed_nodes, is the error that `normalize_field`'s field raises at that
    node alone, and the rows of the other nodes are those of a batch without
    the flagged nodes.
    """

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=20)
    @given(surface=st.sampled_from(("torus:2,1", "clifford:1")),
           backend=st.sampled_from(("analytic", "fd")),
           e=st.integers(150, 308), k=st.integers(1, 4),
           c=st.sampled_from(("0", "0.5", "1", "2")),
           nu=st.integers(4, 16), nv=st.integers(4, 16))
    def test_flagged_nodes_are_named_as_alone(self, surface, backend, e, k, c, nu, nv):
        s = cli.parse_surface(surface, cli.parse_backend(backend))
        field = f"1e{e}*sin({k}*u)+{c},0"
        X = cli.parse_field(field)
        T = bo.normalize_field(s, X)

        def alone(u, v):
            with pytest.raises(ZeroFieldPointError) as exc:
                bo.bochner_residual(s, T, np.array([u]), np.array([v]))
            return str(exc.value)

        g = surf.chart_grid(s, nu, nv)
        mask = surf.guarded_mask(s, g.U, g.V)
        U, V = g.U[mask], g.V[mask]
        f, Y = cli._product_rule_pair()
        rows = bo._verify_pass(s, X, f, Y, U, V)
        failed = bo._node_failures(s, X, bo.ZERO_FLOOR, rows, U, V)
        flagged = rows[:, -1] > 0
        assert list(failed) == np.flatnonzero(flagged).tolist()
        assert np.isnan(rows[flagged, :-2]).all()
        for i, message in failed.items():
            assert message == alone(U[i], V[i])
        kept = np.flatnonzero(~flagged)
        if kept.size:
            assert np.array_equal(bo._verify_pass(s, X, f, Y, U[kept], V[kept]),
                                  rows[kept], equal_nan=True)

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["verify", "--surface", surface, "--field", field,
                      "--grid", f"{nu}x{nv}", "--backend", backend])
        for check in json.loads(out.getvalue())["checks"]:
            for node in check.get("failed_nodes", ()):
                if node["error"] != "non-finite residual":
                    assert node["error"] == alone(node["u"], node["v"])


class TestDegenerateCode:
    """`_verify_pass` gives a node whose metric is degenerate the failure code
    _DEGENERATE_METRIC, on its own assembly or the caller's, without a
    warning, and `_node_failures` names it with the DegenerateMetricError
    that `local_geometry` raises at that node alone."""

    @pytest.mark.parametrize("backend", ["analytic", "fd"])
    @pytest.mark.parametrize("surface,field", [
        ("sphere:1e-40", "1e40,0"),         # det g below DET_MIN everywhere
        ("torus:1e200,1e199", "du"),        # g overflows: det g is NaN
        ("sphere:1e-38", "0,1e38"),         # below DET_MIN near the poles only
    ])
    def test_degenerate_nodes_are_named_as_alone(self, surface, field, backend):
        s = cli.parse_surface(surface, cli.parse_backend(backend))
        X = cli.parse_field(field)
        f, Y = cli._product_rule_pair()
        U, V = guarded_grid(s, 12, 12)
        rows = bo._verify_pass(s, X, f, Y, U, V)
        given = bo._verify_pass(s, X, f, Y, U, V, surf._assemble(s, U, V, 2))
        assert np.array_equal(rows, given, equal_nan=True)

        degenerate = rows[:, -1] == bo._DEGENERATE_METRIC
        assert degenerate.any()
        assert np.isnan(rows[degenerate, :-2]).all()
        failed = bo._node_failures(s, X, bo.ZERO_FLOOR, rows, U, V)
        for i, (u, v) in enumerate(zip(U, V)):
            try:
                op.local_geometry(s, [u], [v])
            except DegenerateMetricError as exc:
                assert degenerate[i] and failed[i] == str(exc)
            else:
                assert not degenerate[i]
