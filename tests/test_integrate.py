import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bochner2d import bochner as bo
from bochner2d import cli
from bochner2d import integrate as ig
from bochner2d import operators as op
from bochner2d import surfaces as surf
from bochner2d.errors import ChiIndeterminateError


class TestSurfaceIntegral:
    def test_torus_area(self, torus21):
        res = ig.surface_area(torus21, surf.chart_grid(torus21, 64, 64))
        assert abs(res.value - 8 * np.pi**2) < 1e-10
        assert res.rule == "periodic-trapezoid"
        assert res.estimated_error >= 0.0

    def test_sphere_area_mixed_rule(self, sphere1):
        res = ig.surface_area(sphere1, surf.chart_grid(sphere1, 32, 64))
        assert abs(res.value - 4 * np.pi) < 1e-10
        assert res.rule == "gauss-legendre-mixed"

    def test_zero_integrand(self, torus21):
        res = ig.surface_integral(torus21,
                                  lambda u, v: np.zeros(np.broadcast(u, v).shape),
                                  surf.chart_grid(torus21, 16, 16))
        assert res.value == 0.0

    def test_clifford_area(self, clifford1):
        # flat metric det g = 1/4, chart (2 pi)^2 -> area 2 pi^2
        res = ig.surface_area(clifford1, surf.chart_grid(clifford1, 32, 32))
        assert abs(res.value - 2 * np.pi**2) < 1e-10

    def test_spectral_error_decay(self, torus21):
        # sharp but analytic periodic integrand: trapezoid error collapses
        # by far more than x100 when the grid doubles from 32^2 to 64^2
        def f(u, v):
            return 1.0 / (1.3 - np.cos(u)) + 1.0 / (1.3 - np.cos(v))

        res32 = ig.surface_integral(torus21, f, surf.chart_grid(torus21, 32, 32))
        res64 = ig.surface_integral(torus21, f, surf.chart_grid(torus21, 64, 64))
        assert res64.estimated_error > 0.0
        assert res32.estimated_error / res64.estimated_error >= 100.0


def _two_evaluations(surface, fs, grid):
    """(value, estimated_error) pairs from fs and the area element on both
    grids; with an axis of 4 nodes there is no coarser grid and no estimate."""
    def sums(g):
        m = surf._assemble(surface, g.U, g.V, 0)[0]
        area = np.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        return [float(np.sum(g.weights * np.asarray(f, dtype=float) * area))
                for f in fs(g.U, g.V, None)]

    fine = sums(grid)
    if min(grid.nu, grid.nv) == 4:
        return [(value, np.nan) for value in fine]
    coarse = surf.chart_grid(surface, max(4, grid.nu // 2), max(4, grid.nv // 2))
    return [(value, abs(value - rough)) for value, rough in zip(fine, sums(coarse))]


@settings(max_examples=40)
@given(kind=st.sampled_from([("torus", (2.0, 1.0)), ("clifford_torus", (1.3,)),
                             ("sphere", (1.0,)), ("ellipsoid", (1.0, 1.3, 0.7))]),
       mode=st.sampled_from(["analytic", "fd"]),
       nu=st.integers(4, 40) | st.integers(2, 20).map(lambda k: 2 * k),
       nv=st.integers(4, 40) | st.integers(2, 20).map(lambda k: 2 * k))
def test_coarse_estimate_matches_two_evaluations(kind, mode, nu, nv):
    surface = surf.make_surface(*kind, mode=mode)
    X = cli.parse_field("2+sin(u),cos(v)")
    shapes = []

    def fs(u, v, g):
        shapes.append(np.shape(u))
        return op.gauss_curvature_at(surface, u, v), op.divergence_at(surface, X, u, v)

    got = ig.surface_integrals(surface, fs, surf.chart_grid(surface, nu, nv))
    calls = list(shapes)
    want = _two_evaluations(surface, fs, surf.chart_grid(surface, nu, nv))
    np.testing.assert_array_equal([(r.value, r.estimated_error) for r in got], want)
    # every other node of a periodic axis with an even count is a coarse node;
    # Gauss-Legendre nodes are not nested
    nested = (kind[0] in ("torus", "clifford_torus") and nu % 2 == nv % 2 == 0
              and min(nu, nv) >= 8)
    if nested or min(nu, nv) == 4:
        assert calls == [(nu, 1)]
    else:
        assert len(calls) == 2


@pytest.mark.parametrize("shape", [(4, 4), (4, 16), (16, 4)])
def test_an_axis_of_4_nodes_has_no_error_estimate(capsys, sphere1, shape):
    # 4 nodes is the fewest a grid takes, so that axis has no coarser grid
    res = ig.total_curvature(sphere1, surf.chart_grid(sphere1, *shape))
    assert np.isfinite(res.value) and np.isnan(res.estimated_error)
    wider = ig.total_curvature(sphere1, surf.chart_grid(sphere1, *(n + 1 for n in shape)))
    assert wider.estimated_error > 0.0
    # the report's null, for the total and the divergence-theorem residual
    grid = f"{shape[0]}x{shape[1]}"
    cli.main(["gauss-bonnet", "--surface", "torus:2,1", "--grid", grid, "--field", "du"])
    integrals = json.loads(capsys.readouterr().out)["integrals"]
    assert [x["estimated_error"] for x in integrals.values()] == [None, None]


class TestEulerCharacteristic:
    def test_sphere(self, sphere1):
        chi = ig.euler_characteristic(sphere1, surf.chart_grid(sphere1, 32, 64))
        assert chi.rounded == 2 and chi.margin < 0.01
        assert abs(chi.raw - 2.0) < 1e-12

    def test_torus(self, torus21):
        chi = ig.euler_characteristic(torus21, surf.chart_grid(torus21, 64, 64))
        assert chi.rounded == 0 and chi.margin < 0.01

    def test_ellipsoid(self, ellipsoid_abc):
        chi = ig.euler_characteristic(ellipsoid_abc,
                                      surf.chart_grid(ellipsoid_abc, 64, 64))
        assert chi.rounded == 2 and chi.margin < 0.01

    def test_clifford(self, clifford1):
        chi = ig.euler_characteristic(clifford1, surf.chart_grid(clifford1, 16, 16))
        assert chi.rounded == 0 and chi.margin < 1e-14

    def test_matches_declared_chi(self, all_surfaces):
        for s in all_surfaces:
            chi = ig.euler_characteristic(s, surf.chart_grid(s, 48, 48))
            assert chi.rounded == s.known_chi, s.name

    def test_underresolved_is_indeterminate(self, ellipsoid_abc):
        with pytest.raises(ChiIndeterminateError) as exc:
            ig.euler_characteristic(ellipsoid_abc,
                                    surf.chart_grid(ellipsoid_abc, 8, 8))
        assert exc.value.estimate is not None
        assert exc.value.estimate.margin >= 0.01

    def test_rounding_against_margin_limit(self):
        est = ig.chi_from_total(2 * np.pi * 1.996)
        assert est.rounded == 2
        assert est.margin == pytest.approx(0.004)
        assert est.margin_limit == ig.CHI_MARGIN
        assert not est.indeterminate
        assert ig.chi_from_total(2 * np.pi * 1.996, margin_limit=0.004).indeterminate

    @pytest.mark.parametrize("total", [np.inf, -np.inf, np.nan])
    def test_non_finite_total_is_indeterminate(self, total):
        est = ig.chi_from_total(total)
        assert est.rounded is None and est.margin == np.inf
        assert est.indeterminate

    def test_definitional_consistency(self, sphere1):
        # 2 pi * raw must be the total-curvature integral, no rewiring allowed
        grid = surf.chart_grid(sphere1, 32, 64)
        total = ig.total_curvature(sphere1, grid)
        chi = ig.euler_characteristic(sphere1, grid)
        assert abs(2 * np.pi * chi.raw - total.value) < 1e-12


class TestTotalCurvature:
    def test_torus_integral_vanishes(self, torus21):
        res = ig.total_curvature(torus21, surf.chart_grid(torus21, 64, 64))
        assert abs(res.value) < 1e-10

    def test_sphere_integral(self, sphere1):
        res = ig.total_curvature(sphere1, surf.chart_grid(sphere1, 32, 64))
        assert abs(res.value - 4 * np.pi) < 1e-8


class TestDivergenceTheorem:
    def test_zero_field_exact(self, torus21):
        zero = op.constant_field(0.0, 0.0)
        res = ig.divergence_theorem_residual(torus21, zero,
                                             surf.chart_grid(torus21, 16, 16))
        assert res.value == 0.0

    def test_fields_see_the_grid_nodes(self, torus21):
        # the integrands run on the grid's axes; the callbacks of a base field
        # with exact partials still get (u, v) of one shape, so ones that
        # stack them without broadcasting work as on the grid's nodes
        def stacked(*comps):
            return lambda u, v: np.stack([c(u, v) for c in comps], axis=-1)

        zero = lambda u, v: 0.0 * u     # noqa: E731
        X = op.TangentField(
            stacked(lambda u, v: np.cos(u) + 2.0, lambda u, v: np.sin(v)),
            lambda u, v: np.stack([stacked(lambda u, v: -np.sin(u), zero)(u, v),
                                   stacked(zero, lambda u, v: np.cos(v))(u, v)], axis=-2),
            lambda u, v: np.stack([stacked(lambda u, v: -np.cos(u), zero)(u, v),
                                   stacked(zero, zero)(u, v),
                                   stacked(zero, lambda u, v: -np.sin(v))(u, v)], axis=-2))
        T = bo.normalize_field(torus21, X)
        res = ig.divergence_theorem_residual(torus21, bo.curvature_potential_field(
            torus21, T), surf.chart_grid(torus21, 32, 32))
        assert abs(res.value) < 1e-8

    def test_curvature_potential_on_torus(self, torus21):
        T = bo.normalize_field(torus21, op.coordinate_field(0))
        Y = bo.curvature_potential_field(torus21, T)
        res = ig.divergence_theorem_residual(torus21, Y,
                                             surf.chart_grid(torus21, 64, 64))
        assert abs(res.value) < 1e-8

    def test_smooth_periodic_field(self, torus21):
        X = op.TangentField(
            lambda u, v: np.stack(
                np.broadcast_arrays(np.cos(u), np.sin(v) * np.cos(u)), axis=-1),
            name="periodic")
        res = ig.divergence_theorem_residual(torus21, X,
                                             surf.chart_grid(torus21, 64, 64))
        assert abs(res.value) < 1e-10

    def test_end_to_end_torus_story(self, torus21):
        # nowhere-zero field -> potential field integrates to zero -> chi = 0
        grid = surf.chart_grid(torus21, 64, 64)
        T = bo.normalize_field(
            torus21, op.add_fields(op.coordinate_field(0), op.coordinate_field(1)))
        Y = bo.curvature_potential_field(torus21, T)
        res = ig.divergence_theorem_residual(torus21, Y, grid)
        chi = ig.euler_characteristic(torus21, grid)
        assert abs(res.value) < 1e-8
        assert chi.rounded == 0

    def test_sphere_exposes_obstruction(self, sphere1):
        # the azimuthal field vanishes at the poles; its potential field is
        # chart-singular there and the closed-surface integral picks up the
        # full curvature 4 pi instead of zero
        T = bo.normalize_field(sphere1, op.coordinate_field(1))
        Y = bo.curvature_potential_field(sphere1, T)
        res = ig.divergence_theorem_residual(sphere1, Y,
                                             surf.chart_grid(sphere1, 32, 64))
        assert abs(res.value - 4 * np.pi) < 1e-6

    @pytest.mark.parametrize("kind,params,grids", [
        ("torus", (2.0, 1.0), 1),       # the coarse grid is read off the fine one
        ("sphere", (1.0,), 2)])         # Gauss-Legendre nodes: each grid its own
    def test_one_assembly_per_grid(self, metric_assemblies, kind, params, grids):
        # the divergence and the field's jet take the quadrature's metric jet
        s = surf.make_surface(kind, params)
        Y = bo.curvature_potential_field(
            s, bo.normalize_field(s, op.coordinate_field(0)))
        ig.divergence_theorem_residual(s, Y, surf.chart_grid(s, 16, 16))
        assert metric_assemblies == [2] * grids

    def test_shared_integrands_match_the_separate_integrals(self, all_surfaces):
        # one metric assembly per grid gives, bit for bit, the integrals that
        # total_curvature and divergence_theorem_residual assemble on their own
        for s in all_surfaces:
            grid = surf.chart_grid(s, 24, 20)
            T = bo.normalize_field(s, op.coordinate_field(1))
            total, div = ig.surface_integrals(
                s, lambda u, v, g: bo.gauss_bonnet_integrands(s, T, u, v, g), grid)
            assert total == ig.total_curvature(s, grid), s.name
            assert div == ig.divergence_theorem_residual(
                s, bo.curvature_potential_field(s, T), grid), s.name

    def test_chi_zero_iff_torus(self, all_surfaces):
        for s in all_surfaces:
            chi = ig.euler_characteristic(s, surf.chart_grid(s, 48, 48))
            admits_nowhere_zero = s.known_chi == 0
            assert (chi.rounded == 0) == admits_nowhere_zero, s.name
