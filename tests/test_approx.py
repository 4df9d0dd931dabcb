import itertools
import tempfile
import tracemalloc
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bochner2d import _stencils, cli
from bochner2d import approx as ap
from bochner2d import operators as op
from bochner2d import surfaces as surf
from bochner2d.cli import (
    expression_field,
    kinked_mixture_field,
    parse_backend,
    parse_field,
    parse_surface,
)
from bochner2d.errors import (
    BudgetNotMetError,
    DegenerateMetricError,
    RankDeficientFitError,
    ZeroFieldPointError,
)

import approx_oracle


def _dense(samples, X):
    """Field X, which `samples` sampled, on a grid VERIFY_FACTOR x denser per
    axis, the grid on which `smooth_field` verifies a fit on theirs."""
    S, (nu, nv) = samples.surface, samples.grid_shape
    grid = surf.chart_grid(S, ap.VERIFY_FACTOR * nu, ap.VERIFY_FACTOR * nv)
    return ap.sample_unit_field(S, X, grid)


class TestSampling:
    def test_torus_pushforward_values(self, torus21):
        grid = surf.chart_grid(torus21, 16, 16)
        s_du = ap.sample_unit_field(torus21, op.coordinate_field(0), grid)
        s_dv = ap.sample_unit_field(torus21, op.coordinate_field(1), grid)
        # node 0 is (u, v) = (0, 0)
        np.testing.assert_allclose(s_du.positions[0], [3.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(s_du.values[0], [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(s_dv.values[0], [0.0, 0.0, 1.0], atol=1e-15)

    def test_unit_certification(self, all_surfaces):
        for s in all_surfaces:
            grid = surf.chart_grid(s, 12, 12)
            samples = ap.sample_unit_field(
                s, op.add_fields(op.coordinate_field(0), op.coordinate_field(1)), grid)
            np.testing.assert_allclose(np.linalg.norm(samples.values, axis=1), 1.0,
                                       atol=1e-12, err_msg=s.name)

    def test_values_are_tangent(self, torus21):
        grid = surf.chart_grid(torus21, 16, 16)
        samples = ap.sample_unit_field(torus21, kinked_mixture_field(), grid)
        normal = np.stack([np.cos(samples.chart_v) * np.cos(samples.chart_u),
                           np.cos(samples.chart_v) * np.sin(samples.chart_u),
                           np.sin(samples.chart_v)], axis=-1)
        dots = np.einsum("ij,ij->i", samples.values, normal)
        assert np.max(np.abs(dots)) < 1e-10

    def test_never_differentiates_input(self, torus21):
        calls = {"d": 0}

        def coeff(u, v):
            return np.stack(np.broadcast_arrays(1.0 + 0.0 * u, np.abs(np.sin(u))),
                            axis=-1)

        def d_trap(u, v):
            calls["d"] += 1
            raise AssertionError("sampling must not differentiate the field")

        X = op.TangentField(coeff, d_trap, d_trap, name="kinky")
        ap.sample_unit_field(torus21, X, surf.chart_grid(torus21, 8, 8))
        assert calls["d"] == 0

    def test_zero_field_detected(self, torus21):
        X = op.TangentField(
            lambda u, v: np.stack(np.broadcast_arrays(np.sin(u), 0.0 * v), axis=-1),
            name="vanishing")
        with pytest.raises(ZeroFieldPointError):
            ap.sample_unit_field(torus21, X, surf.chart_grid(torus21, 8, 8))

    def test_non_finite_samples_counted_apart(self, torus21):
        # NaN on the line u = 0 (8 nodes), zero on the line u = pi (8 nodes)
        X = op.TangentField(
            lambda u, v: np.stack(np.broadcast_arrays(
                np.where(u == 0.0, np.nan, np.sin(u)), 0.0 * v), axis=-1),
            name="nan-and-zero")
        with pytest.raises(ZeroFieldPointError) as exc:
            ap.sample_unit_field(torus21, X, surf.chart_grid(torus21, 8, 8))
        msg = str(exc.value)
        assert "ambient norm below 1e-09 at 8 grid node(s)" in msg
        assert "a non-finite ambient norm at 8 grid node(s)" in msg
        assert len(exc.value.points) == 16


def _caps(n):
    """Per-axis exponent caps for n axes, None entries included, or None."""
    axis = st.one_of(st.none(), st.integers(0, 4))
    return st.one_of(st.none(), st.tuples(*[axis] * n))


def _within(exps, caps):
    """The exponent rows within caps, by a loop over the rows."""
    caps = (None,) * exps.shape[1] if caps is None else caps
    return np.array([all(c is None or e <= c for e, c in zip(row, caps))
                     for row in exps], dtype=bool)


class TestMonomials:
    def test_graded_lexicographic_order(self):
        exps = ap.monomial_exponents(2, 2)
        expected = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert [tuple(e) for e in exps] == expected

    def test_count_matches_binomial(self):
        from math import comb
        for n, d in ((3, 10), (4, 6)):
            assert len(ap.monomial_exponents(n, d)) == comb(n + d, n)

    def test_matrix_values(self):
        pts = np.array([[2.0, 3.0]])
        exps = ap.monomial_exponents(2, 2)
        V = approx_oracle.monomial_matrix(pts, exps)
        np.testing.assert_allclose(V[0], [1, 2, 3, 4, 6, 9])

    def test_exponents_match_sorted_reference(self):
        for n in range(1, 5):
            for d in range(13):
                ref = sorted((e for e in itertools.product(range(d + 1), repeat=n)
                              if sum(e) <= d),
                             key=lambda e: (sum(e), tuple(-x for x in e)))
                np.testing.assert_array_equal(ap.monomial_exponents(n, d),
                                              np.array(ref, dtype=int).reshape(-1, n))

    @settings(max_examples=60)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.integers(0, 12),
        hnp.arrays(float, st.tuples(st.integers(1, 16), st.just(n)),
                   elements=st.floats(-3.0, 3.0)))))
    def test_layered_basis_matches_matrix(self, case):
        degree, pts = case
        layers = list(ap._monomial_layers(pts.T, degree))
        assert all(b.flags.c_contiguous and b.shape[1] == len(pts) for b in layers)
        layered = np.concatenate(layers)            # (K, m), node-last
        ref = approx_oracle.monomial_matrix(pts,
                                            ap.monomial_exponents(pts.shape[1], degree))
        # atol only absorbs subnormal partial products of tiny coordinates
        np.testing.assert_allclose(layered, ref.T, rtol=1e-13, atol=1e-290)

    @settings(max_examples=80)
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
        st.integers(0, 12), _caps(n),
        hnp.arrays(float, st.tuples(st.integers(1, 8), st.just(n)),
                   elements=st.floats(-3.0, 3.0)))))
    def test_capped_layers_are_the_capped_rows_of_the_full_layers(self, case):
        degree, caps, pts = case
        exps = ap.monomial_exponents(pts.shape[1], degree)
        capped = list(ap._monomial_layers(pts.T, degree, caps=caps))
        assert len(capped) == degree + 1
        row = 0
        for full, layer in zip(ap._monomial_layers(pts.T, degree), capped):
            keep = _within(exps[row:row + len(full)], caps)
            assert layer.flags.c_contiguous
            assert np.array_equal(layer, full[keep])
            row += len(full)

    @settings(max_examples=80)
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, 12), _caps(n))))
    def test_capped_exponents_are_the_filtered_full_list(self, case):
        n, degree, caps = case
        full = ap.monomial_exponents(n, degree)     # graded lex, tested above
        capped = ap.monomial_exponents(n, degree, caps)
        np.testing.assert_array_equal(capped, full[_within(full, caps)])

    @settings(max_examples=200)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, 16), _caps(n))))
    def test_layer_table_matches_the_count_recursion(self, case):
        # the pairs counted on the cached rows are those of the combinatorial
        # count, and the rows those its pairs build
        n, degree, caps = case
        layers = ap._layers(n, degree, caps)
        assert len(layers) == degree + 1
        for t, (_, sources) in enumerate(layers):
            assert list(sources) == approx_oracle.layer_sources(n, t, caps)
        np.testing.assert_array_equal(np.concatenate([rows for rows, _ in layers]),
                                      approx_oracle.monomial_exponents(n, degree, caps))

    def test_deep_basis_recurses_one_layer_at_a_time(self):
        exps = ap.monomial_exponents(1, 5000)
        assert exps.shape == (5001, 1) and exps[-1, 0] == 5000

    def test_cached_rows_are_read_only_and_exponents_fresh(self):
        rows = ap._layers(3, 4, (1, None, 2))[4][0]
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 7
        exps = ap.monomial_exponents(3, 4, (1, None, 2))
        assert exps.flags.writeable and exps.flags.owndata
        exps[:] = -1
        assert np.array_equal(ap.monomial_exponents(3, 4, (1, None, 2)),
                              approx_oracle.monomial_exponents(3, 4, (1, None, 2)))

    @settings(max_examples=15)
    @given(st.sampled_from(["sphere", "ellipsoid", "clifford_torus"]),
           st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
           st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_caps_are_sound(self, kind, params, degree, seed):
        # modulo the surface's equations each dropped monomial is a
        # combination of the kept ones, so on the surface its column lies
        # in their span
        S = surf.make_surface(kind, params[:len(surf.SURFACE_KINDS[kind].params)])
        rect = S.chart_rect
        rng = np.random.default_rng(seed)
        pts = S.embed(rng.uniform(rect.u0, rect.u1, 200),
                      rng.uniform(rect.v0, rect.v1, 200))
        exps = ap.monomial_exponents(S.ambient_dim, degree)
        V = approx_oracle.monomial_matrix(pts, exps)
        keep = _within(exps, S.monomial_caps)
        assert not np.all(keep)
        kept, dropped = V[:, keep], V[:, ~keep]
        kept = kept / np.max(np.abs(kept), axis=0)      # as the fit scales them
        x = np.linalg.lstsq(kept, dropped, rcond=None)[0]
        residual = np.linalg.norm(kept @ x - dropped, axis=0)
        assert np.all(residual <= 1e-10 * np.linalg.norm(dropped, axis=0))


class TestEvaluation:
    @settings(max_examples=20)
    @given(st.integers(1, 4), st.integers(0, 6),
           st.sampled_from([0, 1, ap.EVAL_CHUNK, ap.EVAL_CHUNK + 1]),
           st.integers(0, 2**32 - 1))
    def test_chunking_matches_unchunked_reference(self, n, degree, rows, seed):
        rng = np.random.default_rng(seed)
        exps = ap.monomial_exponents(n, degree)
        coeff = rng.standard_normal((n, len(exps)))
        pts = rng.uniform(-3.0, 3.0, (rows, n))
        poly = ap.PolynomialField(
            ambient_dim=n, degree=degree, exponents=exps, coefficients=coeff,
            sup_error=np.nan, fit_grid=(), verify_grid=(), rcond=np.nan)
        V = approx_oracle.monomial_matrix(pts, exps)
        out = ap.evaluate_polynomial_field(poly, pts)
        assert out.shape == (rows, n)
        bound = 1e-13 * (np.abs(V) @ np.abs(coeff).T)
        assert np.all(np.abs(out - V @ coeff.T) <= bound)

    @settings(max_examples=80)
    @given(n=st.integers(1, 4), degree=st.integers(0, 10),
           chunk=st.sampled_from([1, 5, 64, ap.EVAL_CHUNK]),
           blocks=st.integers(0, 2), extra=st.integers(-1, 1),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_layer_buffers_match_fresh_layers(self, n, degree, chunk, blocks, extra,
                                              seed, data):
        # node counts on both sides of every chunk boundary
        rows = max(0, blocks * chunk + extra)
        rng = np.random.default_rng(seed)
        exps = ap.monomial_exponents(n, degree)
        caps = data.draw(_caps(n))
        coeff = np.where(_within(exps, caps), rng.standard_normal((3, len(exps))), 0.0)
        pts = rng.uniform(-3.0, 3.0, (rows, n))
        poly = ap.PolynomialField(
            ambient_dim=n, degree=degree, exponents=exps, coefficients=coeff,
            sup_error=np.nan, fit_grid=(), verify_grid=(), rcond=np.nan, caps=caps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ap, "EVAL_CHUNK", chunk)
            out = ap.evaluate_polynomial_field(poly, pts)
        ref = approx_oracle.evaluate_polynomial_field(poly, pts, chunk)
        assert out.shape == ref.shape == (rows, 3)
        assert np.array_equal(out, ref)


FAMILY_PARAMS = {"torus": (2.0, 1.0), "sphere": (1.0,), "clifford_torus": (1.0,),
                 "ellipsoid": (1.0, 1.3, 0.7)}


class TestGridPrediction:
    @settings(max_examples=60)
    @given(kind=st.sampled_from(sorted(FAMILY_PARAMS)), degree=st.integers(0, 12),
           capped=st.booleans(), nu=st.integers(4, 40), nv=st.integers(4, 40),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_axes_match_the_streamed_evaluation(self, kind, degree, capped, nu, nv,
                                                seed, data):
        # the prediction through the grid's axes is the polynomial at the
        # grid's positions up to rounding: per node within
        # 32 eps sum_e |c_e| |p^e| |q^e|.  Scales 10^e, |e| <= 30, while
        # 10^(e degree) stays finite; coefficients 10^(-e |e|) keep the
        # terms near 1
        if nu == nv:
            nv += 1
        lim = min(30, 280 // max(degree, 1))
        exponent = data.draw(st.integers(-lim, lim))
        scale = 10.0 ** exponent
        S = surf.make_surface(kind, [x * scale for x in FAMILY_PARAMS[kind]])
        samples = ap.sample_unit_field(S, op.coordinate_field(0),
                                       surf.chart_grid(S, nu, nv))
        caps = S.monomial_caps if capped else None
        exps = ap.monomial_exponents(S.ambient_dim, degree)
        rng = np.random.default_rng(seed)
        coeff = np.where(_within(exps, caps),
                         rng.standard_normal((S.ambient_dim, len(exps)))
                         * 10.0 ** (-exponent * exps.sum(axis=1)), 0.0)
        poly = ap.PolynomialField(
            ambient_dim=S.ambient_dim, degree=degree, exponents=exps,
            coefficients=coeff, sup_error=np.nan, fit_grid=(), verify_grid=(),
            rcond=np.nan, caps=caps)
        pred = ap._grid_prediction(poly, samples)
        ref = ap.evaluate_polynomial_field(poly, samples.positions)
        assert pred.shape == ref.shape == (nu * nv, S.ambient_dim)
        P, Q = (np.concatenate(list(approx_oracle.monomial_layers(
                    np.abs(factors(axis)[0]), degree, caps)))
                for factors, axis in zip((S.maps.u_factors, S.maps.v_factors), samples.axes))
        kept = np.abs(coeff[:, _within(exps, caps)])
        bound = 32 * np.finfo(float).eps * np.stack(
            [((P * c[:, None]).T @ Q).ravel() for c in kept], axis=1)
        assert np.all(np.abs(pred - ref) <= bound)

    def test_positions_are_the_embedding_on_the_grid(self, all_surfaces):
        for S in all_surfaces:
            grid = surf.chart_grid(S, 6, 9)
            samples = ap.sample_unit_field(S, op.coordinate_field(0), grid)
            assert samples.axes[0] is grid.u_nodes and samples.axes[1] is grid.v_nodes
            assert np.array_equal(samples.positions,
                                  S.embed(grid.U, grid.V).reshape(-1, S.ambient_dim))


# the smooth workload's two cases: torus fit up to degree 10, clifford to 8
BENCH_CASES = [("torus:2.2,1", "cos(4*u+v+1.3),sin(4*u+v+1.3)", (32, 32)),
               ("clifford_torus:1", "1,3.5*sin(2*u+0.7)*cos(3*v+2.1)", (24, 24))]


def _case(surface, field):
    return parse_surface(surface, parse_backend("analytic")), parse_field(field)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStageLifetimes:
    @pytest.mark.parametrize("surface,field,grid", BENCH_CASES)
    def test_smooth_field_matches_the_fresh_layer_path(self, monkeypatch, surface,
                                                        field, grid):
        # the oracle fits node by node on the flat grid, the package on its
        # two axes: the same run up to rounding.  Measured on both cases:
        # sup errors 1.2e-11 apart, min tangential norms 1.0e-11, rcond
        # 1.2e-10 relative, coefficients 2.7e-9 and smoothed values 1.0e-10
        # relative to their largest entry
        S, X = _case(surface, field)
        u, v = np.meshgrid(np.linspace(0.0, 6.0, 33), np.linspace(0.0, 6.0, 31))
        report, smooth, poly = ap.smooth_field(S, X, fit_grid=grid)
        values = smooth.coeff(u, v)
        monkeypatch.setattr(ap, "_fit_and_verify", approx_oracle.fit_and_verify)
        monkeypatch.setattr(ap, "evaluate_polynomial_field",
                            approx_oracle.evaluate_polynomial_field)
        ref_report, ref_smooth, ref_poly = ap.smooth_field(S, X, fit_grid=grid)
        ref_values = ref_smooth.coeff(u, v)
        for key in ("final_degree", "target", "passed", "degrees_tried"):
            assert getattr(report, key) == getattr(ref_report, key), key
        assert len(report.degrees_tried) >= 4
        assert len(report.sup_errors) == len(ref_report.sup_errors)
        gaps = np.subtract(report.sup_errors, ref_report.sup_errors)
        assert np.max(np.abs(gaps)) < 1e-9
        assert report.sup_error == report.sup_errors[-1] == poly.sup_error
        assert abs(report.min_tangential_norm - ref_report.min_tangential_norm) < 1e-9
        assert abs(poly.rcond - ref_poly.rcond) <= 1e-8 * ref_poly.rcond
        assert poly.coefficients.shape == ref_poly.coefficients.shape
        assert np.array_equal(poly.coefficients == 0.0, ref_poly.coefficients == 0.0)
        top = np.max(np.abs(ref_poly.coefficients))
        assert np.max(np.abs(poly.coefficients - ref_poly.coefficients)) <= 1e-7 * top
        assert values.shape == ref_values.shape
        assert np.max(np.abs(values - ref_values)) <= 1e-8 * np.max(np.abs(ref_values))

    @pytest.mark.parametrize("surface,field,grid", BENCH_CASES)
    def test_smoothing_never_streams_the_verification_grid(self, monkeypatch,
                                                          surface, field, grid):
        # every tried degree is certified through the grid's axes; a fall
        # back to the streamed evaluator fails here, with no clock involved
        calls = []
        streamed = ap.evaluate_polynomial_field
        monkeypatch.setattr(ap, "evaluate_polynomial_field",
                            lambda *a: calls.append(a) or streamed(*a))
        report = ap.smooth_field(*_case(surface, field), fit_grid=grid)[0]
        assert report.passed and len(report.degrees_tried) >= 4
        assert calls == []

    def test_fit_is_freed_before_verification(self):
        S, X = _case(*BENCH_CASES[1][:2])
        fit = ap.sample_unit_field(S, X, surf.chart_grid(S, 24, 24))
        verify = ap.sample_unit_field(S, X, surf.chart_grid(S, 96, 96))
        poly = ap._fit_and_verify(fit, 8, verify)[0]
        fit_peak = _traced_peak(ap._fit, fit, 8)
        verify_peak = _traced_peak(ap._grid_prediction, poly, verify)
        # the two stages' arrays are never alive together
        assert _traced_peak(ap._fit_and_verify, fit, 8, verify) <= (
            max(fit_peak, verify_peak) + 2**20)

    def test_fit_holds_no_fit_grid_basis(self):
        # the degree-10 torus fit (286 columns) works on the grid's two
        # axes: its gram and eigenvectors dominate, 1.5 MB measured, where
        # the (K, m) basis of the 32x32 fit grid and its transpose took 5.75
        S, X = _case(*BENCH_CASES[0][:2])
        fit = ap.sample_unit_field(S, X, surf.chart_grid(S, *BENCH_CASES[0][2]))
        assert _traced_peak(ap._fit, fit, 10) < 2 * 2**20


class TestBenchShape:
    """The smooth workload's degrees tried, which its timings rest on."""

    @pytest.mark.parametrize("case,degrees", zip(BENCH_CASES, [(2, 4, 6, 8, 10),
                                                               (2, 4, 6, 8)]))
    def test_bench_cases_keep_their_degrees(self, case, degrees):
        surface, field, grid = case
        report = ap.smooth_field(*_case(surface, field), fit_grid=grid)[0]
        assert report.degrees_tried == degrees
        assert report.passed

    @settings(max_examples=12)
    @given(st.floats(2.0, 2.5), *[st.floats(0.0, 2 * np.pi, exclude_max=True)] * 3)
    def test_workload_ranges_keep_their_degrees(self, big_r, p1, p2, q2):
        # the drawing ranges of the smooth workload, formatted as it does
        cases = [(f"torus:{big_r:.4f},1", f"cos(4*u+v+{p1:.4f}),sin(4*u+v+{p1:.4f})",
                  (32, 32), (2, 4, 6, 8, 10)),
                 ("clifford_torus:1", f"1,3.5*sin(2*u+{p2:.4f})*cos(3*v+{q2:.4f})",
                  (24, 24), (2, 4, 6, 8))]
        for surface, field, grid, degrees in cases:
            report = ap.smooth_field(*_case(surface, field), fit_grid=grid)[0]
            assert (report.degrees_tried, report.passed) == (degrees, True), surface


class TestFit:
    def test_exact_recovery_of_polynomial_field(self, clifford1):
        # the unit field of d/du is degree-1 in ambient coordinates
        X = op.coordinate_field(0)
        samples = ap.sample_unit_field(clifford1, X, surf.chart_grid(clifford1, 16, 16))
        poly = ap._fit_and_verify(samples, 2, _dense(samples, X))[0]
        assert poly.sup_error < 1e-8

    def test_degree_zero_has_positive_error(self, clifford1):
        X = op.coordinate_field(0)
        samples = ap.sample_unit_field(clifford1, X, surf.chart_grid(clifford1, 16, 16))
        poly = ap._fit_and_verify(samples, 0, _dense(samples, X))[0]
        assert poly.sup_error > 0.5

    def test_degree_ten_on_torus_stays_stable(self, torus21):
        # monomials are exactly dependent on the quartic surface; the
        # truncated solve must digest that and still certify the budget
        X = kinked_mixture_field()
        samples = ap.sample_unit_field(torus21, X, surf.chart_grid(torus21, 64, 64))
        poly = ap._fit_and_verify(samples, 10, _dense(samples, X))[0]
        assert poly.rcond < 1e-10
        assert poly.sup_error < 0.5
        assert np.all(np.isfinite(poly.coefficients))

    def test_rank_deficient_error_on_bad_data(self, clifford1):
        # the fit reads the grid's axes and the values, not the positions
        samples = ap.sample_unit_field(clifford1, op.coordinate_field(0),
                                       surf.chart_grid(clifford1, 8, 8))
        u_nodes = samples.axes[0].copy()
        u_nodes[3] = np.nan
        values = samples.values.copy()
        values[5, 1] = np.nan
        for broken, match in (
                (replace(samples, axes=(u_nodes, samples.axes[1])), "monomial matrix"),
                (replace(samples, values=values), "normal system")):
            with pytest.raises(RankDeficientFitError, match=match):
                ap._fit_and_verify(broken, 2, samples)

    @pytest.mark.parametrize("surface,field,grid", BENCH_CASES)
    def test_node_last_sup_error_is_the_norm_max(self, surface, field, grid):
        # summed node-last and rooted once, the sup error is the row norms'
        # max to the bit at every degree the case tries, and a NaN node
        # propagates on both sides
        S, X = _case(surface, field)
        degrees = ap.smooth_field(S, X, fit_grid=grid)[0].degrees_tried
        fit = ap.sample_unit_field(S, X, surf.chart_grid(S, *grid))
        verify = _dense(fit, X)
        assert verify.values.T.flags.c_contiguous
        for degree in degrees:
            poly, pred = ap._fit_and_verify(fit, degree, verify)
            assert poly.sup_error == float(
                np.max(np.linalg.norm(pred - verify.values, axis=1)))
        pred[len(pred) // 3, 1] = np.nan
        assert np.isnan(ap._sup_error(pred, verify.values))
        assert np.isnan(np.max(np.linalg.norm(pred - verify.values, axis=1)))


# entrywise gap between the axis-built and the flat normal system, relative
# to the gram's largest entry: measured at most 18.8 eps (gram) and 22.8 eps
# (right-hand side) over 3000 random cases of the property below
GRAM_GAP = 64 * np.finfo(float).eps


def _smoothing_report(S, X, grid, max_degree):
    try:
        return ap.smooth_field(S, X, max_degree=max_degree, fit_grid=grid)[0]
    except BudgetNotMetError as exc:
        return exc.report


class TestAxisNormalSystem:
    @settings(max_examples=60)
    @given(kind=st.sampled_from(sorted(FAMILY_PARAMS)), degree=st.integers(0, 10),
           nu=st.integers(4, 40), nv=st.integers(4, 40), k=st.integers(-4, 4),
           l=st.integers(-4, 4), phase=st.floats(0.0, 2 * np.pi))
    def test_axis_gram_matches_the_flat_gram(self, kind, degree, nu, nv, k, l, phase):
        S = surf.make_surface(kind, FAMILY_PARAMS[kind])
        angle = f"{k}*u+{l}*v+{phase:.6f}"
        X = parse_field(f"cos({angle}),sin({angle})")
        samples = ap.sample_unit_field(S, X, surf.chart_grid(S, nu, nv))
        A, b, scale = ap._normal_system(samples, degree)
        ref_A, ref_b, ref_scale = approx_oracle.normal_system(samples, degree)
        # every scaled entry is at most 1 in size, so the constant column
        # gives the gram's largest entry, the node count, which also bounds
        # the terms of b; b's own largest entry may be rounding noise, for a
        # field orthogonal to every column
        top = np.max(np.abs(ref_A))
        assert top == nu * nv
        assert A.shape == ref_A.shape and b.shape == ref_b.shape
        assert np.max(np.abs(A - ref_A)) <= GRAM_GAP * top
        assert np.max(np.abs(b - ref_b)) <= GRAM_GAP * top
        np.testing.assert_allclose(scale, ref_scale, rtol=16 * np.finfo(float).eps)
        # and the smoothing run escalates the same way through either fit
        report = _smoothing_report(S, X, (nu, nv), degree)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ap, "_fit_and_verify", approx_oracle.fit_and_verify)
            ref = _smoothing_report(S, X, (nu, nv), degree)
        assert (report.degrees_tried, report.final_degree, report.passed) == (
            ref.degrees_tried, ref.final_degree, ref.passed)


def _inverse_projection(surface, vectors, u, v):
    """Reference projection J (J^T J)^-1 J^T w by matrix inversion."""
    jac = surface.jacobian(u, v)
    g_inv = np.linalg.inv(np.einsum("...ai,...aj->...ij", jac, jac))
    coeff = np.einsum("...ij,...aj,...a->...i", g_inv, jac, vectors)
    return np.einsum("...ai,...i->...a", jac, coeff)


SURFACES = (("torus", (2.0, 1.0)), ("sphere", (1.0,)), ("clifford_torus", (1.0,)),
            ("ellipsoid", (1.0, 1.3, 0.7)))


class TestProjection:
    @settings(max_examples=40)
    @given(st.sampled_from(SURFACES), st.sampled_from(("analytic", "fd")),
           st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_matches_inverse_formula_and_is_idempotent(self, kind, mode, m, seed):
        surface = surf.make_surface(*kind, mode=mode)
        rect = surface.chart_rect
        rng = np.random.default_rng(seed)
        # nodes anywhere in the guarded chart, the guard band's edges included
        pad_u = 0.0 if rect.periodic_u else surf.GUARD_BAND
        u = rng.uniform(rect.u0 + pad_u, rect.u1 - pad_u, m)
        u[:2] = [rect.u0 + pad_u, rect.u1 - pad_u][:m]
        v = rng.uniform(rect.v0, rect.v1, m)
        w = (rng.standard_normal((m, surface.ambient_dim))
             * 10.0 ** rng.uniform(-6, 6, (m, 1)))
        out = ap.project_to_tangent(surface, w, u, v)
        ref = _inverse_projection(surface, w, u, v)
        assert out.shape == (m, surface.ambient_dim)
        # relative to the input: projected components may cancel to zero
        scale = np.linalg.norm(w, axis=-1)
        assert np.all(np.linalg.norm(out - ref, axis=-1) <= 1e-13 * scale)
        again = ap.project_to_tangent(surface, out, u, v)
        assert np.all(np.linalg.norm(again - out, axis=-1) <= 1e-13 * scale)

    def test_degenerate_point_raises(self, sphere1):
        w = np.array([0.3, -0.2, 0.9])
        with pytest.raises(DegenerateMetricError) as exc:
            ap.project_to_tangent(sphere1, w, 0.0, 0.3)
        assert exc.value.point == surf.ChartPoint(0.0, 0.3)
        assert "(u, v) = (0, 0.3)" in str(exc.value)
        field = ap.chart_coefficients_field(sphere1, ap.PolynomialField(
            ambient_dim=3, degree=0, exponents=ap.monomial_exponents(3, 0),
            coefficients=w[:, None], sup_error=np.nan, fit_grid=(),
            verify_grid=(), rcond=np.nan))
        with pytest.raises(DegenerateMetricError):
            field.coeff(np.array([0.5, np.pi]), np.array([0.1, 0.3]))

    def test_overflowing_metric_raises(self):
        # det g = 1e160 at u = pi/2 would square to inf
        with pytest.raises(DegenerateMetricError, match="det g = 1.000e\\+160"):
            ap.project_to_tangent(surf.sphere(1e40), np.array([0.3, -0.2, 0.9]),
                                  np.pi / 2, 0.3)

    def test_fixes_tangent_vectors(self, torus21):
        jac = torus21.jacobian(0.7, 1.1)
        w = jac @ np.array([0.3, -0.8])
        out = ap.project_to_tangent(torus21, w, 0.7, 1.1)
        np.testing.assert_allclose(out, w, atol=1e-13)

    def test_kills_normal_vector(self, torus21):
        u, v = 0.7, 1.1
        normal = np.array([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)])
        out = ap.project_to_tangent(torus21, normal, u, v)
        np.testing.assert_allclose(out, 0.0, atol=1e-13)

    def test_recovers_unit_field_from_offset(self, torus21):
        grid = surf.chart_grid(torus21, 8, 8)
        samples = ap.sample_unit_field(torus21, op.coordinate_field(0), grid)
        i = 11
        u, v = samples.chart_u[i], samples.chart_v[i]
        normal = np.array([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)])
        out = ap.project_to_tangent(torus21, samples.values[i] + 0.3 * normal, u, v)
        np.testing.assert_allclose(out, samples.values[i], atol=1e-13)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-13

    def test_polynomial_projection_wrapper(self, clifford1):
        X = op.coordinate_field(0)
        samples = ap.sample_unit_field(clifford1, X, surf.chart_grid(clifford1, 8, 8))
        poly = ap._fit_and_verify(samples, 2, _dense(samples, X))[0]
        jac = clifford1.jacobian(0.4, 1.2)
        out = jac @ ap.chart_coefficients_field(clifford1, poly).coeff(0.4, 1.2)
        expected = X.coeff(0.4, 1.2)  # du has unit pushforward here
        ambient = jac @ expected / np.linalg.norm(jac @ expected)
        np.testing.assert_allclose(out, ambient, atol=1e-8)


class TestSmoothField:
    def test_smooth_input_low_degree(self, torus21):
        rep, field, poly = ap.smooth_field(torus21, op.coordinate_field(0),
                                           max_degree=16, fit_grid=(32, 32))
        assert rep.passed
        assert rep.final_degree <= 8
        assert rep.min_tangential_norm > 0.5

    def test_kinked_certifies_within_degree_sixteen(self, torus21):
        rep, field, poly = ap.smooth_field(torus21, kinked_mixture_field(),
                                           max_degree=16)
        assert rep.passed
        assert rep.final_degree <= 16
        assert rep.sup_error < 0.5
        assert rep.min_tangential_norm > 0.5
        assert poly.verify_grid == (256, 256)

    def test_verify_grid_density(self, clifford1):
        poly = ap.smooth_field(clifford1, op.coordinate_field(0), max_degree=2,
                               fit_grid=(8, 8))[2]
        assert poly.fit_grid == (8, 8)
        assert poly.verify_grid == (32, 32)

    def test_budget_not_met_when_no_degrees(self, torus21):
        with pytest.raises(BudgetNotMetError) as exc:
            ap.smooth_field(torus21, kinked_mixture_field(), max_degree=0)
        assert exc.value.report is not None
        assert not exc.value.report.passed

    def test_sup_error_history_on_pass(self, torus21):
        rep, _, poly = ap.smooth_field(torus21, kinked_mixture_field(),
                                       max_degree=16, fit_grid=(32, 32))
        assert rep.passed
        assert len(rep.sup_errors) == len(rep.degrees_tried)
        assert rep.sup_errors[-1] == rep.sup_error == poly.sup_error
        assert all(e >= ap.ERROR_BUDGET for e in rep.sup_errors[:-1])

    def test_sup_error_history_on_budget_not_met(self, torus21):
        X = expression_field("cos(4*u+v)", "sin(4*u+v)")
        with pytest.raises(BudgetNotMetError) as exc:
            ap.smooth_field(torus21, X, max_degree=4, fit_grid=(32, 32))
        rep = exc.value.report
        assert rep.degrees_tried == (2, 4)
        assert len(rep.sup_errors) == 2
        assert rep.sup_error == min(rep.sup_errors)
        assert all(e >= ap.ERROR_BUDGET for e in rep.sup_errors)

    def test_projection_nonexpansive_forces_nonvanishing(self, torus21):
        # |T - Z| <= |P - Z| pointwise, Z unit, so sup < 1/2 keeps |T| > 1/2
        rep, _, poly = ap.smooth_field(torus21, kinked_mixture_field(), max_degree=16)
        verify = ap.sample_unit_field(torus21, kinked_mixture_field(),
                                      surf.chart_grid(torus21, *poly.verify_grid))
        pred = ap.evaluate_polynomial_field(poly, verify.positions)
        proj = ap.project_to_tangent(torus21, pred, verify.chart_u, verify.chart_v)
        err_p = np.linalg.norm(pred - verify.values, axis=1)
        err_t = np.linalg.norm(proj - verify.values, axis=1)
        assert np.max(err_t - err_p) <= 1e-12
        assert rep.min_tangential_norm > 0.5 - 1e-9
        assert rep.min_tangential_norm >= 1.0 - rep.sup_error - 1e-12

    def test_tangential_normal_split_is_orthogonal(self, torus21):
        rep, _, poly = ap.smooth_field(torus21, kinked_mixture_field(), max_degree=16)
        verify = ap.sample_unit_field(torus21, kinked_mixture_field(),
                                      surf.chart_grid(torus21, *poly.verify_grid))
        pred = ap.evaluate_polynomial_field(poly, verify.positions)
        proj = ap.project_to_tangent(torus21, pred, verify.chart_u, verify.chart_v)
        dots = np.einsum("ij,ij->i", proj, pred - proj)
        assert np.max(np.abs(dots)) < 1e-10

    def test_ambient_dimension_generic(self, clifford1):
        # the identical code path runs in R^4
        T = op.constant_field(np.sqrt(2.0), 0.0)
        rep, field, poly = ap.smooth_field(clifford1, T, max_degree=16,
                                           fit_grid=(32, 32))
        assert rep.passed
        assert poly.ambient_dim == 4
        assert rep.final_degree == 2
        assert rep.sup_error < 1e-8

    def test_output_field_is_numerically_smooth(self, torus21):
        rep, field, _ = ap.smooth_field(torus21, kinked_mixture_field(),
                                        max_degree=16, fit_grid=(32, 32))
        # second-order convergence of difference quotients certifies
        # differentiability of the output coefficients
        coeff = lambda u, v: np.moveaxis(field.coeff(u, v), -1, 0)   # node-last
        ref = _stencils.partials(coeff, 1.234, 2.345, 5e-4, 1)[1]
        errs = [np.max(np.abs(_stencils.partials(coeff, 1.234, 2.345, h, 1)[1] - ref))
                for h in (4e-2, 2e-2, 1e-2)]
        order = np.polyfit(np.log([4e-2, 2e-2, 1e-2]), np.log(errs), 1)[0]
        assert order >= 2.0


class TestCoefficientFile:
    def test_round_trip(self, clifford1, tmp_path):
        X = op.coordinate_field(0)
        samples = ap.sample_unit_field(clifford1, X, surf.chart_grid(clifford1, 8, 8))
        poly = ap._fit_and_verify(samples, 2, _dense(samples, X))[0]
        path = tmp_path / "coeffs.txt"
        ap.write_coefficient_file(poly, path)
        text = path.read_text().splitlines()
        assert text[0] == "ambient_dim 4"
        assert text[1] == "degree 2"
        assert text[2] == "monomial_ordering graded-lexicographic"
        back = ap.read_coefficient_file(path)
        np.testing.assert_allclose(back.coefficients, poly.coefficients, rtol=1e-15)
        np.testing.assert_array_equal(back.exponents, poly.exponents)

    def test_capped_fit_writes_every_graded_lex_term(self, clifford1, tmp_path):
        X = expression_field("1", "3.5*sin(2*u+0.7)*cos(3*v+2.1)")
        samples = ap.sample_unit_field(clifford1, X, surf.chart_grid(clifford1, 12, 12))
        poly = ap._fit_and_verify(samples, 4, _dense(samples, X))[0]
        outside = (poly.exponents[:, 0] > 1) | (poly.exponents[:, 2] > 1)
        assert poly.caps == clifford1.monomial_caps == (1, None, 1, None)
        assert poly.coefficients.shape == (4, comb(8, 4))
        assert np.all(poly.coefficients[:, outside] == 0.0)
        assert np.all(np.any(poly.coefficients[:, ~outside] != 0.0, axis=0))
        path = tmp_path / "c.txt"
        ap.write_coefficient_file(poly, path)
        lines = path.read_text().splitlines()
        assert lines[4] == f"terms {comb(8, 4)}"
        rows = [line.split() for line in lines[5:]]
        assert len(rows) == 4 and all(len(row) == comb(8, 4) for row in rows)
        assert all(row[k] == "0" for row in rows for k in np.flatnonzero(outside))

    def test_clifford_file_evaluates_as_the_capped_fit(self, capsys, tmp_path):
        surface, field, grid = BENCH_CASES[1]
        path = tmp_path / "c.txt"
        assert cli.main(["smooth", "--surface", surface, "--field", field, "--grid",
                         "x".join(map(str, grid)), "--coeff-out", str(path)]) == 0
        capsys.readouterr()
        S, X = _case(surface, field)
        poly = ap.smooth_field(S, X, fit_grid=grid)[2]
        back = ap.read_coefficient_file(path)
        assert back.caps == poly.caps == S.monomial_caps
        np.testing.assert_array_equal(back.coefficients, poly.coefficients)
        verify = surf.chart_grid(S, *poly.verify_grid)
        pts = S.embed(verify.U, verify.V).reshape(-1, S.ambient_dim)
        assert np.array_equal(ap.evaluate_polynomial_field(back, pts),
                              ap.evaluate_polynomial_field(poly, pts))

    def test_torus_file_stays_uncapped(self, torus21, tmp_path):
        X = kinked_mixture_field()
        samples = ap.sample_unit_field(torus21, X, surf.chart_grid(torus21, 16, 16))
        poly = ap._fit_and_verify(samples, 4, _dense(samples, X))[0]
        path = tmp_path / "t.txt"
        ap.write_coefficient_file(poly, path)
        assert poly.caps is None and ap.read_coefficient_file(path).caps is None

    @settings(max_examples=40)
    @given(n=st.integers(1, 4), degree=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_caps_are_read_off_the_zero_pattern(self, n, degree, seed, data):
        # the tightest caps holding every nonzero coefficient; an axis that
        # reaches the degree is uncapped
        caps = data.draw(_caps(n))
        exps = ap.monomial_exponents(n, degree)
        rng = np.random.default_rng(seed)
        coeff = np.where(_within(exps, caps), rng.standard_normal((2, len(exps))), 0.0)
        poly = ap.PolynomialField(
            ambient_dim=n, degree=degree, exponents=exps, coefficients=coeff,
            sup_error=np.nan, fit_grid=(), verify_grid=(), rcond=np.nan, caps=caps)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.txt"
            ap.write_coefficient_file(poly, path)
            back = ap.read_coefficient_file(path)
        tight = tuple(None if c is None or c >= degree else c
                      for c in ap._axis_caps(n, caps))
        assert back.caps == (None if all(c is None for c in tight) else tight)
        pts = rng.uniform(-2.0, 2.0, (50, n))
        np.testing.assert_allclose(ap.evaluate_polynomial_field(back, pts),
                                   ap.evaluate_polynomial_field(poly, pts),
                                   rtol=1e-12, atol=1e-12)

    def test_nonzero_coefficient_outside_the_caps_is_rejected(self):
        exps = ap.monomial_exponents(3, 2)
        coeff = np.zeros((1, len(exps)))
        coeff[0, 4] = 1.0                          # x0^2
        assert tuple(exps[4]) == (2, 0, 0)
        fields = dict(ambient_dim=3, degree=2, exponents=exps, sup_error=np.nan,
                      fit_grid=(), verify_grid=(), rcond=np.nan)
        with pytest.raises(ValueError, match="outside the monomial caps"):
            ap.PolynomialField(coefficients=coeff, caps=(1, None, None), **fields)
        ap.PolynomialField(coefficients=coeff, caps=(2, None, None), **fields)
        ap.PolynomialField(coefficients=coeff, **fields)

    def test_header_is_checked_before_the_basis_is_built(self, tmp_path):
        # a degree that disagrees with the term count would otherwise fill
        # the layer cache with a basis of C(100004, 4) rows
        path = tmp_path / "c.txt"
        path.write_text("ambient_dim 4\ndegree 100000\nmonomial_ordering "
                        "graded-lexicographic\ncomponents 1\nterms 3\n1 2 3\n")
        cached = ap._layer.cache_info().currsize
        with pytest.raises(ValueError, match="inconsistent with its header"):
            ap.read_coefficient_file(path)
        assert ap._layer.cache_info().currsize == cached

    def test_seventeen_digit_precision(self, tmp_path):
        poly = ap.PolynomialField(
            ambient_dim=2, degree=1, exponents=ap.monomial_exponents(2, 1),
            coefficients=np.array([[1.0 / 3.0, np.pi, -2.0 / 7.0]]),
            sup_error=0.0, fit_grid=(4, 4), verify_grid=(16, 16), rcond=1.0)
        path = tmp_path / "c.txt"
        ap.write_coefficient_file(poly, path)
        back = ap.read_coefficient_file(path)
        np.testing.assert_array_equal(back.coefficients, poly.coefficients)
