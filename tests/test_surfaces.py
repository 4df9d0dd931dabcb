import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bochner2d import _jets, _stencils
from bochner2d import operators as op
from bochner2d import surfaces as surf
from bochner2d.errors import DegenerateMetricError, InvalidParameterError

import metric_oracle
from conftest import interior_points, non_finite_parameters
from stencil_oracle import diff1, diff2


def test_torus_embed_origin(torus21):
    np.testing.assert_allclose(torus21.embed(0.0, 0.0), [3.0, 0.0, 0.0], atol=1e-15)


def test_clifford_points_on_unit_sphere(clifford1):
    u, v = interior_points(clifford1, 20)
    norms = np.linalg.norm(clifford1.embed(u, v), axis=-1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-14)


@pytest.mark.parametrize("kind,params", [
    ("torus", (1.0, 2.0)),       # tube radius exceeds ring radius
    ("torus", (2.0, -1.0)),
    ("sphere", (-1.0,)),
    ("sphere", (0.0,)),
    ("ellipsoid", (1.0, -1.3, 0.7)),
    ("clifford_torus", (0.0,)),
    *non_finite_parameters(),
])
def test_invalid_parameters(kind, params):
    with pytest.raises(InvalidParameterError):
        surf.make_surface(kind, params)


@pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf, 0.0])
def test_fd_step_must_be_positive_and_finite(step):
    with pytest.raises(InvalidParameterError, match="positive and finite"):
        surf.torus(2.0, 1.0, mode="fd", step=step)


@pytest.mark.parametrize("kind", sorted(surf.SURFACE_KINDS))
def test_wrong_parameter_count(kind):
    spec = surf.SURFACE_KINDS[kind]
    for count in range(5):
        if count == len(spec.params) or (count == 0 and spec.defaults):
            continue
        with pytest.raises(InvalidParameterError, match="takes parameters"):
            surf.make_surface(kind, (4.0, 3.0, 2.0, 1.0)[:count])


@pytest.mark.parametrize("kind,params,name", [
    ("sphere", (), "sphere(1)"),
    ("sphere", [2.5], "sphere(2.5)"),
    ("torus", [2, 1], "torus(2,1)"),
    ("clifford_torus", (), "clifford_torus(1)"),
    ("ellipsoid", (1.0, 1.3, 0.7), "ellipsoid(1,1.3,0.7)"),
])
def test_names_and_parameters(kind, params, name):
    s = surf.make_surface(kind, params)
    spec = surf.SURFACE_KINDS[kind]
    assert s.name == name
    assert tuple(s.params) == spec.params
    assert tuple(s.params.values()) == (tuple(map(float, params)) or spec.defaults)
    assert (s.ambient_dim, s.known_chi, s.chart_rect) == (
        spec.ambient_dim, spec.known_chi, spec.chart_rect)


def test_unknown_kind_and_mode():
    with pytest.raises(InvalidParameterError):
        surf.make_surface("mobius", (1.0,))
    with pytest.raises(InvalidParameterError):
        surf.make_surface("sphere", (1.0,), mode="symbolic")


def test_torus_metric_closed_form(torus21):
    u, v = interior_points(torus21, 15)
    geo = op.local_geometry(torus21, u, v)
    expected = np.zeros(u.shape + (2, 2))
    expected[..., 0, 0] = (2.0 + np.cos(v)) ** 2
    expected[..., 1, 1] = 1.0
    np.testing.assert_allclose(geo.g, expected, atol=1e-13)


def test_clifford_metric_constant(clifford1):
    u, v = interior_points(clifford1, 10)
    geo = op.local_geometry(clifford1, u, v)
    np.testing.assert_allclose(geo.g, np.broadcast_to(0.5 * np.eye(2), u.shape + (2, 2)),
                               atol=1e-15)
    np.testing.assert_allclose(geo.dg, 0.0, atol=1e-15)
    np.testing.assert_allclose(geo.ddg, 0.0, atol=1e-15)


def test_sphere_metric_closed_form(sphere1):
    u, v = interior_points(sphere1, 10)
    geo = op.local_geometry(sphere1, u, v)
    np.testing.assert_allclose(geo.g[..., 0, 0], 1.0, atol=1e-14)
    np.testing.assert_allclose(geo.g[..., 1, 1], np.sin(u) ** 2, atol=1e-14)
    np.testing.assert_allclose(geo.g[..., 0, 1], 0.0, atol=1e-14)


def degenerate_nodes(s, u, v):
    """{flat node index: message} of the nodes an order-2 assembly on (u, v)
    finds degenerate, each message built from that assembly's det g as
    `verify` builds it."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    g, _, _, det = surf._assemble(s, u, v, 2)
    return {int(i): str(surf._degenerate_error(s, det.flat[i], u.flat[i], v.flat[i]))
            for i in np.flatnonzero(~surf._nondegenerate(g, det))}


def test_sphere_pole_is_degenerate(sphere1):
    with pytest.raises(DegenerateMetricError):
        op.local_geometry(sphere1, 1e-7, 0.3)


@pytest.mark.parametrize("mode", ["analytic", "fd"])
@pytest.mark.parametrize("radius", [1e-30, 1e-3, 1.0, 1e3, 1e30])
def test_chart_singularity_does_not_depend_on_scale(mode, radius):
    # det g / (tr g)^2 = sin^2 u / (1 + sin^2 u)^2 at every radius: the pole's
    # neighbourhood is singular and the equator is not, whatever the scale
    s = surf.sphere(radius, mode=mode)
    assert op.local_geometry(s, np.pi / 2, 0.3).det_g == pytest.approx(radius ** 4)
    with pytest.raises(DegenerateMetricError, match="det g = "):
        op.local_geometry(s, 1e-7, 0.3)
    assert list(degenerate_nodes(s, [1e-7, 1e-5, np.pi / 2], 0.3)) == [0]


@pytest.mark.parametrize("mode", ["analytic", "fd"])
def test_det_g_at_or_below_det_min_is_degenerate(mode):
    # det g = r^4 sin^2 u: at r = 1e-38 it falls below DET_MIN near the
    # poles only, at r = 1e-40 everywhere, so (det g)^2 cannot underflow
    u = np.array([0.05, np.pi / 2])
    assert degenerate_nodes(surf.sphere(1e-38, mode=mode), u, 0.3).keys() == {0}
    assert degenerate_nodes(surf.sphere(1e-40, mode=mode), u, 0.3).keys() == {0, 1}
    assert surf.DET_MIN ** 2 > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", ["analytic", "fd"])
def test_det_g_above_det_max_or_nan_is_degenerate(mode):
    # det g = r^4 sin^2 u: 1e152 is admitted and 1e156 exceeds DET_MAX; at
    # r = 1e160 the metric's own terms overflow and det g is inf - inf = NaN
    ok = surf.sphere(1e38, mode=mode)
    assert op.local_geometry(ok, np.pi / 2, 0.3).det_g <= surf.DET_MAX
    u = np.array([0.1, np.pi / 2])

    def screens(radius):
        # the screen of an assembly of each order, then the public query
        s = surf.sphere(radius, mode=mode)
        for order in (0, 1, 2):
            g, _, _, det = surf._assemble(s, u, 0.3, order)
            yield functools.partial(surf._require_nondegenerate, s, g, det, u, 0.3)
        yield functools.partial(op.local_geometry, s, u, 0.3)

    for check in screens(1e39):
        with pytest.raises(DegenerateMetricError, match="det g = 1.000e\\+156") as exc:
            check()
        assert exc.value.point == surf.ChartPoint(np.pi / 2, 0.3)
    for check in screens(1e160):
        with pytest.raises(DegenerateMetricError, match="det g = nan"):
            check()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", ["analytic", "fd"])
@pytest.mark.parametrize("kind,params", [
    ("sphere", (1e-40,)), ("sphere", (1e-38,)), ("sphere", (1e40,)),
    ("sphere", (1e160,)), ("torus", (2e40, 1e40)), ("ellipsoid", (1.0, 1.3, 0.7))])
def test_degenerate_nodes_name_each_node_as_local_geometry(kind, params, mode):
    # det g is the same to the bit at every order and on the grid's axes as
    # on its flat nodes, so each node an order-2 assembly of the grid finds
    # degenerate carries the message local_geometry raises there alone
    s = surf.make_surface(kind, params, mode=mode)
    grid = surf.chart_grid(s, 12, 12)
    u, v = grid.U.ravel(), grid.V.ravel()
    axes = surf._assemble(s, grid.u_nodes[:, None], grid.v_nodes[None, :], 2)[3]
    for det in (surf._assemble(s, u, v, 0)[3], surf._assemble(s, u, v, 2)[3]):
        assert np.array_equal(det, axes.ravel(), equal_nan=True)
    expected = {}
    for i in range(u.size):
        try:
            op.local_geometry(s, u[i:i + 1], v[i:i + 1])
        except DegenerateMetricError as exc:
            expected[i] = str(exc)
    assert degenerate_nodes(s, grid.U, grid.V) == expected


def test_monomial_caps_follow_the_family():
    caps = {kind: surf.make_surface(kind, (3.0, 1.0, 2.0)[:len(family.params)])
            .monomial_caps for kind, family in surf.SURFACE_KINDS.items()}
    assert caps == {"sphere": (1, None, None), "ellipsoid": (1, None, None),
                    "clifford_torus": (1, None, 1, None), "torus": None}


@settings(max_examples=25)
@given(st.floats(0.05, 6.2), st.floats(0.05, 6.2))
def test_metric_invariants_torus(u, v):
    t = surf.torus(2.0, 1.0)
    geo = op.local_geometry(t, u, v)
    assert geo.det_g > 0
    np.testing.assert_allclose(geo.g, np.swapaxes(geo.g, -1, -2), atol=1e-15)
    np.testing.assert_allclose(geo.g @ geo.g_inv, np.eye(2), atol=1e-10)


def test_metric_invariants_all(all_surfaces):
    for s in all_surfaces:
        u, v = interior_points(s, 40, seed=3)
        geo = op.local_geometry(s, u, v)
        assert np.all(geo.det_g > 0)
        np.testing.assert_allclose(geo.g, np.swapaxes(geo.g, -1, -2), atol=1e-14)
        ident = np.broadcast_to(np.eye(2), geo.g.shape)
        np.testing.assert_allclose(geo.g @ geo.g_inv, ident, atol=1e-10)


# Closed-form first, second and third chart partials of the three map
# families, node axes last: d1 (n, 2, ...), d2 (n, 3, ...) rows (uu, uv, vv),
# d3 (n, 4, ...) rows (uuu, uuv, uvv, vvv).  The package writes d1 only and
# takes the rest from jets of the factor maps; these are the oracle for
# that route, and for the node-grid Jacobian jet of ``metric_oracle``.

def _stack(*comps):
    return np.stack(np.broadcast_arrays(*comps))


def torus_partials(R, r, u, v):
    su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
    w = R + r * cv
    zero = 0.0 * (u + v)
    d1 = np.stack([_stack(-w * su, w * cu, zero),
                   _stack(-r * sv * cu, -r * sv * su, r * cv + 0.0 * u)], axis=1)
    d2 = np.stack([_stack(-w * cu, -w * su, zero),
                   _stack(r * sv * su, -r * sv * cu, zero),
                   _stack(-r * cv * cu, -r * cv * su, -r * sv + zero)], axis=1)
    d3 = np.stack([_stack(w * su, -w * cu, zero),
                   _stack(r * sv * cu, r * sv * su, zero),
                   _stack(r * cv * su, -r * cv * cu, zero),
                   _stack(r * sv * cu, r * sv * su, -r * cv + zero)], axis=1)
    return d1, d2, d3


def polar_partials(a, b, c, u, v):
    su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
    zero = 0.0 * (u + v)
    d1 = np.stack([_stack(a * cu * cv, b * cu * sv, -c * su + 0.0 * v),
                   _stack(-a * su * sv, b * su * cv, zero)], axis=1)
    d2 = np.stack([_stack(-a * su * cv, -b * su * sv, -c * cu + zero),
                   _stack(-a * cu * sv, b * cu * cv, zero),
                   _stack(-a * su * cv, -b * su * sv, zero)], axis=1)
    d3 = np.stack([_stack(-a * cu * cv, -b * cu * sv, c * su + zero),
                   _stack(a * su * sv, -b * su * cv, zero),
                   _stack(-a * cu * cv, -b * cu * sv, zero),
                   _stack(a * su * sv, -b * su * cv, zero)], axis=1)
    return d1, d2, d3


def clifford_partials(radius, u, v):
    s = radius / np.sqrt(2.0)
    su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
    zero = 0.0 * (u + v)
    d1 = np.stack([_stack(-s * su, s * cu, zero, zero),
                   _stack(zero, zero, -s * sv, s * cv)], axis=1)
    d2 = np.stack([_stack(-s * cu, -s * su, zero, zero),
                   _stack(zero, zero, zero, zero),
                   _stack(zero, zero, -s * cv, -s * sv)], axis=1)
    d3 = np.stack([_stack(s * su, -s * cu, zero, zero),
                   _stack(zero, zero, zero, zero),
                   _stack(zero, zero, zero, zero),
                   _stack(zero, zero, s * sv, -s * cv)], axis=1)
    return d1, d2, d3


def closed_form_embed(s, u, v):
    """The embedding of surface s in closed form, (n, ...) over the broadcast nodes.

    These are the formulas the package wrote before it wrote each
    embedding as the product of its two factor maps.
    """
    p = s.params
    if "R" in p:
        R, r = p["R"], p["r"]
        w = R + r * np.cos(v)
        return _stack(w * np.cos(u), w * np.sin(u), r * np.sin(v) + 0.0 * u)
    if s.ambient_dim == 4:
        c = p["r"] / np.sqrt(2.0)
        return _stack(c * np.cos(u), c * np.sin(u), c * np.cos(v), c * np.sin(v))
    a, b, c = (p["a"], p["b"], p["c"]) if "a" in p else (p["r"],) * 3
    return _stack(a * np.sin(u) * np.cos(v), b * np.sin(u) * np.sin(v),
                  c * np.cos(u) + 0.0 * v)


def reference_partials(s, u, v):
    """(d1, d2, d3) of surface s from the closed forms above."""
    p = s.params
    if "R" in p:
        return torus_partials(p["R"], p["r"], u, v)
    if "a" in p:
        return polar_partials(p["a"], p["b"], p["c"], u, v)
    if s.ambient_dim == 4:
        return clifford_partials(p["r"], u, v)
    return polar_partials(p["r"], p["r"], p["r"], u, v)


def reference_jacobian_jet(s, u, v):
    """(J, dJ, ddJ) from the closed forms: d_m J[a, i] = d2[a, m + i] and
    row r of the second partials is d3[a, r + i]."""
    d1, d2, d3 = reference_partials(s, u, v)
    return (d1, np.stack([d2[:, m:m + 2] for m in range(2)]),
            np.stack([d3[:, r:r + 2] for r in range(3)]))


def test_embedding_derivative_closed_forms(all_surfaces):
    # the closed forms must match stencils of the embedding itself, and the
    # Jacobian jet must match the closed forms; maps and stencils both keep
    # the nodes last, the stencils' derivative axis first: d1 is
    # (n, 2, nodes) and fd1 is (2, n, nodes)
    for s in all_surfaces:
        u, v = interior_points(s, 8, seed=5)
        d1, d2, d3 = reference_partials(s, u, v)
        assert np.array_equal(s.maps.d1(u, v), d1), s.name
        fd1 = _stencils.partials(s.maps.embed, u, v, 1e-4, 1)[1]
        np.testing.assert_allclose(fd1.swapaxes(0, 1), d1, atol=1e-10, err_msg=s.name)
        fd2 = _stencils.partials(s.maps.embed, u, v, 1e-3, 2)[2]
        np.testing.assert_allclose(fd2.swapaxes(0, 1), d2, atol=1e-8, err_msg=s.name)
        # nested stencils: inner first derivative at 1e-3, outer second at 5e-3
        # keeps the eps/h^3-style noise of the composition under the tolerance
        fd3_uuu = diff2(lambda a, b: diff1(s.maps.embed, a, b, 0, 1e-3),
                        u, v, 0, 5e-3)
        np.testing.assert_allclose(fd3_uuu, d3[:, 0], atol=1e-6, err_msg=s.name)
        fd3_vvv = diff2(lambda a, b: diff1(s.maps.embed, a, b, 1, 1e-3),
                        u, v, 1, 5e-3)
        np.testing.assert_allclose(fd3_vvv, d3[:, 3], atol=1e-6, err_msg=s.name)
        fd3_uuv = diff2(lambda a, b: diff1(s.maps.embed, a, b, 1, 1e-3),
                        u, v, 0, 5e-3)
        np.testing.assert_allclose(fd3_uuv, d3[:, 1], atol=1e-6, err_msg=s.name)
        fd3_uvv = diff2(lambda a, b: diff1(s.maps.embed, a, b, 0, 1e-3),
                        u, v, 1, 5e-3)
        np.testing.assert_allclose(fd3_uvv, d3[:, 2], atol=1e-6, err_msg=s.name)
        jac = metric_oracle.jacobian_jet(s.maps, u, v, 2)
        _, d_ref, dd_ref = reference_jacobian_jet(s, u, v)
        assert np.array_equal(jac.d, d_ref), s.name
        assert np.array_equal(jac.dd, dd_ref), s.name
        assert np.array_equal(s.embedding_hessian(u, v),
                              np.moveaxis(d2, (0, 1), (1, 2))), s.name


_RADIUS = st.floats(0.05, 20.0)


@st.composite
def _surfaces(draw):
    kind = draw(st.sampled_from(["torus", "sphere", "ellipsoid", "clifford_torus"]))
    if kind == "torus":
        r = draw(_RADIUS)
        return surf.torus(r * draw(st.floats(1.01, 10.0)), r)
    if kind == "ellipsoid":
        return surf.ellipsoid(draw(_RADIUS), draw(_RADIUS), draw(_RADIUS))
    return surf.make_surface(kind, (draw(_RADIUS),))


@settings(max_examples=60)
@given(_surfaces(),
       st.sampled_from([((), ()), ((6,), (6,)), ((3, 4), (3, 4)), ((3, 1), (5,))]),
       st.integers(0, 2 ** 32 - 1))
def test_jacobian_jet_equals_closed_forms(s, shapes, seed):
    # bit for bit at every order, over shape parameters and 0-d, 1-D and
    # 2-D (also broadcast) nodes; the long-double d1 of the fd metric stays
    # long double
    rng = np.random.default_rng(seed)
    rect = s.chart_rect
    u = rng.uniform(rect.u0, rect.u1, shapes[0])
    v = rng.uniform(rect.v0, rect.v1, shapes[1])
    ref = reference_jacobian_jet(s, u, v)
    for order in (0, 1, 2):
        jac = metric_oracle.jacobian_jet(s.maps, u, v, order)
        assert jac.order == order
        for mine, expected in zip((jac.v, jac.d, jac.dd), ref[:order + 1]):
            assert mine.shape == expected.shape
            assert np.array_equal(mine, expected), (s.name, order)
    d1 = s.maps.d1(np.asarray(u, np.longdouble), np.asarray(v, np.longdouble))
    assert d1.dtype == np.longdouble
    np.testing.assert_allclose(d1.astype(float), ref[0], rtol=0,
                               atol=1e-14 * max(s.params.values()))


@settings(max_examples=60)
@given(_surfaces(), st.integers(-30, 30),
       st.sampled_from([((), ()), ((), (6,)), ((6,), ()), ((6,), (6,)),
                        ((3, 4), (3, 4)), ((3, 1), (5,)), ((5, 1, 7), (1, 5, 7))]),
       st.sampled_from([np.float64, np.longdouble]), st.integers(0, 2 ** 32 - 1))
def test_factored_embedding_equals_closed_forms(s, exponent, shapes, dtype, seed):
    # p(u) q(v) is the closed form to the bit, at any scale, on 0-d, 1-D,
    # 2-D, broadcast and stencil-grid nodes (the fd metric's (5, 1, N) and
    # (1, 5, N) offsets), in float64 and in long double
    s = surf.make_surface(s.name.split("(")[0],
                          [x * 10.0 ** exponent for x in s.params.values()])
    rng = np.random.default_rng(seed)
    rect = s.chart_rect
    u = np.asarray(rng.uniform(rect.u0, rect.u1, shapes[0]), dtype=dtype)
    v = np.asarray(rng.uniform(rect.v0, rect.v1, shapes[1]), dtype=dtype)
    mine, ref = s.maps.embed(u, v), closed_form_embed(s, u, v)
    assert mine.dtype == ref.dtype == dtype
    assert mine.shape == ref.shape == (s.ambient_dim,) + np.broadcast(u, v).shape
    # equal values of equal sign are equal bits (long double's padding bytes
    # are not part of the value)
    assert np.array_equal(mine, ref) and np.array_equal(np.signbit(mine),
                                                        np.signbit(ref)), s.name
    assert np.array_equal(s.embed(u, v), np.moveaxis(ref, 0, -1))


# The factored assembly against the J^T J oracles: every row within
# ASSEMBLY_C units of sum_k a_k b_k, a_k (b_k) the largest |A_k| (|B_k|) over
# the u (v) table's derivatives and components.  A row of derivative order d
# has the unit eps on the analytic backend and eps + eps_ld / h^d on fd,
# where both sides difference in long double at step h.  Measured over 300
# random cases (the four families, scales 10^-30..10^30, steps 1e-3..1e-2)
# the worst ratio was 1.33 analytic and 1.92 fd.
ASSEMBLY_C = 4.0
EPS, EPS_LD = np.finfo(np.float64).eps, float(np.finfo(np.longdouble).eps)


def assembly_bound(s, u, v, d):
    """The bound above on a derivative-d row of the assembly at (u, v)."""
    u, v = surf._aligned(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    a, b = (np.abs(surf._axis_table(s, factors, x, 2)).max(axis=(0, 1))
            for factors, x in ((s.maps.u_factors, u), (s.maps.v_factors, v)))
    unit = EPS if s.derivative_mode == "analytic" else EPS + EPS_LD / s.step ** d
    return ASSEMBLY_C * unit * (a * b).sum(axis=0)


def test_symmetric_metric_jet_matches_generic_jet_einsum(all_surfaces):
    # the oracle's J^T J jet forms one product of each transposed pair of the
    # product rule; IEEE products commute and the sums keep their order, so
    # it agrees bit for bit with the generic jet einsum of J^T J; the
    # factored assembly is within its bound of both
    for s in all_surfaces:
        u, v = interior_points(s, 33, seed=9)
        U, V = np.meshgrid(u, v[:5], indexing="ij")
        for uu, vv in ((u, v), (U, V), (u[0], v[0])):
            for order in (0, 1, 2):
                jac = metric_oracle.jacobian_jet(s.maps, uu, vv, order)
                g = _jets.einsum("ai...,aj...->ij...", jac, jac)
                parts = metric_oracle.analytic_metric(s.maps, uu, vv, order)
                mine = surf._assemble(s, uu, vv, order)[:3]
                for d, (ref, generic, x) in enumerate(zip(parts, (g.v, g.d, g.dd), mine)):
                    if generic is None:
                        assert ref is None and x is None
                        continue
                    assert np.array_equal(ref, generic), (s.name, order)
                    assert np.all(np.abs(x - generic) <= assembly_bound(s, uu, vv, d))


_LAYOUTS = {"0-d": ((), ()), "flat": ((11,), (11,)), "2-D": ((4, 6), (4, 6)),
            "axes": ((5, 1), (1, 7))}


@settings(max_examples=80)
@given(_surfaces(), st.integers(-30, 30), st.sampled_from(("analytic", "fd")),
       st.floats(1e-3, 1e-2), st.sampled_from(sorted(_LAYOUTS)), st.data())
def test_factored_assembly_is_bounded_by_the_oracles(s, exponent, mode, step, layout,
                                                     data):
    # within the bound of the J^T J jet (analytic) or the 2-D long-double
    # stencil of J^T J (fd), at scales where the values stay finite; and a
    # node's rows are the same bits from the grid's axes, from a flat list of
    # its nodes and from any permuted subset of them
    s = surf.make_surface(s.name.split("(")[0],
                          [x * 10.0 ** exponent for x in s.params.values()],
                          mode=mode, step=step)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rect = s.chart_rect
    u = rng.uniform(rect.u0, rect.u1, _LAYOUTS[layout][0])
    v = rng.uniform(rect.v0, rect.v1, _LAYOUTS[layout][1])
    U, V = (x.ravel() for x in np.broadcast_arrays(u, v))
    idx = np.array(data.draw(st.permutations(range(U.size))))
    idx = idx[:data.draw(st.integers(1, U.size))]
    for order in (0, 1, 2):
        mine = surf._assemble(s, u, v, order)
        ref = metric_oracle.metric(s, *np.broadcast_arrays(u, v), order)
        flat = surf._assemble(s, U, V, order)
        part = surf._assemble(s, U[idx], V[idx], order)
        for d, (x, y) in enumerate(zip(mine[:order + 1], ref)):
            assert np.all(np.abs(x - y) <= assembly_bound(s, u, v, d)), (s.name, d)
        for x, rows, sub in zip(mine, flat, part):
            if x is not None:
                assert np.array_equal(x.reshape(rows.shape), rows), (s.name, order)
                assert np.array_equal(sub, rows[..., idx]), (s.name, order)


_ORACLE_LAYOUTS = {"scalar": ((), ()), "lone node": ((1,), (1,)), "flat": ((9,), (9,)),
                   "axes": ((5, 1), (1, 7))}


@settings(max_examples=80)
@given(st.one_of(_surfaces(), st.sampled_from([surf.sphere(1e-40), surf.torus(1e200, 1e199)])),
       st.sampled_from(("analytic", "fd")), st.sampled_from(sorted(_ORACLE_LAYOUTS)),
       st.integers(0, 2 ** 32 - 1))
def test_assembly_is_the_per_row_assembly_bit_for_bit(s, mode, layout, seed):
    # one broadcast pass over all rows, and one jet product of two stacks
    # per axis table, sum in the per-row oracle's order: same shapes, dtypes
    # and bytes, also where the metric underflows or overflows
    s = surf.make_surface(s.name.split("(")[0], s.params.values(), mode=mode)
    rng = np.random.default_rng(seed)
    rect = s.chart_rect
    u = rng.uniform(rect.u0, rect.u1, _ORACLE_LAYOUTS[layout][0])
    v = rng.uniform(rect.v0, rect.v1, _ORACLE_LAYOUTS[layout][1])
    for order in (0, 1, 2):
        mine = surf._assemble(s, u, v, order)
        ref = metric_oracle.assemble_by_rows(s, u, v, order)
        for x, y in zip(mine, ref):
            if y is None:
                assert x is None
                continue
            assert (x.shape, x.dtype) == (y.shape, y.dtype), (s.name, order)
            assert x.tobytes() == y.tobytes(), (s.name, order)


def test_axis_tables_differentiate_one_coordinate(monkeypatch, all_surfaces):
    # every jet product and chain rule of an analytic order-2 assembly,
    # from the grid's axes or its flat nodes, builds the cross row of jets
    # with one derivative row: no partials in the other coordinate are built
    lengths, original = [], _jets._cross

    def spy(a_d, b_d, *args):
        lengths.append((len(a_d), len(b_d)))
        return original(a_d, b_d, *args)

    monkeypatch.setattr(_jets, "_cross", spy)
    for s in all_surfaces:
        u, v = interior_points(s, 6, seed=2)
        for uu, vv in ((u[:, None], v[None, :]), (u, v)):
            del lengths[:]
            surf._assemble(s, uu, vv, 2)
            assert lengths and set(lengths) == {(1, 1)}, s.name


def test_periodic_edges_identified(all_surfaces):
    for s in all_surfaces:
        rect = s.chart_rect
        if rect.periodic_u:
            v = np.linspace(rect.v0 + 0.1, rect.v1 - 0.1, 9)
            np.testing.assert_allclose(s.embed(rect.u0, v), s.embed(rect.u1, v),
                                       atol=1e-12, err_msg=s.name)
            a = op.local_geometry(s, np.full_like(v, rect.u0 + 0.0), v)
            b = op.local_geometry(s, np.full_like(v, rect.u1), v)
            np.testing.assert_allclose(a.g, b.g, atol=1e-12, err_msg=s.name)
        if rect.periodic_v:
            u = np.linspace(rect.u0 + 0.2, rect.u1 - 0.2, 9)
            np.testing.assert_allclose(s.embed(u, rect.v0), s.embed(u, rect.v1),
                                       atol=1e-12, err_msg=s.name)


def test_gauss_legendre_rule_is_shared_read_only(sphere1):
    x, w = surf._leggauss(16)
    assert not x.flags.writeable and not w.flags.writeable
    assert surf._leggauss(16)[0] is x
    ref = surf.chart_grid(sphere1, 16, 8)
    grid = surf.chart_grid(sphere1, 16, 8)
    # each grid's arrays are its own: writing into one changes no later grid
    for a in (grid.u_nodes, grid.v_nodes, grid.U, grid.V, grid.weights):
        assert a.flags.writeable
        a[...] = -1.0
    later = surf.chart_grid(sphere1, 16, 8)
    for name in ("u_nodes", "v_nodes", "U", "V", "weights"):
        assert np.array_equal(getattr(later, name), getattr(ref, name)), name


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 160), st.floats(-10.0, 10.0), st.floats(1e-3, 10.0))
def test_axis_rule_is_the_uncached_rule(n, lo, width):
    hi = lo + width
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = surf._axis_rule(lo, hi, n, False)
    assert np.array_equal(nodes, 0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
    assert np.array_equal(weights, 0.5 * (hi - lo) * w)
    assert nodes.flags.writeable and weights.flags.writeable


def test_torus_grid_uniform_weights(torus21):
    g = surf.chart_grid(torus21, 64, 64)
    assert g.U.shape == (64, 64)
    np.testing.assert_allclose(g.weights, (2 * np.pi / 64) ** 2, atol=1e-16)
    assert g.rule == "periodic-trapezoid"


def test_sphere_grid_interior_nodes(sphere1):
    g = surf.chart_grid(sphere1, 32, 64)
    assert g.rule == "gauss-legendre-mixed"
    assert np.all(g.u_nodes > 0.0) and np.all(g.u_nodes < np.pi)
    assert np.all(g.weights > 0.0)
    # azimuthal axis excludes the identified endpoint
    assert g.v_nodes[-1] < 2 * np.pi


def test_torus_grid_area(torus21):
    g = surf.chart_grid(torus21, 64, 64)
    area_elem = np.sqrt(op.local_geometry(torus21, g.U, g.V).det_g)
    area = float(np.sum(g.weights * area_elem))
    assert abs(area - 8 * np.pi ** 2) < 1e-10


def test_grid_rejects_tiny(torus21):
    with pytest.raises(InvalidParameterError):
        surf.chart_grid(torus21, 2, 64)


def test_fd_metric_derivatives_fourth_order(torus21):
    g = surf.chart_grid(torus21, 12, 12)
    exact = op.local_geometry(torus21, g.U, g.V)
    devs = []
    for h in (2e-2, 1e-2, 5e-3):
        fd = op.local_geometry(surf.torus(2.0, 1.0, mode="fd", step=h), g.U, g.V)
        devs.append(max(np.max(np.abs(fd.dg - exact.dg)),
                        np.max(np.abs(fd.ddg - exact.ddg))))
    assert devs[0] / devs[1] >= 12.0
    assert devs[1] / devs[2] >= 12.0


def test_fd_metric_matches_analytic_at_default_step(all_surfaces):
    for s in all_surfaces:
        fd = surf.make_surface(
            {"sphere(1)": "sphere", "torus(2,1)": "torus",
             "clifford_torus(1)": "clifford_torus",
             "ellipsoid(1,1.3,0.7)": "ellipsoid"}[s.name],
            tuple(s.params.values()), mode="fd")
        u, v = interior_points(s, 12, seed=9)
        ma = op.local_geometry(s, u, v)
        mf = op.local_geometry(fd, u, v)
        np.testing.assert_allclose(mf.g, ma.g, atol=1e-12, err_msg=s.name)
        np.testing.assert_allclose(mf.dg, ma.dg, atol=1e-9, err_msg=s.name)
        np.testing.assert_allclose(mf.ddg, ma.ddg, atol=1e-8, err_msg=s.name)


STENCIL_BLOCK = 256     # nodes per stencil block in the batch test below


@settings(max_examples=40)
@given(_surfaces(), st.sampled_from((1e-3, 1e-2)), st.sampled_from((1, 2)),
       st.integers(1, 3 * STENCIL_BLOCK), st.data())
def test_fd_metric_rows_do_not_depend_on_the_batch(s, step, order, n, data):
    # the fd tables' stencils walk the points in blocks, here of STENCIL_BLOCK
    # so that a few hundred points cross block boundaries; a node's rows must
    # not depend on the block it falls in or on the nodes beside it
    s = surf.make_surface(s.name.split("(")[0], s.params.values(), mode="fd", step=step)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rect = s.chart_rect
    u = rng.uniform(rect.u0 + 0.1, rect.u1 - 0.1, n)
    v = rng.uniform(rect.v0 + 0.1, rect.v1 - 0.1, n)
    perm = data.draw(st.permutations(range(n)))
    idx = np.array(perm[:data.draw(st.integers(1, n))])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_stencils, "BLOCK_NODES", STENCIL_BLOCK)
        full = surf._assemble(s, u, v, order)
        part = surf._assemble(s, u[idx], v[idx], order)
    for mine, rows in zip(part[:order + 1], full):
        assert np.array_equal(mine, rows[..., idx]), s.name


def test_guarded_mask(sphere1, torus21):
    # GUARD_BAND off each end of the sphere's u range, edges kept; the
    # torus has no ends
    band = surf.GUARD_BAND
    u = np.array([0.0, 0.5 * band, band, 1.0, np.pi - band, np.pi - 0.5 * band, np.pi])
    assert surf.guarded_mask(sphere1, u, 0.3).tolist() == [False, False, True, True,
                                                            True, False, False]
    assert np.all(surf.guarded_mask(torus21, u, 0.3))
