"""Oracles for the jet mechanism: symbolic derivatives and stencil depth."""

import numpy as np
import pytest

from bochner2d import _jets, _stencils, cli
from bochner2d import operators as op
from bochner2d import surfaces as surf
from bochner2d.cli import expression_field

from conftest import interior_points

ROWS = ((0, 0), (0, 1), (1, 1))   # (uu, uv, vv)


def _evaluate(sp, exprs, u, v, U, V):
    """Numeric array of a nested list of sympy expressions at (U, V)."""
    exprs = np.asarray(exprs, dtype=object)
    out = np.empty(U.shape + exprs.shape)
    for idx, e in np.ndenumerate(exprs):
        out[(...,) + idx] = np.broadcast_to(sp.lambdify((u, v), e, "numpy")(U, V),
                                            U.shape)
    return out


def _symbolic_embeddings(sp, u, v):
    s = 1 / sp.sqrt(2)
    b, c = sp.Rational(13, 10), sp.Rational(7, 10)
    return [
        (surf.torus(2.0, 1.0),
         [(2 + sp.cos(v)) * sp.cos(u), (2 + sp.cos(v)) * sp.sin(u), sp.sin(v)]),
        (surf.sphere(1.0), [sp.sin(u) * sp.cos(v), sp.sin(u) * sp.sin(v), sp.cos(u)]),
        (surf.clifford_torus(1.0),
         [s * sp.cos(u), s * sp.sin(u), s * sp.cos(v), s * sp.sin(v)]),
        (surf.ellipsoid(1.0, 1.3, 0.7),
         [sp.sin(u) * sp.cos(v), b * sp.sin(u) * sp.sin(v), c * sp.cos(u)]),
    ]


def test_metric_and_connection_match_symbolic_derivatives():
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v")
    x = (u, v)
    for surface, embedding in _symbolic_embeddings(sp, u, v):
        jac = sp.Matrix(embedding).jacobian(sp.Matrix(x))
        g = jac.T * jac
        g_inv = g.inv()
        dg = [[[sp.diff(g[i, j], x[k]) for j in range(2)] for i in range(2)]
              for k in range(2)]
        ddg = [[[sp.diff(g[i, j], x[k], x[l]) for j in range(2)] for i in range(2)]
               for k, l in ROWS]
        gamma = [[[sum(g_inv[k, l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                       for l in range(2)) / 2
                   for j in range(2)] for i in range(2)] for k in range(2)]
        dgamma = [[[[sp.diff(gamma[k][i][j], x[m]) for j in range(2)]
                    for i in range(2)] for k in range(2)] for m in range(2)]

        U, V = interior_points(surface, 9, seed=3)
        geo = op.local_geometry(surface, U, V)
        pairs = [(geo.g, g.tolist()), (geo.dg, dg), (geo.ddg, ddg),
                 (geo.christoffel, gamma), (geo.christoffel_derivative, dgamma)]
        for got, exprs in pairs:
            np.testing.assert_allclose(got, _evaluate(sp, exprs, u, v, U, V),
                                       rtol=1e-12, atol=1e-12, err_msg=surface.name)


def test_expression_field_jet_matches_hand_partials(torus21):
    field = expression_field("sin(u)+2", "cos(v)")
    u, v = interior_points(torus21, 11)
    a, d, dd = _jets.to_parts(op._jet(torus21, field, u, v, 2), 1)
    zero = np.zeros_like(u)
    np.testing.assert_allclose(a, np.stack([np.sin(u) + 2, np.cos(v)], -1), atol=1e-14)
    # d[..., i, k] = d_i X^k
    np.testing.assert_allclose(
        d, np.stack([np.stack([np.cos(u), zero], -1),
                     np.stack([zero, -np.sin(v)], -1)], -2), atol=1e-14)
    np.testing.assert_allclose(
        dd, np.stack([np.stack([-np.sin(u), zero], -1),
                      np.stack([zero, zero], -1),
                      np.stack([zero, -np.cos(v)], -1)], -2), atol=1e-14)


@pytest.mark.parametrize("exprs", [
    ("sin(u*v)/(2+cos(u-v))", "cos(3*sin(u))-u/(v*v+1)"),
    ("u*u*v-1/(3+sin(v))", "-(cos(u)+2)*sin(2*v)/(1.5+cos(u*v))"),
])
def test_expression_jet_arithmetic_matches_sympy(torus21, exprs):
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v")
    sym = [sp.sympify(e) for e in exprs]
    U, V = interior_points(torus21, 9, seed=5)
    a, d, dd = _jets.to_parts(op._jet(torus21, expression_field(*exprs), U, V, 2), 1)
    x = (u, v)
    ref_d = [[sp.diff(e, x[i]) for e in sym] for i in range(2)]
    ref_dd = [[sp.diff(e, x[i], x[j]) for e in sym] for i, j in ROWS]
    np.testing.assert_allclose(a, _evaluate(sp, sym, u, v, U, V), rtol=1e-13)
    np.testing.assert_allclose(d, _evaluate(sp, ref_d, u, v, U, V),
                               rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(dd, _evaluate(sp, ref_dd, u, v, U, V),
                               rtol=1e-12, atol=1e-13)


@pytest.fixture
def stencil_depth(monkeypatch):
    """Counts stencil calls and the deepest nesting of stencils in stencils."""
    state = {"calls": 0, "depth": 0, "max_depth": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            state["calls"] += 1
            state["depth"] += 1
            state["max_depth"] = max(state["max_depth"], state["depth"])
            try:
                return fn(*args, **kwargs)
            finally:
                state["depth"] -= 1
        return wrapper

    monkeypatch.setattr(_stencils, "partials", counted(_stencils.partials))
    return state


@pytest.mark.parametrize("argv", [
    ("verify", "--surface", "torus:2,1", "--field", "du+dv", "--backend", "fd"),
    ("verify", "--surface", "torus:2,1", "--field", "2+sin(u),cos(v)",
     "--backend", "fd"),
    ("gauss-bonnet", "--surface", "torus:2,1", "--field", "du", "--backend", "fd"),
])
def test_fd_backend_stencils_one_level_deep(capsys, stencil_depth, argv):
    assert cli.main(list(argv) + ["--grid", "8x8"]) == 0
    assert stencil_depth["calls"] > 0
    assert stencil_depth["max_depth"] == 1


def test_analytic_expression_field_is_never_stenciled(capsys, stencil_depth):
    assert cli.main(["verify", "--surface", "torus:2,1", "--field",
                     "sin(u)+2,cos(v)", "--grid", "8x8"]) == 0
    assert stencil_depth["calls"] == 0


def _bits(x):
    """The float64 bits of x, with every NaN mapped to one pattern."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.uint64(0), x.view(np.uint64))


def test_subtraction_makes_no_negated_copy(monkeypatch):
    rng = np.random.default_rng(11)

    def jet(order):
        parts = [rng.standard_normal(rows + (2, 6)) for rows in ((), (2,), (3,))]
        for x in parts:     # signed zeros, infinities and NaN in every part
            x[..., :5] = (0.0, -0.0, np.inf, -np.inf, np.nan)
        return _jets.Jet(*parts[:order + 1])

    a, b, c = jet(2), jet(2), jet(1)
    const = rng.standard_normal((2, 6))
    const[0, :3] = (0.0, -0.0, np.inf)
    # IEEE defines x - y as x + (-y): the results of the negated copies
    with np.errstate(invalid="ignore"):
        expected = [a + -b, a + -c, c + -a, a + -const, -a + const, -a + 2.5]
    monkeypatch.setattr(_jets.Jet, "__neg__", None)
    with np.errstate(invalid="ignore"):
        got = [a - b, a - c, c - a, a - const, const - a, 2.5 - a]
    for x, y in zip(got, expected):
        assert x.order == y.order
        for p, q in zip((x.v, x.d, x.dd), (y.v, y.d, y.dd)):
            assert (p is None) == (q is None)
            if p is not None:
                np.testing.assert_array_equal(_bits(p), _bits(q))
