"""A constant field's jet is a constant to ``_jets``, with the same bits.

``constant_field`` and ``coordinate_field`` return their coefficients as a
plain array, whose zero partials are implied.  Every output that reads such
a field must equal, NaN for NaN, what the same field gives as a jet with
explicit zero partials: on the analytic backend as a callback field with
zero ``d_coeff`` and ``dd_coeff``, and on both backends as a jet function
returning the zero arrays (the fd backend stencils a callback field's
values, whose differences of a nonzero constant are rounding noise, not
zeros).
"""

import numpy as np
import pytest

from bochner2d import _jets, cli, integrate
from bochner2d import bochner as bo
from bochner2d import operators as op
from bochner2d import surfaces as surf
from bochner2d.errors import NotUnitFieldError, ZeroFieldPointError

# (name, coefficients) of the constant fields compared; on the Clifford
# torus of radius 1, g = I / 2, so sqrt(2) du is unit and du is not
CONSTANTS = [("du", (1.0, 0.0)), ("dv", (0.0, 1.0)), ("du+dv", (1.0, 1.0)),
             ("zero", (0.0, 0.0)), ("sqrt2 du", (np.sqrt(2.0), 0.0))]


def _coeff(a):
    def coeff(u, v):
        nodes = np.broadcast(np.asarray(u), np.asarray(v)).shape
        return np.broadcast_to(np.asarray(a), nodes + (2,)).copy()
    return coeff


def callback_field(name, a):
    """The constant field as callbacks with zero exact partials."""
    def zeros(rows):
        return lambda u, v: np.zeros(np.broadcast(np.asarray(u), np.asarray(v)).shape
                                     + (rows, 2))
    return op.TangentField(_coeff(a), zeros(2), zeros(3), name=name)


def zero_partials_field(name, a):
    """The constant field as a jet with explicit zero partials."""
    def jet(surface, u, v, order, g):
        x = np.ascontiguousarray(_jets.value_first(_coeff(a)(u, v), 1))
        return _jets.Jet(x, *(np.zeros((k,) + x.shape) for k in (2, 3)[:order]))

    return op.TangentField(_coeff(a), name=name, jet=jet)


def oracles(mode):
    return ([callback_field] if mode == "analytic" else []) + [zero_partials_field]


def outcome(fn):
    """fn()'s arrays, or the type and message of the error it raises."""
    try:
        out = fn()
    except (NotUnitFieldError, ZeroFieldPointError) as exc:
        return type(exc), str(exc)
    if isinstance(out, dict):
        return {k: np.asarray(x) for k, x in out.items()}
    if isinstance(out, integrate.IntegralResult):
        return np.array([out.value, out.estimated_error])
    return [np.asarray(x) for x in out] if isinstance(out, tuple) else np.asarray(out)


def assert_same(a, b, label):
    if isinstance(a, dict):
        assert a.keys() == b.keys(), label
        for k in a:
            assert_same(a[k], b[k], (label, k))
    elif isinstance(a, list):
        assert len(a) == len(b), label
        for x, y in zip(a, b):
            assert_same(x, y, label)
    elif isinstance(a, tuple):
        assert a == b, label
    else:
        assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True), label


def outputs(s, X, u, v):
    """Every output that reads the field X at the nodes (u, v), by name."""
    f, Y = cli._product_rule_pair()
    T = bo.normalize_field(s, X)
    grid = surf.chart_grid(s, 8, 8)
    return {
        "verify rows": lambda: bo._verify_pass(s, X, f, Y, u, v),
        "verify rows, X in the product rule": lambda: bo._verify_pass(s, X, f, X, u, v),
        "gauss_bonnet_integrands": lambda: bo.gauss_bonnet_integrands(s, T, u, v),
        "bochner_residual": lambda: bo.bochner_residual(s, X, u, v),
        "trace_identity_residual": lambda: bo.trace_identity_residual(s, X, u, v),
        "curvature_identity_residual": lambda: bo.curvature_identity_residual(s, X, u, v),
        "chained_residuals": lambda: bo.chained_residuals(s, X, u, v),
        "unit_frame_operator_matrix": lambda: bo.unit_frame_operator_matrix(s, X, u, v),
        "divergence_at": lambda: op.divergence_at(s, X, u, v),
        "product_rule_residual_at": lambda: op.product_rule_residual_at(s, f, X, u, v),
        "ricci_residual_at": lambda: op.ricci_residual_at(s, X, Y, u, v),
        "curvature potential": lambda: bo.curvature_potential_field(s, X).coeff(u, v),
        "divergence_theorem_residual": lambda: integrate.divergence_theorem_residual(
            s, X, grid),
        "unit field coeff": lambda: T.coeff(u, v),
    }


@pytest.mark.parametrize("mode", ["analytic", "fd"])
@pytest.mark.parametrize("name,a", CONSTANTS)
def test_a_constant_gives_the_bits_of_its_zero_partials(mode, name, a):
    s = surf.clifford_torus(1.0, mode=mode)
    grid = surf.chart_grid(s, 6, 5)
    u, v = grid.U.ravel(), grid.V.ravel()
    mine = outputs(s, op.constant_field(*a, name=name), u, v)
    for oracle in oracles(mode):
        ref = outputs(s, oracle(name, a), u, v)
        for key in mine:
            assert_same(outcome(mine[key]), outcome(ref[key]), (key, oracle.__name__))


@pytest.mark.parametrize("mode", ["analytic", "fd"])
def test_verify_builds_no_partials_of_a_constant_field(monkeypatch, mode):
    # every jet that verify's sweep asks of a constant field, the one under
    # test and the product rule's du+dv, is a plain array: no zero partials
    # are allocated, let alone multiplied
    asked = []

    def recorded(field):
        def jet(*args):
            out = field.jet(*args)
            asked.append((field.name, args[3], out))
            return out
        return op.TangentField(field.coeff, name=field.name, jet=jet)

    f, Y = cli._product_rule_pair()
    monkeypatch.setattr(cli, "_product_rule_pair", lambda: (f, recorded(Y)))
    s = surf.torus(2.0, 1.0, mode=mode)
    grid = surf.chart_grid(s, 8, 8)
    list(cli._verify_sweep(s, recorded(op.coordinate_field(0)), grid, bo.ZERO_FLOOR))
    assert sorted((name, order) for name, order, _ in asked) == [("du", 2), ("du+dv", 1)]
    assert not any(isinstance(out, _jets.Jet) for _, _, out in asked)
