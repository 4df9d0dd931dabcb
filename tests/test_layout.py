"""The public functions keep the value axes trailing, after the node axes.

The derivative pipeline stores its arrays node-last and converts at the
boundary; these tests pin the public shapes on a scalar chart point (0-d
nodes, where a node-last ellipsis most easily goes wrong), on 1-D node
arrays and on a 2-D (nu, nv) grid, and check that every node shape gives
the same values.
"""

import numpy as np
import pytest

from bochner2d import _jets
from bochner2d import bochner as bo
from bochner2d import operators as op
from bochner2d import surfaces as surf

from conftest import to_parts

SURFACES = [("torus", (2.0, 1.0)), ("sphere", (1.0,)), ("clifford_torus", (1.0,)),
            ("ellipsoid", (1.0, 1.3, 0.7))]


def node_shapes(surface):
    """A 3 x 4 grid of interior chart points, as (u, v) in three node shapes."""
    rect = surface.chart_rect
    u = np.linspace(rect.u0, rect.u1, 5)[1:4] + 0.05
    v = np.linspace(rect.v0, rect.v1, 6)[1:5] + 0.05
    U, V = np.meshgrid(u, v, indexing="ij")
    return {(): (U[1, 2], V[1, 2]), (12,): (U.ravel(), V.ravel()), (3, 4): (U, V)}


def at_node(x, shape):
    """The node U[1, 2] of a public array over the node shape `shape`."""
    index = {(): (), (12,): (6,), (3, 4): (1, 2)}[shape]
    return x[index]


def public_outputs(surface, u, v):
    """Every public array under test, with its value shape."""
    geo = op.local_geometry(surface, u, v)
    X = op.TangentField(lambda a, b: np.stack(np.broadcast_arrays(np.cos(a) + 2.0,
                                                                  np.sin(b)), axis=-1),
                        name="wavy")
    f = op.ScalarField(lambda a, b: np.cos(a) * np.sin(b), name="f")
    a, dX, ddX = to_parts(X.jet(surface, u, v, 2, None), np.ndim(u))
    s, ds, dds = to_parts(f.jet(surface, u, v, 2, None), np.ndim(u))
    m = _jets.value_last(bo._NodeBatch.of(surface, X, u, v, order=1).grad_x.v, 2)
    n = surface.ambient_dim
    return {
        "g": (geo.g, (2, 2)), "g_inv": (geo.g_inv, (2, 2)),
        "dg": (geo.dg, (2, 2, 2)), "ddg": (geo.ddg, (3, 2, 2)),
        "det_g": (geo.det_g, ()),
        "metric_only": (surf.metric_only(surface, u, v), (2, 2)),
        "christoffel": (geo.christoffel, (2, 2, 2)),
        "christoffel_derivative": (geo.christoffel_derivative, (2, 2, 2, 2)),
        "gauss_curvature": (geo.gauss_curvature, ()),
        "ricci": (geo.ricci, (2, 2)),
        "field_jet": (a, (2,)), "field_jet_d": (dX, (2, 2)),
        "field_jet_dd": (ddX, (3, 2)),
        "scalar_jet": (s, ()), "scalar_jet_d": (ds, (2,)), "scalar_jet_dd": (dds, (3,)),
        "covariant_gradient": (m, (2, 2)),
        "jacobian": (surface.jacobian(u, v), (n, 2)),
        "embedding_hessian": (surface.embedding_hessian(u, v), (n, 3)),
        "embed": (surface.embed(u, v), (n,)),
    }


@pytest.mark.parametrize("mode", ["analytic", "fd"])
@pytest.mark.parametrize("kind,params", SURFACES)
def test_public_shapes_and_values_on_every_node_shape(kind, params, mode):
    surface = surf.make_surface(kind, params, mode=mode)
    outputs = {shape: public_outputs(surface, u, v)
               for shape, (u, v) in node_shapes(surface).items()}
    for name, (scalar, value_shape) in outputs[()].items():
        for shape, results in outputs.items():
            x, _ = results[name]
            assert np.shape(x) == shape + value_shape, (name, shape)
            np.testing.assert_allclose(at_node(x, shape), scalar, rtol=1e-12,
                                       atol=1e-12, err_msg=f"{name} {shape}")


def test_public_index_conventions(torus21):
    # spot values whose index order the layout could silently transpose
    u, v = np.array([0.3, 1.1]), np.array([0.7, 2.0])
    geo = op.local_geometry(torus21, u, v)
    w = 2.0 + np.cos(v)
    np.testing.assert_allclose(geo.g[:, 0, 0], w**2, rtol=1e-14)
    np.testing.assert_allclose(geo.dg[:, 1, 0, 0], -2.0 * w * np.sin(v), rtol=1e-14)
    np.testing.assert_allclose(geo.ddg[:, 2, 0, 0],
                               2.0 * np.sin(v) ** 2 - 2.0 * w * np.cos(v), rtol=1e-13)
    gam = geo.christoffel
    np.testing.assert_allclose(gam[:, 0, 0, 1], -np.sin(v) / w, rtol=1e-14)  # G^u_uv
    np.testing.assert_allclose(gam[:, 1, 0, 0], w * np.sin(v), rtol=1e-14)   # G^v_uu
    jac = torus21.jacobian(u, v)
    np.testing.assert_allclose(jac[:, :, 0], np.stack([-w * np.sin(u), w * np.cos(u),
                                                       0.0 * u], axis=-1), atol=1e-15)
