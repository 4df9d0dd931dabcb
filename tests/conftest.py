import numpy as np
import pytest
from hypothesis import settings

from bochner2d import _jets
from bochner2d import surfaces as surf

# Property tests run on shared, loaded machines: a wall-clock deadline only
# adds flakes, and derandomized examples make every run check the same cases.
settings.register_profile("bochner2d", deadline=None, derandomize=True)
settings.load_profile("bochner2d")


@pytest.fixture
def torus21():
    return surf.torus(2.0, 1.0)


@pytest.fixture
def sphere1():
    return surf.sphere(1.0)


@pytest.fixture
def clifford1():
    return surf.clifford_torus(1.0)


@pytest.fixture
def ellipsoid_abc():
    return surf.ellipsoid(1.0, 1.3, 0.7)


@pytest.fixture
def all_surfaces(torus21, sphere1, clifford1, ellipsoid_abc):
    return [torus21, sphere1, clifford1, ellipsoid_abc]


def non_finite_parameters():
    """(kind, params) with one parameter of a family NaN, inf or -inf, every slot."""
    cases = []
    for kind, spec in surf.SURFACE_KINDS.items():
        for slot in range(len(spec.params)):
            for value in (np.nan, np.inf, -np.inf):
                params = [3.0, 1.0, 2.0][:len(spec.params)]
                params[slot] = value
                cases.append((kind, tuple(params)))
    return cases


def interior_points(surface, n=7, seed=0):
    """Deterministic pseudo-random points well inside the guarded chart."""
    rng = np.random.default_rng(seed)
    rect = surface.chart_rect
    pad_u = 0.0 if rect.periodic_u else 0.15 * (rect.u1 - rect.u0)
    pad_v = 0.0 if rect.periodic_v else 0.15 * (rect.v1 - rect.v0)
    u = rng.uniform(rect.u0 + pad_u, rect.u1 - pad_u, n)
    v = rng.uniform(rect.v0 + pad_v, rect.v1 - pad_v, n)
    return u, v


def to_parts(jet, ndim):
    """Public (value, d[, dd]) views of a jet over `ndim` node axes."""
    k = jet.v.ndim - ndim
    return (_jets.value_last(jet.v, k),) + tuple(
        _jets.value_last(x, k + 1) for x in (jet.d, jet.dd)[:jet.order])


def second_form_curvature(surface, u, v):
    """Gauss curvature via the shape operator: det(II)/det(I).

    Independent of the metric-only route; needs a unit normal, so it only
    applies to surfaces embedded in R^3.
    """
    assert surface.ambient_dim == 3
    jac = surface.jacobian(u, v)
    d2 = surface.embedding_hessian(u, v)
    xu, xv = jac[..., :, 0], jac[..., :, 1]
    normal = np.cross(xu, xv)
    normal = normal / np.linalg.norm(normal, axis=-1, keepdims=True)
    L = np.einsum("...a,...a->...", d2[..., :, 0], normal)
    M = np.einsum("...a,...a->...", d2[..., :, 1], normal)
    N = np.einsum("...a,...a->...", d2[..., :, 2], normal)
    g = np.einsum("...ai,...aj->...ij", jac, jac)
    det_g = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    return (L * N - M * M) / det_g
