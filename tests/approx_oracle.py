"""Reference polynomial evaluation: a fresh array for every degree layer.

These are the evaluator and the fit-and-verify step that the two reused
layer buffers of ``approx.evaluate_polynomial_field`` and the separate fit
stage of ``approx._fit_and_verify`` replaced.  The multiplies, the
per-layer matmuls and their order are the same, and the verification
predicts the grid through its axes with the same GEMM as
``approx._grid_prediction``, so tests compare the package with them bit
for bit.  Like the package, they build only the
monomials within a surface's exponent caps, and the fit scatters its
coefficients into the full graded-lex row.  ``monomial_matrix`` builds the
same basis by another route, from powers of each coordinate, for tolerance
checks.
"""

from dataclasses import replace

import numpy as np

from bochner2d import approx as ap
from bochner2d.errors import RankDeficientFitError


def monomial_layers(points, degree, caps=None):
    """The degree-t blocks of the capped graded-lex basis, t = 0..degree.

    Each block is a new (K_t, m) array.
    """
    n, m = points.shape
    layer = np.ones((1, m))
    yield layer
    for t in range(degree):
        sources = ap._layer_sources(n, t, caps)
        nxt = np.empty((sum(k for _, k in sources), m))
        row = 0
        for j, k in sources:
            np.multiply(points[j], layer[-k:], out=nxt[row:row + k])
            row += k
        layer = nxt
        yield layer


def monomial_matrix(points, exponents):
    """V[p, k] = prod_j points[p, j]^exponents[k, j], from power tables and gathers."""
    points = np.asarray(points, dtype=float)
    m, n = points.shape
    dmax = int(exponents.max()) if exponents.size else 0
    pows = [points[:, j][:, None] ** np.arange(dmax + 1) for j in range(n)]
    V = np.ones((m, exponents.shape[0]))
    for j in range(n):
        V *= pows[j][:, exponents[:, j]]
    return V


def evaluate_polynomial_field(poly, points, chunk=ap.EVAL_CHUNK):
    """Values of the component polynomials at ambient points, (m, n_components)."""
    points = np.asarray(points, dtype=float).T
    coeff = poly.coefficients[:, ap._within_caps(poly.exponents, poly.caps)]
    out = np.zeros((coeff.shape[0], points.shape[1]))
    for lo in range(0, points.shape[1], chunk):
        block = slice(lo, lo + chunk)
        row = 0
        for layer in monomial_layers(points[:, block], poly.degree, poly.caps):
            k = layer.shape[0]
            out[:, block] += coeff[:, row:row + k] @ layer
            row += k
    return out.T


def fit_and_verify(samples, degree, verify_samples=None):
    """The fit and its prediction on the verify grid, all in one frame."""
    if samples.positions.shape[0] == 0:
        raise RankDeficientFitError("no samples to fit")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    points = np.asarray(samples.positions, dtype=float)
    caps = samples.surface.monomial_caps
    Vt = np.concatenate(list(monomial_layers(points.T, degree, caps)))      # (K, m)
    if not np.all(np.isfinite(Vt)):
        raise RankDeficientFitError("monomial matrix contains non-finite entries")

    scale = np.max(np.abs(Vt), axis=1)
    scale = np.where(scale > 0.0, scale, 1.0)
    Vt /= scale[:, None]
    Vs = np.ascontiguousarray(Vt.T)
    A = Vs.T @ Vs
    b = Vs.T @ samples.values
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(b)):
        raise RankDeficientFitError("normal system contains non-finite entries")

    w, Q = np.linalg.eigh(A)
    wmax = float(w[-1])
    if wmax <= 0.0:
        raise RankDeficientFitError("scaled normal system is identically zero")
    keep = w > ap.RCOND_CUTOFF * wmax
    inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    coeff_scaled = Q @ (inv_w[:, None] * (Q.T @ b))
    exponents = ap.monomial_exponents(points.shape[1], degree)
    coefficients = np.zeros((samples.values.shape[1], len(exponents)))
    coefficients[:, ap._within_caps(exponents, caps)] = (coeff_scaled
                                                         / scale[:, None]).T
    rcond = float(max(w[0], 0.0) / wmax)

    if verify_samples is None:
        verify_samples = ap._dense_resample(samples)
    poly = ap.PolynomialField(
        ambient_dim=points.shape[1], degree=degree, exponents=exponents,
        coefficients=coefficients, sup_error=np.nan,
        fit_grid=samples.grid_shape, verify_grid=verify_samples.grid_shape,
        rcond=rcond, caps=caps)
    pred = grid_prediction(poly, verify_samples)
    err = np.linalg.norm(pred - verify_samples.values, axis=1)
    return replace(poly, sup_error=float(np.max(err))), pred


def grid_prediction(poly, samples):
    """poly on the samples' grid, P^T diag(C_c) Q per component, fresh layers."""
    maps = samples.surface.maps
    u_nodes, v_nodes = samples.axes
    P = np.concatenate(list(monomial_layers(maps.embed_u(u_nodes), poly.degree,
                                            poly.caps)))
    Q = np.concatenate(list(monomial_layers(maps.embed_v(v_nodes), poly.degree,
                                            poly.caps)))
    coeff = poly.coefficients[:, ap._within_caps(poly.exponents, poly.caps)]
    out = np.stack([(P * row[:, None]).T @ Q for row in coeff])
    return out.reshape(len(coeff), -1).T
