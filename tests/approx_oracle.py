"""Reference polynomial basis, evaluation and fit: fresh arrays, node by node.

``layer_sources`` counts the (j, k) pairs that build each degree layer by a
combinatorial recursion over the caps, independent of the exponent rows
from which ``approx._layer`` counts them; ``monomial_exponents`` builds the
rows from those pairs.  ``evaluate_polynomial_field`` builds its layers
from those pairs too: the multiplies, the per-layer matmuls and their order
are those of ``approx.evaluate_polynomial_field``, so tests compare the
package with it bit for bit.  ``fit_and_verify`` is the flat fit that
``approx._fit`` replaced: ``normal_system`` builds the (K, m) basis on the
fit grid's positions and its scaled gram node by node, where the package
builds it from the grid's two axes, and ``eigh_solve`` decomposes the whole
gram in one ``eigh``, where the package decomposes its diagonal blocks, so
tests compare the two by measured tolerances.  Its verification predicts the grid through the axes with the
same GEMM as ``approx._grid_prediction`` (``grid_prediction``), and its
sup error is the plain ``np.max(np.linalg.norm(pred - values, axis=1))``.
Like the package, they build only the monomials within a surface's
exponent caps, and the fit scatters its coefficients into the full
graded-lex row.  ``monomial_matrix`` builds the same basis by another
route, from powers of each coordinate, for tolerance checks.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np

from bochner2d import approx as ap
from bochner2d.errors import RankDeficientFitError


@lru_cache(maxsize=None)
def suffix_counts(caps, t):
    """counts[j], j = 0..n: how many degree-t monomials of x_j..x_{n-1} are within caps."""
    counts = [int(t == 0)]
    for j in reversed(range(len(caps))):
        top = t if caps[j] is None else min(t, caps[j])
        counts.insert(0, counts[0] + sum(suffix_counts(caps, t - e)[j + 1]
                                         for e in range(1, top + 1)))
    return tuple(counts)        # cached, so shared: immutable


def layer_sources(ambient_dim, t, caps=None):
    """(j, k) pairs building layer t+1: x_j times the last k entries of layer t.

    Those k entries are the monomials of layer t free of x_0..x_{j-1} whose
    x_j exponent is below cap_j; pairs with k = 0 are left out.
    """
    caps = ap._axis_caps(ambient_dim, caps)
    counts = suffix_counts(caps, t)
    sources = []
    for j, cap in enumerate(caps):
        # those at exactly x_j^cap are the degree t - cap monomials of x_{j+1}..
        at_cap = 0 if cap is None or cap > t else suffix_counts(caps, t - cap)[j + 1]
        if counts[j] > at_cap:
            sources.append((j, counts[j] - at_cap))
    return sources


def monomial_exponents(ambient_dim, degree, caps=None):
    """Exponent rows in graded lexicographic order, within the caps, from the pairs."""
    if degree < 0:
        return np.zeros((0, ambient_dim), dtype=int)
    layer = np.zeros((1, ambient_dim), dtype=int)
    layers = [layer]
    for t in range(degree):
        parts = [np.zeros((0, ambient_dim), dtype=int)]     # the caps may empty a layer
        for j, k in layer_sources(ambient_dim, t, caps):
            part = layer[-k:].copy()
            part[:, j] += 1
            parts.append(part)
        layer = np.concatenate(parts)
        layers.append(layer)
    return np.concatenate(layers)


def monomial_layers(points, degree, caps=None):
    """The degree-t blocks of the capped graded-lex basis, t = 0..degree.

    Each block is a new (K_t, m) array.
    """
    n, m = points.shape
    layer = np.ones((1, m))
    yield layer
    for t in range(degree):
        sources = layer_sources(n, t, caps)
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


def normal_system(samples, degree):
    """The column-scaled normal equations (A, b) and column scales, node by node.

    The (K, m) basis on the flat fit grid's positions, scaled by each
    column's largest entry, and the gram and right-hand side of its
    row-major transpose.
    """
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
    return A, b, scale


def eigh_solve(A, b, scale):
    """Coefficients (n_components, K) and rcond of the normal system by one
    truncated eigh of the whole gram."""
    w, Q = np.linalg.eigh(A)
    wmax = float(w[-1])
    if wmax <= 0.0:
        raise RankDeficientFitError("scaled normal system is identically zero")
    keep = w > ap.RCOND_CUTOFF * wmax
    inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    coeff_scaled = Q @ (inv_w[:, None] * (Q.T @ b))
    return (coeff_scaled / scale[:, None]).T, float(max(w[0], 0.0) / wmax)


def fit_and_verify(samples, degree, verify_samples):
    """The fit on the flat grid and its prediction on the verify grid, in one frame."""
    if samples.positions.shape[0] == 0:
        raise RankDeficientFitError("no samples to fit")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    n = samples.positions.shape[1]
    caps = samples.surface.monomial_caps
    kept, rcond = eigh_solve(*normal_system(samples, degree))
    exponents = ap.monomial_exponents(n, degree)
    coefficients = np.zeros((samples.values.shape[1], len(exponents)))
    coefficients[:, ap._within_caps(exponents, caps)] = kept

    poly = ap.PolynomialField(
        ambient_dim=n, degree=degree, exponents=exponents,
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
    P = np.concatenate(list(monomial_layers(maps.u_factors(u_nodes)[0], poly.degree,
                                            poly.caps)))
    Q = np.concatenate(list(monomial_layers(maps.v_factors(v_nodes)[0], poly.degree,
                                            poly.caps)))
    coeff = poly.coefficients[:, ap._within_caps(poly.exponents, poly.caps)]
    out = np.stack([(P * row[:, None]).T @ Q for row in coeff])
    return out.reshape(len(coeff), -1).T
