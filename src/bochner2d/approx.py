"""Smoothing of continuous nowhere-zero tangent fields via ambient polynomials.

Pipeline: push the field to ambient space through the embedding Jacobian and
normalize it in the Euclidean norm (never differentiating the input, which
may be merely continuous); least-squares fit each ambient component by a
multivariate polynomial on a fit grid; measure the sup of the Euclidean
vector error over a denser verification grid, sampled at its nodes; project
the polynomial map back onto the tangent planes.  Because orthogonal
projection cannot expand the pointwise error and the sampled field is unit,
a sampled sup error below 1/2 forces the projected field to stay above 1/2
in norm at every verification node, hence nonzero there.

Monomials restricted to an algebraic surface are linearly dependent (the
sphere satisfies a quadric, the torus a quartic).  Modulo the surface's
equations, the standard monomials, those divisible by no leading term in
graded-lex order, span every polynomial function on it, so the fit takes
only the monomials within the surface's per-axis exponent caps
(``SurfaceSpec.monomial_caps``): on the Clifford torus, x0 and x2 of degree
at most 1, which cuts degree 8 from 495 columns to 145.  The torus stays
uncapped (see ``surfaces.SurfaceKind``), so its quartic leaves the columns
exactly dependent; the scaled normal equations are therefore solved by a
truncated eigendecomposition: a minimum-norm least-squares solution that is
immune to exact rank deficiency.  The chart grids are symmetric under
reflections, so monomials of different parity under one are discretely
orthogonal and the scaled gram is block diagonal up to rounding: the fit
reads the blocks off its two factor grams and decomposes each on its own
(see ``_fit``), the degree-10 torus gram of 286 columns in blocks of at
most 56.

The monomial basis is built one total degree at a time.  In graded
lexicographic order, the degree-t monomials free of x_0..x_{j-1} are a suffix
of degree layer t, so layer t+1 is the concatenation over j of x_j times that
suffix: one contiguous multiply per entry, with no power tables or gathers.
Every cap bounds a pure power, and the suffix is ordered by descending x_j
exponent, so within the caps the part whose x_j exponent is below cap_j is
again a suffix, and a capped layer is built the same way.  One cached table
entry per layer (``_layer``) holds its exponent rows and the (j, k) pairs
that build the next layer, each suffix length k counted on those rows:
``monomial_exponents`` concatenates the rows, and ``_monomial_layers``
multiplies points by the pairs.

Layout.  As in the derivative pipeline (see ``_jets``), the private arrays
keep the nodes as their trailing, contiguous axis: points enter the layers
as (n, m), each layer is a (K_t, m) block, and the tangent projection works
on (n, *N) ambient and (2, *N) chart vectors.  The public functions keep
the nodes leading; the sampled positions and values are (m, n) views of
node-last storage, so each component of the values is a (nu, nv) block on
the grid, and the sup error and the tangential norms sum the squares of
node-last rows, one component after the other.

Fit and verification on the grid's axes.  The fit and verification grids
are tensor products of chart axes, and every built-in coordinate is a
product x_k(u, v) = p_k(u) q_k(v) of the embedding's factor maps (see
``surfaces``), so a monomial is x^e = p(u)^e q(v)^e, as in sum
factorization (Orszag, J. Comput. Phys. 37, 1980).  Both stages build the
capped layers at the nu points p(u_i) and at the nv points q(v_j) only,
P (K, nu) and Q (K, nv).  The fit's basis is their face-splitting product,
so its scaled gram is (Ps Ps^T) o (Qs Qs^T), K^2 (nu + nv) multiply-adds in
place of K^2 nu nv, and its right-hand side is one GEMM of the values with
Qs (see ``_normal_system``).  A factor that is 1 on its axis and equal
factors leave P and Q with repeated rows, so both products are taken on
their distinct rows alone (``_distinct_layers``) and gathered.  The
verification predicts component c on the grid as (P * C_c[:, None])^T Q,
one GEMM of nu x K x nv per component, in place of K products at each of
the nu nv nodes, and the projection of that prediction takes J and the
metric (``surfaces._assemble``) on the same two axes.
``evaluate_polynomial_field`` serves arbitrary points: it streams them in
EVAL_CHUNK blocks.

Lifetimes.  Each degree tried is fitted, then verified, and the two stages
never hold their arrays at the same time: ``_fit`` builds P, Q, the K x K
gram and the eigendecompositions of its blocks in its own frame and returns
only the coefficients, so they are freed before the verification predicts
the grid through its axes (``_grid_prediction``), whose tables hold
K (nu + nv) doubles besides the prediction itself.  No stage holds a (K, m)
basis of the grid's nodes: the degree-10 torus fit (K = 286) on a 32x32
grid peaks at about 1.61 MB of traced allocations, most of it two K x K
matrices, the gram and the gathered factor gram that multiplies into it;
the links that give its blocks take K^2 bytes and the blocks' eigenvectors
0.09 MB.  ``evaluate_polynomial_field``
holds two degree layers of one EVAL_CHUNK block of its points at a time.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from . import surfaces as surf
from .errors import BudgetNotMetError, RankDeficientFitError, ZeroFieldPointError
from .operators import TangentField, _vanishes
from .surfaces import ChartPoint, chart_grid

SAMPLE_FLOOR = 1e-9        # ambient norm below this, relative to the chart, is a zero
ERROR_BUDGET = 0.5         # sampled sup error target for the vector fit
RCOND_CUTOFF = 1e-10       # eigenvalue truncation for the scaled normal system
VERIFY_FACTOR = 4          # verification grid density per axis vs fit grid
EVAL_CHUNK = 8192          # nodes per block when streaming large point sets


@dataclass(frozen=True)
class AmbientFieldSamples:
    """Unit ambient tangent samples of a field on a chart grid."""
    surface: object
    grid_shape: tuple
    chart_u: np.ndarray
    chart_v: np.ndarray
    positions: np.ndarray      # (m, n) ambient points
    values: np.ndarray         # (m, n) ambient vectors
    axes: tuple                # (u_nodes, v_nodes) of the grid; node i * nv + j


@dataclass(frozen=True)
class PolynomialField:
    """Component polynomials in ambient coordinates with a sampled sup error.

    Monomial ordering is graded lexicographic: ascending total degree,
    ties broken by descending exponent tuple.  The basis is implied by
    (ambient_dim, degree); `exponents` is monomial_exponents of that pair.
    A fit in a surface's standard monomials records their `caps` and holds
    exact zeros in the columns outside them, so every field keeps the full
    graded-lex row; a nonzero coefficient outside the caps is rejected.
    """
    ambient_dim: int
    degree: int
    exponents: np.ndarray      # (K, n) int
    coefficients: np.ndarray   # (n_components, K)
    sup_error: float
    fit_grid: tuple
    verify_grid: tuple
    rcond: float
    caps: Optional[tuple] = None   # per-axis exponent caps of the basis used

    def __post_init__(self):
        if np.any(self.coefficients[:, ~_within_caps(self.exponents, self.caps)]):
            raise ValueError(f"nonzero coefficient outside the monomial caps "
                             f"{self.caps}")


@dataclass(frozen=True)
class SmoothedFieldReport:
    """Outcome of the degree-escalation smoothing run."""
    final_degree: int
    sup_error: float
    min_tangential_norm: float
    target: float
    passed: bool
    degrees_tried: tuple
    sup_errors: tuple          # sampled sup error of each degree tried


def _axis_caps(ambient_dim, caps):
    """caps as a tuple of one entry per axis, None for an uncapped axis."""
    return (None,) * ambient_dim if caps is None else tuple(caps)


def _cap_limits(caps):
    """The per-axis caps as an array, inf for an uncapped axis."""
    return np.array([np.inf if c is None else c for c in caps])


def _within_caps(exponents, caps):
    """Boolean mask of the exponent rows within the per-axis caps."""
    return np.all(exponents <= _cap_limits(_axis_caps(exponents.shape[1], caps)), axis=1)


@lru_cache(maxsize=None)
def _layer(ambient_dim, t, caps):
    """Degree layer t of the capped graded-lex basis: (rows, sources).

    rows are its exponent rows, read-only because the cache shares them.
    sources are the (j, k) pairs that build layer t+1 as x_j times the last
    k rows, k counted on the rows: those free of x_0..x_{j-1} whose x_j
    exponent is below cap_j, a suffix of the layer (see the module
    docstring); pairs with k = 0 are left out.  caps has one entry per axis.
    Layer t reads layer t-1 from the cache, so callers go through
    ``_layers``, which builds them bottom-up.
    """
    if t == 0:
        rows = np.zeros((1, ambient_dim), dtype=int)
    else:
        prev, sources = _layer(ambient_dim, t - 1, caps)
        unit = np.eye(ambient_dim, dtype=int)
        # prev[:0] keeps the shape of a layer that the caps empty
        rows = np.concatenate([prev[:0], *(prev[-k:] + unit[j] for j, k in sources)])
    rows.flags.writeable = False
    lead = np.cumsum(rows, axis=1) - rows       # the degree in x_0..x_{j-1}, per row and j
    counts = np.count_nonzero((lead == 0) & (rows < _cap_limits(caps)), axis=0)
    return rows, tuple((j, int(k)) for j, k in enumerate(counts) if k)


def _layers(ambient_dim, degree, caps):
    """The cached (rows, sources) of layers 0..degree, built bottom-up."""
    caps = _axis_caps(ambient_dim, caps)
    return [_layer(ambient_dim, t, caps) for t in range(degree + 1)]


def monomial_exponents(ambient_dim, degree, caps=None):
    """Exponent rows in graded lexicographic order, those within the caps.

    A fresh array: the cached rows of each layer, concatenated.
    """
    return np.concatenate([np.zeros((0, ambient_dim), dtype=int)]
                          + [rows for rows, _ in _layers(ambient_dim, degree, caps)])


def _monomial_layers(points, degree, caps=None):
    """Yield the degree-t blocks of the graded-lex basis, t = 0..degree, node-last.

    points is (n, m); block t is a fresh C-contiguous (K_t, m) array.
    Stacked, the blocks are the products prod_j points[j]^e_j over the
    exponent rows e of monomial_exponents(n, degree, caps).
    Only two layers are referenced at a time, so a consumer that reduces
    each block as it arrives holds O(max K_t * m) memory.
    """
    n, m = points.shape
    layer = np.ones((1, m))
    yield layer
    for _, sources in _layers(n, degree - 1, caps):
        nxt = np.empty((sum(k for _, k in sources), m))
        row = 0
        for j, k in sources:
            np.multiply(points[j], layer[-k:], out=nxt[row:row + k])
            row += k
        layer = nxt
        yield layer


def evaluate_polynomial_field(poly, points):
    """Values of the component polynomials at ambient points, (m, n_components).

    The points are arbitrary; values on a chart grid go through its axes
    (see ``_grid_prediction``).  Nodes are streamed in EVAL_CHUNK blocks
    and each (K_t, nodes) degree layer of the basis within `poly.caps` is
    contracted with its coefficient block as soon as it is built.  The
    result is a view of node-last storage.
    """
    points = np.asarray(points, dtype=float).T
    coeff = poly.coefficients[:, _within_caps(poly.exponents, poly.caps)]
    m = points.shape[1]
    out = np.zeros((coeff.shape[0], m))
    for lo in range(0, m, EVAL_CHUNK):
        block = slice(lo, lo + EVAL_CHUNK)
        row = 0
        for layer in _monomial_layers(points[:, block], poly.degree, poly.caps):
            k = layer.shape[0]
            out[:, block] += coeff[:, row:row + k] @ layer
            row += k
    return out.T


def sample_unit_field(surface, X, grid):
    """Euclidean-unit ambient samples of a tangent field on a grid.

    The chart coefficients are pushed forward through the embedding Jacobian
    and normalized by their ambient norm; the input field is only evaluated,
    never differentiated.  Raises ZeroFieldPointError when the ambient norm
    falls below SAMPLE_FLOOR relative to the chart's scale (the rule of
    `operators._vanishes`, with |J X|^2 = g(X, X) and |J|_F^2 = tr g) or is
    not finite anywhere on the grid; a field that divides by zero or
    overflows there is named by that error, not warned about.  The
    positions are the embedding on the grid's axes.
    """
    U, V = grid.U, grid.V
    u, v = grid.u_nodes[:, None], grid.v_nodes[None, :]
    jac = surface.maps.d1(u, v)                       # (n, 2, nu, nv)
    # a non-finite or overflowing coefficient or norm is flagged below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        coeff = np.asarray(X.coeff(U, V), dtype=float)    # (nu, nv, 2)
        ambient = jac[:, 0] * coeff[..., 0] + jac[:, 1] * coeff[..., 1]
        # |J X|^2 = g(X, X) and |J|_F^2 = tr g
        n2 = _square_sum(ambient)
        zero = _vanishes(n2, _square_sum(jac.reshape(-1, *U.shape)), SAMPLE_FLOOR)
    norms = np.sqrt(n2)
    finite = np.isfinite(norms)
    bad = ~finite | zero                  # a NaN or inf norm is no usable node
    if np.any(bad):
        pts = [ChartPoint(float(a), float(b))
               for a, b in zip(U[bad].ravel()[:16], V[bad].ravel()[:16])]
        n_nan = int(np.count_nonzero(~finite))
        n_low = int(np.count_nonzero(bad)) - n_nan
        counts = []
        if n_low:
            counts.append(f"ambient norm below {SAMPLE_FLOOR:g} at {n_low} grid node(s)")
        if n_nan:
            counts.append(f"a non-finite ambient norm at {n_nan} grid node(s)")
        raise ZeroFieldPointError(f"field {X.name!r} has {' and '.join(counts)}",
                                  points=pts)
    ambient /= norms
    positions = surface.maps.embed(u, v)                        # (n, nu, nv)
    n, m = surface.ambient_dim, U.size
    return AmbientFieldSamples(
        surface=surface, grid_shape=(grid.nu, grid.nv),
        chart_u=U.reshape(m), chart_v=V.reshape(m),
        positions=positions.reshape(n, m).T, values=ambient.reshape(n, m).T,
        axes=(grid.u_nodes, grid.v_nodes))


def _square_sum(x):
    """sum_a x[a]^2 over the leading axis, in the order of a, at every node."""
    out = np.square(x[0])
    for row in x[1:]:
        out += row * row
    return out


@lru_cache(maxsize=None)
def _reduction(ambient_dim, degree, caps, variables):
    """The monomials within the caps as monomials of fewer variables: (rows, index).

    variables[j] is the variable of axis j, or -1 where its factor is 1, so
    x^e is y^(e M) with M the 0/1 (ambient_dim, n_variables) matrix of
    variables.  rows are the rows of the graded-lex basis of the variables
    that some y^(e M) takes, ascending, and index[k] is the position in
    rows of the k-th monomial's.  Both are read-only: the cache shares them.
    """
    merge = np.equal.outer(variables, np.arange(max(variables, default=-1) + 1))
    rank = {e: i for i, e in enumerate(map(tuple, monomial_exponents(
        merge.shape[1], degree).tolist()))}
    reduced = monomial_exponents(ambient_dim, degree, caps) @ merge.astype(int)
    rows, index = np.unique([rank[e] for e in map(tuple, reduced.tolist())],
                            return_inverse=True)
    for a in (rows, index):
        a.flags.writeable = False
    return rows, index


def _distinct_layers(points, degree, caps):
    """The capped graded-lex basis at points (n, m) as its distinct rows and an index.

    A factor that is 1 at every point drops out of every monomial, and
    equal factors multiply as one variable, so the basis is the rows, at
    the index, of the basis of the remaining distinct factors (see
    ``_reduction``): on the torus the 286 degree-10 monomials take 66
    distinct rows on either axis.
    """
    keys = [row.tobytes() for row in points]      # equal bytes, equal factors
    one = np.ones_like(points[0]).tobytes()
    distinct = list(dict.fromkeys(k for k in keys if k != one))
    variables = tuple(distinct.index(k) if k != one else -1 for k in keys)
    rows, index = _reduction(len(points), degree, caps, variables)
    reduced = points[[keys.index(k) for k in distinct]]
    return np.concatenate(list(_monomial_layers(reduced, degree)))[rows], index


def _axis_layers(samples, degree, caps):
    """The capped graded-lex basis at the points p(u_i) and at the points q(v_j)
    of the samples' grid axes, P (K, nu) and Q (K, nv), each as its distinct
    rows and an index (see ``_distinct_layers``)."""
    maps = samples.surface.maps
    u_nodes, v_nodes = samples.axes
    return tuple(_distinct_layers(points, degree, caps)
                 for points in (maps.u_factors(u_nodes)[0], maps.v_factors(v_nodes)[0]))


def _normal_system(samples, degree):
    """The column-scaled normal equations (A, b) of the fit, the column scales
    and the diagonal blocks of A (see ``_blocks``).

    The K columns are the monomials within the caps of the samples'
    surface, x^e = p(u)^e q(v)^e on the fit grid's axes: with P (K, nu) and
    Q (K, nv) the capped layers at the points p(u_i) and q(v_j), column k
    is P_k Q_k^T and its scale max|P_k| max|Q_k| is its largest entry.  So
    the gram of the scaled columns is (Ps Ps^T) o (Qs Qs^T), and the
    right-hand side of component c, on the grid as Y_c (nu, nv), is
    b[k, c] = (Ps Y_c Qs^T)[k, k].  P and Q are held as their distinct
    rows and an index (``_distinct_layers``), so both products are taken
    on the distinct rows and gathered: small enough for the BLAS to run
    them on one thread, so that the system is the same at any thread count.
    Columns k and l are linked unless entry (k, l) of Ps Ps^T or of Qs Qs^T
    is within max(nu, nv) eps of the root of its two diagonal entries (see
    ``_fit``), read off the distinct rows and gathered as booleans; the
    blocks are the components of the links, a zero column on its own.
    """
    (P, iu), (Q, iv) = _axis_layers(samples, degree, samples.surface.monomial_caps)
    ps, qs = np.max(np.abs(P), axis=1), np.max(np.abs(Q), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = ps[iu] * qs[iv]       # NaN or inf where P_k Q_k^T is not finite
    if not np.all(np.isfinite(scale)):
        raise RankDeficientFitError("monomial matrix contains non-finite entries")

    Ps, Qs = (np.divide(T, s[:, None], out=np.zeros_like(T), where=(s > 0.0)[:, None])
              for T, s in ((P, ps), (Q, qs)))
    Gu, Gv = Ps @ Ps.T, Qs @ Qs.T
    A = Gu[iu][:, iu]
    A *= Gv[iv][:, iv]
    nu, nv = P.shape[1], Q.shape[1]
    values = samples.values.T.reshape(-1, nv)                   # (n nu, nv), node-last
    b = (Ps @ (values @ Qs.T).reshape(-1, nu, len(Qs)))[:, iu, iv].T     # (K, n)
    gamma = max(nu, nv) * np.finfo(float).eps
    link = _links(Gu, gamma)[iu][:, iu]
    link &= _links(Gv, gamma)[iv][:, iv]
    dead = scale == 0.0               # a column that is zero in floating point stays zero
    A[dead] = A[:, dead] = b[dead] = 0.0
    link[dead] = link[:, dead] = False
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(b)):
        raise RankDeficientFitError("normal system contains non-finite entries")
    return A, b, np.where(dead, 1.0, scale), _blocks(link)


def _links(G, gamma):
    """Whether each entry of the gram G exceeds gamma times the root of its
    two diagonal entries: the entries within that bound are rounding."""
    d = np.sqrt(np.diagonal(G))
    return np.abs(G) > gamma * np.multiply.outer(d, d)


def _blocks(link):
    """The diagonal blocks of a symmetric pattern, as index arrays grouped by size.

    The blocks are the connected components of the boolean K x K link,
    whose diagonal this sets, each in ascending index order.  Returns one
    (n_blocks, size) array per block size, in ascending size; a pattern
    with no zeros is one block, arange(K).
    """
    K = len(link)
    np.fill_diagonal(link, True)
    # each index starts at its least link and takes the least root among its
    # links until none moves; the roots of the fixed point name the blocks
    root = np.argmax(link, axis=1).astype(np.min_scalar_type(K))
    while True:
        nxt = np.where(link, root, K).min(axis=1)
        if np.array_equal(nxt, root):
            break
        root = nxt
    order = np.argsort(root, kind="stable")
    sizes = np.bincount(root, minlength=K)
    sizes = sizes[sizes > 0]                    # one per block, in root order
    starts = np.cumsum(sizes) - sizes
    return [order[starts[sizes == s][:, None] + np.arange(s)]
            for s in sorted(set(sizes.tolist()))]


def _fit(samples, degree):
    """Coefficients (n_components, K) of the truncated-eigh fit, and its rcond.

    The chart grids are symmetric (periodic axes equispaced from 0,
    Gauss-Legendre axes symmetric about their midpoint), so monomials of
    different parity under a reflection of the grid are discretely
    orthogonal and the scaled gram is block diagonal up to rounding.  An
    entry of a factor gram Ps Ps^T or Qs Qs^T that is zero in exact
    arithmetic rounds to at most max(nu, nv) eps times the root of its two
    diagonal entries, and so does its product with the other factor's
    entry: the blocks that ``_normal_system`` returns drop those entries
    of A, inside eigh's own backward error.  Each block is decomposed by
    eigh, the blocks of one size in one stacked call, and the eigenvalues
    below RCOND_CUTOFF times the largest of all blocks are discarded, as in one
    eigh of the whole gram; a gram without a zero pattern is one block and
    that one call.  The normal system (see ``_normal_system``) and its
    eigendecompositions live only in this frame, so they are freed before
    the verification grid is evaluated.
    """
    A, b, scale, blocks = _normal_system(samples, degree)
    blocks = [(idx, *np.linalg.eigh(A[idx[:, :, None], idx[:, None, :]]))
              for idx in blocks]
    wmax = max(float(w.max()) for _, w, _ in blocks)
    if wmax <= 0.0:
        raise RankDeficientFitError("scaled normal system is identically zero")
    wmin = min(float(w.min()) for _, w, _ in blocks)
    coeff_scaled = np.empty_like(b)
    for idx, w, V in blocks:
        keep = w > RCOND_CUTOFF * wmax
        inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
        coeff_scaled[idx] = V @ (inv_w[..., None] * (np.swapaxes(V, 1, 2) @ b[idx]))
    return (coeff_scaled / scale[:, None]).T, max(wmin, 0.0) / wmax


def _sup_error(pred, values):
    """max over the nodes of |pred - values|, both (m, n) views of node-last storage.

    The squares are summed component by component and the root is taken
    once, of the largest sum: sqrt is monotone, so this is
    np.max(np.linalg.norm(pred - values, axis=1)) to the bit, NaN included.
    """
    diff = pred.T - values.T
    return float(np.sqrt(np.max(_square_sum(diff))))


def _fit_and_verify(samples, degree, verify_samples):
    """Least-squares polynomial per ambient component, sup error sampled.

    The fit is on `samples`' grid, the sup error on `verify_samples`' grid.
    The normal equations of the column-scaled monomial basis are solved by
    eigendecomposition of the gram's diagonal blocks (see ``_fit``) with
    cutoff RCOND_CUTOFF relative to the largest eigenvalue of all blocks;
    directions below the cutoff are discarded (minimum-norm solution).
    rcond is the least eigenvalue of all blocks, floored at 0, over that
    largest one.  RankDeficientFitError
    is raised only when the system is degenerate beyond that remedy
    (non-finite data or an identically zero basis).  Returns the
    PolynomialField and its prediction on the verification grid.
    """
    if samples.values.shape[0] == 0:
        raise RankDeficientFitError("no samples to fit")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    kept, rcond = _fit(samples, degree)
    n = samples.surface.ambient_dim
    caps = samples.surface.monomial_caps
    exponents = monomial_exponents(n, degree)
    coefficients = np.zeros((kept.shape[0], len(exponents)))
    coefficients[:, _within_caps(exponents, caps)] = kept
    poly = PolynomialField(
        ambient_dim=n, degree=degree, exponents=exponents,
        coefficients=coefficients, sup_error=np.nan,
        fit_grid=samples.grid_shape, verify_grid=verify_samples.grid_shape,
        rcond=rcond, caps=caps)
    pred = _grid_prediction(poly, verify_samples)
    return replace(poly, sup_error=_sup_error(pred, verify_samples.values)), pred


def _grid_prediction(poly, samples):
    """Values of poly on the samples' tensor grid, (m, n_components), through its axes.

    Every ambient coordinate is p_k(u) q_k(v), so a monomial is
    x^e = p(u)^e q(v)^e: the capped graded-lex layers built at the nu
    points p(u_i) and at the nv points q(v_j) give P (K, nu) and Q (K, nv),
    and component c on the grid is (P * C_c[:, None])^T Q, one small GEMM.
    The result is a view of node-last storage.
    """
    P, Q = (rows[index] for rows, index in _axis_layers(samples, poly.degree, poly.caps))
    coeff = poly.coefficients[:, _within_caps(poly.exponents, poly.caps)]
    out = np.empty((coeff.shape[0], P.shape[1], Q.shape[1]))
    for c, row in enumerate(coeff):
        np.matmul((P * row[:, None]).T, Q, out=out[c])
    return out.reshape(coeff.shape[0], -1).T


def _tangent_coefficients(surface, w, u, v):
    """Chart coefficients g^-1 J^T w of the tangential part of w, node-last.

    w is (n, *N) over the broadcast node shape N of (u, v); returns the
    (2, *N) coefficients and the (n, 2, *N) Jacobian.  g comes from the
    factored assembly (``surfaces._assemble``), so on a grid passed as its
    axes, (nu, 1) and (1, nv), J and g are built from nu + nv points.
    Raises DegenerateMetricError where the metric is degenerate as in
    `operators.local_geometry`.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    jac = surface.maps.d1(u, v)
    g, _, _, det = surf._assemble(surface, u, v, 0)
    surf._require_nondegenerate(surface, g, det, u, v)
    g_inv = g[::-1, ::-1] * surf.cofactor_signs(det.ndim) / det
    jtw = np.einsum("ai...,a...->i...", jac, w)
    return np.einsum("ij...,j...->i...", g_inv, jtw), jac


def project_to_tangent(surface, vectors, u, v):
    """Orthogonal projection of ambient vectors onto tangent planes.

    vectors has shape (..., n) aligned with the broadcast shape of (u, v).
    Raises DegenerateMetricError at a chart singularity.
    """
    w = np.moveaxis(np.asarray(vectors, dtype=float), -1, 0)
    coeff, jac = _tangent_coefficients(surface, w, u, v)
    return np.moveaxis(np.einsum("ai...,i...->a...", jac, coeff), 0, -1)


def chart_coefficients_field(surface, poly, name="smoothed"):
    """Chart-coefficient tangent field of the projected polynomial map.

    Coefficients are g^{-1} J^T P(x(u, v)): polynomial composed with the
    embedding, hence smooth wherever the chart is.
    """
    def coeff(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        pos = surface.maps.embed(u, v)                    # (n, *N)
        vals = evaluate_polynomial_field(poly, pos.reshape(pos.shape[0], -1).T)
        w = vals.T.reshape(pos.shape)
        return np.moveaxis(_tangent_coefficients(surface, w, u, v)[0], 0, -1)

    return TangentField(coeff, name=name)


def smooth_field(surface, X, max_degree=16, fit_grid=(64, 64)):
    """Escalate polynomial degree until the vector sup error is under 1/2.

    Degrees 2, 4, ... up to max_degree are tried on the fit grid; each fit's
    sup error is sampled on the verification grid, VERIFY_FACTOR x denser
    per axis.  Both grids are sampled by `sample_unit_field`, so a zero or
    non-finite node of either raises ZeroFieldPointError.  Returns
    (SmoothedFieldReport, smooth TangentField, poly).  Raises
    DegenerateMetricError where the fit grid's metric is degenerate, after
    the samples' own checks and before any fit; and BudgetNotMetError,
    carrying the report of the best attempt, when no tried degree meets the
    budget.
    """
    nu, nv = fit_grid
    grid = chart_grid(surface, nu, nv)
    fit_samples = sample_unit_field(surface, X, grid)
    verify_samples = sample_unit_field(
        surface, X, chart_grid(surface, VERIFY_FACTOR * nu, VERIFY_FACTOR * nv))
    u, v = grid.u_nodes[:, None], grid.v_nodes[None, :]
    g, _, _, det = surf._assemble(surface, u, v, 0)
    surf._require_nondegenerate(surface, g, det, u, v)

    degrees = list(range(2, max_degree + 1, 2))
    best = best_pred = None
    tried = []
    errors = []
    for d in degrees:
        poly, pred = _fit_and_verify(fit_samples, d, verify_samples)
        tried.append(d)
        errors.append(poly.sup_error)
        if best is None or poly.sup_error < best.sup_error:
            best, best_pred = poly, pred
        if poly.sup_error < ERROR_BUDGET:
            break
    if best is None or best.sup_error >= ERROR_BUDGET:
        achieved = float("inf") if best is None else best.sup_error
        report = SmoothedFieldReport(
            final_degree=-1 if best is None else best.degree,
            sup_error=achieved, min_tangential_norm=0.0, target=ERROR_BUDGET,
            passed=False, degrees_tried=tuple(tried), sup_errors=tuple(errors))
        raise BudgetNotMetError(
            f"no degree <= {max_degree} certified sup error < {ERROR_BUDGET:g} "
            f"(best achieved {achieved:.6g})", report=report)

    # projected on the verification grid's axes, its norms taken node-last
    u_nodes, v_nodes = verify_samples.axes
    w = best_pred.T.reshape(-1, *verify_samples.grid_shape)
    proj = project_to_tangent(surface, np.moveaxis(w, 0, -1),
                              u_nodes[:, None], v_nodes[None, :])
    min_tan = float(np.sqrt(np.min(_square_sum(np.moveaxis(proj, -1, 0)))))
    report = SmoothedFieldReport(
        final_degree=best.degree, sup_error=best.sup_error,
        min_tangential_norm=min_tan, target=ERROR_BUDGET,
        passed=bool(best.sup_error < ERROR_BUDGET
                    and min_tan > ERROR_BUDGET - 1e-9),
        degrees_tried=tuple(tried), sup_errors=tuple(errors))
    smooth = chart_coefficients_field(surface, best, name=f"smooth({X.name})")
    return report, smooth, best


# ---------------------------------------------------------------------------
# portable coefficient files
# ---------------------------------------------------------------------------

def write_coefficient_file(poly, path):
    """Plain-text export: header, then one coefficient row per component.

    The monomial basis is implied by (ambient_dim, degree) and the graded
    lexicographic ordering; coefficients carry 17 significant digits.
    """
    lines = [
        f"ambient_dim {poly.ambient_dim}",
        f"degree {poly.degree}",
        "monomial_ordering graded-lexicographic",
        f"components {poly.coefficients.shape[0]}",
        f"terms {poly.coefficients.shape[1]}",
    ]
    for row in poly.coefficients:
        lines.append(" ".join(f"{c:.17g}" for c in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coefficient_file(path):
    """Inverse of write_coefficient_file; sup_error metadata is not stored.

    The file holds the full graded-lex row, so the caps of the fit's basis
    are read off its zero pattern (`_caps_of`).
    """
    with open(path) as fh:
        header = {}
        for _ in range(5):
            key, val = fh.readline().split()
            header[key] = val
        if header["monomial_ordering"] != "graded-lexicographic":
            raise ValueError("unsupported monomial ordering")
        n = int(header["ambient_dim"])
        degree = int(header["degree"])
        ncomp = int(header["components"])
        nterms = int(header["terms"])
        rows = [np.array([float(t) for t in fh.readline().split()])
                for _ in range(ncomp)]
    coeff = np.vstack(rows)
    # checked before the basis is built: its layers stay cached
    if coeff.shape != (ncomp, nterms) or math.comb(n + degree, n) != nterms:
        raise ValueError("coefficient file is inconsistent with its header")
    exps = monomial_exponents(n, degree)
    return PolynomialField(ambient_dim=n, degree=degree, exponents=exps,
                           coefficients=coeff, sup_error=np.nan,
                           fit_grid=(), verify_grid=(), rcond=np.nan,
                           caps=_caps_of(exps, coeff, degree))


def _caps_of(exponents, coefficients, degree):
    """The tightest per-axis caps holding every nonzero coefficient.

    An axis whose largest exponent among the nonzero columns is the degree
    is uncapped (None), and so is the basis when every axis is.
    """
    used = exponents[np.any(coefficients != 0.0, axis=0)]
    top = used.max(axis=0, initial=0)
    caps = tuple(None if t == degree else int(t) for t in top)
    return None if all(c is None for c in caps) else caps
