"""The tile kernels against their reference forms in ``kernel_oracle``, bit for bit.

``_levi_civita`` writes out the jet arithmetic of det g, g^-1 / 2 and S on
the metric jet's arrays, ``_ricci`` forms only the components of the
curvature tensor that its trace reads, ``_jets.einsum`` adds its derivative
terms in place, and ``_jets.stack`` and ``_cross`` fill one block.  numpy's
einsum picks its summation kernels by the operands' shapes and strides, so
every layout that a caller passes is drawn: a tile's axes, flat nodes, one
node and a scalar node.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bochner2d import _jets, bochner, cli
from bochner2d import operators as op
from bochner2d import surfaces as surf

import kernel_oracle

LAYOUTS = {"axes": ((6, 1), (1, 5)), "flat": ((13,), (13,)), "one node": ((1,), (1,)),
           "scalar": ((), ())}
# the four families, a metric below DET_MIN and one that overflows to NaN
SURFACES = [("torus", (2.0, 1.0)), ("sphere", (1.0,)), ("ellipsoid", (1.0, 1.3, 0.7)),
            ("clifford_torus", (1.0,)), ("sphere", (1e-38,)), ("torus", (1e200, 1e199))]


def parts(x):
    """The arrays of a jet, or a plain array alone."""
    if not isinstance(x, _jets.Jet):
        return [x]
    return [p for p in (x.v, x.d, x.dd) if p is not None]


def assert_same(mine, ref, what):
    mine, ref = parts(mine), parts(ref)
    assert len(mine) == len(ref), what
    for k, (a, b) in enumerate(zip(mine, ref)):
        assert (a.shape, a.dtype) == (b.shape, b.dtype), (what, k)
        assert np.array_equal(a, b, equal_nan=True), (what, k)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SURFACES), st.sampled_from(("analytic", "fd")),
       st.sampled_from(sorted(LAYOUTS)), st.sampled_from((1, 2)),
       st.sampled_from(("expression", "unit", "constant")), st.integers(0, 2 ** 32 - 1))
def test_kernels_are_the_reference_kernels_bit_for_bit(surface, mode, layout, order,
                                                       field, seed):
    s = surf.make_surface(*surface, mode=mode)
    rng = np.random.default_rng(seed)
    rect = s.chart_rect
    u = rng.uniform(rect.u0, rect.u1, LAYOUTS[layout][0])
    v = rng.uniform(rect.v0, rect.v1, LAYOUTS[layout][1])
    X = cli.expression_field("2+sin(u)*v", "cos(v)*u")
    with np.errstate(all="ignore"):
        g = _jets.Jet(*surf._assemble(s, u, v, order)[:order + 1])
        mine, ref = op._levi_civita(g), kernel_oracle.levi_civita(g)
        for name, a, b in zip(("gamma", "dlogs"), mine, ref):
            assert_same(a, b, (s.name, name))
        if order == 2:
            assert_same(op._ricci(mine[0]), kernel_oracle.ricci(ref[0]), (s.name, "ricci"))
        if field == "expression":
            x = X.jet(s, u, v, order, g)
        elif field == "unit":
            x = bochner._unit_jet(s, X, u, v, order, g, bochner.ZERO_FLOOR)[0]
        else:
            x = op.constant_field(0.5, -2.0).jet(s, u, v, order, g)
        # the contractions of a node batch and of the unit field
        gamma, dlogs = ref
        jet = isinstance(x, _jets.Jet)
        cases = [("ij...,i...,j...->...", (g, x, x)), ("kij...,j...->ki...", (gamma, x)),
                 ("i...,i...->...", (x.truncated(x.order - 1) if jet else x, dlogs)),
                 ("ki...,i...->k...", (kernel_oracle.einsum("kij...,j...->ki...", gamma, x), x))]
        if jet:
            cases += [("ik...->ki...", (_jets.gradient(x),)), ("ii...->...", (_jets.gradient(x),))]
        for subscripts, args in cases:
            assert_same(_jets.einsum(subscripts, *args),
                        kernel_oracle.einsum(subscripts, *args), (s.name, subscripts))
        if jet:
            a, b = x[0], x[1]
            product = a * b
            if order == 2:      # the second partials of a product, with the cross row
                assert_same(product.dd, a.dd * b.v + a.v * b.dd + kernel_oracle.cross(a.d, b.d),
                            (s.name, "product"))
            stacked = _jets.stack([a, b, product])
            for k, p in enumerate(parts(stacked)):
                assert_same(p, np.stack([parts(y)[k] for y in (a, b, product)], axis=min(k, 1)),
                            (s.name, "stack"))
            arrays = [a.v, np.float64(2.0), product.v]     # a constant broadcasts
            assert_same(_jets.stack(arrays), np.stack(np.broadcast_arrays(*arrays)),
                        (s.name, "stack of arrays"))
