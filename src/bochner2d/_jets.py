"""Second-order forward-mode jets in the chart coordinates (u, v).

A Jet carries an array value together with its first and second partials in
(u, v), propagated through arithmetic by the product, quotient and chain
rules (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).

Layouts.  Inside the derivative pipeline every array keeps the nodes as its
trailing, contiguous axes, with the value axes before them and the
derivative axis of a jet in front:

  v   -> (*S, *N)      the value; S the value axes, N the node axes
  d   -> (2, *S, *N)   d[i] = d_i v
  dd  -> (3, *S, *N)   rows ordered (uu, uv, vv)

so contractions over the tiny value axes (2x2 metrics, 2x2x2 connection
symbols) run their inner loops over the nodes.  The public functions of the
package keep the value axes trailing, (*N, *S) and (*N, 2, *S); they convert
at the boundary with `value_last` and `value_first`, which are views.

A jet of order 1 has ``dd`` None and a jet of order 0 has ``d`` None as well;
combining jets keeps the lower order, so one formula computes values only,
first partials or second partials.  Plain numbers and arrays act as
constants; they broadcast against the value and must not add axes to it.
Jets are never modified in place.
"""

import numpy as np


def _cross(a_d, b_d, product=np.multiply):
    """Rows (uu, uv, vv) of product(d_i a, d_j b) + product(d_j a, d_i b)."""
    (a0, a1), (b0, b1) = a_d, b_d
    return np.stack([2 * product(a0, b0), product(a0, b1) + product(a1, b0),
                     2 * product(a1, b1)])


def _both(x, y, op):
    return None if x is None or y is None else op(x, y)


class Jet:
    """A value with its first and second partials in (u, v)."""

    __slots__ = ("v", "d", "dd")
    __array_ufunc__ = None      # ndarray (op) Jet defers to the Jet's operator

    def __init__(self, v, d=None, dd=None):
        self.v, self.d, self.dd = v, d, dd

    @property
    def order(self):
        return 0 if self.d is None else 1 if self.dd is None else 2

    def _each(self, fn):
        return Jet(fn(self.v), *(None if x is None else fn(x) for x in (self.d, self.dd)))

    def __getitem__(self, idx):
        """Index the value axes from the front; the derivative axis is kept."""
        idx = idx if isinstance(idx, tuple) else (idx,)
        return Jet(self.v[idx],
                   *(None if x is None else x[(slice(None),) + idx]
                     for x in (self.d, self.dd)))

    def partial(self, i):
        """The jet of d_i v, one order lower."""
        return Jet(self.d[i], None if self.dd is None else self.dd[i:i + 2])

    def __neg__(self):
        return self._each(np.negative)

    def __pos__(self):
        return self

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.v + other, self.d, self.dd)
        return Jet(self.v + other.v, _both(self.d, other.d, np.add),
                   _both(self.dd, other.dd, np.add))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.v - other, self.d, self.dd)
        return Jet(self.v - other.v, _both(self.d, other.d, np.subtract),
                   _both(self.dd, other.dd, np.subtract))

    def __rsub__(self, other):
        return Jet(other - self.v,
                   *(None if x is None else -x for x in (self.d, self.dd)))

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._each(lambda x: x * other)
        a, b = self, other
        d = dd = None
        if a.d is not None and b.d is not None:
            d = a.d * b.v + a.v * b.d
            if a.dd is not None and b.dd is not None:
                dd = a.dd * b.v + a.v * b.dd + _cross(a.d, b.d)
        return Jet(a.v * b.v, d, dd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self._each(lambda x: x / other)
        return _quotient(self.v, self.d, self.dd, other)

    def __rtruediv__(self, other):
        return _quotient(other, 0.0, 0.0, self)


def _quotient(a_v, a_d, a_dd, b):
    """Jet of a / b from q b = a, differentiated once and twice."""
    q = a_v / b.v
    if a_d is None or b.d is None:
        return Jet(q)
    d = (a_d - q * b.d) / b.v
    dd = None
    if a_dd is not None and b.dd is not None:
        dd = (a_dd - q * b.dd - _cross(d, b.d)) / b.v
    return Jet(q, d, dd)


def _chain(x, f, f1, f2):
    """Jet of fn(x) from the value f = fn(x.v) and fn', fn'' at x.v."""
    if x.d is None:
        return Jet(f)
    return Jet(f, f1 * x.d,
               None if x.dd is None else f1 * x.dd + 0.5 * f2 * _cross(x.d, x.d))


def _elementary(fn, derivatives):
    """fn lifted to jets; derivatives(x, fn(x)) gives fn' and fn'' at x."""
    def apply(x):
        if not isinstance(x, Jet):
            return fn(x)
        f = fn(x.v)
        return Jet(f) if x.d is None else _chain(x, f, *derivatives(x.v, f))
    return apply


sqrt = _elementary(np.sqrt, lambda x, s: (0.5 / s, -0.25 / (s * x)))
sin = _elementary(np.sin, lambda x, s: (np.cos(x), -s))
cos = _elementary(np.cos, lambda x, c: (-np.sin(x), -c))


def sincos(x):
    """(sin x, cos x) of an array or a jet, evaluating np.sin and np.cos once each."""
    if not isinstance(x, Jet):
        return np.sin(x), np.cos(x)
    s, c = np.sin(x.v), np.cos(x.v)
    return _chain(x, s, c, -s), _chain(x, c, -s, -c)


def einsum(subscripts, *operands):
    """np.einsum over jets and constant arrays, differentiated by the product rule.

    Every term must end with an ellipsis for the node axes; the letter Z is
    reserved for the derivative axis, which the derivative terms put in front.
    """
    inputs, output = subscripts.split("->")
    terms = inputs.split(",")
    vals = [x.v if isinstance(x, Jet) else x for x in operands]
    jets = [k for k, x in enumerate(operands) if isinstance(x, Jet)]
    order = min(operands[k].order for k in jets)

    def derivative(k, x):
        # operand k replaced by x, whose leading derivative axis is carried along
        subs = ",".join(("Z" if n == k else "") + t for n, t in enumerate(terms))
        return np.einsum(f"{subs}->Z{output}", *vals[:k], x, *vals[k + 1:])

    def pair(k, m):
        def product(a, b):
            ops = list(vals)
            ops[k], ops[m] = a, b
            return np.einsum(subscripts, *ops)
        return _cross(operands[k].d, operands[m].d, product)

    v = np.einsum(subscripts, *vals)
    if order == 0:
        return Jet(v)
    d = sum(derivative(k, operands[k].d) for k in jets)
    if order == 1:
        return Jet(v, d)
    dd = sum(derivative(k, operands[k].dd) for k in jets)
    for n, k in enumerate(jets):
        for m in jets[n + 1:]:
            dd = dd + pair(k, m)
    return Jet(v, d, dd)


def stack(parts, axis=0):
    """Jets of one shape, or broadcastable arrays, stacked along a new value axis."""
    if not isinstance(parts[0], Jet):
        return np.stack(np.broadcast_arrays(*parts), axis=axis)
    order = min(p.order for p in parts)
    return Jet(*(np.stack([(p.v, p.d, p.dd)[k] for p in parts], axis=axis + min(k, 1))
                 for k in range(order + 1)))


def gradient(f):
    """Jet of the partials of f, one order lower, on a new first value axis."""
    return stack([f.partial(0), f.partial(1)])


def variables(u, v, order=2):
    """Seed jets of `order` of the chart coordinates over the broadcast shape of (u, v)."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    if order == 0:
        return Jet(u), Jet(v)
    zero, one = np.zeros_like(u), np.ones_like(u)
    dd = np.zeros((3,) + u.shape) if order > 1 else None
    return Jet(u, np.stack([one, zero]), dd), Jet(v, np.stack([zero, one]), dd)


def value_last(x, k):
    """View of a node-last array with its k leading axes moved behind the nodes."""
    return np.moveaxis(x, range(k), range(-k, 0))


def value_first(x, k):
    """View of an array with its k trailing axes moved in front of the nodes."""
    return np.moveaxis(x, range(-k, 0), range(k))

