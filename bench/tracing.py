"""Outside-in span tracer for the bochner2d layers.

The program is not edited.  ``Tracer.installed()`` wraps every public
function of the traced modules and rebinds each module-level name in
``bochner2d.*`` that points at one of them, because ``bochner``,
``integrate`` and ``cli`` import names from ``operators`` and ``surfaces``.
``SurfaceSpec`` methods are patched on the class.  Every call records a span:
name, start, end, parent span, session id, a few size attributes of its
arguments, and whether it raised.  Spans stay in memory; leaving the
context restores every original object.

The parent stack is a plain list, so tracing assumes one thread; the
benchmark runs the program with ``BOCHNER_THREADS`` unset (one thread).
"""

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from typing import NamedTuple, Optional

import numpy as np

PACKAGE = "bochner2d"
TRACED_MODULES = ("cli", "surfaces", "_stencils", "operators", "bochner",
                  "integrate", "approx")
SURFACE_METHODS = ("embed", "jacobian", "embedding_hessian")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int            # index into the span list, -1 for a root
    session: object
    attrs: Optional[dict]
    error: bool


def _chart_attrs(args):
    u, v = args["u"], args["v"]
    attrs = {"size": int(np.broadcast(u, v).size),
             "longdouble": np.asarray(u).dtype == np.longdouble}
    if "order" in args:
        attrs["order"] = int(args["order"])
    return attrs


def _guarded_attrs(args):
    return {"size": int(np.asarray(args["U"]).size)}


def _monomial_attrs(args):
    return {"entries": int(np.shape(args["points"])[0])
            * int(np.shape(args["exponents"])[0])}


def _fit_attrs(args):
    m, n = np.shape(args["samples"].positions)
    k = math.comb(n + int(args["degree"]), n)     # monomials of degree <= d
    return {"gram_flops": 2 * m * k * k}


_SPECIAL_ATTRS = {
    "cli.guarded_eval": _guarded_attrs,
    "approx.monomial_matrix": _monomial_attrs,
    "approx.fit_polynomial_field": _fit_attrs,
}


def _attr_extractor(name, fn):
    """Function of (args, kwargs) giving a span's attributes, or None."""
    sig = inspect.signature(fn)
    extract = _SPECIAL_ATTRS.get(name)
    if extract is None and {"u", "v"} <= set(sig.parameters):
        extract = _chart_attrs
    if extract is None:
        return None

    def measure(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return extract(bound.arguments)
    return measure


class Tracer:
    """Records spans of wrapped bochner2d functions while installed."""

    def __init__(self):
        self._records = []
        self._stack = []
        self._restore = []
        self.session = None

    @property
    def spans(self):
        return [Span(*rec) for rec in self._records]

    def _wrap(self, name, fn):
        records, stack, clock = self._records, self._stack, time.perf_counter
        measure = _attr_extractor(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = measure(args, kwargs) if measure is not None else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.session,
                   attrs, False]
            stack.append(len(records))
            records.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[6] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrapped = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        spec = importlib.import_module(f"{PACKAGE}.surfaces").SurfaceSpec
        for meth in SURFACE_METHODS:
            obj = spec.__dict__[meth]
            self._restore.append((spec, meth, obj))
            setattr(spec, meth, self._wrap(f"surfaces.SurfaceSpec.{meth}", obj))

    def restore(self):
        while self._restore:
            owner, attr, obj = self._restore.pop()
            setattr(owner, attr, obj)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out
