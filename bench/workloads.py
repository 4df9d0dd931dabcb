"""Seeded session generator for the three benchmark workloads.

A session is a workload's fixed list of CLI commands run on one freshly
drawn set of inputs.  Inputs come only from ``random.Random`` seeded with the
workload name, the run seed and the session index, so the same seed always
gives the same argv lists and different sessions never share inputs.

Only cost-neutral properties are drawn: radii, axes, phases and the offset
of a nowhere-zero field.  Grid sizes, backends and field amplitudes are
fixed, because they set the node counts and the smoothing degrees tried.
"""

import random

WORKLOADS = {
    "exact": "closed-form derivative route: metric assembly and field "
             "callbacks do the work, stencils and polynomial fits stay idle",
    "stencil": "fd-backend metric stencils in long double plus nested float64 "
               "stencils on a callback-free expression field",
    "smooth": "polynomial smoothing: Vandermonde builds on the dense "
              "verification grid and gram/eigh fits, up to 495 monomials in R^4",
}

CALLBACK_FIELDS = ("du", "dv", "du+dv")


def _num(x):
    return f"{x:.4f}"


def _exact(rng):
    tor = f"torus:{_num(rng.uniform(1.5, 3.0))},1"
    ell = "ellipsoid:" + ",".join(_num(rng.uniform(0.8, 1.3)) for _ in range(3))
    cli = f"clifford_torus:{_num(rng.uniform(0.5, 2.0))}"
    f_tor = rng.choice(CALLBACK_FIELDS)
    f_cli = rng.choice(CALLBACK_FIELDS)
    grid = ["--grid", "64x64"]
    return [
        ["verify", "--surface", tor, "--field", f_tor, *grid],
        ["gauss-bonnet", "--surface", tor, "--field", f_tor, *grid],
        # dv vanishes only at the poles, which the guard band excludes
        ["verify", "--surface", ell, "--field", "dv", *grid],
        # every field on a sphere-like surface has zeros, so none is given
        ["gauss-bonnet", "--surface", ell, *grid],
        ["verify", "--surface", cli, "--field", f_cli, *grid],
        ["gauss-bonnet", "--surface", cli, "--field", f_cli, *grid],
    ]


def _stencil(rng):
    tor = f"torus:{_num(rng.uniform(1.5, 3.0))},1"
    offset = _num(rng.uniform(1.5, 3.0))      # > 1, so the field has no zeros
    p, q = (_num(rng.uniform(0.0, 6.2832)) for _ in range(2))
    expr = f"{offset}+sin(u+{p}),cos(v+{q})"
    return [
        ["verify", "--surface", tor, "--backend", "fd", "--field", "du+dv",
         "--grid", "32x32"],
        ["gauss-bonnet", "--surface", tor, "--backend", "fd", "--field", "du",
         "--grid", "32x32"],
        ["verify", "--surface", tor, "--field", expr, "--grid", "48x48"],
    ]


def _smooth(rng):
    # The ranges keep the degrees tried fixed.  Over R in [2, 2.5] and all
    # phases the torus fit has sup error >= 0.55 at degree 8 and <= 0.45 at
    # degree 10.  At amplitude 3.5 the clifford fit has >= 0.53 at degree 6
    # and <= 0.46 at degree 8; amplitude 3 sits on the 0.5 budget at
    # degree 6, so its phase decides whether degree 8 is tried.
    tor = f"torus:{_num(rng.uniform(2.0, 2.5))},1"
    p1 = _num(rng.uniform(0.0, 6.2832))
    p2, q2 = (_num(rng.uniform(0.0, 6.2832)) for _ in range(2))
    return [
        ["smooth", "--surface", tor,
         "--field", f"cos(4*u+v+{p1}),sin(4*u+v+{p1})", "--grid", "32x32"],
        ["smooth", "--surface", "clifford_torus:1",
         "--field", f"1,3.5*sin(2*u+{p2})*cos(3*v+{q2})", "--grid", "24x24"],
    ]


_SESSION_MAKERS = {"exact": _exact, "stencil": _stencil, "smooth": _smooth}


def session_commands(workload, seed, index):
    """The argv lists of session `index` of a run seeded with `seed`."""
    if workload not in _SESSION_MAKERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {sorted(_SESSION_MAKERS)}")
    rng = random.Random(f"{workload}/{int(seed)}/{int(index)}")
    return _SESSION_MAKERS[workload](rng)
