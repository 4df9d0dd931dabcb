"""The benchmark's sessions pass the benchmark's own report checks.

Every command of sessions 0-1, seeds 1-2, of the ``exact``, ``stencil`` and
``smooth`` workloads runs in-process through ``cli.main``, as ``bench/run.py``
runs it; ``bench.checks.command_problems`` must find nothing, a verify
command's node count being its grid's guarded nodes.  A change that would
fail the benchmark's correctness gate fails here first.  Nothing under
``bench/`` is changed.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from bochner2d import cli
from bochner2d import surfaces as surf

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from bench import checks, workloads  # noqa: E402


def _expected_nodes(argv):
    """Guarded-node count of a verify command's grid, None for the others."""
    if argv[0] != "verify":
        return None
    opts = dict(zip(argv[1::2], argv[2::2]))
    kind, _, params = opts["--surface"].partition(":")
    surface = surf.make_surface(kind, [float(p) for p in params.split(",")])
    grid = surf.chart_grid(surface, *(int(n) for n in opts["--grid"].split("x")))
    return int(surf.guarded_mask(surface, grid.U, grid.V).sum())


@pytest.mark.parametrize("workload", ["exact", "stencil", "smooth"])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("session", [0, 1])
def test_session_commands_pass_the_bench_checks(workload, seed, session):
    for argv in workloads.session_commands(workload, seed, session):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(list(argv))
        problems, _ = checks.command_problems(argv, status, out.getvalue(),
                                              _expected_nodes(argv))
        assert problems == [], argv
