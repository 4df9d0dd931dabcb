"""The pairing and summary logic of ``tools/import_ab.py`` on synthetic timings."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import import_ab  # noqa: E402


def test_pairs_alternate_which_tree_runs_first():
    calls = []

    def run(k):
        calls.append(k)
        return (0.25, 0.125)[k] + len(calls) / 1024

    times = import_ab.measure(4, run)
    assert calls == [0, 1, 1, 0, 0, 1, 1, 0]
    # each pair keeps (parent, change), whichever ran first
    assert times == [(0.25 + 1 / 1024, 0.125 + 2 / 1024), (0.25 + 4 / 1024, 0.125 + 3 / 1024),
                     (0.25 + 5 / 1024, 0.125 + 6 / 1024), (0.25 + 8 / 1024, 0.125 + 7 / 1024)]


def test_summary_gives_quartiles_medians_and_lower_pairs():
    times = [(0.125, 0.25), (0.5, 0.375), (0.25, 0.25), (1.0, 0.0625), (0.375, 0.125)]
    spread, lower = import_ab.summary(times)
    assert spread == {"parent": (0.25, 0.375, 0.5), "change": (0.125, 0.25, 0.25)}
    assert lower == 3      # a tie is not a win


def test_report_lines():
    lines = import_ab.report([(0.125, 0.25), (0.5, 0.375)])
    assert lines == ["pair   1  first parent  parent 0.1250 s  change 0.2500 s",
                     "pair   2  first change  parent 0.5000 s  change 0.3750 s",
                     "parent: median 0.3125 s [0.2188, 0.4062]",
                     "change: median 0.3125 s [0.2812, 0.3438]",
                     "change lower in 1/2 pairs"]


def test_the_setup_code_is_the_benchmark_runners():
    code = import_ab.setup_code()
    assert "import bochner2d.cli" in code and "build_parser()" in code
    compile(code, "<setup>", "exec")


def test_fewer_than_two_pairs_is_refused(capsys):
    with pytest.raises(SystemExit):
        import_ab.main([".", ".", "--pairs", "1"])
    assert "--pairs must be at least 2" in capsys.readouterr().err
