"""The pairing and summary logic of ``tools/ab.py`` on synthetic timings."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import ab  # noqa: E402
import paired  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def metrics(p50, tail, rss):
    return {"session_p50": p50, "session_tail": tail, "peak_rss_mb": rss}


def test_pairs_alternate_the_first_tree_and_share_a_seed(monkeypatch, capsys):
    calls = []

    def run_sessions(src, workload, seed, seconds):
        calls.append((src, workload, seed, seconds))
        # the parent at 25 ms, the change at 20 ms, later pairs slower
        ms = (25.0 if src == ROOT / "src" else 20.0) + seed - 7
        return metrics(ms / 1e3, 2 * ms / 1e3, 40.0)

    monkeypatch.setattr(ab, "run_sessions", run_sessions)
    monkeypatch.setattr(ab, "source_dir", lambda tree: ROOT / tree)
    assert ab.main(["src", "change", "--workload", "exact", "--pairs", "3",
                    "--seconds", "2.5", "--seed", "7"]) == 0
    parent, change = ROOT / "src", ROOT / "change"
    assert calls == [(parent, "exact", 7, 2.5), (change, "exact", 7, 2.5),
                     (change, "exact", 8, 2.5), (parent, "exact", 8, 2.5),
                     (parent, "exact", 9, 2.5), (change, "exact", 9, 2.5)]
    out = capsys.readouterr().out.splitlines()
    assert out[:7] == ["session_s_p50:",
                       "  pair   1  first parent  parent 25.000 ms  change 20.000 ms",
                       "  pair   2  first change  parent 26.000 ms  change 21.000 ms",
                       "  pair   3  first parent  parent 27.000 ms  change 22.000 ms",
                       "  parent: median 26.000 ms [25.500, 26.500]",
                       "  change: median 21.000 ms [20.500, 21.500]",
                       "  change lower in 3/3 pairs"]
    assert out[7] == "session_s_tail:" and out[13] == "  change lower in 3/3 pairs"
    assert out[14] == "peak_rss_mb:" and out[-1] == "  change lower in 0/3 pairs"


def test_report_scales_each_metric():
    lines = ab.report([(metrics(0.0125, 0.02, 41.75), metrics(0.01, 0.03, 41.5)),
                       (metrics(0.0150, 0.02, 41.75), metrics(0.02, 0.01, 42.0))])
    assert lines == [
        "session_s_p50:",
        "  pair   1  first parent  parent 12.500 ms  change 10.000 ms",
        "  pair   2  first change  parent 15.000 ms  change 20.000 ms",
        "  parent: median 13.750 ms [13.125, 14.375]",
        "  change: median 15.000 ms [12.500, 17.500]",
        "  change lower in 1/2 pairs",
        "session_s_tail:",
        "  pair   1  first parent  parent 20.000 ms  change 30.000 ms",
        "  pair   2  first change  parent 20.000 ms  change 10.000 ms",
        "  parent: median 20.000 ms [20.000, 20.000]",
        "  change: median 20.000 ms [15.000, 25.000]",
        "  change lower in 1/2 pairs",
        "peak_rss_mb:",
        "  pair   1  first parent  parent 41.8 MB  change 41.5 MB",
        "  pair   2  first change  parent 41.8 MB  change 42.0 MB",
        "  parent: median 41.8 MB [41.8, 41.8]",
        "  change: median 41.8 MB [41.6, 41.9]",
        "  change lower in 1/2 pairs"]


def test_a_tie_is_not_a_lower_pair():
    assert paired.summary([(1.0, 1.0), (2.0, 1.5), (1.0, 3.0)])[1] == 1


def test_fewer_than_two_pairs_is_refused(capsys):
    with pytest.raises(SystemExit):
        ab.main([".", ".", "--workload", "exact", "--pairs", "1"])
    assert "--pairs must be at least 2" in capsys.readouterr().err
