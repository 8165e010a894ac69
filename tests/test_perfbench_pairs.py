"""`tools/perfbench_pairs.py`: its summary on fixed numbers, and `--help`.
These tests do not run perfbench."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "perfbench_pairs.py"
PAIRS = runpy.run_path(str(TOOL))
SPEC = [
    {"name": "edit_s", "better": "lower", "bound": 0.25},
    {"name": "top_logprob", "better": "higher", "bound": 0.15},
    {"name": "candidate_s", "better": "lower", "bound": 0.25},
]


def test_summary_of_four_pairs_with_one_failed_run():
    pairs = [
        ({"edit_s": 1.0, "top_logprob": -5.0, "candidate_s": 1.0}, {"edit_s": 0.9, "top_logprob": -5.0, "candidate_s": 1.0}),
        ({"edit_s": 1.2, "top_logprob": -5.0, "candidate_s": 2.0}, {"edit_s": 1.2, "top_logprob": -4.0, "candidate_s": 2.0}),
        ({"edit_s": 1.1, "top_logprob": -5.0, "candidate_s": 3.0}, {"edit_s": 1.0, "top_logprob": -6.0, "candidate_s": 3.0}),
        ({"edit_s": 1.3, "top_logprob": -5.0, "candidate_s": 4.0}, None),  # the change's run failed
    ]
    report = PAIRS["summarize"](pairs, SPEC)
    edit = report["edit_s"]
    assert (edit["parent_q1"], edit["parent_median"], edit["parent_q3"]) == pytest.approx((1.075, 1.15, 1.225))
    assert edit["change_median"] == 1.0
    assert edit["relative_change"] == pytest.approx(-0.15 / 1.15)
    assert (edit["change_wins"], edit["pairs"]) == (2, 3)  # the tie in pair 1 counts for neither side
    assert not edit["unresolved"]
    logprob = report["top_logprob"]
    assert (logprob["parent_median"], logprob["change_median"], logprob["relative_change"]) == (-5.0, -5.0, 0.0)
    assert (logprob["change_wins"], logprob["pairs"]) == (1, 3)  # higher is better
    candidate = report["candidate_s"]
    # interquartile range 1.5 over median 2.5 exceeds the 0.25 bound
    assert (candidate["parent_q1"], candidate["parent_median"], candidate["parent_q3"]) == (1.75, 2.5, 3.25)
    assert candidate["unresolved"]
    assert candidate["relative_change"] == pytest.approx(-0.2)
    assert candidate["change_wins"] == 0


def test_summary_of_one_pair_where_the_change_lost():
    report = PAIRS["summarize"]([({"top_logprob": -5.0}, {"top_logprob": -6.0})], SPEC)
    assert list(report) == ["top_logprob"]  # metrics no run reported are left out
    row = report["top_logprob"]
    assert (row["parent_q1"], row["parent_median"], row["parent_q3"]) == (-5.0, -5.0, -5.0)
    assert row["relative_change"] == pytest.approx(-0.2)
    assert not row["unresolved"]
    assert (row["change_wins"], row["pairs"]) == (0, 1)


def test_seed_range():
    assert PAIRS["seed_range"]("3-6") == [3, 4, 5, 6]
    assert PAIRS["seed_range"]("2") == [2]


def test_help():
    result = subprocess.run([sys.executable, str(TOOL), "--help"], capture_output=True, text=True)
    assert result.returncode == 0
    assert all(flag in result.stdout for flag in ("--parent", "--change", "--workload", "--seeds"))
