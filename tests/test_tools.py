"""The timing tools in `tools/` run at their smallest settings and end
with one JSON line that holds their output digests and median times, so
a change that breaks a tool fails here rather than when it is next used
to measure.

The digests are pinned: they hash the plans and tokens an edit makes, the
weights a training step leaves and the bytes the output stage writes, so
any change to training, planning, decoding or output fails here. A change
that alters these outputs on purpose updates the values below and logs
the old and new ones in CHANGES.md. They do not depend on the BLAS thread
count (1 and 2 threads give the same values)."""

import json
import runpy
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def digests(result: dict, key: str) -> list:
    """The values of `key` in the result, or in each of its `cases`."""
    return [result[key]] if "cases" not in result else [case[key] for case in result["cases"].values()]


@pytest.mark.parametrize(
    "tool,argv,pinned,timings",
    [
        (
            "bench_edit.py",
            ["--grid", "16", "--samples", "2", "--repeats", "1"],
            {
                "plans_sha256": "685ee5cad5d14b7e3b396489e0538f209583f69821c0ed5af613416bee52a255",
                "tokens_sha256": "3bd17039fddd71c6f2b24bdcc2ad5d77de03c541853af5ea951f8fa81613a91b",
            },
            ("median_s", "guide_median_s", "encode_median_s", "plans_median_s"),
        ),
        (
            "bench_train.py",
            ["--steps", "1", "--repeats", "1"],
            {
                "dense-sgd": "3601350c88782fcecd6b77ec3765313dfa5e29a1d0358f8620e9f61b1e5e979a",
                "dense-adam": "1c264a23c95cf69a70a751d7a663cdbe8eb5f4abb8d95ae7d58c3710c80bddb6",
                "guided-16x16": "1208be83ce7af81fc05b3e5384760eeac26e126d25142abb61bed886130e3953",
                "guided-32x32": "f09032c0943bb114778fe43cd44fac9a8013db9487f34cc0b34bfb02d123fe6f",
            },
            ("median_ms", "peak_mb"),
        ),
        (
            "bench_output.py",
            ["--grid", "16", "--candidates", "2", "--repeats", "1"],
            {
                "images_sha256": "1b0222bacb74c7d9d1cd9ca3e6fc30843b60bccf658ff4bcdc082712f8809715",
                "tokens_sha256": "6de619361e5db52384cc812a5533192b5123fe94752edaa8e8870e52810c6050",
            },
            ("median_s",),
        ),
    ],
    ids=["bench_edit", "bench_train", "bench_output"],
)
def test_tool_prints_its_digest_last(tool, argv, pinned, timings, monkeypatch, capsys):
    """`pinned` maps each digest key to its value; for a tool with `cases`,
    it maps each case to its `weights_sha256`."""
    monkeypatch.setattr(sys, "argv", [str(TOOLS / tool)] + argv)
    runpy.run_path(str(TOOLS / tool), run_name="__main__")
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    if "cases" in result:
        assert {name: case["weights_sha256"] for name, case in result["cases"].items()} == pinned
    else:
        assert {key: result[key] for key in pinned} == pinned
    for key in timings:
        assert all(t > 0.0 for t in digests(result, key))
