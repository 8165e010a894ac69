"""The timing tools in `tools/` run at their smallest settings and end
with one JSON line that holds their output digests and median times, so
a change that breaks a tool fails here rather than when it is next used
to measure."""

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
    "tool,argv,keys,timings",
    [
        ("bench_edit.py", ["--grid", "16", "--samples", "2", "--repeats", "1"], ("tokens_sha256", "plans_sha256"),
         ("median_s", "guide_median_s", "encode_median_s")),
        ("bench_train.py", ["--steps", "1", "--repeats", "1"], ("weights_sha256",), ("median_ms", "peak_mb")),
        ("bench_output.py", ["--grid", "16", "--candidates", "2", "--repeats", "1"], ("images_sha256", "tokens_sha256"),
         ("median_s",)),
    ],
    ids=["bench_edit", "bench_train", "bench_output"],
)
def test_tool_prints_its_digest_last(tool, argv, keys, timings, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(TOOLS / tool)] + argv)
    runpy.run_path(str(TOOLS / tool), run_name="__main__")
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    for key in keys:
        found = digests(result, key)
        assert found and all(isinstance(d, str) and len(d) == 64 for d in found)
    for key in timings:
        assert all(t > 0.0 for t in digests(result, key))
