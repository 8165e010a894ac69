"""The bytes every command writes, pinned.

Each of perfbench's three workloads (`perfbench/workloads.py`, loaded as
the file it is) runs `train-guide`, `train-sga` and `edit` in-process on
its seed-1 inputs and its set-up training config; `ablate` runs all five
variants on a small config. One SHA-256 per run covers every file written
under the output directory: for each file in sorted order, its path
relative to that directory, then the SHA-256 of its bytes. `timings.json`
holds wall times and is skipped; `resolved_config.json` is re-dumped with
`sort_keys` after dropping its `out` key, which names the temporary
directory.

Any change to training, planning, decoding, quantizing, blending or file
formats fails here. A change that alters these outputs on purpose updates
the values below and logs the old and new ones in CHANGES.md. They do not
depend on the BLAS thread count (1 and 2 threads give the same values)."""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from sgaedit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    # `workloads.py` imports nothing from perfbench, so it loads on its own
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # dataclasses looks its module up by name
    spec.loader.exec_module(module)
    return module


def run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0, argv


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "timings.json"):
        data = path.read_bytes()
        if path.name == "resolved_config.json":
            cfg = json.loads(data)
            del cfg["out"]
            data = json.dumps(cfg, sort_keys=True).encode()
        h.update(path.relative_to(out).as_posix().encode())
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


WORKLOAD_PINS = {
    "edit-hires": "35fca1703ebc1586f1155f1044f1f5cd5f8894ba842d917b5480b62f56d33ac9",
    "edit-batch": "96159f7813f458f635dad3aa45dc6f6a4784bb35282f86c330e5ec7bbe100e35",
    "train": "3bcbbc6c292e5ae8a4a09e59b90016cdf63c9b6c668a338d81866645c4c10a02",
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_PINS))
def test_workload_outputs_are_pinned(name, tmp_path):
    wl = load_workloads()
    workload = wl.WORKLOADS[name]
    inputs = wl.write_inputs(workload, 1, tmp_path / "inputs")
    out = tmp_path / "out"
    cfg = wl.write_config(tmp_path / "config.json", wl.config(workload, out, workload.setup_train))
    run(["train-guide", "--config", cfg])
    run(["train-sga", "--config", cfg, "--guide", out / "guide"])
    run(
        ["edit", "--config", cfg, "--guide", out / "guide", "--sga", out / "sga"]
        + ["--image", inputs["image"], "--semantic", inputs["semantic"], "--mask", inputs["mask"]]
    )
    assert digest(out) == WORKLOAD_PINS[name]


ABLATE = {
    "seed": 3,
    "model": {
        "d": 16, "layers_enc": 1, "layers_dec": 1, "heads": 2, "vocab": 8, "vocab_map": 3,
        "grid_high": [4, 4], "grid_low": [2, 2], "blocks": 4, "top_k": 2, "radius": 1, "ffw": 32,
    },
    "train": {"steps": 3},
    "ablation": {"variants": ["dense", "oracle", "local", "random", "global"], "seeds": [0, 1], "eval_instances": 2},
}


def test_ablate_outputs_are_pinned(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**ABLATE, "out": str(out)}))
    run(["ablate", "--config", cfg])
    assert digest(out) == "7aed7195477ecd14c29690406fdfbb7710f3e3da90409449893a9fa0a15d0f97"
