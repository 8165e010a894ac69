import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgaedit import cli, images
from sgaedit import model as mdl
from sgaedit.quantizer import TokenGrid
from sgaedit.rng import substream

SRC = str(Path(cli.__file__).resolve().parent.parent)

TINY = {
    "seed": 11,
    "model": {
        "d": 16,
        "layers_enc": 1,
        "layers_dec": 1,
        "heads": 2,
        "vocab": 8,
        "vocab_map": 3,
        "grid_high": [4, 4],
        "grid_low": [2, 2],
        "blocks": 4,
        "top_k": 2,
        "radius": 1,
        "ffw": 32,
    },
    "train": {"steps": 2, "stage_steps": 2},
    "sampling": {"top_k": 100, "n_samples": 4, "n_keep": 2},
    "quantizer": {"patch": 4, "corpus_images": 3},
    "ablation": {"variants": ["dense", "local"], "steps": 2, "seeds": [0], "eval_instances": 2},
    "bench": {"lengths": [64], "d": 16, "variants": ["dense", "guided"], "repeats": 5, "blocks": 16},
    "leakcheck": {"trials": 10, "image_size": 16},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(TINY))
    cfg["out"] = str(tmp_path / "run")
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def make_edit_inputs(tmp_path, grid=(4, 4), patch=4, classes=3, mask_box=((8, 16), (4, 12))):
    h, w = grid[0] * patch, grid[1] * patch
    rng = substream(0, "cli-inputs")
    images.write_pnm(tmp_path / "input.pgm", images.synthetic_image(h, w, 1, rng))
    images.write_class_map(tmp_path / "semantic.pgm", images.synthetic_class_map(h, w, classes, rng))
    mask = np.zeros((h, w))
    (r0, r1), (c0, c1) = mask_box
    mask[r0:r1, c0:c1] = 1.0
    images.write_pnm(tmp_path / "mask.pgm", mask)
    return tmp_path / "input.pgm", tmp_path / "semantic.pgm", tmp_path / "mask.pgm"


class TestTrainGuide:
    def test_single_step_writes_loadable_checkpoint(self, tmp_path):
        cfg = write_config(tmp_path, {"train": {"steps": 1}})
        assert cli.main(["train-guide", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "guide"
        weights = mdl.load_checkpoint(ckpt)
        assert weights.grid == (2, 2)
        assert (ckpt / "loss.csv").read_text().startswith("step,loss\n")
        assert (ckpt / "resolved_config.json").exists()
        assert (ckpt / "codebook.sgat").exists()

    def test_identical_config_and_seed_identical_checkpoints(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["train-guide", "--config", str(cfg)]) == 0
        assert cli.main(["train-guide", "--config", str(cfg), "--out", str(tmp_path / "run2")]) == 0
        a, b = tmp_path / "run" / "guide", tmp_path / "run2" / "guide"
        for f in sorted(a.iterdir()):
            if f.name == "resolved_config.json":  # records the differing --out
                continue
            assert f.read_bytes() == (b / f.name).read_bytes(), f.name

    def test_missing_config_exits_2_no_outputs(self, tmp_path):
        rc = cli.main(["train-guide", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"modle": {}}))
        assert cli.main(["train-guide", "--config", str(path)]) == 2

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert cli.main(["train-guide", "--config", str(path)]) == 2


# model config overrides that must be rejected as config errors (exit 2)
BAD_MODEL_CONFIGS = [
    ("d-0", {"d": 0}),
    ("heads-0", {"heads": 0}),
    ("blocks-0", {"blocks": 0}),
    ("ffw-0", {"ffw": 0}),
    ("vocab-map-0", {"vocab_map": 0}),
    ("vocab-map-1", {"vocab_map": 1}),
    ("layers-enc-negative", {"layers_enc": -1}),
    ("layers-dec-negative", {"layers_dec": -1}),
    ("top-k-negative", {"top_k": -1}),
    ("radius-negative", {"radius": -2}),
    ("grid-one-int", {"grid_high": [8]}),
    ("grid-zero", {"grid_high": [8, 0]}),
    ("grid-not-int", {"grid_low": [2, "2"]}),
    ("grid-not-list", {"grid_low": 2}),
    ("blocks-not-int", {"blocks": 4.0}),
]


@pytest.mark.parametrize("override", [case[1] for case in BAD_MODEL_CONFIGS], ids=[case[0] for case in BAD_MODEL_CONFIGS])
def test_invalid_model_config_exit_2_without_traceback(tmp_path, capsys, override):
    cfg = write_config(tmp_path, {"model": override})
    assert cli.main(["train-guide", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


# run config values that must be rejected as config errors (exit 2)
BAD_RUN_CONFIGS = [
    ("seed-string", {"seed": "abc"}),
    ("seed-float", {"seed": 1.5}),
    ("steps-string", {"train": {"steps": "x"}}),
    ("steps-0", {"train": {"steps": 0}}),
    ("stage-steps-0", {"train": {"stage_steps": 0}}),
    ("stage-steps-float", {"train": {"stage_steps": 2.0}}),
    ("lr-string", {"train": {"lr": "big"}}),
    ("lr-negative", {"train": {"lr": -0.1}}),
    ("lr-nan", {"train": {"lr": float("nan")}}),
    ("clip-infinite", {"train": {"clip": float("inf")}}),
    ("clip-bool", {"train": {"clip": True}}),
    ("optimizer-unknown", {"train": {"optimizer": "rmsprop"}}),
    ("top-k-string", {"sampling": {"top_k": "a"}}),
    ("top-k-float", {"sampling": {"top_k": 1.5}}),
    ("n-samples-0", {"sampling": {"n_samples": 0}}),
    ("n-keep-0", {"sampling": {"n_keep": 0}}),
    ("ablation-steps-0", {"ablation": {"steps": 0}}),
    ("ablation-eval-instances-0", {"ablation": {"eval_instances": 0}}),
    ("ablation-lr-string", {"ablation": {"lr": "big"}}),
    ("ablation-optimizer-unknown", {"ablation": {"optimizer": "rmsprop"}}),
    ("ablation-window-even", {"ablation": {"window": 2}}),
    ("ablation-window-0", {"ablation": {"window": 0}}),
    ("ablation-window-float", {"ablation": {"window": 3.0}}),
    ("ablation-variants-unknown", {"ablation": {"variants": ["bogus"]}}),
    ("ablation-variants-empty", {"ablation": {"variants": []}}),
    ("ablation-variants-string", {"ablation": {"variants": "dense"}}),
    ("ablation-seeds-empty", {"ablation": {"seeds": []}}),
    ("ablation-seeds-float", {"ablation": {"seeds": [0.5]}}),
    ("bench-variants-unknown", {"bench": {"variants": ["bogus"]}}),
    ("bench-variants-empty", {"bench": {"variants": []}}),
    ("bench-lengths-indivisible", {"bench": {"lengths": [60]}}),
    ("bench-lengths-empty", {"bench": {"lengths": []}}),
    ("bench-lengths-not-list", {"bench": {"lengths": 64}}),
    ("bench-lengths-0", {"bench": {"lengths": [0]}}),
    ("bench-d-0", {"bench": {"d": 0}}),
    ("bench-blocks-0", {"bench": {"blocks": 0}}),
    ("bench-repeats-4", {"bench": {"repeats": 4}}),
    ("bench-radius-negative", {"bench": {"radius": -1}}),
    ("bench-top-k-negative", {"bench": {"top_k": -1}}),
    ("bench-top-k-float", {"bench": {"top_k": 1.5}}),
    ("quantizer-patch-0", {"quantizer": {"patch": 0}}),
    ("quantizer-iterations-string", {"quantizer": {"iterations": "x"}}),
    ("quantizer-corpus-images-0", {"quantizer": {"corpus_images": 0}}),
    ("quantizer-channels-2", {"quantizer": {"channels": 2}}),
    ("quantizer-channels-float", {"quantizer": {"channels": 3.0}}),
    ("leakcheck-trials-string", {"leakcheck": {"trials": "x"}}),
    ("leakcheck-trials-0", {"leakcheck": {"trials": 0}}),
    ("leakcheck-image-size-0", {"leakcheck": {"image_size": 0}}),
    ("leakcheck-image-size-one-patch", {"quantizer": {"patch": 16}, "leakcheck": {"image_size": 16}}),
    ("leakcheck-image-size-indivisible", {"leakcheck": {"image_size": 18}}),
    ("stages-entry-not-pair", {"train": {"stages": [[8, 8], 5]}}),
    ("stages-entry-float", {"train": {"stages": [[8, 8.0]]}}),
    ("stages-entry-0", {"train": {"stages": [[0, 4], [4, 4]]}}),
    ("stages-not-list", {"train": {"stages": 4}}),
    (
        "stage-grid-blocks",
        {"model": {"grid_high": [8, 8], "grid_low": [4, 4], "blocks": 8}, "train": {"stages": [[6, 6], [8, 8]]}},
    ),
    ("stage-grid-mirror-odd", {"train": {"stages": [[3, 4], [4, 4]]}}),
    ("grid-low-mirror-odd", {"model": {"grid_low": [3, 4]}}),
    ("grid-high-mirror-odd", {"model": {"grid_high": [5, 4], "grid_low": [2, 4], "blocks": 4}}),
    ("grid-low-copy-corner-odd", {"task": {"kind": "copy-corner"}, "model": {"grid_low": [2, 3], "blocks": 2}}),
    ("grid-low-side-1", {"task": {"kind": "constant-region"}, "model": {"grid_low": [1, 4]}}),
    ("stages-side-1", {"task": {"kind": "constant-region"}, "train": {"stages": [[1, 4], [4, 4]]}}),
    ("ladder-unreachable", {"model": {"grid_high": [8, 8], "grid_low": [4, 4]}, "train": {"stages": [[4, 4]]}}),
    ("ladder-not-doubling", {"model": {"grid_high": [6, 6], "grid_low": [2, 2]}}),
    ("out-int", {"out": 5}),
    ("out-null", {"out": None}),
    ("config-not-utf8", b'{"seed": "\xff\xfe"}'),
]


@pytest.mark.parametrize("override", [case[1] for case in BAD_RUN_CONFIGS], ids=[case[0] for case in BAD_RUN_CONFIGS])
def test_invalid_run_config_exit_2_without_traceback(tmp_path, capsys, override):
    if isinstance(override, bytes):  # the whole config file
        cfg = tmp_path / "config.json"
        cfg.write_bytes(override)
    else:
        cfg = write_config(tmp_path, override)
    assert cli.main(["train-guide", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_workers_is_an_edit_option_only(tmp_path, capsys):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["train-guide", "--config", str(cfg), "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


class TestTrainSga:
    def test_ladder_and_stage_log(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["train-guide", "--config", str(cfg)]) == 0
        assert cli.main(["train-sga", "--config", str(cfg), "--guide", str(tmp_path / "run" / "guide")]) == 0
        out = tmp_path / "run" / "sga"
        weights = mdl.load_checkpoint(out)
        assert weights.grid == (4, 4)
        log = (out / "stages.log").read_text()
        assert "interpolated" in log and "4x4" in log
        assert (out / "loss_stage0.csv").exists()

    def test_incompatible_guide_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["train-guide", "--config", str(cfg)]) == 0
        other = write_config(tmp_path, {"model": {"d": 32, "ffw": 64}}, name="other.json")
        rc = cli.main(["train-sga", "--config", str(other), "--guide", str(tmp_path / "run" / "guide")])
        assert rc == 2


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(tmp_path)
    assert cli.main(["train-guide", "--config", str(cfg)]) == 0
    assert cli.main(["train-sga", "--config", str(cfg), "--guide", str(tmp_path / "run" / "guide")]) == 0
    return tmp_path, cfg


class TestEdit:
    def test_end_to_end_outputs(self, trained):
        tmp_path, cfg = trained
        image, semantic, mask = make_edit_inputs(tmp_path)
        rc = cli.main(
            ["edit", "--config", str(cfg), "--guide", str(tmp_path / "run" / "guide"),
             "--sga", str(tmp_path / "run" / "sga"), "--image", str(image),
             "--semantic", str(semantic), "--mask", str(mask)]
        )
        assert rc == 0
        out = tmp_path / "run" / "edit"
        report = json.loads((out / "report.json").read_text())
        assert len(report["candidates"]) == 2
        lps = [c["logprob"] for c in report["candidates"]]
        assert lps == sorted(lps, reverse=True)
        timings = json.loads((out / "timings.json").read_text())
        assert 0.0 <= timings["guide_share"] <= 1.0
        # unmasked tokens preserved: compare candidate tokens against input encoding
        cand = TokenGrid.from_json((out / "candidate_00.json").read_text())
        assert cand.tokens.shape == (4, 4)
        assert not cand.masked_positions().any()
        assert (out / "candidate_00.pgm").exists()

    def test_empty_mask_single_candidate_identical_to_input(self, trained):
        tmp_path, cfg = trained
        image, semantic, _ = make_edit_inputs(tmp_path)
        empty = tmp_path / "empty_mask.pgm"
        images.write_pnm(empty, np.zeros((16, 16)))
        rc = cli.main(
            ["edit", "--config", str(cfg), "--guide", str(tmp_path / "run" / "guide"),
             "--sga", str(tmp_path / "run" / "sga"), "--image", str(image),
             "--semantic", str(semantic), "--mask", str(empty), "--out", str(tmp_path / "runE")]
        )
        assert rc == 0
        out = tmp_path / "runE" / "edit"
        report = json.loads((out / "report.json").read_text())
        assert len(report["candidates"]) == 1
        assert report["candidates"][0]["logprob"] == 0.0

    def test_determinism_across_workers_and_runs(self, trained):
        tmp_path, cfg = trained
        image, semantic, mask = make_edit_inputs(tmp_path)
        base = ["edit", "--config", str(cfg), "--guide", str(tmp_path / "run" / "guide"),
                "--sga", str(tmp_path / "run" / "sga"), "--image", str(image),
                "--semantic", str(semantic), "--mask", str(mask)]
        assert cli.main(base + ["--out", str(tmp_path / "d1"), "--workers", "1"]) == 0
        assert cli.main(base + ["--out", str(tmp_path / "d2"), "--workers", "4"]) == 0
        a, b = tmp_path / "d1" / "edit", tmp_path / "d2" / "edit"
        for f in sorted(a.iterdir()):
            if f.name in ("timings.json", "resolved_config.json"):
                continue
            assert f.read_bytes() == (b / f.name).read_bytes(), f.name

    def test_failure_removes_partial_outputs(self, trained):
        tmp_path, cfg = trained
        image, semantic, _ = make_edit_inputs(tmp_path)
        rc = cli.main(
            ["edit", "--config", str(cfg), "--guide", str(tmp_path / "run" / "guide"),
             "--sga", str(tmp_path / "run" / "sga"), "--image", str(image),
             "--semantic", str(semantic), "--mask", str(tmp_path / "missing.pgm"),
             "--out", str(tmp_path / "fail")]
        )
        assert rc == 2
        assert not (tmp_path / "fail" / "edit").exists()

    def test_guide_checkpoint_as_sga_exit_2(self, trained, capsys):
        tmp_path, cfg = trained
        image, semantic, mask = make_edit_inputs(tmp_path)
        guide = str(tmp_path / "run" / "guide")
        rc = cli.main(
            ["edit", "--config", str(cfg), "--guide", guide, "--sga", guide, "--image", str(image),
             "--semantic", str(semantic), "--mask", str(mask), "--out", str(tmp_path / "swapped")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "grid_high" in err and "Traceback" not in err
        assert not (tmp_path / "swapped" / "edit").exists()

    def test_non_finite_logits_exit_3(self, trained):
        tmp_path, cfg = trained
        image, semantic, mask = make_edit_inputs(tmp_path)
        weights = mdl.load_checkpoint(tmp_path / "run" / "sga")
        weights.params["out_head"][:, 0] = np.nan
        mdl.save_checkpoint(tmp_path / "nan_sga", weights)
        rc = cli.main(
            ["edit", "--config", str(cfg), "--guide", str(tmp_path / "run" / "guide"),
             "--sga", str(tmp_path / "nan_sga"), "--image", str(image),
             "--semantic", str(semantic), "--mask", str(mask), "--out", str(tmp_path / "nan")]
        )
        assert rc == 3
        assert not (tmp_path / "nan" / "edit").exists()

    def test_truncated_image_exit_4(self, trained, capsys):
        tmp_path, cfg = trained
        image, semantic, mask = make_edit_inputs(tmp_path)
        short = tmp_path / "short.pgm"
        short.write_bytes(image.read_bytes()[:-10])
        rc = cli.main(
            ["edit", "--config", str(cfg), "--guide", str(tmp_path / "run" / "guide"),
             "--sga", str(tmp_path / "run" / "sga"), "--image", str(short),
             "--semantic", str(semantic), "--mask", str(mask), "--out", str(tmp_path / "short")]
        )
        assert rc == 4
        assert "truncated" in capsys.readouterr().err

    def test_resolved_config_reproduces_run(self, trained):
        tmp_path, cfg = trained
        image, semantic, mask = make_edit_inputs(tmp_path)
        base = ["--guide", str(tmp_path / "run" / "guide"), "--sga", str(tmp_path / "run" / "sga"),
                "--image", str(image), "--semantic", str(semantic), "--mask", str(mask)]
        assert cli.main(["edit", "--config", str(cfg), "--out", str(tmp_path / "r1")] + base) == 0
        resolved = tmp_path / "r1" / "edit" / "resolved_config.json"
        assert cli.main(["edit", "--config", str(resolved), "--out", str(tmp_path / "r2")] + base) == 0
        for f in sorted((tmp_path / "r1" / "edit").iterdir()):
            if f.name in ("timings.json", "resolved_config.json"):
                continue
            assert f.read_bytes() == (tmp_path / "r2" / "edit" / f.name).read_bytes(), f.name


def _sgat_header(header: bytes) -> bytes:
    return b"SGAT" + len(header).to_bytes(4, "little") + header


# (name, file to replace in a copy of the guide checkpoint, its bytes, exit code)
MALFORMED_CHECKPOINTS = [
    ("sgat-truncated-header", "out_head.sgat", b"SGAT\x10\x00", 4),
    ("sgat-header-past-eof", "out_head.sgat", b"SGAT\xff\x00\x00\x00{}", 4),
    ("sgat-garbled-header", "out_head.sgat", _sgat_header(b'{"dtype": "f32", "shape": [1,'), 4),
    ("sgat-binary-header", "out_head.sgat", _sgat_header(b"\xff\xfe\x00"), 4),
    ("sgat-header-not-object", "out_head.sgat", _sgat_header(b"[1, 2]"), 4),
    ("sgat-missing-shape", "out_head.sgat", _sgat_header(b'{"dtype": "f32"}'), 4),
    ("sgat-bad-shape", "out_head.sgat", _sgat_header(b'{"dtype": "f32", "shape": ["a"]}'), 4),
    ("manifest-garbled", "manifest.json", b'{"config": ', 2),
    ("manifest-binary", "manifest.json", b"\x80\x81", 2),
    ("manifest-missing-grid", "manifest.json", b'{"config": {}, "params": {}}', 2),
    ("manifest-not-object", "manifest.json", b"[]", 2),
    ("manifest-bad-config", "manifest.json",
     json.dumps({"config": {**TINY["model"], "blocks": 0}, "grid": [2, 2], "params": {}}).encode(), 2),
    ("assets-garbled", "assets.json", b"{patch", 2),
]


@pytest.mark.parametrize(
    "target,payload,code", [case[1:] for case in MALFORMED_CHECKPOINTS], ids=[case[0] for case in MALFORMED_CHECKPOINTS]
)
def test_malformed_checkpoint_exit_code_without_traceback(trained, tmp_path, target, payload, code):
    """A corrupt guide checkpoint ends `edit` with its documented exit code
    and a one-line message, never a Python traceback."""
    run, cfg = trained
    guide = tmp_path / "guide"
    shutil.copytree(run / "run" / "guide", guide)
    (guide / target).write_bytes(payload)
    image, semantic, mask = make_edit_inputs(tmp_path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-m", "sgaedit.cli", "edit", "--config", str(cfg), "--guide", str(guide),
         "--sga", str(run / "run" / "sga"), "--image", str(image), "--semantic", str(semantic),
         "--mask", str(mask), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    assert target.split(".")[0] in result.stderr


class TestOtherCommands:
    def test_leakcheck_clean_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["leakcheck", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "run" / "leakcheck" / "report.json").read_text())
        assert report["clean"] is True
        assert report["leaked_tokens"] == 0
        assert "0 leaked tokens" in capsys.readouterr().out

    @pytest.mark.parametrize("header", [b"P5\nabc 4\n255\n", b"P5\n-4 4\n255\n"], ids=["not-int", "negative"])
    def test_leakcheck_malformed_image_exit_4(self, tmp_path, capsys, header):
        cfg = write_config(tmp_path)
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(header + bytes(16))
        assert cli.main(["leakcheck", "--config", str(cfg), "--image", str(bad)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("invariant violation:") and "Traceback" not in err
        assert "bad.pgm: header token" in err

    def test_bench_includes_dense_row(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["bench", "--config", str(cfg)]) == 0
        rows = json.loads((tmp_path / "run" / "bench" / "report.json").read_text())
        assert any(r["variant"] == "dense" for r in rows)
        assert (tmp_path / "run" / "bench" / "report.txt").exists()

    def test_ablate_rows_common_budget(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["ablate", "--config", str(cfg)]) == 0
        rows = json.loads((tmp_path / "run" / "ablate" / "report.json").read_text())
        assert [r["variant"] for r in rows] == ["dense", "local"]
        assert all(r["steps"] == rows[0]["steps"] and r["seeds"] == rows[0]["seeds"] for r in rows)

    def test_rollout_row_sums(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["rollout", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "run" / "rollout" / "report.json").read_text())
        assert report["max_row_sum_error"] <= 1e-5
        assert report["size"] == 4  # L_low

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["train-guide", "--config", str(cfg)]) == 0
        assert cli.main(["train-guide", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "runS")]) == 0
        a = (tmp_path / "run" / "guide" / "enc_tok_emb.sgat").read_bytes()
        b = (tmp_path / "runS" / "guide" / "enc_tok_emb.sgat").read_bytes()
        assert a != b


def test_console_entry_point_runs():
    env = dict(os.environ)
    result = subprocess.run(
        [sys.executable, "-m", "sgaedit.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0
    assert "train-guide" in result.stdout
