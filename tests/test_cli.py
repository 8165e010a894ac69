import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import full_image_blend
from sgaedit import cli, compositing, images
from sgaedit import config as cfgmod
from sgaedit import model as mdl
from sgaedit.errors import ConfigError
from sgaedit.numerics import read_sgat
from sgaedit.quantizer import Codebook, TokenGrid
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
    "ablation": {"variants": ["dense", "local"], "seeds": [0], "eval_instances": 2},
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

    @pytest.mark.parametrize(
        "model,key", [({"vocab": 512}, "model.vocab"), ({"vocab_map": 40}, "model.vocab_map")], ids=["vocab", "vocab_map"]
    )
    def test_corpus_too_small_for_codebook_exit_2_before_training(self, tmp_path, capsys, monkeypatch, model, key):
        """A corpus with fewer distinct patches than a codebook's entries is
        a config error found before training: one line naming the codebook's
        size key and `quantizer.corpus_images`, and no files written."""
        monkeypatch.setattr(cli.evalbench, "train", lambda *args, **kwargs: pytest.fail("trained before the check"))
        cfg = write_config(tmp_path, {"model": model, "quantizer": {"corpus_images": 1}})
        assert cli.main(["train-guide", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} ") and err.count("\n") == 1 and "Traceback" not in err
        assert "quantizer.corpus_images 1" in err
        assert not (tmp_path / "run").exists()

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
    ("blocks-not-dividing", {"blocks": 3}),
    ("vocab-1", {"vocab": 1}),
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
    ("task-kind-unknown", {"task": {"kind": "spiral"}}),
    ("ablation-eval-instances-0", {"ablation": {"eval_instances": 0}}),
    ("ablation-variants-unknown", {"ablation": {"variants": ["bogus"]}}),
    ("ablation-variants-sliding", {"ablation": {"variants": ["dense", "sliding"]}}),
    ("ablation-variants-guided", {"ablation": {"variants": ["dense", "guided"]}}),
    ("ablation-variants-empty", {"ablation": {"variants": []}}),
    ("ablation-variants-string", {"ablation": {"variants": "dense"}}),
    ("ablation-seeds-empty", {"ablation": {"seeds": []}}),
    ("ablation-seeds-float", {"ablation": {"seeds": [0.5]}}),
    ("quantizer-patch-0", {"quantizer": {"patch": 0}}),
    ("quantizer-iterations-string", {"quantizer": {"iterations": "x"}}),
    ("quantizer-corpus-images-0", {"quantizer": {"corpus_images": 0}}),
    ("quantizer-channels-2", {"quantizer": {"channels": 2}}),
    ("quantizer-channels-float", {"quantizer": {"channels": 3.0}}),
    # keys that are gone, each set to a value its old check accepted
    ("train-stages-removed", {"train": {"stages": [[4, 4]]}}),
    ("ablation-steps-removed", {"ablation": {"steps": 2}}),
    ("ablation-lr-removed", {"ablation": {"lr": 0.2}}),
    ("ablation-optimizer-removed", {"ablation": {"optimizer": "sgd"}}),
    ("ablation-window-removed", {"ablation": {"window": 3}}),
    ("grid-low-mirror-odd", {"model": {"grid_low": [3, 4]}}),
    ("grid-high-mirror-odd", {"model": {"grid_high": [5, 4], "grid_low": [2, 4], "blocks": 4}}),
    ("grid-low-copy-corner-odd", {"task": {"kind": "copy-corner"}, "model": {"grid_low": [2, 3], "blocks": 2}}),
    ("grid-low-side-1", {"task": {"kind": "constant-region"}, "model": {"grid_low": [1, 4]}}),
    ("grid-high-not-multiple", {"model": {"grid_low": [4, 4], "grid_high": [6, 6], "blocks": 4}}),
    ("grid-high-ratio-differs", {"model": {"grid_low": [2, 4], "grid_high": [4, 4]}}),
    ("out-int", {"out": 5}),
    ("out-null", {"out": None}),
    ("config-not-utf8", b'{"seed": "\xff\xfe"}'),
]


def leaves(tree: dict, prefix: str = "") -> list:
    """The dotted paths of a nested config dict's non-dict values."""
    out = []
    for key, value in tree.items():
        out += leaves(value, f"{prefix}{key}.") if isinstance(value, dict) else [f"{prefix}{key}"]
    return out


@pytest.mark.parametrize("name,override", BAD_RUN_CONFIGS, ids=[case[0] for case in BAD_RUN_CONFIGS])
def test_invalid_run_config_exit_2_without_traceback(tmp_path, capsys, name, override):
    if isinstance(override, bytes):  # the whole config file
        cfg = tmp_path / "config.json"
        cfg.write_bytes(override)
    else:
        cfg = write_config(tmp_path, override)
    assert cli.main(["train-guide", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and "Traceback" not in err
    if name.endswith("-removed"):
        (key,) = leaves(override)
        assert err == f"config error: unknown config key: {key}\n"
    assert not (tmp_path / "run").exists()


def test_every_config_leaf_has_a_bad_value_case():
    """Every setting in `config.DEFAULTS` has a value that some case above
    must reject, so dropping the check on any setting fails a test."""
    named = {key for _, override in BAD_RUN_CONFIGS if isinstance(override, dict) for key in leaves(override)}
    named |= {key for _, override in BAD_MODEL_CONFIGS for key in leaves(override, "model.")}
    assert sorted(set(leaves(cfgmod.DEFAULTS)) - named) == []


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

    def test_grid_factor_3_trains_in_one_stage(self, tmp_path):
        cfg = write_config(tmp_path, {"model": {"grid_low": [2, 2], "grid_high": [6, 6], "blocks": 4}})
        assert cli.main(["train-guide", "--config", str(cfg)]) == 0
        assert cli.main(["train-sga", "--config", str(cfg), "--guide", str(tmp_path / "run" / "guide")]) == 0
        out = tmp_path / "run" / "sga"
        assert mdl.load_checkpoint(out).grid == (6, 6)
        assert (out / "stages.log").read_text() == "stage 0: grid 6x6, positional tables interpolated from 2x2\n"
        assert sorted(p.name for p in out.glob("loss_stage*.csv")) == ["loss_stage0.csv"]

    def test_incompatible_guide_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["train-guide", "--config", str(cfg)]) == 0
        other = write_config(tmp_path, {"model": {"d": 32, "ffw": 64}}, name="other.json")
        rc = cli.main(["train-sga", "--config", str(other), "--guide", str(tmp_path / "run" / "guide")])
        assert rc == 2


# grid factor -> the fine-tuning ladder from a 2x2 guide, as factors of it
STAGE_LADDERS = {1: [1], 2: [2], 3: [3], 4: [2, 4], 6: [2, 6], 8: [2, 4, 8], 12: [2, 4, 12]}


@pytest.mark.parametrize("factor", list(STAGE_LADDERS))
def test_stage_ladder_doubles_while_it_divides(factor):
    cfg = cfgmod.resolve({"model": {"grid_low": [2, 2], "grid_high": [2 * factor, 2 * factor], "blocks": 4}})
    assert cfgmod.stage_ladder(cfg) == [(2 * f, 2 * f) for f in STAGE_LADDERS[factor]]


@pytest.mark.parametrize("grids", [([4, 4], [6, 6]), ([2, 4], [4, 4])], ids=["not-multiple", "ratio-differs"])
def test_grid_high_not_whole_multiple_message(grids):
    with pytest.raises(ConfigError, match="is not a whole multiple of model.grid_low"):
        cfgmod.resolve({"model": {"grid_low": grids[0], "grid_high": grids[1], "blocks": 4}})


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
        assert timings["output_s"] > 0.0
        # unmasked tokens preserved: compare candidate tokens against input encoding
        cand = TokenGrid.from_json((out / "candidate_00.json").read_text())
        assert cand.tokens.shape == (4, 4)
        assert not cand.masked_positions().any()
        assert (out / "candidate_00.pgm").exists()

    def test_duplicate_candidates_written_once_in_rank_order(self, trained, monkeypatch):
        """Ranked candidates A, B, A, C, B are written as A, B, C: the first
        occurrence of each distinct token grid, with its own log-prob. A, B
        and C are in no token order, so a sort by tokens shows."""
        tmp_path, cfg = trained
        image, semantic, mask = make_edit_inputs(tmp_path)
        vocab = TINY["model"]["vocab"]
        rows = []

        def ranked(request, *args, **kwargs):
            pos = np.flatnonzero(request.mask.ravel())[0]
            for shift in (2, 1, 2, 0, 1):
                row = request.tokens.flat().copy()
                row[pos] = (row[pos] + shift) % vocab
                rows.append(row.reshape(request.tokens.tokens.shape))
            return np.stack(rows), np.array([-1.0, -2.0, -2.0, -3.0, -4.0])

        monkeypatch.setattr(cli.sampler, "autoregressive_edit", ranked)
        rc = cli.main(
            ["edit", "--config", str(cfg), "--guide", str(tmp_path / "run" / "guide"),
             "--sga", str(tmp_path / "run" / "sga"), "--image", str(image),
             "--semantic", str(semantic), "--mask", str(mask), "--out", str(tmp_path / "dup")]
        )
        assert rc == 0
        out = tmp_path / "dup" / "edit"
        report = json.loads((out / "report.json").read_text())["candidates"]
        assert [(c["rank"], c["logprob"]) for c in report] == [(0, -1.0), (1, -2.0), (2, -3.0)]
        for c, want in zip(report, (rows[0], rows[1], rows[3])):
            assert np.array_equal(TokenGrid.from_json((out / c["tokens"]).read_text()).tokens, want)
            assert (out / c["image"]).exists()
        assert len(list(out.glob("candidate_*"))) == 6

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

    @pytest.mark.parametrize(
        "flag,kind",
        [("--mask", "missing"), ("--image", "directory"), ("--guide", "file"), ("--semantic", "directory")],
        ids=["edit-mask-missing", "edit-image-directory", "edit-guide-file", "edit-semantic-directory"],
    )
    def test_bad_path_exit_2_with_one_line(self, trained, tmp_path, capsys, flag, kind):
        """A missing file, a directory where a file belongs or a file where
        a checkpoint directory belongs ends with one line naming the path,
        and leaves no outputs."""
        run, cfg = trained
        image, semantic, mask = make_edit_inputs(tmp_path)
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        elif kind == "file":
            bad.write_text("not a checkpoint")
        paths = {"--image": image, "--guide": run / "run" / "guide", "--sga": run / "run" / "sga"}
        paths |= {"--semantic": semantic, "--mask": mask}
        paths[flag] = bad
        argv = ["edit", "--config", str(cfg), "--out", str(tmp_path / "out")]
        rc = cli.main(argv + [arg for flag_path in paths.items() for arg in map(str, flag_path)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("file error:") and err.count("\n") == 1 and str(bad) in err
        assert not (tmp_path / "out" / "edit").exists()

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

    def test_image_sample_above_maxval_exit_4(self, trained, capsys):
        """A sample above the header's maxval is a malformed file, not a
        pixel brighter than white."""
        tmp_path, cfg = trained
        image, semantic, mask = make_edit_inputs(tmp_path)
        over = tmp_path / "over.pgm"
        body = image.read_bytes()
        over.write_bytes(body.replace(b"\n255\n", b"\n100\n", 1))
        assert max(body[-16 * 16 :]) > 100  # the 16 x 16 body has samples above the new maxval
        rc = cli.main(
            ["edit", "--config", str(cfg), "--guide", str(tmp_path / "run" / "guide"),
             "--sga", str(tmp_path / "run" / "sga"), "--image", str(over),
             "--semantic", str(semantic), "--mask", str(mask), "--out", str(tmp_path / "over")]
        )
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith(f"invariant violation: {over}: sample ") and "maxval 100" in err
        assert not (tmp_path / "over" / "edit").exists()

    @pytest.mark.parametrize("header", [b"P5\nabc 4\n255\n", b"P5\n-4 4\n255\n"], ids=["not-int", "negative"])
    def test_malformed_image_header_exit_4(self, trained, capsys, header):
        tmp_path, cfg = trained
        _, semantic, mask = make_edit_inputs(tmp_path)
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(header + bytes(16))
        rc = cli.main(
            ["edit", "--config", str(cfg), "--guide", str(tmp_path / "run" / "guide"),
             "--sga", str(tmp_path / "run" / "sga"), "--image", str(bad),
             "--semantic", str(semantic), "--mask", str(mask), "--out", str(tmp_path / "badhdr")]
        )
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("invariant violation:") and err.count("\n") == 1 and "Traceback" not in err
        assert f"{bad}: header token" in err
        assert not (tmp_path / "badhdr" / "edit").exists()

    @pytest.mark.parametrize(
        "shape", [(4, 4), (4, 8), (8, 4), (6, 8)], ids=["one-patch", "one-patch-tall", "one-patch-wide", "indivisible"]
    )
    def test_image_of_wrong_size_exit_2(self, trained, capsys, shape):
        """An image that is not `grid_high` tokens of `quantizer.patch` px
        (16 x 16 px here) a side is a config error, in one line."""
        tmp_path, cfg = trained
        _, semantic, mask = make_edit_inputs(tmp_path)
        small = tmp_path / "small.pgm"
        images.write_pnm(small, images.synthetic_image(shape[0], shape[1], 1, substream(0, "edit-small")))
        rc = cli.main(
            ["edit", "--config", str(cfg), "--guide", str(tmp_path / "run" / "guide"),
             "--sga", str(tmp_path / "run" / "sga"), "--image", str(small),
             "--semantic", str(semantic), "--mask", str(mask), "--out", str(tmp_path / "small")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"config error: image dims {shape} != expected (16, 16)\n"
        assert not (tmp_path / "small" / "edit").exists()

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


BLEND_REACH = 5 * 2 ** (4 - 1) - 3  # `laplacian_blend`'s reach at 4 levels, which a 64 px image gets
MASK_BOX = ((0, 16), (0, 32))  # the two top-left 16 px tokens


@pytest.fixture(scope="module", params=[1, 3], ids=["gray", "rgb"])
def edited(request, tmp_path_factory):
    """A finished 64 x 64 px edit (4 x 4 tokens of 16 px) of a gray or an
    RGB image, two of its tokens masked and two candidates kept."""
    channels = request.param
    tmp_path = tmp_path_factory.mktemp(f"edit-{channels}ch")
    cfg = write_config(tmp_path, {"quantizer": {"patch": 16, "channels": channels}})
    guide, sga = tmp_path / "run" / "guide", tmp_path / "run" / "sga"
    assert cli.main(["train-guide", "--config", str(cfg)]) == 0
    assert cli.main(["train-sga", "--config", str(cfg), "--guide", str(guide)]) == 0
    rng = substream(channels, "cli-blend-inputs")
    image = tmp_path / ("input.pgm" if channels == 1 else "input.ppm")
    images.write_pnm(image, images.synthetic_image(64, 64, channels, rng))
    images.write_class_map(tmp_path / "semantic.pgm", images.synthetic_class_map(64, 64, 3, rng))
    mask = np.zeros((64, 64))
    (r0, r1), (c0, c1) = MASK_BOX
    mask[r0:r1, c0:c1] = 1.0
    images.write_pnm(tmp_path / "mask.pgm", mask)
    rc = cli.main(
        ["edit", "--config", str(cfg), "--guide", str(guide), "--sga", str(sga), "--image", str(image),
         "--semantic", str(tmp_path / "semantic.pgm"), "--mask", str(tmp_path / "mask.pgm")]
    )
    assert rc == 0
    out = tmp_path / "run" / "edit"
    rows = json.loads((out / "report.json").read_text())["candidates"]
    assert len(rows) == 2
    return out, guide, image, mask, rows


def _pixels(path, channels):
    """The raw sample bytes of a PNM file, H x W (x 3)."""
    count = 64 * 64 * channels
    raw = np.frombuffer(path.read_bytes()[-count:], dtype=np.uint8)
    return raw.reshape(64, 64) if channels == 1 else raw.reshape(64, 64, 3)


class TestEditOutputImages:
    def test_pixels_beyond_blend_reach_are_the_input_bytes(self, edited):
        """The pixel form of "unmasked tokens never change": no written image
        differs from the input farther than the blend's reach from the mask."""
        out, _, image, _, rows = edited
        channels = 1 if image.suffix == ".pgm" else 3
        (r0, r1), (c0, c1) = MASK_BOX
        far = np.ones((64, 64), bool)
        far[max(0, r0 - BLEND_REACH) : r1 + BLEND_REACH, max(0, c0 - BLEND_REACH) : c1 + BLEND_REACH] = False
        assert far.sum() >= 64 * 8
        original = _pixels(image, channels)
        for row in rows:
            written = _pixels(out / row["image"], channels)
            assert np.array_equal(written[far], original[far]), row["image"]
            assert not np.array_equal(written, original), row["image"]

    def test_each_image_is_the_full_image_blend_of_its_tokens(self, edited, tmp_path):
        out, guide, image, mask, rows = edited
        projection = read_sgat(guide / "projection.sgat")
        codebook = Codebook(read_sgat(guide / "codebook.sgat"))
        original = images.read_pnm(image)
        for row in rows:
            grid = TokenGrid.from_json((out / row["tokens"]).read_text())
            recon = compositing.tokens_to_image(grid.tokens[None], codebook, projection, 16)[0]
            inside = mask > 0 if original.ndim == 2 else (mask > 0)[:, :, None]
            blended = full_image_blend(np.where(inside, recon, original), original, mask, 4)
            expected = tmp_path / row["image"]
            images.write_pnm(expected, blended)
            assert (out / row["image"]).read_bytes() == expected.read_bytes(), row["image"]


def test_odd_sided_image_edits_at_one_level(tmp_path):
    """A 12 x 9 px image (4 x 3 tokens of 3 px) edits: the blend works out
    one pyramid level, which halves nothing, so no side needs to divide,
    and each written image is the full-image blend of its tokens at one level."""
    model = {"grid_high": [4, 3], "grid_low": [4, 3], "blocks": 4}
    cfg = write_config(tmp_path, {"model": model, "quantizer": {"patch": 3}})
    guide, sga = tmp_path / "run" / "guide", tmp_path / "run" / "sga"
    assert cli.main(["train-guide", "--config", str(cfg)]) == 0
    assert cli.main(["train-sga", "--config", str(cfg), "--guide", str(guide)]) == 0
    image, semantic, mask = make_edit_inputs(tmp_path, grid=(4, 3), patch=3, mask_box=((6, 12), (0, 6)))
    rc = cli.main(
        ["edit", "--config", str(cfg), "--guide", str(guide), "--sga", str(sga), "--image", str(image),
         "--semantic", str(semantic), "--mask", str(mask)]
    )
    assert rc == 0
    out = tmp_path / "run" / "edit"
    projection = read_sgat(guide / "projection.sgat")
    codebook = Codebook(read_sgat(guide / "codebook.sgat"))
    original, pixel_mask = images.read_pnm(image), images.read_pnm(mask)
    assert original.shape == (12, 9)
    for row in json.loads((out / "report.json").read_text())["candidates"]:
        grid = TokenGrid.from_json((out / row["tokens"]).read_text())
        recon = compositing.tokens_to_image(grid.tokens[None], codebook, projection, 3)[0]
        blended = full_image_blend(np.where(pixel_mask > 0, recon, original), original, pixel_mask, 1)
        expected = tmp_path / row["image"]
        images.write_pnm(expected, blended)
        assert (out / row["image"]).read_bytes() == expected.read_bytes(), row["image"]


def _sgat_header(header: bytes) -> bytes:
    return b"SGAT" + len(header).to_bytes(4, "little") + header


def _sgat_shape(shape: list) -> bytes:
    """An f32 SGAT header that claims `shape`, with no payload."""
    return _sgat_header(json.dumps({"dtype": "f32", "shape": shape}).encode())


def _sgat_zeros(shape: list) -> bytes:
    """A well-formed f32 SGAT file of zeros of `shape`."""
    return _sgat_shape(shape) + bytes(4 * int(np.prod(shape)))


def _sgat_one(shape: list, value: float) -> bytes:
    """A well-formed f32 SGAT file of `shape` whose last entry is `value`, all others 0."""
    return _sgat_zeros(shape)[:-4] + np.float32(value).astype("<f4").tobytes()


# (name, file to replace in a copy of the guide checkpoint, its bytes, exit code)
MALFORMED_CHECKPOINTS = [
    ("sgat-truncated-header", "out_head.sgat", b"SGAT\x10\x00", 4),
    ("sgat-header-past-eof", "out_head.sgat", b"SGAT\xff\x00\x00\x00{}", 4),
    ("sgat-garbled-header", "out_head.sgat", _sgat_header(b'{"dtype": "f32", "shape": [1,'), 4),
    ("sgat-binary-header", "out_head.sgat", _sgat_header(b"\xff\xfe\x00"), 4),
    ("sgat-header-not-object", "out_head.sgat", _sgat_header(b"[1, 2]"), 4),
    ("sgat-missing-shape", "out_head.sgat", _sgat_header(b'{"dtype": "f32"}'), 4),
    ("sgat-bad-shape", "out_head.sgat", _sgat_header(b'{"dtype": "f32", "shape": ["a"]}'), 4),
    ("sgat-bool-shape", "out_head.sgat", _sgat_shape([True, 2]) + bytes(8), 4),
    ("sgat-shape-count-wraps", "out_head.sgat", _sgat_shape([2**40, 2**40]), 4),
    ("sgat-shape-past-eof", "out_head.sgat", _sgat_shape([10**12]), 4),
    ("sgat-empty-shape-too-big", "out_head.sgat", _sgat_shape([0, 2**70]), 4),
    # the right shape for TINY's out_head (d x vocab), 4 bytes past its payload
    ("sgat-trailing-bytes", "out_head.sgat", _sgat_shape([16, 8]) + bytes(4 * 16 * 8 + 4), 4),
    ("sgat-deleted", "out_head.sgat", None, 2),  # a file error, named in its one line
    ("manifest-garbled", "manifest.json", b'{"config": ', 2),
    ("manifest-binary", "manifest.json", b"\x80\x81", 2),
    ("manifest-missing-grid", "manifest.json", b'{"config": {}, "params": {}}', 2),
    ("manifest-not-object", "manifest.json", b"[]", 2),
    ("manifest-bad-config", "manifest.json",
     json.dumps({"config": {**TINY["model"], "blocks": 0}, "grid": [2, 2], "params": {}}).encode(), 2),
    ("assets-garbled", "assets.json", b"{patch", 2),
    # well-formed quantizer assets of a shape TINY's model (vocab 8, vocab_map 3, d 16, patch 4) cannot use
    ("codebook-too-few-entries", "codebook.sgat", _sgat_zeros([5, 16]), 2),
    ("codebook-too-many-entries", "codebook.sgat", _sgat_zeros([12, 16]), 2),
    ("projection-too-narrow", "projection.sgat", _sgat_zeros([16, 15]), 2),
    ("sem-codebook-too-few-entries", "sem_codebook.sgat", _sgat_zeros([2, 16]), 2),
    # quantizer assets of the right shape holding one non-finite value
    ("projection-inf", "projection.sgat", _sgat_one([16, 16], np.inf), 4),
    ("projection-nan", "projection.sgat", _sgat_one([16, 16], np.nan), 4),
    ("sem-projection-nan", "sem_projection.sgat", _sgat_one([48, 16], np.nan), 4),
    ("sem-codebook-nan", "sem_codebook.sgat", _sgat_one([3, 16], np.nan), 4),
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
    if payload is None:
        (guide / target).unlink()
    else:
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
    assert "Traceback" not in result.stderr and result.stderr.count("\n") == 1
    assert target.split(".")[0] in result.stderr
    if target.endswith(("codebook.sgat", "projection.sgat")):
        want = "invariant violation: {}: non-finite values" if code == 4 else "config error: {}: shape "
        assert result.stderr.startswith(want.format(guide / target))
    if payload is None:
        assert result.stderr.startswith("file error:") and target in result.stderr


# (name, file of the guide checkpoint, key, a value that truncates to a valid one)
NON_INTEGER_CHECKPOINT_FIELDS = [
    ("manifest-float-grid", "manifest.json", "grid", [2.9, 2.2]),
    ("assets-float-patch", "assets.json", "patch", 4.7),
    ("assets-true-channels", "assets.json", "channels", True),
]


@pytest.mark.parametrize(
    "target,key,value", [case[1:] for case in NON_INTEGER_CHECKPOINT_FIELDS],
    ids=[case[0] for case in NON_INTEGER_CHECKPOINT_FIELDS],
)
def test_non_integer_checkpoint_field_exit_2_without_traceback(trained, tmp_path, capsys, target, key, value):
    """An integer field of a guide checkpoint that holds a float or a bool
    is a config error, not read as the int it truncates to."""
    run, cfg = trained
    guide = tmp_path / "guide"
    shutil.copytree(run / "run" / "guide", guide)
    meta = json.loads((guide / target).read_text())
    meta[key] = value
    (guide / target).write_text(json.dumps(meta))
    image, semantic, mask = make_edit_inputs(tmp_path)
    rc = cli.main(
        ["edit", "--config", str(cfg), "--guide", str(guide), "--sga", str(run / "run" / "sga"),
         "--image", str(image), "--semantic", str(semantic), "--mask", str(mask), "--out", str(tmp_path / "out")]
    )
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("config error:") and target in err and key in err and "Traceback" not in err
    assert not (tmp_path / "out" / "edit").exists()


class TestOtherCommands:
    def test_ablate_rows_common_budget(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["ablate", "--config", str(cfg)]) == 0
        rows = json.loads((tmp_path / "run" / "ablate" / "report.json").read_text())
        assert [r["variant"] for r in rows] == ["dense", "local"]
        assert all(r["steps"] == rows[0]["steps"] and r["seeds"] == rows[0]["seeds"] for r in rows)

    def test_ablate_trains_with_the_train_recipe(self, tmp_path, monkeypatch):
        """Every variant and seed trains with `train.steps/lr/optimizer/clip`."""
        recipe = {"steps": 3, "lr": 0.05, "optimizer": "adam", "clip": 0.5}
        calls = []

        def recording(*args, **kwargs):
            calls.append({key: kwargs.get(key) for key in recipe})
            return real(*args, **kwargs)

        real = cli.evalbench.train
        monkeypatch.setattr(cli.evalbench, "train", recording)
        cfg = write_config(tmp_path, {"train": recipe, "ablation": {"seeds": [0, 1]}})
        assert cli.main(["ablate", "--config", str(cfg)]) == 0
        assert calls == [recipe] * 4
        rows = json.loads((tmp_path / "run" / "ablate" / "report.json").read_text())
        assert [r["steps"] for r in rows] == [3, 3]

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["train-guide", "--config", str(cfg)]) == 0
        assert cli.main(["train-guide", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "runS")]) == 0
        a = (tmp_path / "run" / "guide" / "enc_tok_emb.sgat").read_bytes()
        b = (tmp_path / "runS" / "guide" / "enc_tok_emb.sgat").read_bytes()
        assert a != b


@pytest.mark.parametrize("command", ["bench", "leakcheck", "rollout"])
def test_removed_command_stops_at_argparse(tmp_path, capsys, command):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(cfg)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_bench_block_rejected_exit_2_without_traceback(tmp_path, capsys):
    """A resolved config written before the `bench` or the `leakcheck`
    block went is rejected until the block is dropped."""
    removed = {
        "bench": {"lengths": [256, 1024], "d": 64, "variants": ["dense", "random"], "repeats": 5, "blocks": 64},
        "leakcheck": {"trials": 100},
    }
    for block, value in removed.items():
        cfg = write_config(tmp_path, {block: value})
        assert cli.main(["train-guide", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: unknown config key: {block}\n"
        assert not (tmp_path / "run").exists()


def test_doc_lists_the_subcommands():
    """The module docstring's "Subcommands:" list is `COMMANDS` and the
    parser's choices, in order."""
    (listed,) = [line for line in cli.__doc__.split("\n\n") if line.startswith("Subcommands:")]
    names = listed.removeprefix("Subcommands:").split(".")[0].replace("\n", " ").split(",")
    (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert [n.strip() for n in names] == list(cli.COMMANDS) == list(sub.choices)


def test_console_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-m", "sgaedit.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0
    assert "train-guide" in result.stdout
