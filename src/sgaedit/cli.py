"""Command-line surface for the full pipeline.

Subcommands: train-guide, train-sga, edit, ablate. Every command takes
--config (JSON), optional --seed/--out overrides, and writes its
resolved configuration beside its outputs.
Exit codes: 0 success, 2 config error (ConfigError, or a file that
cannot be opened), 3 numerical error (NumericalError: non-finite logits
or loss), 4 invariant violation (any other SgaError). Every error ends
with one stderr line and no traceback; `errors.py` holds one class per
exit code, plus the classes some `except` clause tells apart.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import compositing, config as cfgmod, evalbench, images, model as mdl, sampler
from .errors import ConfigError, InsufficientDataError, NumericalError, SgaError, ValidationError
from .numerics import read_sgat, write_sgat
from .quantizer import Codebook, TokenGrid, encode_patches, fit_codebook, quantize, random_projection
from .rng import substream


def _task_for(cfg: dict, dims: tuple) -> evalbench.SyntheticTask:
    mconf = cfgmod.model_config(cfg)
    return evalbench.SyntheticTask(cfg["task"]["kind"], dims[0], dims[1], mconf.vocab, classes=mconf.vocab_map)


def _load_model(directory, mconf: mdl.ModelConfig, grid_key: str) -> mdl.ModelWeights:
    """Load a checkpoint and check that it is this run config's model at its `grid_key` grid."""
    weights = mdl.load_checkpoint(Path(directory))
    if weights.config != mconf:
        raise ConfigError(f"{directory}: checkpoint config differs from run config")
    if weights.grid != getattr(mconf, grid_key):
        raise ConfigError(f"{directory}: checkpoint grid {weights.grid} != {grid_key} {getattr(mconf, grid_key)}")
    return weights


def _derived_seed(seed: int, name: str) -> int:
    return int(substream(seed, name).integers(2**31 - 1))


# ---------------------------------------------------------------------------
# quantizer assets (patch projections + codebooks) stored with the guide
# checkpoint so editing runs are self-contained
# ---------------------------------------------------------------------------


def _fit_assets(cfg: dict) -> dict:
    """The guide's quantizer assets as {file name: array}."""
    mconf = cfgmod.model_config(cfg)
    q = cfg["quantizer"]
    seed = cfg["seed"]
    patch, channels = q["patch"], q["channels"]
    proj = random_projection(patch, channels, mconf.d, seed, "projection-image")
    sem_proj = random_projection(patch, mconf.vocab_map, mconf.d, seed, "projection-semantic")
    h_px = mconf.grid_high[0] * patch
    w_px = mconf.grid_high[1] * patch
    feats, sem_feats = [], []
    for i in range(q["corpus_images"]):
        rng = substream(seed, f"corpus-{i}")
        img = images.synthetic_image(h_px, w_px, channels, rng)
        feats.append(encode_patches(img, patch, proj).reshape(-1, mconf.d))
        cmap = images.synthetic_class_map(h_px, w_px, mconf.vocab_map, rng)
        sem_feats.append(encode_patches(images.one_hot_map(cmap, mconf.vocab_map), patch, sem_proj).reshape(-1, mconf.d))

    def fit(features: list, key: str, size: int, name: str) -> Codebook:
        try:
            return fit_codebook(np.concatenate(features), size, q["iterations"], _derived_seed(seed, name))
        except InsufficientDataError as exc:
            raise ConfigError(f"{key} {size}: quantizer.corpus_images {q['corpus_images']} give {exc}")

    codebook = fit(feats, "model.vocab", mconf.vocab, "codebook-image")
    sem_codebook = fit(sem_feats, "model.vocab_map", mconf.vocab_map, "codebook-semantic")
    return {
        "projection.sgat": proj,
        "codebook.sgat": codebook.entries,
        "sem_projection.sgat": sem_proj,
        "sem_codebook.sgat": sem_codebook.entries,
    }


def _load_assets(directory: Path, mconf: mdl.ModelConfig) -> dict:
    """The guide's quantizer assets, each array checked against the shape
    that `assets.json` and the run config give it."""
    try:
        meta = json.loads((directory / "assets.json").read_bytes())
        patch, channels = meta["patch"], meta["channels"]
        mdl.check_int("patch", patch, 1)
        mdl.check_int("channels", channels)
        if channels not in (1, 3):
            raise ConfigError(f"channels must be 1 or 3, got {channels}")
    except (ValueError, TypeError, KeyError, ConfigError) as exc:
        raise ConfigError(f"{directory / 'assets.json'}: malformed ({type(exc).__name__}: {exc})") from exc
    shapes = {
        "projection": (patch * patch * channels, mconf.d),
        "codebook": (mconf.vocab, mconf.d),
        "sem_projection": (patch * patch * mconf.vocab_map, mconf.d),
        "sem_codebook": (mconf.vocab_map, mconf.d),
    }
    assets = {"patch": patch, "channels": channels}
    for name, shape in shapes.items():
        path = directory / f"{name}.sgat"
        array = read_sgat(path)
        if array.shape != shape:
            raise ConfigError(f"{path}: shape {list(array.shape)}, the run config and assets.json need {list(shape)}")
        if not np.all(np.isfinite(array)):
            raise ValidationError(f"{path}: non-finite values")
        assets[name] = Codebook(array) if name.endswith("codebook") else array
    return assets


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train_guide(cfg: dict, args) -> int:
    assets = _fit_assets(cfg)  # before any file is written: a too-small corpus fails here
    out = Path(cfg["out"]) / "guide"
    cfgmod.write_resolved(cfg, out)
    mconf = cfgmod.model_config(cfg)
    task = _task_for(cfg, mconf.grid_low)
    init = mdl.init_weights(mconf, mconf.grid_low, substream(cfg["seed"], "init-guide"))
    dense = mdl.PlanBundle.dense(mconf)
    result = evalbench.train(
        init,
        task,
        steps=cfg["train"]["steps"],
        lr=cfg["train"]["lr"],
        seed=cfg["seed"],
        plans=lambda step: dense,
        optimizer=cfg["train"]["optimizer"],
        clip=cfg["train"]["clip"],
    )
    mdl.save_checkpoint(out, result.weights)
    evalbench.write_loss_csv(out / "loss.csv", result.losses)
    for name, array in assets.items():
        write_sgat(out / name, array)
    q = cfg["quantizer"]
    (out / "assets.json").write_text(json.dumps({"patch": q["patch"], "channels": q["channels"]}, sort_keys=True))
    print(f"guide checkpoint written to {out} (final loss {result.losses[-1]:.4f})")
    return 0


def cmd_train_sga(cfg: dict, args) -> int:
    out = Path(cfg["out"]) / "sga"
    cfgmod.write_resolved(cfg, out)
    mconf = cfgmod.model_config(cfg)
    guide_weights = _load_model(args.guide, mconf, "grid_low")

    task_low = _task_for(cfg, mconf.grid_low)
    seed = cfg["seed"]
    log_lines = []
    weights = guide_weights
    for si, stage in enumerate(cfgmod.stage_ladder(cfg)):
        source_grid = weights.grid
        weights = mdl.init_from_guiding(weights, grid=stage)
        log_lines.append(
            f"stage {si}: grid {stage[0]}x{stage[1]}, positional tables interpolated "
            f"from {source_grid[0]}x{source_grid[1]}"
        )
        result = evalbench.train(
            weights,
            _task_for(cfg, stage),
            steps=cfg["train"]["stage_steps"],
            lr=cfg["train"]["lr"],
            seed=_derived_seed(seed, f"sga-stage-{si}"),
            plans=evalbench.guided_plans(guide_weights, task_low, mconf, seed, f"sga-plans-{si}"),
            optimizer=cfg["train"]["optimizer"],
            clip=cfg["train"]["clip"],
        )
        weights = result.weights
        evalbench.write_loss_csv(out / f"loss_stage{si}.csv", result.losses)

    mdl.save_checkpoint(out, weights)
    (out / "stages.log").write_text("\n".join(log_lines) + "\n")
    print(f"sga checkpoint written to {out}")
    return 0


def _build_request(cfg: dict, assets: dict, image_path, semantic_path, mask_path) -> tuple:
    mconf = cfgmod.model_config(cfg)
    patch = assets["patch"]
    channels = assets["channels"]
    image = images.read_pnm(image_path)
    got_channels = 1 if image.ndim == 2 else 3
    if got_channels != channels:
        raise ConfigError(f"image has {got_channels} channel(s), assets expect {channels}")
    h_px = mconf.grid_high[0] * patch
    w_px = mconf.grid_high[1] * patch
    if image.shape[:2] != (h_px, w_px):
        raise ConfigError(f"image dims {image.shape[:2]} != expected {(h_px, w_px)}")
    cmap = images.read_class_map(semantic_path)
    if cmap.shape != (h_px, w_px):
        raise ConfigError("semantic map dims differ from image")
    if cmap.max() >= mconf.vocab_map:
        raise ConfigError(f"semantic class {cmap.max()} >= vocab_map {mconf.vocab_map}")
    pixel_mask = images.read_pnm(mask_path)
    if pixel_mask.ndim != 2 or pixel_mask.shape != (h_px, w_px):
        raise ConfigError("mask must be a PGM with image dims")
    pixel_mask = pixel_mask >= 0.5

    fy = mconf.grid_high[0] // mconf.grid_low[0]  # a whole multiple, by `config.resolve`
    image_low = images.downsample_box(image, fy)
    cmap_low = images.downsample_nearest(cmap, fy)

    def tokens_of(img, cm):
        toks = quantize(encode_patches(img, patch, assets["projection"]), assets["codebook"])
        sem = quantize(
            encode_patches(images.one_hot_map(cm, mconf.vocab_map), patch, assets["sem_projection"]),
            assets["sem_codebook"],
        )
        return toks, sem

    tokens, semantic = tokens_of(image, cmap)
    tokens_low, semantic_low = tokens_of(image_low, cmap_low)
    request = sampler.EditRequest(
        tokens=tokens,
        semantic=semantic,
        mask=images.downsample_mask_any(pixel_mask, patch),
        tokens_low=tokens_low,
        semantic_low=semantic_low,
        mask_low=images.downsample_mask_any(pixel_mask, patch * fy),
    )
    return request, image, pixel_mask


def cmd_edit(cfg: dict, args) -> int:
    out = Path(cfg["out"]) / "edit"
    if out.exists():
        shutil.rmtree(out)
    try:
        return _run_edit(cfg, args, out)
    except Exception:
        shutil.rmtree(out, ignore_errors=True)
        raise


def write_candidates(out: Path, tokens, logprobs, image, pixel_mask, assets: dict) -> list:
    """Write each distinct ranked candidate once, at its first rank, as a token
    file and `image` blended under `pixel_mask`; return the `report.json` rows."""
    first = {}  # each distinct candidate's first index, in rank order
    for i, row in enumerate(tokens):
        first.setdefault(row.tobytes(), i)
    keep = list(first.values())
    tokens, logprobs = tokens[keep], logprobs[keep]
    recons = compositing.tokens_to_image(tokens, assets["codebook"], assets["projection"], assets["patch"])
    blended = compositing.laplacian_blend(recons, image, pixel_mask.astype(np.float64))
    rows = []
    for rank, (row, logprob, img) in enumerate(zip(tokens, logprobs, blended)):
        tok_file = f"candidate_{rank:02d}.json"
        img_file = f"candidate_{rank:02d}" + (".pgm" if image.ndim == 2 else ".ppm")
        (out / tok_file).write_text(TokenGrid(row, assets["codebook"].size).to_json())
        images.write_pnm(out / img_file, img)
        rows.append({"rank": rank, "logprob": float(logprob), "tokens": tok_file, "image": img_file})
    return rows


def _run_edit(cfg: dict, args, out: Path) -> int:
    cfgmod.write_resolved(cfg, out)
    mconf = cfgmod.model_config(cfg)
    guide_weights = _load_model(args.guide, mconf, "grid_low")
    sga_weights = _load_model(args.sga, mconf, "grid_high")
    assets = _load_assets(Path(args.guide), mconf)
    request, image, pixel_mask = _build_request(cfg, assets, args.image, args.semantic, args.mask)

    t0 = time.perf_counter()
    guided = sampler.guide_and_plan(request, guide_weights, mconf, seed=cfg["seed"])
    t_guide = time.perf_counter() - t0
    t0 = time.perf_counter()
    tokens, logprobs = sampler.autoregressive_edit(
        request,
        sga_weights,
        guided.plans,
        top_k=cfg["sampling"]["top_k"],
        n_samples=cfg["sampling"]["n_samples"],
        n_keep=cfg["sampling"]["n_keep"],
        seed=cfg["seed"],
    )
    t_sga = time.perf_counter() - t0

    t0 = time.perf_counter()
    rows = write_candidates(out, tokens, logprobs, image, pixel_mask, assets)
    t_output = time.perf_counter() - t0

    report = {
        "candidates": rows,
        "n_samples": cfg["sampling"]["n_samples"],
        "n_keep": cfg["sampling"]["n_keep"],
        "top_k": cfg["sampling"]["top_k"],
        "seed": cfg["seed"],
        "sparsity": guided.plans.mean_sparsity(),
        "guide_logprob": guided.logprob_low,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    guide_share = t_guide / (t_guide + t_sga)
    (out / "timings.json").write_text(
        json.dumps(
            {"guide_s": t_guide, "sga_s": t_sga, "guide_share": guide_share, "output_s": t_output},
            indent=2,
            sort_keys=True,
        )
    )
    print(f"wrote {len(rows)} candidate(s) to {out} (guide share {guide_share:.1%})")
    return 0


def cmd_ablate(cfg: dict, args) -> int:
    out = Path(cfg["out"]) / "ablate"
    cfgmod.write_resolved(cfg, out)
    mconf = cfgmod.model_config(cfg)
    a, t = cfg["ablation"], cfg["train"]
    task = _task_for(cfg, mconf.grid_high)
    report = evalbench.run_ablation(
        a["variants"],
        task,
        mconf,
        steps=t["steps"],
        seeds=a["seeds"],
        lr=t["lr"],
        optimizer=t["optimizer"],
        eval_instances=a["eval_instances"],
        clip=t["clip"],
    )
    text = report.to_text()
    (out / "report.json").write_text(report.to_json())
    (out / "report.txt").write_text(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgaedit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")

    p = sub.add_parser("train-guide", help="train the dense low-resolution guiding model")
    common(p)
    p = sub.add_parser("train-sga", help="fine-tune the block-sparse model from a guide checkpoint")
    common(p)
    p.add_argument("--guide", required=True, help="guide checkpoint directory")
    p = sub.add_parser("edit", help="run a masked edit end to end")
    common(p)
    p.add_argument("--guide", required=True)
    p.add_argument("--sga", required=True)
    p.add_argument("--image", required=True, help="PGM/PPM input image")
    p.add_argument("--semantic", required=True, help="PGM class map")
    p.add_argument("--mask", required=True, help="PGM pixel mask (>=128 = edit)")
    p.add_argument("--workers", type=int, default=1, help="no effect: all candidates decode as one batch")
    p = sub.add_parser("ablate", help="attention-variant ablation on a synthetic task")
    common(p)
    return parser


COMMANDS = {
    "train-guide": cmd_train_guide,
    "train-sga": cmd_train_sga,
    "edit": cmd_edit,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = cfgmod.load(args.config, seed_override=args.seed, out_override=args.out)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a missing file, a directory where a file belongs, or the reverse
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except SgaError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
