"""Run configuration: one JSON document drives every CLI command.

Unknown keys are rejected (typos should fail loudly) and the fully
resolved document, defaults included, is written next to every command's
outputs so a run can be reproduced from it alone.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
from pathlib import Path

from .errors import ConfigError, ShapeError
from .evalbench import ABLATION_VARIANTS, TASK_KINDS, SyntheticTask
from .model import ModelConfig, check_int

DEFAULTS = {
    "seed": 0,
    "out": "runs/out",
    "model": {
        "d": 64,
        "layers_enc": 2,
        "layers_dec": 1,
        "heads": 4,
        "vocab": 16,
        "vocab_map": 4,
        "grid_high": [8, 8],
        "grid_low": [4, 4],
        "blocks": 8,
        "top_k": 3,
        "radius": 1,
        "ffw": 256,
    },
    "task": {"kind": "mirror"},
    "train": {
        "steps": 200,
        "lr": 0.2,
        "optimizer": "sgd",
        "clip": 1.0,
        "stages": [],  # SGA fine-tune grid ladder; [] = double per side up to grid_high
        "stage_steps": 100,
    },
    "sampling": {"top_k": 100, "n_samples": 50, "n_keep": 10},
    "quantizer": {"patch": 16, "iterations": 50, "channels": 1, "corpus_images": 6},
    "ablation": {
        "variants": ["dense", "guided", "local"],
        "steps": 200,
        "seeds": [0, 1, 2],
        "lr": 0.2,
        "optimizer": "sgd",
        "eval_instances": 16,
        "window": 3,
    },
    "bench": {
        "lengths": [256, 1024],
        "d": 64,
        "variants": ["dense", "guided"],
        "repeats": 5,
        "blocks": 64,
        "radius": 1,
        "top_k": 3,
    },
    "leakcheck": {"trials": 100, "image_size": 128},
}

# run-config values checked by `resolve`, as "block.name"; ints with their lower bound
INT_KEYS = {
    "train.steps": 1,
    "train.stage_steps": 1,
    "sampling.top_k": 1,
    "sampling.n_samples": 1,
    "sampling.n_keep": 1,
    "ablation.steps": 1,
    "ablation.eval_instances": 1,
    "ablation.window": 1,
    "bench.d": 1,
    "bench.blocks": 1,
    "bench.repeats": 5,
    "bench.radius": 0,
    "bench.top_k": 0,
    "quantizer.patch": 1,
    "quantizer.iterations": 1,
    "quantizer.channels": 1,
    "quantizer.corpus_images": 1,
    "leakcheck.trials": 1,
    "leakcheck.image_size": 1,
}
VARIANT_KEYS = ("ablation.variants", "bench.variants")
RATE_KEYS = ("train.lr", "train.clip", "ablation.lr")
OPTIMIZER_KEYS = ("train.optimizer", "ablation.optimizer")


def _merge(defaults: dict, user: dict, path: str) -> dict:
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here} must be an object")
            out[key] = _merge(defaults[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve(user: dict) -> dict:
    """Fill defaults, reject unknown keys, and sanity-check the result."""
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _merge(DEFAULTS, user, "")
    model = model_config(cfg)  # validates model block
    check_int("seed", cfg["seed"])
    if not isinstance(cfg["out"], str):
        raise ConfigError(f"out must be a string, got {cfg['out']!r}")
    if cfg["task"]["kind"] not in TASK_KINDS:
        raise ConfigError(f"unknown task kind {cfg['task']['kind']!r}")
    stages = cfg["train"]["stages"]
    if not (isinstance(stages, list) and all(isinstance(s, list) and len(s) == 2 for s in stages)):
        raise ConfigError(f"train.stages must be a list of [height, width] pairs, got {stages!r}")
    grids = [("model.grid_low", model.grid_low), ("model.grid_high", model.grid_high)]
    for key, grid in grids + [("train.stages", stage) for stage in stages]:
        for side in grid:
            check_int(key, side, 2)  # the synthetic tasks' masks need two rows and columns
        if grid[0] * grid[1] % model.blocks:
            raise ConfigError(f"model.blocks {model.blocks} does not tile {key} grid {grid}")
        try:
            SyntheticTask(cfg["task"]["kind"], grid[0], grid[1], model.vocab)
        except ShapeError as exc:
            raise ConfigError(f"{key} grid {grid}: {exc}") from exc
    stage_ladder(cfg)
    for key, low in INT_KEYS.items():
        check_int(key, _value(cfg, key), low)
    if cfg["quantizer"]["channels"] not in (1, 3):
        raise ConfigError(f"quantizer.channels must be 1 or 3, got {cfg['quantizer']['channels']!r}")
    if cfg["ablation"]["window"] % 2 == 0:
        raise ConfigError(f"ablation.window must be odd, got {cfg['ablation']['window']}")
    for key in VARIANT_KEYS:
        value = _value(cfg, key)
        if not (isinstance(value, list) and value and all(v in ABLATION_VARIANTS for v in value)):
            raise ConfigError(f"{key} must be a non-empty list of {', '.join(ABLATION_VARIANTS)}, got {value!r}")
    for key, low in (("ablation.seeds", None), ("bench.lengths", 1)):
        value = _value(cfg, key)
        if not (isinstance(value, list) and value):
            raise ConfigError(f"{key} must be a non-empty list of ints, got {value!r}")
        for item in value:
            check_int(key, item, low)
    patch, size = cfg["quantizer"]["patch"], cfg["leakcheck"]["image_size"]
    if size < 2 * patch or size % patch:  # a codebook needs 2 entries, so at least 2 patches
        raise ConfigError(f"leakcheck.image_size {size} must be a multiple >= 2 x quantizer.patch {patch}")
    for length in cfg["bench"]["lengths"]:
        if length % cfg["bench"]["blocks"]:
            raise ConfigError(f"bench.blocks {cfg['bench']['blocks']} does not divide bench length {length}")
    for key in RATE_KEYS:
        value = _value(cfg, key)
        if not (isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value) and value >= 0):
            raise ConfigError(f"{key} must be a finite number >= 0, got {value!r}")
    for key in OPTIMIZER_KEYS:
        if _value(cfg, key) not in ("sgd", "adam"):
            raise ConfigError(f"{key} must be sgd or adam, got {_value(cfg, key)!r}")
    if cfg["sampling"]["n_keep"] > cfg["sampling"]["n_samples"]:
        raise ConfigError("sampling.n_keep cannot exceed n_samples")
    return cfg


def _value(cfg: dict, key: str):
    block, name = key.split(".")
    return cfg[block][name]


def load(path, seed_override=None, out_override=None) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        user = json.loads(p.read_bytes())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = resolve(user)
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    if out_override is not None:
        cfg["out"] = str(out_override)
    return cfg


def model_config(cfg: dict) -> ModelConfig:
    try:
        return ModelConfig(**cfg["model"])
    except TypeError as exc:
        raise ConfigError(f"bad model config: {exc}") from exc


def write_resolved(cfg: dict, directory) -> None:
    Path(directory).mkdir(parents=True, exist_ok=True)
    (Path(directory) / "resolved_config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True))


def stage_ladder(cfg: dict) -> list:
    """Fine-tuning grids: configured stages, or doubling from low to high."""
    stages = [tuple(s) for s in cfg["train"]["stages"]]
    model = model_config(cfg)
    if stages:
        if stages[-1] != model.grid_high:
            raise ConfigError("last fine-tune stage must equal model.grid_high")
        return stages
    h, w = model.grid_low
    ladder = []
    while (h, w) != model.grid_high:
        h, w = h * 2, w * 2
        if h > model.grid_high[0] or w > model.grid_high[1]:
            raise ConfigError("grid_high is not reachable by doubling grid_low; set train.stages")
        ladder.append((h, w))
    return ladder or [model.grid_high]
