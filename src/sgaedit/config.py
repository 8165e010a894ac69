"""Run configuration: one JSON document drives every CLI command.

Unknown keys are rejected (typos should fail loudly) and the fully
resolved document, defaults included, is written next to every command's
outputs so a run can be reproduced from it alone.

Every setting has one source. The commands that read each block:

- `model`: every command. Its plan shape (`blocks`, `radius`, `top_k`)
  is read by train-sga, edit and ablate.
- `task`: train-guide, train-sga, ablate.
- `train`, the one training recipe: train-guide and ablate train for
  `steps`, train-sga for `stage_steps` per stage, all three with `lr`,
  `optimizer` and `clip`, the global gradient-norm bound (0 turns
  clipping off).
- `sampling`: edit. `quantizer`: train-guide, which fits the quantizer
  assets that edit reads from the guide checkpoint. `ablation`: ablate,
  whose variants are `dense`, `oracle` (the task's ideal plans) and the
  fixed families `local`, `random`, `global`.

`train-sga` fine-tunes through a ladder of grids that is worked out from
the two grids, not configured (`stage_ladder`): start at
`model.grid_low`, double while the doubled grid divides `model.grid_high`
and is smaller than it, and end at `model.grid_high`. Every stage is a
whole multiple of `grid_low`, so the checks on the two grids hold for it.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError, ShapeError
from .evalbench import ABLATION_VARIANTS, TASK_KINDS, SyntheticTask
from .model import ModelConfig, check_int

DEFAULTS = {
    "seed": 0,
    "out": "runs/out",
    # `ModelConfig`'s defaults, its grids as JSON lists
    "model": {f.name: list(f.default) if isinstance(f.default, tuple) else f.default for f in fields(ModelConfig)},
    "task": {"kind": "mirror"},
    "train": {
        "steps": 200,
        "lr": 0.2,
        "optimizer": "sgd",
        "clip": 1.0,
        "stage_steps": 100,
    },
    "sampling": {"top_k": 100, "n_samples": 50, "n_keep": 10},
    "quantizer": {"patch": 16, "iterations": 50, "channels": 1, "corpus_images": 6},
    "ablation": {
        "variants": ["dense", "oracle", "local"],
        "seeds": [0, 1, 2],
        "eval_instances": 16,
    },
}

# run-config values checked by `resolve`, as "block.name"; ints with their lower bound
INT_KEYS = {
    "train.steps": 1,
    "train.stage_steps": 1,
    "sampling.top_k": 1,
    "sampling.n_samples": 1,
    "sampling.n_keep": 1,
    "ablation.eval_instances": 1,
    "quantizer.patch": 1,
    "quantizer.iterations": 1,
    "quantizer.channels": 1,
    "quantizer.corpus_images": 1,
}
RATE_KEYS = ("train.lr", "train.clip")


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
    for key, grid in (("model.grid_low", model.grid_low), ("model.grid_high", model.grid_high)):
        for side in grid:
            check_int(key, side, 2)  # the synthetic tasks' masks need two rows and columns
        try:
            SyntheticTask(cfg["task"]["kind"], grid[0], grid[1], model.vocab)
        except ShapeError as exc:
            raise ConfigError(f"{key} grid {grid}: {exc}") from exc
    factor = model.grid_high[0] // model.grid_low[0]
    if model.grid_high != (model.grid_low[0] * factor, model.grid_low[1] * factor):
        raise ConfigError(
            f"model.grid_high {list(model.grid_high)} is not a whole multiple of model.grid_low {list(model.grid_low)}"
        )
    for key, low in INT_KEYS.items():
        check_int(key, _value(cfg, key), low)
    if cfg["quantizer"]["channels"] not in (1, 3):
        raise ConfigError(f"quantizer.channels must be 1 or 3, got {cfg['quantizer']['channels']!r}")
    variants, seeds = cfg["ablation"]["variants"], cfg["ablation"]["seeds"]
    if not (isinstance(variants, list) and variants and all(v in ABLATION_VARIANTS for v in variants)):
        raise ConfigError(
            f"ablation.variants must be a non-empty list of {', '.join(ABLATION_VARIANTS)}, got {variants!r}"
        )
    if not (isinstance(seeds, list) and seeds):
        raise ConfigError(f"ablation.seeds must be a non-empty list of ints, got {seeds!r}")
    for seed in seeds:
        check_int("ablation.seeds", seed)
    for key in RATE_KEYS:
        value = _value(cfg, key)
        if not (isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value) and value >= 0):
            raise ConfigError(f"{key} must be a finite number >= 0, got {value!r}")
    if cfg["train"]["optimizer"] not in ("sgd", "adam"):
        raise ConfigError(f"train.optimizer must be sgd or adam, got {cfg['train']['optimizer']!r}")
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
    """Fine-tuning grids, from `model.grid_low` (exclusive) up to
    `model.grid_high`: double while the doubled grid divides `grid_high`
    and is smaller than it, then end at `grid_high`. A grid factor of 1,
    2 or 3 gives `[high]`, 4 or 6 gives `[2x, high]`, 8 or 12 gives
    `[2x, 4x, high]`. `resolve` has checked that `grid_high` is a whole
    multiple of `grid_low`, so comparing heights is enough."""
    model = model_config(cfg)
    h, w = model.grid_low
    ladder = []
    while model.grid_high[0] % (2 * h) == 0 and 2 * h < model.grid_high[0]:
        h, w = 2 * h, 2 * w
        ladder.append((h, w))
    return ladder + [model.grid_high]
