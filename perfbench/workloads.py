"""The three workloads: their run configurations and their seeded inputs.

Each workload is a set of `sgaedit` JSON configurations plus the input
files an edit needs (a PGM image, a PGM class map and a PGM pixel mask).
The workload seed drives the edit inputs, so the same seed gives
byte-identical inputs. The model seed inside the configurations is fixed:
checkpoints trained from different seeds differ so much in sharpness that
the log-probability guard would spread by 14% over seeds instead of 2-3%.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sgaedit import evalbench, images

PATCH = 16
SEED_SALT = 2205_12231  # keeps input streams apart from the program's own substreams
MODEL_SEED = 0  # the `seed` of every configuration: model init, training data, sampling


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict
    # set-up trains at a small step count: just enough to write every
    # checkpoint and quantizer asset an edit needs
    setup_train: dict
    sampling: dict
    mask: str  # "last-rows", "free-form-top" or "top-corner"
    masked_tokens: int
    workers: str  # "one" or "nproc"
    # the timed train-guide / train-sga step counts (train workload only)
    timed_train: dict = field(default_factory=dict)

    @property
    def grid(self) -> int:
        return self.model["grid_high"][0]

    @property
    def trains(self) -> bool:
        return bool(self.timed_train)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="edit-hires",
            model={"grid_high": [32, 32], "grid_low": [16, 16], "blocks": 64},
            setup_train={"steps": 2, "stage_steps": 1},
            sampling={"top_k": 100, "n_samples": 2, "n_keep": 1},
            mask="last-rows",
            masked_tokens=8,
            workers="one",
        ),
        Workload(
            name="edit-batch",
            model={"grid_high": [16, 16], "grid_low": [8, 8], "blocks": 16},
            setup_train={"steps": 10, "stage_steps": 4},
            sampling={"top_k": 100, "n_samples": 8, "n_keep": 4},
            mask="free-form-top",
            masked_tokens=24,
            workers="nproc",
        ),
        Workload(
            name="train",
            model={"grid_high": [16, 16], "grid_low": [8, 8], "blocks": 16, "layers_dec": 2},
            setup_train={"steps": 4, "stage_steps": 2},
            sampling={"top_k": 100, "n_samples": 2, "n_keep": 1},
            mask="top-corner",
            masked_tokens=4,
            workers="one",
            timed_train={"steps": 40, "stage_steps": 12},
        ),
    )
}


def config(workload: Workload, out: Path, train: dict) -> dict:
    """A full `sgaedit` run configuration for this workload."""
    return {
        "seed": MODEL_SEED,
        "out": str(out),
        "model": dict(workload.model),
        "task": {"kind": "mirror"},
        "train": dict(train),
        "sampling": dict(workload.sampling),
        "quantizer": {"patch": PATCH, "iterations": 10, "channels": 1, "corpus_images": 2},
    }


def token_mask(workload: Workload, seed: int) -> np.ndarray:
    """The edit mask on the high-resolution token grid, `masked_tokens` large."""
    g = workload.grid
    rng = np.random.default_rng([SEED_SALT, seed, 1])
    mask = np.zeros((g, g), dtype=bool)
    if workload.mask == "last-rows":
        # a (masked_tokens / 2)-wide box over the last two token rows
        width = workload.masked_tokens // 2
        col = 2 * int(rng.integers(0, (g - width) // 2 + 1))
        mask[g - 2 :, col : col + width] = True
    elif workload.mask == "top-corner":
        width = workload.masked_tokens // 2
        col = 2 * int(rng.integers(0, (g - width) // 2 + 1))
        mask[:2, col : col + width] = True
    elif workload.mask == "free-form-top":
        # a free-form brush mask over the top four token rows; redrawn until
        # it has exactly `masked_tokens` tokens so every seed decodes the
        # same number of positions
        while mask.sum() != workload.masked_tokens:
            mask[:] = False
            mask[:4] = evalbench.free_form_mask((4, g), rng)
    else:
        raise ValueError(f"unknown mask kind {workload.mask!r}")
    return mask


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict:
    """Write image, class map and pixel mask; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    px = workload.grid * PATCH
    rng = np.random.default_rng([SEED_SALT, seed, 0])
    paths = {name: directory / f"{name}.pgm" for name in ("image", "semantic", "mask")}
    vocab_map = 4  # sgaedit's default model.vocab_map
    images.write_pnm(paths["image"], images.synthetic_image(px, px, 1, rng))
    images.write_class_map(paths["semantic"], images.synthetic_class_map(px, px, vocab_map, rng))
    pixel_mask = np.kron(token_mask(workload, seed), np.ones((PATCH, PATCH)))
    images.write_pnm(paths["mask"], pixel_mask)
    return paths


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    return path
