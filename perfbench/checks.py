"""Output checks and plan counts, computed from outside the program.

The edit check rebuilds the edit request from the input files with the
package's public functions, then holds every kept candidate to two
oracles: its unmasked tokens equal the input's, and `sampler.rescore`
(one full forced decoder pass) reproduces its reported log-probability.
The request is rebuilt here rather than through the CLI's private
helpers, so the token check stays independent of the code it checks.
The train check reads the loss files back.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from sgaedit import evalbench, images, model as mdl, sampler, sga
from sgaedit.numerics import read_sgat
from sgaedit.quantizer import Codebook, TokenGrid, apply_mask, encode_patches, quantize

LOGPROB_TOLERANCE = 1e-9


class EditOracle:
    """The request, weights and guided plans of one edit's inputs."""

    def __init__(self, cfg: dict, guide_dir: Path, sga_dir: Path, inputs: dict):
        self.cfg = cfg
        self.guide = mdl.load_checkpoint(guide_dir)
        self.sga = mdl.load_checkpoint(sga_dir)
        self.request = self._request(guide_dir, inputs)
        mconf = self.guide.config
        self.plans = sampler.guide_and_plan(self.request, self.guide, mconf, seed=cfg["seed"]).plans

    def _request(self, guide_dir: Path, inputs: dict) -> sampler.EditRequest:
        mconf = self.guide.config
        patch = json.loads((guide_dir / "assets.json").read_text())["patch"]
        projection = read_sgat(guide_dir / "projection.sgat")
        codebook = Codebook(read_sgat(guide_dir / "codebook.sgat"))
        sem_projection = read_sgat(guide_dir / "sem_projection.sgat")
        sem_codebook = Codebook(read_sgat(guide_dir / "sem_codebook.sgat"))
        image = images.read_pnm(inputs["image"])
        cmap = images.read_class_map(inputs["semantic"])
        pixel_mask = images.read_pnm(inputs["mask"]) >= 0.5
        factor = mconf.grid_high[0] // mconf.grid_low[0]

        def tokens_of(img, classes):
            toks = quantize(encode_patches(img, patch, projection), codebook)
            onehot = images.one_hot_map(classes, mconf.vocab_map)
            return toks, quantize(encode_patches(onehot, patch, sem_projection), sem_codebook)

        tokens, semantic = tokens_of(image, cmap)
        tokens_low, semantic_low = tokens_of(images.downsample_box(image, factor), images.downsample_nearest(cmap, factor))
        return sampler.EditRequest(
            tokens=tokens,
            semantic=semantic,
            mask=images.downsample_mask_any(pixel_mask, patch),
            tokens_low=tokens_low,
            semantic_low=semantic_low,
            mask_low=images.downsample_mask_any(pixel_mask, patch * factor),
        )

    def check(self, edit_dir: Path) -> list:
        """Problems found in one edit's outputs; empty when all hold."""
        report = json.loads((edit_dir / "report.json").read_text())
        rows = report["candidates"]
        problems = []
        if not 1 <= len(rows) <= self.cfg["sampling"]["n_keep"]:
            problems.append(f"{len(rows)} candidates written")
        unmasked = ~self.request.mask
        for row in rows:
            grid = TokenGrid.from_json((edit_dir / row["tokens"]).read_text())
            if not np.array_equal(grid.tokens[unmasked], self.request.tokens.tokens[unmasked]):
                problems.append(f"candidate {row['rank']} changed an unmasked token")
                continue
            redo = sampler.rescore(self.request, self.sga, self.plans, grid, top_k=self.cfg["sampling"]["top_k"])
            if not abs(redo - row["logprob"]) <= LOGPROB_TOLERANCE:
                problems.append(f"candidate {row['rank']} log-prob {row['logprob']!r} != rescored {redo!r}")
            if not (edit_dir / row["image"]).is_file():
                problems.append(f"candidate {row['rank']} image missing")
        return problems


def read_losses(path: Path) -> list:
    lines = path.read_text().splitlines()
    return [float(line.split(",")[1]) for line in lines[1:]]


def check_losses(path: Path, steps: int) -> list:
    """Problems in one loss file: wrong row count or a non-finite loss."""
    losses = read_losses(path)
    problems = []
    if len(losses) != steps:
        problems.append(f"{path.name}: {len(losses)} rows for {steps} steps")
    if not all(math.isfinite(v) for v in losses):
        problems.append(f"{path.name}: non-finite loss")
    return problems


def plan_counts(guide_call) -> dict:
    """Exact counts over the guided plans of one `sampler.guide_and_plan` call.

    `guide_call` is its (bound arguments, result) as the tracer captured them.
    """
    arguments, result = guide_call
    request, guide_weights, config = arguments["request"], arguments["guiding_weights"], arguments["config"]
    plans = result.plans
    kept = plans.mean_sparsity()
    dense = evalbench.forward_score_flops(config, None, config.l_high)
    counts = {
        "sga.kept_fraction.enc": kept["enc"],
        "sga.kept_fraction.dec_self": kept["dec_self"],
        "sga.kept_fraction.dec_cross": kept["dec_cross"],
        "sga.score_flops_ratio": evalbench.forward_score_flops(config, plans, config.l_high) / dense,
    }
    # contiguous blocks: every key in block t > r is in the future of every
    # query in block r, so the causal mask makes the whole block dead
    dead = sum(t > r for layer in plans.dec_self for p in layer for r, ks in enumerate(p.kept) for t in ks)
    total = sum(p.kept_count() for layer in plans.dec_self for p in layer)
    counts["sga.dead_kept_fraction"] = dead / total

    # the guide's own attention, recomputed over its completed low-res edit
    forced = mdl.guiding_forward(
        apply_mask(request.tokens_low, request.mask_low),
        request.semantic_low,
        guide_weights,
        decoder_tokens=result.completion_low.flat(),
    )
    maps = {"enc": forced.encoder.attn, "dec_self": forced.dec_self_attn, "dec_cross": forced.dec_cross_attn}
    blocks = sga.partition(config.l_low, config.blocks).block_of
    shares = []
    for role, role_plans in (("enc", plans.enc), ("dec_self", plans.dec_self), ("dec_cross", plans.dec_cross)):
        for layer, layer_plans in enumerate(role_plans):
            for head, plan in enumerate(layer_plans):
                keep = np.zeros((plan.n_blocks, plan.n_blocks), dtype=bool)
                for r, ks in enumerate(plan.kept):
                    keep[r, list(ks)] = True
                attn = maps[role][layer][head]
                shares.append(float(attn[keep[np.ix_(blocks, blocks)]].sum() / attn.sum()))
    counts["sga.plan_mass_kept"] = float(np.mean(shares))
    return counts
