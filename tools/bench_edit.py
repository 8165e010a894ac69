"""Time the guide and one many-candidate `autoregressive_edit` on random weights.

The settings are the ROADMAP Baseline's: d 64, 4 heads, 2 encoder and 1
decoder layer, vocab 16, the lower-left quarter of the token grid
masked, the guide at half the side, `blocks` = min(64, guide length),
top-k 100. Each repeat times `guide_and_plan`, then the edit's encoder
pass (`model.encoder_forward`) on its own, then `autoregressive_edit`
under the plans, which runs that encoder pass again and decodes. After
the repeats, one untimed `model.guiding_forward` over the guide's own
completion gives its attention maps, and `sampler.plans_from_maps` over
them is timed as often. The medians of all four are reported. The last
line of output is one JSON object that also holds a digest of every
plan's keep matrix, a digest of the candidate tokens and every
candidate's log-probability, both in token order, so two checkouts can
be compared for equal outputs.
Run from a checkout's root, with that checkout's sources:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/bench_edit.py --grid 32 --samples 50 --repeats 5
"""

import argparse
import hashlib
import json
import statistics
import time

import numpy as np

from sgaedit import model as mdl
from sgaedit import sampler
from sgaedit.quantizer import TokenGrid, apply_mask
from sgaedit.rng import substream


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=int, default=32, help="token grid side")
    parser.add_argument("--samples", type=int, default=50, help="candidates per edit")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    side, low = args.grid, args.grid // 2
    cfg = mdl.ModelConfig(
        d=64, layers_enc=2, layers_dec=1, heads=4, vocab=16, vocab_map=4,
        grid_high=(side, side), grid_low=(low, low), blocks=min(64, low * low),
    )
    rng = substream(args.seed, "bench-edit")
    mask, mask_low = np.zeros((side, side), bool), np.zeros((low, low), bool)
    mask[side // 2 :, : side // 2] = True
    mask_low[low // 2 :, : low // 2] = True
    request = sampler.EditRequest(
        tokens=TokenGrid(rng.integers(0, cfg.vocab, size=(side, side)), cfg.vocab),
        semantic=TokenGrid(rng.integers(0, cfg.vocab_map, size=(side, side)), cfg.vocab_map),
        mask=mask,
        tokens_low=TokenGrid(rng.integers(0, cfg.vocab, size=(low, low)), cfg.vocab),
        semantic_low=TokenGrid(rng.integers(0, cfg.vocab_map, size=(low, low)), cfg.vocab_map),
        mask_low=mask_low,
    )
    guide = mdl.init_weights(cfg, cfg.grid_low, substream(args.seed, "bench-guide"))
    high = mdl.init_from_guiding(guide)

    guide_seconds, encode_seconds, seconds = [], [], []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        guided = sampler.guide_and_plan(request, guide, cfg, seed=args.seed)
        guide_seconds.append(time.perf_counter() - t0)
        plans = guided.plans
        t0 = time.perf_counter()
        mdl.encoder_forward(apply_mask(request.tokens, request.mask), request.semantic, high, plans)
        encode_seconds.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        tokens, logprobs = sampler.autoregressive_edit(
            request, high, plans, top_k=100, n_samples=args.samples, n_keep=args.samples, seed=args.seed
        )
        seconds.append(time.perf_counter() - t0)
        print(
            f"guide_and_plan {guide_seconds[-1]:.3f} s, encode {encode_seconds[-1]:.3f} s, "
            f"autoregressive_edit {seconds[-1]:.3f} s"
        )
    masked_low = apply_mask(request.tokens_low, request.mask_low)
    forced = mdl.guiding_forward(masked_low, request.semantic_low, guide, guided.completion_low.flat())
    plans_seconds = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        sampler.plans_from_maps(forced.encoder.attn, forced.dec_self_attn, forced.dec_cross_attn, cfg)
        plans_seconds.append(time.perf_counter() - t0)
    roles = (plans.enc, plans.dec_self, plans.dec_cross)
    keeps = [plan.keep.tobytes() for role in roles for layer in role for plan in layer]
    # in token order, not rank order: log-probabilities equal to rounding may rank near-ties either way
    cands = sorted((row.tobytes(), float(logprob)) for row, logprob in zip(tokens, logprobs))
    result = {
        "grid": side,
        "masked_tokens": int(mask.sum()),
        "n_samples": args.samples,
        "guide_seconds": guide_seconds,
        "guide_median_s": statistics.median(guide_seconds),
        "encode_seconds": encode_seconds,
        "encode_median_s": statistics.median(encode_seconds),
        "plans_seconds": plans_seconds,
        "plans_median_s": statistics.median(plans_seconds),
        "seconds": seconds,
        "median_s": statistics.median(seconds),
        "plans_sha256": hashlib.sha256(b"".join(keeps)).hexdigest(),
        "tokens_sha256": hashlib.sha256(b"".join(tokens for tokens, _ in cands)).hexdigest(),
        "logprobs": [logprob for _, logprob in cands],
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
