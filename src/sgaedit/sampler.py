"""Autoregressive editing: forced decoding, top-k sampling, and ranking.

Unmasked positions are forced to the original tokens and contribute no
probability; masked positions are sampled from the top-k truncated softmax
and accumulate log-probability. Candidate i draws only from its own random
stream, one uniform per masked position, so its tokens do not depend on
how many candidates are drawn with it. Candidates are ranked by their
summed (joint) log-probability. An edit's candidates stay arrays: one
`[C, h, w]` token stack and its `[C]` log-probabilities, highest first.

Decoding is incremental (`model.IncrementalDecoder`). The encoder pass
(`model.encoder_forward`) and the forced prefix, every row up to the
first masked position, are the same for all candidates, so they run once
per call. The decoder then branches into all candidates, which share the
mask and so extend the same rows at every step: the forced runs between
masked positions and one row per sampled position, as one batch. Each
such run is one call per layer and role of the block-gather kernel and
returns only the logits of its last row, the one sampled next; its
forced rows stop at the last layer's self-attention keys and values, all
that later rows read. Each sampled position is one `topk_sample` call
over every candidate's logits. The guide's own decode is the same path
with one candidate, unbranched, whose decoder then runs the rows after
the last masked position and holds the guide's maps, so it runs every
row in full. `rescore` scores a candidate with one teacher-forced
`model.forward` pass, whose decoder returns the rows of the whole
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as mdl
from . import sga
from .errors import NumericalError, ParameterError, ShapeError, ValidationError
from .quantizer import TokenGrid, apply_mask
from .rng import substream

GUIDE_TOP_K = 3  # the guide's sampling top-k; `ModelConfig.top_k` counts plan blocks


def _top_k(logits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of [R, vocab] logits: the k kept indices, highest logit first
    with ties toward lower indices, and their logits minus the row's largest."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be [rows, vocab], got {logits.shape}")
    if k < 1 or k > logits.shape[1]:
        raise ParameterError(f"top-k {k} out of range [1, {logits.shape[1]}]")
    kept = np.argsort(-logits, axis=1, kind="stable")[:, :k]
    top = np.take_along_axis(logits, kept, axis=1)
    return kept, top - top[:, :1]


def topk_sample(logits: np.ndarray, k: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Sample each row of [C, vocab] logits proportionally to softmax over
    its k highest logits, drawing one uniform from that row's own
    generator `rngs[c]`; return the C choices and their log-probabilities
    under the top-k distribution.

    Ties at the k-th logit are resolved toward lower indices; probability
    outside the kept set is exactly zero.
    """
    kept, shifted = _top_k(logits, k)
    if len(rngs) != kept.shape[0]:
        raise ShapeError(f"{len(rngs)} generators for {kept.shape[0]} rows of logits")
    probs = np.exp(shifted)
    total = probs.sum(axis=1, keepdims=True)
    probs /= total
    u = np.array([rng.random() for rng in rngs])
    # the first index whose cumulative probability exceeds u
    pick = np.minimum((np.cumsum(probs, axis=1) <= u[:, None]).sum(axis=1), k - 1)
    rows = np.arange(kept.shape[0])
    return kept[rows, pick], shifted[rows, pick] - np.log(total[:, 0])


def topk_logprob(logits: np.ndarray, k: int, index) -> np.ndarray:
    """Log-probability of `index[r]` under row r's normalized top-k
    distribution, for each row of [R, vocab] logits."""
    kept, shifted = _top_k(logits, k)
    hit = kept == np.asarray(index)[:, None]
    if not hit.any(axis=1).all():
        raise ValidationError(f"an index is not inside its row's top-{k} set")
    logz = np.log(np.exp(shifted).sum(axis=1))
    return shifted[hit] - logz


@dataclass
class EditRequest:
    """One edit: pre-mask token grids, edited semantic grids, and masks at
    both resolutions (high drives the output, low drives the guiding pass)."""

    tokens: TokenGrid
    semantic: TokenGrid
    mask: np.ndarray
    tokens_low: TokenGrid
    semantic_low: TokenGrid
    mask_low: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.mask_low = np.asarray(self.mask_low, dtype=bool)
        for grid, m, tag in ((self.tokens, self.mask, "high"), (self.tokens_low, self.mask_low, "low")):
            if grid.tokens.shape != m.shape:
                raise ShapeError(f"{tag} mask shape {m.shape} != grid {grid.tokens.shape}")
        for sem in (self.semantic, self.semantic_low):
            if sem.masked_positions().any():
                raise ValidationError("semantic grids may not contain MASK")


def _forced_decode(
    enc_out: mdl.EncoderOutput,
    tokens: TokenGrid,
    mask: np.ndarray,
    weights: mdl.ModelWeights,
    plans: mdl.PlanBundle,
    top_k: int,
    rngs: list,
) -> tuple[np.ndarray, np.ndarray, mdl.IncrementalDecoder]:
    """Decode one candidate per generator in `rngs`, all as one batch;
    return their [C, L] token sequences, [C] log-probabilities and the
    decoder, which holds the rows up to the last masked position.

    Positions decode row-major: originals are forced at unmasked positions,
    masked positions are sampled with top-k and accumulate their log-probs.
    `enc_out` is the encoder pass over the masked grid. The rows up to and
    including the first masked position run once, for one candidate, and
    the decoder then branches into all of them, if there are more.
    """
    cfg = weights.config
    if top_k < 1:
        raise ParameterError(f"top-k must be >= 1, got {top_k}")
    k_eff = min(top_k, cfg.vocab)
    seqs = np.tile(tokens.flat(), (len(rngs), 1))
    logprobs = np.zeros(len(rngs))
    positions = np.flatnonzero(np.asarray(mask, dtype=bool).ravel())
    dec = mdl.IncrementalDecoder(enc_out, weights, plans)
    if positions.size:
        first = dec.extend(np.concatenate([[cfg.start_token], seqs[0, : positions[0]]])[None])
        if len(rngs) > 1:
            dec = dec.branch(len(rngs))
        rows = np.repeat(first, len(rngs), axis=0)
        for pos in positions:
            # row pos reads token pos - 1; the shared rows already hold row positions[0]
            if dec.n <= pos:
                rows = dec.extend(seqs[:, dec.n - 1 : pos])
            if not np.all(np.isfinite(rows)):
                raise NumericalError(f"non-finite logits at decoding position {pos}")
            seqs[:, pos], logprob = topk_sample(rows, k_eff, rngs)
            logprobs += logprob
    return seqs, logprobs, dec


def plans_from_maps(enc: list, dec_self: list, dec_cross: list, config: mdl.ModelConfig) -> mdl.PlanBundle:
    """Pool every attention map (per role, one [H, L, L] entry per layer)
    into block affinities and select neighborhood+top-K plans, per role,
    layer, and head, a layer's heads together. The bundle keeps the lower
    triangle of each decoder self-attention plan."""

    def role_plans(maps: list, layers: int) -> list:
        return [
            sga.select_plans(sga.block_affinity(maps[layer], config.blocks), config.top_k, config.radius)
            for layer in range(layers)
        ]

    return mdl.PlanBundle(
        enc=role_plans(enc, config.layers_enc),
        dec_self=role_plans(dec_self, config.layers_dec),
        dec_cross=role_plans(dec_cross, config.layers_dec),
    )


@dataclass
class GuidePlanResult:
    completion_low: TokenGrid
    plans: mdl.PlanBundle
    logprob_low: float


def guide_and_plan(
    request: EditRequest,
    guiding_weights: mdl.ModelWeights,
    config: mdl.ModelConfig,
    seed: int = 0,
) -> GuidePlanResult:
    """Run the low-resolution edit densely and turn its attention into plans.

    One dense decode samples the completion; extended past the last masked
    position to all L rows, its decoder holds every layer's full causal
    maps, which by the causal mask are a forced pass's over the completion.
    Those maps and the dense encoder pass's are each pooled into a
    block-affinity matrix and converted to a neighborhood+top-K plan. The
    guide samples with top-k `GUIDE_TOP_K`; `config.top_k` and
    `config.radius` only shape the plans.
    """
    dense = mdl.PlanBundle.dense(guiding_weights.config)
    masked = apply_mask(request.tokens_low, request.mask_low)
    enc = mdl.encoder_forward(masked, request.semantic_low, guiding_weights, dense)
    seqs, logprobs, dec = _forced_decode(
        enc, request.tokens_low, request.mask_low, guiding_weights, dense, GUIDE_TOP_K,
        [substream(seed, "guide-sample")],
    )
    if dec.n < guiding_weights.length:  # the rows after the last masked position
        dec.extend(np.concatenate([[guiding_weights.config.start_token], seqs[0, :-1]])[None, dec.n :])
    completion = TokenGrid(seqs[0].reshape(request.tokens_low.tokens.shape), request.tokens_low.vocab)
    plans = plans_from_maps(enc.attn, dec.self_maps, dec.cross_maps, config)
    return GuidePlanResult(completion, plans, float(logprobs[0]))


def autoregressive_edit(
    request: EditRequest,
    sga_weights: mdl.ModelWeights,
    plans: mdl.PlanBundle,
    top_k: int = 100,
    n_samples: int = 50,
    n_keep: int = 10,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample n_samples completions as one batch, rank by joint log-prob,
    keep n_keep: their int64 tokens `[n_keep, h, w]` and log-probs
    `[n_keep]`, highest first, ties in generation order."""
    if n_samples < 1 or n_keep < 1:
        raise ParameterError("n_samples and n_keep must be >= 1")

    enc_out = mdl.encoder_forward(apply_mask(request.tokens, request.mask), request.semantic, sga_weights, plans)
    rngs = [substream(seed, f"candidate-{i}") for i in range(n_samples)]
    seqs, logprobs, _ = _forced_decode(enc_out, request.tokens, request.mask, sga_weights, plans, top_k, rngs)

    unmasked = ~np.asarray(request.mask, dtype=bool).ravel()
    if np.any(seqs[:, unmasked] != request.tokens.flat()[unmasked]):
        raise ValidationError("candidate modified an unmasked token")
    if np.any(seqs == request.tokens.vocab):
        raise ValidationError("completed candidate still contains MASK")
    if not np.all(np.isfinite(logprobs)):
        raise ValidationError("candidate log-probability not finite")
    order = np.argsort(-logprobs, kind="stable")[:n_keep]
    return seqs[order].reshape((-1,) + request.tokens.tokens.shape), logprobs[order]


def rescore(
    request: EditRequest,
    sga_weights: mdl.ModelWeights,
    plans: mdl.PlanBundle,
    candidate: TokenGrid,
    top_k: int = 100,
) -> float:
    """Recompute a candidate's joint log-prob with one full forced pass."""
    k_eff = min(top_k, sga_weights.config.vocab)
    seq = candidate.flat()
    enc_in = apply_mask(request.tokens, request.mask)
    rows = mdl.forward(enc_in, request.semantic, sga_weights, plans, seq).logits
    positions = np.flatnonzero(np.asarray(request.mask, dtype=bool).ravel())
    return float(topk_logprob(rows[positions], k_eff, seq[positions]).sum())
