"""Autoregressive editing: forced decoding, top-k sampling, and ranking.

Unmasked positions are forced to the original tokens and contribute no
probability; masked positions are sampled from the top-k truncated softmax
and accumulate log-probability. Candidates are generated from independent
per-candidate random streams, so a worker pool of any size produces the
same set as a sequential run, and are ranked by their summed (joint)
log-probability.

Decoding is incremental (`model.IncrementalDecoder`). The encoder pass
(`model.encode`) and the forced prefix, every row up to the first masked
position, are the same for all candidates, so they run once per call,
before any worker starts.
Each candidate forks that shared state and extends only the forced runs
between masked positions plus one row per sampled token. Each such run is
one call per layer and role of the block-gather kernel that also serves
training and the full pass. `rescore` keeps the full teacher-forced
`model.forward` pass as the reference.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import model as mdl
from . import sga
from .errors import NumericalError, ParameterError, ShapeError, ValidationError
from .quantizer import TokenGrid, apply_mask
from .rng import substream


def topk_sample(logits: np.ndarray, k: int, rng) -> int:
    """Sample proportionally to softmax over the k highest logits.

    Ties at the k-th logit are resolved toward lower indices; probability
    outside the kept set is exactly zero.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ShapeError(f"logits must be 1D, got {logits.shape}")
    if k < 1 or k > logits.size:
        raise ParameterError(f"top-k {k} out of range [1, {logits.size}]")
    kept = np.lexsort((np.arange(logits.size), -logits))[:k]
    shifted = logits[kept] - logits[kept].max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    u = rng.random()
    pick = int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, k - 1))
    return int(kept[pick])


def topk_logprob(logits: np.ndarray, k: int, index: int) -> float:
    """Log-probability of `index` under the normalized top-k distribution."""
    logits = np.asarray(logits, dtype=np.float64)
    kept = np.lexsort((np.arange(logits.size), -logits))[:k]
    where = np.nonzero(kept == index)[0]
    if where.size == 0:
        raise ValidationError(f"index {index} not inside the top-{k} set")
    shifted = logits[kept] - logits[kept].max()
    logz = float(np.log(np.exp(shifted).sum()))
    return float(shifted[where[0]] - logz)


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


@dataclass
class Candidate:
    tokens: TokenGrid
    logprob: float
    rank: int = -1


@dataclass
class CandidateSet:
    candidates: list

    def __post_init__(self):
        for c in self.candidates:
            if c.tokens.masked_positions().any():
                raise ValidationError("completed candidate still contains MASK")

    def to_json(self) -> str:
        rows = [
            {"tokens": json.loads(c.tokens.to_json()), "logprob": c.logprob, "rank": c.rank}
            for c in self.candidates
        ]
        return json.dumps(rows, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CandidateSet":
        rows = json.loads(text)
        cands = [
            Candidate(TokenGrid.from_json(json.dumps(r["tokens"])), float(r["logprob"]), int(r["rank"]))
            for r in rows
        ]
        return CandidateSet(cands)


def rank_candidates(cands: CandidateSet) -> CandidateSet:
    """Stable descending sort by log-probability; ties keep generation order."""
    for c in cands.candidates:
        if not np.isfinite(c.logprob):
            raise ValidationError("candidate log-probability not finite")
    ordered = sorted(cands.candidates, key=lambda c: -c.logprob)
    return CandidateSet([Candidate(c.tokens, c.logprob, rank=i) for i, c in enumerate(ordered)])


def _forced_decode(
    enc_out: mdl.EncoderOutput,
    tokens: TokenGrid,
    mask: np.ndarray,
    weights: mdl.ModelWeights,
    plans: mdl.PlanBundle,
    top_k: int,
) -> Callable:
    """Prepare a forced decode; return `decode(rng) -> (TokenGrid, logprob)`.

    Positions decode row-major: originals are forced at unmasked positions,
    masked positions are sampled with top-k and accumulate their log-probs.
    `enc_out` is the encoder pass over the masked grid. The rows up to and
    including the first masked position run here, once; each `decode` call
    forks that state, so calls are independent and may run on concurrent
    threads.
    """
    cfg = weights.config
    if top_k < 1:
        raise ParameterError(f"top-k must be >= 1, got {top_k}")
    k_eff = min(top_k, cfg.vocab)
    original = tokens.flat()
    positions = np.flatnonzero(np.asarray(mask, dtype=bool).ravel())
    shared = mdl.IncrementalDecoder(enc_out, weights, plans)
    first_row = None
    if positions.size:
        first_row = shared.extend(np.concatenate([[cfg.start_token], original[: positions[0]]]))[-1]

    def decode(rng) -> tuple[TokenGrid, float]:
        seq = original.copy()
        logprob = 0.0
        if positions.size:
            state = shared.fork()
            for pos in positions:
                # row pos reads token pos - 1; the shared state already holds row positions[0]
                row = state.extend(seq[state.n - 1 : pos])[-1] if state.n <= pos else first_row
                if not np.all(np.isfinite(row)):
                    raise NumericalError(f"non-finite logits at decoding position {pos}")
                choice = topk_sample(row, k_eff, rng)
                logprob += topk_logprob(row, k_eff, choice)
                seq[pos] = choice
        return TokenGrid(seq.reshape(tokens.tokens.shape), tokens.vocab), float(logprob)

    return decode


def plans_from_maps(forced: mdl.ForwardResult, config: mdl.ModelConfig) -> mdl.PlanBundle:
    """Pool every recorded attention map into block affinities and select
    neighborhood+top-K plans, per role, layer, and head: each layer's heads
    ([H, L, L] maps) are pooled and selected together."""

    def role_plans(maps: list, layers: int) -> list:
        return [
            sga.select_plans(sga.block_affinity(maps[layer], config.blocks), config.top_k, config.radius)
            for layer in range(layers)
        ]

    return mdl.PlanBundle(
        enc=role_plans(forced.encoder.attn, config.layers_enc),
        dec_self=role_plans(forced.dec_self_attn, config.layers_dec),
        dec_cross=role_plans(forced.dec_cross_attn, config.layers_dec),
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

    The decoder maps come from one forced pass over the completed low-res
    sequence, so every map is a full square matrix; each map is pooled into
    a block-affinity matrix and converted to a neighborhood+top-K plan. One
    dense encoder pass, whose maps come with it, serves both the sampling
    and that forced pass. The guide samples with top-k `max(config.top_k, 1)`.
    """
    dense = mdl.PlanBundle.dense(guiding_weights.config)
    enc_in = apply_mask(request.tokens_low, request.mask_low)
    enc = mdl.encode(enc_in, request.semantic_low, guiding_weights, dense)
    decode = _forced_decode(enc, request.tokens_low, request.mask_low, guiding_weights, dense, max(config.top_k, 1))
    completion, logprob = decode(substream(seed, "guide-sample"))
    forced = mdl.guiding_forward(
        enc_in, request.semantic_low, guiding_weights, decoder_tokens=completion.flat(), encoder_out=enc
    )
    return GuidePlanResult(completion_low=completion, plans=plans_from_maps(forced, config), logprob_low=logprob)


def autoregressive_edit(
    request: EditRequest,
    sga_weights: mdl.ModelWeights,
    plans: mdl.PlanBundle,
    top_k: int = 100,
    n_samples: int = 50,
    n_keep: int = 10,
    seed: int = 0,
    workers: int = 1,
) -> CandidateSet:
    """Sample n_samples completions, rank by joint log-prob, keep n_keep."""
    if n_samples < 1 or n_keep < 1:
        raise ParameterError("n_samples and n_keep must be >= 1")

    enc_out = mdl.encode(apply_mask(request.tokens, request.mask), request.semantic, sga_weights, plans)
    decode = _forced_decode(enc_out, request.tokens, request.mask, sga_weights, plans, top_k)

    def one(i: int) -> Candidate:
        tokens, logprob = decode(substream(seed, f"candidate-{i}"))
        return Candidate(tokens=tokens, logprob=logprob)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            cands = list(pool.map(one, range(n_samples)))
    else:
        cands = [one(i) for i in range(n_samples)]

    unmasked = ~np.asarray(request.mask, dtype=bool)
    originals = request.tokens.tokens
    for c in cands:
        if not np.array_equal(c.tokens.tokens[unmasked], originals[unmasked]):
            raise ValidationError("candidate modified an unmasked token")

    ranked = rank_candidates(CandidateSet(cands))
    return CandidateSet(ranked.candidates[:n_keep])


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
    total = 0.0
    for pos in np.flatnonzero(np.asarray(request.mask, dtype=bool).ravel()):
        total += topk_logprob(rows[pos], k_eff, int(seq[pos]))
    return float(total)
