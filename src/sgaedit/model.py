"""Encoder-decoder transformer over token grids, in two instantiations.

The guiding model and the high-resolution model have the identical
architecture and differ only in the `PlanBundle` they run (one plan per
layer and head for encoder self, decoder self, and decoder cross
attention). Dense attention is the plan that keeps every block: the
guide runs `PlanBundle.dense`, whose one-block full plan makes the
kernel's softmax weights the full attention maps; the high-resolution
model runs guided N-block plans. Every attention call, in training and
inference alike, is one `tape.block_attention` call covering every head
of a layer, over the contiguous blocks its plans' block count names. With
full-kept plans the two agree to float tolerance.

Forward code is written against the tape ops, so passing weights
wrapped in tape Tensors yields a differentiable graph while plain arrays
give the inference path. `forward` is the one teacher-forced pass, for
training, evaluation and rescoring alike, and prepends START to its
decoder input (`sampler`'s incremental decode prepends it to the shared
prefix); `encoder_forward` is the one encoder pass over a masked grid,
and `guiding_forward` is `forward` under `PlanBundle.dense`.

The decoder is written once, as `IncrementalDecoder`, over a batch of
candidates: it holds the decoder PEG rows, the cross-attention
keys/values shared by every candidate and a growing self-attention
key/value cache per candidate, and runs the rows of each `extend`, for
all candidates at once, through the block kernel. `decoder_forward`, the
teacher-forced decoder pass, is one such decoder run over the whole
sequence at once and returns every row's logits; autoregressive inference
extends it run by run and reads only each run's last row, so a decoder
that records no maps stops every other row at the last layer's
self-attention keys and values. One dense candidate collects its
attention maps either way, and so runs every row through every layer.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import sga
from . import tape as T
from .errors import ConfigError, ShapeError, ValidationError
from .numerics import read_sgat, write_sgat
from .quantizer import TokenGrid


def check_int(key: str, value, low=None) -> None:
    """Raise ConfigError naming `key` unless `value` is an int, not a bool, and >= `low`."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and (low is None or value >= low)):
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(f"{key} must be an int{bound}, got {value!r}")


def check_grid(key: str, grid) -> tuple:
    """`grid` as a (height, width) tuple of ints >= 1, else ConfigError naming `key`."""
    if not (isinstance(grid, (tuple, list)) and len(grid) == 2):
        raise ConfigError(f"{key} must be a [height, width] pair, got {grid!r}")
    for side in grid:
        check_int(key, side, 1)
    return tuple(int(v) for v in grid)


@dataclass(frozen=True)
class ModelConfig:
    d: int = 64
    layers_enc: int = 2
    layers_dec: int = 1
    heads: int = 4
    vocab: int = 16
    vocab_map: int = 4
    grid_high: tuple = (8, 8)
    grid_low: tuple = (4, 4)
    blocks: int = 8
    top_k: int = 3
    radius: int = 1
    ffw: int = 256

    def __post_init__(self):
        for name in ("grid_high", "grid_low"):
            object.__setattr__(self, name, check_grid(name, getattr(self, name)))
        lows = {"d": 1, "heads": 1, "blocks": 1, "ffw": 1, "vocab": 2, "vocab_map": 2}
        lows |= {"layers_enc": 0, "layers_dec": 0, "top_k": 0, "radius": 0}
        for name, low in lows.items():
            check_int(name, getattr(self, name), low)
        if self.d % self.heads != 0:
            raise ConfigError(f"heads {self.heads} must divide width {self.d}")
        if self.l_high % self.blocks != 0 or self.l_low % self.blocks != 0:
            raise ConfigError(f"blocks {self.blocks} must divide both sequence lengths")

    @property
    def l_high(self) -> int:
        return self.grid_high[0] * self.grid_high[1]

    @property
    def l_low(self) -> int:
        return self.grid_low[0] * self.grid_low[1]

    @property
    def start_token(self) -> int:
        return self.vocab + 1


@dataclass
class ModelWeights:
    """All parameters of one transformer instance at one grid resolution."""

    config: ModelConfig
    grid: tuple
    params: dict

    @property
    def length(self) -> int:
        return self.grid[0] * self.grid[1]


def parameter_shapes(config: ModelConfig, grid: tuple) -> dict:
    length = grid[0] * grid[1]
    d, ffw = config.d, config.ffw
    shapes = {
        "enc_tok_emb": (config.vocab + 1, d),  # codebook entries + MASK
        "enc_map_emb": (config.vocab_map, d),
        "enc_pos": (length, d),
        "dec_tok_emb": (config.vocab + 2, d),  # + MASK + START
        "dec_pos": (length, d),
        "dec_peg": (5, 5, d),
        "out_head": (d, config.vocab),
    }
    for i in range(config.layers_enc):
        shapes[f"enc{i}_peg"] = (5, 5, d)
        for name in ("wq", "wk", "wv", "wo"):
            shapes[f"enc{i}_{name}"] = (d, d)
        for name in ("ln1_g", "ln1_b", "ln2_g", "ln2_b"):
            shapes[f"enc{i}_{name}"] = (d,)
        shapes[f"enc{i}_ff1"] = (d, ffw)
        shapes[f"enc{i}_ff1_b"] = (ffw,)
        shapes[f"enc{i}_ff2"] = (ffw, d)
        shapes[f"enc{i}_ff2_b"] = (d,)
    for i in range(config.layers_dec):
        for kind in ("self", "cross"):
            for name in ("wq", "wk", "wv", "wo"):
                shapes[f"dec{i}_{kind}_{name}"] = (d, d)
        for name in ("ln1_g", "ln1_b", "ln2_g", "ln2_b", "ln3_g", "ln3_b"):
            shapes[f"dec{i}_{name}"] = (d,)
        shapes[f"dec{i}_ff1"] = (d, ffw)
        shapes[f"dec{i}_ff1_b"] = (ffw,)
        shapes[f"dec{i}_ff2"] = (ffw, d)
        shapes[f"dec{i}_ff2_b"] = (d,)
    return shapes


def init_weights(config: ModelConfig, grid: tuple, rng) -> ModelWeights:
    """Random init: N(0, 0.1) embeddings, fan-in-scaled projections, identity
    layer norms, zero PEG kernels (the residual makes them start as no-ops)."""
    params = {}
    for name, shape in parameter_shapes(config, grid).items():
        if name.endswith("_g"):
            params[name] = np.ones(shape)
        elif name.endswith("_b") or "peg" in name:
            params[name] = np.zeros(shape)
        elif "emb" in name or "pos" in name:
            params[name] = rng.normal(scale=0.1, size=shape)
        else:
            params[name] = rng.normal(scale=1.0 / np.sqrt(shape[0]), size=shape)
    return ModelWeights(config, tuple(grid), params)


@dataclass
class PlanBundle:
    """Per-role sparsity plans, each role a [layer][head] list of SparsityPlan.

    Decoder self-attention is causal, so on construction every `dec_self`
    plan, whatever made it, is replaced by its lower triangle. Dense
    attention is not a special case: `dense` keeps every block of a
    one-block partition for every (role, layer, head).
    """

    enc: list
    dec_self: list
    dec_cross: list

    def __post_init__(self):
        self.dec_self = [[sga.SparsityPlan(np.tril(p.keep)) for p in layer] for layer in self.dec_self]

    @staticmethod
    def dense(config: ModelConfig) -> "PlanBundle":
        """Dense attention for every head: the one-block plan that keeps its block."""
        full = sga.SparsityPlan(np.ones((1, 1), bool))
        return PlanBundle.uniform(config, lambda role, layer, head: full)

    @staticmethod
    def uniform(config: ModelConfig, plan_fn) -> "PlanBundle":
        """Same-plan-per-(layer, head) bundle from plan_fn(role, layer, head)."""
        return PlanBundle(
            enc=[[plan_fn("enc", i, h) for h in range(config.heads)] for i in range(config.layers_enc)],
            dec_self=[[plan_fn("dec_self", i, h) for h in range(config.heads)] for i in range(config.layers_dec)],
            dec_cross=[[plan_fn("dec_cross", i, h) for h in range(config.heads)] for i in range(config.layers_dec)],
        )

    def mean_sparsity(self) -> dict:
        out = {}
        for name, role in (("enc", self.enc), ("dec_self", self.dec_self), ("dec_cross", self.dec_cross)):
            # the share of the block grid each plan keeps
            ratios = [p.kept_count() / p.n_blocks**2 for layer in role for p in layer]
            out[name] = float(np.mean(ratios)) if ratios else 1.0
        return out


@dataclass
class EncoderOutput:
    context: object  # L x d array or Tensor
    # attn[layer]: under one-block (dense) plans, one read-only H x L x L
    # view of the kernel weights, whose attn[layer][head] is an L x L
    # row-stochastic map; None under multi-block plans
    attn: list


def _check_tokens(grid: TokenGrid, limit: int, what: str) -> np.ndarray:
    flat = grid.flat()
    if flat.min() < 0 or flat.max() >= limit:
        raise ValidationError(f"{what} token outside embedding table (limit {limit})")
    return flat


def embed_encoder(x: TokenGrid, p: TokenGrid, weights: ModelWeights):
    """Sum of token, semantic, and positional embeddings, row-major order."""
    if x.tokens.shape != p.tokens.shape:
        raise ShapeError(f"image grid {x.tokens.shape} != semantic grid {p.tokens.shape}")
    if x.tokens.shape != weights.grid:
        raise ShapeError(f"grid {x.tokens.shape} does not match model grid {weights.grid}")
    xf = _check_tokens(x, weights.config.vocab + 1, "image")
    pf = _check_tokens(p, weights.config.vocab_map, "semantic")
    w = weights.params
    rows = T.add(T.gather_rows(w["enc_tok_emb"], xf), T.gather_rows(w["enc_map_emb"], pf))
    return T.add(rows, T.gather_rows(w["enc_pos"], np.arange(xf.size)))


def _peg_rows(rows, kernel, grid):
    """Apply the residual depth-wise conv to row-major rows of a token grid."""
    h, w = grid
    d = T.value_of(rows).shape[1]
    return T.reshape(T.peg(T.reshape(rows, (h, w, d)), kernel), (h * w, d))


def _feed_forward(x, weights: ModelWeights, prefix: str):
    w = weights.params
    hidden = T.gelu(T.add_bias(T.matmul(x, w[f"{prefix}_ff1"]), w[f"{prefix}_ff1_b"]))
    return T.add_bias(T.matmul(hidden, w[f"{prefix}_ff2"]), w[f"{prefix}_ff2_b"])


def encoder_forward(x: TokenGrid, p: TokenGrid, weights: ModelWeights, plans: PlanBundle) -> EncoderOutput:
    """The encoder pass over a (masked) token grid `x` and its semantic grid
    `p`: `embed_encoder`, then PEG -> self-attention -> add & norm ->
    feed-forward -> add & norm, per layer."""
    cfg = weights.config
    h = embed_encoder(x, p, weights)
    all_maps = []
    w = weights.params
    for i in range(cfg.layers_enc):
        p = f"enc{i}"
        h = _peg_rows(h, w[f"{p}_peg"], weights.grid)
        q, k, v = (T.matmul(h, w[f"{p}_{name}"]) for name in ("wq", "wk", "wv"))
        attn = sga.sparse_attention(q, k, v, plans.enc[i])
        h = T.layer_norm(T.add(h, T.matmul(attn.output, w[f"{p}_wo"])), w[f"{p}_ln1_g"], w[f"{p}_ln1_b"])
        h = T.layer_norm(T.add(h, _feed_forward(h, weights, p)), w[f"{p}_ln2_g"], w[f"{p}_ln2_b"])
        all_maps.append(attn.weights[:, 0] if attn.weights.shape[1] == 1 else None)
    return EncoderOutput(context=h, attn=all_maps)


def _check_decoder_input(prev: np.ndarray, start: int, weights: ModelWeights) -> None:
    """Validate the [C, m] decoder input tokens of rows [start, start + m) of C sequences."""
    cfg = weights.config
    m = prev.shape[1]
    if m < 1 or start + m > weights.length:
        raise ValidationError(f"decoder prefix length {start + m} invalid (max {weights.length})")
    if start == 0 and np.any(prev[:, 0] != cfg.start_token):
        raise ValidationError("decoder input must begin with START")
    if np.any(prev[:, 1 if start == 0 else 0 :] == cfg.start_token):
        raise ValidationError("START appears after position 0")
    if prev.min() < 0 or prev.max() > cfg.start_token:
        raise ValidationError("decoder token outside embedding table")


def decoder_forward(prev_tokens, encoder_out: EncoderOutput, weights: ModelWeights, plans: PlanBundle):
    """Causal decoder over the whole START-prepended sequence (L tokens)
    with cross attention, under the decoder roles of `plans`: one
    `IncrementalDecoder` extended by all L rows at once.

    Returns (logits L x vocab, self_maps, cross_maps). Row l of the
    logits depends only on prev_tokens[0..l] and the encoder output.
    """
    prev = np.asarray(prev_tokens, dtype=np.int64)
    if prev.shape != (weights.length,):
        raise ValidationError(f"decoder input of shape {prev.shape} is not the {weights.length}-token sequence")
    dec = IncrementalDecoder(encoder_out, weights, plans)
    return dec._decode(prev[None], every_row=True), dec.self_maps, dec.cross_maps


class IncrementalDecoder:
    """The decoder, over a batch of C candidates that share the encoder
    output: teacher-forced over the whole sequence at once, or row by row.

    Built once from an encoder output, the weights and the plan bundle
    (its decoder roles; `PlanBundle.dense` gives one-block indices whose
    query block is the whole sequence), for one candidate. `branch(C)`
    gives a decoder of C candidates that all continue from its rows.
    `extend(prev_rows)` takes a [C, m] block of input tokens, appends
    decoder rows [n, n + m) to every candidate and returns the [C, vocab]
    logits of the last of them, row n + m - 1; by the causal mask, that
    row and the cache equal those of one call over the whole sequence, to
    float rounding, however the sequence is split. Later rows read the
    earlier ones only through each layer's self-attention keys and values,
    so a decoder that records no maps (multi-block plans, or a branched
    batch) runs every layer but the last over all m rows, and the last
    layer's keys and values over all m, but its queries, attention,
    feed-forward and `out_head` over row n + m - 1 alone. A decoder that
    records maps runs every row in full, since each row's weights go into
    the maps. `decoder_forward` runs all L rows and returns every row's
    logits; that call takes its self-attention keys from its own rows,
    writes no cache and accepts tape Tensors; other calls take plain
    arrays.

    `self_maps` and `cross_maps` hold one entry per layer, as
    `EncoderOutput.attn`: for one candidate under one-block (dense) plans
    an H x L x L array, into which every call writes its rows' softmax
    weights, read-only once all L rows are in; None under multi-block
    plans and in a branched batch.

    Inside `extend` the rows are ordered (row, candidate). Attention runs
    `tape.block_attention` once per (layer, role) over one
    `sga.block_index` built here, for the query blocks the new rows fall
    in. Self-attention puts the candidates on the kernel's head axis: each
    candidate's key/value cache is its own d columns of an [L, C * d]
    table, and the index is tiled C times; the kernel's causal mask, from
    the token of the first query row, hides the cache rows not yet
    written. Cross-attention keys are the same for every candidate, so
    there the candidates are extra query rows of one [L, d] key table.
    Embeddings, layer norm and the feed-forward act row by row, so the
    cache is exact, not an approximation.
    """

    def __init__(self, encoder_out: EncoderOutput, weights: ModelWeights, plans: PlanBundle):
        cfg = weights.config
        w = weights.params
        context = encoder_out.context
        self.weights = weights
        self.n = 0
        self.candidates = 1
        self._peg = _peg_rows(context, w["dec_peg"], weights.grid)
        self._cross_kv = [
            (T.matmul(context, w[f"dec{i}_cross_wk"]), T.matmul(context, w[f"dec{i}_cross_wv"]))
            for i in range(cfg.layers_dec)
        ]
        self._self_index = [sga.block_index(layer_plans, weights.length) for layer_plans in plans.dec_self]
        self._cross_index = [sga.block_index(layer_plans, weights.length) for layer_plans in plans.dec_cross]
        self.self_maps, self.cross_maps = (
            [np.zeros((cfg.heads, weights.length, weights.length)) if keys.shape[1] == 1 else None for keys in index]
            for index in (self._self_index, self._cross_index)
        )
        # per layer, the self-attention keys and values: [L, C, d], candidate c in [:, c];
        # made by the first call that is not over the whole sequence
        self._k, self._v = [], []

    def branch(self, candidates: int) -> "IncrementalDecoder":
        """A decoder of `candidates` (at least 2) candidates, each starting
        from this single-candidate decoder's rows; it records no maps, and
        this decoder is left unchanged."""
        if self.candidates != 1 or candidates < 2:
            raise ShapeError(f"cannot branch {self.candidates} candidates into {candidates}")
        other = copy.copy(self)
        other.candidates = candidates
        other.self_maps, other.cross_maps = [None] * len(self.self_maps), [None] * len(self.cross_maps)
        other._k = [np.repeat(buf, candidates, axis=1) for buf in self._k]
        other._v = [np.repeat(buf, candidates, axis=1) for buf in self._v]
        return other

    def extend(self, prev_rows) -> np.ndarray:
        """Append rows [n, n + m) of a [C, m] block of input tokens to every
        candidate; return the [C, vocab] logits of the block's last row."""
        every_row = any(maps is not None for maps in self.self_maps + self.cross_maps)
        return self._decode(prev_rows, every_row)[-self.candidates :]

    def _decode(self, prev_rows, every_row: bool):
        """Run rows [n, n + m) and return logits [rows * C, vocab] ordered
        (row, candidate): every row's, or only the last row's when
        `every_row` is false, whose last layer then runs its query side for
        that row alone."""
        prev = np.asarray(prev_rows, dtype=np.int64)
        c = self.candidates
        if prev.ndim != 2 or prev.shape[0] != c:
            raise ValidationError(f"decoder input of shape {prev.shape} is not [{c}, rows]")
        _check_decoder_input(prev, self.n, self.weights)
        w = self.weights.params
        cfg = self.weights.config
        m, d = prev.shape[1], cfg.d
        whole = m == self.weights.length
        new = slice(self.n, self.n + m)
        if not (whole or self._k):
            self._k = [np.zeros((self.weights.length, c, d)) for _ in range(cfg.layers_dec)]
            self._v = [np.zeros((self.weights.length, c, d)) for _ in range(cfg.layers_dec)]
        rows = np.repeat(np.arange(new.start, new.stop), c)
        h = T.add(T.gather_rows(w["dec_tok_emb"], prev.T.ravel()), T.gather_rows(w["dec_pos"], rows))
        h = T.add(h, T.gather_rows(self._peg, rows))
        for i in range(cfg.layers_dec):
            p = f"dec{i}"
            # later rows read only this layer's keys and values, so the last
            # layer's query side can stop at the one row returned
            x = h if every_row or i < cfg.layers_dec - 1 else h[-c:]
            r = T.value_of(x).shape[0] // c
            # q first: the tape sums h's gradient in reverse recording order
            q, k, v = T.matmul(x, w[f"{p}_self_wq"]), T.matmul(h, w[f"{p}_self_wk"]), T.matmul(h, w[f"{p}_self_wv"])
            if whole:
                k, v = T.reshape(k, (m, c * d)), T.reshape(v, (m, c * d))
            else:
                self._k[i][new] = k.reshape(m, c, d)
                self._v[i][new] = v.reshape(m, c, d)
                k, v = (buf.reshape(-1, c * d) for buf in (self._k[i], self._v[i]))
            first = new.stop - r
            q = T.reshape(q, (r, c * d))
            a = self._attention(q, k, v, self._self_index[i], self.self_maps[i], first, causal=True)
            a = T.matmul(T.reshape(a, (r * c, d)), w[f"{p}_self_wo"])
            h = T.layer_norm(T.add(x, a), w[f"{p}_ln1_g"], w[f"{p}_ln1_b"])
            q = T.matmul(h, w[f"{p}_cross_wq"])
            a = self._attention(q, *self._cross_kv[i], self._cross_index[i], self.cross_maps[i], first, causal=False)
            h = T.layer_norm(T.add(h, T.matmul(a, w[f"{p}_cross_wo"])), w[f"{p}_ln2_g"], w[f"{p}_ln2_b"])
            h = T.layer_norm(T.add(h, _feed_forward(h, self.weights, p)), w[f"{p}_ln3_g"], w[f"{p}_ln3_b"])
        self.n = new.stop
        return T.matmul(h, w["out_head"])

    def _attention(self, q, k, v, keys: np.ndarray, maps: Optional[np.ndarray], first: int, causal: bool):
        """One kernel call for the query rows [first, first + m) over the index
        `keys`, which writes its softmax weights into those rows of the
        layer's `maps` when there are maps. Causal self-attention tiles the
        index once per candidate, and passes the kernel the token of q's
        first row, padded or not; cross-attention has each query row once
        per candidate.

        Query block b holds tokens [b * bs, (b + 1) * bs). A run inside one
        block passes exactly its rows; a run across blocks is padded with
        zero query rows to whole blocks, and its rows are sliced back out
        (a run of whole blocks needs neither).
        """
        heads, rows = (self.candidates, 1) if causal else (1, self.candidates)
        stop = first + T.value_of(q).shape[0] // rows
        bs = self.weights.length // keys.shape[1]
        blocks = slice(first // bs, (stop - 1) // bs + 1)
        pad = (first - blocks.start * bs, blocks.stop * bs - stop) if blocks.stop - blocks.start > 1 else (0, 0)
        if any(pad):
            q = np.pad(q, ((pad[0] * rows, pad[1] * rows), (0, 0)))
        keys = np.tile(keys[:, blocks], (heads, 1, 1))
        # maps mean one unpadded query block: the kernel's [H, 1, m, L] weights are their rows
        weights = None if maps is None else maps[:, None, first:stop]
        out = T.block_attention(q, k, v, keys, first - pad[0] if causal else None, weights)
        if maps is not None and stop == self.weights.length:
            maps.flags.writeable = False
        if any(pad):
            out = out[pad[0] * rows : (pad[0] + stop - first) * rows]
        return out


@dataclass
class ForwardResult:
    logits: object  # L x vocab array or Tensor
    encoder: EncoderOutput
    dec_self_attn: list
    dec_cross_attn: list


def forward(
    x: TokenGrid,
    p: TokenGrid,
    weights: ModelWeights,
    plans: PlanBundle,
    decoder_tokens,
) -> ForwardResult:
    """The teacher-forced pass: `encoder_forward(x, p)`, then the decoder
    forced over the L-token sequence `decoder_tokens` shifted right behind
    START, so logits row l predicts decoder_tokens[l] from the tokens
    before it."""
    enc = encoder_forward(x, p, weights, plans)
    seq = np.asarray(decoder_tokens, dtype=np.int64)
    if seq.shape != (weights.length,):
        raise ValidationError(f"decoder tokens of shape {seq.shape} are not the {weights.length}-token sequence")
    prev = np.concatenate([[weights.config.start_token], seq[:-1]])
    logits, self_maps, cross_maps = decoder_forward(prev, enc, weights, plans)
    return ForwardResult(logits=logits, encoder=enc, dec_self_attn=self_maps, dec_cross_attn=cross_maps)


def guiding_forward(x: TokenGrid, p: TokenGrid, weights: ModelWeights, decoder_tokens: np.ndarray) -> ForwardResult:
    """`forward` under `PlanBundle.dense`, exposing every attention map."""
    return forward(x, p, weights, PlanBundle.dense(weights.config), decoder_tokens)


# ---------------------------------------------------------------------------
# resolution transfer
# ---------------------------------------------------------------------------


def bilinear_resize_table(table: np.ndarray, grid_src: tuple, grid_dst: tuple) -> np.ndarray:
    """Resize a positional table arranged on grid_src to grid_dst (align corners)."""
    hs, ws = grid_src
    hd, wd = grid_dst
    table = np.asarray(table, dtype=np.float64)
    if table.shape[0] != hs * ws:
        raise ShapeError(f"table rows {table.shape[0]} != grid {grid_src}")
    if (hs, ws) == (hd, wd):
        return table.copy()
    src = table.reshape(hs, ws, -1)
    ys = np.zeros(hd) if hd == 1 else np.arange(hd) * (hs - 1) / (hd - 1)
    xs = np.zeros(wd) if wd == 1 else np.arange(wd) * (ws - 1) / (wd - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, hs - 1)
    x1 = np.minimum(x0 + 1, ws - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    out = (
        src[np.ix_(y0, x0)] * (1 - wy) * (1 - wx)
        + src[np.ix_(y0, x1)] * (1 - wy) * wx
        + src[np.ix_(y1, x0)] * wy * (1 - wx)
        + src[np.ix_(y1, x1)] * wy * wx
    )
    return out.reshape(hd * wd, table.shape[1])


def init_from_guiding(weights_low: ModelWeights, grid: Optional[tuple] = None) -> ModelWeights:
    """Start a model of the same config at `grid` (default: the config's
    `grid_high`) from trained low-resolution weights.

    Every shared-shape parameter is copied; the two positional tables are
    extended by bilinear interpolation over their token-grid arrangement.
    """
    config = weights_low.config
    target = tuple(grid) if grid is not None else config.grid_high
    params = {}
    for name, value in weights_low.params.items():
        arr = np.array(T.value_of(value))
        if name in ("enc_pos", "dec_pos"):
            params[name] = bilinear_resize_table(arr, weights_low.grid, target)
        else:
            params[name] = arr.copy()
    return ModelWeights(config, target, params)


# ---------------------------------------------------------------------------
# checkpoints: directory of SGAT tensors + JSON manifest
# ---------------------------------------------------------------------------


def save_checkpoint(directory, weights: ModelWeights) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"config": dataclasses.asdict(weights.config), "grid": list(weights.grid)}
    for name in sorted(weights.params):
        write_sgat(directory / f"{name}.sgat", T.value_of(weights.params[name]))
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def load_checkpoint(directory) -> ModelWeights:
    """Read a checkpoint directory: config and grid from `manifest.json` (an
    older manifest's `params` map is ignored), each parameter from `{name}.sgat`.
    A malformed manifest or a misshaped parameter raises ConfigError; a
    malformed tensor file raises ValidationError (from `read_sgat`)."""
    directory = Path(directory)
    text = (directory / "manifest.json").read_bytes()
    try:
        manifest = json.loads(text)
        config = ModelConfig(**manifest["config"])
        grid = check_grid("grid", manifest["grid"])
    except (ValueError, TypeError, KeyError, AttributeError, ConfigError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError; ConfigError an invalid config
        raise ConfigError(f"{directory / 'manifest.json'}: malformed manifest ({type(exc).__name__}: {exc})") from exc
    params = {}
    # sorted, as manifests listed the files: `evalbench.train` sums the gradient norm in this order
    for name, shape in sorted(parameter_shapes(config, grid).items()):
        params[name] = read_sgat(directory / f"{name}.sgat")
        if params[name].shape != shape:
            raise ConfigError(f"checkpoint parameter {name} misshaped")
    return ModelWeights(config, grid, params)
