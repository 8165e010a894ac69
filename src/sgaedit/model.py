"""Encoder-decoder transformer over token grids, in two instantiations.

The guiding model and the high-resolution model have the identical
architecture and differ only in the `PlanBundle` they run (one plan per
layer and head for encoder self, decoder self, and decoder cross
attention). Dense attention is the plan that keeps every block: the
guide runs `PlanBundle.dense`, whose one-block full plan makes the
kernel's softmax weights the full attention maps; the high-resolution
model runs guided N-block plans. Every attention call, in training and
inference alike, is one `sga.sparse_attention` op covering every head of
a layer, over the contiguous blocks its plans' block count names. With
full-kept plans the two agree to float tolerance.

Forward code is written against the tape ops, so passing weights
wrapped in tape Tensors yields a differentiable graph while plain arrays
give the inference path. `forward` is the one teacher-forced pass, for
training, evaluation, rescoring and the guide's maps alike, and the only
place START is prepended; `encode` is the one encoder pass over a masked
grid, and `guiding_forward` is `forward` under `PlanBundle.dense`.

Autoregressive inference uses `IncrementalDecoder`, the exact row-by-row
form of `decoder_forward`: it holds the decoder PEG rows, the cross-
attention keys/values and a growing self-attention key/value cache, and
runs the rows of each `extend` through the same block-gather kernel, so
one kernel serves training, full-pass inference and incremental decoding.
`decoder_forward` stays the full-pass reference.
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
from .errors import ConfigError, SequenceError, ShapeError, VocabularyError
from .numerics import read_sgat, write_sgat
from .quantizer import TokenGrid


def check_int(key: str, value, low=None) -> None:
    """Raise ConfigError naming `key` unless `value` is an int, not a bool, and >= `low`."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and (low is None or value >= low)):
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(f"{key} must be an int{bound}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    d: int = 64
    layers_enc: int = 2
    layers_dec: int = 1
    heads: int = 4
    vocab: int = 16
    vocab_map: int = 4
    grid_high: tuple = (16, 16)
    grid_low: tuple = (8, 8)
    blocks: int = 16
    top_k: int = 3
    radius: int = 1
    ffw: int = 256

    def __post_init__(self):
        for name in ("grid_high", "grid_low"):
            grid = getattr(self, name)
            if not (isinstance(grid, (tuple, list)) and len(grid) == 2):
                raise ConfigError(f"{name} must be a [height, width] pair, got {grid!r}")
            for side in grid:
                check_int(name, side, 1)
            object.__setattr__(self, name, tuple(int(v) for v in grid))
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

    Dense attention is not a special case: `dense` keeps every block of a
    one-block partition for every (role, layer, head).
    """

    enc: list
    dec_self: list
    dec_cross: list

    @staticmethod
    def dense(config: ModelConfig) -> "PlanBundle":
        """Dense attention for every head: one shared `sga.full_plan(1)`."""
        one = sga.full_plan(1)
        return PlanBundle.uniform(config, lambda role, layer, head: one)

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
            ratios = [sga.sparsity_ratio(p) for layer in role for p in layer]
            out[name] = float(np.mean(ratios)) if ratios else 1.0
        return out


@dataclass
class EncoderOutput:
    context: object  # L x d array or Tensor
    # attn[layer][head]: L x L row-stochastic array; attn[layer] is one
    # read-only H x L x L view of the kernel weights under one-block
    # (dense) plans, H Nones under multi-block plans
    attn: list


def _check_tokens(grid: TokenGrid, limit: int, what: str) -> np.ndarray:
    flat = grid.flat()
    if flat.min() < 0 or flat.max() >= limit:
        raise VocabularyError(f"{what} token outside embedding table (limit {limit})")
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


def _multi_head(x_q, x_kv, weights: ModelWeights, prefix: str, plans: list, causal: bool):
    """Multi-head attention of one layer; returns (output, per-head maps).

    Every head of the layer runs in one block-gather kernel call over the
    model's sequence in the contiguous blocks of `plans` (one plan per
    head). Under one-block plans (dense attention) the kernel's softmax
    weights are the full attention maps, returned as one read-only
    H x L x L view of them; multi-block plans return None maps.
    """
    w = weights.params
    q_all = T.matmul(x_q, w[f"{prefix}_wq"])
    k_all = T.matmul(x_kv, w[f"{prefix}_wk"])
    v_all = T.matmul(x_kv, w[f"{prefix}_wv"])
    result = sga.sparse_attention(q_all, k_all, v_all, plans, weights.length, causal=causal)
    maps = [None] * len(plans)
    if plans[0].n_blocks == 1:
        maps = result.weights[:, 0]  # one block: rows and keys are tokens 0, 1, ...
    return T.matmul(result.output, w[f"{prefix}_wo"]), maps


def _feed_forward(x, weights: ModelWeights, prefix: str):
    w = weights.params
    hidden = T.gelu(T.add_bias(T.matmul(x, w[f"{prefix}_ff1"]), w[f"{prefix}_ff1_b"]))
    return T.add_bias(T.matmul(hidden, w[f"{prefix}_ff2"]), w[f"{prefix}_ff2_b"])


def encoder_forward(embeddings, weights: ModelWeights, plans: PlanBundle) -> EncoderOutput:
    """PEG -> self-attention -> add & norm -> feed-forward -> add & norm, per layer."""
    cfg = weights.config
    h = embeddings
    all_maps = []
    w = weights.params
    for i in range(cfg.layers_enc):
        h = _peg_rows(h, w[f"enc{i}_peg"], weights.grid)
        attn_out, maps = _multi_head(h, h, weights, f"enc{i}", plans.enc[i], False)
        h = T.layer_norm(T.add(h, attn_out), w[f"enc{i}_ln1_g"], w[f"enc{i}_ln1_b"])
        h = T.layer_norm(T.add(h, _feed_forward(h, weights, f"enc{i}")), w[f"enc{i}_ln2_g"], w[f"enc{i}_ln2_b"])
        all_maps.append(maps)
    return EncoderOutput(context=h, attn=all_maps)


def _check_decoder_input(prev: np.ndarray, start: int, weights: ModelWeights) -> None:
    """Validate the decoder input tokens of rows [start, start + prev.size)."""
    cfg = weights.config
    if prev.ndim != 1 or prev.size < 1 or start + prev.size > weights.length:
        raise SequenceError(f"decoder prefix length {start + prev.size} invalid (max {weights.length})")
    if start == 0 and prev[0] != cfg.start_token:
        raise SequenceError("decoder input must begin with START")
    if np.any(prev[1 if start == 0 else 0 :] == cfg.start_token):
        raise SequenceError("START appears after position 0")
    if prev.min() < 0 or prev.max() > cfg.start_token:
        raise VocabularyError("decoder token outside embedding table")


def decoder_forward(prev_tokens, encoder_out: EncoderOutput, weights: ModelWeights, plans: PlanBundle):
    """Causal decoder over the whole START-prepended sequence (L tokens)
    with cross attention, under the decoder roles of `plans`.

    Returns (logits L x vocab, self_maps, cross_maps). Row l of the
    logits depends only on prev_tokens[0..l] and the encoder output.
    """
    cfg = weights.config
    prev = np.asarray(prev_tokens, dtype=np.int64)
    if prev.shape != (weights.length,):
        raise SequenceError(f"decoder input of shape {prev.shape} is not the {weights.length}-token sequence")
    _check_decoder_input(prev, 0, weights)

    steps = prev.size
    w = weights.params
    context = encoder_out.context

    h = T.add(T.gather_rows(w["dec_tok_emb"], prev), T.gather_rows(w["dec_pos"], np.arange(steps)))
    peg_pos = _peg_rows(context, w["dec_peg"], weights.grid)
    h = T.add(h, T.gather_rows(peg_pos, np.arange(steps)))

    self_maps_all, cross_maps_all = [], []
    for i in range(cfg.layers_dec):
        a, self_maps = _multi_head(h, h, weights, f"dec{i}_self", plans.dec_self[i], True)
        h = T.layer_norm(T.add(h, a), w[f"dec{i}_ln1_g"], w[f"dec{i}_ln1_b"])
        c, cross_maps = _multi_head(h, context, weights, f"dec{i}_cross", plans.dec_cross[i], False)
        h = T.layer_norm(T.add(h, c), w[f"dec{i}_ln2_g"], w[f"dec{i}_ln2_b"])
        h = T.layer_norm(T.add(h, _feed_forward(h, weights, f"dec{i}")), w[f"dec{i}_ln3_g"], w[f"dec{i}_ln3_b"])
        self_maps_all.append(self_maps)
        cross_maps_all.append(cross_maps)
    logits = T.matmul(h, w["out_head"])
    return logits, self_maps_all, cross_maps_all


class IncrementalDecoder:
    """Exact incremental form of `decoder_forward` for inference.

    Built once from an encoder output, the weights and the plan bundle
    (its decoder roles; `PlanBundle.dense` gives one-block indices whose
    query block is the whole sequence). `extend(prev_rows)` appends decoder
    rows [n, n + m), whose input tokens are `prev_rows`, and returns their
    logits: rows [n, n + m) of `decoder_forward` over any sequence that
    begins with the rows given so far (its causal mask makes them
    independent of the later ones), to float rounding. Attention runs the
    same kernel as `decoder_forward`, `tape.block_attention`, over one
    `sga.block_index` per (layer, role) built here, for the query blocks the
    new rows fall in; the causal rows of the self-attention index hide the
    cache rows not yet written. Embeddings, layer norm and the feed-forward
    act row by row, so the cache is exact, not an approximation. `fork()`
    gives an independent copy that shares the read-only parts.
    """

    def __init__(self, encoder_out: EncoderOutput, weights: ModelWeights, plans: PlanBundle):
        cfg = weights.config
        w = weights.params
        context = T.value_of(encoder_out.context)
        self.weights = weights
        self.n = 0
        self._peg = _peg_rows(context, w["dec_peg"], weights.grid)
        self._cross_kv = [
            (context @ w[f"dec{i}_cross_wk"], context @ w[f"dec{i}_cross_wv"]) for i in range(cfg.layers_dec)
        ]

        self._self_index = [sga.block_index(layer_plans, weights.length, True) for layer_plans in plans.dec_self]
        self._cross_index = [sga.block_index(layer_plans, weights.length) for layer_plans in plans.dec_cross]
        self._k = [np.zeros((weights.length, cfg.d)) for _ in range(cfg.layers_dec)]
        self._v = [np.zeros((weights.length, cfg.d)) for _ in range(cfg.layers_dec)]

    def fork(self) -> "IncrementalDecoder":
        other = copy.copy(self)
        other._k = [buf.copy() for buf in self._k]
        other._v = [buf.copy() for buf in self._v]
        return other

    def extend(self, prev_rows) -> np.ndarray:
        prev = np.asarray(prev_rows, dtype=np.int64)
        _check_decoder_input(prev, self.n, self.weights)
        w = self.weights.params
        new = slice(self.n, self.n + prev.size)
        h = w["dec_tok_emb"][prev] + w["dec_pos"][new] + self._peg[new]
        for i in range(self.weights.config.layers_dec):
            p = f"dec{i}"
            self._k[i][new] = h @ w[f"{p}_self_wk"]
            self._v[i][new] = h @ w[f"{p}_self_wv"]
            a = self._attention(h @ w[f"{p}_self_wq"], self._k[i], self._v[i], self._self_index[i])
            h = T.layer_norm(h + a @ w[f"{p}_self_wo"], w[f"{p}_ln1_g"], w[f"{p}_ln1_b"])
            ck, cv = self._cross_kv[i]
            c = self._attention(h @ w[f"{p}_cross_wq"], ck, cv, self._cross_index[i])
            h = T.layer_norm(h + c @ w[f"{p}_cross_wo"], w[f"{p}_ln2_g"], w[f"{p}_ln2_b"])
            h = T.layer_norm(h + _feed_forward(h, self.weights, p), w[f"{p}_ln3_g"], w[f"{p}_ln3_b"])
        self.n = new.stop
        return h @ w["out_head"]

    def _attention(self, q, k, v, index: sga.BlockIndex) -> np.ndarray:
        """One kernel call for the query rows [n, n + len(q)) over `index`.

        Query block b holds rows [b * bs, (b + 1) * bs). A run inside one
        block passes exactly its rows, with their `blocked` rows; a run
        across blocks is padded with zero query rows to whole blocks, and
        its rows are sliced back out.
        """
        first, stop = self.n, self.n + q.shape[0]
        bs = self.weights.length // index.keys.shape[1]
        blocks = slice(first // bs, (stop - 1) // bs + 1)
        if blocks.stop - blocks.start == 1:
            base = first
            cut = slice(first % bs, first % bs + q.shape[0])
        else:
            base = blocks.start * bs
            cut = slice(None)
            q = np.pad(q, ((first - base, blocks.stop * bs - stop), (0, 0)))
        blocked = None if index.blocked is None else index.blocked[:, blocks, cut]
        out = T.block_attention(q, k, v, index.keys[:, blocks], blocked)
        return out[first - base : stop - base]


def encode(x: TokenGrid, p: TokenGrid, weights: ModelWeights, plans: PlanBundle) -> EncoderOutput:
    """The encoder pass over a (masked) token grid `x` and its semantic grid `p`."""
    return encoder_forward(embed_encoder(x, p, weights), weights, plans)


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
    encoder_out: Optional[EncoderOutput] = None,
) -> ForwardResult:
    """The teacher-forced pass: `encode(x, p)`, then the decoder forced over
    the L-token sequence `decoder_tokens` shifted right behind START, so
    logits row l predicts decoder_tokens[l] from the tokens before it.

    `encoder_out`, when given, is this model's encoder pass over (x, p)
    under `plans`, already run by the caller; it is reused instead of
    recomputed.
    """
    enc = encode(x, p, weights, plans) if encoder_out is None else encoder_out
    seq = np.asarray(decoder_tokens, dtype=np.int64)
    if seq.shape != (weights.length,):
        raise SequenceError(f"decoder tokens of shape {seq.shape} are not the {weights.length}-token sequence")
    prev = np.concatenate([[weights.config.start_token], seq[:-1]])
    logits, self_maps, cross_maps = decoder_forward(prev, enc, weights, plans)
    return ForwardResult(logits=logits, encoder=enc, dec_self_attn=self_maps, dec_cross_attn=cross_maps)


def guiding_forward(
    x: TokenGrid,
    p: TokenGrid,
    weights: ModelWeights,
    decoder_tokens: Optional[np.ndarray] = None,
    encoder_out: Optional[EncoderOutput] = None,
) -> ForwardResult:
    """`forward` under `PlanBundle.dense`, exposing every attention map.

    `decoder_tokens` defaults to the (possibly masked) input grid itself.
    """
    seq = x.flat() if decoder_tokens is None else decoder_tokens
    return forward(x, p, weights, PlanBundle.dense(weights.config), seq, encoder_out)


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


def init_from_guiding(weights_low: ModelWeights, config_high: ModelConfig, grid: Optional[tuple] = None) -> ModelWeights:
    """Start a high-resolution model from trained low-resolution weights.

    Every shared-shape parameter is copied; the two positional tables are
    extended by bilinear interpolation over their token-grid arrangement.
    """
    src_cfg = weights_low.config
    for field_ in dataclasses.fields(ModelConfig):
        if field_.name in ("grid_high", "grid_low"):
            continue
        if getattr(src_cfg, field_.name) != getattr(config_high, field_.name):
            raise ConfigError(f"config field {field_.name} differs between models")
    target = tuple(grid) if grid is not None else config_high.grid_high
    params = {}
    for name, value in weights_low.params.items():
        arr = np.array(T.value_of(value))
        if name in ("enc_pos", "dec_pos"):
            params[name] = bilinear_resize_table(arr, weights_low.grid, target)
        else:
            params[name] = arr.copy()
    return ModelWeights(config_high, target, params)


# ---------------------------------------------------------------------------
# checkpoints: directory of SGAT tensors + JSON manifest
# ---------------------------------------------------------------------------


def save_checkpoint(directory, weights: ModelWeights) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": dataclasses.asdict(weights.config),
        "grid": list(weights.grid),
        "params": {name: f"{name}.sgat" for name in sorted(weights.params)},
    }
    for name in sorted(weights.params):
        write_sgat(directory / f"{name}.sgat", T.value_of(weights.params[name]))
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def load_checkpoint(directory) -> ModelWeights:
    """Read a checkpoint directory. A malformed manifest raises ConfigError;
    a malformed tensor file raises ValidationError (from `read_sgat`)."""
    directory = Path(directory)
    text = (directory / "manifest.json").read_bytes()
    try:
        manifest = json.loads(text)
        config = ModelConfig(**manifest["config"])
        grid = tuple(int(v) for v in manifest["grid"])
        files = {str(name): directory / str(fname) for name, fname in manifest["params"].items()}
    except (ValueError, TypeError, KeyError, AttributeError, ConfigError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError; ConfigError an invalid config
        raise ConfigError(f"{directory / 'manifest.json'}: malformed manifest ({type(exc).__name__}: {exc})") from exc
    params = {name: read_sgat(path) for name, path in files.items()}
    expected = parameter_shapes(config, grid)
    for name, shape in expected.items():
        if name not in params or params[name].shape != shape:
            raise ConfigError(f"checkpoint parameter {name} missing or misshaped")
    return ModelWeights(config, grid, params)
