"""Shared helpers for the test suite."""

import numpy as np

from sgaedit import attention as att
from sgaedit import model as mdl
from sgaedit import sga
from sgaedit import tape as T
from sgaedit.errors import ShapeError
from sgaedit.rng import substream

_KERNEL = substream(1, "tape-ker").normal(size=(5, 5, 2))
_LN_GAIN = substream(2, "ln-gain").normal(size=4)
_LN_BIAS = substream(3, "ln-bias").normal(size=4)


def causal_mask(length: int) -> np.ndarray:
    """Additive mask keeping (r, t) iff t <= r."""
    if length < 1:
        raise ShapeError("mask length must be >= 1")
    mask = np.zeros((length, length), dtype=np.float64)
    mask[np.triu_indices(length, k=1)] = -np.inf
    return mask


def causal_plans(plans):
    """Per-head plans as a decoder self-attention layer holds them: the
    lower triangles that `model.PlanBundle` keeps."""
    return mdl.PlanBundle(enc=[], dec_self=[list(plans)], dec_cross=[]).dec_self[0]


def combine_masks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise AND of two additive masks (keep only if kept in both)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"mask shapes differ: {a.shape} vs {b.shape}")
    return np.minimum(a, b)


def dot(a, b):
    """sum(a * b) of two same-shape arrays or Tensors, as a 0-d tape value:
    `a` as one row times `b` as one column."""
    n = T.value_of(a).size
    return T.reshape(T.matmul(T.reshape(a, (1, n)), T.reshape(b, (n, 1))), ())


def cols(x, lo: int, hi: int):
    """Columns [lo, hi) of x: a matmul by an exact 0/1 selector, so every
    value comes through unchanged."""
    return T.matmul(x, np.eye(T.value_of(x).shape[1])[:, lo:hi])


def join_cols(parts):
    """The column concatenation of `parts`: each part placed by an exact 0/1
    selector and the placed parts added, which only adds exact zeros."""
    widths = [T.value_of(p).shape[1] for p in parts]
    eye = np.eye(sum(widths))
    bounds = np.cumsum([0] + widths)
    placed = [T.matmul(p, eye[lo:hi]) for p, lo, hi in zip(parts, bounds[:-1], bounds[1:])]
    out = placed[0]
    for part in placed[1:]:
        out = T.add(out, part)
    return out


def randomize_norms(params: dict, rng) -> None:
    """Draw every layer-norm gain and bias, feed-forward bias and PEG kernel
    of a model's `params` at random, in place, so that a swapped or dropped
    one changes the model's output."""
    for name, value in params.items():
        if name.endswith("_g"):
            params[name] = rng.normal(loc=1.0, scale=0.5, size=value.shape)
        elif name.endswith("_b") or "peg" in name:
            params[name] = rng.normal(scale=0.2, size=value.shape)


def op_grad_case(name):
    """(scalar function, point shape) exercising one registered tape op."""
    r = substream(hash(name) % (2**31), f"case-{name}")
    const_a = r.normal(size=(3, 4))
    mask = np.where(r.random((3, 4)) < 0.3, -np.inf, 0.0)
    mask[:, 0] = 0.0
    idx = np.array([1, 0, 2, 1])
    targets = np.array([0, 3, 1])
    # two heads of width 2 over 4 tokens in 2 query blocks of 2 rows: token 3
    # is repeated in one key list, token 4 is the padding sentinel, and
    # under the causal mask (rows are tokens 0..3) every row still sees a key
    keys = np.array([[[0, 1, 4], [2, 3, 3]], [[0, 2, 4], [0, 1, 2]]])
    const_b = r.normal(size=(4, 4))
    cases = {
        "add": (lambda x: dot(T.add(x, const_a), T.add(x, const_a)), (3, 4)),
        "add_bias": (lambda x: dot(T.add_bias(const_a, x), T.add_bias(const_a, x)), (4,)),
        "scale": (lambda x: dot(T.scale(x, -2.5), T.scale(x, -2.5)), (3, 4)),
        "matmul": (lambda x: dot(T.matmul(x, const_a), T.matmul(x, const_a.T, transpose_b=True)), (3, 3)),
        "masked_softmax": (lambda x: dot(T.masked_softmax(x, mask), const_a), (3, 4)),
        "layer_norm": (lambda x: dot(T.layer_norm(x, _LN_GAIN, _LN_BIAS), const_a), (3, 4)),
        "peg": (lambda x: dot(T.peg(x, _KERNEL), T.peg(x, _KERNEL)), (3, 4, 2)),
        "gather_rows": (lambda x: dot(T.gather_rows(x, idx), T.gather_rows(x, idx)), (3, 4)),
        "reshape": (lambda x: dot(T.reshape(x, (4, 3)), T.reshape(x, (4, 3))), (3, 4)),
        "block_attention": (
            lambda x: T.add(
                dot(T.block_attention(x, x, x, keys), const_b), dot(T.block_attention(x, x, x, keys, first=0), const_b)
            ),
            (4, 4),
        ),
        "gelu": (lambda x: dot(T.gelu(x), const_a), (3, 4)),
        "cross_entropy": (lambda x: T.cross_entropy(x, targets), (3, 4)),
    }
    return cases[name]


def per_head_dense(q, k, v, masks):
    """One `attention.dense_attention` per head, head h on columns
    [h * dh, (h + 1) * dh) of q, k, v under masks[h]; returns the heads'
    outputs joined in column order and their weights."""
    dh = T.value_of(q).shape[1] // len(masks)
    outs, maps = [], []
    for h, mask in enumerate(masks):
        lo, hi = h * dh, (h + 1) * dh
        out, weights = att.dense_attention(cols(q, lo, hi), cols(k, lo, hi), cols(v, lo, hi), mask)
        outs.append(out)
        maps.append(weights)
    return join_cols(outs), maps


class DenseBlockAttention:
    """Reference for `tape.block_attention(q, k, v, keys, first, weights)`:
    `per_head_dense` under the n_q x n_k masks that `keys` and `first`
    spell out (row r sees its listed keys up to token n_k - 1, or up to
    first + r when `first` is given; the sentinel n_k is never seen),
    filling `weights` when it is given. Every call's [H, n_q, n_k] additive
    mask is kept in `masks`, in call order."""

    def __init__(self):
        self.masks = []

    def __call__(self, q, k, v, keys, first=None, weights=None):
        heads, n_blocks, width = keys.shape
        n_q, n_k = T.value_of(q).shape[0], T.value_of(k).shape[0]
        rows = np.arange(n_q).reshape(n_blocks, -1)  # query block n is rows [n * bs, (n + 1) * bs)
        last = np.full(rows.shape, n_k - 1) if first is None else first + rows
        visible = keys[:, :, None, :] <= last[None, :, :, None]
        cells = np.broadcast_arrays(np.arange(heads)[:, None, None, None], rows[None, :, :, None], keys[:, :, None, :])
        cells = tuple(c[visible] for c in cells)
        count = np.zeros((heads, n_q, n_k), np.int64)
        np.add.at(count, cells, 1)
        assert count.max() <= 1, "a key listed twice in one row counts twice in the kernel"
        mask = np.where(count > 0, 0.0, -np.inf)
        self.masks.append(mask)
        out, maps = per_head_dense(q, k, v, list(mask))
        if weights is not None:
            safe = np.minimum(keys, n_k - 1)
            for h, m in enumerate(maps):
                weights[h] = np.where(visible[h], T.value_of(m)[rows[:, :, None], safe[h][:, None, :]], 0.0)
        return out


def plan_masks(plans, length):
    """The [H, L, L] mask of every attention call of one forward pass under
    the bundle `plans`, in call order: the encoder layers, then decoder self
    (plan and causal masks) and cross per layer; each head's plan expanded
    by `sga.build_sparse_mask`."""

    def layer(layer_plans, causal=False):
        masks = [sga.build_sparse_mask(plan, length) for plan in layer_plans]
        return np.stack([combine_masks(m, causal_mask(length)) if causal else m for m in masks])

    out = [layer(layer_plans) for layer_plans in plans.enc]
    for self_plans, cross_plans in zip(plans.dec_self, plans.dec_cross):
        out += [layer(self_plans, causal=True), layer(cross_plans)]
    return out


def per_row_sort_plan(b, k, radius):
    """One head of `sga.select_plans` as a per-row Python sort: the
    neighborhood plus the first k outside blocks ordered by (-affinity,
    block index)."""
    n = b.shape[0]
    keep = np.zeros((n, n), dtype=bool)
    for r in range(n):
        nb = set(range(max(0, r - radius), min(n, r + radius + 1)))
        outside = [t for t in range(n) if t not in nb]
        outside.sort(key=lambda t: (-b[r, t], t))
        keep[r, sorted(nb | set(outside[:k]))] = True
    return sga.SparsityPlan(keep)


def affinities(kind, shape, seed):
    """Random affinities: "random", "rounded" (many exact ties) or "zero" (mostly zeros)."""
    rng = substream(seed, f"affinity-{kind}")
    b = rng.random(shape)
    if kind == "rounded":
        return np.round(b, 1)
    if kind == "zero":
        return np.where(rng.random(shape) < 0.9, 0.0, b)
    return b


_BLUR5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def _full_blur(img):
    x = img[:, :, None] if img.ndim == 2 else img
    padded = np.pad(x, ((2, 2), (0, 0), (0, 0)), mode="edge")
    x = sum(_BLUR5[i] * padded[i : i + img.shape[0]] for i in range(5))
    padded = np.pad(x, ((0, 0), (2, 2), (0, 0)), mode="edge")
    x = sum(_BLUR5[i] * padded[:, i : i + img.shape[1]] for i in range(5))
    return x[:, :, 0] if img.ndim == 2 else x


def _full_up(img):
    return _full_blur(np.repeat(np.repeat(img, 2, axis=0), 2, axis=1))


def full_image_blend(a, b, mask, levels):
    """Reference for `compositing.laplacian_blend` on one image `a`: the
    Laplacian-pyramid blend of a over b under the blurred mask, computed
    over the whole image (both pyramids, the weights and the collapse at
    full size), clamped to [0, 1]."""
    a, b, mask = (np.asarray(x, dtype=np.float64) for x in (a, b, mask))
    pyramids = []
    for img in (a, b):
        bands, current = [], img
        for _ in range(levels - 1):
            smaller = _full_blur(current)[::2, ::2]
            bands.append(current - _full_up(smaller))
            current = smaller
        pyramids.append(bands + [current])
    weights = [_full_blur(mask)]
    for _ in range(levels - 1):
        weights.append(_full_blur(weights[-1])[::2, ::2])
    mixed = []
    for la, lb, w in zip(*pyramids, weights):
        w = w if la.ndim == 2 else w[:, :, None]
        mixed.append(w * la + (1.0 - w) * lb)
    out = mixed[-1]
    for band in reversed(mixed[:-1]):
        out = _full_up(out) + band
    return np.clip(out, 0.0, 1.0)
