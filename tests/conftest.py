"""Shared helpers for the test suite."""

import numpy as np

from sgaedit import attention as att
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


def op_grad_case(name):
    """(scalar function, point shape) exercising one registered tape op."""
    r = substream(hash(name) % (2**31), f"case-{name}")
    const_a = r.normal(size=(3, 4))
    mask = np.where(r.random((3, 4)) < 0.3, -np.inf, 0.0)
    mask[:, 0] = 0.0
    idx = np.array([1, 0, 2, 1])
    targets = np.array([0, 3, 1])
    # two heads of width 2 over 4 tokens in 2 query blocks of 2 rows; token 3
    # is repeated in one key list, and the blocked entries leave every row a key
    keys = np.array([[[0, 1, 3], [2, 3, 3]], [[1, 2, 3], [0, 1, 2]]])
    blocked = r.random((2, 2, 2, 3)) < 0.3
    blocked[..., 0] = False
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
        "block_attention": (lambda x: dot(T.block_attention(x, x, x, keys, blocked), const_b), (4, 4)),
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


def per_head_dense_multi_head(x_q, x_kv, weights, prefix, plans, causal):
    """`model._multi_head` for one-block (dense) plans as it was before dense
    heads ran on the block kernel: one `attention.dense_attention` per head,
    under an L x L causal or zero mask, heads concatenated before the output
    projection."""
    assert all(p.n_blocks == 1 for p in plans), "the oracle covers one-block plans only"
    w = weights.params
    q_all = T.matmul(x_q, w[f"{prefix}_wq"])
    k_all = T.matmul(x_kv, w[f"{prefix}_wk"])
    v_all = T.matmul(x_kv, w[f"{prefix}_wv"])
    n_q, n_k = T.value_of(q_all).shape[0], T.value_of(k_all).shape[0]
    mask = causal_mask(n_q) if causal else np.zeros((n_q, n_k))
    out, maps = per_head_dense(q_all, k_all, v_all, [mask] * weights.config.heads)
    return T.matmul(out, w[f"{prefix}_wo"]), [np.array(T.value_of(m)) for m in maps]


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
