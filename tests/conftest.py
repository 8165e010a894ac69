"""Shared helpers for the test suite."""

import numpy as np

from sgaedit import attention as att
from sgaedit import sga
from sgaedit import tape as T
from sgaedit.rng import substream

_KERNEL = substream(1, "tape-ker").normal(size=(5, 5, 2))
_LN_GAIN = substream(2, "ln-gain").normal(size=4)
_LN_BIAS = substream(3, "ln-bias").normal(size=4)


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
        "add": (lambda x: T.sum_all(T.mul(T.add(x, const_a), T.add(x, const_a))), (3, 4)),
        "add_bias": (lambda x: T.sum_all(T.mul(T.add_bias(const_a, x), T.add_bias(const_a, x))), (4,)),
        "mul": (lambda x: T.sum_all(T.mul(x, const_a)), (3, 4)),
        "scale": (lambda x: T.sum_all(T.mul(T.scale(x, -2.5), T.scale(x, -2.5))), (3, 4)),
        "matmul": (lambda x: T.sum_all(T.mul(T.matmul(x, const_a), T.matmul(x, const_a.T, transpose_b=True))), (3, 3)),
        "masked_softmax": (lambda x: T.sum_all(T.mul(T.masked_softmax(x, mask), const_a)), (3, 4)),
        "layer_norm": (lambda x: T.sum_all(T.mul(T.layer_norm(x, _LN_GAIN, _LN_BIAS), const_a)), (3, 4)),
        "peg": (lambda x: T.sum_all(T.mul(T.peg(x, _KERNEL), T.peg(x, _KERNEL))), (3, 4, 2)),
        "gather_rows": (lambda x: T.sum_all(T.mul(T.gather_rows(x, idx), T.gather_rows(x, idx))), (3, 4)),
        "slice_cols": (lambda x: T.sum_all(T.mul(T.slice_cols(x, 1, 3), T.slice_cols(x, 1, 3))), (3, 4)),
        "concat_cols": (lambda x: T.sum_all(T.mul(T.concat_cols([x, const_a]), T.concat_cols([x, const_a]))), (3, 4)),
        "reshape": (lambda x: T.sum_all(T.mul(T.reshape(x, (4, 3)), T.reshape(x, (4, 3)))), (3, 4)),
        "block_attention": (lambda x: T.sum_all(T.mul(T.block_attention(x, x, x, keys, blocked), const_b)), (4, 4)),
        "gelu": (lambda x: T.sum_all(T.mul(T.gelu(x), const_a)), (3, 4)),
        "log": (lambda x: T.sum_all(T.log(T.add(T.mul(x, x), np.full((3, 4), 1.0)))), (3, 4)),
        "sum_all": (lambda x: T.mul(T.sum_all(x), T.sum_all(x)), (3, 4)),
        "cross_entropy": (lambda x: T.cross_entropy(x, targets), (3, 4)),
    }
    return cases[name]


def per_head_dense_multi_head(x_q, x_kv, weights, prefix, plans, causal):
    """`model._multi_head` for one-block (dense) plans as it was before dense
    heads ran on the block kernel: one `attention.dense_attention` per head,
    under an L x L causal or zero mask, heads concatenated before the output
    projection."""
    assert all(p.n_blocks == 1 for p in plans), "the oracle covers one-block plans only"
    w = weights.params
    heads = weights.config.heads
    q_all = T.matmul(x_q, w[f"{prefix}_wq"])
    k_all = T.matmul(x_kv, w[f"{prefix}_wk"])
    v_all = T.matmul(x_kv, w[f"{prefix}_wv"])
    dh = weights.config.d // heads
    n_q, n_k = T.value_of(q_all).shape[0], T.value_of(k_all).shape[0]
    mask = att.causal_mask(n_q) if causal else np.zeros((n_q, n_k))
    outs, maps = [], []
    for h in range(heads):
        cols = (h * dh, (h + 1) * dh)
        out_h, weights_h = att.dense_attention(
            T.slice_cols(q_all, *cols), T.slice_cols(k_all, *cols), T.slice_cols(v_all, *cols), mask
        )
        maps.append(np.array(T.value_of(weights_h)))
        outs.append(out_h)
    return T.matmul(T.concat_cols(outs), w[f"{prefix}_wo"]), maps


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
