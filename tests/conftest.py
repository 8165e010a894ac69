"""Shared helpers for the test suite."""

import numpy as np

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
    # two heads of width 2 over 4 tokens in 2 query blocks; token 3 is repeated
    # in one key list, and the blocked entries leave every row a key
    rows = np.array([[0, 1], [2, 3]])
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
        "block_attention": (lambda x: T.sum_all(T.mul(T.block_attention(x, x, x, rows, keys, blocked), const_b)), (4, 4)),
        "gelu": (lambda x: T.sum_all(T.mul(T.gelu(x), const_a)), (3, 4)),
        "log": (lambda x: T.sum_all(T.log(T.add(T.mul(x, x), np.full((3, 4), 1.0)))), (3, 4)),
        "sum_all": (lambda x: T.mul(T.sum_all(x), T.sum_all(x)), (3, 4)),
        "mean_all": (lambda x: T.mul(T.mean_all(x), T.mean_all(x)), (3, 4)),
        "cross_entropy": (lambda x: T.cross_entropy(x, targets), (3, 4)),
    }
    return cases[name]
