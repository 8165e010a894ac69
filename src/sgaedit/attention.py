"""Scaled dot-product attention under an additive mask.

`dense_attention` is the dense reference that the tests compare the
attention kernel against; the package itself does not call it. Every head
of the model, the guiding model's dense heads included, runs the
block-gather kernel `tape.block_attention`: a dense head is its one-block
full plan, and the kernel's softmax weights are that head's attention
map. Like `sga.build_sparse_mask`, it is a test oracle that stays in the
package because the benchmark traces it by name. It is written against
the tape ops the model runs, so the same code serves untaped (numpy in,
numpy out) and taped (Tensor in, Tensor out) comparisons. It builds k^T
by reshaping k to one column, gathering that column's rows in
column-major order and reshaping the result to d x n, and it scales the
queries by 1/sqrt(d) with a matmul by the scaled identity.
"""

from __future__ import annotations

import numpy as np

from . import tape as T
from .errors import ShapeError

def dense_attention(q, k, v, mask):
    """softmax((q @ k^T) / sqrt(d) + mask) @ v.

    Returns (output, weights): the weights are the reference for the
    kernel's softmax weights, which are a dense head's attention map.
    """
    qv, kv, vv = T.value_of(q), T.value_of(k), T.value_of(v)
    if qv.ndim != 2 or kv.ndim != 2 or vv.ndim != 2:
        raise ShapeError("q, k, v must be 2D")
    if qv.shape[1] != kv.shape[1]:
        raise ShapeError(f"q width {qv.shape[1]} != k width {kv.shape[1]}")
    if kv.shape[0] != vv.shape[0]:
        raise ShapeError(f"k rows {kv.shape[0]} != v rows {vv.shape[0]}")
    mask = T.value_of(mask)
    if mask.shape != (qv.shape[0], kv.shape[0]):
        raise ShapeError(f"mask shape {mask.shape} != {(qv.shape[0], kv.shape[0])}")
    n, d = kv.shape
    k_t = T.reshape(T.gather_rows(T.reshape(k, (n * d, 1)), np.arange(n * d).reshape(n, d).T.ravel()), (d, n))
    scores = T.matmul(T.matmul(q, np.eye(d) / np.sqrt(d)), k_t)
    weights = T.masked_softmax(scores, mask)
    return T.matmul(weights, v), weights
