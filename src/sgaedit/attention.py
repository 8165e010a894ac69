"""Scaled dot-product attention under an additive mask.

`dense_attention` is the dense reference that the tests compare the
attention kernel against; the package itself does not call it. Every head
of the model, the guiding model's dense heads included, runs the
block-gather kernel `tape.block_attention`: a dense head is its one-block
full plan, and the kernel's softmax weights are that head's attention
map. Like `sga.build_sparse_mask`, it is a test oracle that stays in the
package because the benchmark traces it by name. It is written against
the tape ops, so the same code serves untaped (numpy in, numpy out) and
taped (Tensor in, Tensor out) comparisons.
"""

from __future__ import annotations

import numpy as np

from . import tape as T
from .errors import ShapeError

def dense_attention(q, k, v, mask):
    """softmax((q @ k^T) / sqrt(d) + mask) @ v.

    Returns (output, weights). Weights are returned because the guiding
    pass harvests them for block-affinity pooling.
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
    scores = T.scale(T.matmul(q, k, transpose_b=True), 1.0 / np.sqrt(qv.shape[1]))
    weights = T.masked_softmax(scores, mask)
    return T.matmul(weights, v), weights
