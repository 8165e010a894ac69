"""Reverse-mode autodiff over the exact primitive set the model needs.

A `GradTape` holds an ordered record of primitive applications. Each op
below computes its value once, from the `value_of` of its inputs, and returns
through `_record`: when any input is a `Tensor`, the value comes back as a
`Tensor` recorded with the op's backward (the training path); otherwise it
comes back as the plain numpy array (the inference path). Model code is
written once against these functions and works in both modes.

This module is the package's one op layer: each op's forward and
backward arithmetic are both written here. The op set is deliberately
closed, and is `DIFFERENTIABLE_OPS`: add, add_bias, matmul,
masked_softmax, layer_norm, peg, gather_rows, reshape, block_attention
(the attention kernel of every head, dense or block-sparse, which works
out its padding and causal mask from key and query token indices), gelu
and cross_entropy, each called by some other module of the package. There
is no general broadcasting engine. The model's attention uses only
block_attention; masked_softmax serves only `attention.dense_attention`,
the dense reference the tests compare against.

Every op's backward is pinned against central differences by the test
suite's `grad_check` (tests/conftest.py), over the cases of `op_grad_case`.

`GradTape.backward` uses up its node list as it walks it, releasing each
op's backward closure (and the values it saved) once that backward has run,
so reference counting frees the step's graph during the walk even while the
caller still holds the loss; the cyclic collector is not needed. Leaves
(`GradTape.param`) are never on the node list, and afterwards only they
keep a .grad.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import ShapeError, ValidationError

# Ops with gradient support; the test suite checks every name listed here.
DIFFERENTIABLE_OPS = (
    "add",
    "add_bias",
    "matmul",
    "masked_softmax",
    "layer_norm",
    "peg",
    "gather_rows",
    "reshape",
    "block_attention",
    "gelu",
    "cross_entropy",
)


class Tensor:
    """A value recorded on a GradTape."""

    __slots__ = ("value", "grad", "tape", "_backward", "__weakref__")

    def __init__(self, value: np.ndarray, tape: "GradTape"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.tape = tape
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g


class GradTape:
    """Ordered record of primitive ops, walked in reverse by `backward`."""

    def __init__(self):
        self._nodes: list[Tensor] = []

    def param(self, value) -> Tensor:
        """A leaf whose gradient will be accumulated; it is not on the node list."""
        return Tensor(np.array(value, dtype=np.float64, copy=True), self)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every leaf's .grad.

        Only leaves keep a .grad. The walk pops each recorded op off the tape,
        runs its backward, then drops that op's backward closure and .grad, so
        the graph is freed while the walk runs even if the caller still holds
        the loss or another intermediate. The tape forgets its nodes here:
        every node refers to the tape, so a tape that kept them would make the
        whole graph a reference cycle.
        """
        if loss.tape is not self:
            raise ValidationError("loss was recorded on a different tape")
        if loss.value.shape != ():
            raise ShapeError("backward requires a scalar loss")
        loss.accumulate(np.asarray(1.0))
        nodes, self._nodes = self._nodes, []
        while nodes:
            node = nodes.pop()
            if node.grad is not None:
                node._backward(node.grad)
            node._backward = node.grad = None


def is_tensor(x) -> bool:
    return isinstance(x, Tensor)


def value_of(x) -> np.ndarray:
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _record(value, backward, *inputs):
    """`value` as a Tensor whose gradient flows through `backward`, recorded
    on the tape of the first Tensor among `inputs`; with no Tensor input,
    `value` itself, unrecorded."""
    for x in inputs:
        if isinstance(x, Tensor):
            node = Tensor(value, x.tape)
            node._backward = backward
            x.tape._nodes.append(node)
            return node
    return value


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def add(a, b):
    av, bv = value_of(a), value_of(b)
    if av.shape != bv.shape:
        raise ShapeError(f"add shapes differ: {av.shape} vs {bv.shape}")

    def backward(g):
        if is_tensor(a):
            a.accumulate(g)
        if is_tensor(b):
            b.accumulate(g)

    return _record(av + bv, backward, a, b)


def add_bias(x, b):
    """Add a width-d bias row vector to every row of x."""
    xv, bv = value_of(x), value_of(b)
    if bv.ndim != 1 or xv.shape[-1] != bv.shape[0]:
        raise ShapeError(f"bias {bv.shape} incompatible with {xv.shape}")

    def backward(g):
        if is_tensor(x):
            x.accumulate(g)
        if is_tensor(b):
            b.accumulate(g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _record(xv + bv, backward, x, b)


def reshape(x, shape: tuple):
    xv = value_of(x)

    def backward(g):
        x.accumulate(g.reshape(xv.shape))

    return _record(xv.reshape(shape), backward, x)


def matmul(a, b):
    av, bv = value_of(a), value_of(b)
    if av.ndim != 2 or bv.ndim != 2:
        raise ShapeError(f"matmul expects 2D operands, got {av.shape} and {bv.shape}")
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"inner dimensions differ: {av.shape} vs {bv.shape}")

    def backward(g):
        if is_tensor(a):
            a.accumulate(g @ bv.T)
        if is_tensor(b):
            b.accumulate(av.T @ g)

    return _record(av @ bv, backward, a, b)


def masked_softmax(scores, mask):
    """Row softmax of `scores + mask`, stabilized by row-max subtraction.

    The mask is a non-differentiable additive constant: 0 keeps an entry
    and -inf removes it, so masked entries come out exactly 0. A row with
    every entry masked is an error rather than a silent uniform fallback:
    such rows indicate a broken sparsity plan upstream.
    """
    sv = value_of(scores)
    mask = np.asarray(mask, dtype=np.float64)
    if not np.all((mask == 0.0) | np.isneginf(mask)):
        raise ValidationError("attention mask entries must be 0 or -inf")
    if sv.shape != mask.shape:
        raise ShapeError(f"scores {sv.shape} vs mask {mask.shape}")
    shifted = sv + mask
    rowmax = shifted.max(axis=-1, keepdims=True)
    dead = np.isneginf(rowmax)
    if dead.any():
        raise ValidationError(f"softmax row {int(np.argmax(dead.ravel()))} is fully masked")
    expd = np.exp(shifted - rowmax)
    y = expd / expd.sum(axis=-1, keepdims=True)

    def backward(g):
        scores.accumulate(y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _record(y, backward, scores)


def layer_norm(x, gain, bias, eps: float = 1e-5):
    """Per-row normalization: (x - mean) / sqrt(var + eps) * gain + bias."""
    xv, gv, bv = value_of(x), value_of(gain), value_of(bias)
    width = xv.shape[-1]
    if gv.shape[-1] != width or bv.shape[-1] != width:
        raise ShapeError(f"gain/bias width must match x width {width}")
    # sums over the width, not `mean`: the same arithmetic without numpy's Python-level wrapper
    centered = xv - xv.sum(axis=-1, keepdims=True) / width
    std = np.sqrt(np.square(centered).sum(axis=-1, keepdims=True) / width + eps)  # kept for the backward

    def backward(g):
        centered = xv - xv.sum(axis=-1, keepdims=True) / width
        inv = 1.0 / std
        xhat = centered * inv
        if is_tensor(gain):
            gain.accumulate((g * xhat).reshape(-1, width).sum(axis=0))
        if is_tensor(bias):
            bias.accumulate(g.reshape(-1, width).sum(axis=0))
        if is_tensor(x):
            dxhat = g * gv
            dx = (
                dxhat
                - dxhat.sum(axis=-1, keepdims=True) / width
                - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / width)
            ) * inv
            x.accumulate(dx)

    return _record(centered / std * gv + bv, backward, x, gain, bias)


def peg(x, kernel):
    """Residual depth-wise 5x5 convolution over an H x W x d feature grid.

    Output = input + conv(input), zero padding 2, one 5x5 filter per
    channel. Injects relative position information without a fixed
    positional table.
    """
    xv, kv = value_of(x), value_of(kernel)
    if xv.ndim != 3:
        raise ShapeError(f"expected H x W x d features, got {xv.shape}")
    h, w, d = xv.shape
    if kv.shape != (5, 5, d):
        raise ShapeError(f"kernel must be 5 x 5 x {d}, got {kv.shape}")
    padded = np.zeros((h + 4, w + 4, d), dtype=np.float64)
    padded[2 : 2 + h, 2 : 2 + w] = xv
    acc = np.zeros_like(xv)
    for u in range(5):
        for v in range(5):
            acc += padded[u : u + h, v : v + w] * kv[u, v]

    def backward(g):
        if is_tensor(x):
            gpad = np.zeros((h + 4, w + 4, d), dtype=np.float64)
            gpad[2 : 2 + h, 2 : 2 + w] = g
            dx = np.array(g, copy=True)
            for u in range(5):
                for v in range(5):
                    dx += gpad[4 - u : 4 - u + h, 4 - v : 4 - v + w] * kv[u, v]
            x.accumulate(dx)
        if is_tensor(kernel):
            xpad = np.zeros((h + 4, w + 4, d), dtype=np.float64)
            xpad[2 : 2 + h, 2 : 2 + w] = xv
            dk = np.empty_like(kv)
            for u in range(5):
                for v in range(5):
                    dk[u, v] = (g * xpad[u : u + h, v : v + w]).sum(axis=(0, 1))
            kernel.accumulate(dk)

    return _record(xv + acc, backward, x, kernel)


def gather_rows(table, indices):
    """Row lookup table[indices]; used for embeddings and position selection."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows expects 1D indices, got {idx.shape}")
    tv = value_of(table)

    def backward(g):
        # one flat bincount sums repeated rows in index order, as np.add.at would
        width = int(np.prod(tv.shape[1:]))
        rows = np.where(idx < 0, idx + tv.shape[0], idx)
        flat = (rows[:, None] * width + np.arange(width)).ravel()
        table.accumulate(np.bincount(flat, weights=np.ravel(g), minlength=tv.size).reshape(tv.shape))

    return _record(tv[idx], backward, table)


def block_attention(q, k, v, keys, first=None, weights=None):
    """Softmax attention over gathered key tokens, batched over heads and query blocks.

    q is n_q x (H * dh) and k, v are n_k x (H * dh), head h in columns
    [h * dh, (h + 1) * dh). q holds N whole query blocks of bs = n_q / N
    consecutive rows: block n is rows [n * bs, (n + 1) * bs). `keys`
    [H, N, K] holds the key tokens each (head, query block) attends to,
    each in [0, n_k] (any other raises ShapeError); token n_k is padding.
    Row r of q sees the listed keys up to its last visible token: n_k - 1
    when `first` is None, and first + r otherwise, which is the causal mask
    of rows whose first is token `first`. Row i of block n, head h is the
    softmax of q[n * bs + i] . k[j] / sqrt(dh) over the visible keys j of
    keys[h, n], applied to v[j].

    Every row must see at least one key; `sga.block_index` gives every row
    its own block. Each head's key and value rows are gathered straight
    from the n_k x (H * dh) arrays (padding reads row n_k - 1, with weight
    0). The forward saves only q, k, v, the key index and the softmax
    weights for the backward, which gathers the keys and values again and
    scatters their gradients back to token rows with one `bincount` each.
    `weights`, when given, is a float array of shape [H, N, bs, K] that the
    softmax weights are written into (they must stay unchanged while a
    backward pass may still read them).
    """
    qv, kv, vv = value_of(q), value_of(k), value_of(v)
    keys = np.asarray(keys, dtype=np.int64)
    if qv.ndim != 2 or kv.ndim != 2 or vv.ndim != 2:
        raise ShapeError("q, k, v must be 2D")
    if keys.ndim != 3 or not keys.shape[1] or qv.shape[0] % keys.shape[1]:
        raise ShapeError(f"q {qv.shape} is not whole query blocks of keys {keys.shape}")
    heads, n_blocks, width = keys.shape
    n_q, n_k = qv.shape[0], kv.shape[0]
    bs = n_q // n_blocks
    if qv.shape[1] != kv.shape[1] or kv.shape != vv.shape or qv.shape[1] % heads:
        raise ShapeError(f"q {qv.shape}, k {kv.shape}, v {vv.shape} are inconsistent for {heads} heads")
    if weights is not None and weights.shape != (heads, n_blocks, bs, width):
        raise ShapeError(f"weights {weights.shape} != {(heads, n_blocks, bs, width)}")
    top = keys.max()
    if keys.min() < 0 or top > n_k:
        raise ShapeError(f"key tokens outside [0, {n_k}]")
    hidden = None
    if first is not None or top == n_k:  # some score is removed
        last = n_k - 1 if first is None else first + np.arange(n_q).reshape(n_blocks, bs, 1)
        hidden = keys[:, :, None, :] > last  # H x N x (1 or bs) x K
        keys = np.minimum(keys, n_k - 1)
    dh = qv.shape[1] // heads
    scale_ = 1.0 / np.sqrt(dh)
    head = np.arange(heads)[:, None, None]

    def by_block(x):  # n_q x (H * dh) -> H x N x bs x dh
        return x.reshape(n_blocks, bs, heads, dh).transpose(2, 0, 1, 3)

    def from_block(x):  # H x N x bs x dh -> n_q x (H * dh)
        return x.transpose(1, 2, 0, 3).reshape(n_q, heads * dh)

    def gather(x):  # n_k x (H * dh) -> H x N x K x dh: each head's rows of its keys
        return x.reshape(n_k, heads, dh)[keys, head]

    qb = by_block(qv)
    # the gathered keys and values are dropped once used and gathered again by the backward
    w = np.matmul(qb, gather(kv).transpose(0, 1, 3, 2), out=weights)
    w *= scale_
    if hidden is not None:
        np.copyto(w, -np.inf, where=hidden)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    vb = gather(vv)

    def backward(g):
        def scatter_keys(xb, idx):  # H x N x K x dh -> n_k x (H * dh), summing repeated keys
            return np.bincount(idx, weights=xb.ravel(), minlength=n_k * heads * dh).reshape(n_k, heads * dh)

        gb = by_block(g)
        ds = np.matmul(gb, gather(vv).transpose(0, 1, 3, 2))
        ds -= (ds * w).sum(axis=-1, keepdims=True)
        ds *= w
        ds *= scale_
        if is_tensor(q):
            q.accumulate(from_block(np.matmul(ds, gather(kv))))
        gidx = keys * heads + head  # rows of the n_k * H x dh table
        idx = (gidx[..., None] * dh + np.arange(dh)).ravel()
        if is_tensor(k):
            k.accumulate(scatter_keys(np.matmul(ds.transpose(0, 1, 3, 2), qb), idx))
        if is_tensor(v):
            v.accumulate(scatter_keys(np.matmul(w.transpose(0, 1, 3, 2), gb), idx))

    return _record(from_block(np.matmul(w, vb)), backward, q, k, v)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x):
    """Smooth tanh-form GELU: 0.5 x (1 + tanh(sqrt(2 / pi) (x + 0.044715 x^3)))."""
    xv = value_of(x)
    # the cube is two multiplies: `x**3` goes through `np.power`, which is
    # many times slower on large arrays
    t = np.tanh(_GELU_C * (xv + 0.044715 * (xv * xv * xv)))  # kept for the backward

    def backward(g):
        # d gelu / dx = 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2)
        slope = xv * xv
        slope *= 3 * 0.044715
        slope += 1.0
        slope *= _GELU_C * xv
        slope *= 1.0 - t * t
        slope += 1.0 + t
        slope *= 0.5
        x.accumulate(g * slope)

    # 0.5 x (1 + t) in place: scaling by 0.5 is exact, so the order of the
    # products does not change the result
    out = 1.0 + t
    out *= xv
    out *= 0.5
    return _record(out, backward, x)


def cross_entropy(logits, targets):
    """Mean negative log-likelihood of integer targets under row softmaxes."""
    tgt = np.asarray(targets, dtype=np.int64)
    if tgt.ndim != 1:
        raise ShapeError(f"targets must be 1D, got {tgt.shape}")
    lv = value_of(logits)
    if lv.ndim != 2 or lv.shape[0] != tgt.shape[0]:
        raise ShapeError(f"logits {lv.shape} incompatible with {tgt.shape[0]} targets")
    shifted = lv - lv.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))  # kept for the backward
    rows = np.arange(tgt.shape[0])

    def backward(g):
        p = np.exp(logp)
        p[rows, tgt] -= 1.0
        logits.accumulate(p * (float(g) / tgt.shape[0]))

    return _record(np.asarray(-logp[rows, tgt].mean()), backward, logits)
