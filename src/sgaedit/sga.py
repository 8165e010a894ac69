"""Block-sparse attention guided by pooled low-resolution attention.

The mechanism: split the row-major token sequence into N equal contiguous
blocks, pool a dense low-resolution attention matrix into an N x N
block-affinity matrix, and for each query block keep its neighborhood (a
`band` of blocks) plus the top-K highest-affinity blocks outside it
(`select_plans` does this for every head of a layer in one sort). A plan,
`SparsityPlan`, is nothing but that N x N boolean keep matrix; its block
layout is fixed by N and the sequence length, and it holds only what its
attention can see (`model.PlanBundle` makes causal plans lower
triangular). Attention is then evaluated only over kept blocks by
`sparse_attention`: one block-gather kernel over every head of a layer
(`block_index`, one int array, lists each query block's kept key tokens
padded with the sentinel token `length`, and `tape.block_attention`
evaluates them with one batched matmul, reading query block n as rows
[n * bs, (n + 1) * bs) and masking the padding and, when asked, the keys
after each query token). One kernel serves every head (the decoder calls
`tape.block_attention` over a `block_index` it builds once), and it
never materializes the full score matrix. Dense
attention is not a separate path but the plan that keeps every block:
`full_plan(1)`, one block holding every token, runs the same kernel, and
its softmax weights are then the full attention maps. `build_sparse_mask`
expands a plan into the equivalent L x L mask for the dense reference that
the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import tape as T
from .errors import ShapeError, ValidationError

NEG_INF = -np.inf


@dataclass(frozen=True)
class BlockPartition:
    """`length` row-major tokens split into `n_blocks` equal contiguous runs:
    block b holds tokens [b * block_size, (b + 1) * block_size)."""

    length: int
    n_blocks: int

    @property
    def block_size(self) -> int:
        return self.length // self.n_blocks

    @cached_property
    def block_of(self) -> np.ndarray:
        """length: the block of every token."""
        return np.arange(self.length, dtype=np.int64) // self.block_size

    @cached_property
    def tokens(self) -> np.ndarray:
        """n_blocks x block_size: the ascending token indices of every block."""
        return np.arange(self.length, dtype=np.int64).reshape(self.n_blocks, self.block_size)


def partition(length: int, n_blocks: int) -> BlockPartition:
    """Split `length` row-major tokens into `n_blocks` equal contiguous blocks."""
    if n_blocks < 1 or length % n_blocks != 0:
        raise ShapeError(f"{n_blocks} blocks do not divide length {length}")
    return BlockPartition(length=length, n_blocks=n_blocks)


@dataclass(frozen=True, eq=False)
class SparsityPlan:
    """N x N read-only boolean matrix: keep[r, t] iff query block r keeps
    key block t. Every block keeps itself."""

    keep: np.ndarray

    def __post_init__(self):
        keep = np.array(self.keep, dtype=bool)
        if keep.ndim != 2 or keep.shape[0] != keep.shape[1]:
            raise ShapeError(f"keep must be a square matrix, got {keep.shape}")
        if not keep.diagonal().all():
            raise ValidationError(f"query block {int(np.argmin(keep.diagonal()))} does not keep itself")
        keep.flags.writeable = False
        object.__setattr__(self, "keep", keep)

    @property
    def n_blocks(self) -> int:
        return self.keep.shape[0]

    @cached_property
    def kept(self) -> tuple[tuple[int, ...], ...]:
        """Per query block, its kept key blocks in ascending order."""
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.keep)

    def kept_count(self) -> int:
        return int(self.keep.sum())


def band(n_blocks: int, radius: int) -> np.ndarray:
    """N x N keep matrix of the neighborhoods: every block within `radius` of the query block."""
    blocks = np.arange(n_blocks)
    return np.abs(blocks[:, None] - blocks[None, :]) <= radius


def block_affinity(a_low: np.ndarray, n_blocks: int) -> np.ndarray:
    """Pool a dense low-resolution attention matrix into N x N block means,
    or a stack of them ([..., L, L], such as every head of a layer) at once."""
    a_low = T.value_of(a_low)
    if a_low.ndim < 2 or a_low.shape[-1] != a_low.shape[-2]:
        raise ShapeError(f"expected a square attention matrix, got {a_low.shape}")
    size = a_low.shape[-1]
    if n_blocks < 1 or size % n_blocks != 0:
        raise ShapeError(f"{n_blocks} blocks do not divide attention size {size}")
    bs = size // n_blocks
    return a_low.reshape(a_low.shape[:-2] + (n_blocks, bs, n_blocks, bs)).mean(axis=(-3, -1))


def select_plans(b: np.ndarray, k: int, radius: int) -> list[SparsityPlan]:
    """Per head of one layer (b is H x N x N block affinities), keep the
    neighborhood blocks plus the top-k affinities outside it.

    One stable sort per query row orders the blocks outside the
    neighborhood first, by descending affinity, ties toward the lowest
    block index, which makes each plan a pure function of (b[h], k,
    radius); the first k of them join the neighborhood. The neighborhood
    sorts last under the key +inf, above every affinity: affinities are
    block means of softmax weights, so they are finite and >= 0.
    """
    b = T.value_of(b)
    if b.ndim != 3 or b.shape[-1] != b.shape[-2]:
        raise ShapeError(f"expected H x N x N block affinities, got {b.shape}")
    if k < 0 or radius < 0:
        raise ValidationError("k and radius must be non-negative")
    near = band(b.shape[-1], radius)
    order = np.argsort(np.where(near, np.inf, -b), axis=-1, kind="stable")
    keep = np.array(np.broadcast_to(near, b.shape))
    # a k past the outside blocks picks neighbors too, which are kept already
    np.put_along_axis(keep, order[..., :k], True, axis=-1)
    return [SparsityPlan(m) for m in keep]


def variant_plan(kind: str, n_blocks: int, *, radius: int, k: int, rng=None) -> SparsityPlan:
    """The fixed plan families that guided plans are compared with: local,
    random, global; `evalbench`'s ablation makes every fixed plan here.

    local: neighborhood only, the 2 * radius + 1 blocks centered on the
    query block (k is not read). random: neighborhood plus k uniformly
    chosen non-neighbor blocks. global: random plan where additionally the
    first and last blocks are kept by everyone and attend to everything.
    random and global draw their blocks from the generator `rng`.
    """
    if kind == "local":
        return SparsityPlan(band(n_blocks, radius))
    if kind in ("random", "global"):
        keep = band(n_blocks, radius)
        for r in range(n_blocks):
            outside = np.flatnonzero(~keep[r])
            if outside.size:
                keep[r, rng.choice(outside, size=min(k, outside.size), replace=False)] = True
        if kind == "global":
            keep[:, [0, -1]] = True
            keep[[0, -1]] = True
        return SparsityPlan(keep)
    raise ValidationError(f"unknown plan kind {kind!r}")


def full_plan(n_blocks: int) -> SparsityPlan:
    """Degenerate plan keeping every block (reduces to dense attention)."""
    return SparsityPlan(band(n_blocks, n_blocks))


def sparsity_ratio(plan: SparsityPlan) -> float:
    """Fraction of the block grid that stays visible: sum |kept(r)| / N^2."""
    return plan.kept_count() / float(plan.n_blocks**2)


def build_sparse_mask(plan: SparsityPlan, length: int) -> np.ndarray:
    """Expand a plan over `length` tokens into an additive token-level mask
    (0 kept, -inf dropped)."""
    block_of = partition(length, plan.n_blocks).block_of
    return np.where(plan.keep[np.ix_(block_of, block_of)], 0.0, NEG_INF)


def block_index(plans: Sequence[SparsityPlan], length: int) -> np.ndarray:
    """Gather index of the block kernel for one list of per-head plans over
    `length` tokens in the plans' contiguous blocks: [H, N, K], per (head,
    query block) the tokens of its kept key blocks in ascending order,
    padded with the sentinel token `length` to the largest count K.

    Every query row sees a key: each plan keeps its own block, which holds
    the row's own token. Under the causal mask the kernel itself hides the
    keys after each query token.
    """
    n = plans[0].n_blocks
    if any(p.n_blocks != n for p in plans):
        raise ShapeError("head plans differ in block count")
    tokens = partition(length, n).tokens
    keep = np.stack([plan.keep for plan in plans])
    count = keep.sum(axis=-1)
    width = int(count.max())
    order = np.argsort(~keep, axis=-1, kind="stable")[..., :width]  # kept blocks first, ascending
    valid = (np.arange(width) < count[..., None])[..., None]
    return np.where(valid, tokens[order], length).reshape(keep.shape[:2] + (-1,))


@dataclass
class SparseAttentionResult:
    output: object  # length x (H * dh) array, or a tape Tensor when an input is one
    score_flops: int
    # read-only softmax weights [H, N, bs, K]: weights[h, n, i, j] is the
    # weight of query token n * bs + i on key token keys[h, n, j] of the
    # call's `block_index` (0 on the padding token); every (head, query
    # block) tile the kernel holds at once
    weights: np.ndarray


def sparse_attention(q, k, v, plans: Sequence[SparsityPlan]) -> SparseAttentionResult:
    """Multi-head attention evaluated only over kept key blocks.

    q, k and v are L x (H * dh), heads side by side, and `plans` holds one
    plan per head over the L tokens in contiguous blocks. Inputs may be
    tape Tensors: the kernel is one differentiable op. Equals dense
    attention under the expanded plan mask to float rounding, and reports
    the exact score FLOPs spent over kept blocks, `score_flops_plan` summed
    over the heads.
    """
    qv, kv = T.value_of(q), T.value_of(k)
    if qv.ndim != 2 or kv.ndim != 2 or not plans:
        raise ShapeError("q and k must be 2D, with at least one head plan")
    length = qv.shape[0]
    if kv.shape[0] != length:
        raise ShapeError(f"k has {kv.shape[0]} rows, q has {length}")
    keys = block_index(plans, length)
    weights = np.empty(keys.shape[:2] + (length // plans[0].n_blocks,) + keys.shape[2:])
    out = T.block_attention(q, k, v, keys, weights=weights)
    weights.flags.writeable = False
    flops = sum(score_flops_plan(plan, length, qv.shape[1] // len(plans)) for plan in plans)
    return SparseAttentionResult(output=out, score_flops=flops, weights=weights)


def score_flops_plan(plan: SparsityPlan, length: int, d: int) -> int:
    """Exact score-FLOP count of the block kernel over `length` tokens."""
    bs = length // plan.n_blocks
    return 2 * d * plan.kept_count() * bs * bs
