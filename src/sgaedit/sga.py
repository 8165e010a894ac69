"""Block-sparse attention guided by pooled low-resolution attention.

The mechanism: partition the token sequence into N equal blocks, pool a
dense low-resolution attention matrix into an N x N block-affinity matrix,
and for each query block keep its neighborhood plus the top-K highest-
affinity blocks outside it (`select_plans` does this for every head of a
layer in one sort). Attention is then evaluated only over kept blocks by
`sparse_attention`: one block-gather kernel over every head of a layer
(`block_index` lists each query block's kept key tokens, and
`tape.block_attention` evaluates them with one batched matmul). One kernel
serves training, full-pass inference and incremental decoding (which
calls `tape.block_attention` over a `block_index` built once per edit),
and it never materializes the full score matrix. Dense attention is not a
separate path but the plan that keeps every block: `full_plan(1)` over
`partition(L, 1)`, one block holding every token, runs the same kernel,
and its softmax weights are then the full attention maps.
`build_sparse_mask` expands a plan into the equivalent L x L mask for the
dense reference that the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from . import tape as T
from .errors import DegenerateRowError, ShapeError, ValidationError
from .numerics import as_array, avg_pool_matrix
from .rng import substream

NEG_INF = -np.inf


@dataclass(frozen=True)
class BlockPartition:
    """Assignment of each of `length` tokens to one of `n_blocks` blocks."""

    length: int
    n_blocks: int
    mode: str  # "contiguous" or "tile2d"
    block_of: np.ndarray = field(repr=False, compare=False)

    @property
    def block_size(self) -> int:
        return self.length // self.n_blocks

    @cached_property
    def tokens(self) -> np.ndarray:
        """n_blocks x block_size: the ascending token indices of every block."""
        return np.argsort(self.block_of, kind="stable").reshape(self.n_blocks, self.block_size)


def partition(
    length: int,
    n_blocks: int,
    mode: str = "contiguous",
    grid: Optional[tuple[int, int]] = None,
    tile_grid: Optional[tuple[int, int]] = None,
) -> BlockPartition:
    """Split `length` row-major tokens into `n_blocks` equal blocks.

    contiguous: token l goes to block l // (length / n_blocks).
    tile2d: tokens live on `grid` (H, W) and blocks are the tiles of a
    `tile_grid` (bh, bw) decomposition with bh * bw == n_blocks.
    """
    if n_blocks < 1 or length % n_blocks != 0:
        raise ShapeError(f"{n_blocks} blocks do not divide length {length}")
    if mode == "contiguous":
        block_of = np.arange(length, dtype=np.int64) // (length // n_blocks)
    elif mode == "tile2d":
        if grid is None or tile_grid is None:
            raise ShapeError("tile2d mode needs grid and tile_grid")
        h, w = grid
        bh, bw = tile_grid
        if h * w != length or bh * bw != n_blocks:
            raise ShapeError("grid/tile_grid inconsistent with length/n_blocks")
        if h % bh != 0 or w % bw != 0:
            raise ShapeError(f"tile grid {tile_grid} does not divide grid {grid}")
        th, tw = h // bh, w // bw
        rows = np.arange(h)[:, None] // th
        cols = np.arange(w)[None, :] // tw
        block_of = (rows * bw + cols).reshape(-1).astype(np.int64)
    else:
        raise ShapeError(f"unknown partition mode {mode!r}")
    return BlockPartition(length=length, n_blocks=n_blocks, mode=mode, block_of=block_of)


@dataclass(frozen=True)
class SparsityPlan:
    """Per query block, the sorted set of key blocks that stay visible."""

    n_blocks: int
    radius: int
    k: int
    kept: tuple[tuple[int, ...], ...]
    provenance: str
    layer: Optional[int] = None
    head: Optional[int] = None

    def __post_init__(self):
        if len(self.kept) != self.n_blocks:
            raise ShapeError("kept must list one set per query block")
        for r, ks in enumerate(self.kept):
            if r not in ks:
                raise ValidationError(f"query block {r} does not keep itself")
            if list(ks) != sorted(set(ks)):
                raise ValidationError(f"kept set of block {r} not sorted/unique")
            if ks[0] < 0 or ks[-1] >= self.n_blocks:  # sorted, so the ends bound the set
                raise ValidationError(f"kept set of block {r} out of range")

    def kept_count(self) -> int:
        return sum(len(ks) for ks in self.kept)

    @cached_property
    def keep(self) -> np.ndarray:
        """N x N read-only boolean matrix: keep[r, t] iff query block r keeps key block t."""
        keep = np.zeros((self.n_blocks, self.n_blocks), dtype=bool)
        for r, ks in enumerate(self.kept):
            keep[r, list(ks)] = True
        keep.flags.writeable = False
        return keep

    @staticmethod
    def from_keep(keep: np.ndarray, radius: int, k: int, provenance: str, layer=None, head=None) -> "SparsityPlan":
        """The plan whose N x N keep matrix is `keep`."""
        keep = np.array(keep, dtype=bool)
        n = keep.shape[0]
        rows, cols = np.nonzero(keep)
        cuts = np.searchsorted(rows, np.arange(1, n)).tolist()
        cols = cols.tolist()
        kept = tuple(tuple(cols[a:b]) for a, b in zip([0] + cuts, cuts + [len(cols)]))
        plan = SparsityPlan(n, radius, k, kept, provenance, layer=layer, head=head)
        keep.flags.writeable = False
        plan.__dict__["keep"] = keep  # fills the cached property
        return plan


def neighborhood(r: int, radius: int, n_blocks: int) -> list[int]:
    return list(range(max(0, r - radius), min(n_blocks, r + radius + 1)))


def block_affinity(a_low: np.ndarray, n_blocks: int) -> np.ndarray:
    """Pool a dense low-resolution attention matrix into N x N block means,
    or a stack of them ([..., L, L], such as every head of a layer) at once."""
    a_low = as_array(a_low)
    if a_low.ndim < 2 or a_low.shape[-1] != a_low.shape[-2]:
        raise ShapeError(f"expected a square attention matrix, got {a_low.shape}")
    size = a_low.shape[-1]
    if size % n_blocks != 0:
        raise ShapeError(f"{n_blocks} blocks do not divide attention size {size}")
    return avg_pool_matrix(a_low, size // n_blocks)


def _select_keep(b: np.ndarray, k: int, radius: int) -> np.ndarray:
    """Keep matrices [..., N, N] of neighborhood plus top-k plans over b [..., N, N].

    One stable sort per query row orders the blocks outside the
    neighborhood first, by descending affinity, ties toward the lowest
    block index; the first k of them join the neighborhood.
    """
    if b.ndim < 2 or b.shape[-1] != b.shape[-2]:
        raise ShapeError(f"block affinity must be square, got {b.shape}")
    if k < 0 or radius < 0:
        raise ValidationError("k and radius must be non-negative")
    blocks = np.arange(b.shape[-1])
    near = np.abs(blocks[:, None] - blocks[None, :]) <= radius
    order = np.lexsort((-b, np.broadcast_to(near, b.shape)), axis=-1)
    keep = np.array(np.broadcast_to(near, b.shape))
    # a k past the outside blocks picks neighbors too, which are kept already
    np.put_along_axis(keep, order[..., :k], True, axis=-1)
    return keep


def select_plan(
    b: np.ndarray,
    k: int,
    radius: int,
    provenance: str = "guided",
    layer: Optional[int] = None,
    head: Optional[int] = None,
) -> SparsityPlan:
    """Keep neighborhood blocks plus the top-k affinities outside it.

    Ties in the top-k are broken toward the lowest block index, which makes
    the plan a pure function of (b, k, radius).
    """
    b = as_array(b)
    if b.ndim != 2:
        raise ShapeError(f"block affinity must be square, got {b.shape}")
    return SparsityPlan.from_keep(_select_keep(b, k, radius), radius, k, provenance, layer=layer, head=head)


def select_plans(
    b: np.ndarray, k: int, radius: int, provenance: str = "guided", layer: Optional[int] = None
) -> list[SparsityPlan]:
    """`select_plan` for every head of one layer at once: b is H x N x N,
    and plan h (head h) equals select_plan(b[h], k, radius)."""
    b = as_array(b)
    if b.ndim != 3:
        raise ShapeError(f"expected H x N x N block affinities, got {b.shape}")
    keep = _select_keep(b, k, radius)
    return [SparsityPlan.from_keep(m, radius, k, provenance, layer=layer, head=h) for h, m in enumerate(keep)]


def variant_plan(
    kind: str,
    n_blocks: int,
    *,
    radius: int = 1,
    k: int = 3,
    window: int = 3,
    seed: Optional[int] = None,
    rng=None,
) -> SparsityPlan:
    """Ablation plan families: random, local, sliding, global.

    random: neighborhood plus k uniformly chosen non-neighbor blocks.
    local: neighborhood only. sliding: window of `window` blocks centered on
    the query block. global: random plan where additionally the first and
    last blocks are kept by everyone and attend to everything.
    """
    if kind == "local":
        kept = [tuple(neighborhood(r, radius, n_blocks)) for r in range(n_blocks)]
        return SparsityPlan(n_blocks, radius, 0, tuple(kept), "local")
    if kind == "sliding":
        if window < 1 or window % 2 == 0:
            raise ValidationError("sliding window must be odd and >= 1")
        half = window // 2
        kept = [tuple(neighborhood(r, half, n_blocks)) for r in range(n_blocks)]
        return SparsityPlan(n_blocks, half, 0, tuple(kept), "sliding")
    if kind in ("random", "global"):
        if rng is None:
            if seed is None:
                raise ValidationError(f"{kind} plans need a seed or rng")
            rng = substream(seed, f"variant-plan-{kind}")
        kept = []
        for r in range(n_blocks):
            nb = set(neighborhood(r, radius, n_blocks))
            outside = np.array([t for t in range(n_blocks) if t not in nb], dtype=np.int64)
            picks = rng.choice(outside, size=min(k, outside.size), replace=False) if outside.size else []
            kept.append(set(nb) | set(int(t) for t in picks))
        if kind == "global":
            for r in range(n_blocks):
                kept[r] |= {0, n_blocks - 1}
            kept[0] = set(range(n_blocks))
            kept[n_blocks - 1] = set(range(n_blocks))
        return SparsityPlan(n_blocks, radius, k, tuple(tuple(sorted(s)) for s in kept), kind)
    raise ValidationError(f"unknown plan kind {kind!r}")


def full_plan(n_blocks: int, provenance: str = "guided") -> SparsityPlan:
    """Degenerate plan keeping every block (reduces to dense attention)."""
    all_blocks = tuple(range(n_blocks))
    return SparsityPlan(n_blocks, 0, n_blocks, tuple(all_blocks for _ in range(n_blocks)), provenance)


def sparsity_ratio(plan: SparsityPlan) -> float:
    """Fraction of the block grid that stays visible: sum |kept(r)| / N^2."""
    return plan.kept_count() / float(plan.n_blocks**2)


def build_sparse_mask(plan: SparsityPlan, partition_q: BlockPartition, partition_k: BlockPartition) -> np.ndarray:
    """Expand a plan into an additive token-level mask (0 kept, -inf dropped)."""
    if partition_q.n_blocks != plan.n_blocks or partition_k.n_blocks != plan.n_blocks:
        raise ShapeError("partition block counts do not match plan")
    token_keep = plan.keep[np.ix_(partition_q.block_of, partition_k.block_of)]
    mask = np.where(token_keep, 0.0, NEG_INF)
    return mask


@dataclass(frozen=True)
class BlockIndex:
    """Gather index of the block kernel for one list of per-head plans.

    Only query blocks holding a token below the query prefix n_q appear
    (all N for a full-length query), in block order; N' counts them.
    rows [N', bs_q]: the query tokens of each such block.
    keys [H, N', K]: per (head, query block) the tokens of its live kept key
    blocks in kept order, padded with token 0 to the largest count K.
    valid [H, N', K]: False on padding and on keys at or past the key prefix.
    blocked [H, N', bs_q, K] or None: True where the kernel removes a score
    (invalid keys and, under the causal mask, keys after the query token).
    live_blocks: the (head, query block, key block) triples evaluated.
    """

    rows: np.ndarray
    keys: np.ndarray
    valid: np.ndarray
    blocked: Optional[np.ndarray]
    live_blocks: int


def block_index(
    plans: Sequence[SparsityPlan],
    partition_q: BlockPartition,
    partition_k: BlockPartition,
    causal: bool = False,
    n_q: Optional[int] = None,
    n_k: Optional[int] = None,
) -> BlockIndex:
    """Kept key tokens of every (head, query block), for queries [0, n_q)
    and keys [0, n_k) (default: the full partitions).

    A kept block with no visible key is left out: under the causal mask
    every block whose first token comes after the query block's last token
    (t > r for contiguous blocks), and every block wholly past the key
    prefix. Plans and their FLOP counts are unchanged; only the index
    skips them. Raises DegenerateRowError naming the token if a query row
    below n_q has no visible key.
    """
    n = partition_q.n_blocks
    if partition_k.n_blocks != n or any(p.n_blocks != n for p in plans):
        raise ShapeError("partition block counts do not match plan")
    n_q = partition_q.length if n_q is None else n_q
    n_k = partition_k.length if n_k is None else n_k
    tok_q, tok_k = partition_q.tokens, partition_k.tokens
    keep = np.stack([plan.keep for plan in plans])
    q_blocks = np.flatnonzero(tok_q[:, 0] < n_q)
    live = tok_k[None, :, 0] < n_k
    if causal:
        live = live & (tok_k[None, :, 0] <= tok_q[q_blocks, -1:])
    keep = keep[:, q_blocks] & live
    count = keep.sum(axis=-1)
    width = int(count.max())
    order = np.argsort(~keep, axis=-1, kind="stable")[..., :width]  # kept blocks first, ascending
    keys = tok_k[order]  # H x N' x width x bs_k
    valid = (np.arange(width) < count[..., None])[..., None] & (keys < n_k)
    shape = keys.shape[:2] + (-1,)
    keys, valid = np.where(valid, keys, 0).reshape(shape), valid.reshape(shape)
    rows = tok_q[q_blocks]
    visible = valid[:, :, None, :]
    if causal:
        visible = visible & (keys[:, :, None, :] <= rows[None, :, :, None])
    tiles = keys.shape[:2] + rows.shape[1:]
    dead = ~np.broadcast_to(visible.any(axis=-1), tiles)
    if (dead & (rows < n_q)).any():
        h, r, i = (int(a[0]) for a in np.nonzero(dead & (rows < n_q)))
        block = int(q_blocks[r])
        raise DegenerateRowError(
            f"query token {int(rows[r, i])} (block {block}, head {h}) has no visible key: "
            f"kept blocks {list(plans[h].kept[block])}, key prefix {n_k}, causal {causal}"
        )
    blocked = None
    if not visible.all():
        blocked = ~np.broadcast_to(visible, tiles + keys.shape[2:])
        blocked[dead] = False  # rows past the query prefix: computed, then dropped
    return BlockIndex(rows=rows, keys=keys, valid=valid, blocked=blocked, live_blocks=int(count.sum()))


@dataclass
class SparseAttentionResult:
    output: object  # n_q x (H * dh) array, or a tape Tensor when an input is one
    score_flops: int
    # score entries the kernel holds at once: every (head, query block) tile
    # of query tokens against padded kept keys, H x N' x bs_q x K
    peak_score_entries: int
    # read-only softmax weights [H, N', bs_q, K]: weights[h, n, i, j] is the
    # weight of query token rows[n, i] on key token keys[h, n, j] of the
    # call's `block_index` (0 on padding and blocked keys)
    weights: np.ndarray


def sparse_attention(
    q,
    k,
    v,
    plans: Union[SparsityPlan, Sequence[SparsityPlan]],
    partition_q: BlockPartition,
    partition_k: BlockPartition,
    causal: bool = False,
) -> SparseAttentionResult:
    """Multi-head attention evaluated only over kept key blocks.

    `plans` holds one plan per head (a single plan means one head); q is
    n_q x (H * dh) and k, v are n_k x (H * dh), heads side by side. Queries
    and keys may be prefixes of their partitions (n_q <= L_q, n_k <= L_k);
    `causal` additionally removes keys after each query token. Inputs may
    be tape Tensors: the kernel is one differentiable op. Equals dense
    attention under the expanded plan mask (and the causal mask) to float
    rounding, and reports the exact score FLOPs spent over live blocks:
    2 * dh * (L_q / N) * (L_k / N) per (head, query block, live kept block).
    """
    qv, kv = T.value_of(q), T.value_of(k)
    plans = [plans] if isinstance(plans, SparsityPlan) else list(plans)
    if qv.ndim != 2 or kv.ndim != 2 or not plans:
        raise ShapeError("q and k must be 2D, with at least one head plan")
    if not (1 <= qv.shape[0] <= partition_q.length and 1 <= kv.shape[0] <= partition_k.length):
        raise ShapeError("partitions do not match q/k lengths")
    index = block_index(plans, partition_q, partition_k, causal, qv.shape[0], kv.shape[0])
    weights = np.empty(index.keys.shape[:2] + index.rows.shape[1:] + index.keys.shape[2:])
    out = T.block_attention(q, k, v, index.rows, index.keys, index.blocked, weights=weights)
    weights.flags.writeable = False
    block_q, block_k = partition_q.block_size, partition_k.block_size
    return SparseAttentionResult(
        output=out,
        score_flops=2 * (qv.shape[1] // len(plans)) * index.live_blocks * block_q * block_k,
        peak_score_entries=weights.size,
        weights=weights,
    )


def score_flops_plan(plan: SparsityPlan, length_q: int, length_k: int, d: int) -> int:
    """Exact score-FLOP count of the block kernel for equal-size blocks."""
    bq = length_q // plan.n_blocks
    bk = length_k // plan.n_blocks
    return 2 * d * plan.kept_count() * bq * bk

