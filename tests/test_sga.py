import tracemalloc

import numpy as np
import pytest

from sgaedit import attention as att
from sgaedit import model as mdl
from sgaedit import sga
from sgaedit import tape as T
from sgaedit.errors import ShapeError, ValidationError
from sgaedit.rng import substream

from conftest import (
    affinities,
    causal_mask,
    causal_plans,
    combine_masks,
    dot,
    full_plan,
    grad_check,
    near,
    per_head_dense,
    per_row_sort_plan,
)


def select(b, k, radius):
    """The plan `select_plans` gives one head with affinities b."""
    return sga.select_plans(np.asarray(b)[None], k, near(len(b), radius))[0]


def sparsity(plan):
    """The share of the block grid `plan` keeps, as `PlanBundle.mean_sparsity` reports it."""
    return mdl.PlanBundle(enc=[[plan]], dec_self=[], dec_cross=[]).mean_sparsity()["enc"]


def own_block_only(n_blocks):
    return sga.SparsityPlan(np.eye(n_blocks, dtype=bool))


class TestPartition:
    def test_paper_scale_rows(self):
        # 64 x 64 token grid flattened to L=4096, 64 blocks: one grid row each.
        part = sga.partition(4096, 64)
        for l in range(4096):
            assert part.block_of[l] == l // 64
        assert part.block_size == 64

    def test_small_pairs(self):
        part = sga.partition(8, 4)
        assert part.block_of.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_low_res_four_token_blocks(self):
        part = sga.partition(256, 64)
        assert part.block_size == 4
        assert part.block_of[0] == part.block_of[3] == 0
        assert part.block_of[4] == 1

    def test_divisibility(self):
        with pytest.raises(ShapeError):
            sga.partition(10, 4)


class TestBlockAffinity:
    """`BlockPartition.pool` of attention maps into block affinities."""

    def test_constant(self):
        b = sga.partition(16, 4).pool(np.full((16, 16), 0.7))
        assert b.shape == (4, 4)
        assert np.allclose(b, 0.7)

    def test_paper_shape(self):
        assert sga.partition(256, 64).pool(np.zeros((256, 256))).shape == (64, 64)

    def test_against_block_mean_oracle(self):
        rng = substream(0, "affinity")
        a = rng.random((8, 8))
        b = sga.partition(8, 2).pool(a)
        for r in range(2):
            for t in range(2):
                expected = a[4 * r : 4 * r + 4, 4 * t : 4 * t + 4].mean()
                assert b[r, t] == pytest.approx(expected, abs=1e-12)


class TestPool:
    """`BlockPartition.pool` as non-overlapping mean pooling of a square matrix."""

    def test_constant(self):
        out = sga.partition(8, 2).pool(np.full((8, 8), 3.25))
        assert np.allclose(out, 3.25)
        assert out.shape == (2, 2)

    def test_two_by_two(self):
        out = sga.partition(2, 1).pool(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(2.5)

    def test_paper_shape_256_to_64(self):
        out = sga.partition(256, 64).pool(np.zeros((256, 256)))
        assert out.shape == (64, 64)

    def test_full_kernel_equals_global_mean(self):
        rng = substream(3, "pool")
        m = rng.normal(size=(12, 12))
        out = sga.partition(12, 1).pool(m)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(m.mean(), abs=1e-12)

    def test_non_divisible(self):
        with pytest.raises(ShapeError):
            sga.partition(6, 4)

    @pytest.mark.parametrize("shape", [(6,), (6, 4), (4, 6, 6), (3, 8, 8)], ids=str)
    def test_maps_must_span_the_partition(self, shape):
        """Only square maps over exactly the partition's tokens pool."""
        with pytest.raises(ShapeError):
            sga.partition(4, 2).pool(np.zeros(shape))


class TestSparsityPlan:
    def test_non_square_rejected(self):
        for keep in (np.ones((3, 4), dtype=bool), np.ones(3, dtype=bool)):
            with pytest.raises(ShapeError):
                sga.SparsityPlan(keep)

    def test_block_must_keep_itself(self):
        keep = np.ones((4, 4), dtype=bool)
        keep[2, 2] = False
        with pytest.raises(ValidationError, match="query block 2"):
            sga.SparsityPlan(keep)

    def test_keep_is_read_only_copy(self):
        keep = np.eye(4, dtype=bool)
        plan = sga.SparsityPlan(keep)
        with pytest.raises(ValueError):
            plan.keep[0, 1] = True
        keep[0, 1] = True  # the caller's array is not the plan's
        assert not plan.keep[0, 1]

    def test_kept_is_per_row_flatnonzero(self):
        keep = substream(16, "plan-keep").random((9, 9)) < 0.4
        np.fill_diagonal(keep, True)
        plan = sga.SparsityPlan(keep)
        assert plan.kept == tuple(tuple(np.flatnonzero(row).tolist()) for row in keep)
        assert all(type(t) is int for row in plan.kept for t in row)
        assert plan.n_blocks == 9 and plan.kept_count() == int(keep.sum())


class TestSelectPlan:
    def test_k_zero_is_neighborhood_only(self):
        b = substream(1, "plan").random((8, 8))
        plan = select(b, k=0, radius=1)
        for r in range(8):
            assert plan.kept[r] == tuple(range(max(0, r - 1), min(8, r + 2)))

    def test_paper_sparsity_count(self):
        b = substream(2, "plan64").random((64, 64))
        plan = select(b, k=3, radius=1)
        # 62 interior blocks keep 3+3, the 2 edge blocks keep 2+3.
        assert plan.kept_count() == 62 * 6 + 2 * 5 == 382
        ratio = sparsity(plan)
        assert ratio == 382 / 4096
        assert ratio <= 6 / 64 < 0.10
        # the `random` baseline at the same shape keeps as many blocks
        random = sga.variant_plan("random", near(64, 1), k=3, rng=substream(1, "variant-plan-random"))
        assert random.kept_count() == 382

    def test_explicit_row_example(self):
        b = np.zeros((8, 8))
        b[0] = [0.9, 0.1, 0.2, 0.8, 0.7, 0.3, 0.5, 0.4]
        plan = select(b, k=2, radius=1)
        assert plan.kept[0] == (0, 1, 3, 4)

    def test_tie_break_lowest_index(self):
        b = np.zeros((6, 6))  # all ties
        plan = select(b, k=2, radius=1)
        assert plan.kept[0] == (0, 1, 2, 3)  # neighborhood {0,1} + first two outside

    def test_deterministic_serialization(self):
        b = substream(3, "plan-det").random((16, 16))
        assert select(b, k=3, radius=1).kept == select(b.copy(), k=3, radius=1).kept

    def test_positive_scaling_invariance(self):
        rng = substream(4, "plan-scale")
        for _ in range(10):
            b = rng.random((12, 12))
            base = select(b, k=2, radius=1)
            for factor in (0.25, 3.0, 1e6):
                assert select(b * factor, k=2, radius=1).kept == base.kept

    @pytest.mark.parametrize("size", [3, 5])
    def test_near_must_match_block_count(self, size):
        b = substream(5, "plan-near").random((2, 4, 4))
        with pytest.raises(ShapeError):
            sga.select_plans(b, 1, near(size, 1))

    def test_negative_k_rejected(self):
        with pytest.raises(ValidationError):
            sga.select_plans(np.zeros((1, 4, 4)), -1, near(4, 1))

    @pytest.mark.parametrize("kind", ["random", "rounded", "zero", "equal"])
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_matches_per_row_sort_oracle(self, kind, n):
        """The one-sort selection over a stack of heads equals a per-row
        Python sort of each head, ties included."""
        b = affinities(kind, (3, n, n), seed=n)
        for k in (0, 1, 3, n):
            for radius in (0, 1, 2):
                want = [per_row_sort_plan(b[h], k, radius) for h in range(3)]
                got = sga.select_plans(b, k, near(n, radius))
                assert [p.kept for p in got] == [p.kept for p in want]
                for h in range(3):
                    assert np.array_equal(got[h].keep, want[h].keep)


class TestBuildSparseMask:
    def test_full_plan_is_dense(self):
        mask = sga.build_sparse_mask(full_plan(4), 12)
        assert (mask == 0.0).all()

    def test_own_block_only_is_block_diagonal(self):
        mask = sga.build_sparse_mask(own_block_only(4), 8)
        for r in range(8):
            for t in range(8):
                assert (mask[r, t] == 0.0) == (r // 2 == t // 2)

    def test_token_level_membership_oracle(self):
        rng = substream(5, "mask-oracle")
        part = sga.partition(32, 8)
        plan = select(rng.random((8, 8)), k=2, radius=1)
        mask = sga.build_sparse_mask(plan, 32)
        for r in range(32):
            for t in range(32):
                keep = part.block_of[t] in plan.kept[part.block_of[r]]
                assert (mask[r, t] == 0.0) == keep


class TestSparseAttention:
    def test_full_plan_reduces_to_dense(self):
        rng = substream(6, "sparse-full")
        q, k, v = (rng.normal(size=(16, 8)) for _ in range(3))
        res = sga.sparse_attention(q, k, v, [full_plan(4)])
        dense, _ = att.dense_attention(q, k, v, np.zeros((16, 16)))
        assert np.abs(res.output - dense).max() <= 1e-6

    def test_own_block_size_one_returns_own_value(self):
        rng = substream(7, "sparse-own")
        q, k, v = (rng.normal(size=(6, 4)) for _ in range(3))
        res = sga.sparse_attention(q, k, v, [own_block_only(6)])
        assert np.abs(res.output - v).max() <= 1e-12

    @pytest.mark.parametrize("length,n_blocks", [(16, 4), (64, 8), (256, 16)])
    def test_matches_dense_oracle_with_expanded_mask(self, length, n_blocks):
        rng = substream(length, "sparse-oracle")
        for trial in range(5):
            q, k, v = (rng.normal(size=(length, 8)) for _ in range(3))
            plan = select(rng.random((n_blocks, n_blocks)), k=2, radius=1)
            res = sga.sparse_attention(q, k, v, [plan])
            dense, _ = att.dense_attention(q, k, v, sga.build_sparse_mask(plan, length))
            assert np.abs(res.output - dense).max() <= 1e-5

    def test_never_materializes_full_scores(self):
        rng = substream(8, "sparse-peak")
        q, k, v = (rng.normal(size=(64, 8)) for _ in range(3))
        plan = select(rng.random((8, 8)), k=1, radius=1)
        res = sga.sparse_attention(q, k, v, [plan])
        assert res.weights.size < 64 * 64

    def test_reported_flops_match_cost_model(self):
        rng = substream(9, "sparse-flops")
        q, k, v = (rng.normal(size=(64, 16)) for _ in range(3))
        plan = select(rng.random((8, 8)), k=2, radius=1)
        res = sga.sparse_attention(q, k, v, [plan])
        assert res.score_flops == sga.score_flops_plan(plan, 64, 16)
        assert res.score_flops == 2 * 16 * plan.kept_count() * 8 * 8

    def test_causal_extra_mask(self):
        rng = substream(10, "sparse-causal")
        q, k, v = (rng.normal(size=(16, 4)) for _ in range(3))
        plan = select(rng.random((4, 4)), k=1, radius=1)
        causal = causal_mask(16)
        got = T.block_attention(q, k, v, sga.block_index(causal_plans([plan]), 16), first=0)
        dense, _ = att.dense_attention(q, k, v, combine_masks(sga.build_sparse_mask(plan, 16), causal))
        assert np.abs(got - dense).max() <= 1e-5

    def test_kept_weight_rows_are_stochastic(self):
        # on the dense oracle: rows sum to one and put no weight outside kept blocks
        rng = substream(11, "sparse-weights")
        q, k, v = (rng.normal(size=(32, 8)) for _ in range(3))
        plan = select(rng.random((8, 8)), k=2, radius=1)
        mask = sga.build_sparse_mask(plan, 32)
        _, weights = att.dense_attention(q, k, v, mask)
        assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-9
        assert (weights[np.isneginf(mask)] == 0.0).all()

    def test_q_and_k_must_be_the_whole_sequence(self):
        """The length is q's rows, and k must have as many."""
        q = np.zeros((4, 2))
        for args in ((q[:2], q, q), (q, q[:2], q[:2])):
            with pytest.raises(ShapeError):
                sga.sparse_attention(*args, [own_block_only(2)])


def head_plans(n_blocks, seed):
    """Three heads whose kept counts differ per head and per block, so the
    kernel pads: a guided top-1 plan, a global plan and a local plan."""
    rng = substream(seed, "kernel-plans")
    return [
        select(rng.random((n_blocks, n_blocks)), k=1, radius=1),
        sga.variant_plan("global", near(n_blocks, 1), k=1, rng=rng),
        sga.variant_plan("local", near(n_blocks, 1), k=0),
    ]


def kernel_pass(q, k, v, plans, length, causal):
    """`sparse_attention`, or under the causal mask the kernel over the
    causal plans' index with rows from token 0, as the decoder's whole pass
    runs it."""
    if not causal:
        return sga.sparse_attention(q, k, v, plans).output
    return T.block_attention(q, k, v, sga.block_index(causal_plans(plans), length), first=0)


def expanded_mask_oracle(q, k, v, plans, length, causal):
    """Per head, dense attention under the expanded plan mask (and the causal
    mask), heads concatenated; accepts tape Tensors."""
    masks = [sga.build_sparse_mask(plan, length) for plan in plans]
    if causal:
        masks = [combine_masks(mask, causal_mask(length)) for mask in masks]
    return per_head_dense(q, k, v, masks)[0]


class TestBlockGatherKernel:
    """The head-batched kernel against the expanded-mask dense oracle."""

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    @pytest.mark.parametrize("n_q", [32], ids=["whole"])  # the kernel takes whole query blocks only
    def test_matches_expanded_mask_oracle(self, taped, causal, n_q):
        plans = head_plans(8, seed=n_q)
        rng = substream(n_q + 2 * causal, "kernel")
        q, k, v = (rng.normal(size=(n_q, 6)) for _ in range(3))
        probe = rng.normal(size=(n_q, 6))
        if not taped:
            got = kernel_pass(q, k, v, plans, 32, causal)
            want = expanded_mask_oracle(q, k, v, plans, 32, causal)
            assert np.abs(got - want).max() <= 1e-12
            return
        grads = []
        for attend in (
            lambda a, b, c: kernel_pass(a, b, c, plans, 32, causal),
            lambda a, b, c: expanded_mask_oracle(a, b, c, plans, 32, causal),
        ):
            tape = T.GradTape()
            leaves = [tape.param(x) for x in (q, k, v)]
            out = attend(*leaves)
            tape.backward(dot(out, probe))
            grads.append([out.value] + [leaf.grad for leaf in leaves])
        for got, want in zip(*grads):
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("operand", [0, 1, 2], ids=["q", "k", "v"])
    def test_grad_check(self, operand):
        plans = head_plans(4, seed=3)[:2]
        rng = substream(operand, "kernel-grad")
        qkv = [rng.normal(size=(16, 4)) for _ in range(3)]
        probe = rng.normal(size=(16, 4))

        def f(x):
            args = list(qkv)
            args[operand] = x
            out = kernel_pass(*args, plans, 16, causal=True)
            return dot(out, probe)

        assert grad_check(f, qkv[operand], step=1e-5) <= 1e-5

    def test_forward_retains_only_output_and_weights(self):
        """On tape tensors at 32x32 tokens, 4 heads and 64 blocks, what the
        forward keeps for the backward is its output and softmax weights;
        no gathered key or value copy outlives the call."""
        rng = substream(0, "kernel-memory")
        heads, n_blocks, length, dh = 4, 64, 1024, 16
        keys = sga.block_index(sga.select_plans(rng.random((heads, n_blocks, n_blocks)), 3, near(n_blocks, 1)), length)
        tape = T.GradTape()
        q, k, v = (tape.param(rng.normal(size=(length, heads * dh))) for _ in range(3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = T.block_attention(q, k, v, keys)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        weights = heads * n_blocks * (length // n_blocks) * keys.shape[-1] * 8
        assert retained <= out.value.nbytes + weights + 256 * 1024

    def test_score_flops_count_live_blocks(self):
        """`sparse_attention` counts every kept block of its plans, which are
        the keys its index lists; causal plans keep the live blocks only."""
        plans = head_plans(8, seed=5)
        rng = substream(12, "kernel-flops")
        q, k, v = (rng.normal(size=(64, 6)) for _ in range(3))
        full = sga.sparse_attention(q, k, v, plans)
        assert full.score_flops == sum(sga.score_flops_plan(p, 64, 2) for p in plans)
        assert full.score_flops == 2 * 2 * np.count_nonzero(sga.block_index(plans, 64) < 64) * 8
        live = sum(t <= r for p in plans for r, ks in enumerate(p.kept) for t in ks)
        causal = causal_plans(plans)
        assert sum(p.kept_count() for p in causal) == live
        assert np.count_nonzero(sga.block_index(causal, 64) < 64) == live * 8
        assert sga.sparse_attention(q, k, v, causal).score_flops == 2 * 2 * live * 8 * 8
        assert live < sum(p.kept_count() for p in plans)

    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    def test_rows_part_of_a_block(self, causal):
        """A run of rows inside one block, passed as one query block with its
        first token as `first` under the causal mask, gives those rows of
        the whole pass."""
        plans = head_plans(8, seed=7)
        rng = substream(21 + causal, "kernel-rows")
        q, k, v = (rng.normal(size=(32, 6)) for _ in range(3))
        want = expanded_mask_oracle(q, k, v, plans, 32, causal)
        keys = sga.block_index(causal_plans(plans) if causal else plans, 32)
        for b, lo, hi in ((0, 0, 1), (3, 1, 3), (5, 2, 4), (7, 3, 4)):
            tokens = slice(4 * b + lo, 4 * b + hi)
            got = T.block_attention(q[tokens], k, v, keys[:, b : b + 1], tokens.start if causal else None)
            assert np.abs(got - want[tokens]).max() <= 1e-12

    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    def test_zero_query_rows_dropped(self, causal):
        """Rows [first, stop) across blocks, padded with zero query rows on
        both sides to whole blocks, whose first token is `first` under the
        causal mask: the rows kept equal the whole pass."""
        plans = head_plans(8, seed=8)
        rng = substream(23 + causal, "kernel-zero-rows")
        q, k, v = (rng.normal(size=(32, 6)) for _ in range(3))
        want = expanded_mask_oracle(q, k, v, plans, 32, causal)
        keys = sga.block_index(causal_plans(plans) if causal else plans, 32)
        for first, stop in ((5, 11), (9, 16), (1, 32), (3, 5)):
            blocks = slice(first // 4, (stop - 1) // 4 + 1)
            base = 4 * blocks.start
            q_run = np.zeros((4 * blocks.stop - base, 6))
            q_run[first - base : stop - base] = q[first:stop]
            got = T.block_attention(q_run, k, v, keys[:, blocks], base if causal else None)
            assert np.abs(got[first - base : stop - base] - want[first:stop]).max() <= 1e-12

    def test_query_rows_must_be_whole_blocks(self):
        keys = sga.block_index(head_plans(8, seed=9), 32)
        q = np.zeros((30, 6))
        with pytest.raises(ShapeError):
            T.block_attention(q, q, q, keys)

    @pytest.mark.parametrize("token", [-1, 33], ids=["below", "above"])
    def test_key_outside_tokens_rejected(self, token):
        """Keys lie in [0, n_k], n_k being the padding sentinel; any other
        key is an error, not padding."""
        keys = sga.block_index(head_plans(8, seed=9), 32)
        keys[1, 2, 0] = token
        q = np.zeros((32, 6))
        with pytest.raises(ShapeError):
            T.block_attention(q, q, q, keys)

    def test_head_plans_must_share_block_count(self):
        with pytest.raises(ShapeError, match="block count"):
            sga.block_index([full_plan(4), full_plan(8)], 32)

    def test_causal_index_drops_dead_blocks(self):
        keys = sga.block_index(causal_plans([full_plan(8)]), 32)
        assert np.count_nonzero(keys < 32) == 4 * 8 * 9 // 2  # key blocks t <= r
        for r in range(8):
            live = 4 * (r + 1)
            assert keys[0, r, :live].tolist() == list(range(live))
            assert (keys[0, r, live:] == 32).all()  # padding is the sentinel token

    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    @pytest.mark.parametrize("per_block", [1, 4])
    @pytest.mark.parametrize("n_blocks", [1, 2, 4, 8, 16])
    def test_every_row_sees_a_key(self, n_blocks, per_block, causal):
        """Every plan keeps its own block, so every row of any index, even
        of the sparsest plans, sees a key: one that is not the sentinel and,
        under the causal mask, is not after the row's own token."""
        rng = substream(n_blocks * per_block + causal, "index-rows")
        families = [
            [full_plan(n_blocks)],
            [sga.variant_plan("local", near(n_blocks, 0), k=0)],
            [sga.variant_plan("random", near(n_blocks, 0), k=1, rng=rng)],
            [sga.variant_plan("global", near(n_blocks, 0), k=1, rng=rng)],
            sga.select_plans(rng.random((2, n_blocks, n_blocks)), k=1, near=near(n_blocks, 0)),
        ]
        for plans in families + [[p for family in families for p in family]]:
            length = n_blocks * per_block
            keys = sga.block_index(causal_plans(plans) if causal else plans, length)
            last = sga.partition(length, n_blocks).tokens[..., None] if causal else length - 1
            assert (keys[:, :, None, :] <= last).any(axis=-1).all()


class TestVariantPlans:
    def test_local_equals_select_plan_k0(self):
        b = substream(12, "var").random((8, 8))
        assert sga.variant_plan("local", near(8, 1), k=0).kept == select(b, k=0, radius=1).kept

    def test_global_first_and_last_blocks(self):
        plan = sga.variant_plan("global", near(8, 1), k=2, rng=substream(3, "variant-plan-global"))
        assert plan.kept[0] == tuple(range(8))
        assert plan.kept[7] == tuple(range(8))
        for r in range(1, 7):
            assert 0 in plan.kept[r] and 7 in plan.kept[r]

    def test_random_seeded_reproducible(self):
        one = sga.variant_plan("random", near(16, 1), k=3, rng=substream(11, "variant-plan-random"))
        two = sga.variant_plan("random", near(16, 1), k=3, rng=substream(11, "variant-plan-random"))
        other = sga.variant_plan("random", near(16, 1), k=3, rng=substream(12, "variant-plan-random"))
        assert one.kept == two.kept
        assert one.kept != other.kept  # overwhelmingly likely

    def test_local_window(self):
        plan = sga.variant_plan("local", near(8, 2), k=0)
        assert plan.kept[4] == (2, 3, 4, 5, 6)
        assert plan.kept[0] == (0, 1, 2) and plan.kept[7] == (5, 6, 7)
        for kind in ("sliding", "oracle", "guided"):
            with pytest.raises(ValidationError, match=f"unknown plan kind '{kind}'"):
                sga.variant_plan(kind, near(8, 1), k=3)

    def test_random_respects_neighborhood_and_k(self):
        plan = sga.variant_plan("random", near(16, 1), k=3, rng=substream(0, "variant-plan-random"))
        for r in range(16):
            kept = set(plan.kept[r])
            window = set(range(max(0, r - 1), min(16, r + 2)))
            assert window <= kept
            assert len(kept - window) <= 3

    @pytest.mark.parametrize("kind", ["local", "random", "global"])
    def test_near_is_not_modified(self, kind):
        """One neighborhood serves every head's plan, so no plan writes to it."""
        window = near(8, 1)
        sga.variant_plan(kind, window, k=3, rng=substream(5, "variant-near"))
        assert np.array_equal(window, near(8, 1))

    @pytest.mark.parametrize("kind", ["random", "global"])
    def test_draws_match_set_based_reference(self, kind):
        """The same `rng.choice` calls, over each row's ascending outside
        blocks, as a per-row set construction of the plan."""
        n, radius, k = 12, 1, 3
        rng = substream(17, "variant-reference")
        kept = []
        for r in range(n):
            window = set(range(max(0, r - radius), min(n, r + radius + 1)))
            outside = np.array([t for t in range(n) if t not in window], dtype=np.int64)
            kept.append(window | {int(t) for t in rng.choice(outside, size=min(k, outside.size), replace=False)})
        if kind == "global":
            kept = [set(range(n)) if r in (0, n - 1) else s | {0, n - 1} for r, s in enumerate(kept)]
        plan = sga.variant_plan(kind, near(n, radius), k=k, rng=substream(17, "variant-reference"))
        assert plan.kept == tuple(tuple(sorted(s)) for s in kept)


class TestSparsityRatio:
    def test_full_plan(self):
        assert sparsity(full_plan(8)) == 1.0

    def test_own_block_only(self):
        assert sparsity(own_block_only(8)) == 1.0 / 8

    def test_guided_bound(self):
        plan = select(substream(13, "ratio").random((64, 64)), k=3, radius=1)
        assert sparsity(plan) <= 6 / 64


def test_full_kept_guided_plan_reproduces_dense_exactly():
    # keep everything: k = N - |neighborhood| per query block
    b = substream(14, "full-guided").random((8, 8))
    plan = select(b, k=8, radius=1)
    assert plan.kept == tuple(tuple(range(8)) for _ in range(8))
    rng = substream(15, "full-guided-qkv")
    q, k, v = (rng.normal(size=(32, 8)) for _ in range(3))
    res = sga.sparse_attention(q, k, v, [plan])
    dense, _ = att.dense_attention(q, k, v, np.zeros((32, 32)))
    assert np.abs(res.output - dense).max() <= 1e-6
