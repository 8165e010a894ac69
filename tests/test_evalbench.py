import dataclasses
import gc
import tracemalloc
import weakref
from collections import deque

import numpy as np
import pytest

from sgaedit import attention as att
from sgaedit import evalbench as eb
from sgaedit import model as mdl
from sgaedit import sampler, sga
from sgaedit import tape as T
from sgaedit.errors import DivergenceError, ValidationError
from sgaedit.quantizer import apply_mask
from sgaedit.rng import substream

from conftest import DenseBlockAttention, plan_masks

CFG = mdl.ModelConfig(
    d=16,
    layers_enc=1,
    layers_dec=1,
    heads=2,
    vocab=8,
    vocab_map=3,
    grid_high=(4, 4),
    grid_low=(2, 2),
    blocks=4,
    top_k=2,
    radius=1,
    ffw=32,
)
DENSE = mdl.PlanBundle.dense(CFG)


def dense_plans(step):
    return DENSE


class TestTasks:
    @pytest.mark.parametrize("kind", eb.TASK_KINDS)
    def test_thousand_samples_satisfy_constraint(self, kind):
        task = eb.SyntheticTask(kind, 8, 8, 16)
        rng = substream(0, f"task-{kind}")
        for _ in range(1000):
            x, p = task.sample(rng)
            assert task.check(x)
            assert not x.masked_positions().any()
            assert (p.tokens == 0).all()

    def test_mirror_constraint_definition(self):
        task = eb.SyntheticTask("mirror", 8, 8, 16)
        x, _ = task.sample(substream(1, "mirror"))
        for i in range(4):
            assert np.array_equal(x.tokens[7 - i], x.tokens[i])

    def test_mirror_source_distance_exceeds_radius1_window(self):
        # bottom-row tokens depend on content >= half the grid away
        task = eb.SyntheticTask("mirror", 8, 8, 16)
        si, sj = task.source_position(7, 3)
        assert (si, sj) == (0, 3)
        assert abs(7 - si) >= 4

    def test_mask_region_keeps_sources_visible(self):
        task = eb.SyntheticTask("mirror", 8, 8, 16)
        region = task.mask_region()
        for i in range(8):
            for j in range(8):
                if region[i, j]:
                    si, sj = task.source_position(i, j)
                    assert not region[si, sj]

    def test_oracle_plans_cover_sources(self):
        from sgaedit import sga

        cfg = dataclasses.replace(CFG, d=16, blocks=8, grid_high=(8, 8), grid_low=(4, 4))
        task = eb.SyntheticTask("mirror", 8, 8, 16)
        plans = task.oracle_plans(cfg)
        part = sga.partition(64, 8)
        plan = plans.dec_cross[0][0]
        for l in range(64):
            i, j = divmod(l, 8)
            si, sj = task.source_position(i, j)
            assert part.block_of[si * 8 + sj] in plan.kept[part.block_of[l]]

    @pytest.mark.parametrize("radius", [0, 1, 2])
    @pytest.mark.parametrize("grid,blocks", [((4, 4), 4), ((8, 8), 8), ((8, 8), 16), ((8, 4), 8), ((4, 8), 2)])
    @pytest.mark.parametrize("kind", eb.TASK_KINDS)
    def test_oracle_plans_equal_per_token_reference(self, kind, grid, blocks, radius):
        """Each plan is the band plus, for every token, the block of its
        source position shifted by 0 (encoder, cross) or 1 (decoder self,
        before its lower triangle is taken), clamped to the last token."""
        low = (grid[0] // 2, grid[1] // 2)
        cfg = dataclasses.replace(CFG, grid_high=grid, grid_low=low, blocks=blocks, radius=radius)
        task = eb.SyntheticTask(kind, *grid, CFG.vocab)
        plans = task.oracle_plans(cfg)
        length = grid[0] * grid[1]
        block_of = sga.partition(length, blocks).block_of
        for shift, plan in ((0, plans.enc[0][0]), (0, plans.dec_cross[0][0]), (1, plans.dec_self[0][0])):
            want = sga.band(blocks, radius)
            for token in range(length):
                si, sj = task.source_position(*divmod(token, grid[1]))
                want[block_of[token], block_of[min(si * grid[1] + sj + shift, length - 1)]] = True
            if shift:
                want &= np.tri(blocks, dtype=bool)
            assert np.array_equal(plan.keep, want)


def flood_fill_4(mask):
    seeds = np.argwhere(mask)
    if seeds.size == 0:
        return 0
    seen = np.zeros_like(mask)
    queue = deque([tuple(seeds[0])])
    seen[tuple(seeds[0])] = True
    while queue:
        i, j = queue.popleft()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < mask.shape[0] and 0 <= nj < mask.shape[1] and mask[ni, nj] and not seen[ni, nj]:
                seen[ni, nj] = True
                queue.append((ni, nj))
    return int(seen.sum())


def full_grid_stamp_walk(dims, rng, region=None):
    """`free_form_mask`'s walk with a full-grid stamp and `mask | stamp`
    fraction per move, as it was before it stamped the brush window only."""
    h, w = dims
    area = h * w
    r_min, r_max = eb._brush_limits(area)
    target = rng.uniform(0.12, 0.5)
    if region is not None:
        cells = np.argwhere(region)
        pos = cells[rng.integers(cells.shape[0])]
        pos = [int(pos[0]), int(pos[1])]
        lo, hi = cells.min(axis=0), cells.max(axis=0)
    else:
        pos = [int(rng.integers(h)), int(rng.integers(w))]
        lo, hi = np.array([0, 0]), np.array([h - 1, w - 1])
    moves_8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    moves = [(-1, 0), (1, 0), (0, -1), (0, 1)] if r_max == 0 else moves_8
    mask = np.zeros((h, w), dtype=bool)
    for _ in range(50 * area):
        frac = float(mask.sum()) / mask.size
        if frac >= target and frac >= 0.1:
            break
        r = int(rng.integers(r_min, r_max + 1))
        stamped = False
        while r >= r_min:
            stamp = np.zeros_like(mask)
            stamp[max(0, pos[0] - r) : pos[0] + r + 1, max(0, pos[1] - r) : pos[1] + r + 1] = True
            if region is not None:
                stamp &= region
            if float((mask | stamp).sum()) / mask.size <= 0.6:
                mask |= stamp
                stamped = True
                break
            r -= 1
        if not stamped and float(mask.sum()) / mask.size >= 0.1:
            break
        dy, dx = moves[int(rng.integers(len(moves)))]
        pos[0] = int(np.clip(pos[0] + dy, lo[0], hi[0]))
        pos[1] = int(np.clip(pos[1] + dx, lo[1], hi[1]))
    return mask


def unbounded_walk(dims, rng, region=None):
    """`free_form_mask` as it was before it stopped on a full region: the
    walk runs on through every one of its 50 * area moves."""
    h, w = dims
    area = h * w
    r_min, r_max = eb._brush_limits(area)
    target = rng.uniform(0.12, 0.5)
    if region is not None:
        cells = np.argwhere(region)
        pos = cells[rng.integers(cells.shape[0])]
        pos = [int(pos[0]), int(pos[1])]
        lo, hi = [int(v) for v in cells.min(axis=0)], [int(v) for v in cells.max(axis=0)]
    else:
        pos = [int(rng.integers(h)), int(rng.integers(w))]
        lo, hi = [0, 0], [h - 1, w - 1]
    moves_8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    moves = [(-1, 0), (1, 0), (0, -1), (0, 1)] if r_max == 0 else moves_8
    mask = np.zeros((h, w), dtype=bool)
    count = 0
    for _ in range(50 * area):
        frac = count / area
        if frac >= target and frac >= 0.1:
            break
        r = int(rng.integers(r_min, r_max + 1))
        stamped = False
        while r >= r_min:
            window = (slice(max(0, pos[0] - r), pos[0] + r + 1), slice(max(0, pos[1] - r), pos[1] + r + 1))
            new = ~mask[window]
            if region is not None:
                new &= region[window]
            added = int(np.count_nonzero(new))
            if (count + added) / area <= 0.6:
                mask[window] |= new
                count += added
                stamped = True
                break
            r -= 1
        if not stamped and count / area >= 0.1:
            break
        dy, dx = moves[int(rng.integers(len(moves)))]
        pos[0] = min(max(pos[0] + dy, lo[0]), hi[0])
        pos[1] = min(max(pos[1] + dx, lo[1]), hi[1])
    return mask


class CountingRng:
    """A Generator that counts the draws made through it."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def uniform(self, *args, **kwargs):
        self.draws += 1
        return self.rng.uniform(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.draws += 1
        return self.rng.integers(*args, **kwargs)


class TestFreeFormMask:
    @pytest.mark.parametrize("dims", [(8, 8), (16, 16)])
    @pytest.mark.parametrize("kind", ["copy-corner", "mirror", "constant-region"])
    def test_matches_unbounded_walk(self, kind, dims):
        """Stopping once the region is full gives the same masks as walking
        on through every move; a copy-corner quarter that fills up stops
        after a few moves instead of 50 * area."""
        region = eb.SyntheticTask(kind, dims[0], dims[1], vocab=4).mask_region()
        for seed in range(12):
            got_rng = CountingRng(substream(seed, "unbounded"))
            got = eb.free_form_mask(dims, got_rng, region=region)
            want = unbounded_walk(dims, substream(seed, "unbounded"), region=region)
            assert np.array_equal(got, want), (kind, dims, seed)
            if region is not None and got.sum() == region.sum():
                # the unbounded walk draws at least 2 numbers per move, 100 * area in all
                assert got_rng.draws < 10 * got.size, (kind, dims, seed, got_rng.draws)

    @pytest.mark.parametrize("dims", [(2, 2), (4, 16), (8, 8), (16, 16), (32, 32)])
    def test_matches_full_grid_stamp_walk(self, dims):
        """Stamping only the brush window gives the same masks and draws the
        same random numbers as stamping the full grid."""
        region = np.zeros(dims, bool)
        region[dims[0] // 2 :, :] = True
        for seed in range(50):
            for reg in (None, region):
                got_rng, want_rng = substream(seed, "walk"), substream(seed, "walk")
                got = eb.free_form_mask(dims, got_rng, region=reg)
                want = full_grid_stamp_walk(dims, want_rng, region=reg)
                assert np.array_equal(got, want), (dims, seed, reg is not None)
                assert got_rng.random() == want_rng.random(), (dims, seed, reg is not None)

    def test_seeded_determinism(self):
        one = eb.free_form_mask((16, 16), substream(7, "mask"))
        two = eb.free_form_mask((16, 16), substream(7, "mask"))
        assert np.array_equal(one, two)

    @pytest.mark.parametrize("dims", [(16, 16), (8, 8), (12, 20)])
    def test_fraction_bounds_100_seeds(self, dims):
        for seed in range(100):
            mask = eb.free_form_mask(dims, substream(seed, "mask"))
            frac = mask.mean()
            assert 0.1 <= frac <= 0.6, (dims, seed, frac)

    @pytest.mark.parametrize("dims", [(16, 16), (8, 8)])
    def test_single_4connected_component(self, dims):
        for seed in range(50):
            mask = eb.free_form_mask(dims, substream(seed, "mask"))
            assert flood_fill_4(mask) == int(mask.sum()), seed

    def test_region_confinement(self):
        region = np.zeros((8, 8), bool)
        region[4:, :] = True
        for seed in range(20):
            mask = eb.free_form_mask((8, 8), substream(seed, "mask"), region=region)
            assert not mask[:4].any()
            assert 0.1 <= mask.mean() <= 0.6

    def test_tiny_grid(self):
        for seed in range(20):
            mask = eb.free_form_mask((2, 2), substream(seed, "mask"))
            assert 0.1 <= mask.mean() <= 0.6


class TestTrain:
    def _task(self):
        return eb.SyntheticTask("mirror", *CFG.grid_high, CFG.vocab, classes=CFG.vocab_map)

    def test_lr_zero_leaves_weights_and_flat_loss(self):
        init = mdl.init_weights(CFG, CFG.grid_high, substream(2, "t0"))
        result = eb.train(init, self._task(), steps=3, lr=0.0, seed=0, plans=dense_plans)
        for name in init.params:
            assert np.array_equal(result.weights.params[name], init.params[name])
        assert len(result.losses) == 3

    def test_initial_loss_near_log_vocab(self):
        # exactly uniform logits with a zeroed model
        shapes = mdl.parameter_shapes(CFG, CFG.grid_high)
        zero = mdl.ModelWeights(CFG, CFG.grid_high, {k: np.zeros(s) for k, s in shapes.items()})
        result = eb.train(zero, self._task(), steps=1, lr=0.0, seed=1, plans=dense_plans)
        assert result.losses[0] == pytest.approx(np.log(CFG.vocab), abs=1e-9)
        # random init stays in the same ballpark
        init = mdl.init_weights(CFG, CFG.grid_high, substream(3, "t1"))
        result = eb.train(init, self._task(), steps=1, lr=0.0, seed=1, plans=dense_plans)
        assert abs(result.losses[0] - np.log(CFG.vocab)) < 0.75

    def test_determinism_to_the_last_bit(self):
        init = mdl.init_weights(CFG, CFG.grid_high, substream(4, "t2"))
        a = eb.train(init, self._task(), steps=5, lr=0.1, seed=3, plans=dense_plans)
        b = eb.train(init, self._task(), steps=5, lr=0.1, seed=3, plans=dense_plans)
        assert a.losses == b.losses
        for name in a.weights.params:
            assert np.array_equal(a.weights.params[name], b.weights.params[name])

    def test_divergence_reports_step(self):
        init = mdl.init_weights(CFG, CFG.grid_high, substream(5, "t3"))
        init.params["out_head"][:] = 1e308  # logits overflow -> non-finite loss
        with pytest.raises(DivergenceError) as err:
            with np.errstate(over="ignore", invalid="ignore"):
                eb.train(init, self._task(), steps=2, lr=1e-2, seed=0, plans=dense_plans, clip=0.0)
        assert err.value.step == 0

    def test_adam_option_updates(self):
        init = mdl.init_weights(CFG, CFG.grid_high, substream(6, "t4"))
        result = eb.train(init, self._task(), steps=3, lr=1e-3, seed=2, plans=dense_plans, optimizer="adam")
        assert not np.array_equal(result.weights.params["out_head"], init.params["out_head"])

    def test_guided_training_matches_expanded_mask_oracle(self, monkeypatch):
        """Three guided fine-tuning steps through the block kernel equal the
        same steps with every planned head evaluated densely under its
        expanded plan mask, and build no L x L plan mask."""
        cfg = mdl.ModelConfig(
            d=16, layers_enc=1, layers_dec=2, heads=2, vocab=8, vocab_map=3,
            grid_high=(8, 8), grid_low=(4, 4), blocks=8, top_k=1, radius=1, ffw=32,
        )
        task = eb.SyntheticTask("mirror", 8, 8, cfg.vocab, classes=cfg.vocab_map)
        task_low = eb.SyntheticTask("mirror", 4, 4, cfg.vocab, classes=cfg.vocab_map)
        guide = mdl.init_weights(cfg, cfg.grid_low, substream(8, "oracle-guide"))
        init = mdl.init_from_guiding(guide)
        guided_plans = eb.guided_plans(guide, task_low, cfg, 8, "oracle-plans")

        def no_mask(*args):
            raise AssertionError("the model built an L x L plan mask")

        with monkeypatch.context() as patch:
            patch.setattr(sga, "build_sparse_mask", no_mask)
            steps = [guided_plans(step) for step in range(3)]  # made once, so the oracle run reuses them
            got = eb.train(init, task, steps=3, lr=0.1, seed=5, plans=steps.__getitem__)
        oracle = DenseBlockAttention()
        with monkeypatch.context() as patch:
            patch.setattr(T, "block_attention", oracle)
            want = eb.train(init, task, steps=3, lr=0.1, seed=5, plans=steps.__getitem__)
        assert steps[0].mean_sparsity()["enc"] < 1.0  # the plans do drop blocks
        expected = [mask for plans in steps for mask in plan_masks(plans, cfg.l_high)]
        assert len(oracle.masks) == len(expected)
        assert all(np.array_equal(m, e) for m, e in zip(oracle.masks, expected))
        assert np.abs(np.array(got.losses) - np.array(want.losses)).max() <= 1e-10
        for name in want.weights.params:
            assert np.abs(got.weights.params[name] - want.weights.params[name]).max() <= 1e-10, name

    def test_guided_plans_match_inline_closure(self):
        """`guided_plans(...)(step)` is, keep matrix by keep matrix, the
        closure that `train-sga` built inline: the guide run teacher-forced
        over the step's masked low-res instance, its maps pooled into plans."""
        cfg = mdl.ModelConfig(
            d=16, layers_enc=1, layers_dec=2, heads=2, vocab=8, vocab_map=3,
            grid_high=(8, 8), grid_low=(4, 4), blocks=8, top_k=1, radius=1, ffw=32,
        )
        task_low = eb.SyntheticTask("mirror", 4, 4, cfg.vocab, classes=cfg.vocab_map)
        guide = mdl.init_weights(cfg, cfg.grid_low, substream(9, "closure-guide"))

        def closure(step):
            x_low, p_low, mask_low = task_low.instance(substream(3, f"sga-plans-0-{step}"))
            forced = mdl.guiding_forward(apply_mask(x_low, mask_low), p_low, guide, decoder_tokens=x_low.flat())
            return sampler.plans_from_maps(forced.encoder.attn, forced.dec_self_attn, forced.dec_cross_attn, cfg)

        plans = eb.guided_plans(guide, task_low, cfg, 3, "sga-plans-0")
        for step in range(3):
            got, want = plans(step), closure(step)
            assert got.mean_sparsity()["enc"] < 1.0  # the plans do drop blocks
            for role, layers in (("enc", cfg.layers_enc), ("dec_self", cfg.layers_dec), ("dec_cross", cfg.layers_dec)):
                pairs = [(g, w) for gl, wl in zip(getattr(got, role), getattr(want, role)) for g, w in zip(gl, wl)]
                assert len(pairs) == layers * cfg.heads
                assert all(np.array_equal(g.keep, w.keep) for g, w in pairs), (step, role)

    def test_dense_training_matches_per_head_oracle(self, monkeypatch):
        """Three dense training steps (`PlanBundle.dense`, the one-block plans)
        equal the same steps with per-head dense attention, and call no
        dense attention."""
        cfg = mdl.ModelConfig(
            d=16, layers_enc=1, layers_dec=2, heads=2, vocab=8, vocab_map=3,
            grid_high=(8, 8), grid_low=(4, 4), blocks=8, top_k=1, radius=1, ffw=32,
        )
        task = eb.SyntheticTask("mirror", 8, 8, cfg.vocab, classes=cfg.vocab_map)
        init = mdl.init_weights(cfg, cfg.grid_high, substream(9, "dense-oracle"))
        dense = mdl.PlanBundle.dense(cfg)

        def no_dense(*args):
            raise AssertionError("the model called attention.dense_attention")

        with monkeypatch.context() as patch:
            patch.setattr(att, "dense_attention", no_dense)
            got = eb.train(init, task, steps=3, lr=0.1, seed=5, plans=lambda step: dense)
        oracle = DenseBlockAttention()
        with monkeypatch.context() as patch:
            patch.setattr(T, "block_attention", oracle)
            want = eb.train(init, task, steps=3, lr=0.1, seed=5, plans=lambda step: dense)
        expected = plan_masks(dense, cfg.l_high) * 3
        assert len(oracle.masks) == len(expected)
        assert all(np.array_equal(m, e) for m, e in zip(oracle.masks, expected))
        assert np.abs(np.array(got.losses) - np.array(want.losses)).max() <= 1e-10
        for name in want.weights.params:
            assert np.abs(got.weights.params[name] - want.weights.params[name]).max() <= 1e-10, name

    def test_step_graph_freed_without_cyclic_collector(self):
        """Once a training step's tape, loss and parameters are dropped,
        reference counting alone frees its intermediate tensors."""
        weights = mdl.init_weights(CFG, CFG.grid_high, substream(10, "graph"))
        x, p = self._task().sample(substream(11, "graph-task"))
        mask = np.zeros(CFG.grid_high, bool)
        mask[2:, :] = True
        dense = mdl.PlanBundle.dense(CFG)
        gc.collect()
        gc.disable()
        try:
            tape = T.GradTape()
            tw = mdl.ModelWeights(CFG, weights.grid, {k: tape.param(v) for k, v in weights.params.items()})
            enc = mdl.encoder_forward(apply_mask(x, mask), p, tw, dense)
            probe = weakref.ref(enc.context)
            prev = np.concatenate([[CFG.start_token], x.flat()[:-1]])
            logits, _, _ = mdl.decoder_forward(prev, enc, tw, dense)
            rows = np.flatnonzero(mask.ravel())
            loss = T.cross_entropy(T.gather_rows(logits, rows), x.flat()[rows])
            tape.backward(loss)
            grads = {k: t.grad for k, t in tw.params.items()}
            del tape, tw, enc, logits, loss
            assert probe() is None
        finally:
            gc.enable()
        assert all(g is not None for g in grads.values())

    def test_steps_keep_one_graph_alive(self):
        """Each step's graph is freed by its backward, before the next step
        records one: three steps peak no higher than one step, to within 20%."""
        cfg = mdl.ModelConfig(grid_high=(16, 16), grid_low=(8, 8), blocks=16, layers_dec=2)
        local = mdl.PlanBundle.uniform(
            cfg, lambda role, layer, head: sga.variant_plan("local", cfg.blocks, radius=cfg.radius, k=0)
        )
        init = mdl.init_weights(cfg, cfg.grid_high, substream(0, "one-graph"))
        task = eb.SyntheticTask("mirror", 16, 16, cfg.vocab, classes=cfg.vocab_map)
        peaks = {}
        for steps in (1, 3):
            tracemalloc.start()
            try:
                eb.train(init, task, steps, 0.2, 0, lambda step: local)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[3] <= 1.2 * peaks[1]

    def test_dense_model_learns_mirror(self):
        # 8x8 mirror, d 64, 1 encoder + 1 decoder layer, Adam at lr 1e-3:
        # masked accuracy far above chance (1/16) on held-out instances.
        cfg = mdl.ModelConfig(
            d=64, layers_enc=1, layers_dec=1, heads=4, vocab=16, vocab_map=4,
            grid_high=(8, 8), grid_low=(4, 4), blocks=8, top_k=3, radius=1, ffw=256,
        )
        task = eb.SyntheticTask("mirror", 8, 8, 16, classes=4)
        dense = mdl.PlanBundle.dense(cfg)
        init = mdl.init_weights(cfg, (8, 8), substream(1, "improve"))
        result = eb.train(init, task, steps=1500, lr=1e-3, seed=1, plans=lambda step: dense, optimizer="adam")
        assert float(np.mean(result.losses[-100:])) < 0.5
        assert eb.masked_accuracy(result.weights, task, dense, 64, seed=10_001) >= 0.9


class TestAblationHarness:
    def test_rows_share_budget_and_include_dense(self):
        task = eb.SyntheticTask("mirror", *CFG.grid_high, CFG.vocab, classes=CFG.vocab_map)
        report = eb.run_ablation(
            ["dense", "local", "random"], task, CFG, steps=2, seeds=[0, 1], lr=0.1, optimizer="adam", eval_instances=2,
            clip=1.0,
        )
        assert [r["variant"] for r in report.rows] == ["dense", "local", "random"]
        assert all(r["steps"] == 2 and r["seeds"] == [0, 1] for r in report.rows)
        dense = report.rows[0]
        assert dense["sparsity"] == 1.0
        assert dense["score_flops"] > report.rows[1]["score_flops"]
        text = report.to_text()
        assert "dense" in text and "random" in text
        assert report.to_json()

    def test_unknown_variant_rejected(self, monkeypatch):
        """An unknown variant, the old name `guided` included, fails before
        any variant trains."""
        monkeypatch.setattr(eb, "train", lambda *args, **kwargs: pytest.fail("trained before the check"))
        task = eb.SyntheticTask("mirror", *CFG.grid_high, CFG.vocab)
        for kind in ("nope", "guided"):
            with pytest.raises(ValidationError):
                eb.run_ablation(
                    ["dense", kind], task, CFG, steps=1, seeds=[0], lr=0.1, optimizer="sgd", eval_instances=16, clip=1.0
                )


    def test_forward_score_flops_cost_model(self):
        """Every kept block of the local plan, but of decoder self-attention
        only the blocks t <= r that the causal mask leaves visible."""
        bundle = eb.variant_bundle("local", CFG, eb.SyntheticTask("mirror", *CFG.grid_high, CFG.vocab), seed=0)
        flops = eb.forward_score_flops(CFG, bundle, CFG.l_high)
        plan = bundle.enc[0][0]
        causal = sum(t <= r for r, ks in enumerate(plan.kept) for t in ks)
        assert causal < plan.kept_count()
        per_block = 2 * (CFG.d // CFG.heads) * (CFG.l_high // CFG.blocks) ** 2
        kept = plan.kept_count() * (CFG.layers_enc + CFG.layers_dec) + causal * CFG.layers_dec
        assert flops == per_block * CFG.heads * kept

    def test_each_seed_trains_under_its_own_bundle(self, monkeypatch):
        """Each seed trains under the bundle drawn from it: `random`'s seeds
        0 and 1 differ, and seed 0's is the bundle every seed shared before.
        A row's sparsity and score FLOPs are the means over its seeds'
        bundles; a fixed family's equal its one bundle's values exactly, at
        a seed count where a plain mean rounds them."""
        cfg = mdl.ModelConfig()
        task = eb.SyntheticTask("mirror", *cfg.grid_high, cfg.vocab, classes=cfg.vocab_map)
        recorded = []

        def recording(init, task, **kwargs):
            recorded.append(kwargs["plans"](0))
            return eb.TrainResult(init, [0.0])

        monkeypatch.setattr(eb, "train", recording)
        seeds = list(range(7))
        oracle_row, random_row = eb.run_ablation(
            ["oracle", "random"], task, cfg, steps=1, seeds=seeds, lr=0.1, optimizer="sgd", eval_instances=1, clip=1.0
        ).rows

        def keeps(bundle):
            return [p.keep for role in (bundle.enc, bundle.dec_self, bundle.dec_cross) for layer in role for p in layer]

        def same(a, b):
            return all(np.array_equal(x, y) for x, y in zip(keeps(a), keeps(b)))

        def sparsity(bundle):
            return float(np.mean(list(bundle.mean_sparsity().values())))

        length = cfg.l_high
        oracle, random = recorded[: len(seeds)], recorded[len(seeds) :]
        assert same(random[0], eb.variant_bundle("random", cfg, task, seed=0))
        assert not same(random[0], random[1])
        assert random_row["sparsity"] == pytest.approx(np.mean([sparsity(b) for b in random]), abs=1e-15)
        assert random_row["score_flops"] == round(np.mean([eb.forward_score_flops(cfg, b, length) for b in random]))
        fixed = eb.variant_bundle("oracle", cfg, task, seed=0)
        assert float(np.mean([sparsity(fixed)] * len(seeds))) != sparsity(fixed)
        assert all(same(b, fixed) for b in oracle)
        assert oracle_row["sparsity"] == sparsity(fixed)
        assert oracle_row["score_flops"] == eb.forward_score_flops(cfg, fixed, length)


class TestTable:
    def test_text_layout(self):
        """The ablation table's text: cells right-aligned in 14 characters,
        floats in their column's format, a list's items joined by "/"."""
        ablation = eb.Table(eb.ABLATION_COLUMNS)
        ablation.rows[:] = [
            {"variant": "dense", "accuracy": 0.5, "acc_per_seed": [0.25, 0.75], "sparsity": 1.0,
             "score_flops": 4096, "steps": 2, "seeds": [0, 1]}
        ]
        assert ablation.to_text().split("\n") == [
            "       variant        accuracy    acc_per_seed        sparsity     score_flops           steps           seeds",
            "         dense          0.5000     0.250/0.750          1.0000            4096               2             0/1",
        ]
