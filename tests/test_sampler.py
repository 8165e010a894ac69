import dataclasses

import numpy as np
import pytest

from sgaedit import model as mdl
from sgaedit import sampler, sga
from sgaedit import tape as T
from sgaedit.errors import NumericalError, ShapeError, ValidationError
from sgaedit.quantizer import TokenGrid, apply_mask
from sgaedit.rng import substream

from conftest import affinities, per_row_sort_plan

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


def make_request(seed=0, mask_high=None, mask_low=None):
    rng = substream(seed, "req")
    if mask_high is None:
        mask_high = np.zeros(CFG.grid_high, bool)
        mask_high[2:, 1:3] = True
    if mask_low is None:
        mask_low = np.zeros(CFG.grid_low, bool)
        mask_low[1, :] = True
    return sampler.EditRequest(
        tokens=TokenGrid(rng.integers(0, CFG.vocab, size=CFG.grid_high), CFG.vocab),
        semantic=TokenGrid(rng.integers(0, CFG.vocab_map, size=CFG.grid_high), CFG.vocab_map),
        mask=mask_high,
        tokens_low=TokenGrid(rng.integers(0, CFG.vocab, size=CFG.grid_low), CFG.vocab),
        semantic_low=TokenGrid(rng.integers(0, CFG.vocab_map, size=CFG.grid_low), CFG.vocab_map),
        mask_low=mask_low,
    )


@pytest.fixture(scope="module")
def weights():
    guide = mdl.init_weights(CFG, CFG.grid_low, substream(1, "wg"))
    high = mdl.init_from_guiding(guide)
    return guide, high


def one_row_topk_sample(logits, k, rng):
    """The one-row top-k sampler that decoded one candidate at a time:
    (choice, its top-k log-probability)."""
    kept = np.lexsort((np.arange(logits.size), -logits))[:k]
    shifted = logits[kept] - logits[kept].max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    pick = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right").clip(0, k - 1))
    return int(kept[pick]), float(shifted[pick] - np.log(np.exp(shifted).sum()))


def draw(logits, k, rng) -> int:
    """One `topk_sample` draw from a single row of logits."""
    choices, _ = sampler.topk_sample(np.asarray(logits)[None], k, [rng])
    return int(choices[0])


class TestTopkSample:
    def test_k1_is_argmax(self):
        logits = np.array([0.1, 3.0, -1.0, 2.9])
        rng = substream(2, "topk")
        assert all(draw(logits, 1, rng) == 1 for _ in range(20))

    def test_dominant_logit_frequency(self):
        logits = np.array([10.0, 0.0, 0.0])
        rng = substream(3, "topk2")
        draws = [draw(logits, 3, rng) for _ in range(10_000)]
        freq = draws.count(0) / len(draws)
        # softmax oracle: p0 = e^10 / (e^10 + 2) = 0.99991...
        assert freq >= 0.99

    def test_uniform_within_binomial_bound(self):
        vocab = 8
        logits = np.zeros(vocab)
        rng = substream(4, "topk3")
        n = 16_000
        counts = np.bincount([draw(logits, vocab, rng) for _ in range(n)], minlength=vocab)
        p = 1.0 / vocab
        sigma = np.sqrt(n * p * (1 - p))
        assert np.abs(counts - n * p).max() <= 3 * sigma

    def test_zero_probability_outside_top_k(self):
        logits = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        rng = substream(5, "topk4")
        draws = {draw(logits, 2, rng) for _ in range(200)}
        assert draws <= {0, 1}

    def test_tie_break_lowest_index(self):
        logits = np.array([1.0, 1.0, 1.0])
        rng = substream(6, "topk5")
        draws = {draw(logits, 2, rng) for _ in range(200)}
        assert draws <= {0, 1}  # index 2 excluded by the tie-break

    def test_k_out_of_range(self):
        rng = substream(7, "topk6")
        with pytest.raises(ValidationError, match=r"top-k 0 out of range \[1, 4\]"):
            sampler.topk_sample(np.zeros((1, 4)), 0, [rng])
        with pytest.raises(ValidationError, match=r"top-k 5 out of range \[1, 4\]"):
            sampler.topk_sample(np.zeros((1, 4)), 5, [rng])
        with pytest.raises(ShapeError):
            sampler.topk_sample(np.zeros((2, 4)), 2, [rng])  # one generator per row

    def test_logprob_matches_oracle(self):
        logits = np.array([2.0, 1.0, 0.5, -3.0])
        lp = sampler.topk_logprob(logits[None], 2, [1])[0]
        expected = np.log(np.exp(1.0) / (np.exp(2.0) + np.exp(1.0)))
        assert lp == pytest.approx(expected, abs=1e-12)

    def test_logprob_outside_top_k_rejected(self):
        with pytest.raises(ValidationError):
            sampler.topk_logprob(np.array([[2.0, 1.0, 0.5], [0.0, 1.0, 2.0]]), 2, [1, 0])

    def test_rows_match_the_one_row_loop(self):
        """A batch draw equals the one-row sampler it replaced, row by row
        from the same streams: choices exactly, and log-probabilities to
        the bit, also against `topk_logprob`."""
        logits = substream(9, "topk7").normal(scale=2.0, size=(6, 16))
        logits[2, :5] = logits[2, 0]  # ties at the top
        logits[3, 7:] = logits[3].max()  # ties across the k-th logit
        for k in (1, 3, 16):
            for seed in range(20):
                choices, logprobs = sampler.topk_sample(logits, k, [substream(seed, f"row-{r}") for r in range(6)])
                for r in range(6):
                    want, want_lp = one_row_topk_sample(logits[r], k, substream(seed, f"row-{r}"))
                    assert choices[r] == want and logprobs[r] == want_lp
                assert np.array_equal(logprobs, sampler.topk_logprob(logits, k, choices))


class TestGuideAndPlan:
    def test_all_unmasked_returns_input(self, weights):
        guide, _ = weights
        req = make_request(mask_high=np.zeros(CFG.grid_high, bool), mask_low=np.zeros(CFG.grid_low, bool))
        res = sampler.guide_and_plan(req, guide, CFG, seed=0)
        assert np.array_equal(res.completion_low.tokens, req.tokens_low.tokens)
        assert res.logprob_low == 0.0
        assert res.plans.enc is not None  # plans still produced

    def test_plan_invariants(self, weights):
        guide, _ = weights
        res = sampler.guide_and_plan(make_request(1), guide, CFG, seed=0)
        for role in (res.plans.enc, res.plans.dec_self, res.plans.dec_cross):
            for layer in role:
                for plan in layer:
                    for r, kept in enumerate(plan.kept):
                        assert r in kept
                        outside = set(kept) - set(range(max(0, r - 1), min(plan.n_blocks, r + 2)))
                        assert len(outside) <= CFG.top_k

    def test_guide_sampling_ignores_plan_top_k(self, weights):
        """The guide samples with `GUIDE_TOP_K` whatever the plans' count of
        extra key blocks: its completion and log-prob are the same for every
        `top_k`, while the plans may differ."""
        guide, _ = weights
        req = make_request(1)
        results = [sampler.guide_and_plan(req, guide, dataclasses.replace(CFG, top_k=k), 1) for k in (0, 2, 3, 5)]
        for res in results:
            assert np.array_equal(res.completion_low.tokens, results[0].completion_low.tokens)
            assert res.logprob_low == results[0].logprob_low

    @pytest.mark.parametrize("kind", ["random", "rounded", "zero"])
    @pytest.mark.parametrize("blocks", [4, 16, 64])
    def test_plans_from_maps_matches_per_head_oracle(self, kind, blocks):
        """Pooling and selecting every head of a layer at once equals pooling
        each head's map alone and a per-row sort, for maps given as one
        [H, L, L] array per layer or as a list of per-head arrays; of a
        decoder self-attention plan the bundle keeps the lower triangle."""
        heads, size = 3, 64

        def oracle(m, k, radius, seen):
            return sga.SparsityPlan(per_row_sort_plan(sga.partition(size, blocks).pool(m), k, radius).keep & seen).kept

        enc = [affinities(kind, (heads, size, size), seed=blocks + i) for i in range(2)]
        dec_self = [affinities(kind, (heads, size, size), seed=blocks + 2)]
        dec_cross = [list(affinities(kind, (heads, size, size), seed=blocks + 3))]
        for k in (0, 1, 3, blocks):
            for radius in (0, 1, 2):
                cfg = mdl.ModelConfig(
                    d=6, layers_enc=2, layers_dec=1, heads=heads, grid_high=(16, 16), grid_low=(8, 8),
                    blocks=blocks, top_k=k, radius=radius,
                )
                got = sampler.plans_from_maps(enc, dec_self, dec_cross, cfg)
                for role, maps in (("enc", enc), ("dec_self", dec_self), ("dec_cross", dec_cross)):
                    seen = np.tri(blocks, dtype=bool) if role == "dec_self" else True
                    want = [[oracle(m[h], k, radius, seen) for h in range(heads)] for m in maps]
                    assert [[p.kept for p in layer] for layer in getattr(got, role)] == want, (role, k, radius)

    def test_uniform_maps_tie_break(self, weights):
        guide, _ = weights
        uniform = np.full((CFG.l_low, CFG.l_low), 1.0 / CFG.l_low)
        maps = [[uniform] * CFG.heads]
        plans = sampler.plans_from_maps(maps, maps, maps, CFG)
        plan = plans.enc[0][0]
        for r in range(plan.n_blocks):
            nb = set(range(max(0, r - 1), min(plan.n_blocks, r + 2)))
            expected_extra = [t for t in range(plan.n_blocks) if t not in nb][: CFG.top_k]
            assert set(plan.kept[r]) == nb | set(expected_extra)


# a guide large enough for multi-row blocks: 4x4 low-res tokens in 4 blocks, 2 decoder layers
GUIDE_CFG = dataclasses.replace(CFG, layers_dec=2, grid_high=(8, 8), grid_low=(4, 4), top_k=1, radius=0)


def guide_mask(kind):
    mask = np.zeros(GUIDE_CFG.grid_low, bool)
    if kind == "last-token":
        mask[-1, 1:] = True
    elif kind == "mid-grid":
        mask[1:3, 1:3] = True
    return mask


class TestGuideDecodesOnce:
    """The guide's plans come from its sampling decode, extended past the
    last masked position: no second decoder pass."""

    @staticmethod
    def guide_request(kind):
        rng = substream(5, "guide-once")
        g, gl = GUIDE_CFG.grid_high, GUIDE_CFG.grid_low
        return sampler.EditRequest(
            tokens=TokenGrid(rng.integers(0, CFG.vocab, size=g), CFG.vocab),
            semantic=TokenGrid(rng.integers(0, CFG.vocab_map, size=g), CFG.vocab_map),
            mask=np.zeros(g, bool),
            tokens_low=TokenGrid(rng.integers(0, CFG.vocab, size=gl), CFG.vocab),
            semantic_low=TokenGrid(rng.integers(0, CFG.vocab_map, size=gl), CFG.vocab_map),
            mask_low=guide_mask(kind),
        )

    @pytest.fixture(scope="class")
    def guide(self):
        return mdl.init_weights(GUIDE_CFG, GUIDE_CFG.grid_low, substream(2, "guide-once"))

    @pytest.mark.parametrize("kind", ["empty", "last-token", "mid-grid"])
    def test_plans_equal_a_forced_pass_over_the_completion(self, guide, kind, monkeypatch):
        """The oracle is the guide's former second pass: `guiding_forward`
        over the masked low-res grid and the completion."""
        req = self.guide_request(kind)
        seen = []
        real = sampler.plans_from_maps
        monkeypatch.setattr(sampler, "plans_from_maps", lambda *maps: seen.append(maps[:3]) or real(*maps))
        res = sampler.guide_and_plan(req, guide, GUIDE_CFG, seed=4)
        monkeypatch.undo()
        forced = mdl.guiding_forward(
            apply_mask(req.tokens_low, req.mask_low), req.semantic_low, guide, res.completion_low.flat()
        )
        want_maps = (forced.encoder.attn, forced.dec_self_attn, forced.dec_cross_attn)
        for got_role, want_role in zip(seen[0], want_maps):
            for got, want in zip(got_role, want_role, strict=True):
                assert np.abs(got - want).max() <= 1e-12
        want = sampler.plans_from_maps(*want_maps, GUIDE_CFG)
        for role in ("enc", "dec_self", "dec_cross"):
            got_keeps = [[p.keep for p in layer] for layer in getattr(res.plans, role)]
            want_keeps = [[p.keep for p in layer] for layer in getattr(want, role)]
            assert np.array_equal(got_keeps, want_keeps), role

    @pytest.mark.parametrize("kind", ["empty", "last-token", "mid-grid"])
    def test_every_row_runs_once_per_layer_and_role(self, guide, kind, monkeypatch):
        """The kernel sees each of the L rows once per (layer, role), encoder
        included, and no teacher-forced pass runs."""
        rows = []
        kernel = T.block_attention

        def counting(q, k, v, keys, *args, **kwargs):
            rows.append(np.shape(q)[0])
            return kernel(q, k, v, keys, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the guide ran a teacher-forced pass")

        monkeypatch.setattr(T, "block_attention", counting)
        for name in ("forward", "guiding_forward", "decoder_forward"):
            monkeypatch.setattr(mdl, name, forbidden)
        sampler.guide_and_plan(self.guide_request(kind), guide, GUIDE_CFG, seed=4)
        cfg = GUIDE_CFG
        assert sum(rows) == cfg.l_low * (cfg.layers_enc + 2 * cfg.layers_dec)


def test_edit_of_only_the_last_token():
    """With only the last token masked at both resolutions, the first
    `extend` covers the whole sequence: the guide's decoder then holds all
    L rows, and the edit branches into its candidates with nothing left to
    extend. The guide's plans are still a forced pass's over its
    completion, and each candidate keeps its unmasked tokens and the
    log-probability a teacher-forced rescore gives it."""
    guide = mdl.init_weights(GUIDE_CFG, GUIDE_CFG.grid_low, substream(2, "guide-once"))
    high = mdl.init_from_guiding(guide)
    rng = substream(6, "last-token-edit")
    g, gl = GUIDE_CFG.grid_high, GUIDE_CFG.grid_low
    mask, mask_low = np.zeros(g, bool), np.zeros(gl, bool)
    mask[-1, -1] = mask_low[-1, -1] = True
    req = sampler.EditRequest(
        tokens=TokenGrid(rng.integers(0, CFG.vocab, size=g), CFG.vocab),
        semantic=TokenGrid(rng.integers(0, CFG.vocab_map, size=g), CFG.vocab_map),
        mask=mask,
        tokens_low=TokenGrid(rng.integers(0, CFG.vocab, size=gl), CFG.vocab),
        semantic_low=TokenGrid(rng.integers(0, CFG.vocab_map, size=gl), CFG.vocab_map),
        mask_low=mask_low,
    )
    res = sampler.guide_and_plan(req, guide, GUIDE_CFG, seed=4)
    forced = mdl.guiding_forward(
        apply_mask(req.tokens_low, req.mask_low), req.semantic_low, guide, res.completion_low.flat()
    )
    want = sampler.plans_from_maps(forced.encoder.attn, forced.dec_self_attn, forced.dec_cross_attn, GUIDE_CFG)
    for role in ("enc", "dec_self", "dec_cross"):
        got_keeps = [[p.keep for p in layer] for layer in getattr(res.plans, role)]
        want_keeps = [[p.keep for p in layer] for layer in getattr(want, role)]
        assert np.array_equal(got_keeps, want_keeps), role

    tokens, logprobs = sampler.autoregressive_edit(req, high, res.plans, top_k=100, n_samples=3, n_keep=3, seed=7)
    assert tokens.shape == (3,) + g
    for row, logprob in zip(tokens, logprobs):
        assert np.array_equal(row[~mask], req.tokens.tokens[~mask])
        redo = sampler.rescore(req, high, res.plans, TokenGrid(row, CFG.vocab), top_k=100)
        assert abs(redo - logprob) <= 1e-9


class TestAutoregressiveEdit:
    def test_empty_mask_single_unique_candidate(self, weights):
        _, high = weights
        req = make_request(mask_high=np.zeros(CFG.grid_high, bool), mask_low=np.zeros(CFG.grid_low, bool))
        tokens, logprobs = sampler.autoregressive_edit(req, high, mdl.PlanBundle.dense(CFG), n_samples=5, n_keep=3, seed=0)
        assert tokens.shape == (3,) + CFG.grid_high and tokens.dtype == np.int64
        assert np.array_equal(tokens, np.broadcast_to(req.tokens.tokens, tokens.shape))
        assert np.array_equal(logprobs, np.zeros(3))

    def test_greedy_k1_all_identical(self, weights):
        _, high = weights
        req = make_request(2)
        tokens, _ = sampler.autoregressive_edit(req, high, mdl.PlanBundle.dense(CFG), top_k=1, n_samples=6, n_keep=6, seed=1)
        assert len(np.unique(tokens.reshape(6, -1), axis=0)) == 1

    def test_seeded_determinism_byte_identical(self, weights):
        _, high = weights
        req = make_request(3)
        one = sampler.autoregressive_edit(req, high, mdl.PlanBundle.dense(CFG), n_samples=4, n_keep=2, seed=9)
        two = sampler.autoregressive_edit(req, high, mdl.PlanBundle.dense(CFG), n_samples=4, n_keep=2, seed=9)
        assert len(one[0]) == len(two[0]) == 2
        assert one[0].tobytes() == two[0].tobytes()
        assert one[1].tobytes() == two[1].tobytes()

    def test_batch_size_does_not_change_candidates(self, weights):
        """Candidate i draws only from its own stream, so the tokens of
        candidates 0-2 of a 6-candidate batch are byte-identical to those of
        a 3-candidate one, under dense and under guided plans; their
        log-probabilities agree to rounding."""
        guide, high = weights
        req = make_request(4)
        for plans in (mdl.PlanBundle.dense(CFG), sampler.guide_and_plan(req, guide, CFG, seed=1).plans):

            def candidates(n):
                tokens, logprobs = sampler.autoregressive_edit(req, high, plans, n_samples=n, n_keep=n, seed=5)
                return {row.tobytes(): logprob for row, logprob in zip(tokens, logprobs)}

            six, three = candidates(6), candidates(3)
            assert len(three) > 1  # the candidates differ, so the check below can fail
            for tokens, logprob in three.items():
                assert abs(six[tokens] - logprob) <= 1e-12

    def test_unmasked_positions_preserved(self, weights):
        guide, high = weights
        req = make_request(5)
        plans = sampler.guide_and_plan(req, guide, CFG, seed=2).plans
        tokens, _ = sampler.autoregressive_edit(req, high, plans, n_samples=4, n_keep=4, seed=3)
        for row in tokens:
            assert np.array_equal(row[~req.mask], req.tokens.tokens[~req.mask])
            assert np.all((row >= 0) & (row < CFG.vocab))

    def test_rescoring_reproduces_logprob(self, weights):
        guide, high = weights
        req = make_request(6)
        plans = sampler.guide_and_plan(req, guide, CFG, seed=4).plans
        tokens, logprobs = sampler.autoregressive_edit(req, high, plans, top_k=100, n_samples=3, n_keep=3, seed=7)
        for row, logprob in zip(tokens, logprobs):
            redo = sampler.rescore(req, high, plans, TokenGrid(row, CFG.vocab), top_k=100)
            assert abs(redo - logprob) <= 1e-9

    def test_non_finite_logits_raise_numerical_error(self, weights):
        _, high = weights
        broken = mdl.ModelWeights(high.config, high.grid, dict(high.params))
        broken.params["out_head"] = high.params["out_head"].copy()
        broken.params["out_head"][0, 3] = np.nan
        req = make_request(8)
        first = int(np.flatnonzero(req.mask.ravel())[0])
        with pytest.raises(NumericalError, match=f"position {first}"):
            sampler.autoregressive_edit(req, broken, mdl.PlanBundle.dense(CFG), n_samples=2, n_keep=1, seed=0)

    @pytest.mark.parametrize(
        "option, message",
        [
            ({"n_samples": 0}, "n_samples and n_keep must be >= 1"),
            ({"n_keep": 0}, "n_samples and n_keep must be >= 1"),
            ({"top_k": 0}, "top-k must be >= 1, got 0"),
        ],
    )
    def test_counts_below_one_rejected(self, weights, option, message):
        _, high = weights
        with pytest.raises(ValidationError, match=message):
            sampler.autoregressive_edit(make_request(9), high, mdl.PlanBundle.dense(CFG), **{"n_samples": 2, "n_keep": 1, **option})

    def test_logprobs_non_increasing(self, weights):
        _, high = weights
        _, logprobs = sampler.autoregressive_edit(
            make_request(7), high, mdl.PlanBundle.dense(CFG), n_samples=8, n_keep=8, seed=8
        )
        assert logprobs.shape == (8,)
        assert list(logprobs) == sorted(logprobs, reverse=True)


class TestRankCandidates:
    """`autoregressive_edit`'s ranking and checks, on crafted decoder output:
    one stable descending sort by log-probability, ties in generation order."""

    @staticmethod
    def edit(weights, monkeypatch, logprobs, seqs=None, n_keep=None):
        """Rank crafted `_forced_decode` output: candidate i's tokens are the
        request's with the first masked token set to i mod vocab, unless
        `seqs` is given."""
        _, high = weights
        req = make_request(9)
        n = len(logprobs)
        if seqs is None:
            seqs = np.tile(req.tokens.flat(), (n, 1))
            seqs[:, np.flatnonzero(req.mask.ravel())[0]] = np.arange(n) % CFG.vocab
        monkeypatch.setattr(sampler, "_forced_decode", lambda *args: (seqs, np.asarray(logprobs, dtype=np.float64), None))
        return sampler.autoregressive_edit(req, high, mdl.PlanBundle.dense(CFG), n_samples=n, n_keep=n_keep or n)

    def test_explicit_order(self, weights, monkeypatch):
        tokens, logprobs = self.edit(weights, monkeypatch, [-1.0, -2.0, -0.5], n_keep=2)
        assert list(logprobs) == [-0.5, -1.0]
        first = np.flatnonzero(make_request(9).mask.ravel())[0]
        assert list(tokens.reshape(2, -1)[:, first]) == [2, 0]

    def test_stability_on_ties(self, weights, monkeypatch):
        tokens, logprobs = self.edit(weights, monkeypatch, [-1.0, -3.0, -1.0, 0.0, -0.0, -1.0])
        first = np.flatnonzero(make_request(9).mask.ravel())[0]
        assert list(tokens.reshape(6, -1)[:, first]) == [3, 4, 0, 2, 5, 1]
        assert list(logprobs) == [0.0, 0.0, -1.0, -1.0, -1.0, -3.0]

    def test_matches_reference_sort(self, weights, monkeypatch):
        rng = substream(8, "rank")
        lps = list(np.round(rng.normal(size=20), 1))  # rounded, so some tie
        tokens, logprobs = self.edit(weights, monkeypatch, lps)
        first = np.flatnonzero(make_request(9).mask.ravel())[0]
        order = sorted(range(20), key=lambda i: -lps[i])
        assert list(logprobs) == [lps[i] for i in order]
        assert list(tokens.reshape(20, -1)[:, first]) == [i % CFG.vocab for i in order]

    def test_non_finite_rejected(self, weights, monkeypatch):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValidationError, match="not finite"):
                self.edit(weights, monkeypatch, [-1.0, bad])

    def test_leftover_mask_rejected(self, weights, monkeypatch):
        req = make_request(9)
        seqs = np.tile(req.tokens.flat(), (2, 1))
        seqs[1, np.flatnonzero(req.mask.ravel())[-1]] = CFG.vocab
        with pytest.raises(ValidationError, match="MASK"):
            self.edit(weights, monkeypatch, [-1.0, -2.0], seqs=seqs)
