"""Decoder self-attention is causal at block level, and a plan holds only
what its attention can see: whatever makes a plan bundle, its `dec_self`
plans keep no key block after the query block, the kernel's index lists
exactly what the plans keep, and the reported score FLOPs are the work
the kernel is given."""

import numpy as np
import pytest

from sgaedit import evalbench as eb
from sgaedit import model as mdl
from sgaedit import sampler, sga
from sgaedit import tape as T
from sgaedit.quantizer import TokenGrid, apply_mask
from sgaedit.rng import substream

from conftest import full_plan, near

CFG = mdl.ModelConfig(
    d=16,
    layers_enc=1,
    layers_dec=2,
    heads=2,
    vocab=8,
    vocab_map=3,
    grid_high=(8, 8),
    grid_low=(4, 4),
    blocks=8,
    top_k=2,
    radius=1,
    ffw=32,
)
ROLES = ("enc", "dec_self", "dec_cross")
SOURCES = ["guide_and_plan", "oracle_plans", "dense", "direct"] + [f"variant-{v}" for v in eb.ABLATION_VARIANTS]


@pytest.fixture(scope="module")
def weights():
    guide = mdl.init_weights(CFG, CFG.grid_low, substream(4, "causal-guide"))
    return guide, mdl.init_from_guiding(guide)


@pytest.fixture
def raw_plans(monkeypatch):
    """The roles each `PlanBundle` was constructed with, before its own
    `__post_init__` ran, keyed by the bundle's id."""
    seen = {}
    post_init = mdl.PlanBundle.__post_init__

    def spy(self):
        seen[id(self)] = {role: [list(layer) for layer in getattr(self, role)] for role in ROLES}
        post_init(self)

    monkeypatch.setattr(mdl.PlanBundle, "__post_init__", spy)
    return seen


def make_request(seed=0):
    rng = substream(seed, "causal-request")
    mask_low = np.zeros(CFG.grid_low, bool)
    mask_low[2:, 1:3] = True
    return sampler.EditRequest(
        tokens=TokenGrid(rng.integers(0, CFG.vocab, size=CFG.grid_high), CFG.vocab),
        semantic=TokenGrid(rng.integers(0, CFG.vocab_map, size=CFG.grid_high), CFG.vocab_map),
        mask=np.zeros(CFG.grid_high, bool),
        tokens_low=TokenGrid(rng.integers(0, CFG.vocab, size=CFG.grid_low), CFG.vocab),
        semantic_low=TokenGrid(rng.integers(0, CFG.vocab_map, size=CFG.grid_low), CFG.vocab_map),
        mask_low=mask_low,
    )


def make_bundle(source, guide):
    task = eb.SyntheticTask("mirror", *CFG.grid_high, CFG.vocab)
    if source == "guide_and_plan":
        return sampler.guide_and_plan(make_request(), guide, CFG, seed=5).plans
    if source == "oracle_plans":
        return task.oracle_plans(CFG)
    if source == "dense":
        return mdl.PlanBundle.dense(CFG)
    if source == "direct":
        rng = substream(6, "causal-direct")
        layer = [full_plan(CFG.blocks), sga.variant_plan("global", near(CFG.blocks, 1), k=2, rng=rng)]
        return mdl.PlanBundle(enc=[layer], dec_self=[layer, layer[::-1]], dec_cross=[layer, layer])
    return eb.variant_bundle(source.removeprefix("variant-"), CFG, task, seed=7)


@pytest.mark.parametrize("source", SOURCES)
def test_dec_self_plans_are_lower_triangular(source, weights, raw_plans):
    """Every `dec_self` plan is the lower triangle of the plan it was built
    from; the encoder and cross-attention plans are the ones given."""
    bundle = make_bundle(source, weights[0])
    raw = raw_plans[id(bundle)]
    assert len(bundle.dec_self) == len(raw["dec_self"])
    for layer, raw_layer in zip(bundle.dec_self, raw["dec_self"]):
        assert len(layer) == len(raw_layer)
        for plan, given in zip(layer, raw_layer):
            assert not np.triu(plan.keep, 1).any()
            assert np.array_equal(plan.keep, given.keep & np.tri(given.n_blocks, dtype=bool))
    assert bundle.enc == raw["enc"] and bundle.dec_cross == raw["dec_cross"]


@pytest.mark.parametrize("source", SOURCES)
def test_block_index_lists_the_causal_blocks(source, weights, raw_plans):
    """The index of the bundle's `dec_self` plans lists, per (head, query
    block r), the tokens of the given plan's kept blocks t <= r."""
    bundle = make_bundle(source, weights[0])
    length = CFG.l_high
    for layer, raw_layer in zip(bundle.dec_self, raw_plans[id(bundle)]["dec_self"]):
        keep = np.stack([p.keep for p in raw_layer]) & np.tri(raw_layer[0].n_blocks, dtype=bool)
        bs = length // keep.shape[-1]
        want = np.full(keep.shape[:2] + (int(keep.sum(axis=-1).max()) * bs,), length)
        for h, r in np.ndindex(keep.shape[:2]):
            tokens = [t for b in np.flatnonzero(keep[h, r]) for t in range(b * bs, (b + 1) * bs)]
            want[h, r, : len(tokens)] = tokens
        assert np.array_equal(sga.block_index(layer, length), want)


@pytest.mark.parametrize("source", SOURCES)
def test_forward_score_flops_count_the_kernel_keys(source, weights, monkeypatch):
    """`forward_score_flops` is 2 * dh * bs per key token that a full
    forward pass lists in the kernel's indices (the sentinel aside)."""
    guide, high = weights
    bundle = make_bundle(source, guide)
    length = CFG.l_high
    counted = []
    kernel = T.block_attention

    def counting(q, k, v, keys, *args, **kwargs):
        counted.append(2 * (CFG.d // CFG.heads) * (length // keys.shape[1]) * int(np.count_nonzero(keys < length)))
        return kernel(q, k, v, keys, *args, **kwargs)

    monkeypatch.setattr(T, "block_attention", counting)
    request = make_request()
    mdl.forward(request.tokens, request.semantic, high, bundle, request.tokens.flat())
    assert len(counted) == CFG.layers_enc + 2 * CFG.layers_dec
    assert sum(counted) == eb.forward_score_flops(CFG, bundle, length)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_guided_dec_self_plan_is_the_selection_over_past_blocks(seed, weights):
    """The guide's causal maps give every later key block an affinity of
    exactly 0, and the selection breaks ties toward the lower block, so
    the lower triangle of a guided `dec_self` plan is the neighborhood plus the
    top-K blocks t <= r: keeping the triangle drops no pick a selection
    over the visible blocks alone would make."""
    guide, _ = weights
    request = make_request(seed)
    result = sampler.guide_and_plan(request, guide, CFG, seed=seed)
    forced = mdl.guiding_forward(
        apply_mask(request.tokens_low, request.mask_low), request.semantic_low, guide,
        decoder_tokens=result.completion_low.flat(),
    )
    n = CFG.blocks
    for layer, maps in zip(result.plans.dec_self, forced.dec_self_attn):
        for plan, b in zip(layer, sga.partition(CFG.l_low, n).pool(np.stack(maps))):
            assert (b[np.triu_indices(n, 1)] == 0).all()
            for r in range(n):
                near = [t for t in range(r + 1) if r - t <= CFG.radius]
                picks = sorted((t for t in range(r + 1) if r - t > CFG.radius), key=lambda t: (-b[r, t], t))
                assert plan.kept[r] == tuple(sorted(near + picks[: CFG.top_k]))
