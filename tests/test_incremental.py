"""The decoder extended row by row, one candidate or a batch, against the
same decoder extended by the whole sequence at once (`decoder_forward`):
its cache, its index slicing and its candidate layouts must give the
whole-sequence rows. `extend` returns only the last row of each call, so
the rows before it are checked through the key/value cache they leave."""

import numpy as np
import pytest

from sgaedit import model as mdl
from sgaedit import sampler, sga
from sgaedit import tape as T
from sgaedit.errors import ShapeError, ValidationError
from sgaedit.quantizer import TokenGrid, apply_mask
from sgaedit.rng import substream

from conftest import full_plan, near, randomize_norms

TOLERANCE = 1e-10
PLAN_KINDS = ("dense", "guided", "random", "local", "full")


def make_config(layers_dec):
    return mdl.ModelConfig(
        d=16,
        layers_enc=1,
        layers_dec=layers_dec,
        heads=2,
        vocab=8,
        vocab_map=3,
        grid_high=(4, 8),
        grid_low=(2, 4),
        blocks=8,
        top_k=2,
        radius=1,
        ffw=32,
    )


def make_request(cfg, mask_high, seed=0):
    rng = substream(seed, "incremental-request")
    mask_low = np.zeros(cfg.grid_low, bool)
    mask_low[-1, 1:3] = True
    return sampler.EditRequest(
        tokens=TokenGrid(rng.integers(0, cfg.vocab, size=cfg.grid_high), cfg.vocab),
        semantic=TokenGrid(rng.integers(0, cfg.vocab_map, size=cfg.grid_high), cfg.vocab_map),
        mask=mask_high,
        tokens_low=TokenGrid(rng.integers(0, cfg.vocab, size=cfg.grid_low), cfg.vocab),
        semantic_low=TokenGrid(rng.integers(0, cfg.vocab_map, size=cfg.grid_low), cfg.vocab_map),
        mask_low=mask_low,
    )


def make_weights(cfg, seed=0):
    guide = mdl.init_weights(cfg, cfg.grid_low, substream(seed, "incremental-guide"))
    randomize_norms(guide.params, substream(seed, "incremental-norms"))
    return guide, mdl.init_from_guiding(guide)


def make_plans(kind, cfg, guide, request):
    if kind == "dense":
        return mdl.PlanBundle.dense(cfg)
    if kind == "guided":
        return sampler.guide_and_plan(request, guide, cfg, seed=3).plans
    if kind == "full":
        return mdl.PlanBundle.uniform(cfg, lambda role, i, h: full_plan(cfg.blocks))
    seeds = iter(range(1000))
    return mdl.PlanBundle.uniform(
        cfg, lambda role, i, h: sga.variant_plan(
            kind, near(cfg.blocks, 1), k=2, rng=substream(next(seeds), f"variant-plan-{kind}")
        )
    )


def encode(request, weights, plans):
    return mdl.encoder_forward(apply_mask(request.tokens, request.mask), request.semantic, weights, plans=plans)


@pytest.mark.parametrize("layers_dec", [1, 2])
@pytest.mark.parametrize("kind", PLAN_KINDS)
def test_every_step_matches_full_pass(kind, layers_dec):
    cfg = make_config(layers_dec)
    guide, high = make_weights(cfg, layers_dec)
    request = make_request(cfg, np.zeros(cfg.grid_high, bool))
    plans = make_plans(kind, cfg, guide, request)
    enc = encode(request, high, plans)
    prev = np.concatenate([[cfg.start_token], request.tokens.flat()[:-1]])
    dec = mdl.IncrementalDecoder(enc, high, plans)
    full, _, _ = mdl.decoder_forward(prev, enc, high, plans)
    # single rows, runs inside one block, and runs across block boundaries
    for size in (1, 1, 3, 6, 1, 9, 2, 1, 7, 1):
        got = dec.extend(prev[None, dec.n : dec.n + size])
        assert got.shape == (1, cfg.vocab)
        assert np.abs(got[0] - full[dec.n - 1]).max() <= TOLERANCE
    assert dec.n == cfg.l_high


@pytest.mark.parametrize("layers_dec", [1, 2])
@pytest.mark.parametrize("kind", ["dense", "guided"])
def test_extend_runs_the_block_kernel_once_per_role_and_layer(kind, layers_dec, monkeypatch):
    """Every `extend` is one `tape.block_attention` call per (role, layer);
    a run inside one block passes exactly its rows, as one query block. A
    decoder that records maps (one dense candidate) runs every row in every
    layer; one that records none runs only the returned row in the last."""
    cfg = make_config(layers_dec)
    guide, high = make_weights(cfg)
    request = make_request(cfg, np.zeros(cfg.grid_high, bool))
    plans = make_plans(kind, cfg, guide, request)
    enc = encode(request, high, plans)
    prev = np.concatenate([[cfg.start_token], request.tokens.flat()[:-1]])
    dec = mdl.IncrementalDecoder(enc, high, plans)
    bs = cfg.l_high // cfg.blocks
    every_row = kind == "dense"
    assert (dec.self_maps[0] is not None) == every_row
    rows_seen = []
    kernel = T.block_attention

    def counting(q, k, v, keys, *args, **kwargs):
        rows_seen.append((np.shape(q)[0], np.shape(keys)[1]))  # (query rows, query blocks)
        return kernel(q, k, v, keys, *args, **kwargs)

    monkeypatch.setattr(T, "block_attention", counting)
    # single rows, runs inside one block, and runs across block boundaries
    for size in (1, 2, 3, 1, 9, 2, 1, 7, 6):
        rows_seen.clear()
        first = dec.n
        dec.extend(prev[None, first : first + size])
        assert len(rows_seen) == 2 * layers_dec
        if not every_row:  # the last layer runs the returned row alone
            assert rows_seen[-2:] == [(1, 1), (1, 1)]
            del rows_seen[-2:]
        if first // bs == (first + size - 1) // bs:
            assert set(rows_seen) <= {(size, 1)}
    assert dec.n == cfg.l_high


def candidate_inputs(prev, candidates, split, vocab):
    """`candidates` decoder inputs that share rows [0, split) and differ
    from one another in every later row."""
    out = np.repeat(prev[None], candidates, axis=0)
    out[:, split:] = (prev[split:] + np.arange(candidates)[:, None]) % vocab
    return out


@pytest.mark.parametrize("layers_dec", [1, 2])
@pytest.mark.parametrize("kind", PLAN_KINDS)
def test_batched_extend_matches_each_candidates_full_pass(kind, layers_dec, monkeypatch):
    """A batch branched after a shared prefix: each call's last row equals
    each candidate's own full pass, for single rows, runs inside one block
    and runs across blocks, and every `extend` is one kernel call per
    (role, layer) for all candidates: self-attention with the candidates on
    the head axis, cross-attention with them on the query rows. A batch
    records no maps, so its last layer gets one query row per candidate."""
    cfg = make_config(layers_dec)
    guide, high = make_weights(cfg, layers_dec)
    request = make_request(cfg, np.zeros(cfg.grid_high, bool))
    plans = make_plans(kind, cfg, guide, request)
    enc = encode(request, high, plans)
    prev = np.concatenate([[cfg.start_token], request.tokens.flat()[:-1]])
    bs = cfg.l_high // plans.dec_self[0][0].n_blocks
    c, heads = 3, cfg.heads
    calls = []
    kernel = T.block_attention

    def counting(q, k, v, keys, *args, **kwargs):
        calls.append((np.shape(q)[0], np.shape(keys)[0]))  # (query rows, heads)
        return kernel(q, k, v, keys, *args, **kwargs)

    for split in (1, 6):
        seqs = candidate_inputs(prev, c, split, cfg.vocab)
        fulls = np.stack([mdl.decoder_forward(seq, enc, high, plans)[0] for seq in seqs])
        shared = mdl.IncrementalDecoder(enc, high, plans)
        assert np.abs(shared.extend(prev[None, :split]) - fulls[:, split - 1]).max() <= TOLERANCE
        dec = shared.branch(c)
        monkeypatch.setattr(T, "block_attention", counting)
        for size in (1, 2, 1, 5, 3, 1, 7, 2, 9, 32):
            if dec.n == cfg.l_high:
                break
            size = min(size, cfg.l_high - dec.n)
            first = dec.n
            calls.clear()
            got = dec.extend(seqs[:, first : first + size])
            assert got.shape == (c, cfg.vocab)
            assert np.abs(got - fulls[:, dec.n - 1]).max() <= TOLERANCE
            assert len(calls) == 2 * layers_dec
            assert sorted(h for _, h in calls) == [heads] * layers_dec + [c * heads] * layers_dec
            if first // bs == (first + size - 1) // bs:
                assert set(calls[:-2]) <= {(size, c * heads), (c * size, heads)}
            assert calls[-2:] == [(1, c * heads), (c, heads)]
        monkeypatch.undo()
        assert dec.n == cfg.l_high


@pytest.mark.parametrize("candidates", [1, 3])
@pytest.mark.parametrize("layers_dec", [1, 2])
@pytest.mark.parametrize("kind", PLAN_KINDS)
def test_trimmed_extend_matches_full_pass_and_row_by_row_cache(kind, layers_dec, candidates):
    """However a sequence is split into `extend` calls, each call returns
    the full pass's row at its last position, and the key/value cache holds
    the rows of a decoder extended one row at a time, whose calls each
    return their only row and so trim nothing; one dense candidate still
    records the full pass's maps."""
    cfg = make_config(layers_dec)
    guide, high = make_weights(cfg, layers_dec)
    request = make_request(cfg, np.zeros(cfg.grid_high, bool))
    plans = make_plans(kind, cfg, guide, request)
    enc = encode(request, high, plans)
    prev = np.concatenate([[cfg.start_token], request.tokens.flat()[:-1]])
    split = 6
    seqs = candidate_inputs(prev, candidates, split, cfg.vocab)
    fulls = [mdl.decoder_forward(seq, enc, high, plans) for seq in seqs]

    def decoder(sizes):
        dec = mdl.IncrementalDecoder(enc, high, plans)
        for size in sizes:
            if dec.n == split and candidates > 1:
                dec = dec.branch(candidates)
            first = dec.n
            got = dec.extend(seqs[: dec.candidates, first : first + size])
            assert got.shape == (dec.candidates, cfg.vocab)
            for c, row in enumerate(got):
                assert np.abs(row - fulls[c][0][dec.n - 1]).max() <= 1e-12
        assert dec.n == cfg.l_high
        return dec

    # single rows, runs inside one block, and runs across block boundaries
    trimmed = decoder((1, 3, 2, 1, 5, 3, 1, 7, 9))
    reference = decoder([1] * cfg.l_high)
    for got, want in zip(trimmed._k + trimmed._v, reference._k + reference._v, strict=True):
        assert got.shape == want.shape == (cfg.l_high, candidates, cfg.d)
        assert np.abs(got - want).max() <= 1e-12
    if kind == "dense" and candidates == 1:
        for got, want in zip(trimmed.self_maps + trimmed.cross_maps, fulls[0][1] + fulls[0][2], strict=True):
            assert np.abs(got - want).max() <= 1e-12


def first_zero_mask(cfg):
    mask = np.zeros(cfg.grid_high, bool)
    mask[0, 0] = mask[0, 5] = mask[2, 3:6] = True
    return mask


def box_mask(cfg):
    mask = np.zeros(cfg.grid_high, bool)
    mask[2:, 2:5] = True
    return mask


@pytest.mark.parametrize("kind", PLAN_KINDS)
@pytest.mark.parametrize("mask_fn", [first_zero_mask, box_mask], ids=["first-zero", "box"])
def test_sampled_rows_match_full_pass(kind, mask_fn, monkeypatch):
    """Every logits row the decode loop samples from equals row `pos` of a
    full pass over the candidate: its causal mask makes that row depend
    only on the tokens the candidate had decoded by then."""
    cfg = make_config(2)
    guide, high = make_weights(cfg)
    request = make_request(cfg, mask_fn(cfg), seed=1)
    plans = make_plans(kind, cfg, guide, request)
    steps = []  # (logits rows, choices) of every candidate, in decode order
    real_sample = sampler.topk_sample

    def recording_sample(logits, k, rngs):
        choices, logprobs = real_sample(logits, k, rngs)
        steps.append((np.array(logits), choices.copy()))
        return choices, logprobs

    monkeypatch.setattr(sampler, "topk_sample", recording_sample)
    tokens, logprobs = sampler.autoregressive_edit(request, high, plans, n_samples=2, n_keep=2, seed=4)
    monkeypatch.undo()

    enc = encode(request, high, plans)
    positions = np.flatnonzero(request.mask.ravel())
    assert len(steps) == positions.size
    for cand in range(2):
        seq = request.tokens.flat().copy()
        seq[positions] = [choices[cand] for _, choices in steps]
        prev = np.concatenate([[cfg.start_token], seq[:-1]])
        full, _, _ = mdl.decoder_forward(prev, enc, high, plans)
        for pos, (rows, _) in zip(positions, steps):
            assert np.abs(full[pos] - rows[cand]).max() <= TOLERANCE
    for row, logprob in zip(tokens, logprobs):
        assert abs(sampler.rescore(request, high, plans, TokenGrid(row, cfg.vocab)) - logprob) <= 1e-9


@pytest.mark.parametrize("kind", ["dense", "guided"])
def test_no_masked_tokens_returns_input(kind):
    cfg = make_config(1)
    guide, high = make_weights(cfg)
    request = make_request(cfg, np.zeros(cfg.grid_high, bool))
    plans = make_plans(kind, cfg, guide, request)
    tokens, logprobs = sampler.autoregressive_edit(request, high, plans, n_samples=3, n_keep=3, seed=0)
    assert np.array_equal(tokens, np.broadcast_to(request.tokens.tokens, tokens.shape))
    assert np.array_equal(logprobs, np.zeros(3))


def test_batch_candidates_do_not_alias():
    """A branched batch writes each candidate's rows into its own cache
    columns, never into another candidate's or the shared prefix's."""
    cfg = make_config(2)
    guide, high = make_weights(cfg)
    request = make_request(cfg, np.zeros(cfg.grid_high, bool))
    plans = make_plans("guided", cfg, guide, request)
    enc = encode(request, high, plans)
    prev = np.concatenate([[cfg.start_token], request.tokens.flat()[:-1]])
    seqs = candidate_inputs(prev, 2, 10, cfg.vocab)

    base = mdl.IncrementalDecoder(enc, high, plans)
    base.extend(prev[None, :10])
    snapshot = [buf.copy() for buf in base._k + base._v]
    batch = base.branch(2)
    for buf in batch._k + batch._v:
        assert not any(np.shares_memory(buf, other) for other in base._k + base._v)
    got = batch.extend(seqs[:, 10:])
    # the prefix is untouched, the candidates' rows differ, and each equals its own full pass
    assert base.n == 10
    for before, after in zip(snapshot, base._k + base._v):
        assert np.array_equal(before, after)
    for buf, before in zip(batch._k + batch._v, snapshot):
        assert np.array_equal(buf[:10, 0], before[:10, 0]) and np.array_equal(buf[:10, 1], before[:10, 0])
        assert not np.any(np.all(buf[10:, 0] == buf[10:, 1], axis=-1))
    for c, seq in enumerate(seqs):
        full, _, _ = mdl.decoder_forward(seq, enc, high, plans)
        assert np.abs(full[-1] - got[c]).max() <= TOLERANCE
        # each candidate's cache holds the rows of a decoder that ran it alone, row by row
        alone = mdl.IncrementalDecoder(enc, high, plans)
        for row in range(cfg.l_high):
            alone.extend(seq[None, row : row + 1])
        for buf, ref in zip(batch._k + batch._v, alone._k + alone._v):
            assert np.abs(buf[:, c] - ref[:, 0]).max() <= TOLERANCE


def test_dense_bundle_decodes_over_one_block():
    """Dense decoding gathers the one-block index: one query block of all L rows,
    whose keys are every token."""
    cfg = make_config(2)
    _, high = make_weights(cfg)
    request = make_request(cfg, np.zeros(cfg.grid_high, bool))
    dense = mdl.PlanBundle.dense(cfg)
    dec = mdl.IncrementalDecoder(encode(request, high, dense), high, dense)
    for keys in dec._self_index + dec._cross_index:
        assert keys.shape == (cfg.heads, 1, cfg.l_high)


def test_extend_validates_input():
    cfg = make_config(1)
    _, high = make_weights(cfg)
    request = make_request(cfg, np.zeros(cfg.grid_high, bool))
    dense = mdl.PlanBundle.dense(cfg)
    enc = encode(request, high, dense)
    dec = mdl.IncrementalDecoder(enc, high, dense)
    with pytest.raises(ValidationError, match="must begin with START"):
        dec.extend([[1, 2]])  # row 0 must read START
    with pytest.raises(ValidationError, match=r"is not \[1, rows\]"):
        dec.extend([cfg.start_token, 1])  # not a [candidates, rows] block
    dec.extend([[cfg.start_token, 1]])
    with pytest.raises(ValidationError, match="START appears after position 0"):
        dec.extend([[cfg.start_token]])  # START only at row 0
    for token in (-1, cfg.start_token + 1):
        with pytest.raises(ValidationError, match="decoder token outside embedding table"):
            dec.extend([[token]])
    with pytest.raises(ValidationError, match="prefix length"):
        dec.extend(np.ones((1, cfg.l_high - 1), dtype=int))  # past the grid
    batch = dec.branch(2)
    with pytest.raises(ValidationError, match=r"is not \[2, rows\]"):
        batch.extend([[1]])  # one row block for two candidates
    with pytest.raises(ValidationError, match="START appears after position 0"):
        batch.extend([[1], [cfg.start_token]])  # START only at row 0, in every candidate
    with pytest.raises(ShapeError):
        batch.branch(2)  # only a single candidate branches


@pytest.mark.parametrize("layers_dec", [1, 2])
def test_dense_decoder_collects_the_full_pass_maps(layers_dec):
    """A single dense candidate extended as a prefix, then single rows, then
    the tail holds, after every call, the rows so far of the maps of one
    call over the whole sequence; once complete they are read-only."""
    cfg = make_config(layers_dec)
    _, high = make_weights(cfg, layers_dec)
    request = make_request(cfg, np.zeros(cfg.grid_high, bool))
    dense = mdl.PlanBundle.dense(cfg)
    enc = encode(request, high, dense)
    prev = np.concatenate([[cfg.start_token], request.tokens.flat()[:-1]])
    _, want_self, want_cross = mdl.decoder_forward(prev, enc, high, dense)
    want = want_self + want_cross
    dec = mdl.IncrementalDecoder(enc, high, dense)
    for size in (11, 1, 1, 1, cfg.l_high - 14):
        dec.extend(prev[None, dec.n : dec.n + size])
        for got, full in zip(dec.self_maps + dec.cross_maps, want, strict=True):
            assert got.shape == (cfg.heads, cfg.l_high, cfg.l_high)
            assert np.abs(got[:, : dec.n] - full[:, : dec.n]).max() <= 1e-12
    for maps in (dec.self_maps + dec.cross_maps, want):
        assert len(maps) == 2 * layers_dec
        for layer in maps:
            with pytest.raises(ValueError, match="read-only"):
                layer[0, 0, 0] = 0.5


def test_multi_block_and_batched_decoders_hold_no_maps():
    cfg = make_config(2)
    guide, high = make_weights(cfg)
    request = make_request(cfg, np.zeros(cfg.grid_high, bool))
    prev = np.concatenate([[cfg.start_token], request.tokens.flat()[:-1]])
    for kind in ("guided", "full"):
        plans = make_plans(kind, cfg, guide, request)
        enc = encode(request, high, plans)
        dec = mdl.IncrementalDecoder(enc, high, plans)
        dec.extend(prev[None, :5])
        assert dec.self_maps == dec.cross_maps == [None, None]
        _, self_maps, cross_maps = mdl.decoder_forward(prev, enc, high, plans)
        assert self_maps == cross_maps == [None, None]
    dense = mdl.PlanBundle.dense(cfg)
    shared = mdl.IncrementalDecoder(encode(request, high, dense), high, dense)
    shared.extend(prev[None, :5])
    before = [m.copy() for m in shared.self_maps + shared.cross_maps]
    batch = shared.branch(3)
    assert batch.self_maps == batch.cross_maps == [None, None]
    batch.extend(np.repeat(prev[None, 5:], 3, axis=0))
    for maps, snapshot in zip(shared.self_maps + shared.cross_maps, before):
        assert np.array_equal(maps, snapshot) and not maps[:, 5:].any()
    with pytest.raises(ShapeError):
        shared.branch(1)  # one candidate decodes on, unbranched
