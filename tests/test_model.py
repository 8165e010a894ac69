import dataclasses
import json

import numpy as np
import pytest

from sgaedit import model as mdl
from sgaedit import sga
from sgaedit import tape as T
from sgaedit.errors import ConfigError, SequenceError, VocabularyError
from sgaedit.quantizer import TokenGrid
from sgaedit.rng import substream

from conftest import DenseBlockAttention, plan_masks, randomize_norms

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


def random_grids(grid, seed=0):
    rng = substream(seed, "grids")
    x = TokenGrid(rng.integers(0, CFG.vocab, size=grid), CFG.vocab)
    p = TokenGrid(rng.integers(0, CFG.vocab_map, size=grid), CFG.vocab_map)
    return x, p


def zero_weights(config, grid):
    shapes = mdl.parameter_shapes(config, grid)
    return mdl.ModelWeights(config, grid, {k: np.zeros(s) for k, s in shapes.items()})


class TestEmbedEncoder:
    def test_zero_tables_give_zero(self):
        w = zero_weights(CFG, CFG.grid_high)
        x, p = random_grids(CFG.grid_high)
        assert np.abs(mdl.embed_encoder(x, p, w)).max() == 0.0

    def test_one_hot_tables_sum_rows(self):
        w = zero_weights(CFG, (1, 1))
        w.params["enc_tok_emb"][3, 0] = 1.0
        w.params["enc_map_emb"][1, 1] = 1.0
        w.params["enc_pos"][0, 2] = 1.0
        x = TokenGrid(np.array([[3]]), CFG.vocab)
        p = TokenGrid(np.array([[1]]), CFG.vocab_map)
        emb = mdl.embed_encoder(x, p, w)
        expected = np.zeros((1, CFG.d))
        expected[0, :3] = 1.0
        assert np.array_equal(emb, expected)

    def test_gather_and_add_oracle(self):
        rng = substream(1, "embed")
        w = mdl.init_weights(CFG, CFG.grid_high, rng)
        x, p = random_grids(CFG.grid_high, 2)
        emb = mdl.embed_encoder(x, p, w)
        for l, (xi, pi) in enumerate(zip(x.flat(), p.flat())):
            expected = w.params["enc_tok_emb"][xi] + w.params["enc_map_emb"][pi] + w.params["enc_pos"][l]
            assert np.abs(emb[l] - expected).max() <= 1e-12

    def test_mask_token_allowed_in_image_not_semantic(self):
        w = mdl.init_weights(CFG, CFG.grid_high, substream(3, "w"))
        x, p = random_grids(CFG.grid_high, 4)
        x.tokens[0, 0] = CFG.vocab  # MASK is legal for the image grid
        mdl.embed_encoder(x, p, w)
        p_bad = TokenGrid(np.full(CFG.grid_high, CFG.vocab_map, dtype=int), CFG.vocab_map + 1)
        with pytest.raises(VocabularyError):
            mdl.embed_encoder(x, p_bad, w)


def numpy_gelu(x):
    """tanh-form GELU, written apart from `tape.gelu`."""
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def manual_encoder_layer(emb, w, cfg, grid, prefix="enc0"):
    """Independent step-by-step composition of the encoder layer from
    untaped primitive ops, per-head numpy attention and a numpy GELU."""
    h, wdt = grid
    d = cfg.d
    rows = T.peg(emb.reshape(h, wdt, d), w[f"{prefix}_peg"]).reshape(h * wdt, d)
    q = rows @ w[f"{prefix}_wq"]
    k = rows @ w[f"{prefix}_wk"]
    v = rows @ w[f"{prefix}_wv"]
    dh = d // cfg.heads
    heads = []
    for i in range(cfg.heads):
        qs, ks, vs = (m[:, i * dh : (i + 1) * dh] for m in (q, k, v))
        weights = T.masked_softmax(qs @ ks.T / np.sqrt(dh), np.zeros((rows.shape[0], rows.shape[0])))
        heads.append(weights @ vs)
    attn = np.concatenate(heads, axis=1) @ w[f"{prefix}_wo"]
    rows = T.layer_norm(rows + attn, w[f"{prefix}_ln1_g"], w[f"{prefix}_ln1_b"])
    ff = numpy_gelu(rows @ w[f"{prefix}_ff1"] + w[f"{prefix}_ff1_b"]) @ w[f"{prefix}_ff2"] + w[f"{prefix}_ff2_b"]
    return T.layer_norm(rows + ff, w[f"{prefix}_ln2_g"], w[f"{prefix}_ln2_b"])


class TestEncoderForward:
    def test_zero_layers_returns_embeddings(self):
        cfg = dataclasses.replace(CFG, layers_enc=0)
        w = mdl.init_weights(cfg, cfg.grid_high, substream(5, "w0"))
        x, p = random_grids(cfg.grid_high, 6)
        emb = mdl.embed_encoder(x, p, w)
        out = mdl.encoder_forward(x, p, w, mdl.PlanBundle.dense(cfg))
        assert np.array_equal(out.context, emb)
        assert out.attn == []

    def test_dense_vs_full_kept_plan(self):
        w = mdl.init_weights(CFG, CFG.grid_high, substream(6, "w1"))
        x, p = random_grids(CFG.grid_high, 7)
        dense = mdl.encoder_forward(x, p, w, DENSE).context
        full = mdl.PlanBundle.uniform(CFG, lambda role, i, h: sga.full_plan(CFG.blocks))
        sparse = mdl.encoder_forward(x, p, w, plans=full).context
        assert np.abs(dense - sparse).max() <= 1e-5

    def test_one_layer_matches_primitive_composition(self):
        w = mdl.init_weights(CFG, CFG.grid_high, substream(7, "w2"))
        x, p = random_grids(CFG.grid_high, 8)
        emb = mdl.embed_encoder(x, p, w)
        out = mdl.encoder_forward(x, p, w, DENSE).context
        expected = manual_encoder_layer(emb, w.params, CFG, CFG.grid_high)
        assert np.abs(out - expected).max() <= 1e-5

    def test_recorded_maps_row_stochastic(self):
        w = mdl.init_weights(CFG, CFG.grid_high, substream(8, "w3"))
        x, p = random_grids(CFG.grid_high, 9)
        out = mdl.encoder_forward(x, p, w, DENSE)
        assert len(out.attn) == CFG.layers_enc
        for layer in out.attn:
            assert len(layer) == CFG.heads
            for m in layer:
                assert m.shape == (16, 16)
                assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-6

    def test_record_returns_maps_for_one_block_plans_only(self):
        w = mdl.init_weights(CFG, CFG.grid_high, substream(24, "w4"))
        x, p = random_grids(CFG.grid_high, 25)
        dense = mdl.encoder_forward(x, p, w, DENSE)
        full = mdl.PlanBundle.uniform(CFG, lambda role, i, h: sga.full_plan(CFG.blocks))
        blocked = mdl.encoder_forward(x, p, w, full)
        for layer in dense.attn:
            assert layer.shape == (CFG.heads, CFG.l_high, CFG.l_high)
            assert not layer.flags.writeable
        assert blocked.attn == [None] * CFG.layers_enc
        assert np.abs(dense.context - blocked.context).max() <= 1e-5


class TestPlanBundle:
    def test_dense_is_the_one_block_full_plan(self):
        plans = [p for role in (DENSE.enc, DENSE.dec_self, DENSE.dec_cross) for layer in role for p in layer]
        assert len(plans) == (CFG.layers_enc + 2 * CFG.layers_dec) * CFG.heads
        assert all(np.array_equal(p.keep, sga.full_plan(1).keep) for p in plans)
        assert plans[0].kept == ((0,),)
        assert DENSE.mean_sparsity() == {"enc": 1.0, "dec_self": 1.0, "dec_cross": 1.0}


class TestDecoderForward:
    def _inputs(self, seed=0, grid=None):
        grid = grid or CFG.grid_high
        w = mdl.init_weights(CFG, grid, substream(seed, "dec"))
        randomize_norms(w.params, substream(seed, "dec-norms"))
        x, p = random_grids(grid, seed + 50)
        enc = mdl.encoder_forward(x, p, w, DENSE)
        return w, x, enc

    def test_zero_weights_zero_logits(self):
        w = zero_weights(CFG, CFG.grid_high)
        x, p = random_grids(CFG.grid_high, 10)
        enc = mdl.encoder_forward(x, p, w, DENSE)
        prev = np.concatenate([[CFG.start_token], x.flat()[:-1]])
        logits, _, _ = mdl.decoder_forward(prev, enc, w, DENSE)
        assert np.abs(logits).max() == 0.0

    def test_future_perturbation_invariance_is_exact(self):
        w, x, enc = self._inputs(11)
        prev = np.concatenate([[CFG.start_token], x.flat()[:-1]])
        logits, _, _ = mdl.decoder_forward(prev, enc, w, DENSE)
        rng = substream(12, "perturb")
        for l in (3, 8, 14):
            prev2 = prev.copy()
            j = rng.integers(l + 1, prev.size)
            prev2[j] = (prev2[j] + 1 + rng.integers(CFG.vocab - 1)) % CFG.vocab
            logits2, _, _ = mdl.decoder_forward(prev2, enc, w, DENSE)
            assert np.array_equal(logits[: l + 1], logits2[: l + 1])

    def test_start_position_validation(self):
        w, x, enc = self._inputs(13)
        with pytest.raises(SequenceError):
            mdl.decoder_forward(np.zeros(CFG.l_high, dtype=int), enc, w, DENSE)  # no START
        good = np.concatenate([[CFG.start_token], x.flat()[:-1]])
        bad = good.copy()
        bad[5] = CFG.start_token
        with pytest.raises(SequenceError):
            mdl.decoder_forward(bad, enc, w, DENSE)
        with pytest.raises(SequenceError):
            mdl.decoder_forward(good[:6], enc, w, DENSE)  # a prefix, not the whole sequence

    def test_output_dimension_is_vocab(self):
        w, x, enc = self._inputs(14)
        prev = np.concatenate([[CFG.start_token], x.flat()[:-1]])
        logits, _, _ = mdl.decoder_forward(prev, enc, w, DENSE)
        assert logits.shape == (CFG.l_high, CFG.vocab)

    def test_one_layer_matches_primitive_composition(self):
        w, x, enc = self._inputs(15)
        prev = np.concatenate([[CFG.start_token], x.flat()[:-1]])
        logits, _, _ = mdl.decoder_forward(prev, enc, w, DENSE)

        # independent composition
        wp = w.params
        h, wdt = CFG.grid_high
        d, dh = CFG.d, CFG.d // CFG.heads
        steps = prev.size
        rows = wp["dec_tok_emb"][prev] + wp["dec_pos"][:steps]
        peg_rows = T.peg(enc.context.reshape(h, wdt, d), wp["dec_peg"]).reshape(h * wdt, d)
        rows = rows + peg_rows[:steps]
        causal = np.where(np.arange(steps)[None, :] <= np.arange(steps)[:, None], 0.0, -np.inf)

        def mha(x_q, x_kv, prefix, mask):
            q, k, v = (x_q @ wp[f"{prefix}_wq"], x_kv @ wp[f"{prefix}_wk"], x_kv @ wp[f"{prefix}_wv"])
            outs = []
            for i in range(CFG.heads):
                qs, ks, vs = (m[:, i * dh : (i + 1) * dh] for m in (q, k, v))
                outs.append(T.masked_softmax(qs @ ks.T / np.sqrt(dh), mask) @ vs)
            return np.concatenate(outs, axis=1) @ wp[f"{prefix}_wo"]

        rows = T.layer_norm(rows + mha(rows, rows, "dec0_self", causal), wp["dec0_ln1_g"], wp["dec0_ln1_b"])
        cross_mask = np.zeros((steps, enc.context.shape[0]))
        rows = T.layer_norm(rows + mha(rows, enc.context, "dec0_cross", cross_mask), wp["dec0_ln2_g"], wp["dec0_ln2_b"])
        ff = numpy_gelu(rows @ wp["dec0_ff1"] + wp["dec0_ff1_b"]) @ wp["dec0_ff2"] + wp["dec0_ff2_b"]
        rows = T.layer_norm(rows + ff, wp["dec0_ln3_g"], wp["dec0_ln3_b"])
        expected = rows @ wp["out_head"]
        assert np.abs(logits - expected).max() <= 1e-5


class TestGuidingForward:
    def test_dense_equals_sga_path_with_full_plans(self):
        w = mdl.init_weights(CFG, CFG.grid_low, substream(16, "g"))
        x, p = random_grids(CFG.grid_low, 17)
        dense = mdl.guiding_forward(x, p, w, x.flat())
        full = mdl.PlanBundle.uniform(CFG, lambda role, i, h: sga.full_plan(CFG.blocks))
        enc = mdl.encoder_forward(x, p, w, plans=full)
        prev = np.concatenate([[CFG.start_token], x.flat()[:-1]])
        logits, _, _ = mdl.decoder_forward(prev, enc, w, full)
        assert np.abs(dense.logits - logits).max() <= 1e-6

    @pytest.mark.parametrize("grid", [(2, 2), (8, 8)])
    def test_matches_per_head_dense_oracle(self, grid, monkeypatch):
        """Dense heads on the one-block kernel give the logits and every
        encoder, decoder-self and decoder-cross map of per-head dense attention."""
        cfg = dataclasses.replace(CFG, layers_enc=2, layers_dec=2, grid_low=grid, grid_high=(8, 8))
        w = mdl.init_weights(cfg, cfg.grid_low, substream(22, "g5"))
        x, p = random_grids(cfg.grid_low, 23)
        got = mdl.guiding_forward(x, p, w, x.flat())
        oracle = DenseBlockAttention()
        with monkeypatch.context() as patch:
            patch.setattr(T, "block_attention", oracle)
            want = mdl.guiding_forward(x, p, w, x.flat())
        # every call masks what its role should: nothing, or the causal mask for decoder self
        expected = plan_masks(mdl.PlanBundle.dense(cfg), cfg.l_low)
        assert len(oracle.masks) == len(expected)
        assert all(np.array_equal(m, e) for m, e in zip(oracle.masks, expected))
        assert np.abs(got.logits - want.logits).max() <= 1e-12
        for role in ("encoder", "dec_self_attn", "dec_cross_attn"):
            got_maps = got.encoder.attn if role == "encoder" else getattr(got, role)
            want_maps = want.encoder.attn if role == "encoder" else getattr(want, role)
            assert len(got_maps) == len(want_maps) == (2 if role == "encoder" else cfg.layers_dec)
            for got_layer, want_layer in zip(got_maps, want_maps):
                assert len(got_layer) == len(want_layer) == cfg.heads
                for g, m in zip(got_layer, want_layer):
                    assert g.shape == m.shape == (cfg.l_low, cfg.l_low)
                    assert np.abs(g - m).max() <= 1e-12, role

    def test_forward_prepends_start_to_the_whole_sequence(self):
        w = mdl.init_weights(CFG, CFG.grid_low, substream(24, "g6"))
        x, p = random_grids(CFG.grid_low, 25)
        dense = mdl.PlanBundle.dense(CFG)
        got = mdl.forward(x, p, w, dense, x.flat())
        prev = np.concatenate([[CFG.start_token], x.flat()[:-1]])
        want, _, _ = mdl.decoder_forward(prev, mdl.encoder_forward(x, p, w, dense), w, dense)
        assert np.array_equal(got.logits, want)
        for tokens in (x.flat()[:-1], np.append(x.flat(), 0), []):
            with pytest.raises(SequenceError):
                mdl.forward(x, p, w, dense, tokens)

    def test_all_maps_recorded_and_stochastic(self):
        w = mdl.init_weights(CFG, CFG.grid_low, substream(18, "g2"))
        x, p = random_grids(CFG.grid_low, 19)
        res = mdl.guiding_forward(x, p, w, x.flat())
        for group in (res.encoder.attn, res.dec_self_attn, res.dec_cross_attn):
            for layer in group:
                for m in layer:
                    assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-6

    def test_paper_low_res_map_shape(self):
        cfg = mdl.ModelConfig(
            d=8, layers_enc=1, layers_dec=1, heads=1, vocab=4, vocab_map=2,
            grid_high=(32, 32), grid_low=(16, 16), blocks=64, ffw=16,
        )
        w = mdl.init_weights(cfg, cfg.grid_low, substream(20, "g3"))
        rng = substream(21, "g4")
        x = TokenGrid(rng.integers(0, 4, size=(16, 16)), 4)
        p = TokenGrid(np.zeros((16, 16), dtype=int), 2)
        res = mdl.guiding_forward(x, p, w, x.flat())
        assert res.encoder.attn[0][0].shape == (256, 256)
        assert res.dec_cross_attn[0][0].shape == (256, 256)


class TestInitFromGuiding:
    def test_same_grid_copies_everything(self):
        w = mdl.init_weights(CFG, CFG.grid_low, substream(22, "i"))
        out = mdl.init_from_guiding(w, grid=CFG.grid_low)
        for name in w.params:
            assert np.array_equal(out.params[name], w.params[name])

    def test_non_positional_bit_equal(self):
        w = mdl.init_weights(CFG, CFG.grid_low, substream(23, "i2"))
        out = mdl.init_from_guiding(w)
        for name in w.params:
            if name not in ("enc_pos", "dec_pos"):
                assert np.array_equal(out.params[name], w.params[name])

    def test_positional_corners_equal_source(self):
        w = mdl.init_weights(CFG, CFG.grid_low, substream(24, "i3"))
        out = mdl.init_from_guiding(w)
        hs, ws = CFG.grid_low
        hd, wd = CFG.grid_high
        src = w.params["enc_pos"].reshape(hs, ws, -1)
        dst = out.params["enc_pos"].reshape(hd, wd, -1)
        for (si, sj), (di, dj) in [((0, 0), (0, 0)), ((0, ws - 1), (0, wd - 1)),
                                   ((hs - 1, 0), (hd - 1, 0)), ((hs - 1, ws - 1), (hd - 1, wd - 1))]:
            assert np.array_equal(dst[di, dj], src[si, sj])

    def test_interpolation_oracle_interior(self):
        table = np.arange(8.0).reshape(4, 2)[:, :1]  # 4x2 grid? keep simple: 2x2 grid, 1-dim
        table = np.array([[0.0], [1.0], [2.0], [3.0]])  # grid (2,2): rows 0,1,2,3
        out = mdl.bilinear_resize_table(table, (2, 2), (3, 3))
        grid = out.reshape(3, 3)
        assert grid[0, 0] == 0.0 and grid[0, 2] == 1.0 and grid[2, 0] == 2.0 and grid[2, 2] == 3.0
        assert grid[1, 1] == pytest.approx(1.5)  # center = mean of corners

    def test_takes_the_guides_config(self):
        """The new weights share the guide's config and, with no grid given,
        sit at its `grid_high`."""
        w = mdl.init_weights(CFG, CFG.grid_low, substream(25, "i4"))
        out = mdl.init_from_guiding(w)
        assert out.config is w.config
        assert out.grid == CFG.grid_high


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        w = mdl.init_weights(CFG, CFG.grid_low, substream(26, "c"))
        mdl.save_checkpoint(tmp_path / "a", w)
        loaded = mdl.load_checkpoint(tmp_path / "a")
        assert loaded.config == CFG
        assert loaded.grid == CFG.grid_low
        mdl.save_checkpoint(tmp_path / "b", loaded)
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name

    def test_manifest_cannot_redirect_a_parameter(self, tmp_path):
        """A manifest's `params` map that points `enc_pos` at `dec_pos.sgat`
        and `out_head` at another checkpoint's file is ignored: every
        parameter loads from its own `{name}.sgat`."""
        w = mdl.init_weights(CFG, CFG.grid_low, substream(28, "c3"))
        other = mdl.init_weights(CFG, CFG.grid_low, substream(29, "c4"))
        mdl.save_checkpoint(tmp_path / "a", w)
        mdl.save_checkpoint(tmp_path / "b", other)
        want = mdl.load_checkpoint(tmp_path / "a")
        manifest = tmp_path / "a" / "manifest.json"
        params = {name: f"{name}.sgat" for name in w.params}
        params.update(enc_pos="dec_pos.sgat", out_head=str(tmp_path / "b" / "out_head.sgat"))
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "params": params}))
        loaded = mdl.load_checkpoint(tmp_path / "a")
        assert sorted(loaded.params) == sorted(want.params)
        for name in want.params:
            assert np.array_equal(loaded.params[name], want.params[name]), name

    def test_manifest_with_params_map_loads_bit_exact(self, tmp_path):
        """A checkpoint whose manifest lists its files under `params`, as
        checkpoints written before the files were named by rule do, loads
        bit-exactly; a new manifest has no `params`."""
        w = mdl.init_weights(CFG, CFG.grid_low, substream(30, "c5"))
        mdl.save_checkpoint(tmp_path / "a", w)
        want = mdl.load_checkpoint(tmp_path / "a")
        manifest = tmp_path / "a" / "manifest.json"
        new = json.loads(manifest.read_text())
        assert sorted(new) == ["config", "grid"]
        old = {**new, "params": {name: f"{name}.sgat" for name in sorted(w.params)}}
        manifest.write_text(json.dumps(old, indent=2, sort_keys=True))
        loaded = mdl.load_checkpoint(tmp_path / "a")
        assert loaded.config == CFG and loaded.grid == CFG.grid_low
        assert list(loaded.params) == list(want.params)
        for name in want.params:
            assert loaded.params[name].tobytes() == want.params[name].tobytes(), name

    def test_missing_param_rejected(self, tmp_path):
        w = mdl.init_weights(CFG, CFG.grid_low, substream(27, "c2"))
        mdl.save_checkpoint(tmp_path / "a", w)
        (tmp_path / "a" / "out_head.sgat").unlink()
        with pytest.raises((ConfigError, FileNotFoundError)):
            mdl.load_checkpoint(tmp_path / "a")
