import numpy as np
import pytest

from conftest import full_image_blend
from sgaedit import compositing as comp
from sgaedit import quantizer as qz
from sgaedit.errors import IncompleteGridError, ShapeError, VocabularyError
from sgaedit.quantizer import TokenGrid
from sgaedit.rng import substream


class TestPyramid:
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_collapse_inverts_build(self, levels):
        rng = substream(levels, "pyr")
        img = rng.random((32, 32))
        pyr = comp.build_pyramid(img, levels)
        assert np.abs(comp.collapse(pyr) - img).max() <= 1e-4

    def test_collapse_inverts_build_rgb(self):
        rng = substream(9, "pyr-rgb")
        img = rng.random((16, 16, 3))
        assert np.abs(comp.collapse(comp.build_pyramid(img, 3)) - img).max() <= 1e-4

    def test_level_structure(self):
        *bands, residual = comp.build_pyramid(np.zeros((16, 16)), 3)
        assert len(bands) == 2
        assert bands[0].shape == (16, 16)
        assert bands[1].shape == (8, 8)
        assert residual.shape == (4, 4)

    def test_divisibility_enforced(self):
        """`levels` levels halve the image `levels - 1` times, so each side
        must divide by 2**(levels - 1)."""
        assert comp.build_pyramid(np.zeros((12, 12)), 3)[-1].shape == (3, 3)
        with pytest.raises(ShapeError):
            comp.build_pyramid(np.zeros((12, 10)), 3)


class TestLaplacianBlend:
    def test_blend_of_equals(self):
        rng = substream(4, "blend")
        a = rng.random((16, 16))
        out = comp.laplacian_blend(a[None], a.copy(), rng.random((16, 16)))[0]
        assert np.abs(out - np.clip(a, 0, 1)).max() <= 1e-5

    def test_mask_all_ones_returns_a(self):
        rng = substream(5, "blend2")
        a = rng.random((16, 16))
        b = rng.random((16, 16))
        out = comp.laplacian_blend(a[None], b, np.ones((16, 16)))[0]
        assert np.abs(out - a).max() <= 1e-4

    def test_single_level_closed_form(self):
        rng = substream(6, "blend3")
        a = rng.random((15, 16))  # an odd side: one level
        b = rng.random((15, 16))
        mask = (rng.random((15, 16)) > 0.5).astype(float)
        out = comp.laplacian_blend(a[None], b, mask)[0]
        blurred = comp._blur(mask)
        expected = np.clip(blurred * np.where(mask > 0, a, b) + (1 - blurred) * b, 0, 1)
        assert np.abs(out - expected).max() <= 1e-5

    def test_output_in_unit_range(self):
        rng = substream(7, "blend4")
        a = rng.random((16, 16)) * 1.0
        b = rng.random((16, 16))
        mask = rng.random((16, 16))
        out = comp.laplacian_blend(a[None], b, mask)[0]
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize(
        "shape,levels",
        [((2, 2), 1), ((9, 9), 1), ((12, 12), 2), ((18, 18), 1), ((24, 24), 3), ((64, 64), 4), ((256, 256), 4),
         ((512, 512), 4), ((12, 9), 1)],
        ids=lambda case: "x".join(map(str, case)) if isinstance(case, tuple) else str(case),
    )
    def test_depth_worked_out_from_image_size(self, shape, levels):
        """The blend's depth is the deepest of 1 to 4 levels whose 2**levels
        divides both sides, else 1: it equals the full-image blend at that
        depth."""
        assert comp._blend_levels(*shape) == levels
        rng = substream(shape[0] * shape[1], "blend-depth")
        b = rng.random(shape)
        mask = np.zeros(shape)
        mask[shape[0] // 2, shape[1] // 2 :] = 1.0
        a = np.where(mask > 0, rng.random(shape), b)
        out = comp.laplacian_blend(a[None], b, mask)[0]
        assert np.abs(out - full_image_blend(a, b, mask, levels)).max() <= 1e-12


def blend_case(seed, levels, channels, mask_kind, candidates=3):
    """(a, b, mask) for one windowed-blend case: `a` is a stack of random
    candidates inside `mask` and `b` outside it. Each side is 2**levels
    times an odd number, so `laplacian_blend` works out `levels` levels;
    levels 0 gives odd sides, which it blends at one level, drawn longer so
    that the window crops them."""
    rng = substream(seed, f"blend-case-{levels}-{channels}-{mask_kind}")
    step, odd = 2**levels, (5 if levels else 20)
    h, w = step * int(2 * rng.integers(1, odd) + 1), step * int(2 * rng.integers(1, odd) + 1)
    shape = (h, w) if channels == 1 else (h, w, channels)
    b = np.rint(255 * rng.random(shape)) / 255  # an 8-bit image, as `read_pnm` gives
    mask = np.zeros((h, w))
    mh, mw = int(rng.integers(1, h // 2 + 1)), int(rng.integers(1, w // 2 + 1))
    y0, x0 = int(rng.integers(0, h - mh + 1)), int(rng.integers(0, w - mw + 1))
    y0 = {"top": 0, "bottom": h - mh}.get(mask_kind, y0)
    x0 = {"left": 0, "right": w - mw}.get(mask_kind, x0)
    if mask_kind == "full":
        mask[:] = 1.0
    elif mask_kind != "empty":
        mask[y0 : y0 + mh, x0 : x0 + mw] = 1.0
        if mask_kind == "free-form":
            mask *= rng.random((h, w)) < 0.6
        if mask_kind == "soft":
            mask *= rng.random((h, w))
    inside = (mask > 0).reshape(mask.shape + (1,) * (len(shape) - 2))
    a = np.where(inside, rng.random((candidates,) + shape), b)
    return a, b, mask


MASK_KINDS = ["inside", "top", "bottom", "left", "right", "free-form", "soft", "empty", "full"]


class TestWindowedBlend:
    """The windowed, stacked blend against `full_image_blend`, the blend
    computed over the whole image one candidate at a time."""

    @staticmethod
    def check_against_oracle(a, b, mask, levels):
        out = comp.laplacian_blend(a, b, mask)
        assert out.shape == a.shape
        for c in range(a.shape[0]):
            ref = full_image_blend(a[c], b, mask, levels)
            assert np.abs(out[c] - ref).max() <= 1e-12
            assert np.array_equal(np.rint(255 * out[c]), np.rint(255 * ref))
        outside = np.ones(mask.shape, bool)
        window = comp.blend_window(mask, levels)
        if window is not None:
            outside[window] = False
        assert np.array_equal(out[:, outside], np.broadcast_to(b[outside], (a.shape[0],) + b[outside].shape))
        # the candidates' pixels outside the mask are never read
        changed = a.copy()
        changed[:, mask <= 0] = np.nan
        assert np.array_equal(comp.laplacian_blend(changed, b, mask), out)

    @pytest.mark.parametrize("mask_kind", MASK_KINDS)
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_equals_full_image_oracle(self, levels, channels, mask_kind):
        for seed in range(3):
            self.check_against_oracle(*blend_case(seed, levels, channels, mask_kind), levels)

    @pytest.mark.parametrize("mask_kind", MASK_KINDS)
    @pytest.mark.parametrize("channels", [1, 3])
    def test_odd_sides_equal_one_level_oracle(self, channels, mask_kind):
        for seed in range(3):
            self.check_against_oracle(*blend_case(seed, 0, channels, mask_kind), 1)

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_window_covers_mask_with_aligned_margin(self, levels):
        rng = substream(levels, "window")
        step, margin = 2**levels, 2 ** (levels + 2)
        for _ in range(20):
            h, w = step * int(rng.integers(1, 20)), step * int(rng.integers(1, 20))
            mask = rng.random((h, w)) < 0.01
            window = comp.blend_window(mask, levels)
            if not mask.any():
                assert window is None
                continue
            ys, xs = np.nonzero(mask)
            for span, lo, hi, size in zip(window, (ys.min(), xs.min()), (ys.max(), xs.max()), (h, w)):
                assert span.start % step == 0 and (span.stop % step == 0 or span.stop == size)
                assert span.start <= max(0, lo - margin) and span.stop >= min(size, hi + 1 + margin)
                assert span.start > lo - margin - step and span.stop < hi + 1 + margin + step

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_reach_within_docstring_bound(self, levels):
        """A one-pixel edit at every alignment to the coarsest grid changes
        no pixel farther than 5 * 2**(levels - 1) - 3 px, under the margin
        less one coarsest pixel. On a constant image the pyramid of `b` is
        exact, so every changed pixel is the edit's reach."""
        bound = 5 * 2 ** (levels - 1) - 3
        step = 2**levels
        n = 2 * (2 ** (levels + 2) + step)
        reach = 0
        for oy in range(step):
            for ox in range(step):
                y, x = n // 2 + oy, n // 2 + ox
                b = np.full((n, n), 0.5)
                a = b.copy()
                a[y, x] = 0.9
                mask = np.zeros((n, n))
                mask[y, x] = 1.0
                ys, xs = np.nonzero(full_image_blend(a, b, mask, levels) != 0.5)
                reach = max(reach, np.abs(ys - y).max(), np.abs(xs - x).max())
        assert reach <= bound < 2 ** (levels + 2) - 2 ** (levels - 1)
        assert levels == 1 or reach >= bound - 2  # the bound is close: 35 of 37 px at 4 levels

    def test_empty_mask_returns_clamped_original_per_candidate(self):
        rng = substream(12, "blend-empty")
        b = rng.random((16, 16, 3)) * 1.2 - 0.1
        out = comp.laplacian_blend(rng.random((2, 16, 16, 3)), b, np.zeros((16, 16)))
        assert np.array_equal(out, np.stack([np.clip(b, 0, 1)] * 2))

    def test_shape_contract(self):
        with pytest.raises(ShapeError):
            comp.laplacian_blend(np.zeros((16, 16)), np.zeros((16, 16)), np.zeros((16, 16)))
        with pytest.raises(ShapeError):
            comp.laplacian_blend(np.zeros((2, 16, 8)), np.zeros((16, 16)), np.zeros((16, 16)))
        with pytest.raises(ShapeError):
            comp.laplacian_blend(np.zeros((1, 16, 16)), np.zeros((16, 16)), np.zeros((8, 8)))


class TestTokensToImage:
    def _setup(self):
        """Projection whose column span contains the decodable patches
        (including the constant patch), entries encoding in-range patches."""
        rng = substream(8, "t2i")
        patch, d = 4, 6
        proj = rng.normal(size=(patch * patch, d))
        proj[:, 0] = 1.0  # constant patches are reachable
        coeffs = rng.normal(scale=0.04, size=(8, d))
        coeffs[:, 0] = 0.5
        patches = coeffs @ proj.T  # in colspan(proj), values around 0.5
        assert patches.min() > 0.0 and patches.max() < 1.0
        entries = patches @ proj
        return patch, proj, qz.Codebook(entries), patches

    def test_round_trip_of_codebook_exact_image(self):
        patch, proj, cb, _ = self._setup()
        tokens = TokenGrid(np.arange(8).reshape(2, 4) % cb.size, cb.size)
        img = comp.tokens_to_image(tokens.tokens[None], cb, proj, patch)[0]
        regrid = qz.quantize(qz.encode_patches(img, patch, proj), cb)
        assert np.array_equal(regrid.tokens, tokens.tokens)
        again = comp.tokens_to_image(regrid.tokens[None], cb, proj, patch)[0]
        assert np.abs(again - img).max() <= 1e-9

    def test_decodes_to_exact_preimage_patch(self):
        patch, proj, cb, patches = self._setup()
        img = comp.tokens_to_image(np.array([[[3]]]), cb, proj, patch)[0]
        assert np.abs(img.reshape(-1) - patches[3]).max() <= 1e-9

    def test_constant_image_with_matching_entry(self):
        patch = 4
        proj = substream(10, "t2i2").normal(size=(patch * patch, 5))
        proj[:, 0] = 1.0
        const_patch = np.full(patch * patch, 0.5)
        entry = const_patch @ proj
        entries = np.vstack([entry, entry + 10.0])
        cb = qz.Codebook(entries)
        img = comp.tokens_to_image(np.zeros((1, 3, 3), dtype=int), cb, proj, patch)[0]
        assert np.abs(img - 0.5).max() <= 1e-8

    def test_output_shape_contract(self):
        patch, proj, cb, _ = self._setup()
        img = comp.tokens_to_image(np.zeros((3, 5, 7), dtype=int), cb, proj, patch)
        assert img.shape == (3, 5 * patch, 7 * patch)

    def test_batch_equals_per_grid_inverse(self):
        """One pixel table gathered per token gives each grid's image as
        `codebook vectors @ pinv(projection)` does, to the written byte."""
        rng = substream(11, "t2i-batch")
        patch, channels, d, vocab = 4, 3, 16, 12
        proj = rng.normal(size=(patch * patch * channels, d))
        cb = qz.Codebook(rng.normal(scale=0.3, size=(vocab, d)))
        grids = rng.integers(0, vocab, size=(4, 6, 5))
        batch = comp.tokens_to_image(grids, cb, proj, patch)
        assert batch.shape == (4, 6 * patch, 5 * patch, channels)
        inverse = np.linalg.pinv(proj)
        for grid, img in zip(grids, batch):
            patches = (cb.entries[grid.ravel()] @ inverse).reshape(6, 5, patch, patch, channels)
            ref = np.clip(patches.transpose(0, 2, 1, 3, 4).reshape(6 * patch, 5 * patch, channels), 0.0, 1.0)
            assert np.abs(img - ref).max() <= 1e-12
            assert np.array_equal(np.rint(255 * img), np.rint(255 * ref))

    def test_grids_of_different_shapes_or_none_rejected(self):
        """Only a non-empty int stack [C, h, w] decodes: not no grids, one
        bare grid, or float tokens."""
        patch, proj, cb, _ = self._setup()
        for tokens in (np.zeros((0, 2, 2), int), np.zeros((2, 2), int), np.zeros((1, 2, 2))):
            with pytest.raises(ShapeError):
                comp.tokens_to_image(tokens, cb, proj, patch)

    def test_mask_rejected(self):
        patch, proj, cb, _ = self._setup()
        grid = qz.apply_mask(TokenGrid(np.zeros((2, 2), dtype=int), cb.size), np.array([[True, False], [False, False]]))
        with pytest.raises(IncompleteGridError):
            comp.tokens_to_image(grid.tokens[None], cb, proj, patch)

    @pytest.mark.parametrize("bad", [-1, -8, 9], ids=["minus-one", "minus-vocab", "past-mask"])
    def test_tokens_outside_codebook_rejected(self, bad):
        """Negative and past-MASK tokens would otherwise index the pixel table."""
        patch, proj, cb, _ = self._setup()
        assert cb.size == 8
        tokens = np.zeros((2, 2, 2), dtype=np.int64)
        tokens[1, 1, 0] = bad
        with pytest.raises(VocabularyError):
            comp.tokens_to_image(tokens, cb, proj, patch)
