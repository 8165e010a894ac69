import numpy as np
import pytest

from sgaedit import quantizer as qz
from sgaedit.errors import InsufficientDataError, ShapeError, ValidationError
from sgaedit.images import synthetic_image, with_channels
from sgaedit.rng import substream

from conftest import masked_noise_changes


class TestEncodePatches:
    def test_zero_image(self):
        proj = substream(0, "proj").normal(size=(4 * 4 * 1, 6))
        feats = qz.encode_patches(np.zeros((8, 8)), 4, proj)
        assert feats.shape == (2, 2, 6)
        assert np.abs(feats).max() == 0.0

    def test_locality_by_construction(self):
        rng = substream(1, "loc")
        proj = rng.normal(size=(16, 5))
        img1 = rng.random((12, 12))
        img2 = img1.copy()
        img2[4:8, 8:12] = rng.random((4, 4))  # patch (1, 2) only
        f1 = qz.encode_patches(img1, 4, proj)
        f2 = qz.encode_patches(img2, 4, proj)
        diff = np.abs(f1 - f2).max(axis=2) > 0
        assert diff[1, 2]
        assert diff.sum() == 1

    def test_against_per_patch_matmul_oracle(self):
        rng = substream(2, "ppo")
        img = rng.random((256, 256))
        proj = rng.normal(size=(256, 8))
        feats = qz.encode_patches(img, 16, proj)
        assert feats.shape == (16, 16, 8)
        for i, j in ((0, 0), (3, 7), (15, 15)):
            patch = img[16 * i : 16 * (i + 1), 16 * j : 16 * (j + 1)]
            expected = patch.reshape(-1) @ proj
            assert np.abs(feats[i, j] - expected).max() <= 1e-9

    def test_multichannel_flatten_order(self):
        rng = substream(3, "chan")
        img = rng.random((4, 4, 3))
        proj = rng.normal(size=(2 * 2 * 3, 4))
        feats = qz.encode_patches(img, 2, proj)
        patch = with_channels(img)[0:2, 0:2].reshape(-1)
        assert np.allclose(feats[0, 0], patch @ proj)

    def test_divisibility(self):
        with pytest.raises(ShapeError):
            qz.encode_patches(np.zeros((9, 8)), 4, np.zeros((16, 2)))


def brute_energy(pts, centers):
    """Sum over the points of the squared distance to the nearest centre."""
    total = 0.0
    for p in pts:
        total += min(float(((p - c) ** 2).sum()) for c in centers)
    return total


class TestFitCodebook:
    def test_exact_fit(self):
        rng = substream(4, "fit")
        pts = rng.normal(size=(6, 3))
        cb = qz.fit_codebook(pts, 6, iterations=10, seed=0)
        got = sorted(map(tuple, np.round(cb.entries, 9)))
        want = sorted(map(tuple, np.round(pts, 9)))
        assert got == want
        assert brute_energy(pts, cb.entries) == pytest.approx(0.0, abs=1e-18)

    def test_two_tight_clusters(self):
        rng = substream(5, "clusters")
        a = rng.normal(scale=0.05, size=(40, 2)) + np.array([5.0, 5.0])
        b = rng.normal(scale=0.05, size=(40, 2)) - np.array([5.0, 5.0])
        cb = qz.fit_codebook(np.concatenate([a, b]), 2, iterations=20, seed=1)
        centers = cb.entries[np.argsort(cb.entries[:, 0])]
        assert np.abs(centers[0] - b.mean(axis=0)).max() < 0.2
        assert np.abs(centers[1] - a.mean(axis=0)).max() < 0.2

    def test_energy_non_increasing_brute_force(self):
        """Seeding and Lloyd steps are deterministic, so the fit of i
        iterations is the i-th step of every longer fit: the brute-force
        energy never rises from one iteration count to the next."""
        rng = substream(6, "energy")
        pts = rng.normal(size=(80, 4))
        energies = [brute_energy(pts, qz.fit_codebook(pts, 8, iterations=i, seed=2).entries) for i in range(17)]
        assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))

    def test_insufficient_distinct_vectors(self):
        pts = np.tile(np.arange(3.0), (5, 1)).T  # 3 distinct rows
        with pytest.raises(InsufficientDataError):
            qz.fit_codebook(pts, 4, seed=0)


class TestQuantize:
    def test_exact_entry(self):
        rng = substream(7, "q-exact")
        cb = qz.Codebook(rng.normal(size=(12, 5)))
        feats = np.tile(cb.entries[7], (2, 3, 1))
        grid = qz.quantize(feats, cb)
        assert (grid.tokens == 7).all()

    def test_tie_breaks_to_lowest_index(self):
        entries = np.zeros((8, 3))
        entries[2] = [1.0, 0.0, 0.0]
        entries[5] = [-1.0, 0.0, 0.0]
        entries[0] = [9.0, 9.0, 9.0]
        entries[1] = [9.0, -9.0, 9.0]
        entries[3] = [0.0, 5.0, 0.0]
        entries[4] = [0.0, -5.0, 0.0]
        entries[6] = [0.0, 0.0, 5.0]
        entries[7] = [0.0, 0.0, -5.0]
        cb = qz.Codebook(entries)
        feats = np.zeros((1, 1, 3))  # equidistant from entries 2 and 5
        assert qz.quantize(feats, cb).tokens[0, 0] == 2

    def test_against_exhaustive_scan_oracle(self):
        rng = substream(8, "q-scan")
        cb = qz.Codebook(rng.normal(size=(32, 6)))
        feats = rng.normal(size=(5, 4, 6))
        grid = qz.quantize(feats, cb)
        for i in range(5):
            for j in range(4):
                dists = [float(((feats[i, j] - z) ** 2).sum()) for z in cb.entries]
                assert grid.tokens[i, j] == int(np.argmin(dists))

    def test_never_emits_mask(self):
        rng = substream(9, "q-mask")
        cb = qz.Codebook(rng.normal(size=(4, 3)))
        grid = qz.quantize(rng.normal(size=(6, 6, 3)), cb)
        assert not grid.masked_positions().any()
        assert grid.vocab == 4

    def test_dim_mismatch(self):
        cb = qz.Codebook(np.zeros((4, 3)) + np.arange(4)[:, None])
        with pytest.raises(ShapeError):
            qz.quantize(np.zeros((2, 2, 5)), cb)


class TestApplyMask:
    def test_all_false_is_noop(self):
        grid = qz.TokenGrid(np.arange(6).reshape(2, 3), 8)
        out = qz.apply_mask(grid, np.zeros((2, 3), bool))
        assert np.array_equal(out.tokens, grid.tokens)

    def test_all_true(self):
        grid = qz.TokenGrid(np.arange(6).reshape(2, 3), 8)
        out = qz.apply_mask(grid, np.ones((2, 3), bool))
        assert (out.tokens == 8).all()

    def test_checkerboard_positions(self):
        grid = qz.TokenGrid(np.zeros((4, 4), dtype=int), 5)
        mask = (np.add.outer(np.arange(4), np.arange(4)) % 2).astype(bool)
        out = qz.apply_mask(grid, mask)
        assert np.array_equal(out.masked_positions(), mask)
        assert int(out.masked_positions().sum()) == int(mask.sum())

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            qz.apply_mask(qz.TokenGrid(np.zeros((2, 2), int), 4), np.zeros((3, 2), bool))


def global_average_encoder(image, patch, projection):
    """Test double that leaks: every feature mixes in the all-patches average."""
    feats = qz.encode_patches(image, patch, projection)
    return feats + 8.0 * feats.mean(axis=(0, 1))


class TestLeakage:
    def _setup(self, seed=0):
        rng = substream(seed, "leak-setup")
        img = synthetic_image(32, 32, 1, rng)
        proj = qz.random_projection(8, 1, 6, seed)
        feats = qz.encode_patches(img, 8, proj).reshape(-1, 6)
        cb = qz.fit_codebook(feats, 8, iterations=10, seed=seed)
        mask = np.zeros((4, 4), bool)
        mask[1:3, 1:3] = True
        return img, mask, cb, proj

    def test_patch_encoder_never_leaks(self):
        img, mask, cb, proj = self._setup()
        assert masked_noise_changes(img, mask, 8, cb, proj, trials=10, seed=1) == []

    def test_empty_mask_is_clean(self):
        img, _, cb, proj = self._setup(1)
        assert masked_noise_changes(img, np.zeros((4, 4), bool), 8, cb, proj, trials=3, seed=2) == []

    def test_global_encoder_double_leaks(self):
        rng = substream(3, "leak-neg")
        img = synthetic_image(32, 32, 1, rng)
        proj = qz.random_projection(8, 1, 6, 3)
        feats = global_average_encoder(img, 8, proj).reshape(-1, 6)
        cb = qz.fit_codebook(feats, 8, iterations=5, seed=3)
        mask = np.zeros((4, 4), bool)
        mask[0, 0] = True
        changed = masked_noise_changes(img, mask, 8, cb, proj, trials=20, seed=4, encoder=global_average_encoder)
        assert changed
        assert all(not mask[r, c] for _, r, c in changed)

    def test_unmasked_tokens_invariant_under_masked_noise(self):
        # the module-level leakage property, checked directly
        img, mask, cb, proj = self._setup(5)
        base = qz.apply_mask(qz.quantize(qz.encode_patches(img, 8, proj), cb), mask)
        rng = substream(6, "leak-noise")
        for _ in range(5):
            noisy = with_channels(img).copy()
            pixel_mask = np.kron(mask, np.ones((8, 8), bool))
            noisy[pixel_mask] = rng.random(size=noisy.shape)[pixel_mask]
            redone = qz.apply_mask(qz.quantize(qz.encode_patches(noisy, 8, proj), cb), mask)
            assert np.array_equal(base.tokens[~mask], redone.tokens[~mask])


class TestTokenGridSerialization:
    def test_round_trip_with_mask_sentinel(self):
        grid = qz.TokenGrid(np.array([[0, 3], [7, 2]]), 8)
        masked = qz.apply_mask(grid, np.array([[True, False], [False, True]]))
        text = masked.to_json()
        assert '"tokens": [-1, 3, 7, -1]' in text
        back = qz.TokenGrid.from_json(text)
        assert np.array_equal(back.tokens, masked.tokens)
        assert back.vocab == 8

    def test_quantize_encode_determinism(self):
        rng = substream(10, "det")
        img = synthetic_image(32, 32, 1, rng)
        proj = qz.random_projection(8, 1, 6, 11)
        feats = qz.encode_patches(img, 8, proj).reshape(-1, 6)
        cb = qz.fit_codebook(feats, 8, iterations=10, seed=12)
        one = qz.quantize(qz.encode_patches(img, 8, proj), cb)
        two = qz.quantize(qz.encode_patches(img.copy(), 8, proj), cb)
        assert one.to_json() == two.to_json()

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            qz.TokenGrid(np.array([[9]]), 8)  # 9 > vocab sentinel 8
