import numpy as np
import pytest

from sgaedit import numerics as nm
from sgaedit import sga
from sgaedit import tape as T
from sgaedit.errors import DegenerateRowError, ShapeError, ValidationError
from sgaedit.rng import substream


class TestMaskedSoftmax:
    """`tape.masked_softmax` on plain arrays (the untaped op)."""

    def test_symmetric(self):
        out = T.masked_softmax(np.array([[0.0, 0.0]]), np.zeros((1, 2)))
        assert np.allclose(out, [[0.5, 0.5]])

    def test_single_survivor(self):
        out = T.masked_softmax(np.array([[3.0, 9.0]]), np.array([[0.0, -np.inf]]))
        assert out[0, 0] == 1.0
        assert out[0, 1] == 0.0

    def test_against_mpmath_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        scores = np.array([[1.0, 2.0, 3.0]])
        out = T.masked_softmax(scores, np.zeros((1, 3)))
        exps = [mp.e ** mp.mpf(v) for v in scores[0]]
        total = sum(exps)
        expected = np.array([float(e / total) for e in exps])
        assert np.abs(out[0] - expected).max() <= 1e-7

    def test_rows_sum_to_one_and_masked_exactly_zero(self):
        rng = substream(2, "softmax-prop")
        for _ in range(20):
            scores = rng.normal(size=(6, 9)) * 10
            mask = np.where(rng.random((6, 9)) < 0.4, -np.inf, 0.0)
            mask[:, 0] = 0.0  # never fully masked
            out = T.masked_softmax(scores, mask)
            assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-6
            assert (out[np.isneginf(mask)] == 0.0).all()
            assert (out >= 0).all()

    def test_fully_masked_row_raises(self):
        with pytest.raises(DegenerateRowError):
            T.masked_softmax(np.zeros((2, 2)), np.array([[0.0, 0.0], [-np.inf, -np.inf]]))

    def test_mask_values_validated(self):
        with pytest.raises(ValidationError):
            T.masked_softmax(np.zeros((1, 2)), np.array([[0.0, -1.0]]))


class TestAvgPool:
    """Non-overlapping mean pooling of a square matrix, `sga.block_affinity`."""

    def test_constant(self):
        out = sga.block_affinity(np.full((8, 8), 3.25), 2)
        assert np.allclose(out, 3.25)
        assert out.shape == (2, 2)

    def test_two_by_two(self):
        out = sga.block_affinity(np.array([[1.0, 2.0], [3.0, 4.0]]), 1)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(2.5)

    def test_paper_shape_256_to_64(self):
        out = sga.block_affinity(np.zeros((256, 256)), 64)
        assert out.shape == (64, 64)

    def test_full_kernel_equals_global_mean(self):
        rng = substream(3, "pool")
        m = rng.normal(size=(12, 12))
        out = sga.block_affinity(m, 1)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(m.mean(), abs=1e-12)

    def test_non_divisible(self):
        with pytest.raises(ShapeError):
            sga.block_affinity(np.zeros((6, 6)), 4)


def conv_oracle(x, ker):
    """Direct 25-term summation at every output position (zero padding 2)."""
    h, w, d = x.shape
    out = np.zeros_like(x)
    for i in range(h):
        for j in range(w):
            for c in range(d):
                acc = 0.0
                for u in range(5):
                    for v in range(5):
                        ii, jj = i + u - 2, j + v - 2
                        if 0 <= ii < h and 0 <= jj < w:
                            acc += x[ii, jj, c] * ker[u, v, c]
                out[i, j, c] = acc
    return out


class TestPeg:
    """`tape.peg` on plain arrays."""

    def test_zero_kernel_is_identity(self):
        rng = substream(4, "peg")
        x = rng.normal(size=(3, 5, 2))
        assert np.abs(T.peg(x, np.zeros((5, 5, 2))) - x).max() <= 1e-7

    def test_center_one_kernel_doubles(self):
        rng = substream(5, "peg2")
        x = rng.normal(size=(4, 4, 3))
        ker = np.zeros((5, 5, 3))
        ker[2, 2, :] = 1.0
        assert np.allclose(T.peg(x, ker), 2.0 * x)

    def test_against_direct_sum_oracle(self):
        rng = substream(6, "peg3")
        x = rng.normal(size=(4, 4, 2))
        ker = rng.normal(size=(5, 5, 2))
        expected = x + conv_oracle(x, ker)
        assert np.abs(T.peg(x, ker) - expected).max() <= 1e-6

    def test_kernel_shape_checked(self):
        with pytest.raises(ShapeError):
            T.peg(np.zeros((4, 4, 2)), np.zeros((3, 3, 2)))


class TestLayerNorm:
    """`tape.layer_norm` on plain arrays."""

    def test_constant_row_is_zero(self):
        out = T.layer_norm(np.full((1, 6), 4.0), np.ones(6), np.zeros(6))
        assert np.abs(out).max() <= 1e-9

    def test_already_unit_variance(self):
        out = T.layer_norm(np.array([[-1.0, 1.0]]), np.ones(2), np.zeros(2))
        assert np.allclose(out, [[-1.0, 1.0]], atol=1e-4)

    def test_against_two_pass_oracle(self):
        rng = substream(7, "ln")
        x = rng.normal(size=(3, 16)) * 5
        gain = rng.normal(size=16)
        bias = rng.normal(size=16)
        out = T.layer_norm(x, gain, bias)
        for r in range(3):
            mean = sum(x[r]) / 16
            var = sum((v - mean) ** 2 for v in x[r]) / 16
            expected = (x[r] - mean) / np.sqrt(var + 1e-5) * gain + bias
            assert np.abs(out[r] - expected).max() <= 1e-6


class TestSgat:
    def test_round_trip(self, tmp_path):
        rng = substream(8, "sgat")
        arr = rng.normal(size=(3, 4, 5))
        path = tmp_path / "t.sgat"
        nm.write_sgat(path, arr)
        back = nm.read_sgat(path)
        assert back.shape == arr.shape
        # payload is float32; a second round trip is bit-exact
        nm.write_sgat(tmp_path / "t2.sgat", back)
        assert (tmp_path / "t.sgat").read_bytes() == (tmp_path / "t2.sgat").read_bytes()
        assert np.array_equal(back, arr.astype("<f4").astype(np.float64))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.sgat"
        nm.write_sgat(path, np.zeros((2, 2)))
        raw = path.read_bytes()
        assert raw[:4] == b"SGAT"
        hlen = int.from_bytes(raw[4:8], "little")
        header = raw[8 : 8 + hlen].decode()
        assert '"dtype": "f32"' in header and '"shape": [2, 2]' in header

    @pytest.mark.parametrize("extra", [-4, -1, 1, 4])
    def test_payload_size_must_match_header(self, tmp_path, extra):
        path = tmp_path / "t.sgat"
        nm.write_sgat(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[:extra] if extra < 0 else raw + bytes(extra))
        with pytest.raises(ValidationError, match="header declares 24"):
            nm.read_sgat(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sgat"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValidationError):
            nm.read_sgat(path)
