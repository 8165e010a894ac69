import numpy as np
import pytest

from sgaedit import attention as att
from sgaedit.errors import ShapeError, ValidationError
from sgaedit.rng import substream

from conftest import causal_mask, combine_masks


def sequential_oracle(q, k, v, mask):
    """Step-by-step float64 reference (explicit loops, no vector shortcuts)."""
    l_q, d = q.shape
    l_k = k.shape[0]
    out = np.zeros((l_q, v.shape[1]))
    weights = np.zeros((l_q, l_k))
    for r in range(l_q):
        scores = []
        for t in range(l_k):
            s = 0.0
            for c in range(d):
                s += q[r, c] * k[t, c]
            scores.append(s / np.sqrt(d) + mask[r, t])
        mx = max(scores)
        exps = [np.exp(s - mx) for s in scores]
        total = sum(exps)
        for t in range(l_k):
            weights[r, t] = exps[t] / total
            out[r] += weights[r, t] * v[t]
    return out, weights


class TestDenseAttention:
    def test_single_key(self):
        q = np.array([[2.0, -1.0]])
        k = np.array([[0.5, 0.5]])
        v = np.array([[7.0, 8.0]])
        out, w = att.dense_attention(q, k, v, np.zeros((1, 1)))
        assert np.allclose(out, v)
        assert np.allclose(w, [[1.0]])

    def test_identical_keys_average_values(self):
        rng = substream(0, "attn-ident")
        q = rng.normal(size=(3, 4))
        k = np.tile(rng.normal(size=(1, 4)), (5, 1))
        v = rng.normal(size=(5, 4))
        out, w = att.dense_attention(q, k, v, np.zeros((3, 5)))
        assert np.allclose(w, 1.0 / 5)
        assert np.allclose(out, np.tile(v.mean(axis=0), (3, 1)))

    def test_against_sequential_oracle(self):
        rng = substream(1, "attn-oracle")
        q = rng.normal(size=(5, 3))
        k = rng.normal(size=(5, 3))
        v = rng.normal(size=(5, 2))
        mask = np.where(rng.random((5, 5)) < 0.2, -np.inf, 0.0)
        mask[:, 0] = 0.0
        out, w = att.dense_attention(q, k, v, mask)
        out_ref, w_ref = sequential_oracle(q, k, v, mask)
        assert np.abs(out - out_ref).max() <= 1e-6
        assert np.abs(w - w_ref).max() <= 1e-6

    def test_shift_invariance(self):
        rng = substream(2, "attn-shift")
        q = rng.normal(size=(4, 6))
        k = rng.normal(size=(4, 6))
        v = rng.normal(size=(4, 6))
        mask = np.zeros((4, 4))
        out1, _ = att.dense_attention(q, k, v, mask)
        shifted = q @ k.T / np.sqrt(6) + rng.normal(size=(4, 1))  # constant per row
        w2 = np.exp(shifted - shifted.max(axis=1, keepdims=True))
        out2 = (w2 / w2.sum(axis=1, keepdims=True)) @ v
        assert np.abs(out1 - out2).max() <= 1e-6

    def test_degenerate_row_propagates(self):
        mask = np.zeros((2, 2))
        mask[1] = -np.inf
        with pytest.raises(ValidationError, match="fully masked"):
            att.dense_attention(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), mask)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            att.dense_attention(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)), np.zeros((2, 2)))


class TestCausalMask:
    """The test suite's causal mask (`conftest.causal_mask`)."""

    def test_length_one(self):
        assert np.array_equal(causal_mask(1), [[0.0]])

    def test_length_three(self):
        m = causal_mask(3)
        for r in range(3):
            for t in range(3):
                assert m[r, t] == (0.0 if t <= r else -np.inf)

    def test_future_perturbation_does_not_change_output(self):
        rng = substream(3, "causal")
        q = rng.normal(size=(5, 4))
        k = rng.normal(size=(5, 4))
        v = rng.normal(size=(5, 4))
        mask = causal_mask(5)
        out1, _ = att.dense_attention(q, k, v, mask)
        for r in range(4):
            k2, v2 = k.copy(), v.copy()
            k2[r + 1 :] += rng.normal(size=k2[r + 1 :].shape)
            v2[r + 1 :] += rng.normal(size=v2[r + 1 :].shape)
            out2, _ = att.dense_attention(q, k2, v2, mask)
            assert np.array_equal(out1[: r + 1], out2[: r + 1])


class TestCombineMasks:
    """The test suite's mask conjunction (`conftest.combine_masks`)."""

    def test_zero_is_identity(self):
        m = causal_mask(4)
        assert np.array_equal(combine_masks(m, np.zeros((4, 4))), m)

    def test_idempotent(self):
        m = causal_mask(4)
        assert np.array_equal(combine_masks(m, m), m)

    def test_enumerated_conjunction(self):
        from sgaedit import sga

        part = sga.partition(6, 3)
        plan = sga.SparsityPlan([[True, False, True], [False, True, False], [True, False, True]])
        sparse = sga.build_sparse_mask(plan, 6)
        combined = combine_masks(causal_mask(6), sparse)
        for r in range(6):
            for t in range(6):
                keep = t <= r and part.block_of[t] in plan.kept[part.block_of[r]]
                assert (combined[r, t] == 0.0) == keep
