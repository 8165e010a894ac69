import numpy as np
import pytest

from sgaedit import tape as T
from sgaedit.attention import dense_attention
from sgaedit.rng import substream

RNG = substream(0, "tape-tests")


def test_quadratic_gradient_is_exact():
    point = RNG.normal(size=(3, 4))
    err = T.grad_check(lambda x: T.sum_all(T.mul(x, x)), point, step=1e-3)
    assert err <= 1e-5


def test_masked_softmax_cross_entropy_on_four_logits():
    mask = np.array([[0.0, 0.0, -np.inf, 0.0]])
    onehot = np.zeros((1, 4))
    onehot[0, 1] = 1.0

    def f(x):
        probs = T.masked_softmax(x, mask)
        return T.scale(T.log(T.sum_all(T.mul(probs, onehot))), -1.0)

    for i in range(5):
        point = substream(i, "ce-point").normal(size=(1, 4))
        assert T.grad_check(f, point, step=1e-4) <= 1e-4


def test_one_layer_attention_loss_gradient():
    """Full attention (q, k, v packed in one parameter) feeding a scalar loss."""
    mask = np.zeros((3, 3))
    target = np.array([2, 0, 1])

    def f(packed):
        q = T.slice_cols(packed, 0, 4)
        k = T.slice_cols(packed, 4, 8)
        v = T.slice_cols(packed, 8, 12)
        out, _ = dense_attention(q, k, v, mask)
        return T.cross_entropy(out, target)

    for i in range(5):
        point = substream(i, "attn-point").normal(size=(3, 12))
        assert T.grad_check(f, point, step=1e-4) <= 1e-4


from conftest import op_grad_case

LN_GAIN = substream(2, "ln-gain").normal(size=4)
LN_BIAS = substream(3, "ln-bias").normal(size=4)


@pytest.mark.parametrize("name", T.DIFFERENTIABLE_OPS)
def test_every_registered_op_passes_grad_check(name):
    f, shape = op_grad_case(name)
    for i in range(10):
        point = substream(1000 + i, f"pt-{name}-{i}").normal(size=shape)
        assert T.grad_check(f, point, step=1e-4) <= 1e-4, f"op {name} failed at point {i}"


def test_layer_norm_param_gradients():
    x = RNG.normal(size=(3, 4))

    def f_gain(g):
        return T.sum_all(T.layer_norm(x, g, LN_BIAS))

    def f_bias(b):
        return T.sum_all(T.mul(T.layer_norm(x, LN_GAIN, b), x))

    assert T.grad_check(f_gain, RNG.normal(size=4), 1e-4) <= 1e-4
    assert T.grad_check(f_bias, RNG.normal(size=4), 1e-4) <= 1e-4


def test_peg_kernel_gradient():
    x = RNG.normal(size=(3, 4, 2))

    def f(ker):
        return T.sum_all(T.mul(T.peg(x, ker), T.peg(x, ker)))

    assert T.grad_check(f, RNG.normal(size=(5, 5, 2)), 1e-4) <= 1e-4


def test_backward_requires_scalar():
    tape = T.GradTape()
    a = tape.param(np.zeros((2, 2)))
    out = T.add(a, a)
    with pytest.raises(Exception):
        tape.backward(out)


def test_numpy_fast_path_matches_tensor_path():
    """Every op gives plain arrays the value it records for Tensors, bit for bit."""
    for name in T.DIFFERENTIABLE_OPS:
        f, shape = op_grad_case(name)
        point = substream(7, f"fast-path-{name}").normal(size=shape)
        untaped = f(point)
        taped = f(T.GradTape().param(point))
        assert not isinstance(untaped, T.Tensor) and isinstance(taped, T.Tensor), name
        assert np.array_equal(untaped, taped.value), name
    x = RNG.normal(size=(3, 4))
    gain = RNG.normal(size=4)
    bias = RNG.normal(size=4)
    tape = T.GradTape()
    xt = tape.param(x)
    assert np.array_equal(T.layer_norm(x, gain, bias), T.layer_norm(xt, gain, bias).value)
    assert np.array_equal(T.gelu(x), T.gelu(tape.param(x)).value)


def test_gather_rows_gradient_equals_add_at():
    """Repeated indices sum their rows' gradients in index order, bit for bit
    as `np.add.at` does."""
    rng = substream(5, "gather-rows")
    for table_shape, n in (((7, 5), 40), ((3, 2), 9), ((6,), 20)):
        idx = rng.integers(-table_shape[0], table_shape[0], size=n)  # repeats and negative indices
        g = rng.normal(size=(n,) + table_shape[1:]) * 10.0 ** rng.integers(-8, 8, size=(n,) + table_shape[1:])
        tape = T.GradTape()
        table = tape.param(rng.normal(size=table_shape))
        out = T.gather_rows(table, idx)
        tape.backward(T.sum_all(T.mul(out, g)))
        want = np.zeros(table_shape)
        np.add.at(want, idx, g)
        assert np.array_equal(table.grad, want)
