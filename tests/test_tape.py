import ast
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from sgaedit import tape as T
from sgaedit.attention import dense_attention
from sgaedit.errors import ShapeError, ValidationError
from sgaedit.rng import substream

from conftest import cols, dot, grad_check, op_grad_case

RNG = substream(0, "tape-tests")


def test_quadratic_gradient_is_exact():
    point = RNG.normal(size=(3, 4))
    err = grad_check(lambda x: dot(x, x), point, step=1e-3)
    assert err <= 1e-5


def test_masked_softmax_cross_entropy_on_four_logits():
    """-log of the masked softmax's target entry, as cross entropy over the
    masked logits."""
    mask = np.array([[0.0, 0.0, -np.inf, 0.0]])

    def f(x):
        return T.cross_entropy(T.add(x, mask), [1])

    for i in range(5):
        point = substream(i, "ce-point").normal(size=(1, 4))
        assert abs(f(point) + np.log(T.masked_softmax(point, mask)[0, 1])) <= 1e-12
        assert grad_check(f, point, step=1e-4) <= 1e-4


def test_one_layer_attention_loss_gradient():
    """Full attention (q, k, v packed in one parameter) feeding a scalar loss."""
    mask = np.zeros((3, 3))
    target = np.array([2, 0, 1])

    def f(packed):
        q = cols(packed, 0, 4)
        k = cols(packed, 4, 8)
        v = cols(packed, 8, 12)
        out, _ = dense_attention(q, k, v, mask)
        return T.cross_entropy(out, target)

    for i in range(5):
        point = substream(i, "attn-point").normal(size=(3, 12))
        assert grad_check(f, point, step=1e-4) <= 1e-4


LN_GAIN = substream(2, "ln-gain").normal(size=4)
LN_BIAS = substream(3, "ln-bias").normal(size=4)


@pytest.mark.parametrize("name", T.DIFFERENTIABLE_OPS)
def test_every_registered_op_passes_grad_check(name):
    f, shape = op_grad_case(name)
    for i in range(10):
        point = substream(1000 + i, f"pt-{name}-{i}").normal(size=shape)
        assert grad_check(f, point, step=1e-4) <= 1e-4, f"op {name} failed at point {i}"


def test_layer_norm_param_gradients():
    x = RNG.normal(size=(3, 4))

    def f_gain(g):
        return dot(T.layer_norm(x, g, LN_BIAS), np.ones((3, 4)))

    def f_bias(b):
        return dot(T.layer_norm(x, LN_GAIN, b), x)

    assert grad_check(f_gain, RNG.normal(size=4), 1e-4) <= 1e-4
    assert grad_check(f_bias, RNG.normal(size=4), 1e-4) <= 1e-4


def test_peg_kernel_gradient():
    x = RNG.normal(size=(3, 4, 2))

    def f(ker):
        return dot(T.peg(x, ker), T.peg(x, ker))

    assert grad_check(f, RNG.normal(size=(5, 5, 2)), 1e-4) <= 1e-4


def test_backward_requires_scalar():
    tape = T.GradTape()
    a = tape.param(np.zeros((2, 2)))
    out = T.add(a, a)
    with pytest.raises(ShapeError, match="scalar loss"):
        tape.backward(out)


def test_backward_rejects_a_loss_from_another_tape():
    loss = T.cross_entropy(T.GradTape().param(np.zeros((1, 2))), np.array([0]))
    with pytest.raises(ValidationError, match="loss was recorded on a different tape"):
        T.GradTape().backward(loss)


def test_backward_releases_each_node_as_it_walks():
    """Right after `backward`, with the loss, an intermediate and the leaves
    still held, reference counting alone has freed the rest of the graph:
    only the leaves keep a .grad."""
    rng = substream(8, "tape-release")
    gc.collect()
    gc.disable()
    try:
        tape = T.GradTape()
        x, w, b = tape.param(rng.normal(size=(5, 3))), tape.param(rng.normal(size=(3, 4))), tape.param(np.zeros(4))
        assert tape._nodes == []  # leaves record no op
        h = T.matmul(x, w)
        probe = weakref.ref(h)
        y = T.gelu(h)
        del h
        loss = T.cross_entropy(T.add_bias(y, b), [0, 1, 2, 3, 0])
        tape.backward(loss)
        assert probe() is None
        assert y.grad is None and loss.grad is None
    finally:
        gc.enable()
    assert all(leaf.grad is not None and leaf.grad.shape == leaf.value.shape for leaf in (x, w, b))


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
        tape.backward(dot(out, g))
        want = np.zeros(table_shape)
        np.add.at(want, idx, g)
        assert np.array_equal(table.grad, want)


def test_every_registered_op_is_called_by_the_package():
    """The op set is the set the program runs: each op is called through the
    `tape` module by some package module other than `tape.py`."""
    called = set()
    for path in Path(T.__file__).parent.glob("*.py"):
        if path.name == "tape.py":
            continue
        tree = ast.parse(path.read_text())
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
            if alias.name == "tape"
        }
        for node in ast.walk(tree):
            func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in aliases:
                called.add(func.attr)
    assert [op for op in T.DIFFERENTIABLE_OPS if op not in called] == []
