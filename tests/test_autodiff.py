import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import m3cs.autodiff as ad
from m3cs.autodiff import ShapeError, Tensor, backward, gradcheck, precision
from m3cs.rng import make_rng


def rand(*shape, seed=0):
    return Tensor(make_rng(seed).normal(size=shape), requires_grad=True)


def test_softmax_symmetry():
    z = ad.row_softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(z.data, [0.5, 0.5])


def test_matmul_identity():
    a = make_rng(1).normal(size=(3, 3))
    out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_allclose(out.data, a.astype(np.float32), rtol=1e-6)


def test_layer_norm_rows():
    x = rand(5, 16, seed=2)
    y = ad.layer_norm(x).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-5)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_softmax_rows_sum_to_one(seed):
    x = make_rng(seed).normal(size=(4, 7)) * 5
    z = ad.row_softmax(Tensor(x))
    assert np.all(z.data >= 0)
    np.testing.assert_allclose(z.data.sum(axis=-1), 1.0, atol=1e-6)


def test_shape_mismatch_names_primitive():
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(rand(2, 3), rand(2, 3))
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(rand(2, 3), rand(3))
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(rand(3), rand(3, 2))
    with pytest.raises(ShapeError, match="add"):
        ad.add(rand(2, 3), rand(4, 5))


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(ad.sum_reduce(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = rand(3)
    y = ad.mul(x, x)
    with pytest.raises(ShapeError):
        backward(y)


def test_backward_empty_graph():
    with pytest.raises(RuntimeError):
        backward(Tensor(1.0, requires_grad=True))


def test_detached_tensor_gets_no_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 4.0])  # no grad requested
    backward(ad.sum_reduce(ad.mul(x, c)))
    assert x.grad is not None
    assert c.grad is None


def test_grad_accumulates_across_uses():
    x = Tensor([2.0], requires_grad=True)
    backward(ad.add(ad.sum_reduce(ad.mul(x, x)), ad.sum_reduce(x)))
    np.testing.assert_allclose(x.grad, [5.0])  # 2x + 1


PRIMITIVES = [
    ("add", lambda a, b: ad.add(a, b), 2, [(3, 4), (3, 4)]),
    ("add_bcast", lambda a, b: ad.add(a, b), 2, [(3, 4), (4,)]),
    ("sub", lambda a, b: ad.sub(a, b), 2, [(3, 4), (3, 4)]),
    ("mul", lambda a, b: ad.mul(a, b), 2, [(3, 4), (3, 4)]),
    ("mul_bcast", lambda a, b: ad.mul(a, b), 2, [(2, 3, 1), (3, 4)]),
    ("scalar_mul", lambda a: ad.scalar_mul(a, -1.7), 1, [(3, 4)]),
    ("matmul", lambda a, b: ad.matmul(a, b), 2, [(3, 4), (4, 5)]),
    ("matmul_batched", lambda a, b: ad.matmul(a, b), 2, [(2, 3, 4), (2, 4, 5)]),
    ("swap_axes", lambda a: ad.swap_axes(a, -1, -2), 1, [(2, 3, 4)]),
    ("reshape", lambda a: ad.reshape(a, (12,)), 1, [(3, 4)]),
    ("concat", lambda a, b: ad.concat([a, b], axis=0), 2, [(2, 3), (4, 3)]),
    ("take", lambda a: ad.take(a, [2, 0, 2], axis=0), 1, [(4, 3)]),
    ("take_axis1", lambda a: ad.take(a, [1, 1, 0], axis=-2), 1, [(2, 3, 4)]),
    ("row_softmax", lambda a: ad.row_softmax(a), 1, [(3, 5)]),
    ("log_softmax", lambda a: ad.log_softmax(a), 1, [(3, 5)]),
    # sum(layer_norm(x) ** 2) is constant, so a fixed random weight makes the loss vary
    ("layer_norm", lambda a: ad.mul(ad.layer_norm(a), Tensor(make_rng(8).normal(size=(3, 8)))),
     1, [(3, 8)]),
    ("gelu", lambda a: ad.gelu(a), 1, [(3, 4)]),
    ("attention", lambda q, k, v: ad.attention(q, k, v, 2), 3, [(2, 3, 4)] * 3),
    ("layer_norm_affine", lambda a, g, b: ad.layer_norm(a, g, b), 3, [(3, 8), (8,), (8,)]),
    ("max_reduce", lambda a: ad.max_reduce(a, axis=-2), 1, [(3, 5, 4)]),
    ("mean_reduce", lambda a: ad.mean_reduce(a, axis=1), 1, [(3, 5)]),
    ("mean_all", lambda a: ad.mean_reduce(a), 1, [(3, 5)]),
    ("sum_reduce", lambda a: ad.sum_reduce(a, axis=0), 1, [(3, 5)]),
    ("smooth_l1", lambda a, b: ad.smooth_l1(a, b), 2, [(3, 4), (3, 4)]),
    ("linear_2d", lambda x, w, b: ad.linear(x, w, b), 3, [(3, 4), (4, 5), (5,)]),
    ("linear_3d", lambda x, w, b: ad.linear(x, w, b), 3, [(2, 3, 4), (4, 5), (5,)]),
    ("linear_4d", lambda x, w, b: ad.linear(x, w, b), 3, [(2, 2, 3, 4), (4, 5), (5,)]),
]


@pytest.mark.parametrize("name,fn,nargs,shapes", PRIMITIVES, ids=[p[0] for p in PRIMITIVES])
def test_primitive_finite_difference(name, fn, nargs, shapes):
    with precision("float64"):
        args = [Tensor(make_rng(7, i).normal(size=s), requires_grad=True)
                for i, s in enumerate(shapes)]

        def loss():
            out = fn(*args)
            return out if out.size == 1 else ad.sum_reduce(ad.mul(out, out))

        gradcheck(loss, args, rtol=1e-4)


@given(st.lists(st.integers(1, 3), max_size=3), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_linear_gradcheck_any_leading_dims(lead, k, n, seed):
    with precision("float64"):
        rng = make_rng(seed)
        x, w, b = (Tensor(rng.normal(size=s), requires_grad=True)
                   for s in ((*lead, k), (k, n), (n,)))

        def loss():
            out = ad.linear(x, w, b)
            return ad.sum_reduce(ad.mul(out, out))

        assert gradcheck(loss, [x, w, b], rtol=1e-4) < 1e-4


# finite-difference properties over random shapes: small sides keep gradcheck's
# two forward passes per element cheap in float64
SMALL = dict(min_side=1, max_side=3)


def _check_fd(build, shapes, seed):
    """gradcheck sum(build(*leaves) ** 2) for float64 leaves of the given shapes."""
    with precision("float64"):
        leaves = [Tensor(make_rng(seed, i).normal(size=s), requires_grad=True)
                  for i, s in enumerate(shapes)]

        def loss():
            out = build(*leaves)
            return ad.sum_reduce(ad.mul(out, out))

        assert gradcheck(loss, leaves, rtol=1e-4) < 1e-4


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul], ids=["add", "sub", "mul"])
@given(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, **SMALL),
       st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_elementwise_gradcheck_broadcast(op, shapes, seed):
    _check_fd(op, shapes.input_shapes, seed)


@given(hnp.mutually_broadcastable_shapes(signature="(m,k),(k,n)->(m,n)", max_dims=2,
                                         **SMALL),
       st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_batched_matmul_gradcheck_broadcast(shapes, seed):
    _check_fd(ad.matmul, shapes.input_shapes, seed)


@pytest.mark.parametrize("op", [ad.max_reduce, ad.sum_reduce, ad.mean_reduce],
                         ids=["max", "sum", "mean"])
@given(st.data(), hnp.array_shapes(min_dims=1, max_dims=3, **SMALL), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_reduce_gradcheck_random_axis(op, data, shape, seed):
    axis = data.draw(st.integers(-len(shape), len(shape) - 1), label="axis")
    _check_fd(lambda a: op(a, axis=axis), [shape], seed)


@given(st.data(), hnp.array_shapes(min_dims=1, max_dims=3, **SMALL), st.integers(1, 3),
       st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_concat_gradcheck_random_axis(data, shape, parts, seed):
    axis = data.draw(st.integers(0, len(shape) - 1), label="axis")
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=parts, max_size=parts),
                      label="sizes")
    shapes = [shape[:axis] + (n,) + shape[axis + 1:] for n in sizes]
    _check_fd(lambda *ts: ad.concat(ts, axis=axis), shapes, seed)


@given(st.data(), hnp.array_shapes(min_dims=2, max_dims=3, **SMALL), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_swap_axes_and_reshape_gradcheck(data, shape, seed):
    ax1, ax2 = data.draw(st.lists(st.integers(-len(shape), len(shape) - 1),
                                  min_size=2, max_size=2), label="axes")
    new_shape = data.draw(st.permutations(shape), label="new shape")
    _check_fd(lambda a: ad.reshape(ad.swap_axes(a, ax1, ax2), new_shape), [shape], seed)


@given(st.data(), hnp.array_shapes(min_dims=1, max_dims=3, **SMALL), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_take_gradcheck_repeated_indices(data, shape, seed):
    axis = data.draw(st.integers(-len(shape), len(shape) - 1), label="axis")
    n = shape[axis]
    # more picks than rows forces at least one repeat, whose gradients must add
    idx = data.draw(st.lists(st.integers(0, n - 1), min_size=n + 1, max_size=n + 3),
                    label="idx")
    _check_fd(lambda a: ad.take(a, idx, axis=axis), [shape], seed)


@given(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, **SMALL),
       st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_leaf_used_twice_gradcheck(shapes, seed):
    # a reaches the loss along two paths that meet at mul, b along one
    _check_fd(lambda a, b: ad.mul(ad.add(a, b), ad.scalar_mul(a, 0.5)),
              shapes.input_shapes, seed)


@pytest.mark.parametrize("op", [ad.row_softmax, ad.log_softmax, ad.gelu],
                         ids=["row_softmax", "log_softmax", "gelu"])
@given(hnp.array_shapes(min_dims=1, max_dims=3, **SMALL), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_last_axis_and_elementwise_gradcheck_random_shape(op, shape, seed):
    _check_fd(op, [shape], seed)


@given(hnp.array_shapes(min_dims=0, max_dims=2, **SMALL), st.integers(3, 5),
       st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_layer_norm_gradcheck_random_shape(lead, n, seed):
    # sum(layer_norm(x) ** 2) is constant, and a row of 2 normalizes to +-1 whatever its
    # values: both leave only eps-sized gradients, below what float64 differences resolve.
    # A fixed random weight on the output and rows of 3 or more keep them of order 1
    w = make_rng(seed, 1).normal(size=(*lead, n))
    _check_fd(lambda a: ad.mul(ad.layer_norm(a), Tensor(w)), [(*lead, n)], seed)


@given(hnp.array_shapes(min_dims=1, max_dims=3, **SMALL), st.floats(0.25, 2.0),
       st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_smooth_l1_gradcheck_random_shape(shape, beta, seed):
    # |x - y| / beta lies in [0, 0.8) or [1.2, 2): the loss has a kink at 1, where a
    # central difference straddling it would average the two slopes
    rng = make_rng(seed)
    ratio = rng.uniform(0.0, 0.8, shape) + 1.2 * (rng.random(shape) < 0.5)
    diff = beta * ratio * rng.choice([-1.0, 1.0], shape)
    x0 = rng.normal(size=shape)
    with precision("float64"):
        x, y = Tensor(x0, requires_grad=True), Tensor(x0 - diff, requires_grad=True)
        assert gradcheck(lambda: ad.smooth_l1(x, y, beta=beta), [x, y], rtol=1e-4) < 1e-4


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("beta", [0.05, 0.5, 1.0, 3.0])
def test_smooth_l1_equals_the_where_formula_bitwise(dtype, beta):
    # the quadratic part is computed only where |d| < beta; its values, the mean and the
    # VJP keep the bits of the formula that computes both branches everywhere
    rng = make_rng(int(beta * 100))
    with precision(dtype):
        x = Tensor(rng.normal(size=(4, 7, 9)), requires_grad=True)
        y = Tensor(rng.normal(size=(4, 7, 9)), requires_grad=True)
        loss = ad.smooth_l1(x, y, beta)
        backward(loss)
    d = x.data - y.data
    quad = np.abs(d) < beta
    assert 0 < quad.sum() < d.size
    want = np.where(quad, 0.5 * d * d / beta, np.abs(d) - 0.5 * beta).mean()
    gd = np.where(quad, d / beta, np.sign(d)) * (np.ones((), dtype) / d.size)
    assert loss.data.dtype == want.dtype and loss.data.tobytes() == want.tobytes()
    assert x.grad.dtype == gd.dtype and x.grad.tobytes() == gd.tobytes()
    assert y.grad.tobytes() == (-gd).tobytes()


def test_smooth_l1_at_beta_zero_is_l1():
    # the L1 limit, with no division by beta; a warning fails the test
    x, y = rand(3, 5, seed=4), rand(3, 5, seed=5)
    loss = ad.smooth_l1(x, y, beta=0.0)
    backward(loss)
    d = x.data - y.data
    np.testing.assert_array_equal(loss.data, np.abs(d).mean())
    np.testing.assert_array_equal(x.grad, np.sign(d) / d.size)
    np.testing.assert_array_equal(y.grad, -np.sign(d) / d.size)


@pytest.mark.parametrize("beta", [-1.0, -1e-9, float("nan")])
def test_smooth_l1_refuses_negative_beta(beta):
    # below 0 it returned L1 plus 0.5|beta|
    with pytest.raises(ValueError, match=r"smooth_l1 needs beta >= 0, got"):
        ad.smooth_l1(rand(3, seed=6), rand(3, seed=7), beta=beta)


def test_loss_off_the_tape_gets_no_grad():
    x = rand(3, seed=12)
    ad.mul(x, x)  # the tape is not empty, but nothing on it produced the loss
    loss = Tensor(1.0, requires_grad=True)
    backward(loss)
    assert loss.grad is None and x.grad is None
    assert ad.graph_size() == 0


def _matmul_add(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def _run_graph(build, arrays, grad_out):
    """Output and leaf gradients of sum(build(*leaves) * grad_out), in the current precision."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*leaves)
    backward(ad.sum_reduce(ad.mul(out, Tensor(grad_out))))
    return [out.data] + [t.grad for t in leaves]


# the encoder's qkv and the tokenizer's second point layer at desk shapes
@pytest.mark.parametrize("xshape,wshape", [((16, 32, 96), (96, 384)),
                                           ((16, 32, 16, 64), (64, 128))])
def test_linear_bitwise_equals_matmul_add(xshape, wshape):
    rng = make_rng(30)
    arrays = [rng.normal(size=xshape), rng.normal(size=wshape) / np.sqrt(wshape[0]),
              rng.normal(size=wshape[1:])]
    grad_out = rng.normal(size=(*xshape[:-1], wshape[1]))
    new = _run_graph(ad.linear, arrays, grad_out)
    old = _run_graph(_matmul_add, arrays, grad_out)
    for a, b in zip(new, old):
        assert a.dtype == np.float32 and a.shape == b.shape
        assert np.array_equal(a, b)


def test_linear_shared_weight_bitwise_equals_matmul_add():
    # w and b serve two layers, the first on an input that needs no gradient
    # (as the tokenizer's raw patches), so leaf gradients accumulate twice
    rng = make_rng(31)
    raw = rng.normal(size=(16, 32, 96))
    arrays = [rng.normal(size=(96, 96)) / np.sqrt(96), rng.normal(size=(96,))]
    grad_out = rng.normal(size=(16, 32, 96))
    results = []
    for fn in (ad.linear, _matmul_add):
        x = Tensor(raw)

        def build(w, b):
            return fn(ad.gelu(fn(x, w, b)), w, b)

        results.append(_run_graph(build, arrays, grad_out))
        assert x.grad is None
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def test_linear_vjp_skips_operands_without_grad():
    x, w, b = Tensor(np.ones((2, 3))), rand(3, 4), Tensor(np.zeros(4))
    out = ad.linear(x, w, b)
    gx, gw, gb = ad._state.graph[-1].vjp(np.ones(out.shape, dtype=np.float32))
    assert gx is None and gb is None
    np.testing.assert_array_equal(gw, np.full((3, 4), 2.0))


def test_linear_shape_error():
    with pytest.raises(ShapeError, match="linear"):
        ad.linear(rand(2, 3), rand(4, 5), rand(5))
    with pytest.raises(ShapeError, match="linear"):
        ad.linear(rand(2, 4), rand(4, 5), rand(4))


def test_max_reduce_ties_send_gradient_to_first_index():
    # column 0 peaks at rows 1 and 2, column 1 at every row
    x = Tensor([[1.0, 2.0], [3.0, 2.0], [3.0, 2.0]], requires_grad=True)
    out = ad.max_reduce(x, axis=-2)
    np.testing.assert_array_equal(out.data, [3.0, 2.0])
    backward(ad.sum_reduce(ad.mul(out, Tensor([5.0, 7.0]))))
    np.testing.assert_array_equal(x.grad, [[0.0, 7.0], [5.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_layer_norm_bitwise_equals_two_pass_formula(dtype):
    # the formula layer_norm had before it reused x - mean for the variance
    with precision(dtype):
        x = Tensor(make_rng(12).normal(3.0, 2.0, size=(16, 32, 96)))
        ref = (x.data - x.data.mean(axis=-1, keepdims=True)) * \
            (1.0 / np.sqrt(x.data.var(axis=-1, keepdims=True) + 1e-6))
        out = ad.layer_norm(x).data
    assert out.dtype == np.dtype(dtype)
    assert np.array_equal(out, ref)


def test_determinism_same_seed_bit_identical():
    def run():
        x = Tensor(make_rng(42).normal(size=(6, 6)), requires_grad=True)
        y = ad.row_softmax(ad.matmul(x, ad.gelu(x)))
        loss = ad.mean_reduce(y)
        backward(loss)
        return loss.data.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_graph_cleared_after_backward():
    x = rand(3, seed=9)
    backward(ad.sum_reduce(ad.mul(x, x)))
    assert ad.graph_size() == 0


def test_no_grad_records_nothing():
    x = rand(3, seed=10)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad
    assert ad.graph_size() == 0


def test_dropout_identity_and_scale():
    x = rand(1000, seed=11)
    assert ad.dropout(x, 0.0, make_rng(0)) is x
    y = ad.dropout(x, 0.5, make_rng(0))
    kept = y.data != 0
    assert 0.4 < kept.mean() < 0.6
    np.testing.assert_allclose(y.data[kept], 2.0 * x.data[kept], rtol=1e-6)


# ------------------------------------------------- fused primitives vs their chains


def _plain_gelu(a):
    """The GELU primitive before it worked in place: every step a new array."""
    x = a.data
    t = np.tanh(ad._GELU_K * (x + 0.044715 * x * x * x))

    def vjp(g):
        dt = (1.0 - t * t) * ad._GELU_K * (1.0 + 3 * 0.044715 * x * x)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * dt),)

    return ad._record(Tensor(0.5 * x * (1.0 + t)), (a,), vjp)


def _attention_chain(q, k, v, heads):
    """SelfAttention's core as the 13-node chain it was before ad.attention."""
    *lead, m, c = q.shape
    d = c // heads

    def split(t):
        return ad.swap_axes(ad.reshape(t, (*lead, m, heads, d)), -2, -3)

    q, k, v = split(q), split(k), split(v)
    scores = ad.scalar_mul(ad.matmul(q, ad.swap_axes(k, -1, -2)), 1.0 / np.sqrt(d))
    out = ad.swap_axes(ad.matmul(ad.row_softmax(scores), v), -2, -3)
    return ad.reshape(out, (*lead, m, c))


def _layer_norm_chain(a, gamma, beta):
    return ad.add(ad.mul(ad.layer_norm(a), gamma), beta)


def _assert_bitwise(new, old, dtype):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.dtype == np.dtype(dtype) and a.shape == b.shape
        assert np.array_equal(a, b)


FUSED = {
    "gelu": (ad.gelu, _plain_gelu),
    "attention4": (lambda q, k, v: ad.attention(q, k, v, 4),
                   lambda q, k, v: _attention_chain(q, k, v, 4)),
    "attention2": (lambda q, k, v: ad.attention(q, k, v, 2),
                   lambda q, k, v: _attention_chain(q, k, v, 2)),
    "layer_norm": (ad.layer_norm, _layer_norm_chain),
}

# the tokenizer's and the encoder's GELU inputs, one whose size is no multiple of
# autodiff._BLOCK, the encoder's attention over all 32
# patches and over the student's 11 visible ones, a tiny-config attention, and
# LayerNorm at encoder width; each as (fused name, input shapes, input scale)
FUSED_CASES = {
    "gelu-tokenizer": ("gelu", [(16, 32, 16, 64)], 3.0),
    "gelu-encoder": ("gelu", [(16, 32, 384)], 3.0),
    "gelu-ragged": ("gelu", [(5, 13109)], 3.0),  # a last block of 9 elements
    "attention-desk": ("attention4", [(16, 32, 96)] * 3, 1.0),
    "attention-student": ("attention4", [(16, 11, 96)] * 3, 1.0),
    "attention-tiny": ("attention2", [(2, 8, 16)] * 3, 1.0),
    "layer_norm-desk": ("layer_norm", [(16, 32, 96), (96,), (96,)], 2.0),
}


def _fused_inputs(shapes, scale, seed=41):
    rng = make_rng(seed)
    return [scale * rng.normal(size=s) for s in shapes]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("case", list(FUSED_CASES))
def test_fused_bitwise_equals_chain(case, dtype):
    name, shapes, scale = FUSED_CASES[case]
    fused, chain = FUSED[name]
    arrays = _fused_inputs(shapes, scale)
    grad_out = make_rng(40).normal(size=shapes[0])  # each output has its first input's shape
    with precision(dtype):
        new = _run_graph(fused, arrays, grad_out)
        old = _run_graph(chain, arrays, grad_out)
    _assert_bitwise(new, old, dtype)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("case", list(FUSED_CASES))
def test_fused_bitwise_equals_chain_off_the_tape(case, dtype):
    name, shapes, scale = FUSED_CASES[case]
    fused, chain = FUSED[name]
    arrays = _fused_inputs(shapes, scale)
    with precision(dtype), ad.no_grad():
        new = fused(*[Tensor(a, requires_grad=True) for a in arrays])
        old = chain(*[Tensor(a, requires_grad=True) for a in arrays])
    assert ad.graph_size() == 0 and not new.requires_grad
    _assert_bitwise([new.data], [old.data], dtype)


@pytest.mark.parametrize("taped", [True, False], ids=["taped", "untaped"])
@pytest.mark.parametrize("name", list(FUSED))
def test_fused_leaves_inputs_and_gradient_untouched(name, taped):
    fused = FUSED[name][0]
    shapes = [(3, 5, 8), (8,), (8,)] if name == "layer_norm" else [(3, 5, 8)] * (
        1 if name == "gelu" else 3)
    arrays = [a.astype(np.float32) for a in _fused_inputs(shapes, 2.0)]
    leaves = [Tensor(a.copy(), requires_grad=taped) for a in arrays]
    out = fused(*leaves)
    nodes = list(ad._state.graph)
    assert len(nodes) == (1 if taped else 0)
    for t, a in zip(leaves, arrays):
        assert np.array_equal(t.data, a)
    if not taped:
        return
    g = make_rng(42).normal(size=out.shape).astype(np.float32)
    first = nodes[0].vjp(g.copy())
    g_in = g.copy()
    second = nodes[0].vjp(g_in)
    assert np.array_equal(g_in, g)  # the incoming gradient is read, never written
    for t, a in zip(leaves, arrays):
        assert np.array_equal(t.data, a)
    # a second call finds the arrays the VJP reads as the first left them
    _assert_bitwise(second, first, "float32")


def test_gelu_output_with_two_consumers_matches_plain():
    arrays = _fused_inputs([(16, 32, 384), (16, 32, 384)], 3.0)

    def build(gelu):
        def fn(x, w):
            y = gelu(x)  # read by mul's VJP and fed to a second gelu
            return ad.add(ad.mul(y, w), gelu(y))
        return fn

    grad_out = make_rng(40).normal(size=(16, 32, 384))
    _assert_bitwise(_run_graph(build(ad.gelu), arrays, grad_out),
                    _run_graph(build(_plain_gelu), arrays, grad_out), "float32")


def test_self_attention_and_layer_norm_tape_sizes():
    from m3cs.backbone import SelfAttention
    from m3cs.layers import LayerNorm

    x = rand(2, 5, 8, seed=43)
    attn, norm = SelfAttention(make_rng(44), 8, 2), LayerNorm(8)
    attn(x)
    assert ad.graph_size() == 5  # four linears and the attention core
    ad.clear_graph()
    norm(x)
    assert ad.graph_size() == 1


def test_attention_shape_error():
    with pytest.raises(ShapeError, match="attention"):
        ad.attention(rand(2, 3, 4), rand(2, 3, 4), rand(2, 3, 4), 3)
    with pytest.raises(ShapeError, match="attention"):
        ad.attention(rand(2, 3, 4), rand(2, 4, 4), rand(2, 3, 4), 2)
    with pytest.raises(ShapeError, match="attention"):
        ad.attention(rand(4), rand(4), rand(4), 2)


@given(hnp.array_shapes(min_dims=0, max_dims=2, **SMALL), st.integers(1, 3),
       st.integers(1, 2), st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_attention_gradcheck_random_shape(lead, m, heads, d, seed):
    shape = (*lead, m, heads * d)
    _check_fd(lambda q, k, v: ad.attention(q, k, v, heads), [shape] * 3, seed)


@given(hnp.array_shapes(min_dims=0, max_dims=2, **SMALL), st.integers(3, 5),
       st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_layer_norm_affine_gradcheck_random_shape(lead, n, seed):
    # gamma and beta vary the loss, so sum(out ** 2) needs no extra weight
    _check_fd(ad.layer_norm, [(*lead, n), (n,), (n,)], seed)


# ------------------------------------------------ lean backward and its VJP kernels


def test_backward_frees_each_node_once_walked():
    # recorded first, so walked last: by then every later node's output and the
    # arrays its VJP held must be gone
    x = rand(4, 6, seed=50)
    refs = []

    def last_vjp(g):
        assert refs and all(r() is None for r in refs)
        return (g,)

    h = ad._record(Tensor(x.data.copy()), (x,), last_vjp)
    y = ad.gelu(h)
    z = ad.row_softmax(ad.mul(y, y))
    refs += [weakref.ref(y.data), weakref.ref(z.data)]
    loss = ad.sum_reduce(ad.max_reduce(z, axis=0))
    del y, z
    backward(loss)
    assert x.grad is not None and ad.graph_size() == 0


def _argmax_oracle(x, axis, g):
    ga = np.zeros_like(x)
    np.put_along_axis(ga, np.expand_dims(x.argmax(axis=axis), axis),
                      np.expand_dims(g, axis), axis=axis)
    return ga


def _tie_heavy(shape, seed):
    """Values from {-1, -0.0, 0, 1}, with a repeated row and a constant column."""
    rng = make_rng(seed)
    x = rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape)
    x[1] = x[0]
    x[..., 0] = 1.0
    return x


@pytest.mark.parametrize("shape", [(6, 5, 4), (3, 300, 2)], ids=["small", "over-255"])
@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
def test_max_reduce_vjp_bitwise_equals_argmax(shape, nan):
    x = _tie_heavy(shape, 51).astype(np.float32)
    if nan:
        x[2, 1, 1] = np.nan  # one NaN, so one max per axis is NaN
        x[0, 0, 1] = np.nan  # and a column with two, the first of which takes the gradient
    for axis in range(-len(shape), len(shape)):
        a = Tensor(x, requires_grad=True)
        out = ad.max_reduce(a, axis)
        g = make_rng(52).normal(size=out.shape).astype(np.float32)
        (ga,) = ad._state.graph[-1].vjp(g)
        ad.clear_graph()
        ref = _argmax_oracle(x, axis, g)
        assert ga.dtype == ref.dtype and np.array_equal(ga, ref)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("xshape", [(4, 5, 6, 8), (3, 2, 4, 5, 8)], ids=["4d", "5d"])
def test_linear_slice_weight_grad_bitwise_equals_batched(xshape, dtype):
    rng = make_rng(53)
    arrays = [rng.normal(size=xshape), rng.normal(size=(8, 16)), rng.normal(size=(16,))]
    grad_out = rng.normal(size=(*xshape[:-1], 16))
    with precision(dtype):
        new = _run_graph(ad.linear, arrays, grad_out)
        old = _run_graph(_matmul_add, arrays, grad_out)
    _assert_bitwise(new, old, dtype)


@pytest.mark.parametrize("idx", [[3, 0, 2], [3, -1, 0], [1, 1, 0, 1]],
                         ids=["distinct", "negative-alias", "repeats"])
@pytest.mark.parametrize("axis", [0, -2])
def test_take_vjp_bitwise_equals_add_at(idx, axis):
    shape = (4, 4, 3)
    a = Tensor(make_rng(54).normal(size=shape), requires_grad=True)
    out = ad.take(a, idx, axis=axis)
    g = make_rng(55).normal(size=out.shape).astype(np.float32)
    g[g < -0.5] = -0.0
    (ga,) = ad._state.graph[-1].vjp(g)
    ref = np.zeros(shape, np.float32)
    np.add.at(np.moveaxis(ref, axis, 0), np.asarray(idx), np.moveaxis(g, axis, 0))
    assert np.array_equal(np.signbit(ga), np.signbit(ref)) and np.array_equal(ga, ref)


def _old_softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _old_log_softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z - lse, np.exp(z - lse)


@pytest.mark.parametrize("n", [1, 2, 7, 32, 33])
def test_row_max_and_softmax_equal_the_reduction(n):
    x = make_rng(56).normal(size=(6, n)).astype(np.float32) * 4
    x[1] = np.inf
    x[2, -1] = -np.inf
    x[3] = -np.inf
    x[4, n // 2] = np.nan
    x[5, 0] = -0.0
    np.testing.assert_array_equal(ad._row_max(x), x.max(axis=-1, keepdims=True))
    with np.errstate(invalid="ignore"):
        np.testing.assert_array_equal(ad._softmax(x), _old_softmax(x))
        owned = x.copy()
        assert ad._softmax(owned, out=owned) is owned
        np.testing.assert_array_equal(owned, _old_softmax(x))
        out = ad.log_softmax(Tensor(x, requires_grad=True))
        g = make_rng(57).normal(size=x.shape).astype(np.float32)
        (ga,) = ad._state.graph[-1].vjp(g)
        ref, s = _old_log_softmax(x)
        assert out.data.tobytes() == ref.tobytes()
        assert ga.tobytes() == (g - s * g.sum(axis=-1, keepdims=True)).tobytes()


@pytest.mark.parametrize("axis", [0, 1, 2, -1])
def test_take_vjp_multi_dim_index_bitwise_equals_add_at(axis):
    # a 2-D index with repeats and a negative alias of a repeated position
    idx = np.array([[0, 1, 1], [-1, 3, 0]])
    shape = (4, 4, 4)
    a = Tensor(make_rng(57).normal(size=shape), requires_grad=True)
    out = ad.take(a, idx, axis=axis)
    g = make_rng(58).normal(size=out.shape).astype(np.float32)
    g[g < -0.5] = -0.0
    backward(ad.sum_reduce(ad.mul(out, Tensor(g))))
    # one np.add.at per index position, in C order, as the scatter adds them
    ref = np.zeros(shape, np.float32)
    lead = (slice(None),) * (axis % len(shape))
    for pos in np.ndindex(idx.shape):
        np.add.at(ref, lead + (idx[pos],), g[lead + pos])
    assert np.array_equal(np.signbit(a.grad), np.signbit(ref)) and np.array_equal(a.grad, ref)


# ------------------------------------------------------------ a tape of nodes


def test_forward_frees_activations_no_vjp_reads(monkeypatch):
    from m3cs.backbone import Block

    block = Block(make_rng(59), 8, 2)
    x = rand(2, 5, 8, seed=60)
    seen = {}

    def spy(name, fn, pick):
        # a weakref to the picked tensor's data, and the node that made it
        def wrapper(*args):
            out = fn(*args)
            t = pick(args, out)
            seen.setdefault(name, (weakref.ref(t.data), t.node))
            return out
        return wrapper

    # a block's first add is the attention residual; gelu's input is fc1's output
    monkeypatch.setattr(ad, "add", spy("residual", ad.add, lambda args, out: out))
    monkeypatch.setattr(ad, "gelu", spy("fc1", ad.gelu, lambda args, out: args[0]))
    loss = ad.sum_reduce(block(x))
    for name in ("residual", "fc1"):
        ref, node = seen[name]
        assert ref() is None, f"the {name} output outlived the forward"
        assert any(n is node for n in ad._state.graph)
    backward(loss)
    assert x.grad is not None and block.fc1.w.grad is not None


def test_backward_leaves_a_kept_loss_pinning_nothing():
    x = rand(4, 6, seed=61)
    held = np.ones((4, 6), np.float32)
    ref = weakref.ref(held)
    h = ad._record(Tensor(x.data.copy()), (x,), lambda g, held=held: (g * held,))
    del held
    loss = ad.sum_reduce(h)
    backward(loss)
    assert ref() is None and loss.node.inputs is None and loss.node.vjp is None
    np.testing.assert_array_equal(x.grad, np.ones((4, 6)))


def test_tensor_of_a_cleared_graph_is_a_constant():
    x = rand(3, 4, seed=62)
    h = ad.gelu(x)
    ad.clear_graph()
    y = rand(3, 4, seed=63)
    backward(ad.sum_reduce(ad.mul(h, y)))
    assert h.grad is None and x.grad is None and ad.graph_size() == 0
    np.testing.assert_array_equal(y.grad, h.data)


@pytest.mark.parametrize("op", [ad.mul, ad.smooth_l1], ids=["mul", "smooth_l1"])
def test_builds_no_gradient_for_a_constant(op):
    # a dropout mask, a one-hot or a teacher target; x's gradient keeps its bits
    x, c = rand(3, 4, seed=64), make_rng(65).normal(size=(3, 4))
    out = op(x, Tensor(c))
    g = make_rng(66).normal(size=out.shape).astype(np.float32)
    gx, gc = ad._state.graph[-1].vjp(g)
    ad.clear_graph()
    op(x, Tensor(c, requires_grad=True))
    ref = ad._state.graph[-1].vjp(g)
    assert gc is None and ref[1] is not None and np.array_equal(gx, ref[0])
