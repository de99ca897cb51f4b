"""Minimal dense-tensor math with reverse-mode differentiation.

Tensors wrap flat numpy storage. Every primitive records a node on a
module-level graph (tape) when gradients are enabled and any input requires
them. The tape holds nodes, never tensors. A node keeps its VJP and, per
input, a key: the node that made that input, the leaf tensor itself, or None
where no gradient is asked for. A tensor links to the node that made it
through its `node` slot. Each VJP closure keeps shapes, flags and only the
arrays it reads, so an activation that no VJP reads is freed as soon as the
forward pass drops it. `backward` walks the tape once in reverse, popping and
clearing each node as it goes, and deposits gradients on the leaves. Training
runs in float32, verification in float64 (see `precision`).

Some primitives work in place, or block by block, to spare full-size
temporaries. They write only into arrays they allocated themselves, never
into an input's data, an incoming gradient, or an array that a recorded VJP
still reads. Each step is the numpy operation of the plain formula, in its
order, so results are bit-identical to it.
"""

import ctypes
import math
import sys
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

_state = SimpleNamespace(dtype=np.float32, grad_enabled=True, graph=[])


def _keep_freed_heap():
    """Fix glibc malloc's thresholds at the ceiling its own dynamic rule can reach.

    Each training step frees tens of MB of activations and gradients, and the
    next step allocates as much again. glibc sets its trim threshold to twice
    the largest array it has unmapped so far, a few MB here, so the heap top
    that a step frees would go back to the OS, and the next step would fault
    it in again page by page. Fixed, arrays under 32 MB come from the heap and
    up to 64 MB of free heap top is kept. Elsewhere than Linux this does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()


@contextmanager
def precision(dtype):
    """Temporarily switch the default dtype ('float32' or 'float64')."""
    old = _state.dtype
    _state.dtype = np.dtype(dtype).type
    try:
        yield
    finally:
        _state.dtype = old


@contextmanager
def no_grad():
    old = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = old


class ShapeError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=_state.dtype)
        self.requires_grad = requires_grad
        self.grad = None
        self.node = None  # the tape node that made this tensor, if any

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


class _Node:
    """One recorded primitive: its VJP and, per input, the key of `_key`."""

    __slots__ = ("inputs", "vjp")

    def __init__(self, inputs, vjp):
        self.inputs = inputs
        self.vjp = vjp


def _key(t):
    """Where backward files t's gradient: its node, t itself for a leaf, or None.

    A tensor whose node was consumed by `backward` or dropped by `clear_graph`
    is a constant, as is one that requires no gradient.
    """
    if t.node is None:
        return t if t.requires_grad else None
    return t.node if t.node.vjp is not None else None


def _wants(t):
    """Whether backward would file a gradient for t, were a primitive on it taped."""
    return _key(t) is not None


def _taped(inputs):
    """Whether a primitive on these inputs is recorded on the tape."""
    return _state.grad_enabled and any(i.requires_grad for i in inputs)


def _record(out, inputs, vjp):
    if _taped(inputs):
        out.requires_grad = True
        out.node = _Node(tuple(_key(t) for t in inputs), vjp)
        _state.graph.append(out.node)
    return out


def graph_size():
    return len(_state.graph)


def _release(node):
    node.inputs = node.vjp = None


def clear_graph():
    """Drop the tape; the tensors it made become constants to any later graph."""
    for node in _state.graph:
        _release(node)
    _state.graph.clear()


def backward(loss):
    """Accumulate gradients of a scalar loss onto all requires_grad leaves.

    The tape is consumed as it is walked: each node is popped and cleared when
    the walk reaches it, so the arrays its VJP reads are freed before the next
    VJP runs, and a tensor kept past this call pins nothing upstream. Gradients
    are filed under the node that made a tensor, and a leaf's under the tensor.
    After this call the graph is empty. A tensor made on a tape that this call
    or `clear_graph` consumed acts as a constant in any later graph: it gets no
    `.grad`, and nothing flows through it.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {list(loss.shape)}")
    if not _state.graph:
        raise RuntimeError("backward called with an empty graph")
    # a node's gradient is complete when the walk reaches it
    grads = {loss.node: np.ones_like(loss.data)}
    graph = _state.graph
    while graph:
        node = graph.pop()
        inputs, vjp = node.inputs, node.vjp
        _release(node)
        g = grads.pop(node, None)
        if g is None:
            continue
        for key, gi in zip(inputs, vjp(g)):
            if key is None or gi is None:
                continue
            if key in grads:
                gi = grads[key] + gi
            grads[key] = gi
    # what is left belongs to leaves, bar the entry of a loss that no tape node produced
    for key, g in grads.items():
        if isinstance(key, Tensor):
            key.grad = g if key.grad is None else key.grad + g


def _unbroadcast(g, shape):
    # sum out broadcast axes so the gradient matches the operand's shape
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _check_broadcast(name, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{name}: shapes {list(a.shape)} and {list(b.shape)} do not broadcast")


# ---------------------------------------------------------------- primitives


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("add", a, b)
    out = Tensor(a.data + b.data)
    sa, sb = a.shape, b.shape
    return _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("sub", a, b)
    out = Tensor(a.data - b.data)
    sa, sb = a.shape, b.shape
    return _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("mul", a, b)
    out = Tensor(a.data * b.data)
    # each side's gradient reads the other side's data, kept only where it is asked for
    sa, sb = a.shape, b.shape
    a_data = a.data if _wants(b) else None
    b_data = b.data if _wants(a) else None

    def vjp(g):
        return (None if b_data is None else _unbroadcast(g * b_data, sa),
                None if a_data is None else _unbroadcast(g * a_data, sb))

    return _record(out, (a, b), vjp)


def scalar_mul(a, s):
    s = float(s)
    out = Tensor(a.data * s)
    return _record(out, (a,), lambda g: (g * s,))


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: needs >=2-D operands with equal inner dims, "
                         f"{list(a.shape)} @ {list(b.shape)}")
    out = Tensor(np.matmul(a.data, b.data))
    sa, sb = a.shape, b.shape
    a_data = a.data if _wants(b) else None
    b_data = b.data if _wants(a) else None

    def vjp(g):
        ga = gb = None
        if b_data is not None:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), sa)
        if a_data is not None:
            gb = _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), sb)
        return ga, gb

    return _record(out, (a, b), vjp)


def linear(x, w, b):
    """x @ w + b over the last axis of x, for a (K, N) weight w and (N,) bias b.

    The forward pass is one 2-D GEMM over x's folded leading dims. The VJP is
    the arithmetic of add(matmul(x, w), b), batched as there: folding the
    weight-gradient GEMM or the bias sum would reorder float sums. For an x of
    4 or more dims the per-matrix weight-gradient partials of one leading slice
    at a time are added into one accumulator, in the order in which summing
    the batched partials over axis 0 adds them, so no full-size batch of
    partials is built.
    """
    x = as_tensor(x)
    k, n = w.shape
    if x.shape[-1] != k or b.shape != (n,):
        raise ShapeError(f"linear: {list(x.shape)} @ {list(w.shape)} + {list(b.shape)}")
    y = x.data.reshape(-1, k) @ w.data
    y += b.data
    out = Tensor(y.reshape(*x.shape[:-1], n))
    x_data = x.data if _wants(w) else None
    w_data = w.data if _wants(x) else None
    want_b, w_shape, b_shape = _wants(b), w.shape, b.shape

    def vjp(g):
        gx = gw = gb = None
        if w_data is not None:
            gx = np.matmul(g, w_data.T)
        if x_data is not None:
            gw = (np.multiply.outer(x_data, g) if x_data.ndim == 1 else
                  _unbroadcast(_weight_grad(x_data, g), w_shape))
        if want_b:
            gb = _unbroadcast(g, b_shape)
        return gx, gw, gb

    return _record(out, (x, w, b), vjp)


def _weight_grad(x, g):
    """x^T g per trailing matrix, summed over x's first axis when x has 4 or more dims."""
    if x.ndim < 4:
        return np.matmul(np.swapaxes(x, -1, -2), g)
    acc = np.matmul(np.swapaxes(x[0], -1, -2), g[0])
    for xs, gs in zip(x[1:], g[1:]):
        acc += np.matmul(np.swapaxes(xs, -1, -2), gs)
    return acc


def swap_axes(a, ax1, ax2):
    out = Tensor(np.swapaxes(a.data, ax1, ax2))
    return _record(out, (a,), lambda g: (np.swapaxes(g, ax1, ax2),))


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))
    a_shape = a.shape
    return _record(out, (a,), lambda g: (g.reshape(a_shape),))


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _record(out, tuple(tensors), lambda g: tuple(np.split(g, splits, axis=axis)))


def take(a, idx, axis=0):
    """Index-select rows along an axis; gradient scatters (duplicates accumulate).

    Without repeated positions in idx the scatter is one fancy-index add, which
    adds each gradient row to zero as np.add.at does, and as often.
    """
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(np.take(a.data, idx, axis=axis))
    shape, dtype = a.shape, a.data.dtype
    axis %= a.ndim
    n = shape[axis]

    def vjp(g):
        ga = np.zeros(shape, dtype)
        # idx's dims sit at axis in g; all of them go in front, as in view[idx]
        view = np.moveaxis(ga, axis, 0)
        rows = np.moveaxis(g, range(axis, axis + idx.ndim), range(idx.ndim))
        # -1 and n - 1 name one position, so repeats are counted modulo n
        if idx.size < 2 or np.unique(idx % n).size == idx.size:
            view[idx] += rows
        else:
            np.add.at(view, idx, rows)
        return (ga,)

    return _record(out, (a,), vjp)


def _row_max(x):
    """x.max(axis=-1, keepdims=True), as one np.maximum.reduce down the columns of a
    C-contiguous copy of the rows. A max is exact, so any order gives its value; NaN
    wins as in x.max."""
    n = x.shape[-1]
    cols = np.ascontiguousarray(x.reshape(-1, n).T)
    return np.maximum.reduce(cols, axis=0).reshape(*x.shape[:-1], 1)


def _softmax(x, out=None):
    """Softmax over the last axis of x, into out (a new array by default; x itself
    when the caller owns x)."""
    z = np.subtract(x, _row_max(x), out=out)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def row_softmax(a):
    s = _softmax(a.data)
    out = Tensor(s)
    return _record(out, (a,), lambda g: (s * (g - (g * s).sum(axis=-1, keepdims=True)),))


def attention(q, k, v, heads):
    """Multi-head scaled dot-product attention over (..., M, c) queries, keys and values.

    One tape node for the head split, softmax(q k^T / sqrt(d)) v per head and
    the merge back to (..., M, c). Scale and softmax work in place on the score
    buffer; the VJP is the arithmetic of the swap_axes, reshape, matmul,
    scalar_mul and row_softmax chain it replaces.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim < 2 or k.shape != q.shape or v.shape != q.shape or q.shape[-1] % heads:
        raise ShapeError(f"attention: {list(q.shape)}, {list(k.shape)}, {list(v.shape)} "
                         f"with {heads} heads")
    *lead, m, c = q.shape
    d = c // heads
    scale = 1.0 / math.sqrt(d)

    def split(t):  # (..., M, c) -> (..., h, M, d), a view
        return np.swapaxes(t.reshape(*lead, m, heads, d), -2, -3)

    def merge(t):  # (..., h, M, d) -> (..., M, c), a copy
        return np.swapaxes(t, -2, -3).reshape(*lead, m, c)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    kt = np.swapaxes(kh, -1, -2)
    att = np.matmul(qh, kt)
    att *= scale
    _softmax(att, out=att)
    out = Tensor(merge(np.matmul(att, vh)))

    def vjp(g):
        g = np.swapaxes(g.reshape(*lead, m, heads, d), -2, -3)
        ga = np.matmul(g, np.swapaxes(vh, -1, -2))
        gv = np.matmul(np.swapaxes(att, -1, -2), g)
        ga -= (ga * att).sum(axis=-1, keepdims=True)
        ga *= att
        ga *= scale
        gq = np.matmul(ga, np.swapaxes(kt, -1, -2))
        gk = np.swapaxes(np.matmul(np.swapaxes(qh, -1, -2), ga), -1, -2)
        return merge(gq), merge(gk), merge(gv)

    return _record(out, (q, k, v), vjp)


def log_softmax(a):
    z = a.data - _row_max(a.data)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    s = np.exp(z)
    return _record(Tensor(z), (a,), lambda g: (g - s * g.sum(axis=-1, keepdims=True),))


def layer_norm(a, gamma=None, beta=None, eps=1e-6):
    """Normalization over the last axis (mean 0, variance 1), then * gamma + beta if given."""
    x = a.data
    # the x - mean and mean square that x.var computes internally, computed once
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + eps)
    xhat *= inv

    def normalize_vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        ga = g - gm - xhat * gx
        ga *= inv
        return ga

    if gamma is None:
        return _record(Tensor(xhat), (a,), lambda g: (normalize_vjp(g),))
    # off the tape no VJP reads xhat, so the affine may overwrite it
    y = np.multiply(xhat, gamma.data, out=None if _taped((a, gamma, beta)) else xhat)
    y += beta.data
    gamma_data, gamma_shape, beta_shape = gamma.data, gamma.shape, beta.shape

    def vjp(g):
        # the add(mul(layer_norm(a), gamma), beta) chain, from beta back to a
        return (normalize_vjp(g * gamma_data), _unbroadcast(g * xhat, gamma_shape),
                _unbroadcast(g, beta_shape))

    return _record(Tensor(y), (a, gamma, beta), vjp)


_GELU_K = 0.7978845608028654  # sqrt(2/pi)
_BLOCK = 1 << 16  # elements per pass of a blocked loop; a few float32 blocks fit in L2


def _blocks(*arrays):
    """Matching flat slices of equal-size arrays, _BLOCK elements at a time.

    An array written through its slices must be C-contiguous, so that they are views.
    """
    flat = [a.reshape(-1) for a in arrays]
    for i in range(0, flat[0].size, _BLOCK):
        yield [f[i:i + _BLOCK] for f in flat]


def gelu(a):
    """0.5 x (1 + tanh(K (x + 0.044715 x^3))), its tanh term built in one owned buffer.

    Off the tape that buffer becomes the output. On the tape the same pass turns it
    into the derivative, which the VJP multiplies by, so x is not kept. Every step
    runs block by block, so the temporaries are block-sized and stay in cache.
    """
    x = a.data
    taped = _taped((a,))
    t = np.empty(x.shape, x.dtype)
    y = np.empty(x.shape, x.dtype) if taped else t
    for xs, ts, ys in _blocks(x, t, y):
        np.multiply(0.044715, xs, out=ts)
        ts *= xs
        ts *= xs
        ts += xs
        ts *= _GELU_K
        np.tanh(ts, out=ts)
        np.add(1.0, ts, out=ys)
        ys *= 0.5 * xs
        if taped:
            # 0.5 (1 + t) + 0.5 x (1 - t^2) K (1 + 3 * 0.044715 x^2), into ts
            dt = ts * ts
            np.subtract(1.0, dt, out=dt)
            dt *= _GELU_K
            u = np.multiply(3 * 0.044715, xs)
            u *= xs
            u += 1.0
            dt *= u
            np.add(1.0, ts, out=u)
            u *= 0.5
            dt *= 0.5 * xs
            np.add(u, dt, out=ts)
    if not taped:
        return Tensor(y)

    def vjp(g):
        return (np.multiply(g, t, out=np.empty(t.shape, np.result_type(g, t))),)

    return _record(Tensor(y), (a,), vjp)


def _first_max_index(x, m, axis):
    """x.argmax(axis) with the reduced axis kept, for m = x.max(axis).

    The first maximal index is S - max((x == m) * [S, S-1, ..., 1]), worked in
    uint8 on one bool-sized buffer. argmax serves where that cannot hold S, or
    where m has a NaN, which equals nothing.
    """
    s = x.shape[axis]
    if s > 255 or np.isnan(m).any():
        return np.expand_dims(x.argmax(axis=axis), axis)
    rank = np.arange(s, 0, -1, dtype=np.uint8).reshape([s if ax == axis % x.ndim else 1
                                                       for ax in range(x.ndim)])
    hit = (x == np.expand_dims(m, axis)).view(np.uint8)
    hit *= rank
    return s - hit.max(axis=axis, keepdims=True)


def max_reduce(a, axis):
    x = a.data
    out = Tensor(x.max(axis=axis))
    if not _taped((a,)):
        return out
    # the first index on ties, kept in place of x
    arg = _first_max_index(x, out.data, axis)
    shape, dtype = x.shape, x.dtype

    def vjp(g):
        ga = np.zeros(shape, dtype)
        np.put_along_axis(ga, arg, np.expand_dims(g, axis), axis=axis)
        return (ga,)

    return _record(out, (a,), vjp)


def sum_reduce(a, axis=None):
    out = Tensor(a.data.sum(axis=axis))
    shape = a.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _record(out, (a,), vjp)


def mean_reduce(a, axis=None):
    n = a.size if axis is None else a.shape[axis]
    out = Tensor(a.data.mean(axis=axis))
    shape = a.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / n, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / n, shape).copy(),)

    return _record(out, (a,), vjp)


def smooth_l1(x, y, beta=1.0):
    """Mean smooth-l1: 0.5*d^2/beta where |d| < beta, |d| - 0.5*beta elsewhere. beta = 0
    is the L1 limit, with no quadratic part."""
    if not beta >= 0:
        raise ValueError(f"smooth_l1 needs beta >= 0, got {beta}")
    x, y = as_tensor(x), as_tensor(y)
    if x.shape != y.shape:
        raise ShapeError(f"smooth_l1: shapes differ, {list(x.shape)} vs {list(y.shape)}")
    d = x.data - y.data
    ad = np.abs(d)
    quad = ad < beta
    vals = ad - 0.5 * beta
    # divided only where it applies, so beta = 0 divides nothing
    np.divide(0.5 * d * d, beta, out=vals, where=quad)
    out = Tensor(vals.mean())
    n = d.size
    want_x, want_y = _wants(x), _wants(y)

    def vjp(g):
        gd = np.sign(d)
        np.divide(d, beta, out=gd, where=quad)
        gd = gd * (g / n)
        return (gd if want_x else None), (-gd if want_y else None)

    return _record(out, (x, y), vjp)


def dropout(a, rate, rng):
    """Inverted dropout with caller-supplied rng. rate=0 or rng=None is the identity."""
    if rate <= 0.0 or rng is None:
        return a
    keep = (rng.random(a.shape) >= rate).astype(a.data.dtype) / (1.0 - rate)
    return mul(a, Tensor(keep))


def gradcheck(fn, tensors, h=1e-5, rtol=1e-4):
    """Central finite-difference check of fn (scalar output) w.r.t. tensors.

    Run under precision('float64'). Returns the max relative error seen.
    """
    for t in tensors:
        t.grad = None
    loss = fn()
    backward(loss)
    worst = 0.0
    for t in tensors:
        assert t.grad is not None, "leaf received no gradient"
        num = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = fn().item()
            clear_graph()
            flat[i] = orig - h
            lm = fn().item()
            clear_graph()
            flat[i] = orig
            nflat[i] = (lp - lm) / (2 * h)
        denom = max(np.abs(num).max(), np.abs(t.grad).max(), 1e-8)
        err = np.abs(num - t.grad).max() / denom
        worst = max(worst, err)
        assert err < rtol, f"finite-difference mismatch: rel err {err:.3e}"
        t.grad = None
    return worst
