import math

import numpy as np
import pytest

from m3cs.autodiff import ShapeError, Tensor
from m3cs.optim import AdamW, lr_at
from m3cs.rng import make_rng


def make_param(value):
    p = Tensor(np.array(value), requires_grad=True)
    return p


def test_zero_grad_zero_decay_leaves_param():
    p = make_param([1.0, -2.0])
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    p.grad = np.zeros(2, dtype=np.float32)
    opt.step()
    np.testing.assert_allclose(p.data, [1.0, -2.0])


def test_first_step_moves_by_lr():
    # hand-computed: m_hat = v_hat = 1 after bias correction, update = lr/(1+eps)
    p = make_param([0.0])
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    p.grad = np.ones(1, dtype=np.float32)
    opt.step()
    np.testing.assert_allclose(p.data, [-0.1], atol=1e-6)


def test_decoupled_weight_decay_only():
    p = make_param([2.0])
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.05)
    p.grad = np.zeros(1, dtype=np.float32)
    opt.step()
    np.testing.assert_allclose(p.data, [2.0 * (1 - 0.005)], rtol=1e-6)


@pytest.mark.parametrize("name", ["lr", "weight_decay", "warmup"])
def test_adamw_refuses_negative_rate_and_takes_zero(name):
    p = make_param([1.0])
    with pytest.raises(ValueError, match=f"^AdamW needs {name} >= 0, got -1$"):
        AdamW({"p": p}, **{name: -1})
    AdamW({"p": p}, **{name: 0})


def test_grad_shape_mismatch():
    p = make_param([1.0, 2.0])
    opt = AdamW({"p": p})
    p.grad = np.zeros(3, dtype=np.float32)
    with pytest.raises(ShapeError, match="optimizer"):
        opt.step()


def test_lr_schedule_boundaries():
    assert lr_at(0, 1.0, 100, warmup=10) == pytest.approx(0.1)
    assert lr_at(9, 1.0, 100, warmup=10) == pytest.approx(1.0)
    assert lr_at(10, 1.0, 100, warmup=10) == pytest.approx(1.0)
    assert lr_at(100, 1.0, 100, warmup=10) == pytest.approx(0.0, abs=1e-12)
    # cosine midpoint
    mid = lr_at(55, 1.0, 100, warmup=10)
    assert mid == pytest.approx(0.5, abs=1e-6)



def test_step_bitwise_equals_textbook_formula():
    # 40 float32 steps through warmup and cosine decay, one step without a gradient
    b1, b2, eps, wd, base_lr = 0.9, 0.999, 1e-8, 0.05, 1e-3
    rng = make_rng(3)
    shapes = {"w": (5, 7), "b": (7,), "s": ()}
    params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
    ref = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros_like(a) for k, a in ref.items()}
    v = {k: np.zeros_like(a) for k, a in ref.items()}
    opt = AdamW(params, lr=base_lr, betas=(b1, b2), eps=eps, weight_decay=wd,
                total_steps=40, warmup=6)
    for t in range(1, 41):
        grads = {k: (None if t == 7 and k == "b" else
                     rng.normal(size=s).astype(np.float32)) for k, s in shapes.items()}
        for k, p in params.items():
            p.grad = grads[k]
        opt.step()
        lr = lr_at(t - 1, base_lr, 40, 6)
        for k in ref:
            g = np.zeros_like(ref[k]) if grads[k] is None else grads[k]
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            mhat, vhat = m[k] / (1 - b1**t), v[k] / (1 - b2**t)
            ref[k] = ref[k] - lr * (mhat / (np.sqrt(vhat) + eps) + wd * ref[k])
    for k, p in params.items():
        for got, want in ((p.data, ref[k]), (opt.m[k], m[k]), (opt.v[k], v[k])):
            assert got.dtype == np.float32 and np.array_equal(got, want)
