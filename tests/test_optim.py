import math

import numpy as np
import pytest

from m3cs.autodiff import ShapeError, Tensor
from m3cs.optim import AdamW, lr_at


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

