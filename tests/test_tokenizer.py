import numpy as np
import pytest

import m3cs.autodiff as ad
from m3cs.autodiff import Tensor, backward, gradcheck, precision
from m3cs.rng import make_rng
from m3cs.tokenizer import MiniPointNet, PosEmbed


def sum_sq(t):
    return ad.sum_reduce(ad.mul(t, t))


@pytest.fixture
def net():
    return MiniPointNet(make_rng(0), c=24)


def test_permutation_invariance(net):
    rng = make_rng(1)
    patch = rng.normal(size=(16, 3))
    base = net(Tensor(patch)).data
    for _ in range(5):
        perm = rng.permutation(16)
        np.testing.assert_allclose(net(Tensor(patch[perm])).data, base, atol=1e-6)


def test_duplicate_point_is_absorbed(net):
    patch = make_rng(2).normal(size=(8, 3))
    dup = np.concatenate([patch, patch[3:4]], axis=0)
    np.testing.assert_allclose(net(Tensor(dup)).data, net(Tensor(patch)).data, atol=1e-6)


@pytest.mark.parametrize("s", [1, 2, 16])
def test_output_shape(net, s):
    out = net(Tensor(make_rng(3).normal(size=(s, 3))))
    assert out.shape == (24,)


def test_batched_matches_single(net):
    patches = make_rng(4).normal(size=(2, 5, 10, 3))
    batched = net(Tensor(patches)).data
    assert batched.shape == (2, 5, 24)
    one = net(Tensor(patches[1, 3])).data
    np.testing.assert_allclose(batched[1, 3], one, atol=1e-6)


def test_pos_embed_deterministic():
    pe = PosEmbed(make_rng(5), c=24)
    a = pe(Tensor([0.3, -0.2, 0.9])).data
    b = pe(Tensor([0.3, -0.2, 0.9])).data
    assert np.array_equal(a, b)


def test_pos_embed_shared_between_consumers():
    # encoder-side and decoder-side calls go through the same parameter set
    pe = PosEmbed(make_rng(6), c=16)
    center = Tensor([0.1, 0.2, 0.3])
    np.testing.assert_array_equal(pe(center).data, pe(center).data)

    # gradients from two consumers accumulate into the one parameter set
    with precision("float64"):
        pe64 = PosEmbed(make_rng(6), c=16)
        c1 = Tensor(make_rng(7).normal(size=(4, 3)))
        c2 = Tensor(make_rng(8).normal(size=(4, 3)))
        params = list(pe64.params().values())

        def loss():
            enc_side = sum_sq(pe64(c1))
            dec_side = sum_sq(pe64(c2))
            return ad.add(enc_side, dec_side)

        gradcheck(loss, params, rtol=1e-4)

        # accumulated grad equals the sum of the two single-consumer grads
        backward(loss())
        combined = params[0].grad.copy()
        params[0].grad = None
        backward(sum_sq(pe64(c1)))
        g1 = params[0].grad.copy()
        params[0].grad = None
        backward(sum_sq(pe64(c2)))
        g2 = params[0].grad.copy()
        params[0].grad = None
        np.testing.assert_allclose(combined, g1 + g2, rtol=1e-10)


def test_tokenizer_gradient(net):
    with precision("float64"):
        net64 = MiniPointNet(make_rng(0), c=8)
        patch = Tensor(make_rng(9).normal(size=(6, 3)), requires_grad=True)
        picks = [patch, net64.point_mlp.layers[0].w, net64.out_mlp.layers[1].b]
        gradcheck(lambda: sum_sq(net64(patch)), picks, rtol=1e-4)
