import numpy as np
import pytest

import m3cs.autodiff as ad
from m3cs.autodiff import Tensor, backward, gradcheck, precision
from m3cs.backbone import EncoderStack, SiameseDecoder
from m3cs.rng import make_rng


@pytest.fixture
def enc():
    return EncoderStack(make_rng(0), c=16, heads=4, depth=3)


def toks(seed, m=6, c=16):
    rng = make_rng(seed)
    return Tensor(rng.normal(size=(m, c))), Tensor(rng.normal(size=(m, c)))


def test_output_shape_matches_input(enc):
    tokens, pos = toks(1)
    out = enc(tokens, pos)
    assert out[2].shape == (6, 16)


def test_encoder_returns_every_layer():
    # one entry per block, each equal bit for bit to a block-by-block walk;
    # only the last one is normed
    enc = EncoderStack(make_rng(2), c=8, heads=2, depth=4)
    tokens, pos = toks(3, c=8)
    out = enc(tokens, pos)
    x = ad.add(tokens, pos)
    want = []
    for block in enc.blocks:
        x = block(x)
        want.append(x.data)
    want[-1] = enc.ln_final(x).data
    assert len(out) == 4
    for got, w in zip(out, want):
        assert got.data.tobytes() == w.tobytes()


def test_permutation_equivariance(enc):
    tokens, pos = toks(6)
    base = enc(tokens, pos)[2].data
    perm = make_rng(7).permutation(6)
    permuted = enc(Tensor(tokens.data[perm]), Tensor(pos.data[perm]))[2].data
    np.testing.assert_allclose(permuted, base[perm], atol=1e-5)


def test_attention_rows_sum_to_one(enc):
    # row_softmax is the only softmax in a block; probe it through a hook-free
    # path: scores of a 1-head attention must produce a right-stochastic matrix
    from m3cs.backbone import SelfAttention
    attn = SelfAttention(make_rng(8), c=8, heads=2)
    x = Tensor(make_rng(9).normal(size=(5, 8)))
    q = attn.q(x).data.reshape(5, 2, 4).swapaxes(0, 1)
    k = attn.k(x).data.reshape(5, 2, 4).swapaxes(0, 1)
    scores = q @ k.swapaxes(-1, -2) / 2.0
    rows = ad.row_softmax(Tensor(scores)).data
    np.testing.assert_allclose(rows.sum(-1), 1.0, atol=1e-6)


def test_decoder_identical_for_both_roles():
    dec = SiameseDecoder(make_rng(10), c=16, heads=4, depth=4)
    tokens, pos = toks(11)
    rep_branch = dec(tokens, pos).data
    point_branch = dec(tokens, pos).data
    np.testing.assert_array_equal(rep_branch, point_branch)


def test_siamese_parameter_count():
    shared = SiameseDecoder(make_rng(12), c=16, heads=4, depth=4)
    single = SiameseDecoder(make_rng(13), c=16, heads=4, depth=4)
    assert shared.param_count() == single.param_count()


def test_weight_mutation_affects_both_roles():
    dec = SiameseDecoder(make_rng(14), c=16, heads=4, depth=2)
    tokens, pos = toks(15)
    a1, b1 = dec(tokens, pos).data.copy(), dec(tokens, pos).data.copy()
    dec.blocks[0].fc1.w.data[0, 0] += 0.5
    a2, b2 = dec(tokens, pos).data.copy(), dec(tokens, pos).data.copy()
    assert not np.allclose(a1, a2)
    np.testing.assert_array_equal(a2, b2)


def test_two_branch_gradients_accumulate():
    # grads from both decoding roles land on the single parameter set and
    # equal the sum of the per-branch gradients
    dec = SiameseDecoder(make_rng(16), c=8, heads=2, depth=2)
    tokens, pos = toks(17, c=8)
    target = dec.blocks[0].attn.q.w

    def branch_a():
        y = dec(tokens, pos)
        return ad.sum_reduce(ad.mul(y, y))

    def branch_b():
        y = dec(ad.scalar_mul(tokens, 0.5), pos)
        return ad.mean_reduce(ad.mul(y, y))

    target.grad = None
    backward(ad.add(branch_a(), branch_b()))
    combined = target.grad.copy()
    target.grad = None
    backward(branch_a())
    ga = target.grad.copy()
    target.grad = None
    backward(branch_b())
    gb = target.grad.copy()
    target.grad = None
    np.testing.assert_allclose(combined, ga + gb, rtol=1e-4, atol=1e-7)


def test_encoder_finite_difference_small():
    # probe with a random linear functional: sum-of-squares of a normalized
    # output is nearly constant, which starves the gradient
    with precision("float64"):
        enc = EncoderStack(make_rng(18), c=8, heads=2, depth=2)
        tokens, pos = toks(19, m=4, c=8)
        probe = Tensor(make_rng(22).normal(size=(4, 8)))
        picks = [enc.blocks[0].attn.q.w, enc.blocks[1].fc2.b, enc.ln_final.gamma]
        gradcheck(lambda: ad.sum_reduce(ad.mul(enc(tokens, pos)[-1], probe)), picks, rtol=1e-4)


def test_decoder_readds_positions_every_block():
    # doubling pos must shift every block's input, not only the first one:
    # compare against an encoder-style single add baseline
    dec = SiameseDecoder(make_rng(20), c=16, heads=4, depth=2)
    tokens, pos = toks(21)
    out1 = dec(tokens, pos).data
    out2 = dec(ad.add(tokens, pos), Tensor(np.zeros_like(pos.data))).data
    assert not np.allclose(out1, out2)
