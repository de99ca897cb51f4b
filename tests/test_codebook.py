import numpy as np
import pytest

import m3cs.autodiff as ad
from m3cs.autodiff import Tensor, gradcheck, precision
from m3cs.codebook import Codebook, Quantizer, QuantizerOutput, perplexity, temperature
from m3cs.rng import make_rng


@pytest.fixture
def quant():
    rng = make_rng(0)
    book = Codebook(rng, t=16, d=12)
    return Quantizer(rng, c=12, codebook=book)


def test_codebook_too_small():
    with pytest.raises(ValueError):
        Codebook(make_rng(1), t=1, d=4)


def test_assignment_rows_sum_to_one(quant):
    x = Tensor(make_rng(2).normal(size=(9, 12)))
    out = quant(x, tau=0.7, rng=make_rng(3))
    assert out.z.shape == (9, 16)
    np.testing.assert_allclose(out.z.data.sum(-1), 1.0, atol=1e-6)
    assert np.all(out.z.data >= 0)


def test_mixed_is_convex_combination(quant):
    # every mixed row must lie inside the convex hull of the entries, which
    # for coordinates means between the columnwise min and max
    x = Tensor(make_rng(4).normal(size=(20, 12)))
    out = quant(x, tau=0.5, rng=make_rng(5))
    entries = quant.codebook.entries.data
    lo, hi = entries.min(0), entries.max(0)
    assert np.all(out.mixed.data >= lo - 1e-6)
    assert np.all(out.mixed.data <= hi + 1e-6)


def test_mixed_matches_manual_product(quant):
    x = Tensor(make_rng(6).normal(size=(5, 12)))
    out = quant(x, tau=1.0, rng=make_rng(7))
    np.testing.assert_allclose(
        out.mixed.data, out.z.data @ quant.codebook.entries.data, atol=1e-6
    )


def test_low_temperature_approaches_argmax(quant):
    # oracle: at tau = 0.01 the soft assignment concentrates on the argmax of
    # the noisy logits, checked against an independent recomputation
    x = Tensor(make_rng(8).normal(size=(1000, 12)))
    logits = quant.to_logits(x).data
    rng = make_rng(9)
    u = rng.random(logits.shape)
    noise = -np.log(-np.log(np.clip(u, 1e-12, 1.0 - 1e-12)))
    expected = (logits + noise).argmax(-1)
    out = quant(x, tau=0.01, rng=make_rng(9))
    assert np.mean(out.z.data.argmax(-1) == expected) == 1.0
    # near-ties in the noisy logits keep a few rows soft, but the bulk is hard
    assert np.median(out.z.data.max(-1)) > 0.999
    assert np.mean(out.z.data.max(-1)) > 0.9


def test_eval_mode_is_noise_free(quant):
    x = Tensor(make_rng(10).normal(size=(6, 12)))
    a = quant(x, tau=0.5).z.data
    b = quant(x, tau=0.5).z.data
    np.testing.assert_array_equal(a, b)
    # and matches a plain softmax of logits / tau
    logits = quant.to_logits(x).data
    ref = np.exp(logits / 0.5 - (logits / 0.5).max(-1, keepdims=True))
    ref = ref / ref.sum(-1, keepdims=True)
    np.testing.assert_allclose(a, ref, atol=1e-6)


def test_nonpositive_tau_rejected(quant):
    x = Tensor(np.zeros((2, 12)))
    for tau in (0.0, -1.0):
        with pytest.raises(ValueError, match="temperature"):
            quant(x, tau=tau, rng=make_rng(0))


def test_same_seed_same_noise(quant):
    x = Tensor(make_rng(11).normal(size=(4, 12)))
    a = quant(x, tau=0.8, rng=make_rng(12)).z.data
    b = quant(x, tau=0.8, rng=make_rng(12)).z.data
    c = quant(x, tau=0.8, rng=make_rng(13)).z.data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_token_ids_match_eval_argmax(quant):
    x = Tensor(make_rng(14).normal(size=(7, 12)))
    ids = quant.token_ids(x)
    ev = quant(x, tau=0.3).z.data.argmax(-1)
    np.testing.assert_array_equal(ids, ev)


def test_temperature_schedule():
    assert temperature(0, 100) == pytest.approx(1.0)
    assert temperature(100, 100) == pytest.approx(0.0625)
    mid = temperature(50, 100)
    assert mid == pytest.approx(0.0625 + (1.0 - 0.0625) * 0.5)
    vals = [temperature(s, 100) for s in range(101)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        temperature(101, 100)


def test_perplexity_hand_cases():
    # collapsed: every row picks entry 0
    z = np.zeros((10, 16))
    z[:, 0] = 1.0
    assert perplexity(z) == pytest.approx(1.0, abs=1e-6)
    # uniform over all 16 entries
    assert perplexity(np.full((5, 16), 1 / 16)) == pytest.approx(16.0, rel=1e-6)
    # half the rows on entry 0, half on entry 1: exp(log 2) = 2
    z = np.zeros((4, 16))
    z[:2, 0] = 1.0
    z[2:, 1] = 1.0
    assert perplexity(z) == pytest.approx(2.0, rel=1e-6)


def test_perplexity_accepts_tensor_and_leading_dims(quant):
    z = quant(Tensor(make_rng(15).normal(size=(2, 6, 12))), tau=0.5, rng=make_rng(16)).z
    got = perplexity(z)
    flat = perplexity(z.data.reshape(-1, 16))
    assert got == pytest.approx(flat)
    with pytest.raises(ValueError):
        perplexity(np.zeros((0, 16)))


def test_gradients_flow_to_entries_and_scorer():
    with precision("float64"):
        rng = make_rng(17)
        book = Codebook(rng, t=6, d=5)
        quant = Quantizer(rng, c=5, codebook=book)
        # generic-point weights so the FD probe is well conditioned
        book.entries.data = make_rng(18).normal(scale=0.5, size=(6, 5))
        x = Tensor(make_rng(19).normal(size=(4, 5)), requires_grad=True)
        noise = Tensor(make_rng(20).normal(size=(4, 6)))

        def loss():
            logits = ad.add(quant.to_logits(x), noise)
            z = ad.row_softmax(ad.scalar_mul(logits, 2.0))
            mixed = ad.matmul(z, book.entries)
            return ad.sum_reduce(ad.mul(mixed, mixed))

        gradcheck(loss, [x, book.entries, quant.to_logits.w], rtol=1e-4)


def test_output_dataclass_fields(quant):
    out = quant(Tensor(np.zeros((3, 12))), tau=0.4, rng=make_rng(21))
    assert isinstance(out, QuantizerOutput)
    assert out.mixed.shape == (3, 12)
