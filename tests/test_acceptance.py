"""End-to-end acceptance gate: one test per criterion, one PASS line each.

The heavier criteria (5, 6, 7) share a single 500-step pretraining run via a
module-scoped fixture, so this file takes a while. Run it alone with
`pytest tests/test_acceptance.py -v -s` to watch the per-criterion lines.
"""

import time

import numpy as np
import pytest

import m3cs.autodiff as ad
from m3cs.autodiff import Tensor, gradcheck, precision
from m3cs.backbone import SiameseDecoder
from m3cs.checkpoint import load_checkpoint, save_checkpoint
from m3cs.config import FewshotConfig, FinetuneConfig, ModelConfig, PretrainConfig
from m3cs.data import _cloud_batch, gen_shapes
from m3cs.finetune import (
    FinetuneModel,
    cross_entropy,
    few_shot,
    finetune_loop,
    netvlad,
    sample_episode,
)
from m3cs.geometry import chamfer
from m3cs.pretrain import (
    PretrainModel,
    align_loss,
    ema_update,
    forward_student,
    forward_targets,
    init_teacher,
    mask_block,
    mask_random,
    point_loss,
    pretrain_loop,
)
from m3cs.rng import make_rng

WIDTH8 = ModelConfig(c=8, heads=2, enc_depth=2, dec_depth=2, g=6, s=4, t=6,
                     n_points=24)
DESK = ModelConfig()

FAMILIES = ("sphere", "cube", "torus", "cylinder")


def report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS: {detail}")


# --------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_integrity():
    t0 = time.time()
    with precision("float64"):
        # path A: tokenizer -> encoder -> siamese decoder -> alignment loss
        model = PretrainModel(make_rng(1), WIDTH8)
        teacher = init_teacher(model)
        rng = make_rng(2)
        groups = rng.normal(scale=0.3, size=(WIDTH8.g, WIDTH8.s, 3))
        centers = rng.normal(size=(WIDTH8.g, 3))
        mask = mask_random(WIDTH8.g, 0.5, make_rng(3))

        # the alignment target is a constant: compute it once outside the
        # closure so finite differences only move the student path
        tokens0, pos0 = model.embed(groups, centers)
        y = forward_targets(tokens0, pos0, mask, teacher)

        def loss_align():
            tokens, pos = model.embed(groups, centers)
            x, _ = forward_student(model, tokens, pos, mask)
            return align_loss(x, y)

        picks_a = [model.tokenizer.point_mlp.layers[0].w,
                   model.encoder.blocks[0].attn.q.w,
                   model.decoder.blocks[1].fc1.w,
                   model.mask_token]
        gradcheck(loss_align, picks_a, rtol=1e-4)

        # path B: quantizer -> decoder -> chamfer reconstruction; the Gumbel
        # noise is re-seeded inside the closure so it is constant under FD
        def loss_point():
            tokens, pos = model.embed(groups, centers)
            x, enc_vis = forward_student(model, tokens, pos, mask)
            loss, _ = point_loss(model, x, enc_vis, pos, mask, groups,
                                 tau=0.7, rng=make_rng(5))
            return loss

        picks_b = [model.codebook.entries,
                   model.quantizer.to_logits.w,
                   model.point_head.w]
        gradcheck(loss_point, picks_b, rtol=1e-4)

        # path C: netvlad -> hta -> cross entropy
        ft = FinetuneModel(make_rng(6), WIDTH8, n_classes=3)
        # generic-point weights: the tiny default init makes the vlad branch
        # numerically flat, which drowns finite differences in noise
        ft.vlad_w.data = make_rng(7).normal(scale=0.5, size=ft.vlad_w.shape)
        ft.vlad_b.data = make_rng(8).normal(scale=0.5, size=ft.vlad_b.shape)
        ft.codebook.entries.data = make_rng(9).normal(scale=0.5,
                                                      size=ft.codebook.entries.shape)
        fg = make_rng(10).normal(scale=0.3, size=(2, WIDTH8.g, WIDTH8.s, 3))
        fc = make_rng(11).normal(size=(2, WIDTH8.g, 3))
        labels = [0, 2]

        def loss_cls():
            logits = ft.forward(fg, fc, layers=(-1,))
            return cross_entropy(logits, labels)

        picks_c = [ft.vlad_w, ft.vlad_b, ft.codebook.entries, ft.head.fc3.w]
        gradcheck(loss_cls, picks_c, rtol=1e-4)

    elapsed = time.time() - t0
    assert elapsed < 60, f"gradient checks took {elapsed:.1f}s"
    report(1, f"3 end-to-end paths < 1e-4 rel err in {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 2


def brute_chamfer(p, q):
    fwd = np.mean([min(((pi - qj) ** 2).sum() for qj in q) for pi in p])
    bwd = np.mean([min(((pi - qj) ** 2).sum() for pi in p) for qj in q])
    return fwd + bwd


def brute_netvlad_2x2(x, entries, w, b):
    scores = x @ w.T + b
    alpha = np.exp(scores - scores.max(-1, keepdims=True))
    alpha = alpha / alpha.sum(-1, keepdims=True)
    v = np.zeros((2, 2))
    for t in range(2):
        for j in range(2):
            v[t] += alpha[j, t] * (x[j] - entries[t])
    return v


def test_criterion_2_equation_oracles():
    # chamfer vs double loop
    rng = make_rng(20)
    for _ in range(20):
        p = rng.normal(size=(rng.integers(1, 9), 3))
        q = rng.normal(size=(rng.integers(1, 9), 3))
        got = chamfer(Tensor(p), Tensor(q)).item()
        assert abs(got - brute_chamfer(p, q)) < 1e-6

    # netvlad on 2x2 instances vs the hand double loop
    for seed in range(10):
        r = make_rng(21, seed)
        x, entries, w, b = (r.normal(size=(2, 2)), r.normal(size=(2, 2)),
                            r.normal(size=(2, 2)), r.normal(size=(2,)))
        got = netvlad(Tensor(x), Tensor(entries), Tensor(w), Tensor(b)).data
        assert np.abs(got - brute_netvlad_2x2(x, entries, w, b)).max() < 1e-6

    # soft assignment at tau = 0.01 vs the argmax oracle; exact ties break
    # the low-temperature limit, so resample vectors with a top-2 gap >= 0.1
    r = make_rng(22)
    collected = []
    while len(collected) < 1000:
        batch = r.normal(size=(2000, 64))
        srt = np.sort(batch, axis=-1)
        keep = (srt[:, -1] - srt[:, -2]) >= 0.1
        collected.extend(batch[keep])
    logits = np.stack(collected[:1000])
    with precision("float64"):
        z = ad.row_softmax(Tensor(logits / 0.01)).data
    assert np.all(z.argmax(-1) == logits.argmax(-1))
    off_mass = 1.0 - z.max(-1)
    assert off_mass.max() < 0.01

    # EMA gap follows lam ** n exactly with a frozen student
    with precision("float64"):
        model = PretrainModel(make_rng(23), WIDTH8)
        teacher = init_teacher(model)
        sp = model.encoder.params()
        tt = teacher.encoder.named_tensors()
        for p in tt.values():
            p.data = p.data + 0.37
        gap0 = {k: tt[k].data - sp[k].data for k in sp}
        lam = 0.93
        for n in range(1, 8):
            ema_update(teacher, sp, lam)
        for k in sp:
            want = gap0[k] * lam ** 7
            assert np.abs((tt[k].data - sp[k].data) - want).max() < 1e-6

    report(2, "chamfer, netvlad, soft-argmax, and EMA decay match oracles")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_siamese_parameter_count():
    shared = PretrainModel(make_rng(30), ModelConfig(c=32, heads=2, dec_depth=4,
                                                     enc_depth=2, g=8, s=4, t=8))
    one_decoder = SiameseDecoder(make_rng(31), c=32, heads=2, depth=4)
    assert shared.decoder.param_count() == one_decoder.param_count()
    assert not hasattr(shared, "point_decoder")

    ablated = PretrainModel(make_rng(32), ModelConfig(c=32, heads=2, dec_depth=4,
                                                      enc_depth=2, g=8, s=4, t=8,
                                                      siamese=False))
    total = ablated.decoder.param_count() + ablated.point_decoder.param_count()
    assert total == 2 * one_decoder.param_count()
    report(3, f"shared = {one_decoder.param_count()} params, ablation doubles it")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_masking_contract():
    g = 64
    for ratio in (0.45, 0.55, 0.65, 0.75, 0.85):
        for seed in range(5):
            spec = mask_random(g, ratio, make_rng(40, seed))
            assert spec.masked.sum() == round(ratio * g)

    # contiguity on a regular grid: average number of adjacent masked pairs
    side = 8
    xx, yy = np.meshgrid(np.arange(side), np.arange(side))
    centers = np.stack([xx.ravel(), yy.ravel(), np.zeros(side * side)], axis=1)

    def contiguity(masked):
        grid = masked.reshape(side, side)
        return (np.sum(grid[:, :-1] & grid[:, 1:]) +
                np.sum(grid[:-1, :] & grid[1:, :]))

    block_stat = np.mean([contiguity(mask_block(centers, 0.5, make_rng(41, s)).masked)
                          for s in range(100)])
    random_stat = np.mean([contiguity(mask_random(64, 0.5, make_rng(42, s)).masked)
                           for s in range(100)])
    assert block_stat > random_stat
    report(4, f"counts exact; contiguity block {block_stat:.1f} > random {random_stat:.1f}")


# ----------------------------------------------------- criteria 5-7 protocol
# tools/transfer.py imports these to rerun the protocol at other pretrain seeds

MEDIAN_FLOOR = 0.90      # criterion 6: median pretrained test accuracy
MARGIN_FLOOR = 0.02      # criterion 6: that median minus the from-scratch one
PERPLEXITY_FLOOR = 2.0   # criterion 5: end codebook perplexity


def transfer_sets():
    """The pretrain train set, the fine-tune support set and the test set."""
    return (gen_shapes(FAMILIES, 128, 1024, make_rng(0, 50), "train"),
            gen_shapes(FAMILIES, 16, 1024, make_rng(0, 52), "train"),
            gen_shapes(FAMILIES, 32, 1024, make_rng(0, 51), "test"))


def desk_pretrain(train, seed):
    """The 500-step desk pretrain at `seed`: its params() arrays and its metrics."""
    model, _, _, metrics = pretrain_loop(train, DESK, PretrainConfig(steps=500, batch_size=16),
                                         seed=seed)
    return {k: p.data for k, p in model.params().items()}, metrics


def transfer_accuracies(sup, test, init_arrays=None):
    """Test accuracies of 300-step fine-tunes at seeds 0-4, from init_arrays or scratch."""
    return [finetune_loop(sup, test, DESK, FinetuneConfig(steps=300), seed=seed,
                          init_arrays=init_arrays)[2] for seed in range(5)]


@pytest.fixture(scope="module")
def pretrained():
    """Desk-config pretraining shared by the convergence and transfer checks."""
    train, sup, test = transfer_sets()
    t0 = time.time()
    arrays, metrics = desk_pretrain(train, seed=0)
    return {"metrics": metrics, "arrays": arrays, "elapsed": time.time() - t0,
            "sup": sup, "test": test}


# --------------------------------------------------------------- criterion 5


def test_criterion_5_pretraining_convergence(pretrained):
    totals = [m["l_total"] for m in pretrained["metrics"]]
    ma = np.convolve(totals, np.ones(25) / 25, mode="valid")
    start = ma[1]   # moving average at step 25
    end = ma[-1]
    drop = 1.0 - end / start
    assert drop >= 0.60, f"L_total dropped only {drop:.1%}"
    end_ppl = pretrained["metrics"][-1]["perplexity"]
    assert end_ppl >= PERPLEXITY_FLOOR, f"codebook collapsed: perplexity {end_ppl:.2f}"
    assert pretrained["elapsed"] < 15 * 60
    report(5, f"MA-25 drop {drop:.1%}, end perplexity {end_ppl:.1f}, "
              f"{pretrained['elapsed']:.0f}s")


# --------------------------------------------------------------- criterion 6


def test_criterion_6_transfer_benefit(pretrained):
    sup, test = pretrained["sup"], pretrained["test"]
    pre_accs = transfer_accuracies(sup, test, pretrained["arrays"])
    scr_accs = transfer_accuracies(sup, test)
    med_pre = float(np.median(pre_accs))
    med_scr = float(np.median(scr_accs))
    assert med_pre >= MEDIAN_FLOOR, f"pretrained median accuracy {med_pre:.3f} < {MEDIAN_FLOOR:.2f}"
    assert med_pre - med_scr >= MARGIN_FLOOR, (
        f"margin {med_pre - med_scr:.3f} < {MARGIN_FLOOR} (pre {pre_accs}, scratch {scr_accs})")
    report(6, f"median pretrained {med_pre:.3f} vs scratch {med_scr:.3f} over 5 seeds")


# --------------------------------------------------------------- criterion 7


def test_criterion_7_few_shot_protocol(pretrained):
    test = pretrained["test"]
    fs = FewshotConfig()
    fcfg = FinetuneConfig(steps=fs.steps, lr=fs.lr, layers=fs.layers)
    way, shot, runs = 2, 5, 10
    rec_pre, mean_pre, std_pre = few_shot(test, way, shot, runs, DESK, fcfg,
                                          seed=0, init_arrays=pretrained["arrays"])
    rec_scr, mean_scr, std_scr = few_shot(test, way, shot, runs, DESK, fcfg,
                                          seed=0)
    # identical seeds -> the same episodes, so the comparison is paired
    assert [r["seed"] for r in rec_pre] == [r["seed"] for r in rec_scr]
    ep = sample_episode(test, way, shot, 20, make_rng(0, 20))
    assert len(ep.support.items) == way * shot
    assert len(ep.query.items) == way * 20
    assert mean_pre >= mean_scr, (
        f"pretrained {mean_pre:.3f} below scratch {mean_scr:.3f}")
    report(7, f"pretrained {mean_pre:.3f}+/-{std_pre:.3f} >= "
              f"scratch {mean_scr:.3f}+/-{std_scr:.3f} over {runs} paired runs")


# --------------------------------------------------------------- criterion 8


def test_criterion_8_determinism_and_persistence(tmp_path):
    tiny = ModelConfig(c=16, heads=2, enc_depth=2, dec_depth=2, g=8, s=4, t=8,
                       n_points=64)
    ds = gen_shapes(FAMILIES, 2, 64, make_rng(80), "train")
    pcfg = PretrainConfig(steps=4, batch_size=2, warmup=1)
    _, _, _, m1 = pretrain_loop(ds, tiny, pcfg, seed=9)
    _, _, _, m2 = pretrain_loop(ds, tiny, pcfg, seed=9)
    assert m1 == m2, "metric streams differ for identical seeds"

    fcfg = FinetuneConfig(steps=3, batch_size=2, warmup=1, layers=(1,))
    model, h1, _ = finetune_loop(ds, None, tiny, fcfg, seed=9)
    _, h2, _ = finetune_loop(ds, None, tiny, fcfg, seed=9)
    assert h1 == h2

    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {k: p.data for k, p in model.params().items()}, {})
    arrays, _ = load_checkpoint(path)
    reloaded = FinetuneModel(make_rng(9, 10), tiny, n_classes=4)
    reloaded.load_params(arrays)

    clouds = [c for c, _ in ds.items[:4]]
    groups, centers = _cloud_batch(clouds, tiny, None)
    la = model.forward(groups, centers).data
    lb = reloaded.forward(groups, centers).data
    assert np.array_equal(la, lb), "reloaded logits are not bit-identical"
    report(8, "replay and checkpoint round trip are bit-exact")
