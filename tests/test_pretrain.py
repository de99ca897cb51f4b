import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import m3cs.autodiff as ad
from m3cs.autodiff import Tensor, backward
from m3cs.config import ModelConfig, PretrainConfig
from m3cs.data import gen_shapes
from m3cs.geometry import fps, group, PointCloud
from m3cs.optim import AdamW
from m3cs.pretrain import (
    PretrainModel,
    align_loss,
    assemble_batch,
    ema_update,
    forward_student,
    forward_targets,
    init_teacher,
    lam_at,
    make_mask,
    mask_block,
    mask_random,
    point_loss,
    pretrain_loop,
    train_step,
)
from m3cs.rng import make_rng

TINY = ModelConfig(c=16, heads=2, enc_depth=2, dec_depth=2, g=8, s=4, t=8, n_points=64)


def tiny_model(seed=0, cfg=TINY):
    return PretrainModel(make_rng(seed), cfg)


def tiny_batch(seed=1, b=2, cfg=TINY):
    rng = make_rng(seed)
    groups = rng.normal(scale=0.1, size=(b, cfg.g, cfg.s, 3))
    centers = rng.normal(size=(b, cfg.g, 3))
    return {"groups": groups, "centers": centers}


# ------------------------------------------------------------------- masking


@pytest.mark.parametrize("g,ratio,count", [(64, 0.65, 42), (8, 0.65, 5), (32, 0.5, 16), (10, 0.26, 3)])
def test_mask_count(g, ratio, count):
    spec = mask_random(g, ratio, make_rng(0))
    assert spec.masked.sum() == count == round(ratio * g)
    assert len(spec.masked_idx) + len(spec.visible_idx) == g


def test_mask_degenerate_ratios():
    with pytest.raises(ValueError):
        mask_random(2, 0.2, make_rng(0))   # rounds to 0 masked
    with pytest.raises(ValueError):
        mask_random(2, 0.9, make_rng(0))   # rounds to all masked
    with pytest.raises(ValueError):
        mask_random(8, 0.0, make_rng(0))
    with pytest.raises(ValueError):
        mask_random(8, 1.0, make_rng(0))


def test_mask_random_frequency():
    # each patch should be masked with probability = ratio
    g, ratio, n = 16, 0.5, 2000
    rng = make_rng(1)
    hits = np.zeros(g)
    for _ in range(n):
        hits += mask_random(g, ratio, rng).masked
    freq = hits / n
    assert np.all(np.abs(freq - ratio) < 0.04)


def test_mask_block_is_contiguous():
    # on a 1-D line of centers, block masking must select an interval,
    # random masking almost surely does not
    centers = np.zeros((16, 3))
    centers[:, 0] = np.arange(16)
    interval_count = 0
    for seed in range(20):
        spec = mask_block(centers, 0.5, make_rng(seed))
        idx = np.sort(spec.masked_idx)
        if np.all(np.diff(idx) == 1):
            interval_count += 1
    assert interval_count == 20
    # sanity: random masks on the same grid are rarely intervals
    rand_intervals = sum(
        np.all(np.diff(np.sort(mask_random(16, 0.5, make_rng(s)).masked_idx)) == 1)
        for s in range(20)
    )
    assert rand_intervals < 20


def test_mask_block_contains_seed_neighbors():
    centers = make_rng(2).normal(size=(12, 3))
    spec = mask_block(centers, 0.5, make_rng(3))
    # the masked set must equal the 6 nearest centers to some seed point
    ok = False
    for seed_idx in spec.masked_idx:
        d = ((centers - centers[seed_idx]) ** 2).sum(-1)
        nearest = set(np.argsort(d, kind="stable")[:6])
        if nearest == set(spec.masked_idx):
            ok = True
    assert ok


def test_make_mask_dispatch():
    centers = make_rng(4).normal(size=(8, 3))
    np.testing.assert_array_equal(make_mask("random", 8, 0.5, make_rng(5)).masked,
                                  mask_random(8, 0.5, make_rng(5)).masked)
    np.testing.assert_array_equal(
        make_mask("block", 8, 0.5, make_rng(5), centers=centers).masked,
        mask_block(centers, 0.5, make_rng(5)).masked)
    with pytest.raises(ValueError):
        make_mask("checker", 8, 0.5, make_rng(5))


# ------------------------------------------------------------------ forwards


def test_forward_shapes():
    model = tiny_model()
    batch = tiny_batch()
    tokens, pos = model.embed(batch["groups"], batch["centers"])
    assert tokens.shape == (2, 8, 16) and pos.shape == (2, 8, 16)
    mask = mask_random(8, 0.5, make_rng(6))
    y = forward_targets(tokens, pos, mask, init_teacher(model))
    x, enc_vis = forward_student(model, tokens, pos, mask)
    assert y.shape == (2, 4, 16)
    assert x.shape == (2, 4, 16)
    assert enc_vis.shape == (2, 4, 16)
    assert not y.requires_grad


def test_student_ignores_masked_content():
    # the student never sees masked patches, so altering their points must
    # not change its output
    model = tiny_model()
    batch = tiny_batch()
    mask = mask_random(8, 0.5, make_rng(7))
    tokens, pos = model.embed(batch["groups"], batch["centers"])
    x1, _ = forward_student(model, tokens, pos, mask)

    mutated = batch["groups"].copy()
    mutated[:, mask.masked_idx] += 5.0
    tokens2, pos2 = model.embed(mutated, batch["centers"])
    x2, _ = forward_student(model, tokens2, pos2, mask)
    np.testing.assert_allclose(x1.data, x2.data, atol=1e-6)


def test_teacher_sees_masked_content():
    model = tiny_model()
    teacher = init_teacher(model)
    batch = tiny_batch()
    mask = mask_random(8, 0.5, make_rng(8))
    tokens, pos = model.embed(batch["groups"], batch["centers"])
    y1 = forward_targets(tokens, pos, mask, teacher)
    mutated = batch["groups"].copy()
    mutated[:, mask.masked_idx] += 5.0
    tokens2, pos2 = model.embed(mutated, batch["centers"])
    y2 = forward_targets(tokens2, pos2, mask, teacher)
    assert not np.allclose(y1.data, y2.data)


def test_align_loss_hand_cases():
    x = Tensor(np.array([[0.5, -0.5]]))
    y = Tensor(np.array([[0.0, 0.0]]))
    # |d| <= beta: 0.5 d^2 / beta averaged
    assert align_loss(x, y, beta=1.0).item() == pytest.approx(0.125)
    x2 = Tensor(np.array([[2.0]]))
    y2 = Tensor(np.array([[0.0]]))
    # |d| > beta: |d| - 0.5 beta
    assert align_loss(x2, y2, beta=1.0).item() == pytest.approx(1.5)
    assert align_loss(y, y).item() == pytest.approx(0.0)


def test_point_loss_shapes_and_value():
    model = tiny_model()
    batch = tiny_batch()
    mask = mask_random(8, 0.5, make_rng(9))
    tokens, pos = model.embed(batch["groups"], batch["centers"])
    x, enc_vis = forward_student(model, tokens, pos, mask)
    loss, qout = point_loss(model, x, enc_vis, pos, mask, batch["groups"],
                            tau=0.5, rng=make_rng(10))
    assert loss.shape == ()
    assert loss.item() >= 0
    assert qout.z.shape == (2, 4, 8)


@pytest.mark.parametrize("siamese", [True, False])
def test_point_loss_decoder_choice(siamese):
    # the point branch alone reaches the shared decoder, or only the second one
    # when the model was built without sharing
    model = tiny_model(cfg=dataclasses.replace(TINY, siamese=siamese))
    batch = tiny_batch()
    mask = mask_random(8, 0.5, make_rng(9))
    tokens, pos = model.embed(batch["groups"], batch["centers"])
    with ad.no_grad():  # keeps the alignment pass's decoder off the tape
        x, enc_vis = forward_student(model, tokens, pos, mask)
    loss, _ = point_loss(model, x, enc_vis, pos, mask, batch["groups"],
                         tau=0.5, rng=make_rng(10))
    backward(loss)
    used = model.decoder if siamese else model.point_decoder
    assert all(p.grad is not None and np.any(p.grad) for p in used.params().values())
    if not siamese:
        assert all(p.grad is None for p in model.decoder.params().values())


# ----------------------------------------------------------------------- EMA


def test_ema_lambda_schedule():
    model = tiny_model()
    t = init_teacher(model, lam_start=0.996, lam_end=1.0)
    assert lam_at(t, 0, 100) == pytest.approx(0.996)
    assert lam_at(t, 99, 100) == pytest.approx(1.0)
    assert lam_at(t, 0, 1) == 1.0


@pytest.mark.parametrize("lam_start, lam_end, message", [
    (5.0, 1.0, "pretrain.lam_start must be in [0, 1], got 5.0"),
    (-0.5, 1.0, "pretrain.lam_start must be in [0, 1], got -0.5"),
    (0.996, -1.0, "pretrain.lam_end must be in [0, 1], got -1.0"),
    (0.996, 1.5, "pretrain.lam_end must be in [0, 1], got 1.5"),
    (0.996, float("nan"), "pretrain.lam_end must be in [0, 1], got nan"),
], ids=["start5", "start-0.5", "end-1", "end1.5", "end-nan"])
def test_init_teacher_refuses_lambda_outside_unit_interval(lam_start, lam_end, message):
    # outside [0, 1] the EMA extrapolates: the teacher grows without bound
    model = tiny_model()
    with pytest.raises(ValueError) as info:
        init_teacher(model, lam_start=lam_start, lam_end=lam_end)
    assert str(info.value) == message
    for lam in (0.0, 1.0):  # both ends are EMAs: a copy of the student, a frozen teacher
        init_teacher(model, lam_start=lam, lam_end=lam)


def test_ema_teacher_starts_as_copy_and_is_frozen():
    model = tiny_model()
    teacher = init_teacher(model)
    s = model.encoder.named_tensors()
    t = teacher.encoder.named_tensors()
    assert set(s) == set(t)
    for name in s:
        np.testing.assert_array_equal(s[name].data, t[name].data)
        assert not t[name].requires_grad
        assert t[name].data is not s[name].data


def test_ema_geometric_convergence():
    # with a frozen student, teacher - student decays by lam each update
    model = tiny_model()
    teacher = init_teacher(model)
    sp = model.encoder.params()
    name = next(iter(sp))
    tp = teacher.encoder.named_tensors()[name]
    tp.data = tp.data + 1.0  # offset the teacher
    lam = 0.9
    diff0 = np.float64(tp.data - sp[name].data).copy()
    for n in range(1, 6):
        ema_update(teacher, sp, lam)
        diff = tp.data - sp[name].data
        np.testing.assert_allclose(diff, diff0 * lam ** n, rtol=1e-4)


def test_ema_lambda_zero_copies_student():
    model = tiny_model()
    teacher = init_teacher(model)
    sp = model.encoder.params()
    for p in sp.values():
        p.data = p.data + 0.5
    ema_update(teacher, sp, 0.0)
    for name, p in sp.items():
        np.testing.assert_allclose(teacher.encoder.named_tensors()[name].data,
                                   p.data, rtol=1e-6)


def test_ema_rejects_mismatched_sets():
    model = tiny_model()
    teacher = init_teacher(model)
    sp = model.encoder.params()
    bad = dict(sp)
    bad.pop(next(iter(bad)))
    with pytest.raises(ValueError, match="differ"):
        ema_update(teacher, bad, 0.5)


# ----------------------------------------------------------------- train step


def small_dataset(n=8, points=64):
    return gen_shapes(["sphere", "cube"], n // 2, points, make_rng(11))


def run_steps(steps, seed=0, eta=1.0, dataset=None):
    ds = dataset or small_dataset()
    pcfg = PretrainConfig(steps=steps, batch_size=2, lr=1e-3, warmup=1, eta=eta)
    return pretrain_loop(ds, TINY, pcfg, seed=seed)


def test_train_step_metrics_record():
    ds = small_dataset()
    model, teacher, opt, metrics = run_steps(2)
    assert len(metrics) == 2
    rec = metrics[0]
    assert set(rec) == {"step", "l_align", "l_rec", "l_total", "lambda", "tau", "perplexity"}
    assert rec["l_total"] == pytest.approx(rec["l_align"] + rec["l_rec"], rel=1e-5)
    assert 1.0 <= rec["perplexity"] <= TINY.t


def test_eta_zero_freezes_point_branch():
    # with eta = 0 the reconstruction branch contributes no gradient, so the
    # point head must stay at its initial weights
    ds = small_dataset()
    pcfg = PretrainConfig(steps=1, batch_size=2, lr=1e-2, warmup=0, eta=0.0,
                          weight_decay=0.0)
    model0 = PretrainModel(make_rng(0, 0), TINY)
    w0 = model0.point_head.w.data.copy()
    enc0 = next(iter(model0.encoder.params().values())).data.copy()
    model, _, _, _ = pretrain_loop(ds, TINY, pcfg, seed=0)
    np.testing.assert_array_equal(model.point_head.w.data, w0)
    assert not np.array_equal(next(iter(model.encoder.params().values())).data, enc0)


def test_training_is_deterministic():
    _, _, _, m1 = run_steps(3, seed=5)
    _, _, _, m2 = run_steps(3, seed=5)
    assert m1 == m2
    _, _, _, m3 = run_steps(3, seed=6)
    assert m1 != m3


def test_loss_decreases_on_tiny_problem():
    ds = small_dataset(n=4)
    pcfg = PretrainConfig(steps=30, batch_size=2, lr=2e-3, warmup=3)
    _, _, _, metrics = pretrain_loop(ds, TINY, pcfg, seed=1)
    first = np.mean([m["l_total"] for m in metrics[:5]])
    last = np.mean([m["l_total"] for m in metrics[-5:]])
    assert last < first


def test_assemble_batch_shapes():
    ds = small_dataset()
    batch = assemble_batch(ds, 3, TINY, make_rng(12))
    assert batch["groups"].shape == (3, 8, 4, 3)
    assert batch["centers"].shape == (3, 8, 3)


def test_metrics_csv_written(tmp_path):
    ds = small_dataset()
    path = tmp_path / "metrics.csv"
    pcfg = PretrainConfig(steps=2, batch_size=2, warmup=0)
    pretrain_loop(ds, TINY, pcfg, seed=0, metrics_path=str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,l_align,l_rec,l_total,lambda,tau,perplexity"
    assert len(lines) == 3


def test_nonfinite_loss_raises():
    model = tiny_model()
    teacher = init_teacher(model)
    opt = AdamW(model.params(), total_steps=10)
    batch = tiny_batch()
    model.mask_token.data[:] = np.inf
    pcfg = PretrainConfig(steps=10, batch_size=2)
    # layer_norm subtracts the row mean, inf - inf, before the loss is checked
    with pytest.warns(RuntimeWarning, match="invalid value"), \
            pytest.raises(FloatingPointError, match="non-finite"):
        train_step(model, teacher, opt, batch, 0, TINY, pcfg, seed=0)


def test_block_mask_in_training():
    ds = small_dataset()
    pcfg = PretrainConfig(steps=2, batch_size=2, warmup=0, mask_kind="block")
    _, _, _, metrics = pretrain_loop(ds, TINY, pcfg, seed=0)
    assert len(metrics) == 2


def test_pretrain_does_not_import_finetune():
    # pretraining shares the step loop and the patch rule through optim and data only
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, m3cs.pretrain; print('m3cs.finetune' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
