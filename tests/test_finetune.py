import copy
import csv
import dataclasses
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

import m3cs.autodiff as ad
import m3cs.finetune as finetune_mod
from m3cs.autodiff import Tensor, gradcheck, precision
from m3cs.config import FinetuneConfig, ModelConfig
from m3cs.data import Dataset, _cloud_batch, gen_shapes
from m3cs.finetune import (
    ClassifierHead,
    FinetuneModel,
    cross_entropy,
    evaluate,
    few_shot,
    finetune_loop,
    hta,
    netvlad,
    sample_episode,
    trainable_params,
)
from m3cs.optim import AdamW
from m3cs.pretrain import PretrainModel
from m3cs.rng import make_rng

TINY = ModelConfig(c=16, heads=2, enc_depth=2, dec_depth=2, g=8, s=4, t=8, n_points=64)


def brute_netvlad(x, entries, w, b):
    # independent double loop over tokens and centroids
    n, c = x.shape
    t = entries.shape[0]
    scores = x @ w.T + b
    alpha = np.exp(scores - scores.max(-1, keepdims=True))
    alpha = alpha / alpha.sum(-1, keepdims=True)
    v = np.zeros((t, c))
    for ti in range(t):
        for j in range(n):
            v[ti] += alpha[j, ti] * (x[j] - entries[ti])
    return v


# ------------------------------------------------------------------- netvlad


def test_netvlad_matches_bruteforce():
    rng = make_rng(0)
    x = rng.normal(size=(7, 5))
    entries = rng.normal(size=(4, 5))
    w = rng.normal(size=(4, 5))
    b = rng.normal(size=(4,))
    got = netvlad(Tensor(x), Tensor(entries), Tensor(w), Tensor(b)).data
    np.testing.assert_allclose(got, brute_netvlad(x, entries, w, b), atol=1e-5)


def test_netvlad_single_token():
    rng = make_rng(1)
    x = rng.normal(size=(1, 4))
    entries = rng.normal(size=(3, 4))
    w = rng.normal(size=(3, 4))
    b = np.zeros(3)
    v = netvlad(Tensor(x), Tensor(entries), Tensor(w), Tensor(b)).data
    # with one token, V_t = alpha_t (x - C_t)
    scores = x @ w.T
    alpha = np.exp(scores - scores.max())
    alpha = alpha / alpha.sum()
    expected = alpha.T * (x - entries)
    np.testing.assert_allclose(v, expected, atol=1e-6)


def test_netvlad_zero_residual():
    # tokens equal to one centroid contribute zero residual against it
    entries = np.array([[1.0, 2.0], [0.0, 0.0]])
    x = np.tile(entries[0], (5, 1))
    w = np.zeros((2, 2))
    b = np.zeros(2)
    v = netvlad(Tensor(x), Tensor(entries), Tensor(w), Tensor(b)).data
    # uniform alpha = 0.5; row 0 residual is exactly zero
    np.testing.assert_allclose(v[0], 0.0, atol=1e-6)
    np.testing.assert_allclose(v[1], 0.5 * 5 * entries[0], rtol=1e-5)


def test_netvlad_width_mismatch():
    with pytest.raises(ad.ShapeError, match="width"):
        netvlad(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 5))),
                Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))


def test_netvlad_batched_matches_loop():
    rng = make_rng(2)
    x = rng.normal(size=(3, 6, 5))
    entries = rng.normal(size=(4, 5))
    w = rng.normal(size=(4, 5))
    b = rng.normal(size=(4,))
    batched = netvlad(Tensor(x), Tensor(entries), Tensor(w), Tensor(b)).data
    for i in range(3):
        np.testing.assert_allclose(batched[i], brute_netvlad(x[i], entries, w, b),
                                   atol=1e-5)


def test_netvlad_gradient():
    with precision("float64"):
        rng = make_rng(3)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        entries = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)

        def loss():
            v = netvlad(x, entries, w, b)
            return ad.sum_reduce(ad.mul(v, v))

        gradcheck(loss, [x, entries, w, b], rtol=1e-4)


# ----------------------------------------------------------------------- hta


def test_hta_output_width():
    rng = make_rng(4)
    x = Tensor(rng.normal(size=(10, 96)))
    entries = Tensor(rng.normal(size=(64, 96)))
    w = Tensor(rng.normal(size=(64, 96)))
    b = Tensor(np.zeros(64))
    o = hta([x], entries, w, b)
    assert o.shape == (3 * 96,)


def test_hta_token_permutation_invariant():
    rng = make_rng(5)
    x = rng.normal(size=(9, 8))
    entries = Tensor(rng.normal(size=(4, 8)))
    w = Tensor(rng.normal(size=(4, 8)))
    b = Tensor(np.zeros(4))
    base = hta([Tensor(x)], entries, w, b).data
    perm = make_rng(6).permutation(9)
    got = hta([Tensor(x[perm])], entries, w, b).data
    np.testing.assert_allclose(got, base, atol=1e-6)


def test_hta_multi_layer_average():
    rng = make_rng(7)
    a, c = rng.normal(size=(6, 8)), rng.normal(size=(6, 8))
    entries = Tensor(rng.normal(size=(3, 8)))
    w = Tensor(rng.normal(size=(3, 8)))
    b = Tensor(np.zeros(3))
    multi = hta([Tensor(a), Tensor(c)], entries, w, b).data
    single = hta([Tensor((a + c) / 2)], entries, w, b).data
    np.testing.assert_allclose(multi, single, atol=1e-6)
    with pytest.raises(ValueError):
        hta([], entries, w, b)


# --------------------------------------------------------------- cross entropy


def test_cross_entropy_hand_cases():
    # uniform logits over 4 classes
    logits = Tensor(np.zeros((3, 4)))
    assert cross_entropy(logits, [0, 1, 2]).item() == pytest.approx(np.log(4), rel=1e-5)
    # near-certain correct prediction
    sharp = np.full((1, 3), -20.0)
    sharp[0, 1] = 20.0
    assert cross_entropy(Tensor(sharp), [1]).item() == pytest.approx(0.0, abs=1e-5)
    # matches a manual computation
    rng = make_rng(8)
    raw = rng.normal(size=(5, 4))
    labels = [0, 3, 1, 2, 2]
    p = np.exp(raw - raw.max(-1, keepdims=True))
    p = p / p.sum(-1, keepdims=True)
    want = -np.mean([np.log(p[i, l]) for i, l in enumerate(labels)])
    assert cross_entropy(Tensor(raw), labels).item() == pytest.approx(want, rel=1e-5)


# --------------------------------------------------------------------- model


def test_forward_logits_shape():
    model = FinetuneModel(make_rng(9), TINY, n_classes=4)
    rng = make_rng(10)
    groups = rng.normal(scale=0.1, size=(3, 8, 4, 3))
    centers = rng.normal(size=(3, 8, 3))
    logits = model.forward(groups, centers)
    assert logits.shape == (3, 4)


def test_resolve_layers():
    model = FinetuneModel(make_rng(11), TINY, n_classes=2)
    assert model.resolve_layers((-1,)) == [1]
    assert model.resolve_layers((0, 1)) == [0, 1]
    assert model.resolve_layers((0, -1)) == [0, 1]


def test_forward_wraps_layer_ids_round_the_encoder():
    # the bench's tiny size runs the desk ids (1, 3, 5) on a depth-2 encoder
    model = FinetuneModel(make_rng(11), TINY, n_classes=2)
    rng = make_rng(12)
    groups = rng.normal(scale=0.1, size=(2, 8, 4, 3))
    centers = rng.normal(size=(2, 8, 3))
    wrapped = model.forward(groups, centers, layers=(1, 3, 5)).data
    assert wrapped.tobytes() == model.forward(groups, centers, layers=(1,)).data.tobytes()


def test_dropout_only_in_training():
    model = FinetuneModel(make_rng(12), TINY, n_classes=3)
    rng = make_rng(13)
    groups = rng.normal(scale=0.1, size=(2, 8, 4, 3))
    centers = rng.normal(size=(2, 8, 3))
    a = model.forward(groups, centers).data
    b = model.forward(groups, centers).data
    np.testing.assert_array_equal(a, b)
    c = model.forward(groups, centers, rng=make_rng(14)).data
    d = model.forward(groups, centers, rng=make_rng(15)).data
    assert not np.array_equal(c, d)


def test_load_pretrained_copies_shared_modules():
    # with and without the second (non-siamese) point decoder in the source
    for siamese in (True, False):
        cfg = dataclasses.replace(TINY, siamese=siamese)
        pre = PretrainModel(make_rng(16), cfg)
        ft = FinetuneModel(make_rng(17), cfg, n_classes=2)
        before = {k: t.data.copy() for k, t in ft.named_tensors().items()}
        ft.load_params({k: p.data for k, p in pre.params().items()})
        src = pre.named_tensors()
        for key, t in ft.named_tensors().items():
            if key.split(".")[0] in ("tokenizer", "pos_embed", "encoder", "codebook"):
                np.testing.assert_array_equal(t.data, src[key].data, err_msg=key)
            else:  # the HTA and classifier head stay fresh
                assert key not in src
                np.testing.assert_array_equal(t.data, before[key], err_msg=key)
        assert not np.array_equal(before["codebook.entries"], ft.codebook.entries.data)


@pytest.mark.parametrize("shape", [(16, 8), (32, 16)], ids=["same_size", "wrong_size"])
def test_load_params_refuses_shape_mismatch(shape):
    # TINY's codebook is (8, 16): a transposed copy must not load as a reshape
    ft = FinetuneModel(make_rng(17), TINY, n_classes=2)
    want = f"tensor 'codebook.entries' has shape {list(shape)}, the model's is [8, 16]"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        ft.load_params({"codebook.entries": np.zeros(shape)})


# ------------------------------------------------------------------- training


def four_class_dataset(n_per_class, seed, split="train"):
    return gen_shapes(["sphere", "cube", "torus", "cylinder"], n_per_class, 64,
                      make_rng(seed), split)


def test_finetune_learns_small_problem():
    train = four_class_dataset(4, 19)
    fcfg = FinetuneConfig(steps=120, batch_size=8, lr=1e-3, dropout=0.0,
                          weight_decay=0.0, warmup=5)
    model, hist, _ = finetune_loop(train, None, TINY, fcfg, seed=0)
    early = np.mean([h["loss"] for h in hist[:10]])
    late = np.mean([h["loss"] for h in hist[-10:]])
    assert late < early * 0.7
    assert np.mean([h["train_acc"] for h in hist[-10:]]) > 0.6


def test_finetune_streams_metrics_per_step(tmp_path, monkeypatch):
    train = four_class_dataset(2, 22)
    fcfg = FinetuneConfig(steps=4, batch_size=2, warmup=1)
    whole = tmp_path / "whole.csv"
    _, hist, _ = finetune_loop(train, None, TINY, fcfg, seed=0, metrics_path=str(whole))
    # the streamed file holds the bytes one write of the whole history would
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["step", "loss", "train_acc"])
        writer.writeheader()
        writer.writerows(hist)
    assert whole.read_bytes() == expected.read_bytes()

    real_step = finetune_mod.finetune_step
    done = []

    def crash_at_step_2(*args):
        if len(done) == 2:
            raise FloatingPointError("crash at step 2")
        done.append(len(done))
        return real_step(*args)

    monkeypatch.setattr(finetune_mod, "finetune_step", crash_at_step_2)
    cut = tmp_path / "cut.csv"
    with pytest.raises(FloatingPointError, match="step 2"):
        finetune_loop(train, None, TINY, fcfg, seed=0, metrics_path=str(cut))
    assert cut.read_bytes().splitlines() == expected.read_bytes().splitlines()[:3]


def test_evaluate_is_deterministic():
    test = four_class_dataset(2, 20, "test")
    model = FinetuneModel(make_rng(21), TINY, n_classes=4)
    fcfg = FinetuneConfig()
    a = evaluate(model, test, TINY, fcfg)
    b = evaluate(model, test, TINY, fcfg)
    assert a == b
    assert 0.0 <= a <= 1.0


def test_eval_batch_groups_each_cloud_once(fps_calls):
    desk, layers = ModelConfig(), FinetuneConfig().layers
    clouds = [c for c, _ in gen_shapes(["sphere", "cube", "torus"], 1, 1024, make_rng(24)).items]
    clouds.append(clouds[0])  # one cloud at two chunk positions
    model = FinetuneModel(make_rng(25), desk, n_classes=3)

    def batch_and_logits(batch, mcfg):
        groups, centers = _cloud_batch(batch, mcfg, None)
        with ad.no_grad():
            logits = model.forward(groups, centers, layers=layers).data
        return groups, centers, logits

    for mcfg in (desk, dataclasses.replace(desk, n_points=256)):
        # deep copies carry nothing derived, so they group from scratch
        fresh = batch_and_logits([copy.deepcopy(c) for c in clouds], mcfg)
        del fps_calls[:]
        first = batch_and_logits(clouds, mcfg)
        assert len(fps_calls) == len(clouds)
        second = batch_and_logits(clouds, mcfg)
        assert len(fps_calls) == len(clouds)
        for a, b, c in zip(first, second, fresh):
            assert a.dtype == c.dtype and a.shape == c.shape
            assert a.tobytes() == b.tobytes() == c.tobytes()


def test_finetune_step_keeps_nothing_on_its_clouds(fps_calls):
    fcfg = FinetuneConfig(batch_size=4, layers=(1,))
    train = four_class_dataset(1, 26)
    clouds, labels = [c for c, _ in train.items], [l for _, l in train.items]
    model = FinetuneModel(make_rng(27), TINY, n_classes=4)
    opt = AdamW(trainable_params(model, fcfg), lr=fcfg.lr, total_steps=2)
    for step in range(2):
        del fps_calls[:]
        finetune_mod.finetune_step(model, opt, clouds, labels, TINY, fcfg, make_rng(28, step))
        # fresh augmented clouds, each grouped once, none of them a source cloud
        assert len(fps_calls) == len(clouds)
        assert not {id(c) for c in fps_calls} & {id(c) for c in clouds}
        assert all(c._derived == {} for c in clouds)


def test_finetune_step_refuses_non_finite_loss_before_the_update():
    fcfg = FinetuneConfig(batch_size=4, layers=(1,))
    train = four_class_dataset(1, 26)
    clouds, labels = [c for c, _ in train.items], [l for _, l in train.items]
    model = FinetuneModel(make_rng(27), TINY, n_classes=4)
    opt = AdamW(trainable_params(model, fcfg), lr=fcfg.lr, total_steps=2)
    finetune_mod.finetune_step(model, opt, clouds, labels, TINY, fcfg, make_rng(28, 0))
    model.head.fc3.b.data[0] = np.nan
    before = [(k, p.data.copy()) for k, p in opt.params.items()]
    moments = [(k, opt.m[k].copy(), opt.v[k].copy()) for k in opt.params]
    with pytest.raises(FloatingPointError, match="non-finite loss: nan"):
        finetune_mod.finetune_step(model, opt, clouds, labels, TINY, fcfg, make_rng(28, 1))
    assert opt.step_count == 1
    for k, data in before:
        assert opt.params[k].data.tobytes() == data.tobytes(), k
    for k, m, v in moments:
        assert opt.m[k].tobytes() == m.tobytes() and opt.v[k].tobytes() == v.tobytes(), k


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.5, float("nan")])
def test_classifier_head_refuses_dropout_outside_unit_interval(rate):
    with pytest.raises(ValueError, match=r"finetune.dropout must be in \[0, 1\)"):
        ClassifierHead(make_rng(25), d_in=48, hidden=32, n_classes=5, dropout=rate)
    with pytest.raises(ValueError, match=r"finetune.dropout must be in \[0, 1\)"):
        FinetuneModel(make_rng(25), TINY, n_classes=4, dropout=rate)


# every int field of ModelConfig but the codebook size t, which Codebook refuses below 2
SIZE_FIELDS = [f.name for f in dataclasses.fields(ModelConfig) if f.type is int and f.name != "t"]


@pytest.mark.parametrize("key", SIZE_FIELDS)
def test_models_refuse_size_below_one(key):
    # refused before any rng draw, the decoder depth by the fine-tune model too
    mcfg = dataclasses.replace(TINY, **{key: 0})
    for build in (lambda rng: PretrainModel(rng, mcfg),
                  lambda rng: FinetuneModel(rng, mcfg, n_classes=4)):
        rng = make_rng(26)
        with pytest.raises(ValueError, match=f"^model.{key} must be at least 1, got 0$"):
            build(rng)
        assert rng.random() == make_rng(26).random()


def test_head_refuses_hidden_below_one():
    message = "^finetune.hidden must be at least 1, got 0$"
    with pytest.raises(ValueError, match=message):
        ClassifierHead(make_rng(25), d_in=48, hidden=0, n_classes=5)
    with pytest.raises(ValueError, match=message):  # before the dropout check
        ClassifierHead(make_rng(25), d_in=48, hidden=0, n_classes=5, dropout=1.5)
    with pytest.raises(ValueError, match=message):
        FinetuneModel(make_rng(25), TINY, n_classes=4, hidden=0)


def test_evaluate_refuses_empty_dataset():
    model = FinetuneModel(make_rng(21), TINY, n_classes=4)
    empty = Dataset(items=[], class_names=list("abcd"), split="test")
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, empty, TINY, FinetuneConfig())


def test_finetune_replay_determinism():
    train = four_class_dataset(2, 22)
    test = four_class_dataset(1, 23, "test")
    fcfg = FinetuneConfig(steps=4, batch_size=4)
    _, h1, a1 = finetune_loop(train, test, TINY, fcfg, seed=3)
    _, h2, a2 = finetune_loop(train, test, TINY, fcfg, seed=3)
    assert h1 == h2 and a1 == a2


def test_label_out_of_range():
    train = Dataset(items=[(c, 7) for c, _ in four_class_dataset(1, 24).items],
                    class_names=["only"], split="train")
    fcfg = FinetuneConfig(steps=1, batch_size=2)
    with pytest.raises(ValueError, match="label"):
        finetune_loop(train, None, TINY, fcfg, seed=0)


def test_classifier_head_param_shapes():
    head = ClassifierHead(make_rng(25), d_in=48, hidden=32, n_classes=5)
    out = head(Tensor(make_rng(26).normal(size=(7, 48))))
    assert out.shape == (7, 5)


# ------------------------------------------------------------------- few-shot


def test_episode_sizes_and_disjointness():
    ds = four_class_dataset(30, 27, "test")
    ep = sample_episode(ds, way=3, shot=5, query=20, rng=make_rng(28))
    assert len(ep.support.items) == 3 * 5
    assert len(ep.query.items) == 3 * 20
    sup_ids = {id(c) for c, _ in ep.support.items}
    qry_ids = {id(c) for c, _ in ep.query.items}
    assert not sup_ids & qry_ids
    # labels are re-indexed to 0..way-1
    assert set(l for _, l in ep.support.items) == {0, 1, 2}
    assert set(l for _, l in ep.query.items) == {0, 1, 2}
    for lbl in range(3):
        assert sum(1 for _, l in ep.support.items if l == lbl) == 5
        assert sum(1 for _, l in ep.query.items if l == lbl) == 20


def test_episode_needs_enough_samples():
    ds = four_class_dataset(10, 29, "test")
    with pytest.raises(ValueError, match="few-shot"):
        sample_episode(ds, way=4, shot=5, query=20, rng=make_rng(30))


def test_few_shot_runs_and_stats():
    ds = four_class_dataset(8, 31, "test")
    fcfg = FinetuneConfig(steps=3, batch_size=4)
    records, mean, std = few_shot(ds, way=2, shot=2, runs=3, mcfg=TINY,
                                  fcfg=fcfg, seed=0, query=4)
    assert len(records) == 3
    accs = [r["accuracy"] for r in records]
    assert mean == pytest.approx(np.mean(accs))
    assert std == pytest.approx(np.std(accs))
    assert [r["seed"] for r in records] == [0, 1, 2]


def test_few_shot_separable_problem():
    # spheres of radius 1 vs radius 3 with enough steps must beat chance
    from m3cs.data import Dataset as Ds
    from m3cs.geometry import PointCloud
    rng = make_rng(32)
    items = []
    for i in range(24):
        r = 1.0 if i % 2 == 0 else 3.0
        v = rng.normal(size=(64, 3))
        v = r * v / np.linalg.norm(v, axis=1, keepdims=True)
        items.append((PointCloud(points=v), i % 2))
    ds = Ds(items=items, class_names=["small", "big"], split="test")
    fcfg = FinetuneConfig(steps=40, batch_size=4, lr=1e-3, dropout=0.0, warmup=2)
    _, mean, _ = few_shot(ds, way=2, shot=2, runs=2, mcfg=TINY, fcfg=fcfg,
                          seed=0, query=8)
    assert mean > 0.6


# desk FinetuneModel logits of four clouds, then the leaf gradients of one fine-tune
# backward on them, hashed together
_DESK_HASH = """
import hashlib
import m3cs.autodiff as ad
from m3cs.config import FinetuneConfig, ModelConfig
from m3cs.data import _cloud_batch, gen_shapes
from m3cs.finetune import FinetuneModel, cross_entropy
from m3cs.rng import make_rng

desk, layers = ModelConfig(), FinetuneConfig().layers
items = gen_shapes(("sphere", "cube", "torus", "cylinder"), 1, 1024, make_rng(82), "train").items
clouds, labels = [c for c, _ in items], [l for _, l in items]
model = FinetuneModel(make_rng(9, 10), desk, n_classes=4)
h = hashlib.sha256()
with ad.no_grad():
    groups, centers = _cloud_batch(clouds, desk, None)
    h.update(model.forward(groups, centers, layers=layers).data.tobytes())
rng = make_rng(9, 11, 0)
groups, centers = _cloud_batch(clouds, desk, rng)
ad.backward(cross_entropy(model.forward(groups, centers, layers=layers, rng=rng), labels))
for name, t in sorted(model.named_tensors().items()):
    h.update(name.encode())
    h.update(t.grad.tobytes())
print(h.hexdigest())
"""


def _fresh_process(script, **env):
    """The stdout of `script` run in a new interpreter that imports m3cs from this checkout."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_desk_logits_and_gradients_do_not_depend_on_blas_threads():
    one, two = (_fresh_process(_DESK_HASH, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert len(one) == 64 and one == two


# a desk fine-tune model, its optimiser and 16 clouds; step(i) runs fine-tune step i
_DESK_STEP = """
from m3cs.config import FinetuneConfig, ModelConfig
from m3cs.data import gen_shapes
from m3cs.finetune import FinetuneModel, finetune_step, trainable_params
from m3cs.optim import AdamW
from m3cs.rng import make_rng

mcfg, fcfg = ModelConfig(), FinetuneConfig()
items = gen_shapes(("sphere", "cube", "torus", "cylinder"), 4, 1024, make_rng(52)).items
clouds, labels = [c for c, _ in items], [l for _, l in items]
model = FinetuneModel(make_rng(0, 10), mcfg, 4, hidden=fcfg.hidden, dropout=fcfg.dropout)
opt = AdamW(trainable_params(model, fcfg), lr=fcfg.lr, total_steps=100, warmup=5)


def step(i):
    finetune_step(model, opt, clouds, labels, mcfg, fcfg, make_rng(0, 11, i))
"""

# minor page faults per desk fine-tune step, in a fresh process after two warm-up steps
_STEP_FAULTS = _DESK_STEP + """
import resource

for i in range(5):
    if i == 2:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step(i)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / 3)
"""

# the tracemalloc peak of one desk fine-tune step, in MB, in a fresh process after one
# warm-up step
_STEP_PEAK = _DESK_STEP + """
import tracemalloc

step(0)
tracemalloc.start()
step(1)
print(tracemalloc.get_traced_memory()[1] / 2**20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
def test_desk_finetune_step_reuses_the_heap_of_the_last():
    # a heap top trimmed after each step comes back as ~3k faults in the next
    assert float(_fresh_process(_STEP_FAULTS)) < 300


def test_desk_finetune_step_peak_memory():
    # the tape holds only what each VJP reads; a tape of tensors peaked at 45 MB here
    assert float(_fresh_process(_STEP_PEAK)) <= 36
