"""Run the tiny CLI pipeline and the library's training paths; print one sha256 per artifact.

    python tools/replay.py runs/replay

Run it from a checkout's root with a relative out dir, so that printed and saved paths
match across checkouts. CLI artifacts: each command's stdout, and each CSV, config.json and
checkpoint under the out dir (a pretrain checkpoint holds only the student). Library
artifacts, which touch no file: tiny pretrain_loop metrics with student and teacher
weights for each decoder sharing and mask kind, and a finetune_loop and few_shot records
from each of those students; a finetune_loop from scratch whose layer ids (0, -1, 2) wrap
round and repeat on the depth-2 encoder; desk FinetuneModel logits, then a second eval
batch of the same clouds with its logits; the leaf gradients of one desk fine-tune
backward; and one desk pretrain train_step: its record, the student and decoder weights
after AdamW, the teacher after EMA, and the AdamW step count and moments (opt.step,
opt.m.<name>, opt.v.<name>), which carry the gradients of both decoder passes and are
saved nowhere.
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
from m3cs import autodiff as ad  # noqa: E402
from m3cs.cli import main  # noqa: E402
from m3cs.config import FinetuneConfig, ModelConfig, PretrainConfig  # noqa: E402
from m3cs.data import _cloud_batch, gen_shapes  # noqa: E402
from m3cs.finetune import FinetuneModel, cross_entropy, few_shot, finetune_loop  # noqa: E402
from m3cs.optim import AdamW  # noqa: E402
from m3cs.pretrain import (PretrainModel, assemble_batch, init_teacher,  # noqa: E402
                           pretrain_loop, train_step)
from m3cs.rng import make_rng  # noqa: E402

MODEL = ["--model.c", "16", "--model.heads", "2", "--model.enc_depth", "2",
         "--model.dec_depth", "2", "--model.g", "8", "--model.s", "4", "--model.t", "8",
         "--model.n_points", "64", "--finetune.layers", "1"]
DATA = ["--data.per_class_train", "2", "--data.per_class_test", "3", "--data.points", "64"]
FINETUNE = ["--steps", "3", "--batch-size", "2", "--finetune.warmup", "1"]


def run(name, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    if rc:
        sys.exit(f"{name} exited {rc}")
    print(hashlib.sha256(out.getvalue().encode()).hexdigest(), f"{name}.stdout")


def replay(out):
    data, pre = os.path.join(out, "data"), os.path.join(out, "pre", "pretrain.ckpt")
    run("gen-data", "gen-data", "--dir", data, *MODEL, *DATA)
    run("pretrain", "pretrain", "--out-dir", os.path.dirname(pre), "--steps", "3",
        "--batch-size", "2", "--pretrain.warmup", "1", *MODEL, *DATA)
    run("finetune", "finetune", "--out-dir", os.path.join(out, "ft"), "--checkpoint", pre,
        *FINETUNE, *MODEL, *DATA)
    run("finetune-dir", "finetune", "--out-dir", os.path.join(out, "ft-dir"),
        "--checkpoint", pre, *FINETUNE, *MODEL, "--data.dir", data)
    run("fewshot", "fewshot", "--out-dir", os.path.join(out, "fs"), "--checkpoint", pre,
        "--runs", "2", "--way", "2", "--shot", "1", "--fewshot.query", "2",
        "--fewshot.steps", "2", "--finetune.batch_size", "2", *MODEL, *DATA)
    for ft in ("ft", "ft-dir"):  # the test set from the saved config, then from the dir
        ckpt = os.path.join(out, ft, "finetune.ckpt")
        run(f"eval-{ft}", "eval", "--checkpoint", ckpt)
        run(f"eval-{ft}-data-dir", "eval", "--checkpoint", ckpt, "--data.dir", data)
    run("inspect-codebook", "inspect-codebook", "--checkpoint", pre)
    for root, _, files in sorted(os.walk(out)):
        for name in sorted(f for f in files if f.endswith((".csv", ".json", ".ckpt"))):
            with open(os.path.join(root, name), "rb") as fh:
                print(hashlib.sha256(fh.read()).hexdigest(), os.path.join(root, name))


def digest(name, *parts):
    """Print the sha256 of parts: {name: array} dicts by key, anything else by repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, dict):
            for key in sorted(part):
                a = np.ascontiguousarray(part[key])
                h.update(f"{key} {a.dtype} {a.shape}".encode())
                h.update(a.tobytes())
        else:
            h.update(repr(part).encode())
    print(h.hexdigest(), name)


def arrays(module):
    return {k: t.data for k, t in module.named_tensors().items()}


def library():
    families = ("sphere", "cube", "torus", "cylinder")
    tiny = ModelConfig(c=16, heads=2, enc_depth=2, dec_depth=2, g=8, s=4, t=8, n_points=64)
    train = gen_shapes(families, 2, 64, make_rng(80), "train")
    test = gen_shapes(families, 6, 64, make_rng(81), "test")
    fcfg = FinetuneConfig(steps=3, batch_size=2, warmup=1, layers=(1,))
    for siamese in (True, False):
        for mask in ("random", "block"):
            tag = f"{'siamese' if siamese else 'two-decoder'}-{mask}"
            mcfg = dataclasses.replace(tiny, siamese=siamese)
            pcfg = PretrainConfig(steps=3, batch_size=2, warmup=1, mask_kind=mask)
            model, teacher, _, metrics = pretrain_loop(train, mcfg, pcfg, seed=9)
            digest(f"pretrain_loop-{tag}", metrics, arrays(model), arrays(teacher.encoder))
            ft, history, acc = finetune_loop(train, test, mcfg, fcfg, seed=9,
                                             init_arrays=arrays(model))
            digest(f"finetune_loop-{tag}", history, acc, arrays(ft))
            digest(f"few_shot-{tag}", few_shot(test, 2, 1, 2, mcfg, fcfg, seed=9, query=5,
                                               init_arrays=arrays(model)))
    wrapped = dataclasses.replace(fcfg, layers=(0, -1, 2))  # resolves to [0, 1]
    ft, history, acc = finetune_loop(train, test, tiny, wrapped, seed=9)
    digest("finetune_loop-wrapped-layers", history, acc, arrays(ft))

    desk, layers = ModelConfig(), FinetuneConfig().layers
    desk_set = gen_shapes(families, 1, 1024, make_rng(82), "train")
    clouds, labels = [c for c, _ in desk_set.items], [l for _, l in desk_set.items]
    model = FinetuneModel(make_rng(9, 10), desk, n_classes=4)
    with ad.no_grad():
        groups, centers = _cloud_batch(clouds, desk, None)
        digest("desk-logits", {"logits": model.forward(groups, centers, layers=layers).data})
        # the same clouds again, whose patches the first batch derived and kept
        groups, centers = _cloud_batch(clouds, desk, None)
        digest("desk-eval-batch-again", {"groups": groups, "centers": centers})
        digest("desk-logits-again", {"logits": model.forward(groups, centers, layers=layers).data})
    rng = make_rng(9, 11, 0)
    groups, centers = _cloud_batch(clouds, desk, rng)
    logits = model.forward(groups, centers, layers=layers, rng=rng)
    ad.backward(cross_entropy(logits, labels))
    digest("desk-finetune-grads", {k: t.grad for k, t in model.named_tensors().items()})

    pcfg = PretrainConfig()
    model = PretrainModel(make_rng(9, 0), desk)
    teacher = init_teacher(model, pcfg.lam_start, pcfg.lam_end)
    opt = AdamW(model.params(), lr=pcfg.lr, weight_decay=pcfg.weight_decay,
                total_steps=pcfg.steps, warmup=pcfg.warmup)
    batch = assemble_batch(desk_set, 4, desk, make_rng(9, 1, 0))
    rec = train_step(model, teacher, opt, batch, 0, desk, pcfg, seed=9)
    digest("desk-pretrain-step", rec, arrays(model), arrays(teacher.encoder))
    moments = {"opt.step": np.array([float(opt.step_count)], dtype=np.float32)}
    for k in opt.params:
        moments[f"opt.m.{k}"], moments[f"opt.v.{k}"] = opt.m[k], opt.v[k]
    digest("desk-pretrain-moments", moments)


if __name__ == "__main__":
    replay(sys.argv[1])
    library()
