"""Run the tiny CLI pipeline and print one sha256 per artifact.

    python tools/replay.py runs/replay

Run it from a checkout's root with a relative out dir, so that printed and saved paths
match across checkouts. Artifacts: each command's stdout, and each CSV, config.json and
checkpoint under the out dir.
"""

import contextlib
import hashlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
from m3cs.cli import main  # noqa: E402

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


if __name__ == "__main__":
    replay(sys.argv[1])
