"""AdamW with decoupled weight decay and a warmup + cosine learning-rate schedule,
and the step loop that pretraining and fine-tuning both run under it."""

import csv
import math
import os

import numpy as np

from .autodiff import ShapeError
from .config import check_run
from .rng import make_rng


def lr_at(step, base_lr, total_steps, warmup=0):
    """Learning rate for a 0-based step. Warmup is linear, then cosine to 0."""
    if warmup > 0 and step < warmup:
        return base_lr * (step + 1) / warmup
    if total_steps <= warmup:
        return base_lr
    progress = (step - warmup) / max(1, total_steps - warmup)
    progress = min(1.0, progress)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.05, total_steps=0, warmup=0):
        for name, value in (("lr", lr), ("weight_decay", weight_decay), ("warmup", warmup)):
            if not value >= 0:  # a negative one would train the wrong way
                raise ValueError(f"AdamW needs {name} >= 0, got {value}")
        self.params = dict(params)  # name -> Tensor
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.total_steps = total_steps
        self.warmup = warmup
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        b1, b2 = self.betas
        self.step_count += 1
        t = self.step_count
        lr = lr_at(t - 1, self.lr, self.total_steps, self.warmup)
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeError(
                    f"optimizer: grad shape {list(g.shape)} != param shape "
                    f"{list(p.data.shape)} for '{name}'")
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, and
            # p -= lr (mhat / (sqrt(vhat) + eps) + wd p), each step in place and in
            # the formula's order, so the results are its bits
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            tmp = np.multiply(1 - b2, g, out=np.empty_like(v))
            tmp *= g
            v += tmp
            mhat = np.divide(m, 1 - b1**t, out=np.empty_like(m))
            np.divide(v, 1 - b2**t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            mhat /= tmp
            mhat += np.multiply(self.weight_decay, p.data, out=tmp)
            mhat *= lr
            p.data -= mhat


def step_loop(section, cfg, params, seed, stream, step_fn, metrics_path, header, log_every, log):
    """cfg.steps steps of step_fn(opt, step, rng) -> record, under AdamW on params with
    cfg's lr, weight_decay, steps and warmup; rng is keyed by (seed, stream, step).

    Each record is kept, streamed to the CSV at metrics_path (flushed per row; without
    a path rows are dropped), and every log_every steps printed by the format string
    `log`. check_run(section, cfg) refuses the run first. Returns (optimizer, records).
    """
    check_run(section, cfg)
    opt = AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay,
                total_steps=cfg.steps, warmup=cfg.warmup)
    records = []
    with open(metrics_path or os.devnull, "w", newline="", buffering=1) as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        for step in range(cfg.steps):
            records.append(step_fn(opt, step, make_rng(seed, stream, step)))
            writer.writerow(records[-1])
            if log_every and step % log_every == 0:
                print(log.format_map(records[-1]))
    return opt, records
