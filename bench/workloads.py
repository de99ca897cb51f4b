"""The three closed-loop workloads and the runner that times them.

Each workload builds its inputs and initial weights from the workload seed and
hands them to m3cs through its public functions. One caller sends a step, waits
for it to finish and only then sends the next (a closed loop with one client).
`run` sets the workload up several times, checks that the warm-up steps replay
identically, then times steps for a fixed wall-clock budget.
"""

import resource
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from m3cs import autodiff as ad
from m3cs.config import FinetuneConfig, ModelConfig, PretrainConfig
from m3cs.data import gen_shapes
from m3cs.finetune import FinetuneModel, evaluate, finetune_step, trainable_params
from m3cs.optim import AdamW
from m3cs.pretrain import PretrainModel, assemble_batch, init_teacher, train_step
from m3cs.rng import make_rng

from tracing import Tracer

FAMILIES = ("sphere", "cube", "torus", "cylinder")
SETUP_REPEATS = 5
# schedules long enough that no run reaches their end
SCHEDULE_STEPS = 1_000_000
MIN_COVERAGE = 0.90
E2E_UNITS = {"setup_s": "s", "steps_per_s": "1/s", "clouds_per_s": "1/s",
             "step_ms.p50": "ms", "step_ms.tail": "ms", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Size:
    model: ModelConfig
    points: int              # points per generated cloud
    pretrain_per_class: int  # pretraining pool: 4 families x this many clouds
    finetune_per_class: int  # fine-tune support set
    test_per_class: int      # eval test set
    batch: int


SIZES = {
    "desk": Size(ModelConfig(), 1024, 128, 16, 32, 16),
    "tiny": Size(ModelConfig(c=16, heads=2, enc_depth=2, dec_depth=2, g=8, s=4, t=8,
                             n_points=64), 128, 2, 2, 2, 2),
}


class StepLog:
    """Step wall times, failures and the value stream of one phase of a run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = []
        self.stream = []
        self.clouds = 0
        self.failed = 0
        self.elapsed = 0.0

    def step(self, fn, *args, clouds=0):
        tracer = self.tracer
        if tracer:
            tracer.begin_step()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            if tracer:
                tracer.end_step(t0, t1)
            self.times.append(t1 - t0)
            self.clouds += clouds

    def fail(self, why, steps=1):
        if self.failed < 3:
            print(f"step failed: {why}", file=sys.stderr)
        self.failed += steps

    def raised(self):
        self.fail(traceback.format_exc())
        ad.clear_graph()


def _finite(*values):
    return all(np.isfinite(v) for v in values)


class Pretrain:
    """assemble_batch + train_step on a 512-cloud pool: teacher, both decoders, EMA."""

    # each workload's tail percentile leaves 10 or more steps beyond it in a
    # 30-s run on a 2-core guest, even when the host is slow
    tail_pct = 75

    def __init__(self, seed, size):
        self.seed, self.mcfg = seed, size.model
        self.pcfg = PretrainConfig(steps=SCHEDULE_STEPS, batch_size=size.batch)
        self.data = gen_shapes(FAMILIES, size.pretrain_per_class, size.points,
                               make_rng(seed, 100))
        self.model = PretrainModel(make_rng(seed, 0), self.mcfg)
        self.teacher = init_teacher(self.model, self.pcfg.lam_start, self.pcfg.lam_end)
        self.opt = AdamW(self.model.params(), lr=self.pcfg.lr,
                         weight_decay=self.pcfg.weight_decay,
                         total_steps=SCHEDULE_STEPS, warmup=self.pcfg.warmup)
        self.step_no = 0

    def roles(self):
        return {id(self.model.encoder): "backbone.encoder.student",
                id(self.teacher.encoder): "backbone.encoder.teacher"}

    def _step(self, step):
        batch = assemble_batch(self.data, self.pcfg.batch_size, self.mcfg,
                               make_rng(self.seed, 1, step))
        return train_step(self.model, self.teacher, self.opt, batch, step,
                          self.mcfg, self.pcfg, self.seed)

    def step(self, log):
        step = self.step_no
        self.step_no += 1
        try:
            rec = log.step(self._step, step, clouds=self.pcfg.batch_size)
        except Exception:  # a failed step is counted and the loop goes on
            log.raised()
            return
        if not _finite(rec["l_align"], rec["l_rec"], rec["l_total"], rec["perplexity"]):
            log.fail(f"non-finite metrics at step {step}: {rec}")
        log.stream.append(rec)


class Finetune:
    """finetune_step on a 64-cloud support set: encoder with gradients, HTA, head."""

    tail_pct = 90

    def __init__(self, seed, size):
        self.seed, self.mcfg = seed, size.model
        self.fcfg = FinetuneConfig(steps=SCHEDULE_STEPS, batch_size=size.batch)
        self.data = gen_shapes(FAMILIES, size.finetune_per_class, size.points,
                               make_rng(seed, 52))
        self.model = FinetuneModel(make_rng(seed, 10), self.mcfg, len(FAMILIES),
                                   hidden=self.fcfg.hidden, dropout=self.fcfg.dropout)
        self.opt = AdamW(trainable_params(self.model, self.fcfg), lr=self.fcfg.lr,
                         weight_decay=self.fcfg.weight_decay,
                         total_steps=SCHEDULE_STEPS, warmup=self.fcfg.warmup)
        self.step_no = 0

    def roles(self):
        return {}

    def step(self, log):
        step = self.step_no
        self.step_no += 1
        rng = make_rng(self.seed, 11, step)
        picks = rng.choice(len(self.data.items), size=self.fcfg.batch_size, replace=False)
        clouds = [self.data.items[int(i)][0] for i in picks]
        labels = [self.data.items[int(i)][1] for i in picks]
        try:
            loss, acc = log.step(finetune_step, self.model, self.opt, clouds, labels,
                                 self.mcfg, self.fcfg, rng, clouds=len(clouds))
        except Exception:  # a failed step is counted and the loop goes on
            log.raised()
            return
        if not _finite(loss):
            log.fail(f"non-finite loss at step {step}")
        log.stream.append((loss, acc))


class Eval:
    """evaluate over one fixed 128-cloud test set, again and again: no tape, no optimiser."""

    tail_pct = 70

    def __init__(self, seed, size):
        self.mcfg = size.model
        self.fcfg = FinetuneConfig()
        self.data = gen_shapes(FAMILIES, size.test_per_class, size.points,
                               make_rng(seed, 51), "test")
        self.model = FinetuneModel(make_rng(seed, 10), self.mcfg, len(FAMILIES),
                                   hidden=self.fcfg.hidden, dropout=self.fcfg.dropout)
        self.first_acc = None

    def roles(self):
        return {}

    def step(self, log):
        try:
            acc = log.step(evaluate, self.model, self.data, self.mcfg, self.fcfg,
                           clouds=len(self.data.items))
        except Exception:  # a failed step is counted and the loop goes on
            log.raised()
            return
        if self.first_acc is None:
            self.first_acc = acc
        elif acc != self.first_acc:
            log.fail(f"accuracy {acc} differs from the first pass's {self.first_acc}")
        log.stream.append(acc)


WORKLOADS = {"pretrain": Pretrain, "finetune": Finetune, "eval": Eval}


def _phase(wl, log, seconds, steps):
    """Run steps until `steps` are done, or else until `seconds` have passed."""
    t0 = perf_counter()
    done = 0
    while True:
        wl.step(log)
        done += 1
        elapsed = perf_counter() - t0
        if (done >= steps) if steps else (elapsed >= seconds):
            break
    log.elapsed += elapsed
    return log


def _tail(times_ms, pct):
    tail = float(np.percentile(times_ms, pct))
    return {"p50": float(np.median(times_ms)), "tail": tail, "tail_pct": pct,
            "samples": len(times_ms), "beyond_tail": int((times_ms > tail).sum())}


def run(workload, seed, seconds, trace=False, size="desk", steps=None):
    """Set up, warm up, then time one workload.

    With trace=False the timed phase is untraced and the result holds the
    end-to-end metrics. With trace=True the first half of the budget runs
    untraced and the second half traced; the result holds the per-layer
    metrics and `trace.overhead`. `steps` replaces the time budget by a step
    count, split the same way when tracing.
    """
    cls = WORKLOADS[workload]
    sz = SIZES[size]
    setup_s, signatures = [], []
    warm = StepLog()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl = cls(seed, sz)
        warm.stream = []
        wl.step(warm)
        setup_s.append(perf_counter() - t0)
        signatures.append(warm.stream)
    # a same-seed replay of the warm-up steps must be identical
    for sig in signatures[1:]:
        mismatched = sum(a != b for a, b in zip(sig, signatures[0]))
        mismatched += abs(len(sig) - len(signatures[0]))
        if mismatched:
            warm.fail(f"warm-up replay differs: {sig} vs {signatures[0]}", steps=mismatched)

    if trace:
        half = (steps // 2 or 1) if steps else None
        plain = _phase(wl, StepLog(), seconds / 2, half)
        tracer = Tracer(wl.roles())
        tracer.install()
        try:
            timed = _phase(wl, StepLog(tracer), seconds / 2, steps - half if steps else None)
        finally:
            tracer.uninstall()
        logs = [warm, plain, timed]
        metrics = tracer.metrics()
        metrics["trace.overhead"] = 1e3 * (np.median(timed.times) - np.median(plain.times))
        if metrics["trace.coverage"] < MIN_COVERAGE:
            print(f"warning: top-level spans cover {metrics['trace.coverage']:.1%} of step "
                  f"time, below {MIN_COVERAGE:.0%}", file=sys.stderr)
    else:
        timed = _phase(wl, StepLog(), seconds, steps)
        logs = [warm, timed]
        times_ms = 1e3 * np.asarray(timed.times)
        tail = _tail(times_ms, cls.tail_pct)
        metrics = {
            "setup_s": float(np.median(setup_s)),
            "steps_per_s": len(timed.times) / timed.elapsed,
            "clouds_per_s": timed.clouds / timed.elapsed,
            "step_ms.p50": tail["p50"],
            "step_ms.tail": tail["tail"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    attempted = sum(len(log.times) for log in logs)
    failed = sum(log.failed for log in logs)
    record = {
        "workload": workload, "seed": seed, "size": size, "trace": bool(trace),
        "seconds": seconds, "setup_s": setup_s, "elapsed_s": timed.elapsed,
        "steps": len(timed.times), "warmup_steps": len(warm.times),
    }
    if trace:
        record["coverage"] = metrics["trace.coverage"]
        record["traced_step_ms.p50"] = 1e3 * float(np.median(timed.times))
        record["untraced_step_ms.p50"] = 1e3 * float(np.median(plain.times))
        record["untraced_steps"] = len(plain.times)
        record["missing_hooks"] = tracer.missing
        record["samples"] = {"per_layer": len(timed.times), "trace.overhead":
                             [len(plain.times), len(timed.times)]}
    else:
        record["step_ms"] = tail
        n = len(timed.times)
        record["samples"] = {"setup_s": len(setup_s), "steps_per_s": n, "clouds_per_s": n,
                             "step_ms.p50": n, "step_ms.tail": n, "peak_rss_mb": 1}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "record": record,
        "stream": [s for log in logs[1:] for s in log.stream],
    }
