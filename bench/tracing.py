"""Span tracing of the m3cs layers from outside the package.

`Tracer.install` replaces public functions and methods of the m3cs modules
with wrappers that record one span per call (name, start, end, parent) in
flat in-memory arrays; `Tracer.uninstall` puts every original back. Nothing
inside `src/` knows about the tracer, and the wrappers draw no random numbers,
so a traced step computes exactly what an untraced step computes.

Two kinds of span are kept apart:

- layer spans (`geometry.fps`, `backbone.encoder.student`, `optim.adamw`, ...).
  A layer's self time is its duration minus that of its child layer spans.
  Autodiff primitives called inside a layer stay in the layer's self time.
- primitive spans (`autodiff.matmul`, ...), one per forward call of a public
  autodiff function. Their self time excludes nested primitives only, so the
  primitive table is a second view of the same time, cutting across layers.
  The VJP of each tape node is timed apart and reported as `<prim>.vjp_ms`.

Top-level spans are those opened while no other span is open. Their share of
the step wall time is `trace.coverage`; the rest is `step.untraced_ms`.
"""

import functools
from array import array
from time import perf_counter

import numpy as np

# layer spans, each reported as <name>.ms and <name>.calls per step
LAYERS = (
    "geometry.fps",
    "geometry.knn",
    "geometry.group",
    "geometry.chamfer_batch",
    "data.augment",
    "tokenizer.pointnet",
    "tokenizer.pos_embed",
    "backbone.encoder",
    "backbone.encoder.student",
    "backbone.encoder.teacher",
    "backbone.decoder.align",
    "backbone.decoder.point",
    "codebook.quantizer",
    "pretrain.ema_update",
    "finetune.hta",
    "finetune.head",
    "autodiff.backward",
    "optim.adamw",
)

# autodiff primitives, each reported as autodiff.<p>.{calls,ms,vjp_ms} per
# step; any other public autodiff function is summed into autodiff.other
PRIMITIVES = (
    "add", "sub", "mul", "scalar_mul", "matmul", "transpose", "swap_axes",
    "reshape", "concat", "take", "row_softmax", "log_softmax", "layer_norm",
    "gelu", "max_reduce", "sum_reduce", "mean_reduce", "square", "log",
    "smooth_l1", "dropout",
)

# public autodiff functions that are infrastructure rather than primitives
NOT_PRIMITIVES = frozenset({
    "as_tensor", "backward", "clear_graph", "current_dtype", "gradcheck",
    "graph_size", "no_grad", "precision",
})

OTHER = "autodiff.other"


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in LAYERS:
        units[f"{name}.ms"] = "ms"
        units[f"{name}.calls"] = "count"
    units["geometry.chamfer_batch.vjp_ms"] = "ms"
    for name in [f"autodiff.{p}" for p in PRIMITIVES] + [OTHER]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
        units[f"{name}.vjp_ms"] = "ms"
    units["geometry.group.reuse"] = "ratio"
    units["autodiff.tape_nodes"] = "count"
    units["step.untraced_ms"] = "ms"
    units["trace.coverage"] = "ratio"
    units["trace.overhead"] = "ms"
    return units


class Tracer:
    """In-memory span recorder; install() before the traced steps, uninstall() after.

    `roles` maps id(EncoderStack instance) to the span name its calls get,
    which is how the teacher encoder is told from the student encoder.
    """

    def __init__(self, roles=None):
        self.roles = dict(roles or {})
        self.names, self.is_prim, self._ids = [], [], {}
        self.span_name, self.span_parent = array("i"), array("i")
        self.span_start, self.span_end = array("d"), array("d")
        self.step_start, self.step_end = array("d"), array("d")
        self.stack = []
        self.vjp_s = {}
        self.decoder_calls = 0
        self.group_calls = self.group_reused = 0
        self.grouped = set()
        self.tape_nodes = self.backward_calls = 0
        self.missing = []
        self._patches = []

    # ------------------------------------------------------------ recording

    def _id(self, name, prim=False):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.is_prim.append(prim)
        return nid

    def _call(self, nid, fn, args, kwargs):
        stack = self.stack
        i = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        stack.append(i)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[i] = perf_counter()
            self.span_start[i] = t0
            stack.pop()

    def begin_step(self):
        self.decoder_calls = 0

    def end_step(self, t0, t1):
        self.step_start.append(t0)
        self.step_end.append(t1)

    # ------------------------------------------------------------- wrappers

    def _span(self, name, prim=False):
        nid = self._id(name, prim)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._call(nid, fn, args, kwargs)
            return wrapper
        return make

    def _group(self, fn):
        nid = self._id("geometry.group")

        @functools.wraps(fn)
        def wrapper(cloud, *args, **kwargs):
            key = (hash(cloud.points.tobytes()), args, tuple(sorted(kwargs.items())))
            self.group_calls += 1
            if key in self.grouped:
                self.group_reused += 1
            else:
                self.grouped.add(key)
            return self._call(nid, fn, (cloud, *args), kwargs)
        return wrapper

    def _encoder(self, fn):
        plain = self._id("backbone.encoder")
        by_instance = {k: self._id(v) for k, v in self.roles.items()}

        @functools.wraps(fn)
        def wrapper(enc, *args, **kwargs):
            return self._call(by_instance.get(id(enc), plain), fn, (enc, *args), kwargs)
        return wrapper

    def _decoder(self, fn):
        # the first decoder pass of a step is the alignment branch, any later
        # one the point branch (forward_student runs before point_loss)
        align = self._id("backbone.decoder.align")
        point = self._id("backbone.decoder.point")

        @functools.wraps(fn)
        def wrapper(dec, *args, **kwargs):
            nid = point if self.decoder_calls else align
            self.decoder_calls += 1
            return self._call(nid, fn, (dec, *args), kwargs)
        return wrapper

    def _backward(self, graph_size):
        def make(fn):
            nid = self._id("autodiff.backward")

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.tape_nodes += graph_size()
                self.backward_calls += 1
                return self._call(nid, fn, args, kwargs)
            return wrapper
        return make

    def _record(self, fn):
        # time each tape node's VJP under the name of the span that recorded it
        vjp_s = self.vjp_s

        @functools.wraps(fn)
        def wrapper(out, inputs, vjp):
            nid = self.span_name[self.stack[-1]] if self.stack else -1

            def timed_vjp(g):
                t0 = perf_counter()
                try:
                    return vjp(g)
                finally:
                    vjp_s[nid] = vjp_s.get(nid, 0.0) + perf_counter() - t0
            return fn(out, inputs, timed_vjp)
        return wrapper

    # ------------------------------------------------------ install / remove

    def _patch(self, owner, attr, make):
        orig = vars(owner).get(attr)
        if orig is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def install(self):
        from m3cs import (autodiff, backbone, codebook, data, finetune, geometry,
                          optim, pretrain, tokenizer)
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name in ("fps", "knn"):
            self._patch(geometry, name, self._span(f"geometry.{name}"))
        # pretrain and finetune import these by name, so wrap them there too
        for mod in (geometry, pretrain, finetune):
            self._patch(mod, "group", self._group)
        for mod in (data, pretrain, finetune):
            self._patch(mod, "augment", self._span("data.augment"))
        for mod in (geometry, pretrain):
            self._patch(mod, "chamfer_batch", self._span("geometry.chamfer_batch"))
        self._patch(tokenizer.MiniPointNet, "__call__", self._span("tokenizer.pointnet"))
        self._patch(tokenizer.PosEmbed, "__call__", self._span("tokenizer.pos_embed"))
        self._patch(backbone.EncoderStack, "__call__", self._encoder)
        self._patch(backbone.SiameseDecoder, "__call__", self._decoder)
        self._patch(codebook.Quantizer, "__call__", self._span("codebook.quantizer"))
        self._patch(pretrain, "ema_update", self._span("pretrain.ema_update"))
        self._patch(finetune, "hta", self._span("finetune.hta"))
        self._patch(finetune.ClassifierHead, "__call__", self._span("finetune.head"))
        self._patch(optim.AdamW, "step", self._span("optim.adamw"))
        self._patch(autodiff, "backward", self._backward(autodiff.graph_size))
        for name, fn in list(vars(autodiff).items()):
            if (callable(fn) and not name.startswith("_") and name not in NOT_PRIMITIVES
                    and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == autodiff.__name__):
                self._patch(autodiff, name, self._span(f"autodiff.{name}", prim=True))
        for mod in (autodiff, geometry):
            self._patch(mod, "_record", self._record)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -------------------------------------------------------------- summary

    def metrics(self):
        """Per-step layer and primitive figures over the traced steps."""
        steps = len(self.step_start)
        if steps == 0:
            raise ValueError("no traced steps")
        name = np.frombuffer(self.span_name, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.intc).astype(np.int64)
        start = np.frombuffer(self.span_start)
        end = np.frombuffer(self.span_end)
        dur = end - start
        prim = np.array(self.is_prim, dtype=bool)[name]
        has_parent = parent >= 0
        pidx = np.where(has_parent, parent, 0)
        nested = has_parent & (prim[pidx] == prim)
        self_s = dur - np.bincount(pidx[nested], weights=dur[nested], minlength=len(dur))
        n_names = len(self.names)
        total_s = np.bincount(name, weights=self_s, minlength=n_names)
        calls = np.bincount(name, minlength=n_names)

        def per_step(fig, nid):
            return float(fig[nid]) / steps if nid is not None else 0.0

        out = {}
        for layer in LAYERS:
            nid = self._ids.get(layer)
            out[f"{layer}.ms"] = 1e3 * per_step(total_s, nid)
            out[f"{layer}.calls"] = per_step(calls, nid)
        out["geometry.chamfer_batch.vjp_ms"] = \
            1e3 * self.vjp_s.get(self._ids.get("geometry.chamfer_batch"), 0.0) / steps
        known = {f"autodiff.{p}" for p in PRIMITIVES}
        for key in [f"autodiff.{p}" for p in PRIMITIVES] + [OTHER]:
            out[f"{key}.calls"] = out[f"{key}.ms"] = out[f"{key}.vjp_ms"] = 0.0
        for nid, nm in enumerate(self.names):
            if not self.is_prim[nid]:
                continue
            key = nm if nm in known else OTHER
            out[f"{key}.calls"] += per_step(calls, nid)
            out[f"{key}.ms"] += 1e3 * per_step(total_s, nid)
            out[f"{key}.vjp_ms"] += 1e3 * self.vjp_s.get(nid, 0.0) / steps

        out["geometry.group.reuse"] = self.group_reused / self.group_calls if self.group_calls else 0.0
        out["autodiff.tape_nodes"] = (self.tape_nodes / self.backward_calls
                                      if self.backward_calls else 0.0)

        # top-level spans that fall inside a step window cover that step
        s0, s1 = np.frombuffer(self.step_start), np.frombuffer(self.step_end)
        top = ~has_parent
        k = np.searchsorted(s0, start[top], side="right") - 1
        inside = (k >= 0) & (end[top] <= s1[np.maximum(k, 0)])
        covered = float(dur[top][inside].sum())
        wall = float((s1 - s0).sum())
        out["trace.coverage"] = covered / wall
        out["step.untraced_ms"] = 1e3 * (wall - covered) / steps
        return out
