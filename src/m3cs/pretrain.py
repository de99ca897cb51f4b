"""The pretext task: masking, student/teacher passes, both losses, EMA, train loop."""

import copy
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import Backbone, EncoderStack, SiameseDecoder
from .codebook import Codebook, Quantizer, perplexity, temperature
from .config import ModelConfig, PretrainConfig
from .data import _cloud_batch
from .geometry import chamfer_batch
from .layers import Linear, init_param
from .optim import step_loop
from .rng import make_rng

METRICS_HEADER = ["step", "l_align", "l_rec", "l_total", "lambda", "tau", "perplexity"]


# ------------------------------------------------------------------- masking


@dataclass
class MaskSpec:
    masked: np.ndarray  # (G,) bool, _mask_count of them True

    @property
    def masked_idx(self):
        return np.nonzero(self.masked)[0]

    @property
    def visible_idx(self):
        return np.nonzero(~self.masked)[0]


def _mask_count(g, ratio):
    if not 0 < ratio < 1:
        raise ValueError(f"mask ratio must be in (0,1), got {ratio}")
    count = round(ratio * g)
    if count < 1 or count >= g:
        raise ValueError(f"degenerate mask: {count} of {g} patches")
    return count


def mask_random(g, ratio, rng):
    count = _mask_count(g, ratio)
    masked = np.zeros(g, dtype=bool)
    masked[rng.choice(g, size=count, replace=False)] = True
    return MaskSpec(masked)


def mask_block(centers, ratio, rng):
    """Mask a random seed patch plus its nearest neighbors (by center distance)."""
    centers = np.asarray(centers, dtype=np.float64)
    g = len(centers)
    count = _mask_count(g, ratio)
    seed = int(rng.integers(g))
    d = ((centers - centers[seed]) ** 2).sum(-1)
    order = np.argsort(d, kind="stable")
    masked = np.zeros(g, dtype=bool)
    masked[order[:count]] = True
    return MaskSpec(masked)


def make_mask(kind, g, ratio, rng, centers=None):
    if kind == "random":
        return mask_random(g, ratio, rng)
    if kind == "block":
        return mask_block(centers, ratio, rng)
    raise ValueError(f"unknown mask kind '{kind}'")


# --------------------------------------------------------------------- model


class PretrainModel(Backbone):
    def __init__(self, rng, cfg: ModelConfig):
        super().__init__(rng, cfg)
        self.decoder = SiameseDecoder(rng, cfg.c, cfg.heads, cfg.dec_depth)
        if not cfg.siamese:
            self.point_decoder = SiameseDecoder(rng, cfg.c, cfg.heads, cfg.dec_depth)
        self.mask_token = init_param(rng, (cfg.c,), std=0.02)
        self.codebook = Codebook(rng, cfg.t, cfg.c)
        self.quantizer = Quantizer(rng, cfg.c, self.codebook)
        self.point_head = Linear(rng, cfg.c, cfg.s * 3)


# ----------------------------------------------------------------- EMA teacher


@dataclass
class EmaState:
    encoder: EncoderStack   # frozen copy; params never require grad
    lam_start: float = 0.996
    lam_end: float = 1.0


def init_teacher(model, lam_start=0.996, lam_end=1.0):
    for name, lam in (("lam_start", lam_start), ("lam_end", lam_end)):
        if not 0 <= lam <= 1:
            raise ValueError(f"pretrain.{name} must be in [0, 1], got {lam}")
    enc = copy.deepcopy(model.encoder)
    for p in enc.named_tensors().values():
        p.requires_grad = False
    return EmaState(encoder=enc, lam_start=lam_start, lam_end=lam_end)


def lam_at(state, step, total_steps):
    if total_steps <= 1:
        return state.lam_end
    f = min(1.0, step / (total_steps - 1))
    return state.lam_start + (state.lam_end - state.lam_start) * f


def ema_update(state, student_params, lam):
    """teacher <- lam * teacher + (1 - lam) * student, parameter by parameter."""
    teacher = state.encoder.named_tensors()
    if set(teacher) != set(student_params):
        raise ValueError("EMA update: teacher/student parameter sets differ")
    for name, tp in teacher.items():
        sp = student_params[name]
        if tp.data.shape != sp.data.shape:
            raise ValueError(f"EMA update: shape mismatch for '{name}'")
        tp.data *= lam
        tp.data += (1.0 - lam) * sp.data
    return state


# ------------------------------------------------------------------ forwards


def forward_targets(tokens, pos, mask, teacher):
    """Teacher encodes ALL patches; returns layer-normed targets at masked rows.

    Output is a constant (no gradient is recorded).
    """
    with ad.no_grad():
        h = teacher.encoder(tokens, pos)[-1]
        y = ad.layer_norm(h)
        return ad.take(y, mask.masked_idx, axis=-2)


def _decode(decoder, enc_vis, fill, pos, mask):
    """Put the visible encodings and `fill` back in patch order, decode, return the masked rows."""
    perm = np.concatenate([mask.visible_idx, mask.masked_idx])
    seq = ad.take(ad.concat([enc_vis, fill], axis=-2), np.argsort(perm), axis=-2)
    return ad.take(decoder(seq, pos), mask.masked_idx, axis=-2)


def forward_student(model, tokens, pos, mask):
    """Student encodes visible patches only; the decoder fills masked slots.

    Returns (x, enc_vis): decoder outputs at masked positions and the encoded
    visible tokens (reused by the point branch).
    """
    vis = mask.visible_idx
    enc_vis = model.encoder(ad.take(tokens, vis, axis=-2), ad.take(pos, vis, axis=-2))[-1]
    zeros = np.zeros((*tokens.shape[:-2], len(mask.masked_idx), model.cfg.c))
    x = _decode(model.decoder, enc_vis, ad.add(zeros, model.mask_token), pos, mask)
    return x, enc_vis


def align_loss(x, y, beta=1.0):
    return ad.smooth_l1(x, y, beta)


def point_loss(model, x, enc_vis, pos, mask, groups, tau, rng=None, training=True):
    """Quantize masked representations, decode with visible context, Chamfer vs truth."""
    qout = model.quantizer(x, tau, rng=rng, training=training)
    decoder = getattr(model, "point_decoder", model.decoder)
    f_m = _decode(decoder, enc_vis, qout.mixed, pos, mask)
    pred = model.point_head(f_m)
    s = model.cfg.s
    flat = (-1, s, 3)
    pred_pts = ad.reshape(pred, flat)
    target = np.asarray(groups)[..., mask.masked_idx, :, :].reshape(flat)
    loss = chamfer_batch(pred_pts, Tensor(target))
    return loss, qout


# ----------------------------------------------------------------- training


def train_step(model, teacher, opt, batch, step, mcfg, pcfg, seed):
    """One optimization step; returns the metrics record for the CSV stream."""
    groups, centers = batch["groups"], batch["centers"]
    tokens, pos = model.embed(groups, centers)
    mask_rng = make_rng(seed, 2, step)
    # one mask per step, shared across the batch (keeps every tensor dense);
    # block masking uses the first cloud's center geometry
    mask = make_mask(pcfg.mask_kind, mcfg.g, pcfg.mask_ratio, mask_rng, centers=centers[0])
    y = forward_targets(tokens, pos, mask, teacher)
    x, enc_vis = forward_student(model, tokens, pos, mask)
    l_align = align_loss(x, y, pcfg.beta)
    tau = temperature(step, pcfg.steps, pcfg.tau_schedule, pcfg.tau_start, pcfg.tau_end)
    l_rec, qout = point_loss(model, x, enc_vis, pos, mask, groups, tau,
                             rng=make_rng(seed, 3, step), training=True)
    l_total = ad.add(l_align, ad.scalar_mul(l_rec, pcfg.eta))
    if not np.isfinite(l_total.data):
        raise FloatingPointError(
            f"non-finite loss at step {step}: align={l_align.item()}, rec={l_rec.item()}")
    ad.backward(l_total)
    opt.step()
    opt.zero_grad()
    lam = lam_at(teacher, step, pcfg.steps)
    ema_update(teacher, model.encoder.params(), lam)
    return {
        "step": step,
        "l_align": l_align.item(),
        "l_rec": l_rec.item(),
        "l_total": l_total.item(),
        "lambda": lam,
        "tau": tau,
        "perplexity": perplexity(qout.z),
    }


def assemble_batch(dataset, batch_size, mcfg, rng):
    """Sample clouds, augment, group; returns dense (B,G,S,3) + (B,G,3) arrays."""
    picks = rng.integers(len(dataset.items), size=batch_size)
    groups, centers = _cloud_batch([dataset.items[int(i)][0] for i in picks], mcfg, rng)
    return {"groups": groups, "centers": centers}


def pretrain_loop(dataset, mcfg: ModelConfig, pcfg: PretrainConfig, seed=0,
                  metrics_path=None, log_every=0):
    """Full pretraining run. Returns (model, teacher, optimizer, metrics list)."""
    model = PretrainModel(make_rng(seed, 0), mcfg)
    teacher = init_teacher(model, pcfg.lam_start, pcfg.lam_end)

    def step_fn(opt, step, rng):
        batch = assemble_batch(dataset, pcfg.batch_size, mcfg, rng)
        return train_step(model, teacher, opt, batch, step, mcfg, pcfg, seed)

    opt, metrics = step_loop(
        pcfg, model.params(), seed, 1, step_fn, metrics_path, METRICS_HEADER, log_every,
        "step {step}: l_total={l_total:.4f} l_align={l_align:.4f} l_rec={l_rec:.4f} "
        "ppl={perplexity:.1f}")
    return model, teacher, opt, metrics
