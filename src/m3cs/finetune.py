"""Downstream adaptation: hybrid token aggregation over the codebook and heads."""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import Backbone
from .codebook import Codebook
from .config import ModelConfig
from .data import Dataset, _cloud_batch
from .layers import Linear, Module, init_param
from .optim import step_loop
from .rng import make_rng


def netvlad(x, entries, w, b):
    """Soft-assignment residual statistic of tokens against codebook centroids.

    x: (..., N, c) tokens, entries: (T, D) with D == c, w: (T, c), b: (T,).
    Returns V: (..., T, D) where V_t = sum_j alpha_t(x_j) (x_j - C_t) and
    alpha is the row-softmax of the affine centroid scores.
    """
    if entries.shape[-1] != x.shape[-1]:
        raise ad.ShapeError(
            f"netvlad: token width {x.shape[-1]} != centroid width {entries.shape[-1]}")
    scores = ad.add(ad.matmul(x, ad.swap_axes(w, -1, -2)), b)   # (..., N, T)
    alpha = ad.row_softmax(scores)
    weighted = ad.matmul(ad.swap_axes(alpha, -1, -2), x)        # (..., T, c)
    mass = ad.reshape(ad.sum_reduce(alpha, axis=-2), (*x.shape[:-2], w.shape[0], 1))
    return ad.sub(weighted, ad.mul(mass, entries))


def hta(x_layers, entries, w, b):
    """Hybrid token aggregation: concat(avg-pool, max-pool, centroid statistic).

    Multiple selected hidden layers are averaged token-wise before aggregation.
    Output width is c + c + D.
    """
    if not x_layers:
        raise ValueError("hta needs at least one hidden-layer token set")
    x = x_layers[0]
    for extra in x_layers[1:]:
        x = ad.add(x, extra)
    if len(x_layers) > 1:
        x = ad.scalar_mul(x, 1.0 / len(x_layers))
    if x.shape[-2] < 1:
        raise ad.ShapeError("hta: empty token set")
    avg = ad.mean_reduce(x, axis=-2)
    mx = ad.max_reduce(x, axis=-2)
    v = netvlad(x, entries, w, b)
    stat = ad.mean_reduce(v, axis=-2)
    return ad.concat([avg, mx, stat], axis=-1)


def cross_entropy(logits, labels):
    logp = ad.log_softmax(logits)
    onehot = np.zeros(logits.shape, dtype=logp.data.dtype)
    onehot[np.arange(len(labels)), np.asarray(labels)] = 1.0
    picked = ad.sum_reduce(ad.mul(logp, Tensor(onehot)))
    return ad.scalar_mul(picked, -1.0 / len(labels))


class ClassifierHead(Module):
    """3-layer MLP with dropout on the hidden activations, drawn from rng when one is given."""

    def __init__(self, rng, d_in, hidden, n_classes, dropout=0.2):
        if hidden < 1:
            raise ValueError(f"finetune.hidden must be at least 1, got {hidden}")
        if not 0 <= dropout < 1:  # at 1 it divides by 0; above 1 it drops all, below 0 none
            raise ValueError(f"finetune.dropout must be in [0, 1), got {dropout}")
        self.fc1 = Linear(rng, d_in, hidden)
        self.fc2 = Linear(rng, hidden, hidden)
        self.fc3 = Linear(rng, hidden, n_classes)
        self.dropout = dropout

    def __call__(self, x, rng=None):
        x = ad.gelu(self.fc1(x))
        x = ad.dropout(x, self.dropout, rng)
        x = ad.gelu(self.fc2(x))
        x = ad.dropout(x, self.dropout, rng)
        return self.fc3(x)


class FinetuneModel(Backbone):
    def __init__(self, rng, mcfg: ModelConfig, n_classes, hidden=256, dropout=0.2):
        super().__init__(rng, mcfg)
        self.codebook = Codebook(rng, mcfg.t, mcfg.c)
        self.vlad_w = init_param(rng, (mcfg.t, mcfg.c), std=0.02)
        self.vlad_b = init_param(rng, (mcfg.t,), std=0.0)
        self.head = ClassifierHead(rng, 3 * mcfg.c, hidden, n_classes, dropout)

    def resolve_layers(self, layers):
        return sorted({l % len(self.encoder.blocks) for l in layers})

    def forward(self, groups, centers, layers=(-1,), rng=None):
        tokens, pos = self.embed(groups, centers)
        hidden = self.encoder(tokens, pos)
        x_layers = [hidden[l] for l in self.resolve_layers(layers)]
        o = hta(x_layers, self.codebook.entries, self.vlad_w, self.vlad_b)
        return self.head(o, rng=rng)


# ------------------------------------------------------------------ training


def finetune_step(model, opt, clouds, labels, mcfg, fcfg, rng):
    """One supervised step; returns (loss, train accuracy) on the batch."""
    if model.head.fc3.b.shape[0] <= max(labels):
        raise ValueError(f"label {max(labels)} out of range for classifier head")
    groups, centers = _cloud_batch(clouds, mcfg, rng)
    logits = model.forward(groups, centers, layers=fcfg.layers, rng=rng)
    loss = cross_entropy(logits, labels)
    if not np.isfinite(loss.data):
        raise FloatingPointError(f"non-finite loss: {loss.item()}")
    acc = float((logits.data.argmax(axis=-1) == np.asarray(labels)).mean())
    ad.backward(loss)
    opt.step()
    opt.zero_grad()
    return loss.item(), acc


def evaluate(model, dataset, mcfg, fcfg, batch=32):
    """Test accuracy over a dataset, deterministic grouping, no augmentation."""
    if not dataset.items:
        raise ValueError("evaluate: empty dataset")
    correct = total = 0
    with ad.no_grad():
        for lo in range(0, len(dataset.items), batch):
            chunk = dataset.items[lo:lo + batch]
            clouds = [c for c, _ in chunk]
            labels = np.array([l for _, l in chunk])
            groups, centers = _cloud_batch(clouds, mcfg, None)
            logits = model.forward(groups, centers, layers=fcfg.layers)
            correct += int((logits.data.argmax(axis=-1) == labels).sum())
            total += len(labels)
    return correct / total


def trainable_params(model, fcfg):
    """The tensors fine-tuning trains: all of model's, its codebook (HTA's centroids) too."""
    return model.params()


def finetune_loop(train_ds, test_ds, mcfg, fcfg, seed=0, init_arrays=None,
                  metrics_path=None, log_every=0):
    """Supervised fine-tuning; returns (model, history, final test accuracy)."""
    model = FinetuneModel(make_rng(seed, 10), mcfg, len(train_ds.class_names),
                          hidden=fcfg.hidden, dropout=fcfg.dropout)
    if init_arrays is not None:
        model.load_params(init_arrays)
    all_idx = np.arange(len(train_ds.items))

    def step_fn(opt, step, rng):
        picks = rng.choice(all_idx, size=min(fcfg.batch_size, len(all_idx)),
                           replace=len(all_idx) < fcfg.batch_size)
        clouds = [train_ds.items[int(i)][0] for i in picks]
        labels = [train_ds.items[int(i)][1] for i in picks]
        loss, acc = finetune_step(model, opt, clouds, labels, mcfg, fcfg, rng)
        return {"step": step, "loss": loss, "train_acc": acc}

    _, history = step_loop(fcfg, trainable_params(model, fcfg), seed, 11, step_fn,
                           metrics_path, ["step", "loss", "train_acc"], log_every,
                           "step {step}: loss={loss:.4f} train_acc={train_acc:.3f}")
    test_acc = evaluate(model, test_ds, mcfg, fcfg) if test_ds else None
    return model, history, test_acc


# ------------------------------------------------------------------ few-shot


@dataclass
class FewShotEpisode:
    support: Dataset
    query: Dataset


def sample_episode(dataset, way, shot, query, rng):
    """K-way N-shot episode: N support + `query` query samples per class, disjoint."""
    if query < 1:
        raise ValueError("the query set is empty")
    buckets = dataset.by_class()
    eligible = [c for c, idxs in buckets.items() if len(idxs) >= shot + query]
    if len(eligible) < way:
        raise ValueError(
            f"few-shot needs {way} classes with >= {shot + query} samples, "
            f"have {len(eligible)}")
    classes = rng.choice(eligible, size=way, replace=False)
    sup_items, qry_items = [], []
    names = []
    for new_label, cls in enumerate(classes):
        names.append(dataset.class_names[int(cls)])
        chosen = rng.choice(buckets[int(cls)], size=shot + query, replace=False)
        for i in chosen[:shot]:
            sup_items.append((dataset.items[int(i)][0], new_label))
        for i in chosen[shot:]:
            qry_items.append((dataset.items[int(i)][0], new_label))
    return FewShotEpisode(
        support=Dataset(items=sup_items, class_names=names, split="support"),
        query=Dataset(items=qry_items, class_names=names, split="query"))


def few_shot(dataset, way, shot, runs, mcfg, fcfg, seed=0, query=20, init_arrays=None):
    """Episodic evaluation; returns (records, mean, std) over independent runs."""
    records = []
    for run in range(runs):
        ep_seed = seed + run
        episode = sample_episode(dataset, way, shot, query, make_rng(ep_seed, 20))
        _, _, acc = finetune_loop(episode.support, episode.query, mcfg, fcfg,
                                  seed=ep_seed, init_arrays=init_arrays)
        records.append({"run": run, "seed": ep_seed, "accuracy": acc})
    accs = np.array([r["accuracy"] for r in records])
    return records, float(accs.mean()), float(accs.std())
