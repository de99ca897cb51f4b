"""Command-line entry points tying the modules into runnable experiments."""

import argparse
import csv
import dataclasses
import os
import sys

from . import autodiff as ad
from .checkpoint import load_checkpoint, model_state, save_checkpoint
from .codebook import temperature
from .config import RunConfig, dump_config, given_settings, load_config, to_flat
from .data import _cloud_batch, gen_shapes, load_dataset, save_dataset
from .finetune import FinetuneModel, evaluate, few_shot, finetune_loop
from .pretrain import PretrainModel, pretrain_loop
from .rng import make_rng

# per-command shorthand flags mapping onto dotted config keys
ALIASES = {
    "pretrain": {"steps": "pretrain.steps", "batch-size": "pretrain.batch_size"},
    "finetune": {"steps": "finetune.steps", "batch-size": "finetune.batch_size"},
    "fewshot": {"runs": "fewshot.runs", "way": "fewshot.way", "shot": "fewshot.shot"},
    "gen-data": {"dir": "data.dir"},
}


def _parse_overrides(command, extra):
    overrides = {}
    i = 0
    while i < len(extra):
        arg = extra[i]
        if not arg.startswith("--"):
            raise ValueError(f"unexpected argument '{arg}'")
        key = arg[2:]
        if key == "from-scratch":
            overrides["finetune.from_scratch"] = True
            i += 1
            continue
        key = ALIASES.get(command, {}).get(key, key)
        if i + 1 >= len(extra):
            raise ValueError(f"flag '{arg}' needs a value")
        overrides[key] = extra[i + 1]
        i += 2
    return overrides


def _generate(cfg, split):
    """The synthetic split of cfg's data settings and seed; each split has its own stream."""
    d = cfg.data
    return gen_shapes(d.families, getattr(d, f"per_class_{split}"), d.points,
                      make_rng(cfg.seed, {"train": 50, "test": 51}[split]), split)


def _dataset(cfg, split):
    """The split in --data.dir, else the one generated from cfg; an empty split is refused."""
    d = cfg.data
    ds = load_dataset(os.path.join(d.dir, split), split) if d.dir else _generate(cfg, split)
    if not ds.items:
        raise ValueError(f"the {split} set is empty")
    return ds


def _snapshot(cfg):
    """cfg's flat settings as a run's config.json and checkpoint record them. A run on
    --data.dir reads the directory, so the other data.* settings, which describe
    generated data, are left out; reading the record back fills in their defaults."""
    flat = to_flat(cfg)
    if cfg.data.dir:
        flat = {k: v for k, v in flat.items() if not k.startswith("data.") or k == "data.dir"}
    return flat


def _prepare_out(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    dump_config(_snapshot(cfg), os.path.join(cfg.out_dir, "config.json"))


def _load_model(cfg, given, prefix, sections):
    """The model in checkpoint cfg.checkpoint, every tensor loaded, and cfg with every
    setting in `sections` taken from the checkpoint. `student.` tensors make a
    PretrainModel, `model.` tensors a FinetuneModel with as many classes as its head has.

    A setting in `sections` that was given (preset, --config or flag) with another
    value than the checkpoint's is refused, and so is a tensor of the model that the
    checkpoint lacks, under its checkpoint name, prefix + name.
    """
    if not cfg.checkpoint:
        kind = "pretrain" if prefix == "student." else "finetune"
        raise ValueError(f"--checkpoint must name a {kind} checkpoint")
    tensors, ck_cfg = load_checkpoint(cfg.checkpoint)
    arrays = {k[len(prefix):]: v for k, v in tensors.items() if k.startswith(prefix)}
    if not arrays:
        raise ValueError(f"{cfg.checkpoint}: no '{prefix}' tensors")
    # older trailers hold keys RunConfig lacks: retired settings and the head's class count
    known = to_flat(RunConfig())
    try:
        saved = load_config(overrides={k: v for k, v in ck_cfg.items() if k in known})
    except ValueError as exc:  # a bad saved value, not a bad flag
        raise ValueError(f"{cfg.checkpoint}: {exc}") from exc
    ck = to_flat(saved)
    for key, value in to_flat(cfg).items():
        if key in given and key.split(".")[0] in sections and value != ck[key]:
            raise ValueError(f"{key} is {value} here but {ck[key]} in {cfg.checkpoint}")
    cfg = dataclasses.replace(cfg, **{s: getattr(saved, s) for s in sections})
    if prefix == "student.":
        model = PretrainModel(make_rng(cfg.seed, 0), cfg.model)
    else:
        model = FinetuneModel(make_rng(cfg.seed, 10), cfg.model,
                              getattr(arrays.get("head.fc3.b"), "size", 0),
                              hidden=cfg.finetune.hidden, dropout=cfg.finetune.dropout)
    missing = [k for k in model.named_tensors() if k not in arrays]
    if missing:
        raise ValueError(f"{cfg.checkpoint}: no tensor '{prefix}{missing[0]}'")
    return model.load_params(arrays), cfg


def _run_sections(cfg):
    """What eval and inspect-codebook take from their checkpoint: its seed, model and
    finetune settings, and its data unless --data.dir names other data."""
    return ("seed", "model", "finetune") + (() if cfg.data.dir else ("data",))


def _refuse_below_one(cfg, *keys):
    flat = to_flat(cfg)
    for key in keys:
        if flat[key] < 1:
            raise ValueError(f"{key} must be at least 1, got {flat[key]}")


def cmd_gen_data(cfg, given):
    out = cfg.data.dir or os.path.join(cfg.out_dir, "data")
    train, test = _generate(cfg, "train"), _generate(cfg, "test")
    save_dataset(os.path.join(out, "train"), train)
    save_dataset(os.path.join(out, "test"), test)
    print(f"wrote {len(train.items)} train / {len(test.items)} test clouds to {out}")
    return 0


def cmd_pretrain(cfg, given):
    p = cfg.pretrain
    _refuse_below_one(cfg, "pretrain.steps", "pretrain.batch_size")
    # step 0 is rehearsed below; the schedule is monotone, so the two ends bound tau
    tau = temperature(p.steps - 1, p.steps, p.tau_start, p.tau_end)
    if tau <= 0:
        raise ValueError(f"quantizer temperature must be positive, got {tau}")
    train = _dataset(cfg, "train")
    # the run's first step on one cloud, writing nothing, refuses what the run would
    # refuse before anything is written; every rng is keyed by step, so the run is unchanged
    pretrain_loop(train, cfg.model, dataclasses.replace(p, steps=1, batch_size=1),
                  seed=cfg.seed)
    _prepare_out(cfg)
    metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
    model, _, _, metrics = pretrain_loop(
        train, cfg.model, cfg.pretrain, seed=cfg.seed,
        metrics_path=metrics_path, log_every=25)
    ckpt = cfg.checkpoint or os.path.join(cfg.out_dir, "pretrain.ckpt")
    save_checkpoint(ckpt, model_state(model, "student."), _snapshot(cfg))
    last = metrics[-1]
    print(f"pretrained {cfg.pretrain.steps} steps: l_total={last['l_total']:.4f} "
          f"perplexity={last['perplexity']:.1f}")
    print(f"checkpoint: {ckpt}")
    print(f"metrics: {metrics_path}")
    return 0


def _initial_weights(command, cfg, given, layers):
    """The pretrain checkpoint's student tensors by name and cfg with its model settings,
    or (None, cfg) under --from-scratch. Exactly one of the two flags must be given, the
    checkpoint must hold every tensor of a pretrain model of its settings, and each id in
    `layers` must name an encoder layer, and there must be at least one."""
    if cfg.finetune.from_scratch == bool(cfg.checkpoint):
        raise ValueError(f"{command} needs exactly one of --checkpoint and --from-scratch")
    init_arrays = None
    if cfg.checkpoint:
        student, cfg = _load_model(cfg, given, "student.", ("model",))
        init_arrays = model_state(student, "")
    depth = cfg.model.enc_depth
    if not layers:
        raise ValueError(f"{command} needs at least one encoder layer id")
    for lid in layers:  # refused, where resolve_layers would wrap it round
        if not -depth <= lid < depth:
            raise ValueError(f"layer id {lid} is outside [-{depth}, {depth}) "
                             f"for an encoder of depth {depth}")
    return init_arrays, cfg


def cmd_finetune(cfg, given):
    _refuse_below_one(cfg, "finetune.steps", "finetune.batch_size")
    init_arrays, cfg = _initial_weights("finetune", cfg, given, cfg.finetune.layers)
    train, test = _dataset(cfg, "train"), _dataset(cfg, "test")
    # the first step rehearsed, as in cmd_pretrain
    finetune_loop(train, None, cfg.model,
                  dataclasses.replace(cfg.finetune, steps=1, batch_size=1),
                  seed=cfg.seed, init_arrays=init_arrays)
    _prepare_out(cfg)
    metrics_path = os.path.join(cfg.out_dir, "finetune_metrics.csv")
    model, _, test_acc = finetune_loop(
        train, test, cfg.model, cfg.finetune, seed=cfg.seed,
        init_arrays=init_arrays, metrics_path=metrics_path, log_every=50)
    out_ckpt = os.path.join(cfg.out_dir, "finetune.ckpt")
    save_checkpoint(out_ckpt, model_state(model, "model."), _snapshot(cfg))
    print(f"test accuracy: {test_acc:.4f}")
    print(f"checkpoint: {out_ckpt}")
    return 0


def cmd_eval(cfg, given):
    model, cfg = _load_model(cfg, given, "model.", _run_sections(cfg))
    acc = evaluate(model, _dataset(cfg, "test"), cfg.model, cfg.finetune)
    print(f"test accuracy: {acc:.4f}")
    return 0


def cmd_fewshot(cfg, given):
    fs = cfg.fewshot
    _refuse_below_one(cfg, "fewshot.runs", "fewshot.way", "fewshot.shot", "fewshot.steps",
                      "finetune.batch_size")
    init_arrays, cfg = _initial_weights("fewshot", cfg, given, fs.layers)
    ep_cfg = dataclasses.replace(cfg.finetune, steps=fs.steps, lr=fs.lr, layers=fs.layers)
    # the run streams nothing, so it runs whole, and refuses what it refuses, before
    # anything is written
    records, mean, std = few_shot(_dataset(cfg, "test"), fs.way, fs.shot, fs.runs,
                                  cfg.model, ep_cfg, seed=cfg.seed, query=fs.query,
                                  init_arrays=init_arrays)
    _prepare_out(cfg)
    report = os.path.join(cfg.out_dir, "fewshot.csv")
    with open(report, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "seed", "accuracy"])
        for r in records:
            writer.writerow([r["run"], r["seed"], f"{r['accuracy']:.6f}"])
        writer.writerow([f"{mean:.6f}", f"{std:.6f}"])
    print(f"{fs.way}-way {fs.shot}-shot over {fs.runs} runs: "
          f"{100 * mean:.2f}% +/- {100 * std:.2f}%")
    print(f"report: {report}")
    return 0


def cmd_inspect_codebook(cfg, given):
    model, cfg = _load_model(cfg, given, "student.", _run_sections(cfg))
    test = _dataset(cfg, "test")
    groups, centers = _cloud_batch([c for c, _ in test.items[:8]], cfg.model, None)
    with ad.no_grad():
        tokens, pos = model.embed(groups, centers)
        ids = model.quantizer.token_ids(model.encoder(tokens, pos)[-1])
    writer = csv.writer(sys.stdout)
    writer.writerow(["x", "y", "z", "token_id"])
    for center, tid in zip(centers.reshape(-1, 3), ids.reshape(-1)):
        writer.writerow([f"{center[0]:.6f}", f"{center[1]:.6f}", f"{center[2]:.6f}", int(tid)])
    return 0


HANDLERS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "fewshot": cmd_fewshot,
    "inspect-codebook": cmd_inspect_codebook,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="m3cs",
        description="Multi-target masked point modeling at desk scale")
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("--config", default=None, help="JSON config (flat dotted keys)")
    parser.add_argument("--preset", choices=["desk", "paper"], default="desk")
    parser.add_argument("--checkpoint", default=None)
    parser.add_argument("--out-dir", default=None)
    args, extra = parser.parse_known_args(argv)
    try:
        flags = _parse_overrides(args.command, extra)
        for key in ("checkpoint", "out_dir"):
            if getattr(args, key):
                flags[key] = getattr(args, key)
        given = given_settings(args.config, flags, args.preset)
        cfg = load_config(overrides=given)
        # a --data.dir run's config.json holds data.dir alone, but any other run's holds every
        # data.* key, so a --config data.* key counts only at a value other than its default
        default = to_flat(RunConfig())
        dropped = [k for k, v in to_flat(cfg).items() if k in given and k.startswith("data.")
                   and k != "data.dir" and (k in flags or v != default[k])]
        if cfg.data.dir and dropped and args.command != "gen-data":
            raise ValueError(f"{dropped[0]} is ignored when --data.dir is set")
        return HANDLERS[args.command](cfg, given)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"m3cs {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
