"""Run configuration: dataclasses with desk-scale defaults, flat dotted-key JSON."""

import contextlib
import dataclasses
import json
import math
from dataclasses import dataclass, field


@dataclass
class ModelConfig:
    c: int = 96             # token width
    heads: int = 4
    enc_depth: int = 6
    dec_depth: int = 4
    g: int = 32             # patches per cloud
    s: int = 16             # points per patch (center + s-1 neighbors)
    t: int = 64             # codebook size
    n_points: int = 512     # points per cloud after sampling
    siamese: bool = True    # share decoder weights between the two branches


@dataclass
class PretrainConfig:
    steps: int = 500
    batch_size: int = 16
    mask_ratio: float = 0.65
    mask_kind: str = "random"   # random | block
    eta: float = 1.0            # point-loss weight in the total loss
    beta: float = 1.0           # smooth-l1 threshold
    lr: float = 1e-3
    weight_decay: float = 0.05
    warmup: int = 30
    lam_start: float = 0.996    # EMA momentum schedule (linear)
    lam_end: float = 1.0
    tau_start: float = 1.0      # Gumbel-softmax temperature schedule
    tau_end: float = 0.0625


@dataclass
class FinetuneConfig:
    steps: int = 300
    batch_size: int = 16
    lr: float = 5e-4
    weight_decay: float = 0.05
    warmup: int = 20
    layers: tuple = (1, 3, 5)   # encoder hidden layers feeding HTA; -1 = last
    dropout: float = 0.2
    hidden: int = 256
    from_scratch: bool = False


@dataclass
class FewshotConfig:
    way: int = 2
    shot: int = 5
    query: int = 20
    runs: int = 10
    steps: int = 60
    # episodes carry too few samples for the mid-layer ensemble or the cool
    # default lr to help; last-layer features with a hotter lr transfer best
    lr: float = 1e-3
    layers: tuple = (-1,)


@dataclass
class DataConfig:
    families: tuple = ("sphere", "cube", "torus", "cylinder")
    per_class_train: int = 128
    per_class_test: int = 32
    points: int = 1024
    dir: str = ""               # when set, load .xyz + manifest.csv instead of generating


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    checkpoint: str = ""
    model: ModelConfig = field(default_factory=ModelConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    fewshot: FewshotConfig = field(default_factory=FewshotConfig)
    data: DataConfig = field(default_factory=DataConfig)


PAPER_SHAPE = {
    "model.c": 384, "model.heads": 6, "model.enc_depth": 12,
    "model.g": 64, "model.s": 32, "model.n_points": 1024, "model.t": 256,
}


def _sections(cfg):
    return {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}


def to_flat(cfg):
    """RunConfig -> flat dict with dotted keys."""
    flat = {}
    for name, val in _sections(cfg).items():
        if dataclasses.is_dataclass(val):
            for f in dataclasses.fields(val):
                v = getattr(val, f.name)
                flat[f"{name}.{f.name}"] = list(v) if isinstance(v, tuple) else v
        else:
            flat[name] = val
    return flat


def at_least_one(section, **values):
    """Refuse a value below 1, naming it section.<name>."""
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"{section}.{name} must be at least 1, got {value}")


def check_run(section, cfg):
    """Refuse a run of cfg with fewer than one step or one sample a batch."""
    at_least_one(section, steps=cfg.steps, batch_size=cfg.batch_size)


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
             tuple: "a list"}
_ACCEPTS = {int: (int,), float: (int, float), str: (str,)}  # besides a string to parse


def _coerce(key, default, value):
    """value as default's type. A string is parsed and a list coerced item by item; any
    other value that is not of that type (a bool or 1.5 for an integer, say), and a
    number that is not finite, is refused."""
    kind = type(default)
    if kind is tuple:
        if isinstance(value, str):
            value = [x for x in value.replace(",", " ").split() if x]
        if isinstance(value, (list, tuple)):
            return tuple(_coerce(key, default[0] if default else "", x) for x in value)
    elif kind is bool:
        if str(value).lower() in _BOOLS:
            return _BOOLS[str(value).lower()]
    else:
        if isinstance(value, str):
            with contextlib.suppress(ValueError):
                value = kind(value)
        if isinstance(value, _ACCEPTS[kind]) and not isinstance(value, bool):
            value = kind(value)
            if kind is float and not math.isfinite(value):
                raise ValueError(f"config key '{key}': expected a finite number, got {value!r}")
            return value
    raise ValueError(f"config key '{key}': expected {_EXPECTED[kind]}, got {value!r}")


def apply_flat(cfg, flat):
    """Apply dotted-key overrides in place; unknown keys are rejected."""
    known = to_flat(cfg)
    for key, value in flat.items():
        if key not in known:
            raise ValueError(f"unknown config key '{key}'")
        if "." in key:
            section, name = key.split(".", 1)
            target = getattr(cfg, section)
        else:
            target, name = cfg, key
        setattr(target, name, _coerce(key, getattr(target, name), value))
    return cfg


@contextlib.contextmanager
def naming_file(path):
    """Prefix `<path>: ` to a UTF-8 or JSON decode error, whose message names no file."""
    try:
        yield
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def given_settings(path=None, overrides=None, preset=None):
    """Flat settings from the preset, then the JSON file at path, then overrides; later wins."""
    given = dict(PAPER_SHAPE) if preset == "paper" else {}
    if path:
        with open(path) as fh, naming_file(path):
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{path}: expected a JSON object")
        given.update(loaded)
    given.update(overrides or {})
    return given


def load_config(path=None, overrides=None, preset=None):
    return apply_flat(RunConfig(), given_settings(path, overrides, preset))


def dump_config(cfg, path):
    """Write cfg, a RunConfig or its flat settings, as flat dotted-key JSON."""
    with open(path, "w") as fh:
        json.dump(cfg if isinstance(cfg, dict) else to_flat(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
