import json
import os
import struct

import numpy as np
import pytest

from m3cs.checkpoint import (
    collect_finetune_state,
    collect_pretrain_state,
    load_checkpoint,
    save_checkpoint,
)
from m3cs.cli import main
from m3cs.config import (
    ModelConfig,
    PAPER_SHAPE,
    RunConfig,
    apply_flat,
    load_config,
    to_flat,
)
from m3cs.rng import make_rng

TINY_FLAGS = [
    "--model.c", "16", "--model.heads", "2", "--model.enc_depth", "2",
    "--model.dec_depth", "2", "--model.g", "8", "--model.s", "4",
    "--model.t", "8", "--model.n_points", "64",
    "--data.per_class_train", "2", "--data.per_class_test", "2",
    "--data.points", "64",
]


# ------------------------------------------------------------------- config


def test_flat_roundtrip():
    cfg = RunConfig()
    flat = to_flat(cfg)
    assert flat["model.c"] == 96
    assert flat["finetune.layers"] == [1, 3, 5]
    cfg2 = apply_flat(RunConfig(), {"model.c": "128", "pretrain.eta": "0.5",
                                    "finetune.layers": "0,3,5"})
    assert cfg2.model.c == 128
    assert cfg2.pretrain.eta == 0.5
    assert cfg2.finetune.layers == (0, 3, 5)


def test_unknown_key_rejected():
    with pytest.raises(KeyError, match="unknown config key"):
        apply_flat(RunConfig(), {"model.width": 7})


def test_bool_coercion():
    cfg = apply_flat(RunConfig(), {"model.siamese": "false"})
    assert cfg.model.siamese is False
    with pytest.raises(ValueError, match="boolean"):
        apply_flat(RunConfig(), {"model.siamese": "maybe"})


def test_paper_preset():
    cfg = load_config(preset="paper")
    assert cfg.model.c == 384
    assert cfg.model.g == 64
    assert cfg.model.s == 32
    assert cfg.model.n_points == 1024
    for key, val in PAPER_SHAPE.items():
        assert to_flat(cfg)[key] == val


def test_config_file_plus_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model.c": 32, "seed": 3}))
    cfg = load_config(str(path), overrides={"model.c": "48"})
    assert cfg.model.c == 48
    assert cfg.seed == 3


# --------------------------------------------------------------- checkpoint


def test_checkpoint_bit_exact_roundtrip(tmp_path):
    rng = make_rng(0)
    tensors = {
        "a.w": rng.normal(size=(3, 4)).astype(np.float32),
        "b": rng.normal(size=(7,)).astype(np.float32),
        "scalar": np.float32(2.5).reshape(()),
    }
    config = {"model.c": 16, "seed": 1}
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, tensors, config)
    loaded, cfg = load_checkpoint(path)
    assert cfg == config
    assert set(loaded) == set(tensors)
    for k in tensors:
        assert loaded[k].dtype == np.float32
        assert loaded[k].tobytes() == np.asarray(tensors[k], dtype="<f4").tobytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_version_refused(tmp_path):
    path = tmp_path / "v9.ckpt"
    path.write_bytes(b"M3CS" + struct.pack("<II", 9, 0) + struct.pack("<Q", 2) + b"{}")
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncated_at_every_byte(tmp_path):
    full = tmp_path / "full.ckpt"
    save_checkpoint(full, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                           "s": np.float32(1.5).reshape(())}, {"seed": 1})
    raw = full.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(ValueError, match=f"cut.ckpt: truncated at byte {n}$"):
            load_checkpoint(cut)
    cut.write_bytes(raw)
    assert load_checkpoint(cut)[1] == {"seed": 1}


def test_collect_pretrain_state_names():
    from m3cs.optim import AdamW
    from m3cs.pretrain import PretrainModel, init_teacher

    mcfg = ModelConfig(c=16, heads=2, enc_depth=2, dec_depth=2, g=8, s=4, t=8,
                       n_points=64)
    model = PretrainModel(make_rng(0), mcfg)
    teacher = init_teacher(model)
    opt = AdamW(model.params(), total_steps=10)
    state = collect_pretrain_state(model, teacher, opt)
    assert any(k.startswith("student.encoder.") for k in state)
    assert any(k.startswith("teacher.") for k in state)
    assert any(k.startswith("opt.m.") for k in state)
    assert "opt.step" in state


# ------------------------------------------------------------------ CLI flows


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny pretrain -> finetune pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    pre_dir = str(root / "pre")
    rc = main(["pretrain", "--out-dir", pre_dir, "--steps", "3",
               "--batch-size", "2", "--pretrain.warmup", "1", *TINY_FLAGS])
    assert rc == 0
    ckpt = os.path.join(pre_dir, "pretrain.ckpt")
    ft_dir = str(root / "ft")
    rc = main(["finetune", "--out-dir", ft_dir, "--checkpoint", ckpt,
               "--steps", "3", "--batch-size", "2", "--finetune.warmup", "1",
               *TINY_FLAGS])
    assert rc == 0
    return {"root": root, "pre_dir": pre_dir, "ckpt": ckpt, "ft_dir": ft_dir}


def test_cli_gen_data(tmp_path, capsys):
    rc = main(["gen-data", "--dir", str(tmp_path / "data"), *TINY_FLAGS])
    assert rc == 0
    out = capsys.readouterr().out
    assert "8 train / 8 test" in out
    assert os.path.exists(tmp_path / "data" / "train" / "manifest.csv")
    assert os.path.exists(tmp_path / "data" / "test" / "manifest.csv")


def test_cli_pretrain_outputs(trained):
    pre_dir = trained["pre_dir"]
    assert os.path.exists(trained["ckpt"])
    with open(os.path.join(pre_dir, "metrics.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "step,l_align,l_rec,l_total,lambda,tau,perplexity"
    assert len(lines) == 4
    with open(os.path.join(pre_dir, "config.json")) as fh:
        cfg = json.load(fh)
    assert cfg["model.c"] == 16
    assert cfg["pretrain.steps"] == 3


def test_cli_finetune_outputs(trained):
    ft_dir = trained["ft_dir"]
    assert os.path.exists(os.path.join(ft_dir, "finetune.ckpt"))
    tensors, cfg = load_checkpoint(os.path.join(ft_dir, "finetune.ckpt"))
    assert cfg["n_classes"] == 4
    assert any(k.startswith("model.head.") for k in tensors)


def test_cli_finetune_needs_checkpoint(tmp_path, capsys):
    rc = main(["finetune", "--out-dir", str(tmp_path / "x"), "--steps", "1",
               *TINY_FLAGS])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_finetune_from_scratch(tmp_path):
    rc = main(["finetune", "--out-dir", str(tmp_path / "scr"), "--steps", "2",
               "--batch-size", "2", "--from-scratch", "--finetune.warmup", "1",
               *TINY_FLAGS])
    assert rc == 0


def test_cli_eval_matches_finetune(trained, capsys):
    ft_ckpt = os.path.join(trained["ft_dir"], "finetune.ckpt")
    rc = main(["eval", "--checkpoint", ft_ckpt])
    assert rc == 0
    first = capsys.readouterr().out
    rc = main(["eval", "--checkpoint", ft_ckpt])
    assert rc == 0
    second = capsys.readouterr().out
    assert first == second
    assert "test accuracy:" in first


def test_cli_fewshot(trained, tmp_path, capsys):
    out_dir = str(tmp_path / "fs")
    rc = main(["fewshot", "--out-dir", out_dir, "--checkpoint", trained["ckpt"],
               "--runs", "2", "--way", "2", "--shot", "2",
               "--fewshot.query", "2", "--fewshot.steps", "2",
               "--finetune.batch_size", "2", *TINY_FLAGS,
               "--data.per_class_test", "6"])
    assert rc == 0
    assert "2-way 2-shot over 2 runs" in capsys.readouterr().out
    with open(os.path.join(out_dir, "fewshot.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "run,seed,accuracy"
    assert len(lines) == 4  # header + 2 runs + mean,std summary
    mean, std = map(float, lines[-1].split(","))
    accs = [float(l.split(",")[2]) for l in lines[1:3]]
    assert mean == pytest.approx(np.mean(accs), abs=1e-6)
    assert std == pytest.approx(np.std(accs), abs=1e-6)


def test_cli_inspect_codebook(trained, capsys):
    rc = main(["inspect-codebook", "--checkpoint", trained["ckpt"]])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,z,token_id"
    # 8 patches per cloud, at most 8 clouds
    assert 8 <= len(lines) - 1 <= 64
    for line in lines[1:]:
        x, y, z, tid = line.split(",")
        float(x), float(y), float(z)
        assert 0 <= int(tid) < 8


def test_cli_unknown_config_key(tmp_path, capsys):
    rc = main(["pretrain", "--out-dir", str(tmp_path / "p"), "--model.width", "8"])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


def test_cli_flag_without_value(capsys):
    rc = main(["pretrain", "--steps"])
    assert rc == 1
    assert "needs a value" in capsys.readouterr().err


def test_cli_eval_missing_checkpoint(capsys):
    rc = main(["eval"])
    assert rc == 1
    assert "checkpoint" in capsys.readouterr().err


def test_cli_eval_truncated_checkpoint(trained, tmp_path, capsys):
    raw = (trained["root"] / "ft" / "finetune.ckpt").read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(raw[:len(raw) // 2])
    rc = main(["eval", "--checkpoint", str(cut)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"m3cs eval: error: {cut}: truncated at byte {len(raw) // 2}"]


def test_checkpoint_reload_gives_identical_logits(trained):
    from m3cs.cli import _load_finetuned
    from m3cs.finetune import _cloud_batch
    from m3cs.data import gen_shapes

    cfg = load_config(overrides={"checkpoint": os.path.join(trained["ft_dir"],
                                                            "finetune.ckpt")})
    model_a, saved = _load_finetuned(cfg)
    model_b, _ = _load_finetuned(cfg)
    ds = gen_shapes(["sphere"], 2, 64, make_rng(42), "test")
    clouds = [c for c, _ in ds.items]
    groups, centers = _cloud_batch(clouds, saved.model, None, train=False)
    la = model_a.forward(groups, centers, layers=saved.finetune.layers).data
    lb = model_b.forward(groups, centers, layers=saved.finetune.layers).data
    np.testing.assert_array_equal(la, lb)
