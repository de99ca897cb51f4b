import dataclasses
import json
import os
import shutil
import struct

import numpy as np
import pytest

from m3cs.checkpoint import load_checkpoint, model_state, save_checkpoint
from m3cs.cli import _dataset, main
from m3cs.config import (
    ModelConfig,
    PAPER_SHAPE,
    RunConfig,
    apply_flat,
    dump_config,
    load_config,
    to_flat,
)
from m3cs.data import Dataset, gen_shapes, save_dataset
from m3cs.finetune import few_shot, finetune_loop
from m3cs.pretrain import pretrain_loop
from m3cs.rng import make_rng

# two encoder blocks, so the fine-tune head reads layer 1, the last one
TINY_MODEL_FLAGS = [
    "--model.c", "16", "--model.heads", "2", "--model.enc_depth", "2",
    "--model.dec_depth", "2", "--model.g", "8", "--model.s", "4",
    "--model.t", "8", "--model.n_points", "64", "--finetune.layers", "1",
]
TINY_FLAGS = [
    *TINY_MODEL_FLAGS, "--data.per_class_train", "2", "--data.per_class_test", "2",
    "--data.points", "64",
]
# a short run of each command that fine-tunes
FEWSHOT_FLAGS = ["--runs", "1", "--way", "2", "--shot", "1", "--fewshot.query", "1",
                 "--fewshot.steps", "1", "--finetune.batch_size", "2"]
RUN_FLAGS = {"finetune": ["--steps", "1", "--batch-size", "2"], "fewshot": FEWSHOT_FLAGS}


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
    with pytest.raises(ValueError, match="unknown config key"):
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


@pytest.mark.parametrize("text, message", [
    ('{"model.c": [16]}', "config key 'model.c': expected an integer, got [16]"),
    ('{"model.c": null}', "config key 'model.c': expected an integer, got None"),
    ('{"model.c": 1.5}', "config key 'model.c': expected an integer, got 1.5"),
    ('{"model.c": true}', "config key 'model.c': expected an integer, got True"),
    ('{"pretrain.steps": 1.5}', "config key 'pretrain.steps': expected an integer, got 1.5"),
    ('{"pretrain.steps": true}',
     "config key 'pretrain.steps': expected an integer, got True"),
    ('{"pretrain.lr": false}', "config key 'pretrain.lr': expected a number, got False"),
    ('{"finetune.layers": 5}', "config key 'finetune.layers': expected a list, got 5"),
    ('{"finetune.layers": [1, 2.5]}',
     "config key 'finetune.layers': expected an integer, got 2.5"),
    ('{"out_dir": 3}', "config key 'out_dir': expected a string, got 3"),
    ("[1, 2]", "{path}: expected a JSON object"),
    ('{"pretrain.eta": NaN}', "config key 'pretrain.eta': expected a finite number, got nan"),
    ('{"pretrain.lr": Infinity}',
     "config key 'pretrain.lr': expected a finite number, got inf"),
    ('{"pretrain.tau_end": -Infinity}',
     "config key 'pretrain.tau_end': expected a finite number, got -inf"),
    ("{]", "{path}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (b"\xff\xfe", "{path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["c-list", "c-null", "c-float", "c-bool", "steps-float", "steps-bool", "lr-bool",
        "layers-int", "layers-float-item", "out_dir-int", "top-level-list", "eta-nan",
        "lr-inf", "tau_end-minus-inf", "not-json", "not-utf8"])
def test_cli_refuses_config_value_of_wrong_type(tmp_path, capsys, text, message):
    # the config is read before any command runs, so eval needs no checkpoint here
    path = tmp_path / "cfg.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    rc = main(["eval", "--config", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        f"m3cs eval: error: {message.format(path=path)}"]


def test_cli_refuses_flag_of_wrong_type(capsys):
    for key, value, message in [
        ("model.c", "1.5", "expected an integer, got '1.5'"),
        ("pretrain.eta", "nan", "expected a finite number, got nan"),
        ("pretrain.tau_end", "inf", "expected a finite number, got inf"),
        ("pretrain.lr", "-inf", "expected a finite number, got -inf"),
    ]:
        rc = main(["eval", f"--{key}", value])
        assert rc == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"m3cs eval: error: config key '{key}': {message}"]


@pytest.mark.parametrize("preset", ["desk", "paper"])
def test_dumped_config_loads_back(tmp_path, preset):
    cfg = load_config(preset=preset, overrides={
        "finetune.layers": "0,-1", "model.siamese": "false", "pretrain.eta": 2,
        "data.dir": "d", "data.families": "cube torus"})
    path = tmp_path / "config.json"
    dump_config(cfg, path)
    assert load_config(str(path)) == cfg


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


def test_checkpoint_failed_save_keeps_old_file(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 3), np.float32)}, {"seed": 1})
    with pytest.raises(TypeError):  # the config is written last, after every tensor
        save_checkpoint(path, {"w": np.zeros((2, 3), np.float32)}, {"seed": object()})
    tensors, config = load_checkpoint(path)
    assert config == {"seed": 1}
    np.testing.assert_array_equal(tensors["w"], np.ones((2, 3), np.float32))
    assert os.listdir(tmp_path) == ["t.ckpt"]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_tensor_name_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "name.ckpt"
    save_checkpoint(path, {"w": np.zeros((2, 3), np.float32)}, {"seed": 0})
    raw = bytearray(path.read_bytes())
    raw[16:17] = b"\xff"  # the name "w" follows magic, version, count and name_len
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="name.ckpt: 'utf-8' codec can't decode byte 0xff"):
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


def test_collect_pretrain_state_names(trained):
    from m3cs.pretrain import PretrainModel

    # a pretrain checkpoint holds the student alone: no EMA teacher, no AdamW state
    tensors, cfg = load_checkpoint(trained["ckpt"])
    model = PretrainModel(make_rng(0), load_config(overrides=cfg).model)
    assert list(tensors) == [f"student.{k}" for k in model.params()]
    assert list(model_state(model, "student.")) == list(tensors)


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


def test_cli_finetune_on_data_dir_matches_in_memory_run(trained, tmp_path):
    # .xyz files keep every coordinate's float64 bits, so the metrics match byte for byte
    data_dir = str(tmp_path / "data")
    assert main(["gen-data", "--dir", data_dir, *TINY_FLAGS]) == 0
    ft_dir = tmp_path / "ft"
    assert main(["finetune", "--out-dir", str(ft_dir), "--checkpoint", trained["ckpt"],
                 "--steps", "3", "--batch-size", "2", "--finetune.warmup", "1",
                 *TINY_MODEL_FLAGS, "--data.dir", data_dir]) == 0
    with open(os.path.join(trained["ft_dir"], "finetune_metrics.csv"), "rb") as fh:
        assert (ft_dir / "finetune_metrics.csv").read_bytes() == fh.read()


def _assert_same_tensors(saved, model_tensors):
    assert saved.keys() == model_tensors.keys()
    for name, value in model_tensors.items():
        assert saved[name].dtype == value.dtype and saved[name].tobytes() == value.tobytes()


def test_cli_pretrain_outputs(trained, tmp_path):
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
    # the first step the command rehearses before writing leaves no trace on its run:
    # the library's run of the same settings gives the same rows and weights, bit for bit
    cfg = load_config(os.path.join(pre_dir, "config.json"))
    model, _, _, _ = pretrain_loop(_dataset(cfg, "train"), cfg.model, cfg.pretrain,
                                   seed=cfg.seed, metrics_path=str(tmp_path / "m.csv"))
    with open(os.path.join(pre_dir, "metrics.csv"), "rb") as fh:
        assert (tmp_path / "m.csv").read_bytes() == fh.read()
    _assert_same_tensors(load_checkpoint(trained["ckpt"])[0], model_state(model, "student."))


def test_cli_finetune_outputs(trained, tmp_path):
    ft_dir = trained["ft_dir"]
    assert os.path.exists(os.path.join(ft_dir, "finetune.ckpt"))
    tensors, cfg = load_checkpoint(os.path.join(ft_dir, "finetune.ckpt"))
    # the head holds the class count, and the trailer records the run's config alone
    assert tensors["model.head.fc3.b"].shape == (4,) and "n_classes" not in cfg
    assert any(k.startswith("model.head.") for k in tensors)
    # as in test_cli_pretrain_outputs; the rehearsed step must not move the initial weights
    cfg = load_config(os.path.join(ft_dir, "config.json"))
    init = {k[len("student."):]: v for k, v in load_checkpoint(trained["ckpt"])[0].items()}
    model, _, _ = finetune_loop(_dataset(cfg, "train"), _dataset(cfg, "test"), cfg.model,
                                cfg.finetune, seed=cfg.seed, init_arrays=init,
                                metrics_path=str(tmp_path / "m.csv"))
    with open(os.path.join(ft_dir, "finetune_metrics.csv"), "rb") as fh:
        assert (tmp_path / "m.csv").read_bytes() == fh.read()
    _assert_same_tensors(tensors, model_state(model, "model."))


@pytest.mark.parametrize("command", ["finetune", "fewshot"])
@pytest.mark.parametrize("both", [False, True], ids=["neither", "both"])
def test_cli_needs_one_of_checkpoint_and_from_scratch(trained, tmp_path, capsys, command, both):
    start = ["--checkpoint", trained["ckpt"], "--from-scratch"] if both else []
    out_dir = tmp_path / "o"
    rc = main([command, "--out-dir", str(out_dir), *start, *RUN_FLAGS[command], *TINY_FLAGS])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        f"m3cs {command}: error: {command} needs exactly one of --checkpoint and --from-scratch"]
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["finetune", "fewshot"])
def test_cli_from_scratch(tmp_path, command):
    rc = main([command, "--out-dir", str(tmp_path / "scr"), "--from-scratch",
               *RUN_FLAGS[command], *TINY_FLAGS])
    assert rc == 0


def test_cli_checkpoint_trailers_hold_config_keys_alone(trained):
    known = to_flat(RunConfig())
    for ckpt in (trained["ckpt"], os.path.join(trained["ft_dir"], "finetune.ckpt")):
        assert load_checkpoint(ckpt)[1].keys() <= known.keys()


@pytest.mark.parametrize("n_classes", [3, 4])
def test_cli_eval_takes_class_count_from_head(trained, tmp_path, capsys, n_classes):
    # earlier versions also recorded n_classes in the trailer; it is ignored, so a trailer
    # that disagrees with the head's 4 classes evaluates by the head
    ft_ckpt = os.path.join(trained["ft_dir"], "finetune.ckpt")
    tensors, cfg = load_checkpoint(ft_ckpt)
    assert tensors["model.head.fc3.b"].shape == (4,)
    old_ckpt = tmp_path / "old.ckpt"
    save_checkpoint(old_ckpt, tensors, {**cfg, "n_classes": n_classes})
    outputs = []
    for path in (ft_ckpt, old_ckpt):
        assert main(["eval", "--checkpoint", str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].out.startswith("test accuracy:")


def test_cli_eval_refuses_scalar_head_bias(trained, tmp_path, capsys):
    tensors, cfg = load_checkpoint(os.path.join(trained["ft_dir"], "finetune.ckpt"))
    tensors["model.head.fc3.b"] = np.float32(0.0).reshape(())
    path = tmp_path / "scalar.ckpt"
    save_checkpoint(path, tensors, cfg)
    assert main(["eval", "--checkpoint", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("m3cs eval: error: tensor 'head.fc3.")
    assert "has shape" in err[0]


@pytest.mark.parametrize("trailer, message", [
    ([1, 2], "config trailer is not a JSON object"),
    ({"model.c": 1.5}, "config key 'model.c': expected an integer, got 1.5"),
    (b"{]", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["list", "float-width", "not-json", "not-utf8"])
def test_cli_eval_refuses_bad_trailer_naming_the_file(trained, tmp_path, capsys, trailer,
                                                      message):
    tensors, cfg = load_checkpoint(os.path.join(trained["ft_dir"], "finetune.ckpt"))
    path = tmp_path / "bad.ckpt"
    if isinstance(trailer, bytes):  # the two-byte trailer "{}", overwritten in place
        save_checkpoint(path, tensors, {})
        with open(path, "r+b") as fh:
            fh.seek(-2, os.SEEK_END)
            fh.write(trailer)
    else:
        save_checkpoint(path, tensors, trailer if isinstance(trailer, list) else {**cfg, **trailer})
    assert main(["eval", "--checkpoint", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [f"m3cs eval: error: {path}: {message}"]


def test_cli_three_class_run_evaluates_as_it_fine_tuned(tmp_path, capsys):
    # every other CLI test runs the default four families
    flags = [*TINY_FLAGS, "--data.families", "sphere,cube,torus"]
    ft_dir = tmp_path / "ft"
    assert main(["finetune", "--out-dir", str(ft_dir), "--from-scratch",
                 *RUN_FLAGS["finetune"], *flags]) == 0
    accuracy = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("test accuracy:")]
    ckpt = ft_dir / "finetune.ckpt"
    assert load_checkpoint(ckpt)[0]["model.head.fc3.b"].shape == (3,)
    assert main(["eval", "--checkpoint", str(ckpt)]) == 0
    assert capsys.readouterr().out.splitlines() == accuracy and len(accuracy) == 1


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
    # the command's accuracies are the library's, episode by episode
    cfg = load_config(os.path.join(out_dir, "config.json"))
    fs = cfg.fewshot
    init = {k[len("student."):]: v for k, v in load_checkpoint(trained["ckpt"])[0].items()}
    records, _, _ = few_shot(_dataset(cfg, "test"), fs.way, fs.shot, fs.runs, cfg.model,
                             dataclasses.replace(cfg.finetune, steps=fs.steps, lr=fs.lr,
                                                 layers=fs.layers),
                             seed=cfg.seed, query=fs.query, init_arrays=init)
    assert [l.split(",")[2] for l in lines[1:3]] == [f"{r['accuracy']:.6f}" for r in records]


def test_cli_runs_from_checkpoint_with_teacher_and_optimizer_state(trained, tmp_path,
                                                                   capsys):
    # earlier pretrain checkpoints also held the EMA teacher and the AdamW state; the
    # commands read the student alone, so such a file gives the same output
    tensors, cfg = load_checkpoint(trained["ckpt"])
    old = dict(tensors)
    for k, v in tensors.items():
        k = k[len("student."):]
        if k.startswith("encoder."):
            old[f"teacher.{k[len('encoder.'):]}"] = v + 1
        old[f"opt.m.{k}"], old[f"opt.v.{k}"] = v - 1, v * v
    old["opt.step"] = np.array([3.0], dtype=np.float32)
    old_ckpt = str(tmp_path / "old.ckpt")
    save_checkpoint(old_ckpt, old, cfg)
    assert len(load_checkpoint(old_ckpt)[0]) > 3 * len(tensors)
    runs = {"finetune": [*RUN_FLAGS["finetune"], *TINY_FLAGS],
            "fewshot": [*FEWSHOT_FLAGS, *TINY_FLAGS], "inspect-codebook": []}
    for command, flags in runs.items():
        out_dir = ["--out-dir", str(tmp_path / command)] if flags else []
        stdout = []
        for ckpt in (trained["ckpt"], old_ckpt):
            assert main([command, *out_dir, "--checkpoint", ckpt, *flags]) == 0
            stdout.append(capsys.readouterr().out)
        assert stdout[0] == stdout[1] and stdout[0]


RETIRED = {"pretrain.tau_schedule": "cosine", "finetune.freeze_codebook": False}


def test_cli_runs_from_checkpoint_that_names_retired_keys(trained, tmp_path, capsys):
    # earlier checkpoints also record the retired settings pretrain.tau_schedule and
    # finetune.freeze_codebook; the commands drop them, so such a file gives the same output
    ft_ckpt = os.path.join(trained["ft_dir"], "finetune.ckpt")
    runs = [("finetune", trained["ckpt"], [*RUN_FLAGS["finetune"], *TINY_FLAGS]),
            ("inspect-codebook", trained["ckpt"], []), ("eval", ft_ckpt, [])]
    for command, ckpt, flags in runs:
        tensors, cfg = load_checkpoint(ckpt)
        assert not RETIRED.keys() & cfg.keys()
        old_ckpt = str(tmp_path / f"old-{command}.ckpt")
        save_checkpoint(old_ckpt, tensors, {**cfg, **RETIRED})
        out_dir = tmp_path / command
        outputs = []
        for path in (ckpt, old_ckpt):
            assert main([command, "--out-dir", str(out_dir), "--checkpoint", path, *flags]) == 0
            written = None
            if command == "finetune":  # its config.json records the --checkpoint path
                written = ((out_dir / "finetune_metrics.csv").read_bytes(),
                           {k: v.tobytes() for k, v in
                            load_checkpoint(str(out_dir / "finetune.ckpt"))[0].items()})
            outputs.append((capsys.readouterr().out, written))
        assert outputs[0] == outputs[1] and outputs[0][0]


@pytest.mark.parametrize("command, key", [("pretrain", "pretrain.tau_schedule"),
                                          ("finetune", "finetune.freeze_codebook")])
def test_cli_refuses_config_that_names_retired_key(tmp_path, capsys, command, key):
    # an earlier run's config.json names both retired keys; as --config it is refused
    path = tmp_path / "config.json"
    dump_config({**to_flat(RunConfig()), key: RETIRED[key]}, path)
    out_dir = tmp_path / "o"
    rc = main([command, "--config", str(path), "--out-dir", str(out_dir)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        f"m3cs {command}: error: unknown config key '{key}'"]
    assert captured.out == ""
    assert not out_dir.exists()


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


def test_cli_inspect_codebook_shows_eval_patches(tmp_path, capsys):
    from m3cs.cli import _dataset, _load_model
    from m3cs.data import _cloud_batch

    # clouds of 100 points, patched from 64 as evaluation patches them
    pre_dir = str(tmp_path / "pre")
    rc = main(["pretrain", "--out-dir", pre_dir, "--steps", "2", "--batch-size", "2",
               "--pretrain.warmup", "1", *TINY_FLAGS, "--data.points", "100"])
    assert rc == 0
    ckpt = os.path.join(pre_dir, "pretrain.ckpt")
    capsys.readouterr()
    assert main(["inspect-codebook", "--checkpoint", ckpt]) == 0
    rows = [line.split(",")[:3] for line in capsys.readouterr().out.strip().splitlines()[1:]]
    saved = _load_model(load_config(overrides={"checkpoint": ckpt}), {}, "student.",
                        ("seed", "model", "data"))[1]
    test = _dataset(saved, "test")
    _, centers = _cloud_batch([c for c, _ in test.items[:8]], saved.model, None)
    assert rows == [[f"{v:.6f}" for v in center] for center in centers.reshape(-1, 3)]


@pytest.mark.parametrize("command, kind, prefix, flags", [
    ("finetune", "finetune", "student.", ["--steps", "1", "--batch-size", "2"]),
    ("fewshot", "finetune", "student.", ["--runs", "1", "--way", "2", "--shot", "1",
                                         "--fewshot.query", "1", "--fewshot.steps", "1"]),
    ("inspect-codebook", "finetune", "student.", []),
    ("eval", "pretrain", "model.", []),
])
def test_cli_refuses_checkpoint_of_wrong_kind(trained, tmp_path, capsys, command, kind,
                                              prefix, flags):
    ckpt = trained["ckpt"] if kind == "pretrain" else os.path.join(trained["ft_dir"],
                                                                   "finetune.ckpt")
    rc = main([command, "--out-dir", str(tmp_path / "o"), "--checkpoint", ckpt, *flags,
               *TINY_FLAGS])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"m3cs {command}: error: {ckpt}: no '{prefix}' tensors"]


@pytest.mark.parametrize("command, kind, flags, split", [
    ("finetune", "pretrain", ["--steps", "1", "--batch-size", "2",
                              "--data.per_class_test", "0"], "test"),
    ("finetune", "pretrain", ["--steps", "1", "--batch-size", "2", "--data.dir"], "test"),
    ("eval", "finetune", ["--data.dir"], "test"),
    ("inspect-codebook", "pretrain", ["--data.dir"], "test"),
    ("fewshot", "pretrain", ["--runs", "1", "--way", "2", "--shot", "1",
                             "--fewshot.query", "0", "--fewshot.steps", "1"], "query"),
])
def test_cli_refuses_empty_test_set(trained, tmp_path, capsys, command, kind, flags, split):
    # an empty test set comes from the flag or from a data dir with an empty test split;
    # fewshot's per-episode test set is its query set
    data_dir = str(tmp_path / "data")
    assert main(["gen-data", "--dir", data_dir, *TINY_FLAGS, "--data.per_class_test", "0"]) == 0
    tiny = TINY_FLAGS
    if flags[-1] == "--data.dir":
        flags, tiny = [*flags, data_dir], TINY_MODEL_FLAGS
    ckpt = trained["ckpt"] if kind == "pretrain" else os.path.join(trained["ft_dir"],
                                                                   "finetune.ckpt")
    out_dir = tmp_path / "o"
    capsys.readouterr()
    rc = main([command, "--out-dir", str(out_dir), "--checkpoint", ckpt, *tiny, *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == \
        [f"m3cs {command}: error: the {split} set is empty"]
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("command, kind", [("eval", "finetune"),
                                           ("inspect-codebook", "pretrain")])
def test_cli_refuses_data_flags_without_data_dir(trained, capsys, command, kind):
    # the test set is rebuilt from the checkpoint's config, which the flag contradicts
    ckpt = trained["ckpt"] if kind == "pretrain" else os.path.join(trained["ft_dir"],
                                                                   "finetune.ckpt")
    rc = main([command, "--checkpoint", ckpt, "--data.per_class_test", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        f"m3cs {command}: error: data.per_class_test is 0 here but 2 in {ckpt}"]
    assert captured.out == ""


@pytest.mark.parametrize("flag, value, message", [
    ("mask_kind", "blok", "unknown mask kind 'blok'"),
    ("mask_ratio", "1.5", "mask ratio must be in (0,1), got 1.5"),
    ("steps", "0", "pretrain.steps must be at least 1, got 0"),
    ("batch_size", "0", "pretrain.batch_size must be at least 1, got 0"),
    ("beta", "-1", "smooth_l1 needs beta >= 0, got -1.0"),
    ("lam_start", "5", "pretrain.lam_start must be in [0, 1], got 5.0"),
    ("lam_end", "-1", "pretrain.lam_end must be in [0, 1], got -1.0"),
    ("lr", "-1", "AdamW needs lr >= 0, got -1.0"),
    ("eta", "-1", "pretrain.eta must be >= 0, got -1.0"),
    ("warmup", "-5", "AdamW needs warmup >= 0, got -5"),
    ("weight_decay", "-1", "AdamW needs weight_decay >= 0, got -1.0"),
], ids=["mask_kind", "mask_ratio", "steps", "batch_size", "beta-1", "lam_start5",
        "lam_end-1", "lr-1", "eta-1", "warmup-5", "weight_decay-1"])
def test_cli_pretrain_refuses_bad_setting_before_writing(tmp_path, capsys, flag, value,
                                                         message):
    out_dir = tmp_path / "p"
    rc = main(["pretrain", "--out-dir", str(out_dir), "--steps", "1",
               "--batch-size", "2", f"--pretrain.{flag}", value, *TINY_FLAGS])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [f"m3cs pretrain: error: {message}"]
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("pretrain", ["--model.heads", "0"], "model.heads must be at least 1, got 0"),
    ("pretrain", ["--model.c", "0"], "model.c must be at least 1, got 0"),
    ("pretrain", ["--model.enc_depth", "0"], "model.enc_depth must be at least 1, got 0"),
    ("pretrain", ["--model.dec_depth", "0"], "model.dec_depth must be at least 1, got 0"),
    ("pretrain", ["--model.s", "0"], "model.s must be at least 1, got 0"),
    ("pretrain", ["--model.n_points", "0"], "model.n_points must be at least 1, got 0"),
    ("pretrain", ["--model.heads", "5"], "width 16 not divisible by 5 heads"),
    ("pretrain", ["--model.t", "1"], "codebook needs T >= 2, got 1"),
    ("pretrain", ["--model.n_points", "3"], "group: S=4 exceeds cloud size 3"),
    ("pretrain", ["--model.g", "600"], "fps: need 1 <= G <= N, got G=600, N=64"),
    ("pretrain", ["--pretrain.tau_start", "0"],
     "quantizer temperature must be positive, got 0.0"),
    ("pretrain", ["--steps", "2", "--pretrain.tau_end", "-1"],
     "quantizer temperature must be positive, got 0.0"),
    ("finetune", ["--finetune.hidden", "0"], "finetune.hidden must be at least 1, got 0"),
    ("finetune", ["--model.s", "600"], "group: S=600 exceeds cloud size 64"),
    ("fewshot", ["--model.heads", "0"], "model.heads must be at least 1, got 0"),
    ("finetune", ["--finetune.dropout", "1"], "finetune.dropout must be in [0, 1), got 1.0"),
    ("finetune", ["--finetune.dropout", "1.5"], "finetune.dropout must be in [0, 1), got 1.5"),
    ("finetune", ["--finetune.dropout", "-0.5"],
     "finetune.dropout must be in [0, 1), got -0.5"),
    ("fewshot", ["--finetune.dropout", "1.5"], "finetune.dropout must be in [0, 1), got 1.5"),
    ("finetune", ["--finetune.lr", "-1"], "AdamW needs lr >= 0, got -1.0"),
    ("fewshot", ["--fewshot.lr", "-1"], "AdamW needs lr >= 0, got -1.0"),
    ("pretrain", ["--model.g", "0"], "model.g must be at least 1, got 0"),
    ("finetune", ["--model.dec_depth", "0"], "model.dec_depth must be at least 1, got 0"),
    ("fewshot", ["--model.dec_depth", "0"], "model.dec_depth must be at least 1, got 0"),
    ("fewshot", ["--finetune.hidden", "0"], "finetune.hidden must be at least 1, got 0"),
    # the layer check comes before the model build, so it reports an encoder of depth 0
    ("finetune", ["--model.enc_depth", "0"],
     "layer id 1 is outside [-0, 0) for an encoder of depth 0"),
    ("fewshot", ["--model.enc_depth", "0"],
     "layer id -1 is outside [-0, 0) for an encoder of depth 0"),
], ids=["heads0", "c0", "enc_depth0", "dec_depth0", "s0", "n_points0", "heads5", "t1", "n_points3",
        "g600", "tau_start0", "tau_end-1", "finetune-hidden0", "finetune-s600",
        "fewshot-heads0", "finetune-dropout1", "finetune-dropout1.5",
        "finetune-dropout-0.5", "fewshot-dropout1.5", "finetune-lr-1", "fewshot-lr-1", "g0",
        "finetune-dec_depth0", "fewshot-dec_depth0", "fewshot-hidden0", "finetune-enc_depth0",
        "fewshot-enc_depth0"])
def test_cli_refuses_bad_model_setting_before_writing(tmp_path, capsys, command, flags,
                                                      message):
    # model and head sizes, the head's dropout, the temperatures and the fine-tune rate
    # are refused before any file is written
    start = {"pretrain": ["--steps", "1", "--batch-size", "2"],
             "finetune": ["--from-scratch", *RUN_FLAGS["finetune"]],
             "fewshot": ["--from-scratch", *RUN_FLAGS["fewshot"]]}[command]
    out_dir = tmp_path / "o"
    rc = main([command, "--out-dir", str(out_dir), *start, *TINY_FLAGS, *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [f"m3cs {command}: error: {message}"]
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("command, flag, lid", [
    ("finetune", "--finetune.layers", "2"),
    ("finetune", "--finetune.layers", "-3"),
    ("fewshot", "--fewshot.layers", "2"),
])
def test_cli_refuses_layer_outside_encoder(trained, tmp_path, capsys, command, flag, lid):
    out_dir = tmp_path / "o"
    rc = main([command, "--out-dir", str(out_dir), "--checkpoint", trained["ckpt"],
               *TINY_FLAGS, flag, f"1,{lid}"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        f"m3cs {command}: error: layer id {lid} is outside [-2, 2) "
        "for an encoder of depth 2"]
    assert not out_dir.exists()


@pytest.mark.parametrize("command, flag", [("finetune", "--finetune.layers"),
                                           ("fewshot", "--fewshot.layers")])
def test_cli_refuses_empty_layer_list(trained, tmp_path, capsys, command, flag):
    out_dir = tmp_path / "o"
    rc = main([command, "--out-dir", str(out_dir), "--checkpoint", trained["ckpt"],
               *TINY_FLAGS, flag, ""])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        f"m3cs {command}: error: {command} needs at least one encoder layer id"]
    assert not out_dir.exists()


@pytest.mark.parametrize("command, kind, flags", [
    ("pretrain", None, ["--steps", "1", "--batch-size", "2"]),
    ("finetune", "pretrain", ["--steps", "1", "--batch-size", "2"]),
    ("fewshot", "pretrain", ["--runs", "1", "--way", "2", "--shot", "1",
                             "--fewshot.query", "1", "--fewshot.steps", "1"]),
    ("eval", "finetune", []),
    ("inspect-codebook", "pretrain", []),
])
def test_cli_refuses_data_flag_with_data_dir(trained, tmp_path, capsys, command, kind, flags):
    data_dir = str(tmp_path / "data")
    assert main(["gen-data", "--dir", data_dir, *TINY_FLAGS]) == 0
    ckpt = {None: [], "pretrain": ["--checkpoint", trained["ckpt"]],
            "finetune": ["--checkpoint", os.path.join(trained["ft_dir"], "finetune.ckpt")]}
    out_dir = tmp_path / "o"
    capsys.readouterr()
    rc = main([command, "--out-dir", str(out_dir), *ckpt[kind], *flags, *TINY_MODEL_FLAGS,
               "--data.dir", data_dir, "--data.per_class_test", "1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        f"m3cs {command}: error: data.per_class_test is ignored when --data.dir is set"]
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("extra", [[], ["--data.dir"]])
def test_cli_reuses_run_config_beside_data_dir(tmp_path, capsys, extra):
    # a run's config.json holds every data.* key; fed back with --config, those at their
    # default are not refused beside --data.dir, and the rerun writes the same metrics
    data_dir = str(tmp_path / "data")
    assert main(["gen-data", "--dir", data_dir, *TINY_FLAGS]) == 0
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["pretrain", "--out-dir", str(first), "--steps", "1", "--batch-size", "2",
                 *TINY_MODEL_FLAGS, "--data.dir", data_dir]) == 0
    extra = [*extra, data_dir] if extra else []
    assert main(["pretrain", "--config", str(first / "config.json"),
                 "--out-dir", str(second), *extra]) == 0
    assert ((second / "metrics.csv").read_bytes()
            == (first / "metrics.csv").read_bytes())
    # a config file's data.* key at another value would still be dropped, so it is refused
    flat = json.loads((first / "config.json").read_text())
    (tmp_path / "points.json").write_text(json.dumps({**flat, "data.points": 64}))
    capsys.readouterr()
    rc = main(["pretrain", "--config", str(tmp_path / "points.json"),
               "--out-dir", str(tmp_path / "o"), *extra])
    assert rc == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "m3cs pretrain: error: data.points is ignored when --data.dir is set"]
    assert not (tmp_path / "o").exists()


def test_cli_data_dir_run_records_only_data_dir(trained, tmp_path):
    # the generator's data.* settings do not describe a directory, so neither the run's
    # config.json nor its checkpoint records them
    data_dir = str(tmp_path / "data")
    assert main(["gen-data", "--dir", data_dir, *TINY_FLAGS]) == 0
    ft_dir = tmp_path / "ft"
    assert main(["finetune", "--out-dir", str(ft_dir), "--checkpoint", trained["ckpt"],
                 *RUN_FLAGS["finetune"], *TINY_MODEL_FLAGS, "--data.dir", data_dir]) == 0
    config = json.loads((ft_dir / "config.json").read_text())
    trailer = load_checkpoint(ft_dir / "finetune.ckpt")[1]
    for saved in (config, trailer):
        assert saved["data.dir"] == data_dir
        assert [k for k in saved if k.startswith("data.")] == ["data.dir"]


def test_cli_eval_refuses_label_the_head_cannot_predict(trained, tmp_path, capsys):
    # the fine-tune checkpoint's head has 4 classes; a test set with a label of 5 is refused
    clouds = [c for c, _ in gen_shapes(["sphere"], 2, 64, make_rng(3)).items]
    save_dataset(str(tmp_path / "data" / "test"),
                 Dataset(items=[(clouds[0], 0), (clouds[1], 5)],
                         class_names=list("abcdef"), split="test"))
    ft_ckpt = os.path.join(trained["ft_dir"], "finetune.ckpt")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ft_ckpt, "--data.dir", str(tmp_path / "data")]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        "m3cs eval: error: label 5 out of range for classifier head"]
    assert captured.out == ""


def test_cli_finetune_refuses_test_label_before_writing(tmp_path, capsys):
    # a 2-class train split sets a 2-class head; a test label of 2 is refused up front
    clouds = [c for c, _ in gen_shapes(["sphere"], 4, 64, make_rng(4)).items]
    for split, labels, names in (("train", (0, 1), "ab"), ("test", (0, 2), "abc")):
        save_dataset(str(tmp_path / "data" / split),
                     Dataset(items=list(zip(clouds, labels + labels)),
                             class_names=list(names), split=split))
    out_dir = tmp_path / "ft"
    rc = main(["finetune", "--out-dir", str(out_dir), "--from-scratch", *RUN_FLAGS["finetune"],
               *TINY_MODEL_FLAGS, "--data.dir", str(tmp_path / "data")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        "m3cs finetune: error: label 2 out of range for classifier head"]
    assert captured.out == ""
    assert not out_dir.exists()


def test_cli_eval_and_fewshot_read_only_the_test_split(trained, tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--dir", str(data_dir), *TINY_FLAGS]) == 0
    ft_ckpt = os.path.join(trained["ft_dir"], "finetune.ckpt")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ft_ckpt, "--data.dir", str(data_dir)]) == 0
    with_train = capsys.readouterr().out
    shutil.rmtree(data_dir / "train")
    assert main(["eval", "--checkpoint", ft_ckpt, "--data.dir", str(data_dir)]) == 0
    assert capsys.readouterr().out == with_train
    rc = main(["fewshot", "--out-dir", str(tmp_path / "fs"), "--checkpoint", trained["ckpt"],
               "--runs", "1", "--way", "2", "--shot", "1", "--fewshot.query", "1",
               "--fewshot.steps", "1", *TINY_MODEL_FLAGS, "--data.dir", str(data_dir)])
    assert rc == 0
    assert "2-way 1-shot over 1 runs" in capsys.readouterr().out


@pytest.mark.parametrize("command, kind, flag, value, key, ours, theirs", [
    ("finetune", "pretrain", "--model.enc_depth", "3", "model.enc_depth", "3", "2"),
    ("finetune", "pretrain", "--model.enc_depth", "1", "model.enc_depth", "1", "2"),
    ("finetune", "pretrain", "--model.heads", "4", "model.heads", "4", "2"),
    ("finetune", "pretrain", "--model.g", "6", "model.g", "6", "8"),
    ("finetune", "pretrain", "--model.n_points", "32", "model.n_points", "32", "64"),
    ("fewshot", "pretrain", "--model.heads", "4", "model.heads", "4", "2"),
    ("eval", "finetune", "--seed", "7", "seed", "7", "0"),
    ("eval", "finetune", "--finetune.layers", "0", "finetune.layers", "[0]", "[1]"),
    ("eval", "finetune", "--model.heads", "1", "model.heads", "1", "2"),
    ("inspect-codebook", "pretrain", "--seed", "7", "seed", "7", "0"),
    ("inspect-codebook", "pretrain", "--model.t", "4", "model.t", "4", "8"),
    ("inspect-codebook", "pretrain", "--finetune.steps", "9", "finetune.steps", "9", "300"),
    ("eval", "finetune", "--model.heads", "4", "model.heads", "4", "2"),
    ("inspect-codebook", "pretrain", "--model.c", "96", "model.c", "96", "16"),
])
def test_cli_refuses_flag_contradicting_checkpoint(trained, tmp_path, capsys, command, kind,
                                                   flag, value, key, ours, theirs):
    # a setting given with another value than the checkpoint's is refused, a default
    # value included (heads 4, c 96)
    ckpt = trained["ckpt"] if kind == "pretrain" else os.path.join(trained["ft_dir"],
                                                                   "finetune.ckpt")
    model_flags = TINY_FLAGS if command in ("finetune", "fewshot") else []
    out_dir = tmp_path / "o"
    rc = main([command, "--out-dir", str(out_dir), "--checkpoint", ckpt, *model_flags,
               flag, value])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        f"m3cs {command}: error: {key} is {ours} here but {theirs} in {ckpt}"]
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("command, flags, written", [
    ("finetune", ["--steps", "3", "--batch-size", "2", "--finetune.warmup", "1"],
     ["config.json", "finetune.ckpt", "finetune_metrics.csv"]),
    ("fewshot", FEWSHOT_FLAGS, ["config.json", "fewshot.csv"]),
], ids=["finetune", "fewshot"])
def test_cli_takes_model_from_pretrain_checkpoint(trained, tmp_path, capsys, command, flags,
                                                  written):
    # without --model.* flags the run is the one that repeats the checkpoint's
    out_dir = tmp_path / "o"
    runs = []
    for model_flags in (TINY_MODEL_FLAGS, ["--finetune.layers", "1"]):
        rc = main([command, "--out-dir", str(out_dir), "--checkpoint", trained["ckpt"],
                   *flags, *model_flags, *TINY_FLAGS[len(TINY_MODEL_FLAGS):]])
        assert rc == 0
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        runs.append((capsys.readouterr().out, files))
        shutil.rmtree(out_dir)
    assert list(runs[0][1]) == written
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command, flags, message", [
    ("finetune", ["--batch-size", "0"], "finetune.batch_size must be at least 1, got 0"),
    ("finetune", ["--steps", "0"], "finetune.steps must be at least 1, got 0"),
    ("fewshot", ["--runs", "0"], "fewshot.runs must be at least 1, got 0"),
    ("fewshot", ["--way", "0"], "fewshot.way must be at least 1, got 0"),
    ("fewshot", ["--shot", "0"], "fewshot.shot must be at least 1, got 0"),
    ("fewshot", ["--fewshot.steps", "0"], "fewshot.steps must be at least 1, got 0"),
    ("fewshot", ["--finetune.batch_size", "0"],
     "finetune.batch_size must be at least 1, got 0"),
    ("fewshot", ["--way", "9"], "few-shot needs 9 classes with >= 2 samples, have 4"),
], ids=["finetune-batch_size", "finetune-steps", "fewshot-runs", "fewshot-way0",
        "fewshot-shot", "fewshot-steps", "fewshot-batch_size", "fewshot-way9"])
def test_cli_refuses_bad_run_setting_before_writing(trained, tmp_path, capsys, command, flags,
                                                    message):
    out_dir = tmp_path / "o"
    rc = main([command, "--out-dir", str(out_dir), "--checkpoint", trained["ckpt"],
               *RUN_FLAGS[command], *TINY_FLAGS, *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [f"m3cs {command}: error: {message}"]
    assert captured.out == ""
    assert not out_dir.exists()


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


@pytest.mark.parametrize("command, kind", [("eval", "finetune"),
                                           ("inspect-codebook", "pretrain")])
def test_cli_refuses_missing_checkpoint(capsys, command, kind):
    assert main([command]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        f"m3cs {command}: error: --checkpoint must name a {kind} checkpoint"]
    assert captured.out == ""


def test_cli_eval_truncated_checkpoint(trained, tmp_path, capsys):
    raw = (trained["root"] / "ft" / "finetune.ckpt").read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(raw[:len(raw) // 2])
    rc = main(["eval", "--checkpoint", str(cut)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"m3cs eval: error: {cut}: truncated at byte {len(raw) // 2}"]


# byte offsets in a checkpoint of one (2, 3) tensor named "w"
@pytest.mark.parametrize("field, offset, fmt, value", [
    ("name_len", 12, "<I", 1), ("rank", 17, "<I", 2), ("dim", 21, "<Q", 2),
    ("json_len", 61, "<Q", 11),
])
def test_cli_eval_corrupt_checkpoint(tmp_path, capsys, field, offset, fmt, value):
    # a full-length file whose length field claims more bytes than the file holds
    # is refused before anything is allocated for them
    path = tmp_path / f"{field}.ckpt"
    save_checkpoint(path, {"w": np.zeros((2, 3), np.float32)}, {"seed": 0})
    raw = bytearray(path.read_bytes())
    assert struct.unpack_from(fmt, raw, offset)[0] == value
    raw[offset:offset + struct.calcsize(fmt)] = b"\xff" * struct.calcsize(fmt)
    path.write_bytes(bytes(raw))
    rc = main(["eval", "--checkpoint", str(path)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"m3cs eval: error: {path}: truncated at byte {len(raw)}"]


@pytest.mark.parametrize("command, kind, flags, name", [
    ("eval", "finetune", [], "model.encoder.blocks.1.attn.q.w"),
    ("eval", "finetune", [], "model.head.fc3.b"),  # the head's bias sizes the model
    ("inspect-codebook", "pretrain", [], "student.encoder.blocks.0.attn.q.w"),
    ("finetune", "pretrain", RUN_FLAGS["finetune"], "student.encoder.blocks.0.attn.q.w"),
    ("fewshot", "pretrain", FEWSHOT_FLAGS, "student.encoder.blocks.0.attn.q.w"),
], ids=["eval", "eval-head-bias", "inspect-codebook", "finetune", "fewshot"])
def test_cli_eval_missing_tensor(trained, tmp_path, capsys, command, kind, flags, name):
    # a checkpoint that lacks a tensor of its model is refused, not filled in at random
    ckpt = trained["ckpt"] if kind == "pretrain" else os.path.join(trained["ft_dir"],
                                                                   "finetune.ckpt")
    tensors, config = load_checkpoint(ckpt)
    del tensors[name]
    path = tmp_path / "partial.ckpt"
    save_checkpoint(path, tensors, config)
    out_dir = tmp_path / "o"
    capsys.readouterr()
    rc = main([command, "--checkpoint", str(path), "--out-dir", str(out_dir), *flags,
               *TINY_FLAGS])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        f"m3cs {command}: error: {path}: no tensor '{name}'"]
    assert captured.out == ""
    assert not out_dir.exists()


def test_checkpoint_reload_gives_identical_logits(trained):
    from m3cs.cli import _load_model, _run_sections
    from m3cs.data import _cloud_batch, gen_shapes

    cfg = load_config(overrides={"checkpoint": os.path.join(trained["ft_dir"],
                                                            "finetune.ckpt")})
    model_a, saved = _load_model(cfg, {}, "model.", _run_sections(cfg))
    model_b, _ = _load_model(cfg, {}, "model.", _run_sections(cfg))
    ds = gen_shapes(["sphere"], 2, 64, make_rng(42), "test")
    clouds = [c for c, _ in ds.items]
    groups, centers = _cloud_batch(clouds, saved.model, None)
    la = model_a.forward(groups, centers, layers=saved.finetune.layers).data
    lb = model_b.forward(groups, centers, layers=saved.finetune.layers).data
    np.testing.assert_array_equal(la, lb)
