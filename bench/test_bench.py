"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest bench/test_bench.py -q

They check that every metric named in BENCHMARK.json is emitted with its unit,
that tracing changes no computed value, that the tracer puts every wrapped
function back, and that the runner refuses a directory without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _cli(cwd, workload, trace, seconds=0.3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_code():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.metric_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_emits_every_metric(workload, trace):
    proc = _cli(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    record = json.loads(lines[-2])["record"]
    for key in ("nproc", "blas", "numpy", "python", "seed", "samples"):
        assert key in record
    assert record["seed"] == 3
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", NAMES)
def test_tracing_consumes_no_rng(workload):
    plain = workloads.run(workload, 5, 0, trace=False, size="tiny", steps=4)
    traced = workloads.run(workload, 5, 0, trace=True, size="tiny", steps=4)
    assert plain["correct"] and traced["correct"]
    assert len(plain["stream"]) == 4
    assert traced["stream"] == plain["stream"]


def _snapshot():
    import m3cs
    from m3cs import (autodiff, backbone, codebook, data, finetune, geometry, layers,
                      optim, pretrain, tokenizer)
    snap = {}
    for mod in (m3cs, autodiff, backbone, codebook, data, finetune, geometry, layers,
                optim, pretrain, tokenizer):
        for name, val in vars(mod).items():
            snap[(mod.__name__, name)] = val
            if isinstance(val, type):
                for attr, member in vars(val).items():
                    snap[(mod.__name__, name, attr)] = member
    return snap


def test_wrappers_removed_after_traced_run():
    before = _snapshot()
    workloads.run("pretrain", 1, 0, trace=True, size="tiny", steps=2)
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def _layer(workload, **kw):
    return workloads.run(workload, 2, 0, trace=True, size="tiny", steps=4, **kw)["metrics"]


def test_layers_reported_where_they_apply():
    batch = workloads.SIZES["tiny"].batch
    m = _layer("pretrain")
    for name in ("backbone.encoder.student", "backbone.encoder.teacher",
                 "backbone.decoder.align", "backbone.decoder.point", "codebook.quantizer",
                 "geometry.chamfer_batch", "pretrain.ema_update", "autodiff.backward",
                 "optim.adamw", "tokenizer.pointnet", "tokenizer.pos_embed"):
        assert m[f"{name}.calls"] == 1.0, name
    for name in ("geometry.fps", "geometry.knn", "geometry.group", "data.augment"):
        assert m[f"{name}.calls"] == batch, name
    assert m["backbone.encoder.calls"] == 0 and m["geometry.group.reuse"] == 0
    assert m["autodiff.tape_nodes"] > 0 and m["autodiff.matmul.vjp_ms"] > 0

    m = _layer("finetune")
    for name in ("backbone.encoder", "finetune.hta", "finetune.head", "autodiff.backward",
                 "optim.adamw"):
        assert m[f"{name}.calls"] == 1.0, name
    assert m["backbone.encoder.student.calls"] == 0 and m["codebook.quantizer.calls"] == 0

    m = _layer("eval")
    assert m["autodiff.backward.calls"] == 0 and m["data.augment.calls"] == 0
    assert m["autodiff.tape_nodes"] == 0
    # the traced half re-groups the clouds it grouped on its first pass
    assert m["geometry.group.reuse"] == pytest.approx(0.5)

    assert 0 < m["trace.coverage"] <= 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _cli(tmp_path, "finetune", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
