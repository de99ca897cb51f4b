"""Binary checkpoint format: named float32 tensors plus a JSON config snapshot.

Layout (all integers little-endian):
  magic "M3CS" | version u32 | tensor_count u32
  per tensor:  name_len u32 | name utf-8 | rank u32 | dims u64 each | data f32
  trailer:     json_len u64 | config json utf-8
Round trips are bit-exact for float32 data; unknown versions are refused.
"""

import json
import struct

import numpy as np

MAGIC = b"M3CS"
VERSION = 1


def save_checkpoint(path, tensors, config):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            raw_name = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw_name)))
            fh.write(raw_name)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())
        blob = json.dumps(config, sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)


def _read(fh, path, n):
    """Exactly n bytes from fh; fewer means the file was cut short."""
    buf = fh.read(n)
    if len(buf) != n:
        raise ValueError(f"{path}: truncated at byte {fh.tell()}")
    return buf


def _unpack(fh, path, fmt):
    return struct.unpack(fmt, _read(fh, path, struct.calcsize(fmt)))


def load_checkpoint(path):
    """Returns (tensors dict, config dict)."""
    with open(path, "rb") as fh:
        if _read(fh, path, 4) != MAGIC:
            raise ValueError(f"{path}: not a M3CS checkpoint (bad magic)")
        version, count = _unpack(fh, path, "<II")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        tensors = {}
        for _ in range(count):
            (name_len,) = _unpack(fh, path, "<I")
            name = _read(fh, path, name_len).decode("utf-8")
            (rank,) = _unpack(fh, path, "<I")
            dims = _unpack(fh, path, f"<{rank}Q")
            n = int(np.prod(dims)) if dims else 1
            data = np.frombuffer(_read(fh, path, 4 * n), dtype="<f4").reshape(dims)
            tensors[name] = data.copy()
        (json_len,) = _unpack(fh, path, "<Q")
        config = json.loads(_read(fh, path, json_len).decode("utf-8"))
    return tensors, config


def collect_pretrain_state(model, teacher, opt):
    """Flat tensor dict for a resumable pretrain checkpoint."""
    out = {}
    for k, p in model.params().items():
        out[f"student.{k}"] = p.data
    for k, arr in teacher.params().items():
        out[f"teacher.{k}"] = arr
    out.update(opt.state_arrays())
    return out


def collect_finetune_state(model):
    return {f"model.{k}": p.data for k, p in model.params().items()}
