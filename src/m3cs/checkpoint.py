"""Binary checkpoint format: named float32 tensors plus a JSON config snapshot.

Layout (all integers little-endian):
  magic "M3CS" | version u32 | tensor_count u32
  per tensor:  name_len u32 | name utf-8 | rank u32 | dims u64 each | data f32
  trailer:     json_len u64 | config json utf-8
Round trips are bit-exact for float32 data; unknown versions are refused.
"""

import contextlib
import json
import math
import os
import struct

import numpy as np

from .config import naming_file

MAGIC = b"M3CS"
VERSION = 1


def save_checkpoint(path, tensors, config):
    """Write to <path>.tmp, then rename it over path: a save that fails leaves the file
    that was at path whole, and removes the temporary one."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
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
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _read(fh, path, n):
    """Exactly n bytes from fh, refused before anything is allocated when fewer are left.

    A cut file and a corrupt length field both declare more bytes than remain;
    the bytes cannot tell the two apart, so both read as cut short.
    """
    size = os.fstat(fh.fileno()).st_size
    if n > size - fh.tell():
        raise ValueError(f"{path}: truncated at byte {size}")
    return fh.read(n)


def _unpack(fh, path, fmt):
    return struct.unpack(fmt, _read(fh, path, struct.calcsize(fmt)))


def load_checkpoint(path):
    """Returns (tensors dict, config dict); a trailer that is not a JSON object is refused."""
    with open(path, "rb") as fh, naming_file(path):
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
            data = np.frombuffer(_read(fh, path, 4 * math.prod(dims)), dtype="<f4").reshape(dims)
            tensors[name] = data.copy()
        (json_len,) = _unpack(fh, path, "<Q")
        config = json.loads(_read(fh, path, json_len).decode("utf-8"))
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config trailer is not a JSON object")
    return tensors, config


def model_state(model, prefix):
    """Every model tensor, named `<prefix><name>`."""
    return {f"{prefix}{k}": p.data for k, p in model.named_tensors().items()}
