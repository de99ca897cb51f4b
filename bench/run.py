"""Closed-loop benchmark of the m3cs CPU pipeline.

    python3 bench/run.py --workload {pretrain,finetune,eval} \
        --seed N --seconds S --trace {0,1} [--size {desk,tiny}]

Run from the root of a checkout: the benchmark imports m3cs from `src/` next
to this directory and refuses to run against any other copy. It prints one
`{"record": ...}` line describing the machine and the run, then, as the last
line of standard output, the result object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer metrics of a traced run. See README.md.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads():
    """Cap BLAS threads at the cores this process may use; numpy reads these at import."""
    ncpu = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= ncpu):
            os.environ[var] = str(ncpu)
    return ncpu


def blas_record():
    """BLAS vendor, version and the thread count the loaded library reports."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and ".so" in ln})
        for lib in libs:
            cdll = ctypes.CDLL(lib)
            for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_"):
                if hasattr(cdll, sym):
                    fn = getattr(cdll, sym)
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    threads = fn()
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration"), "threads": threads,
            "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["pretrain", "finetune", "eval"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["desk", "tiny"], default="desk",
                    help="tiny shapes are for the benchmark's own smoke tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    ncpu = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    try:
        import m3cs
    except ImportError as exc:
        print(f"bench: cannot import m3cs from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(m3cs.__file__).resolve().parent.parent != SRC.resolve():
        print(f"bench: m3cs resolved to {m3cs.__file__}, not under {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import tracing
    import workloads
    import_s = perf_counter() - T_START

    res = workloads.run(args.workload, args.seed, args.seconds, trace=bool(args.trace),
                        size=args.size)
    units = tracing.metric_units() if args.trace else workloads.E2E_UNITS
    record = res["record"]
    record.update(nproc=ncpu, cpu_count=os.cpu_count(), blas=blas_record(),
                  numpy=np.__version__, python=platform.python_version(),
                  import_s=import_s)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": float(res["metrics"][k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
