"""Benchmark harness for the dynamo toolkit.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the toolkit is imported from
``src/``.  One process runs one workload as a closed loop: it repeats the
workload's task batch (the same seeded inputs each time), at least twice,
while one more batch still fits in ``--seconds``, and checks every batch's
outputs outside the timed region.  CLI steps of every repeat must write
CSV files bit-identical to the first repeat's.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``wall_s`` (median batch time), ``setup_s`` (median of three set-ups: a
fresh-interpreter import of the toolkit plus in-process input generation
and warm-up) and ``peak_rss_mb``.  With ``--trace 1`` untraced and traced
batches alternate and the last line carries the per-layer metrics of
``spans.PER_LAYER`` (medians over traced batches) and the tracing overhead.
The line before it records the inputs, batch times, failures and the
machine: core count, Python/numpy/scipy versions, BLAS library and threads,
and scipy.fft workers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MIN_BATCHES = 2  # the CSV determinism check compares repeats
SETUP_REPEATS = 3
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable core count (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        val = os.environ.get(var, "")
        if not val.isdigit() or not 1 <= int(val) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded into this process, by file name."""
    import ctypes

    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


def machine_info(nproc: int) -> dict:
    import platform

    import numpy as np
    import scipy
    import scipy.fft

    def blas(cfg):
        dep = cfg["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ[v] for v in _THREAD_VARS},
        "fft_workers": scipy.fft.get_workers(),
    }


def _child_import_s() -> float:
    """Wall time of a fresh interpreter importing the toolkit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dynamo.cli"], env=env, cwd=ROOT, check=True, timeout=120)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("spectrum", "timestep", "band"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dynamo" / "__init__.py").is_file():
        print(f"error: no toolkit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    nproc = _cap_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    import workloads

    warm, batch_fn, check_fn, oracle_fn = workloads.WORKLOADS[args.workload]
    outroot = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(outroot, ignore_errors=True)
    outroot.mkdir(parents=True)
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            s = _child_import_s()
            t0 = time.perf_counter()
            inp = workloads.generate(args.seed)
            warm(inp, outroot / f"warm{i}")
            setups.append(s + time.perf_counter() - t0)

        batches, walls, traced, layer_rows = [], [], [], []
        problems: dict[str, list[str]] = {}
        start = time.perf_counter()
        while True:
            k = len(batches)
            tracing = args.trace == 1 and k % 2 == 1
            rec = spans.Recorder()
            t0 = time.perf_counter()
            if tracing:
                with spans.instrument(rec):
                    b = batch_fn(inp, outroot / f"b{k}")
            else:
                b = batch_fn(inp, outroot / f"b{k}")
            wall = time.perf_counter() - t0
            batches.append(b)
            (traced if tracing else walls).append(wall)
            found = check_fn(inp, b)
            if batches[1:]:
                for name, what in workloads.csv_mismatches(batches[0], b).items():
                    found.setdefault(name, []).extend(what)
            if tracing:
                layer_rows.append(spans.layer_metrics(rec, wall))
                balance = spans.self_time_balance(rec, wall)
                if balance > 1e-9:
                    found["trace.self-time-balance"] = [f"self times + unspanned off wall by {balance:.2e}"]
            problems.update({f"b{k}.{name}": v for name, v in found.items()})
            longest = max(walls + traced)
            if len(batches) >= MIN_BATCHES and time.perf_counter() - start + longest > args.seconds:
                break
        oracles = oracle_fn(inp, outroot / "oracles")
        problems.update({name: what for name, what in oracles.items() if what})
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(outroot, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    attempted = sum(len(b.results) for b in batches) + len(layer_rows) + len(oracles)
    failed = len(problems)
    if args.trace == 0:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = {name: (statistics.median(row[name] for row in layer_rows), unit)
                   for name, unit in spans.PER_LAYER.items() if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(walls) - 1.0, "ratio")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": inp.as_dict(), "setup_s": setups, "untraced_wall_s": walls, "traced_wall_s": traced,
        "problems": problems, "machine": machine_info(nproc),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
