"""Environment record written with every run: versions, BLAS, CPU and computed working sets."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Run BLAS single-threaded (at most nproc); must run before numpy is imported.

    On a small shared machine a second BLAS thread made the n = 128
    decompositions two to three times slower and far noisier.
    """
    threads = min(BLAS_THREADS, nproc())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _loaded_openblas() -> list[dict]:
    """Thread count and configuration reported by each OpenBLAS loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1]})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("", "64_"):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is None:
                threads = getattr(lib, f"openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"openblas_get_config{suffix}", None)
            if threads is not None:
                threads.restype = ctypes.c_int
                threads.argtypes = []
                entry["threads"] = threads()
            if config is not None:
                config.restype = ctypes.c_char_p
                config.argtypes = []
                entry["config"] = config().decode()
        found.append(entry)
    return found


def _cpu() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {"model": model, "caches": caches}


def working_set(nodes: int) -> dict:
    """Computed (not measured) size of one dense n x n float64 matrix."""
    return {"nodes": nodes, "dense_matrix_kib": 8 * nodes * nodes / 1024,
            "kind": "computed: 8 bytes * n * n per dense matrix"}


def record(workload_nodes: dict) -> dict:
    import numpy
    import scipy

    build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": build.get("name"), "version": build.get("version"),
                 "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
                 "loaded": _loaded_openblas()},
        "nproc": nproc(),
        "cpu": _cpu(),
        "working_set": {name: working_set(n) for name, n in workload_nodes.items()},
    }
