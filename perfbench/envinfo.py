"""Environment record printed with every result (stdlib and numpy only)."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess

import numpy as np


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _command(argv) -> str:
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _blas() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        info = {}
    return {"name": info.get("name", "unknown"),
            "version": info.get("version", "unknown")}


def _blas_threads(nproc: int):
    """OpenBLAS thread count from the library numpy loaded, capped at nproc."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "lib*openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return min(int(fn()), nproc)
    env = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return min(int(env), nproc) if env and env.isdigit() else "unknown"


def collect(tmp_dir: str) -> dict:
    nproc = _nproc()
    blas = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "blas_threads": _blas_threads(nproc),
        "l2_bytes": _command(["getconf", "LEVEL2_CACHE_SIZE"]),
        "l3_bytes": _command(["getconf", "LEVEL3_CACHE_SIZE"]),
        "tmp_fs": _command(["stat", "-f", "-c", "%T", tmp_dir]),
    }
