"""The environment record written with every result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

import bootstrap

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def blas_threads():
    """Threads the BLAS bundled with numpy will use, asked of the library."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in _THREAD_QUERIES:
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return query()
    return None


def blas_library() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((bootstrap.SRC / "linerec").glob("*.py")))


def record(parameters: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "blas_threads": blas_threads(),
        "blas_threads_requested": bootstrap.BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "src_linerec_lines": src_line_count(),
        "model_parameters": parameters,
    }
