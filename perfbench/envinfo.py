"""Thread pinning and the environment record attached to every result.

``pin_threads`` must run before numpy is first imported: OpenBLAS reads its
thread count once, when the library loads. ``describe`` then reports what the
loaded BLAS actually uses, so a pin that did not take marks the run invalid.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _loaded_blas() -> list[str]:
    """Paths of the BLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as f:
            return sorted({line.split()[-1] for line in f
                           if "blas" in line.lower() and ".so" in line})
    except OSError:
        return []


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    for path in _loaded_blas():
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads": blas_threads(),
    }


def pin_took(env: dict) -> bool:
    """Every thread variable reads 1 and the loaded BLAS agrees (when it can say)."""
    return (all(v == "1" for v in env["thread_env"].values())
            and env["blas_threads"] in (1, None))
