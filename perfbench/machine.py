"""Record of the machine and software a result was measured on.

The BLAS thread count is only read, never set: from the environment and,
for OpenBLAS, through its ``*_get_num_threads`` symbol via ctypes.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "MODRABI_THREADS")
GET_THREADS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def _blas_build() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def _loaded_openblas() -> list[str]:
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    return sorted(paths)


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, as reported by the loaded library."""
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in GET_THREADS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit(root: Path) -> str:
    try:
        # the ceiling keeps git from looking for a repository above the checkout
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def record(root: Path, seed: int, workload: str) -> dict:
    import numpy as np
    import scipy
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }
