"""Environment block printed beside the metrics (never written into reports)."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library mapped into this
    process (numpy and scipy may each bundle one)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return {}
    out = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _THREAD_SYMBOLS:
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def runtime() -> dict:
    """Versions and BLAS of the running interpreter; call after heatsheet
    (and so numpy and scipy) has been imported."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "env": {k: os.environ.get(k) for k in BLAS_ENV}},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for ln in fh:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root, *args) -> str | None:
    try:
        res = subprocess.run(["git", *args], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def host(root) -> dict:
    rev = _git(root, "rev-parse", "HEAD")
    dirty = None
    if rev is not None:
        dirty = bool(_git(root, "status", "--porcelain", "--untracked-files=no"))
    return {"nproc": nproc(), "cpu": _cpu_model(),
            "git_rev": rev or "unknown", "git_dirty": dirty}
