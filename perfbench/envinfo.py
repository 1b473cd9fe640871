"""The run environment recorded with every benchmark result.

BLAS threads are read, never set: the benchmark runs with whatever thread
count the environment gives, so BLAS oversubscription in pool workers stays
visible in the numbers.
"""

import ctypes
import multiprocessing
import os
import platform
import subprocess
from pathlib import Path

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads",
                   "MKL_Get_Max_Threads", "bli_thread_get_num_threads")


def blas_threads():
    """Thread count reported by the BLAS library numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps
                    if ".so" in line and any(k in line.lower()
                                             for k in ("blas", "mkl", "blis"))}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def collect(root: Path) -> dict:
    """Environment of the calling process; call after numpy is imported."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS") if k in os.environ},
        "mp_start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit(root),
    }
