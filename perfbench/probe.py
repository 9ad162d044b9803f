"""Machine record and the GEMM-rate probe used as the roofline.

The probe multiplies two 2048x2048 matrices at the workload's thread count
and at one thread, in float64 and float32, and keeps the best of five
(peak rate is what a roofline bounds). Thread counts are switched through
OpenBLAS's own setter, found in the library numpy loaded.
"""

import ctypes
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
            "openblas_set_num_threads64_", "openblas_set_num_threads")


def blas_thread_setter():
    """OpenBLAS's set_num_threads from the library in this process, or None."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _SETTERS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                return setter
    return None


def gemm_gflop_s(dtype, n=2048, reps=5):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)).astype(dtype)
    b = rng.standard_normal((n, n)).astype(dtype)
    a @ b
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n ** 3 / best / 1e9


def gemm_rates(threads):
    """GFLOP/s at the workload's thread count and at one thread; the
    one-thread rates are 0 when no OpenBLAS thread setter is found."""
    rates = {"f64": gemm_gflop_s(np.float64), "f32": gemm_gflop_s(np.float32),
             "f64_1t": 0.0, "f32_1t": 0.0}
    setter = blas_thread_setter()
    if setter is not None:
        setter(1)
        try:
            rates["f64_1t"] = gemm_gflop_s(np.float64)
            rates["f32_1t"] = gemm_gflop_s(np.float32)
        finally:
            setter(threads)
    return rates


def git_commit(root):
    """HEAD of the checkout at root, or None if root is not a git work tree."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    top, commit = out.split()
    return commit if Path(top).resolve() == Path(root).resolve() else None


def machine_record(root, threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "HSDENOISE_THREADS": os.environ.get("HSDENOISE_THREADS"),
        "threads": threads,
        "git_commit": git_commit(root),
    }
