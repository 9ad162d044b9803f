"""Hyperspectral image denoising toolkit.

Implements a residual encoder-decoder built from quasi-recurrent 3D units
(gated 3D convolutions combined with a recurrence over the spectral axis),
plus the supporting machinery: hand-written gradients, an incremental
training schedule, complex noise synthesis, quality metrics, and a
spectral-dependency diagnostic.

Everything is plain numpy; there is no autodiff framework underneath.
The math libraries size their thread pools when numpy loads, so
HSDENOISE_THREADS is applied here, before any submodule imports numpy; a
per-library variable already set (OMP_NUM_THREADS, ...) wins.
"""

import contextlib
import os

__version__ = "0.1.0"


def thread_setting():
    """HSDENOISE_THREADS, None if unset or empty; ValueError unless it is a
    positive integer (the CLI reports that and exits 2)."""
    value = os.environ.get("HSDENOISE_THREADS")
    if value and (not value.isdecimal() or int(value) < 1):
        raise ValueError(f"HSDENOISE_THREADS must be a positive integer, got {value!r}")
    return value or None


with contextlib.suppress(ValueError):
    if _threads := thread_setting():
        for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(_var, _threads)
