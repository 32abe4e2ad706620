"""Process set-up shared by the benchmark's entry points."""

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# one BLAS thread: timings then measure this program rather than the cores a
# shared machine lends it, and the solver's bitwise determinism can be checked
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin() -> None:
    """Pin BLAS threads and put the checkout's sources first on the path.

    Call before numpy is imported: OpenBLAS reads the variables once, at load.
    """
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def describe() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# CPU-speed calibration.  On a shared host a neighbour can slow this process
# by half for minutes at a time, in CPU time as much as in wall time.  A fixed
# kernel that does not use strictfeas -- exact Fraction elimination like the
# exact layer, small dense eigendecompositions like the solver -- is timed
# around each measurement, and times are scaled to a machine on which the
# kernel takes CALIBRATION_REF_S.

CALIBRATION_REF_S = 0.006
CALIBRATION_REPS = 3


def _calibration_data():
    import numpy as np
    from fractions import Fraction

    rng = np.random.default_rng(20230206)
    A = rng.standard_normal((9, 9))
    fractions = [
        [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))) for _ in range(8)]
        for _ in range(8)
    ]
    return A + A.T, fractions


_DATA = None


def _kernel() -> None:
    import numpy as np

    global _DATA
    if _DATA is None:
        _DATA = _calibration_data()
    A, rows = _DATA
    for _ in range(3):
        M = [row[:] for row in rows]
        for c in range(len(M)):
            p = next((r for r in range(c, len(M)) if M[r][c]), None)
            if p is None:
                continue
            M[c], M[p] = M[p], M[c]
            inv = 1 / M[c][c]
            for r in range(len(M)):
                if r != c and M[r][c]:
                    f = M[r][c] * inv
                    M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    for _ in range(90):
        lam, U = np.linalg.eigh(A)
        (U * lam) @ U.T


def calibrate() -> tuple[float, float]:
    """Median (wall, cpu) seconds of the calibration kernel, measured now."""
    import statistics
    import time

    walls, cpus = [], []
    for _ in range(CALIBRATION_REPS):
        w0, c0 = time.perf_counter(), time.process_time()
        _kernel()
        cpus.append(time.process_time() - c0)
        walls.append(time.perf_counter() - w0)
    return statistics.median(walls), statistics.median(cpus)
