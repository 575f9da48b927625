"""Compiled (C) maze search behind the kernel dispatch.

:func:`maze_search` runs ``native.c``, a line-for-line C port of
:func:`repro.kernels.vectorized.maze_search`: the same prefix sums,
min-scans, sweep cap, convergence test and backtrack, so its routes are
bit-identical to the vectorized backend's.  The other kernels are the
vectorized ones, re-exported so the dispatch table keeps one module per
backend.

:func:`load` builds the library with the system ``cc`` and binds it
with :mod:`ctypes`.  The shared object is cached in this package's
``__pycache__/`` under a name keyed by the C source, the compiler flags
and the platform tag, so a cache hit starts no process; a build writes a
temporary file and renames it into place, so concurrent builds never
load a partial library.  ``-ffp-contract=off`` keeps the compiler from
fusing a multiply and an add into one FMA, which rounds differently from
numpy's separate operations (aarch64 fuses by default).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
import warnings

import numpy as np

from .. import obs
from .vectorized import (  # noqa: F401  (re-exported: the dispatch table)
    abacus_trial,
    bin_overlap,
    rect_add,
    rect_area,
    steiner_batch,
)

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "native.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
#: Never add -ffast-math or -march=native: both change float results.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_search = None  # the bound C function once load() succeeded


def library_path() -> str:
    """Cache path of the shared object for this source, flags and platform."""
    with open(SOURCE, "rb") as f:
        digest = hashlib.sha256(f.read())
    digest.update(" ".join(CFLAGS).encode())
    digest.update(sysconfig.get_platform().encode())
    return os.path.join(CACHE_DIR, f"native-{digest.hexdigest()[:16]}.so")


def _compiler() -> str | None:
    return shutil.which("cc")


def _build(path: str) -> bool:
    cc = _compiler()
    if cc is None:
        return False
    os.makedirs(CACHE_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=CACHE_DIR, prefix="native-", suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            [cc, *CFLAGS, "-o", tmp, SOURCE],
            check=True, capture_output=True, timeout=300,
        )
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:
        detail = getattr(exc, "stderr", b"") or b""
        warnings.warn(
            f"building the native kernels with {cc} failed "
            f"({exc}; {detail.decode(errors='replace').strip()[:200]}); "
            "using 'vectorized'",
            RuntimeWarning,
            stacklevel=2,
        )
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return True


def load() -> bool:
    """Build (or reuse the cached) library and bind it.

    Returns:
        Whether :func:`maze_search` is usable.  ``False`` without a C
        compiler, when the build fails, or when the cache directory is
        not writable and holds no library yet.
    """
    global _search
    _search = None
    try:
        path = library_path()
        if not os.path.exists(path) and not _build(path):
            return False
        fn = ctypes.CDLL(path).repro_maze_search
    except OSError:
        return False
    fn.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 9 + [ctypes.c_void_p]
    fn.restype = ctypes.c_int
    _search = fn
    return True


def maze_search(gx0, gy0, gx1, gy1, cost_h, cost_v, xlo, xhi, ylo, yhi):
    """Same contract and result as :func:`repro.kernels.vectorized.maze_search`.

    Raises:
        TypeError: ``cost_h``/``cost_v`` are not C-contiguous 2-D
            float64 arrays (they are read in place, never copied).
        ValueError: the two maps differ in shape, or the window is not
            inside the map or does not contain both end points.
    """
    for costs in (cost_h, cost_v):
        if costs.dtype != np.float64 or costs.ndim != 2 or not costs.flags.c_contiguous:
            raise TypeError(
                "native maze_search reads the cost maps in place: they must be "
                f"C-contiguous 2-D float64, got {costs.dtype} {costs.ndim}-D "
                f"(C-contiguous: {costs.flags.c_contiguous})"
            )
    nx, ny = cost_h.shape
    if cost_v.shape != cost_h.shape:
        raise ValueError(f"cost maps differ in shape: {cost_h.shape} vs {cost_v.shape}")
    if not (
        0 <= xlo <= min(gx0, gx1) <= max(gx0, gx1) <= xhi < nx
        and 0 <= ylo <= min(gy0, gy1) <= max(gy0, gy1) <= yhi < ny
    ):
        raise ValueError(
            f"window x[{xlo}, {xhi}] y[{ylo}, {yhi}] must lie in the "
            f"{nx}x{ny} map and contain ({gx0}, {gy0}) and ({gx1}, {gy1})"
        )
    w, h = int(xhi - xlo + 1), int(yhi - ylo + 1)
    # H cells, V cells, then (n_h, n_v, sweeps): one allocation per call.
    out = np.empty(2 * w * h + 3, dtype=np.int64)
    status = _search(
        cost_h.ctypes.data, cost_v.ctypes.data, ny, int(xlo), int(ylo), w, h,
        int(gx0 - xlo), int(gy0 - ylo), int(gx1 - xlo), int(gy1 - ylo),
        out.ctypes.data,
    )
    if status < 0:
        raise MemoryError(f"maze_search scratch for a {w}x{h} window")
    n_h, n_v, sweeps = out[-3:].tolist()
    obs.histogram("maze/sweeps").observe(sweeps)
    if status == 0:
        return None
    return out[:n_h].copy(), out[w * h : w * h + n_v].copy()
