"""Compiled (C) kernels behind the kernel dispatch.

Two kernels run ``native.c``:

* :func:`maze_search` is a line-for-line C port of
  :func:`repro.kernels.vectorized.maze_search`: the same prefix sums,
  min-scans, sweep cap, convergence test and backtrack, so its routes
  are bit-identical to the vectorized backend's.
* :func:`expand_segments` is a line-for-line C port of the sequential
  :func:`repro.kernels.reference.expand_segments` loop, with numpy's
  pairwise summation reproduced, so its demand maps are bit-identical
  to the reference's.

Every other kernel is the vectorized one, re-exported so the dispatch
table keeps one module per backend.

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
    path_congestion,
    rect_add,
    rect_area,
    steiner_batch,
)

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "native.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
#: Never add -ffast-math or -march=native: both change float results.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_search = None  # the bound C functions once load() succeeded
_expand = None


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
        Whether the compiled kernels are usable.  ``False`` without a C
        compiler, when the build fails, or when the cache directory is
        not writable and holds no library yet.
    """
    global _search, _expand
    _search = _expand = None
    try:
        path = library_path()
        if not os.path.exists(path) and not _build(path):
            return False
        lib = ctypes.CDLL(path)
        search, expand = lib.repro_maze_search, lib.repro_expand_segments
    except (OSError, AttributeError):
        return False
    search.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 9 + [ctypes.c_void_p]
    search.restype = ctypes.c_int
    expand.argtypes = (
        [ctypes.c_void_p] * 4 + [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 6
        + [ctypes.c_int64, ctypes.c_double]
    )
    expand.restype = ctypes.c_int64
    _search, _expand = search, expand
    return True


def _check_maps(kernel: str, maps) -> None:
    """The C code reads (and writes) maps in place: no copies, no views."""
    for m in maps:
        if m.dtype != np.float64 or m.ndim != 2 or not m.flags.c_contiguous:
            raise TypeError(
                f"native {kernel} reads the maps in place: they must be "
                f"C-contiguous 2-D float64, got {m.dtype} {m.ndim}-D "
                f"(C-contiguous: {m.flags.c_contiguous})"
            )


def maze_search(gx0, gy0, gx1, gy1, cost_h, cost_v, xlo, xhi, ylo, yhi):
    """Same contract and result as :func:`repro.kernels.vectorized.maze_search`.

    Raises:
        TypeError: ``cost_h``/``cost_v`` are not C-contiguous 2-D
            float64 arrays (they are read in place, never copied).
        ValueError: the two maps differ in shape, or the window is not
            inside the map or does not contain both end points.
    """
    _check_maps("maze_search", (cost_h, cost_v))
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


def expand_segments(
    cap_h, cap_v, dmd_h, dmd_v, horizontal, fixed, lo, hi, lo_is_pin, hi_is_pin,
    radius, keep_weight,
):
    """Same contract and result as :func:`repro.kernels.reference.expand_segments`.

    Raises:
        TypeError: a map is not a C-contiguous 2-D float64 array (the
            demand maps are updated in place, never copied).
        ValueError: the maps differ in shape, or a segment lies outside
            them (``lo <= hi`` inside the map along the segment, ``fixed``
            inside it across).
    """
    maps = (cap_h, cap_v, dmd_h, dmd_v)
    _check_maps("expand_segments", maps)
    nx, ny = cap_h.shape
    if any(m.shape != cap_h.shape for m in maps):
        raise ValueError(f"maps differ in shape: {[m.shape for m in maps]}")
    horizontal = np.ascontiguousarray(horizontal, dtype=bool)
    fixed, lo, hi = (np.ascontiguousarray(v, dtype=np.int64) for v in (fixed, lo, hi))
    lo_is_pin, hi_is_pin = (
        np.ascontiguousarray(v, dtype=bool) for v in (lo_is_pin, hi_is_pin)
    )
    n = len(horizontal)
    if n == 0:
        return 0
    along = np.where(horizontal, nx, ny)
    across = np.where(horizontal, ny, nx)
    if not (
        (lo >= 0).all() and (lo <= hi).all() and (hi < along).all()
        and (fixed >= 0).all() and (fixed < across).all()
    ):
        raise ValueError(f"segments must lie inside the {nx}x{ny} maps")
    # A radius past the grid reaches the same rows as the grid size; a
    # negative one expands nothing.  Clamping keeps the C ints in range.
    radius = min(max(int(radius), -1), max(nx, ny))
    expanded = _expand(
        cap_h.ctypes.data, cap_v.ctypes.data, dmd_h.ctypes.data, dmd_v.ctypes.data,
        nx, ny, n, horizontal.ctypes.data, fixed.ctypes.data, lo.ctypes.data,
        hi.ctypes.data, lo_is_pin.ctypes.data, hi_is_pin.ctypes.data,
        radius, float(keep_weight),
    )
    if expanded < 0:
        raise MemoryError("expand_segments scratch")
    return int(expanded)
