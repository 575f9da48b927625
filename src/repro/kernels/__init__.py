"""Dispatchable numpy kernels for the measured hot paths.

The congestion estimator, the RUDY baseline, the electrostatic density
map, and the maze router all funnel their inner loops through this
module.  Three interchangeable backends implement every kernel:

* ``"native"`` (the default whenever it builds) — ``maze_search`` is a
  C port of the vectorized sweep (:mod:`repro.kernels.native`),
  compiled with the system ``cc`` and loaded with :mod:`ctypes`; the
  other kernels are the vectorized ones.  Its routes are bit-identical
  to ``"vectorized"``.
* ``"vectorized"`` — whole-batch numpy formulations
  (:mod:`repro.kernels.vectorized`); the default, and the only fast
  path, on a machine without a C compiler.
* ``"reference"`` — the original per-object loops, kept as the golden
  implementation (:mod:`repro.kernels.reference`).

The native library is built when this package is first imported, never
inside a timed run: flags ``-O2 -fPIC -shared -ffp-contract=off`` (no
FMA contraction, which would round differently from numpy; never
``-ffast-math`` or ``-march=native``).  It is cached in the package's
``__pycache__/`` keyed by a hash of the C source, the flags and the
platform tag, so later imports start no process.  Without a compiler,
or when the build fails, ``"native"`` is simply absent from
:data:`BACKENDS`.

Select a backend globally with :func:`use`, temporarily with
:func:`using`, per process with the ``REPRO_KERNELS`` environment
variable, or per CLI run with ``--kernels``.  Worker pools of
:class:`repro.runtime.TaskExecutor` inherit the parent's selection.
``vectorized`` and ``reference`` agree to ``allclose`` tolerance
(``rtol=1e-9``, plus ``atol`` of a few ulps of the accumulated
magnitude) on the map kernels and to equal path cost on the maze
kernel; ``tests/test_kernels.py`` holds the golden-equivalence suite
and ``benchmarks/bench_kernels.py`` the speedup measurements.

Kernel inventory (full contracts in the backend docstrings):

* ``rect_add(nx, ny, x0, x1, y0, y1, w, out=None)`` — weighted
  inclusive-rectangle accumulation (RSMT demand, RUDY).
* ``bin_overlap(xlo, xhi, ylo, yhi, ix0, iy0, kx, ky, scale, dim,
  bin_w, bin_h)`` — smoothed movable-area (charge density) map.
* ``rect_area(x0, x1, y0, y1, dim, bin_w, bin_h)`` — exact per-bin
  overlap area of fixed rectangles.
* ``maze_search(gx0, gy0, gx1, gy1, cost_h, cost_v, xlo, xhi, ylo,
  yhi)`` — windowed cheapest path with run-based turn accounting.
* ``abacus_trial(e, q, w, x, n, xlo, xhi, seg_width, width, weight,
  target_x)`` — non-mutating Abacus AddCell/Collapse trial insertion
  over a segment's cluster arrays.
* ``steiner_batch(x, y, start, max_degree)`` — per-net RSMT
  construction over CSR-packed point sets.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager

from . import native, reference, vectorized

ENV_VAR = "REPRO_KERNELS"

_MODULES = {"native": native, "vectorized": vectorized, "reference": reference}


def _validated(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {BACKENDS}"
        )
    return name


def _from_env() -> str:
    name = os.environ.get(ENV_VAR, BACKENDS[0])
    if name not in BACKENDS:
        warnings.warn(
            f"{ENV_VAR}={name!r} is not one of {BACKENDS}; using 'vectorized'",
            stacklevel=2,
        )
        return "vectorized"
    return name


def _resolve() -> None:
    """Build or load the native library, then pick the active backend.

    Sets :data:`BACKENDS` (the default first) and the active backend
    from ``REPRO_KERNELS``.
    """
    global BACKENDS, _active
    BACKENDS = tuple(name for name in _MODULES if name != "native" or native.load())
    _active = _from_env()


BACKENDS: tuple = ()  # set, with the active backend, by _resolve()
_resolve()


def current() -> str:
    """Name of the active backend."""
    return _active


def use(name: str) -> str:
    """Select the active backend; returns the previous one."""
    global _active
    previous = _active
    _active = _validated(name)
    return previous


@contextmanager
def using(name: str):
    """Temporarily select a backend for the enclosed block."""
    previous = use(name)
    try:
        yield
    finally:
        use(previous)


def rect_add(*args, **kwargs):
    """Weighted inclusive-rectangle accumulation (active backend)."""
    return _MODULES[_active].rect_add(*args, **kwargs)


def bin_overlap(*args, **kwargs):
    """Smoothed movable-area (charge density) map (active backend)."""
    return _MODULES[_active].bin_overlap(*args, **kwargs)


def rect_area(*args, **kwargs):
    """Exact per-bin overlap area of rectangles (active backend)."""
    return _MODULES[_active].rect_area(*args, **kwargs)


def maze_search(*args, **kwargs):
    """Windowed cheapest-path maze search (active backend)."""
    return _MODULES[_active].maze_search(*args, **kwargs)


def abacus_trial(*args, **kwargs):
    """Abacus trial insertion into a row segment (active backend)."""
    return _MODULES[_active].abacus_trial(*args, **kwargs)


def steiner_batch(*args, **kwargs):
    """Batched per-net RSMT construction (active backend)."""
    return _MODULES[_active].steiner_batch(*args, **kwargs)
