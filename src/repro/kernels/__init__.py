"""Dispatchable numpy kernels for the measured hot paths.

The congestion estimator and its detour expansion, the pin-congestion
feature, the RUDY baseline, the electrostatic density map, the
legalizer, the RSMT builder and the maze router all funnel their inner
loops through this module.  Three interchangeable backends implement
every kernel:

* ``"native"`` (the default whenever it builds) — C ports
  (:mod:`repro.kernels.native`), compiled with the system ``cc`` and
  loaded with :mod:`ctypes`, of the vectorized ``maze_search`` (routes
  bit-identical to ``"vectorized"``) and of the sequential
  ``expand_segments`` loop (maps bit-identical to ``"reference"``); the
  other kernels are the vectorized ones.
* ``"vectorized"`` — whole-batch numpy formulations
  (:mod:`repro.kernels.vectorized`).  It becomes the default only
  where ``"native"`` did not build (no C compiler, or a failed build).
  ``expand_segments`` is
  order-dependent and has no exact whole-batch form, so this backend
  runs the reference loop for it.
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
magnitude) on the map kernels, to equal path cost on the maze kernel,
and exactly on ``path_congestion``, ``abacus_trial`` and
``steiner_batch``; ``tests/test_kernels.py`` holds the
golden-equivalence suite and ``benchmarks/bench_kernels.py`` the
speedup measurements.

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
* ``expand_segments(cap_h, cap_v, dmd_h, dmd_v, horizontal, fixed, lo,
  hi, lo_is_pin, hi_is_pin, radius, keep_weight)`` — in-order detour
  expansion of congested straight segments into the demand maps;
  returns the number expanded.
* ``path_congestion(cg, ax, ay, bx, by, z_samples)`` — per edge, the min
  over L/Z candidate paths of the max Gcell congestion (Eqs. 12-13).
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


def expand_segments(*args, **kwargs):
    """Sequential detour expansion of congested segments (active backend)."""
    return _MODULES[_active].expand_segments(*args, **kwargs)


def path_congestion(*args, **kwargs):
    """Per-edge min over L/Z paths of the max Gcell congestion (active backend)."""
    return _MODULES[_active].path_congestion(*args, **kwargs)
