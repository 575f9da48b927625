"""Bounded maze routing on the Gcell grid.

Used by the rip-up-and-reroute phase for segments that pattern routing
cannot place without overflow.  The search is restricted to the segment
bounding box expanded by a margin; costs charge the entered Gcell in the
movement direction and, on turns, additionally charge the corner Gcell in
the new direction — consistent with the run-based accounting of
:mod:`repro.router.pattern`.

The search itself lives in :mod:`repro.kernels` (``maze_search``): the
default ``"native"`` backend is a compiled C port of the
``"vectorized"`` backend's label-correcting wavefront (directional
min-scans per sweep) and returns bit-identical cells; the
``"reference"`` backend is the historical A*.  All three return the
same charged-cell accounting at equal path cost.
"""

from __future__ import annotations

import numpy as np

from .. import kernels, obs


def maze_route(
    gx0: int,
    gy0: int,
    gx1: int,
    gy1: int,
    cost_h: np.ndarray,
    cost_v: np.ndarray,
    margin: int,
) -> "tuple | None":
    """Cheapest path from ``(gx0, gy0)`` to ``(gx1, gy1)`` in an expanded bbox.

    Args:
        cost_h, cost_v: 2D per-Gcell direction costs (>= 1).
        margin: bbox expansion in Gcells.

    Returns:
        ``(h_cells, v_cells)`` flat index arrays, or ``None`` when no
        path exists in the window.
    """
    obs.counter("maze/calls").inc()
    nx, ny = cost_h.shape
    xlo = max(min(gx0, gx1) - margin, 0)
    xhi = min(max(gx0, gx1) + margin, nx - 1)
    ylo = max(min(gy0, gy1) - margin, 0)
    yhi = min(max(gy0, gy1) + margin, ny - 1)
    if gx0 == gx1 and gy0 == gy1:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    route = kernels.maze_search(
        gx0, gy0, gx1, gy1, cost_h, cost_v, xlo, xhi, ylo, yhi
    )
    if route is None:
        obs.counter("maze/no_path").inc()
    return route
