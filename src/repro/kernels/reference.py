"""Reference (loop-based) kernel implementations.

These are the original hot-path loops, preserved verbatim so the
vectorized backend always has a golden implementation to be checked
against (``tests/test_kernels.py``) and measured against
(``benchmarks/bench_kernels.py``).  Semantics — including accumulation
order and the boundary-bin clamping of the density kernel — are the
contract; the vectorized backend must agree to the tolerances stated in
:mod:`repro.kernels`.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .. import obs

# ----------------------------------------------------------------------
# Weighted-rectangle accumulation (demand / RUDY rasterization)
# ----------------------------------------------------------------------


def rect_add(nx, ny, x0, x1, y0, y1, w, out=None):
    """Add ``w[i]`` to ``out[x0[i]:x1[i]+1, y0[i]:y1[i]+1]`` per rectangle.

    Bounds are inclusive Gcell indices, assumed in range.  ``w`` may be a
    scalar or a per-rectangle array.  Rectangles are applied in order
    with one slice-add each (the historical per-net loop).
    """
    if out is None:
        out = np.zeros((nx, ny))
    ww = np.broadcast_to(np.asarray(w, dtype=np.float64), np.shape(x0))
    for rx0, rx1, ry0, ry1, rw in zip(
        np.asarray(x0).tolist(),
        np.asarray(x1).tolist(),
        np.asarray(y0).tolist(),
        np.asarray(y1).tolist(),
        ww.tolist(),
    ):
        out[rx0 : rx1 + 1, ry0 : ry1 + 1] += rw
    return out


# ----------------------------------------------------------------------
# Movable-cell bin overlap (electrostatic charge density)
# ----------------------------------------------------------------------


def bin_overlap(xlo, xhi, ylo, yhi, ix0, iy0, kx, ky, scale, dim, bin_w, bin_h):
    """Smoothed movable-area map by per-offset clamped accumulation.

    Coordinates are die-relative cell extents; ``ix0``/``iy0`` the bin of
    the low edge; ``kx``/``ky`` the maximum bin span.  Matches the
    historical ePlace loop, including the boundary behaviour: bin indices
    are clamped to ``dim - 1``, so cells whose span sticks past the last
    bin re-accumulate that boundary bin once per clamped offset.
    """
    rho = np.zeros((dim, dim))
    if len(xlo) == 0:
        return rho
    flat = rho.ravel()
    for dxk in range(kx):
        ix = np.clip(ix0 + dxk, 0, dim - 1)
        ox = np.clip(
            np.minimum(xhi, (ix + 1) * bin_w) - np.maximum(xlo, ix * bin_w),
            0.0,
            None,
        )
        for dyk in range(ky):
            iy = np.clip(iy0 + dyk, 0, dim - 1)
            oy = np.clip(
                np.minimum(yhi, (iy + 1) * bin_h) - np.maximum(ylo, iy * bin_h),
                0.0,
                None,
            )
            np.add.at(flat, ix * dim + iy, ox * oy * scale)
    return rho


# ----------------------------------------------------------------------
# Fixed-rectangle rasterization (exact per-bin overlap area)
# ----------------------------------------------------------------------


def rect_area(x0, x1, y0, y1, dim, bin_w, bin_h):
    """Exact per-bin overlap area of die-relative rectangles.

    The historical ``_rasterize_fixed`` inner loops: for every rectangle,
    walk its covered bin range and add the x/y overlap product.  Inputs
    are assumed clipped to the die (``0 <= x0 < x1 <= dim * bin_w``).
    """
    out = np.zeros((dim, dim))
    for rx0, rx1, ry0, ry1 in zip(
        np.asarray(x0).tolist(),
        np.asarray(x1).tolist(),
        np.asarray(y0).tolist(),
        np.asarray(y1).tolist(),
    ):
        ix0 = int(rx0 / bin_w)
        ix1 = min(int(math.ceil(rx1 / bin_w)), dim)
        iy0 = int(ry0 / bin_h)
        iy1 = min(int(math.ceil(ry1 / bin_h)), dim)
        for i in range(max(ix0, 0), ix1):
            ox = min(rx1, (i + 1) * bin_w) - max(rx0, i * bin_w)
            if ox <= 0:
                continue
            for j in range(max(iy0, 0), iy1):
                oy = min(ry1, (j + 1) * bin_h) - max(ry0, j * bin_h)
                if oy > 0:
                    out[i, j] += ox * oy
    return out


# ----------------------------------------------------------------------
# Maze search (A* with run-based turn accounting)
# ----------------------------------------------------------------------

_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))  # dx, dy
_H = 0  # horizontal movement kind
_V = 1


def maze_search(gx0, gy0, gx1, gy1, cost_h, cost_v, xlo, xhi, ylo, yhi):
    """A* from ``(gx0, gy0)`` to ``(gx1, gy1)`` inside the given window.

    Costs charge the entered Gcell in the movement direction and, on
    turns (or when leaving the start), additionally charge the corner
    cell in the new direction.  Returns ``(h_cells, v_cells)`` flat index
    arrays, or ``None`` when no path exists in the window.
    """
    ny = cost_h.shape[1]
    # State: (x, y, last_dir) with last_dir in {H, V, 2=start}.
    best = {}
    came = {}
    start = (gx0, gy0, 2)
    best[start] = 0.0
    frontier = [(_heuristic(gx0, gy0, gx1, gy1), 0.0, start)]
    goal_state = None
    pops = 0
    while frontier:
        f, g, state = heapq.heappop(frontier)
        pops += 1
        if g > best.get(state, np.inf):
            continue
        x, y, last = state
        if x == gx1 and y == gy1:
            goal_state = state
            break
        for dx, dy in _DIRS:
            nx_, ny_ = x + dx, y + dy
            if not (xlo <= nx_ <= xhi and ylo <= ny_ <= yhi):
                continue
            move = _H if dy == 0 else _V
            step = cost_h[nx_, ny_] if move == _H else cost_v[nx_, ny_]
            turn = 0.0
            if last == 2:
                # Leaving the start: charge the start cell in this direction.
                turn = cost_h[x, y] if move == _H else cost_v[x, y]
            elif last != move:
                turn = cost_h[x, y] if move == _H else cost_v[x, y]
            ng = g + step + turn
            nstate = (nx_, ny_, move)
            if ng < best.get(nstate, np.inf) - 1e-12:
                best[nstate] = ng
                came[nstate] = state
                heapq.heappush(
                    frontier, (ng + _heuristic(nx_, ny_, gx1, gy1), ng, nstate)
                )
    obs.histogram("maze/pops").observe(pops)
    if goal_state is None:
        return None
    return _reconstruct(goal_state, came, ny)


def _heuristic(x: int, y: int, tx: int, ty: int) -> float:
    return abs(x - tx) + abs(y - ty)


def _reconstruct(goal, came, ny: int):
    """Charged-cell lists from the predecessor chain."""
    h_cells = []
    v_cells = []
    state = goal
    while state in came:
        prev = came[state]
        x, y, move = state
        px, py, plast = prev
        (h_cells if move == _H else v_cells).append(x * ny + y)
        # Turn (or start) charge on the corner cell.
        if plast == 2 or plast != move:
            (h_cells if move == _H else v_cells).append(px * ny + py)
        state = prev
    return (
        np.unique(np.asarray(h_cells, dtype=np.int64)),
        np.unique(np.asarray(v_cells, dtype=np.int64)),
    )


# ----------------------------------------------------------------------
# Abacus trial insertion (legalizer cluster dynamic program)
# ----------------------------------------------------------------------


def abacus_trial(e, q, w, x, n, xlo, xhi, seg_width, width, weight, target_x):
    """Trial Abacus insertion into one row segment.

    The segment's cluster state is given as parallel arrays ``e`` (total
    weight), ``q`` (weighted target sum), ``w`` (total width), ``x``
    (clamped optimal start), of which the first ``n`` entries are valid
    and ordered left to right.  A new cell of ``width`` / ``weight``
    targeting left edge ``target_x`` is merged backwards through the
    classic AddCell / Collapse recurrence without mutating the state.

    Returns:
        ``(x_left, merges)`` — the final left edge the new cell would
        get and the number of existing clusters the insertion collapses
        — or ``None`` when the (merged) cluster cannot fit the segment.
    """
    if width > seg_width + 1e-9:
        return None
    xi = min(max(target_x, xlo), xhi - width)
    ce, cq, cw = weight, weight * xi, width
    i = n - 1
    while True:
        xc = min(max(cq / ce, xlo), xhi - cw)
        if i < 0:
            break
        if x[i] + w[i] <= xc + 1e-9:
            break
        ce_new = e[i] + ce
        cq_new = q[i] + cq - ce * w[i]
        cw_new = w[i] + cw
        if cw_new > seg_width + 1e-9:
            return None
        ce, cq, cw = ce_new, cq_new, cw_new
        i -= 1
    xc = min(max(cq / ce, xlo), xhi - cw)
    return (xc + cw - width, n - 1 - i)


# ----------------------------------------------------------------------
# Batched RSMT construction (per-net Steiner trees)
# ----------------------------------------------------------------------


def steiner_batch(x, y, start, max_degree):
    """Per-net RSMT over CSR-packed point sets — the historical loop.

    ``x`` / ``y`` hold the concatenated (deduplicated) points of every
    net; ``start`` is the CSR offset array (length ``nets + 1``).

    Returns:
        One ``(px, py, is_pin, edges)`` tuple per net, matching
        :func:`repro.rsmt.build_rsmt` on each slice.
    """
    from ..rsmt.steiner import build_rsmt

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    start = np.asarray(start, dtype=np.int64)
    out = []
    for i in range(len(start) - 1):
        lo, hi = int(start[i]), int(start[i + 1])
        topo = build_rsmt(x[lo:hi], y[lo:hi], steinerize_max_degree=max_degree)
        out.append((topo.x, topo.y, topo.is_pin, topo.edges))
    return out


# ----------------------------------------------------------------------
# Detour-imitating demand expansion (congestion estimator)
# ----------------------------------------------------------------------


def expand_segments(
    cap_h, cap_v, dmd_h, dmd_v, horizontal, fixed, lo, hi, lo_is_pin, hi_is_pin,
    radius, keep_weight,
):
    """Expand congested straight segments in place, one at a time.

    Segment ``i`` runs along x at row ``fixed[i]`` when ``horizontal[i]``
    (along y at column ``fixed[i]`` otherwise) over Gcells
    ``lo[i]..hi[i]``.  A segment whose run has overflow redistributes
    its unit demand over the ``radius`` neighbouring rows (columns) in
    proportion to their spare capacity, the original row keeping at
    least ``keep_weight`` per Gcell; a Steiner endpoint (``*_is_pin``
    false) also receives perpendicular detour demand.  Congestion is
    judged against the maps as earlier segments left them, so the
    result depends on segment order.

    Returns:
        The number of segments whose demand was redistributed.
    """
    nx, ny = cap_h.shape
    expanded = 0
    for hz, row, s_lo, s_hi, lo_pin, hi_pin in zip(
        np.asarray(horizontal).tolist(),
        np.asarray(fixed).tolist(),
        np.asarray(lo).tolist(),
        np.asarray(hi).tolist(),
        np.asarray(lo_is_pin).tolist(),
        np.asarray(hi_is_pin).tolist(),
    ):
        if hz:
            views = (cap_h, dmd_h, dmd_v, ny)
        else:
            # The transposed views make the vertical case identical.
            views = (cap_v.T, dmd_v.T, dmd_h.T, nx)
        expanded += _expand_one(
            *views, row, s_lo, s_hi, lo_pin, hi_pin, radius, keep_weight
        )
    return expanded


def _expand_one(
    cap, dmd, dmd_perp, num_rows, row, s_lo, s_hi, lo_is_pin, hi_is_pin,
    radius, keep_weight,
) -> bool:
    """Redistribute one horizontal-convention segment.

    ``cap``/``dmd`` are indexed ``[along, across]``: for a horizontal
    segment that is ``[gx, gy]``; the vertical case passes transposed
    views so the same code applies.  Returns whether it expanded.
    """
    span = slice(s_lo, s_hi + 1)
    length = s_hi - s_lo + 1
    over = dmd[span, row] - cap[span, row]
    if over.max() <= 0.0:
        return False
    lo_k = max(row - radius, 0) - row
    hi_k = min(row + radius, num_rows - 1) - row
    offsets = np.arange(lo_k, hi_k + 1)
    avail = np.empty(len(offsets))
    for i, k in enumerate(offsets):
        spare = cap[span, row + k] - dmd[span, row + k]
        avail[i] = max(float(spare.sum()), 0.0)
    weights = avail.copy()
    weights[offsets == 0] += keep_weight * max(length, 1)
    total = weights.sum()
    if total <= 0.0:
        return False
    weights /= total

    # Redistribute the unit demand across the neighbouring rows.
    dmd[span, row] -= 1.0
    for k, w in zip(offsets, weights):
        if w <= 0.0:
            continue
        dmd[span, row + k] += w
        if k == 0:
            continue
        # Detour connection at Steiner endpoints only (paper Fig. 3c):
        # perpendicular demand between the original and displaced rows.
        step = 1 if k > 0 else -1
        across = slice(min(row + step, row + k), max(row + step, row + k) + 1)
        if not lo_is_pin:
            dmd_perp[s_lo, across] += w
        if not hi_is_pin:
            dmd_perp[s_hi, across] += w
    return True


# ----------------------------------------------------------------------
# Pin-congestion path search (features, Eqs. 12-13)
# ----------------------------------------------------------------------


def path_congestion(cg, ax, ay, bx, by, z_samples):
    """Per edge, the min over L/Z candidate paths of the max Gcell ``cg``.

    Edge ``i`` joins Gcells ``(ax[i], ay[i])`` and ``(bx[i], by[i])``.
    The candidates are the two L paths plus Z paths through up to
    ``z_samples`` evenly spaced interior columns and rows of the
    bounding box (see :func:`interior_samples`).

    Returns:
        A float64 array with one value per edge.
    """
    out = np.empty(len(ax))
    for i, (eax, eay, ebx, eby) in enumerate(
        zip(
            np.asarray(ax).tolist(),
            np.asarray(ay).tolist(),
            np.asarray(bx).tolist(),
            np.asarray(by).tolist(),
        )
    ):
        out[i] = _edge_path_congestion(cg, eax, eay, ebx, eby, z_samples)
    return out


def _edge_path_congestion(cg, ax, ay, bx, by, z_samples) -> float:
    if ax == bx and ay == by:
        return float(cg[ax, ay])
    if ax == bx:
        lo, hi = sorted((ay, by))
        return float(cg[ax, lo : hi + 1].max())
    if ay == by:
        lo, hi = sorted((ax, bx))
        return float(cg[lo : hi + 1, ay].max())
    xlo, xhi = sorted((ax, bx))
    ylo, yhi = sorted((ay, by))
    best = min(
        # L with corner at (bx, ay): H run at ay, V run at bx.
        max(cg[xlo : xhi + 1, ay].max(), cg[bx, ylo : yhi + 1].max()),
        # L with corner at (ax, by).
        max(cg[xlo : xhi + 1, by].max(), cg[ax, ylo : yhi + 1].max()),
    )
    for mid in interior_samples(xlo, xhi, z_samples):
        value = max(
            cg[min(ax, mid) : max(ax, mid) + 1, ay].max(),
            cg[mid, ylo : yhi + 1].max(),
            cg[min(mid, bx) : max(mid, bx) + 1, by].max(),
        )
        best = min(best, value)
    for mid in interior_samples(ylo, yhi, z_samples):
        value = max(
            cg[ax, min(ay, mid) : max(ay, mid) + 1].max(),
            cg[xlo : xhi + 1, mid].max(),
            cg[bx, min(mid, by) : max(mid, by) + 1].max(),
        )
        best = min(best, value)
    return float(best)


def interior_samples(lo: int, hi: int, count: int) -> list:
    """Up to ``count`` evenly spaced integers strictly between ``lo`` and ``hi``."""
    interior = range(lo + 1, hi)
    if len(interior) <= count:
        return list(interior)
    step = len(interior) / (count + 1)
    return [interior[int(step * (i + 1))] for i in range(count)]
