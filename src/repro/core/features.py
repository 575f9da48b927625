"""Multi-feature extraction for cell padding (paper Sec. III-B1).

Three feature classes, each covering a blind spot of the previous one:

* **Local** features — the signed congestion (Eq. 9) and pin density of
  the Gcells a cell overlaps.  Clipped views used by prior work cannot
  tell clustered cells apart; keeping the sign preserves the deviation
  between the estimate and the eventual routing result.
* **CNN-inspired** features — a mean-filter "convolution" over an
  expanded bounding box captures the surrounding region, like a CNN
  kernel aggregating neighbouring elements.
* **GNN-inspired** features — pin congestion (Eqs. 12-13) aggregates
  congestion along the *netlist topology*: for every pin, the best
  (minimum over candidate L/Z paths) of the worst (maximum along the
  path) congestion of its two-point nets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from .. import kernels, obs
from ..netlist.design import Design
from .congestion import CongestionMap


FEATURE_NAMES = (
    "local_cg",
    "local_pin",
    "around_cg",
    "around_pin",
    "pin_cg",
)


@dataclass
class FeatureParams:
    """Feature-extraction knobs.

    Attributes:
        kernel_size: mean-filter size (Gcells) of the CNN-inspired
            features — the convolution-kernel analogue.
        z_samples: interior Z-path positions sampled per direction when
            enumerating candidate paths for pin congestion.
        use_cnn / use_gnn: feature-class switches (ablation A1).
    """

    kernel_size: int = 3
    z_samples: int = 2
    use_cnn: bool = True
    use_gnn: bool = True


@dataclass
class FeatureSet:
    """Per-cell feature arrays, in :data:`FEATURE_NAMES` order."""

    values: dict

    def matrix(self, names=FEATURE_NAMES) -> np.ndarray:
        """``(num_cells, num_features)`` matrix in the given name order."""
        return np.stack([self.values[n] for n in names], axis=1)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.values[name]


class FeatureExtractor:
    """Computes the padding features for one design."""

    def __init__(self, design: Design, params: FeatureParams | None = None) -> None:
        self.design = design
        self.params = params or FeatureParams()

    def extract(self, cmap: CongestionMap, topologies: list) -> FeatureSet:
        """All features at the design's current placement.

        Fixed cells and macros receive zero features (they are never
        padded).
        """
        with obs.span("features/extract", cells=self.design.num_cells):
            return self._extract(cmap, topologies)

    def _extract(self, cmap: CongestionMap, topologies: list) -> FeatureSet:
        design = self.design
        n = design.num_cells
        grid = cmap.grid
        movable = design.movable & ~design.is_macro
        values = {name: np.zeros(n) for name in FEATURE_NAMES}

        idx = np.flatnonzero(movable)
        if len(idx) == 0:
            return FeatureSet(values)
        xlo = design.x[idx] - design.w[idx] / 2
        xhi = design.x[idx] + design.w[idx] / 2
        ylo = design.y[idx] - design.h[idx] / 2
        yhi = design.y[idx] + design.h[idx] / 2

        # Local features: max over the (up to four) overlapped Gcells.
        values["local_cg"][idx] = _corner_max(grid, cmap.cg, xlo, ylo, xhi, yhi)
        values["local_pin"][idx] = _corner_max(
            grid, cmap.pin_density, xlo, ylo, xhi, yhi
        )

        if self.params.use_cnn:
            k = max(int(self.params.kernel_size), 1)
            around_cg = uniform_filter(cmap.cg, size=k, mode="nearest")
            around_pin = uniform_filter(cmap.pin_density, size=k, mode="nearest")
            gx, gy = grid.gcell_of(design.x[idx], design.y[idx])
            values["around_cg"][idx] = around_cg[gx, gy]
            values["around_pin"][idx] = around_pin[gx, gy]

        if self.params.use_gnn:
            values["pin_cg"] = self._pin_congestion(cmap, topologies)
            values["pin_cg"][~movable] = 0.0
        return FeatureSet(values)

    # ------------------------------------------------------------------
    # GNN-inspired pin congestion (Eqs. 12-13)
    # ------------------------------------------------------------------

    def _pin_congestion(self, cmap: CongestionMap, topologies: list) -> np.ndarray:
        """Per cell, the sum over its pins of the pin's point congestion.

        A topology point's congestion is the min over its incident edges
        of :func:`repro.kernels.path_congestion`; a pin adds the value of
        the pin point in its Gcell.  Values are added per cell in
        (topology, net-pin) order, so the float sums are those of the
        per-pin loop this replaces.
        """
        design = self.design
        pin_cg_cell = np.zeros(design.num_cells)
        with obs.span("features/pin_congestion", nets=len(topologies)):
            if not topologies:
                return pin_cg_cell
            gx = np.concatenate([t.gx for t in topologies]).astype(np.int64)
            gy = np.concatenate([t.gy for t in topologies]).astype(np.int64)
            best = _point_congestion(cmap.cg, topologies, gx, gy, self.params.z_samples)
            pins, point = _pin_points(design, cmap.grid, topologies, gx, gy)
            hit = point >= 0
            hit[hit] = np.isfinite(best[point[hit]])
            np.add.at(pin_cg_cell, design.pin_cell[pins[hit]], best[point[hit]])
        return pin_cg_cell

    def _segment_path_congestion(
        self, cg: np.ndarray, ax: int, ay: int, bx: int, by: int
    ) -> float:
        """Min over L/Z candidate paths of the max Gcell congestion."""
        value = kernels.path_congestion(cg, [ax], [ay], [bx], [by], self.params.z_samples)
        return float(value[0])


def _point_congestion(cg, topologies, gx, gy, z_samples) -> np.ndarray:
    """Per topology point (concatenated in topology order), the min over
    its incident edges of :func:`repro.kernels.path_congestion`; ``inf``
    for a point without edges."""
    sizes = np.array([len(t.gx) for t in topologies], dtype=np.int64)
    per_topo = np.array([len(t.edges) for t in topologies], dtype=np.int64)
    first = np.zeros(len(topologies), dtype=np.int64)
    np.cumsum(sizes[:-1], out=first[1:])
    edges = np.concatenate([t.edges for t in topologies]).astype(np.int64)
    edges += np.repeat(first, per_topo)[:, None]
    a, b = edges[:, 0], edges[:, 1]
    values = kernels.path_congestion(cg, gx[a], gy[a], gx[b], gy[b], z_samples)
    best = np.full(len(gx), np.inf)
    np.minimum.at(best, a, values)
    np.minimum.at(best, b, values)
    return best


def _pin_points(design, grid, topologies, gx, gy) -> tuple:
    """The pins of every topology's net, in (topology, net-pin) order, and
    each pin's topology point: the pin point in the pin's Gcell (the last
    one, should two share it), or ``-1`` for none."""
    sizes = np.array([len(t.gx) for t in topologies], dtype=np.int64)
    nets = np.array([t.net for t in topologies], dtype=np.int64)
    starts = design.net_start[nets]
    counts = design.net_start[nets + 1] - starts
    pins = design.net_pins[_ranges(starts, counts)]
    px, py = design.pin_positions()
    pgx, pgy = grid.gcell_of(px[pins], py[pins])
    topo = np.arange(len(topologies))

    def key(t, x, y):  # (topology, Gcell) as one sortable int
        return (t * grid.nx + x) * grid.ny + y

    points = np.flatnonzero(np.concatenate([t.is_pin for t in topologies]))
    point_keys = key(np.repeat(topo, sizes)[points], gx[points], gy[points])
    order = np.argsort(point_keys, kind="stable")
    sorted_keys = point_keys[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = sorted_keys[:-1] != sorted_keys[1:]
    sorted_keys, sorted_points = sorted_keys[last], points[order[last]]
    point = np.full(len(pins), -1, dtype=np.int64)
    if len(sorted_keys):
        pin_keys = key(np.repeat(topo, counts), pgx, pgy)
        slot = np.minimum(np.searchsorted(sorted_keys, pin_keys), len(sorted_keys) - 1)
        found = sorted_keys[slot] == pin_keys
        point[found] = sorted_points[slot[found]]
    return pins, point


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` for each pair."""
    offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return np.repeat(starts - offsets, counts) + np.arange(counts.sum())


def _corner_max(grid, grid_map, xlo, ylo, xhi, yhi) -> np.ndarray:
    """Max of a Gcell map over the rectangle corners of each cell.

    Standard cells rarely span more than 2x2 Gcells, so sampling the four
    corner Gcells realizes Eq. (9)'s max over overlapped Gcells.
    """
    gx0, gy0 = grid.gcell_of(xlo, ylo)
    gx1, gy1 = grid.gcell_of(xhi, yhi)
    return np.maximum.reduce(
        [
            grid_map[gx0, gy0],
            grid_map[gx1, gy0],
            grid_map[gx0, gy1],
            grid_map[gx1, gy1],
        ]
    )
