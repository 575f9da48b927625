"""Detour-imitating routing demand expansion (paper Sec. III-A3).

Clustered cells concentrate the probabilistic demand into narrow stripes;
a real router (and the eventual cell spreading) would instead detour
through neighbouring Gcell rows/columns.  Rather than perturb the
electrostatic system by spreading cells directly, PUFFER rewrites the
demand map: every *congested I-shaped* two-point net redistributes its
unit demand over the neighbouring rows (columns) in proportion to their
remaining capacity.  A Steiner endpoint additionally receives
perpendicular demand connecting the displaced run back to the tree — a
routing detour — while a pin endpoint does not, because the owning cell
itself can move (cell spreading).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels, obs
from ..router.grid import RoutingGrid
from .demand import DemandResult


@dataclass
class ExpansionParams:
    """Knobs of the demand expansion.

    Attributes:
        radius: how many rows/columns on each side receive demand.
        keep_weight: minimum weight retained by the original row even
            when it has no spare capacity (keeps the map smooth).
    """

    radius: int = 2
    keep_weight: float = 0.25


def expand_demand(
    grid: RoutingGrid,
    demand: DemandResult,
    params: ExpansionParams | None = None,
) -> None:
    """Expand congested I-segments in place (paper Fig. 3c).

    Congestion is judged against the *current* maps, so earlier
    expansions relieve later ones — imitating routers negotiating
    resources one net at a time.  The segment loop is the
    :func:`repro.kernels.expand_segments` kernel.
    """
    params = params or ExpansionParams()
    segments = demand.i_segments
    with obs.span("congestion/expansion", segments=len(segments)) as span:
        fields = np.fromiter(
            (
                value
                for s in segments
                for value in (s.horizontal, s.fixed, s.lo, s.hi, s.lo_is_pin, s.hi_is_pin)
            ),
            dtype=np.int64,
            count=6 * len(segments),
        ).reshape(len(segments), 6)
        flags = fields.astype(bool)
        expanded = kernels.expand_segments(
            grid.cap_h, grid.cap_v, demand.dmd_h, demand.dmd_v,
            flags[:, 0], fields[:, 1], fields[:, 2], fields[:, 3],
            flags[:, 4], flags[:, 5], params.radius, params.keep_weight,
        )
        span.set(expanded=expanded)
