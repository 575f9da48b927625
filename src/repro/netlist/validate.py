"""Design sanity and legality checks.

Two levels are provided: :func:`validate_design` checks structural
well-formedness (run after construction or deserialization), and
:func:`check_legal` verifies placement legality (run after legalization)
as a view over the ``placement/*`` checkers of :mod:`repro.verify`, the
one implementation of those invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design import Design


@dataclass
class ValidationReport:
    """Outcome of a validation pass.

    Attributes:
        errors: fatal problems; the design must not be used.
        warnings: suspicious but usable conditions.
    """

    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self) -> str:
        lines = [f"errors: {len(self.errors)}, warnings: {len(self.warnings)}"]
        lines += [f"  E: {e}" for e in self.errors]
        lines += [f"  W: {w}" for w in self.warnings]
        return "\n".join(lines)


def validate_design(design: Design) -> ValidationReport:
    """Structural checks: sizes, containment, connectivity degeneracies."""
    report = ValidationReport()
    if design.num_cells == 0:
        report.errors.append("design has no cells")
        return report
    if np.any(design.w <= 0) or np.any(design.h <= 0):
        report.errors.append("non-positive cell dimensions")
    die = design.die
    fixed = ~design.movable
    if fixed.any():
        xlo = design.x[fixed] - design.w[fixed] / 2
        ylo = design.y[fixed] - design.h[fixed] / 2
        xhi = design.x[fixed] + design.w[fixed] / 2
        yhi = design.y[fixed] + design.h[fixed] / 2
        eps = 1e-6
        outside = (
            (xlo < die.xlo - eps)
            | (ylo < die.ylo - eps)
            | (xhi > die.xhi + eps)
            | (yhi > die.yhi + eps)
        )
        if outside.any():
            report.errors.append(
                f"{int(outside.sum())} fixed cells extend outside the die"
            )
    degrees = design.net_degrees()
    singletons = int((degrees <= 1).sum())
    if singletons:
        report.warnings.append(f"{singletons} nets with fewer than two pins")
    if design.num_pins:
        counts = np.bincount(design.pin_cell, minlength=design.num_cells)
        floating = int((counts == 0)[design.movable].sum())
        if floating:
            report.warnings.append(f"{floating} movable cells with no pins")
    util = design.movable_area / max(_free_area(design), 1e-12)
    if util > 1.0:
        report.errors.append(f"movable area exceeds free die area (util={util:.3f})")
    elif util > 0.95:
        report.warnings.append(f"very high utilization {util:.3f}")
    return report


def check_legal(
    design: Design, site_align: bool = True, tolerance: float = 1e-6
) -> ValidationReport:
    """Placement legality: the ``placement/*`` checkers of :mod:`repro.verify`.

    Die containment, row alignment, site alignment (optional) and
    overlap, with the error message of every violation copied into
    the report.
    """
    from ..verify import CHECKERS, VerifyContext, run_checkers  # verify imports netlist

    names = [
        name
        for name in CHECKERS
        if name.startswith("placement/")
        and (site_align or name != "placement/site_alignment")
    ]
    found = run_checkers(VerifyContext(design, tolerance=tolerance), names=names)
    return legality_of(found)


def legality_of(report) -> ValidationReport:
    """The :func:`check_legal` view of a :class:`repro.verify.VerifyReport`:
    the messages of its ``placement/*`` errors."""
    return ValidationReport(
        errors=[v.message for v in report.errors if v.checker.startswith("placement/")]
    )


def _free_area(design: Design) -> float:
    """Die area minus the area of fixed objects (approximate: no dedup).

    Subtracts fixed-cell area plus the die-clipped area of placement
    blockages — blockages on layers below ``routing_layers_start``
    obstruct placement sites, not just routing tracks — so utilization
    checks can fire on blockage-heavy designs.
    """
    area = design.die.area
    fixed = ~design.movable
    if fixed.any():
        area -= float((design.w[fixed] * design.h[fixed]).sum())
    routing_start = design.technology.routing_layers_start
    for blk in design.blockages:
        if blk.layer >= routing_start:
            continue
        area -= blk.rect.overlap_area(design.die)
    return area
