"""Correctness tooling: invariant checkers + cross-backend differential
harness.

PUFFER's quality claims rest on properties the rest of the code only
assumes: legalized placements are overlap-free, row/site-aligned, and
inside the die; discrete padding respects the area budget; netlists are
structurally sound; routing accounting is self-consistent; and the
fast kernel backends stay equivalent to the reference loops.  This package
makes every one of those properties *checkable*:

* :func:`run_checkers` drives the checker registry over a
  :class:`VerifyContext` and returns a :class:`VerifyReport` of
  structured :class:`Violation` records — no raising, no string parsing.
* :func:`run_differential` runs the same generated design through every
  available kernel backend (map stages, the router, and the placer →
  legalizer flow) and diffs each against the reference backend within
  stated tolerances.

Entry points: ``RunConfig(verify="cheap"|"full")`` on the
:mod:`repro.api` facade, ``--verify`` on the CLI run commands, and the
``repro verify`` subcommand for the differential harness.  Checkers run
under ``verify/*`` observability spans and bump the
``verify/violations`` counter.
"""

from .checkers import (
    CHECKERS,
    LEVELS,
    VerifyContext,
    check_die_containment,
    check_netlist,
    check_overlaps,
    check_padding,
    check_routing,
    check_row_alignment,
    check_site_alignment,
    checkers_for,
    run_checkers,
)
from .differential import (
    BACKENDS,
    DiffCase,
    DiffReport,
    diff_flow,
    diff_maps,
    diff_route,
    run_differential,
)
from .violations import (
    SEVERITIES,
    VerificationError,
    VerifyReport,
    Violation,
)

__all__ = [
    "BACKENDS",
    "CHECKERS",
    "DiffCase",
    "DiffReport",
    "LEVELS",
    "SEVERITIES",
    "VerificationError",
    "VerifyContext",
    "VerifyReport",
    "Violation",
    "check_die_containment",
    "check_netlist",
    "check_overlaps",
    "check_padding",
    "check_routing",
    "check_row_alignment",
    "check_site_alignment",
    "checkers_for",
    "diff_flow",
    "diff_maps",
    "diff_route",
    "run_checkers",
    "run_differential",
]
