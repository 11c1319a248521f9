"""Centralized numerical tolerances.

DEFAULT_TOLERANCES holds the package's default thresholds in one place.  No
operation takes a Tolerances record: a comparing operation takes a single
float where its signature offers one, and left at None that falls back to the
matching field of DEFAULT_TOLERANCES.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Tolerances", "DEFAULT_TOLERANCES"]


@dataclass(frozen=True)
class Tolerances:
    """Bundle of comparison thresholds.

    hermiticity   max |M - M^dagger| entry allowed in density-matrix checks
    equality      generic state / matrix equality threshold
    cluster       chordal distance below which Majorana points merge
    match         chordal tolerance for point-configuration matching
    root_residual relative polynomial residual allowed at returned roots
    coeff_zero    relative magnitude below which a polynomial coefficient
                  counts as zero (degree trimming)
    """

    hermiticity: float = 1e-10
    equality: float = 1e-8
    cluster: float = 1e-6
    match: float = 1e-6
    root_residual: float = 1e-9
    coeff_zero: float = 1e-12


DEFAULT_TOLERANCES = Tolerances()
