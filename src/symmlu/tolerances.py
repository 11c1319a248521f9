"""Centralized numerical tolerances.

DEFAULT_TOLERANCES holds the package's default thresholds in one place, and
no operation takes a Tolerances record.  The CLI's --tol flags feed one
float tolerance each, which left at None falls back to a field:
  majorana --tol  majorana_points' cluster radius (cluster);
  symmetry --tol  classify.rotation_group (equality);
  classify --tol  classify_state (equality);
  equiv --tol     lu_equivalent_pure (equality).
symmetry_group and the rotation matching it calls, which serve
configurations given as points, read match and take no per-call tol.
is_unitary and permutation_defect take one, since the package itself calls
them at more than one tolerance.  lu_equivalent_pure's tol bounds only the
phase distance of its answer.  rotation_group's tol gates the coefficients of
psi turned to its candidate axis and the phase distance by which each frame
self-match it keeps fixes psi; the finite group it names is the one the kept
self-matches generate, so its elements are bounded only as words: a product
of k kept self-matches moves psi by at most k tol.  classify_state's tol
gates the same two, and the canonical residual at ten times tol.  The
multipole frames they take their rotations from (mixed.frame_candidates,
mixed.multipole_frame) read every field, and the multipole cutoff, at its
default, as the mixed decision does.  Every other comparison reads its field
directly.  The operations behind the --tol flags and the mixed decisions'
threshold pass what they are given through checked, which refuses a value
that is not positive and finite.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

__all__ = ["Tolerances", "DEFAULT_TOLERANCES", "checked"]


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


def checked(value: float | None, default: float, name: str = "tol") -> float:
    """value, or default when value is None; DomainError unless value is positive and finite."""
    if value is not None and not 0 < value < float("inf"):
        raise DomainError(f"{name} must be positive and finite, got {value}")
    return default if value is None else value
