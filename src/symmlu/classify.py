"""Stabilizer classes of symmetric pure states and pure-state LU equivalence.

A symmetric state with an infinite local-unitary stabilizer falls into one of
a short list of families, named here by roman tags:

  i    product of identical 1-qubit states           (one point, mult n)
  iia  balanced two-pole superposition               (equatorial n-gon orbit)
  iib  unbalanced two-pole superposition, t in (0,1) (n-gon orbit off equator)
  iii  the 2-qubit antisymmetric state (density-matrix level carve-out)
  iva  balanced Dicke state, k = n/2                 (antipodal equal clusters)
  ivb  Dicke state with k != n/2                     (antipodal unequal clusters)

Everything else has a finite stabilizer described by the rotational symmetry
group of its point configuration.

psi psi^+ is the single spin-n/2 block of a permutation-invariant state,
whose multipoles move rigidly under rotations.  classify_state takes its one
candidate axis from the first multipole above the cutoff
(mixed.multipole_frame), turns psi once to put that axis at the pole, and
reads the class off the turned coefficients.  Only the finite class finds
the Majorana points of psi, so the infinite classes do not depend on how
well multiple roots are found.  At n = 2 the balanced classes iia and iva
hold the same states, and classify_state raises
AmbiguousClassificationError on them.  lu_equivalent_pure takes its
candidate unitaries from the multipole frames of mixed.frame_candidates, the
decision of lu_equivalent_mixed, and finds no Majorana points of psi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import majorana, mixed, rotmatch, states
from .errors import AmbiguousClassificationError, DomainError
from .tolerances import DEFAULT_TOLERANCES, checked

__all__ = [
    "StabilizerClass",
    "StabilizerSampler",
    "ClassificationResult",
    "ClassCensus",
    "classify_state",
    "lu_equivalent_pure",
    "stabilizer_generators",
    "canonical_state",
    "class_census",
]

@dataclass(frozen=True)
class StabilizerClass:
    """Class tag plus its parameters (t for iib, k for iv, group for finite)."""

    tag: str
    t: float | None = None
    k: int | None = None
    group: rotmatch.PointGroup | None = None

    def __post_init__(self):
        if self.tag not in ("i", "iia", "iib", "iii", "iva", "ivb", "finite"):
            raise DomainError(f"unknown class tag {self.tag!r}")
        if self.tag == "iib" and not (self.t is not None and 0 < self.t < 1):
            raise DomainError("class iib needs a parameter t in (0, 1)")
        if self.tag == "ivb" and self.k is None:
            raise DomainError("class ivb needs an excitation number k")
        if self.tag == "finite" and self.group is None:
            raise DomainError("finite class needs its point group")

    def __str__(self):
        if self.tag == "iib":
            return f"iib(t={self.t:.6g})"
        if self.tag == "ivb":
            return f"ivb(k={self.k})"
        if self.tag == "finite":
            g = self.group
            return f"finite({g.tag}{'' if g.m is None else g.m})"
        return self.tag


def canonical_state(sclass: StabilizerClass, n: int) -> states.SymmetricPureState:
    """Canonical representative of a class for n qubits."""
    tag = sclass.tag
    if tag == "i":
        return states.dicke(n, 0)
    if tag == "iia":
        return states.ghz(n)
    if tag == "iib":
        return states.ghz(n, math.cos(math.pi * sclass.t / 4), math.sin(math.pi * sclass.t / 4))
    if tag == "iva":
        if n % 2:
            raise DomainError("balanced Dicke class needs even n")
        return states.dicke(n, n // 2)
    if tag == "ivb":
        return states.dicke(n, sclass.k)
    if tag == "iii":
        raise DomainError("the antisymmetric class has no symmetric-basis representative")
    raise DomainError(f"no canonical symmetric representative for {tag}")


# ---------------------------------------------------------------------------
# generator samplers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilizerSampler:
    """Produces stabilizer elements of the canonical state of a class.

    unit(params, flip) evaluates the class formula at a parameter tuple:
      i    params = (t_0 .. t_{n-1}), one free phase per qubit
      iia  params = (t_0 .. t_{n-2}); last qubit compensates with the
           opposite-sign phase; flip applies an X layer
      iib  as iia without the flip option
      iii  params = (g,) an arbitrary 2x2 unitary, applied to both qubits
      iva  params = (t,), identical phases; flip applies an X layer
      ivb  params = (t,), identical phases
      finite params = (index,), identical copies of the group element
    """

    sclass: StabilizerClass
    n: int

    @property
    def continuous_dim(self) -> int:
        return {
            "i": self.n,
            "iia": self.n - 1,
            "iib": self.n - 1,
            "iii": 3,
            "iva": 1,
            "ivb": 1,
            "finite": 0,
        }[self.sclass.tag]

    @property
    def has_flip(self) -> bool:
        return self.sclass.tag in ("iia", "iva")

    def unit(self, params=(), flip: bool = False) -> states.LocalUnitary:
        tag = self.sclass.tag
        n = self.n
        if flip and not self.has_flip:
            raise DomainError(f"class {tag} has no antidiagonal layer")
        if tag == "iii":
            (g,) = params
            if not states.is_unitary(np.asarray(g, dtype=np.complex128), 1e-9):
                raise DomainError("class iii parameter must be a 2x2 unitary")
            return states.LocalUnitary((g, g))
        if tag == "finite":
            (idx,) = params
            su2 = rotmatch.so3_to_su2(self.sclass.group.elements[int(idx)])
            return states.LocalUnitary.uniform(su2, n)
        ts = tuple(float(t) for t in params)
        if len(ts) != self.continuous_dim:
            raise DomainError(
                f"class {tag} expects {self.continuous_dim} parameters, got {len(ts)}"
            )
        if tag == "i":
            factors = [states.rz(t) for t in ts]
        elif tag in ("iia", "iib"):
            # the final factor carries the compensating opposite-sign phase,
            # which is what actually fixes the two-pole projector
            factors = [states.rz(t) for t in ts] + [states.rz(-sum(ts))]
        else:  # iva, ivb
            factors = [states.rz(ts[0])] * n
        if flip:
            factors = [f @ states.PAULI_X for f in factors]
        return states.LocalUnitary(tuple(factors))

    def random(self, rng: np.random.Generator) -> states.LocalUnitary:
        tag = self.sclass.tag
        if tag == "iii":
            return self.unit((states.random_su2(rng),))
        if tag == "finite":
            return self.unit((rng.integers(len(self.sclass.group.elements)),))
        params = tuple(rng.uniform(0, 2 * math.pi, size=self.continuous_dim))
        flip = bool(rng.integers(2)) if self.has_flip else False
        return self.unit(params, flip)

    def representative_generators(self) -> tuple:
        """One element per continuous direction plus any discrete layer."""
        tag = self.sclass.tag
        out = []
        if tag == "iii":
            out.append(self.unit((states.rx(2 * math.pi / 3),)))
            out.append(self.unit((states.rz(2 * math.pi / 3),)))
        elif tag == "finite":
            for g in self.sclass.group.generators:
                out.append(states.LocalUnitary.uniform(rotmatch.so3_to_su2(g), self.n))
            if not out:
                out.append(states.LocalUnitary.uniform(np.eye(2, dtype=complex), self.n))
        else:
            for d in range(self.continuous_dim):
                params = tuple(
                    2 * math.pi / 3 if j == d else 0.0 for j in range(self.continuous_dim)
                )
                out.append(self.unit(params))
            if self.has_flip:
                out.append(self.unit((0.0,) * self.continuous_dim, flip=True))
        return tuple(out)


def stabilizer_generators(sclass: StabilizerClass, n: int) -> StabilizerSampler:
    """Sampler for the stabilizer family of a class's canonical state."""
    if n < 1:
        raise DomainError("need n >= 1")
    if sclass.tag == "iii" and n != 2:
        raise DomainError("the antisymmetric class exists only for n = 2")
    if sclass.tag == "iva" and n % 2:
        raise DomainError("balanced Dicke class needs even n")
    if sclass.tag == "ivb" and not (0 < sclass.k < n and 2 * sclass.k != n):
        raise DomainError(f"class ivb needs 0 < k < n with k != n/2, got k={sclass.k}")
    if sclass.tag in ("iia", "iib") and n < 2:
        raise DomainError("two-pole classes need n >= 2")
    return StabilizerSampler(sclass, n)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationResult:
    sclass: StabilizerClass
    canonical: states.SymmetricPureState
    transform: np.ndarray  # g with g^{(x)n} psi ~ canonical up to phase
    generators: tuple = field(default=())
    sampler: StabilizerSampler | None = None
    residual: float = 0.0

    def __str__(self):
        return f"{self.sclass} (residual {self.residual:.2e})"


def classify_state(psi: states.SymmetricPureState, tol: float | None = None) -> ClassificationResult:
    """Decide the stabilizer class of a symmetric pure state.

    A state of class i, ii or iv has a rotation axis, and every multipole of
    psi psi^+ below rank n is axial about it; so the first one above the
    cutoff (mixed.multipole_frame, on the single spin-n/2 block) gives the
    one candidate axis.  psi is turned once, axis to the pole, and the class
    is read off the turned coefficients, each compared with tol: one left is
    class i or iv, only the two poles left is class ii, and anything else
    has the finite stabilizer of its Majorana configuration.
    """
    tol = checked(tol, DEFAULT_TOLERANCES.equality)
    n = psi.n
    blocks = states.SpinBlocks(n, (n / 2,), (1,))
    *_, g = mixed.multipole_frame(np.outer(psi.coeffs, psi.coeffs.conj()), blocks)
    turned = states.apply_diag_symmetric(g, psi).coeffs
    mags = np.abs(turned)
    left = np.flatnonzero(mags > tol)
    if left.size == 1:
        k = int(left[0])
        kc = min(k, n - k)
        if k != kc:
            g = states.POLE_FLIP @ g
        if kc == 0:
            sclass = StabilizerClass("i")
        else:
            sclass = StabilizerClass("iva") if 2 * kc == n else StabilizerClass("ivb", k=kc)
    elif left.tolist() == [0, n]:
        if mags[0] < mags[n] - tol:
            # the flip reverses the Dicke coefficients, up to a global phase
            g, turned = states.POLE_FLIP @ g, turned[::-1]
        a, b = np.abs(turned[[0, n]])
        phase = (np.angle(turned[0]) - np.angle(turned[n])) / n
        g = np.array([[1, 0], [0, np.exp(1j * phase)]], dtype=np.complex128) @ g
        t = 4 / math.pi * math.atan2(b, a)
        sclass = StabilizerClass("iia") if abs(a - b) <= tol else StabilizerClass("iib", t=t)
    else:
        group = rotmatch.symmetry_group(majorana.majorana_points(psi))
        sclass = StabilizerClass("finite", group=group)
        sampler = StabilizerSampler(sclass, n)
        return ClassificationResult(
            sclass=sclass,
            canonical=psi.phase_normalized(),
            transform=np.eye(2, dtype=np.complex128),
            generators=sampler.representative_generators(),
            sampler=sampler,
            residual=0.0,
        )
    if n == 2 and sclass.tag in ("iia", "iva"):
        # two antipodal points are a balanced Dicke pair about their axis and
        # a balanced two-pole pair about every axis perpendicular to it
        raise AmbiguousClassificationError(["iva", "iia"])
    return _build_result(psi, sclass, g, tol)


def _build_result(psi, sclass, g, tol):
    canon = canonical_state(sclass, psi.n)
    moved = states.apply_diag_symmetric(g, psi)
    residual = moved.distance(canon)
    if residual > 10 * tol:
        raise AmbiguousClassificationError(
            [f"{sclass} (canonical residual {residual:.3g} exceeds tolerance)"]
        )
    sampler = StabilizerSampler(sclass, psi.n)
    return ClassificationResult(
        sclass=sclass,
        canonical=canon,
        transform=g,
        generators=sampler.representative_generators(),
        sampler=sampler,
        residual=float(residual),
    )


# ---------------------------------------------------------------------------
# pure-state LU equivalence
# ---------------------------------------------------------------------------


def lu_equivalent_pure(
    psi: states.SymmetricPureState,
    phi: states.SymmetricPureState,
    tol: float | None = None,
):
    """A 2x2 unitary g with g^{(x)n} psi = phi up to phase, or None.

    psi psi^+ is a permutation-invariant state with a single spin block,
    j = n/2, so the multipole frames of mixed.frame_candidates give the
    candidate unitaries, with no root finding on psi itself.  The candidate
    nearest phi in phase distance is returned when that distance is at most
    tol.
    """
    tol = checked(tol, DEFAULT_TOLERANCES.equality)
    if psi.n != phi.n:
        raise DomainError(f"qubit counts differ: {psi.n} vs {phi.n}")
    blocks = states.SpinBlocks(psi.n, (psi.n / 2,), (1,))
    rho_b, sigma_b = (np.outer(s.coeffs, s.coeffs.conj()) for s in (psi, phi))
    candidates, _ = mixed.frame_candidates(rho_b, sigma_b, blocks)
    scored = ((states.apply_diag_symmetric(g, psi).distance(phi), g) for g in candidates)
    dist, g = min(scored, key=lambda c: c[0], default=(math.inf, None))
    return g if dist <= tol else None


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassCensus:
    """Families with infinite stabilizer for a given n."""

    n: int
    product: bool
    balanced_two_pole: bool
    two_pole_family: str
    balanced_dicke: bool
    dicke_general_ks: tuple
    stated_dicke_general_count: int
    dicke_count_discrepancy: bool

    def to_dict(self):
        return {
            "n": self.n,
            "classes": {
                "i": {"count": 1},
                "iia": {"count": 1},
                "iib": {"family": self.two_pole_family},
                "iva": {"count": 1 if self.balanced_dicke else 0},
                "ivb": {
                    "canonical_k": list(self.dicke_general_ks),
                    "canonical_count": len(self.dicke_general_ks),
                    "stated_count": self.stated_dicke_general_count,
                    "count_discrepancy": self.dicke_count_discrepancy,
                },
            },
        }


def class_census(n: int) -> ClassCensus:
    """Enumerate the infinite-stabilizer classes for n >= 3 qubits.

    The general-Dicke classes are canonically k in {1 .. ceil(n/2) - 1}
    (complements identified, the balanced case carved out); the commonly
    stated count floor(n/2) disagrees for even n and is reported alongside
    with a discrepancy flag.
    """
    if n < 3:
        raise DomainError("census needs n >= 3")
    ks = tuple(k for k in range(1, n // 2 + 1) if 2 * k != n)
    stated = n // 2
    return ClassCensus(
        n=n,
        product=True,
        balanced_two_pole=True,
        two_pole_family="t in (0, 1)",
        balanced_dicke=(n % 2 == 0),
        dicke_general_ks=ks,
        stated_dicke_general_count=stated,
        dicke_count_discrepancy=(len(ks) != stated),
    )
