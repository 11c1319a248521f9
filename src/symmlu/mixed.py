"""LU equivalence of permutation-invariant mixed states, and the frame decision of pure ones.

For permutation-invariant density matrices of n >= 3 qubits, local-unitary
equivalence reduces to conjugation by g^{(x)n} for one 2x2 unitary g, that
is to one rotation R.  On the spin blocks of the states (states.SpinBlocks)
the rank-k multipole of a block moves as a 2k-qubit symmetric state, so it
pins R down (Serrano-Ensastiga and Braun, PRA 101, 022332 (2020)).  The
first multipole of rho above a relative cutoff (rank 1 first, top spin
first) gives the candidates (frame_candidates).  When it is axial, about the
bottom eigenvector of its spin-k quadrupole, they are the families
g = g_sigma^+ rz(phi) [X] g_rho that keep its real axial coefficient's sign,
each solved exactly in phi.  Otherwise they are the rotations carrying its
Majorana constellation onto sigma's, and with no multipole above the cutoff
the identity.  For a symmetric pure state psi, psi psi^+ is a density
matrix with the single spin block n/2, so classify.lu_equivalent_pure
decides with the same candidates, and classify.classify_state reads its
one candidate axis off the same first multipole (multipole_frame).

The candidate with the least block distance is reported as equivalent only
after a dense re-check of || g^{(x)n} rho g^{(x)n +} - sigma ||_F.  Cheap LU
invariants run first and give certified negatives: the global and 1-qubit
reduced spectra (spectra_report) and the 2-qubit reduced spectrum, which
tells GHZ_4 ({1/2, 1/2, 0, 0}) from Dicke_4,2 ({2/3, 1/6, 1/6, 0}).  Any
other miss is undecided, never a proof of inequivalence.

The decision has one setting, the acceptance threshold on D
(default_threshold(n) = 1e-7 2^(n/2) unless given), and every result
reports the threshold it applied.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, majorana, rotmatch, search, states
from .errors import DomainError, NotGhzFormError
# re-exported: perfbench/spans.py traces refine_minimum as mixed.refine_minimum
from .search import refine_minimum  # noqa: F401
from .tolerances import DEFAULT_TOLERANCES, checked

__all__ = [
    "GhzForm",
    "MixedEquivalenceResult",
    "SpectraReport",
    "SupportCheckResult",
    "lu_equivalent_mixed",
    "two_factor_search",
    "canonical_ghz_form",
    "ghz_form_density",
    "two_qubit_support_check",
    "default_threshold",
    "spectra_report",
    "frame_candidates",
    "multipole_frame",
]

_SPECTRUM_TOL = 1e-8


def default_threshold(n: int) -> float:
    return 1e-7 * 2 ** (n / 2)


_TWO_FACTOR_GRID, _TWO_FACTOR_STARTS = 8, 8  # the n = 2 lattice search
_MULTIPOLE_CUTOFF = 1e-6  # multipole norm, relative to the block form's, that counts as zero


@dataclass(frozen=True)
class MixedEquivalenceResult:
    """Outcome of the mixed-state equivalence decision.

    status is one of:
      equivalent             a unitary achieving D <= threshold was found
      inequivalent_spectrum  an LU-invariant spectrum differs (certified no)
      undecided              invariants match but no candidate rotation reached
                             the threshold; carries the best distance, if any

    threshold is the acceptance threshold on D that the decision applied.
    """

    status: str
    unitary: np.ndarray | None
    distance: float | None
    threshold: float
    detail: str = ""

    def __bool__(self):
        return self.status == "equivalent"


@dataclass(frozen=True)
class SpectraReport:
    """Sorted LU-invariant spectra used by the mixed-equivalence prefilter."""

    global_spectrum: tuple
    reduced_spectrum: tuple

    def to_dict(self):
        return {
            "global_spectrum": list(self.global_spectrum),
            "reduced_1qubit_spectrum": list(self.reduced_spectrum),
        }


def spectra_report(rho: states.DensityMatrix) -> SpectraReport:
    glob = np.sort(np.linalg.eigvalsh(rho.mat))[::-1]
    red = np.sort(np.linalg.eigvalsh(states.reduced_1qubit(rho, 0)))[::-1]
    return SpectraReport(tuple(float(v) for v in glob), tuple(float(v) for v in red))


def _two_qubit_spectrum(rho: states.DensityMatrix) -> np.ndarray:
    """Spectrum of the reduced state of qubits 0 and 1, traced down from the (2,)*2n tensor."""
    n = rho.n
    rows = list(range(n))
    cols = [n, n + 1] + rows[2:]
    red = np.einsum(rho.mat.reshape((2,) * (2 * n)), rows + cols, [0, 1, n, n + 1])
    return np.sort(np.linalg.eigvalsh(red.reshape(4, 4)))[::-1]


def _spectrum_mismatch(rho, sigma, reduced=True) -> str | None:
    """Which LU-invariant spectrum differs, a certified negative, or None.

    reduced adds the 1- and 2-qubit reduced spectra (n >= 3) to the global
    one; the 2-qubit spectra are computed only when the others agree.
    """
    a, b = spectra_report(rho), spectra_report(sigma)

    def checks():
        yield a.global_spectrum, b.global_spectrum, "global eigenvalue multisets differ"
        if reduced:
            yield a.reduced_spectrum, b.reduced_spectrum, "1-qubit reduced spectra differ"
            yield _two_qubit_spectrum(rho), _two_qubit_spectrum(sigma), "2-qubit reduced spectra differ"

    for ea, eb, detail in checks():
        if float(np.max(np.abs(np.subtract(ea, eb)))) > _SPECTRUM_TOL:
            return detail
    return None


def _conjugate(g: np.ndarray, mat: np.ndarray, n: int) -> np.ndarray:
    """g^{(x)n} mat g^{(x)n +}, g applied to each of the 2n axes of the (2,)*2n tensor."""
    t = mat.reshape((2,) * (2 * n))
    for ax in range(2 * n):
        t = np.moveaxis(np.tensordot(g if ax < n else g.conj(), t, axes=(1, ax)), 0, ax)
    return t.reshape(mat.shape)


def _axis_turn(v: np.ndarray) -> np.ndarray:
    """The 2x2 unitary g that turns the axis of a Hermitian block's rank-k multipole v to the pole.

    An axial multipole is c T_k0 about an axis n, c real, so as a spin-k
    vector its quadrupole M_ab = Re<v|J_a J_b|v> / <v|v> is
    k(k + 1)/2 (1 - n n^T): n is M's bottom eigenvector.
    """
    w = states.spin_operators(v.size - 1) @ v
    axis = np.linalg.eigh((w.conj() @ w.T).real)[1][:, 0]
    return rotmatch.so3_to_su2(rotmatch.rotation_between(axis, majorana.NORTH_POLE))


def _axial_coefficient(v: np.ndarray, g: np.ndarray) -> float | None:
    """c of v / |v| = c T_k0 once g (_axis_turn) has turned it, or None when v is not axial.

    v is axial when only the middle coefficient is left after g.
    """
    k = v.size // 2
    turned = states.symmetric_power(g, 2 * k) @ v / np.linalg.norm(v)
    axial = np.delete(np.abs(turned), k).max() <= DEFAULT_TOLERANCES.equality
    return float(turned[k].real) if axial else None


def _best_turn(rho_t: np.ndarray, sigma_t: np.ndarray, blocks) -> float:
    """The phi maximizing the weighted overlap of D(rz(phi)) rho_t D(rz(phi))^+ with sigma_t.

    Entry (a, b) turns by e^{-i q phi}, q = m_a - m_b, so the overlap is
    sum_{|q| <= n} c_q e^{-i q phi}; its critical points are roots of a
    polynomial of degree 2n in z = e^{-i phi}, and the best is kept.
    """
    n = blocks.n
    mz = np.concatenate([j - np.arange(sl.stop - sl.start) for j, sl in zip(blocks.spins, blocks.slices)])
    q = np.rint(mz[:, None] - mz[None, :]).astype(int) + n
    c = np.zeros(2 * n + 1, dtype=np.complex128)
    np.add.at(c, q.ravel(), (blocks.weight * rho_t * sigma_t.conj()).ravel())
    orders = np.arange(-n, n + 1)
    deriv = -1j * orders * c
    # roundoff-sized terms would throw the companion matrix off the unit circle
    deriv[np.abs(deriv) <= 1e-12 * np.abs(deriv).max(initial=0.0)] = 0.0
    roots = np.roots(deriv[::-1])
    phis = np.concatenate([[0.0], -np.angle(roots)])
    return float(phis[np.argmax(np.real(np.exp(-1j * np.outer(phis, orders)) @ c))])


def multipole_frame(form: np.ndarray, blocks: states.SpinBlocks) -> tuple:
    """(b, k, v, g) of a block form's first multipole above the cutoff, and its axis.

    The scan is rank-major, top spin first: v is the rank-k multipole of
    block b, and g (a 2x2 unitary) turns v's axis to the north pole
    (_axis_turn).  With no multipole above the cutoff, k = 0, v is None and
    g is the identity.
    """
    cut = _MULTIPOLE_CUTOFF * np.linalg.norm(form)
    ranks = ((b, k) for k in range(1, blocks.n + 1) for b, j in enumerate(blocks.spins) if 2 * j >= k)
    multipoles = ((b, k, blocks.multipole(form, b, k)) for b, k in ranks)
    b, k, v = next(((b, k, v) for b, k, v in multipoles if np.linalg.norm(v) > cut), (0, 0, None))
    return b, k, v, (_axis_turn(v) if k else np.eye(2, dtype=np.complex128))


def frame_candidates(rho_b: np.ndarray, sigma_b: np.ndarray, blocks: states.SpinBlocks) -> tuple:
    """(candidate unitaries, the frame they come from) for carrying rho onto sigma.

    rho_b and sigma_b are block forms on blocks (states.SpinBlocks).  When
    some g^{(x)n} carries rho onto sigma, one of the candidates does, so
    scoring them decides LU equivalence.  They come from rho's first
    multipole above the cutoff (multipole_frame), and the scan is rank-major,
    top spin first: a Hermitian operator's rank-k constellation is
    antipodal, so none of its points is more than k-fold.  An axial
    multipole needs no root finding: with both turned to c T_k0 at the
    pole, the plain family g_sigma^+ rz(phi) g_rho keeps c and the flipped
    one, through X, takes it to (-1)^k c, so only a family that gives rho's
    c sigma's sign is solved.  Every rotation carrying rho's multipole onto
    sigma's lies in a solved family.  Both deciders use it:
    lu_equivalent_mixed on the spin blocks of n qubits and
    classify.lu_equivalent_pure on the single spin-n/2 block of psi psi^+.
    """
    b, k, v_rho, g_rho = multipole_frame(rho_b, blocks)
    if k == 0:
        return [g_rho], "no multipole above the cutoff"
    frame = f"frame: rank-{k} multipole of spin {blocks.spins[b]:g}"
    v_sigma = blocks.multipole(sigma_b, b, k)
    if np.linalg.norm(v_sigma) <= _MULTIPOLE_CUTOFF * np.linalg.norm(sigma_b):
        return [], frame
    g_sigma = _axis_turn(v_sigma)
    c_rho, c_sigma = _axial_coefficient(v_rho, g_rho), _axial_coefficient(v_sigma, g_sigma)
    if c_rho is None or c_sigma is None:
        cfgs = (majorana.majorana_points(states.SymmetricPureState.from_unnormalized(v)) for v in (v_rho, v_sigma))
        return [rotmatch.so3_to_su2(r) for r in rotmatch.all_matching_rotations(*cfgs)], frame
    sigma_t = blocks.rotate(g_sigma, sigma_b)
    out = []
    # the flip takes T_k0 at the pole to (-1)^k T_k0; a family that moves c off sigma's sign cannot match
    for flip, sign in ((np.eye(2), 1), (states.POLE_FLIP, (-1) ** k)):
        if sign * c_rho * c_sigma > 0:
            phi = _best_turn(blocks.rotate(flip @ g_rho, rho_b), sigma_t, blocks)
            out.append(g_sigma.conj().T @ states.rz(phi) @ flip @ g_rho)
    return out, f"{frame}, axial"


def lu_equivalent_mixed(
    rho: states.DensityMatrix,
    sigma: states.DensityMatrix,
    threshold: float | None = None,
) -> MixedEquivalenceResult:
    """Decide LU equivalence of two permutation-invariant mixed states (n >= 3).

    threshold bounds the distance D of an equivalence (default_threshold(n)
    when None).
    """
    thresh = checked(threshold, default_threshold(rho.n), "threshold")
    if rho.n != sigma.n:
        raise DomainError(f"qubit counts differ: {rho.n} vs {sigma.n}")
    n = rho.n
    if n < 3:
        raise DomainError(
            "identical-tensor-power reduction requires n >= 3; "
            "use two_factor_search for n = 2 (explicitly heuristic)"
        )
    tol = DEFAULT_TOLERANCES.hermiticity * 10
    for name, state in (("first state", rho), ("second state", sigma)):
        if (defect := states.permutation_defect(state, tol)) is not None:
            k, dev = defect
            swap = f"swapping qubits {k} and {k + 1} moves it by {dev:.3g}"
            raise DomainError(f"{name} is not permutation invariant: {swap}")
    if (mismatch := _spectrum_mismatch(rho, sigma)) is not None:
        return MixedEquivalenceResult("inequivalent_spectrum", None, None, thresh, mismatch)

    blocks = states.spin_blocks(n)
    rho_b, sigma_b = blocks.compress(rho), blocks.compress(sigma)
    candidates, frame = frame_candidates(rho_b, sigma_b, blocks)
    if not candidates:
        return MixedEquivalenceResult("undecided", None, None, thresh, f"no candidate rotation, {frame}")
    dist, g = min(((blocks.distance(g, rho_b, sigma_b), g) for g in candidates), key=lambda c: c[0])
    if dist <= thresh:
        # soundness: re-check densely, sharing nothing with the block forms
        dist = float(np.linalg.norm(_conjugate(g, rho.mat, n) - sigma.mat))
        if dist <= thresh:
            return MixedEquivalenceResult("equivalent", g, dist, thresh)
    count = f"{len(candidates)} candidate{'' if len(candidates) == 1 else 's'}"
    detail = f"best distance {dist:.3e} above threshold {thresh:.3e}; {count}, {frame}"
    return MixedEquivalenceResult("undecided", None, dist, thresh, detail)


def two_factor_search(
    rho: states.DensityMatrix,
    sigma: states.DensityMatrix,
    threshold: float | None = None,
) -> MixedEquivalenceResult:
    """Heuristic (g1, g2) search for 2-qubit states; not covered by the
    identical-tensor-power reduction, so a miss stays 'undecided'."""
    thresh = checked(threshold, default_threshold(2), "threshold")
    if rho.n != 2 or sigma.n != 2:
        raise DomainError("two_factor_search is for n = 2 only")
    if (mismatch := _spectrum_mismatch(rho, sigma, reduced=False)) is not None:
        return MixedEquivalenceResult("inequivalent_spectrum", None, None, thresh, mismatch)

    def objective2(x):
        big = np.kron(*_kernels.euler_su2_batch(np.reshape(x, (2, 3))))
        d = float(np.linalg.norm(big @ rho.mat @ big.conj().T - sigma.mat))
        return d * d

    turn = np.linspace(0, 2 * math.pi, _TWO_FACTOR_GRID, endpoint=False)
    tilt = np.linspace(0, math.pi, _TWO_FACTOR_GRID // 2)
    points = search.lattice(turn, tilt, [0.0], turn, tilt, [0.0])
    vals = np.array([objective2(x) for x in points])
    starts = points[np.argsort(vals, kind="stable")[:_TWO_FACTOR_STARTS]]
    best_x, best_f2 = search.best(search.descend(objective2, starts, thresh**2 / 16))
    best_f = math.sqrt(max(best_f2, 0.0))
    if best_f <= thresh:
        g12 = _kernels.euler_su2_batch(np.reshape(best_x, (2, 3)))
        return MixedEquivalenceResult("equivalent", g12, float(best_f), thresh, "two-factor heuristic")
    return MixedEquivalenceResult("undecided", None, float(best_f), thresh, "two-factor heuristic miss")


# ---------------------------------------------------------------------------
# canonical two-pole (GHZ-like) form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GhzForm:
    """State a|I><I| + b|I><I^c| + conj(b)|I^c><I| + (1-a)|I^c><I^c|.

    Canonicalized: I is the all-zeros string, a >= 1/2, b real >= 0.
    """

    n: int
    a: float
    b: complex
    pole: int = 0

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0 + 1e-12:
            raise DomainError(f"population a={self.a} outside [0, 1]")
        if self.pole not in (0, (1 << self.n) - 1):
            raise DomainError("pole must be the all-zeros or all-ones string")
        if abs(self.b) ** 2 > self.a * (1.0 - self.a) + 1e-10:
            raise DomainError(
                f"|b|^2 = {abs(self.b)**2:.3g} exceeds a(1-a) = "
                f"{self.a * (1 - self.a):.3g}; not positive semidefinite"
            )


def ghz_form_density(form: GhzForm) -> states.DensityMatrix:
    d = 1 << form.n
    hi = d - 1
    i0 = form.pole
    i1 = hi ^ i0
    m = np.zeros((d, d), dtype=np.complex128)
    m[i0, i0] = form.a
    m[i1, i1] = 1.0 - form.a
    m[i0, i1] = form.b
    m[i1, i0] = np.conj(form.b)
    return states.DensityMatrix(form.n, m)


def canonical_ghz_form(tau: states.DensityMatrix) -> GhzForm:
    """Canonicalize a two-pole-supported density matrix.

    Support off the pole pair raises NotGhzFormError with the offending
    entries.  The canonical form applies the phase layer diag(1, e^{i phi})
    ^{(x)n} with phi = arg(b)/n (making b real nonnegative) and an X layer
    when needed so that the all-zeros population is at least 1/2.
    """
    tol = DEFAULT_TOLERANCES.equality
    n = tau.n
    d = 1 << n
    hi = d - 1
    mask = np.ones((d, d), dtype=bool)
    mask[np.ix_((0, hi), (0, hi))] = False
    bad = np.argwhere(np.abs(tau.mat) * mask > tol)
    if bad.size:
        offending = [(int(i), int(j), complex(tau.mat[i, j])) for i, j in bad[:8]]
        raise NotGhzFormError(
            f"{bad.shape[0]} entries outside the pole-pair support", offending
        )
    a = float(tau.mat[0, 0].real)
    b = complex(tau.mat[0, hi])
    if a < 0.5:
        # X layer: swap pole populations, conjugating the coherence
        a = 1.0 - a
        b = np.conj(b)
    return GhzForm(n, a, abs(b), 0)


@dataclass(frozen=True)
class SupportCheckResult:
    """Outcome of the diagonal two-qubit stabilization support test.

    applicable is False when the claimed phase does not actually stabilize
    the state (the conclusion is then vacuous); ok reports whether every
    significant entry couples a string only to itself or its complement.
    """

    applicable: bool
    residual: float
    ok: bool | None
    witness: tuple | None

    def __bool__(self):
        return bool(self.applicable and self.ok)


def two_qubit_support_check(
    tau: states.DensityMatrix,
    k: int,
    l: int,
    t: float,
) -> SupportCheckResult:
    """Check the support consequence of a two-qubit diagonal stabilizer.

    The unitary applies diag(e^{it}, e^{-it}) on qubit k and its inverse on
    qubit l.  When it stabilizes tau (and t is not a multiple of pi), every
    entry of tau must couple a string to itself or its bitwise complement;
    the first violating entry is returned as a witness.
    """
    tol = DEFAULT_TOLERANCES.equality
    n = tau.n
    if not (0 <= k < n and 0 <= l < n and k != l):
        raise DomainError(f"need two distinct qubit indices in 0..{n - 1}")
    if abs(math.sin(t)) < 1e-12:
        raise DomainError("t must not be a multiple of pi (phase would be trivial)")
    dphase = np.array([np.exp(1j * t), np.exp(-1j * t)])
    factors = [np.eye(2, dtype=np.complex128)] * n
    factors[k], factors[l] = np.diag(dphase), np.diag(dphase.conj())
    u = states.LocalUnitary(tuple(factors))
    residual = float(np.linalg.norm(states.apply_lu(u, tau).mat - tau.mat))
    applicable = residual <= tol
    if not applicable:
        return SupportCheckResult(False, residual, None, None)
    idx = np.arange(1 << n)[:, None]
    coupled = (idx == idx.T) | (idx == idx.T ^ ((1 << n) - 1))
    bad = np.argwhere((np.abs(tau.mat) > tol) & ~coupled)
    if bad.size:
        return SupportCheckResult(True, residual, False, (int(bad[0, 0]), int(bad[0, 1])))
    return SupportCheckResult(True, residual, True, None)
