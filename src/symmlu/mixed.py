"""LU equivalence of permutation-invariant mixed states, and the frame decision of pure ones.

For permutation-invariant density matrices of n >= 3 qubits, local-unitary
equivalence reduces to conjugation by g^{(x)n} for one 2x2 unitary g, that
is to one rotation R; at n = 1 there is only one g.  The reduction needs
permutation-invariant input, so lu_equivalent_mixed checks both states
first (states.permutation_defect).  The swap s of qubits 0, 1 and the cyclic
shift c generate S_n, and the swap of qubits k, k + 1 is c^k s c^-k, so it
moves rho by at most delta_s + 2 min(k, n - k) delta_c in the largest entry:
delta_s + 2 floor(n / 2) delta_c within the tolerance certifies every swap
from two comparisons of rho with transposed views of itself.  A state that
fails the bound is scanned swap by swap, and the error names the first swap
that moves it.  On the spin blocks of
the states (states.SpinBlocks) the rank-k multipole of a block moves as a
2k-qubit symmetric state, so it pins R down (Serrano-Ensastiga and Braun,
PRA 101, 022332 (2020)).  The first multipole of rho above a relative cutoff
(rank 1 first, top spin first) gives the candidates (frame_candidates).
When it is axial, about the bottom eigenvector of its spin-k quadrupole,
they are the families g = g_sigma^+ rz(phi) [X] g_rho that keep its real
axial coefficient's sign, each at its best phi.  The overlap is a
trigonometric polynomial of degree n in phi: one FFT evaluates it on a grid
whose spacing bounds how far its maximum can lie above the best grid value,
and only the grid maxima within that slack are Newton-polished
(_solve_turn).  Otherwise they are the rotations carrying a Majorana
constellation of rho onto sigma's, that of the first multipole from there
whose points lie apart, so that no multiple point scattered by root finding
is matched; with no multipole above the cutoff the identity.  For a
symmetric pure state psi, psi psi^+ is a density matrix with the single spin
block n/2, so classify.lu_equivalent_pure decides with the same candidates,
and classify.classify_state reads its one candidate axis off the same first
multipole (multipole_frame) and its finite groups off the same candidates
for psi psi^+ and itself, from that one frame.

The candidate with the least block distance is reported as equivalent only
after a dense re-check of || g^{(x)n} rho g^{(x)n +} - sigma ||_F, by
states.conjugate_local on the 2^n x 2^n matrices.  The block distance turns
rho's form by the direct sum of the D^j(g), built as one block-diagonal
product (SpinBlocks.rep).  Cheap g^{(x)n} invariants run first and give
certified negatives (_spectrum_mismatch): the global spectra, read off the
stacked block forms of both states with one eigensolve per spin
(SpinBlocks.spectrum, no 2^n eigensolve), then the 1-qubit reduced
spectrum and, from n = 3 on, the 2-qubit one, which tells GHZ_4
({1/2, 1/2, 0, 0}) from Dicke_4,2 ({2/3, 1/6, 1/6, 0}); both are partial
traces of the dense matrix.  Any other miss is undecided, never a proof of
inequivalence.

The decision has one setting, the acceptance threshold on D
(default_threshold(n) = 1e-7 2^(n/2) unless given), and every result
reports the threshold it applied.

Two qubits fall outside the reduction: (g1, g2) need not be equal, and
two_factor_search searches for them.  Its states need not be permutation
invariant, so it compares the dense global spectrum (spectra_report's) and
both qubits' reduced spectra first.  g1 (x) g2 moves the correlation matrix
beta_ab = tr(rho sigma_a (x) sigma_b) to R1 beta R2^T, so the four pairs
that carry the signed-SVD frames of rho's beta onto sigma's are its starts
(_frame_starts).  It refines them by damped Gauss-Newton on the per-qubit
model (refine_minimum), which moves along the family a tie in beta's
singular values leaves, and re-checks the best pair densely; a miss stays
undecided.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels, majorana, rotmatch, search, states
from .errors import DomainError, NotGhzFormError
from .tolerances import DEFAULT_TOLERANCES, checked

__all__ = [
    "GhzForm",
    "MixedEquivalenceResult",
    "SpectraReport",
    "SupportCheckResult",
    "lu_equivalent_mixed",
    "two_factor_search",
    "refine_minimum",
    "canonical_ghz_form",
    "ghz_form_density",
    "two_qubit_support_check",
    "default_threshold",
    "spectra_report",
    "frame_candidates",
    "multipole_frame",
    "MultipoleFrame",
]

_SPECTRUM_TOL = 1e-8


def default_threshold(n: int) -> float:
    return 1e-7 * 2 ** (n / 2)


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
    """The global spectrum, from a dense eigensolve of the 2^n x 2^n matrix, and qubit 0's reduced spectrum."""
    return SpectraReport(
        tuple(float(v) for v in _dense_spectrum(rho)), tuple(float(v) for v in _reduced_spectrum(rho, (0,)))
    )


def _dense_spectrum(rho: states.DensityMatrix) -> np.ndarray:
    return np.sort(np.linalg.eigvalsh(rho.mat))[::-1]


def _reduced_spectrum(rho: states.DensityMatrix, qubits: tuple) -> np.ndarray:
    """Spectrum of the reduced state of the given qubits (states.reduced_density), in descending order."""
    return np.sort(np.linalg.eigvalsh(states.reduced_density(rho, qubits)))[::-1]


def _spectrum_mismatch(rho, sigma, global_rho: np.ndarray, global_sigma: np.ndarray) -> str | None:
    """Which LU-invariant spectrum differs, a certified negative, or None.

    The global spectra, descending, come from the caller.  Then the 1-qubit
    reduced spectra, and at n >= 3 the 2-qubit one, each computed only when
    the others agree.  A local unitary keeps the spectrum of each qubit: a
    permutation-invariant state has one, and at n = 2, where the states need
    not be, both are compared.
    """

    def checks():
        yield global_rho, global_sigma, "global eigenvalue multisets differ"
        yield _reduced_spectrum(rho, (0,)), _reduced_spectrum(sigma, (0,)), "1-qubit reduced spectra differ"
        if rho.n == 2:
            yield _reduced_spectrum(rho, (1,)), _reduced_spectrum(sigma, (1,)), "1-qubit reduced spectra differ"
        elif rho.n >= 3:
            yield _reduced_spectrum(rho, (0, 1)), _reduced_spectrum(sigma, (0, 1)), "2-qubit reduced spectra differ"

    for ea, eb, detail in checks():
        if float(np.max(np.abs(np.subtract(ea, eb)))) > _SPECTRUM_TOL:
            return detail
    return None


def _axis_turn(v: np.ndarray) -> np.ndarray:
    """The 2x2 unitary g that turns the axis of a Hermitian block's rank-k multipole v to the pole.

    An axial multipole is c T_k0 about an axis n, c real, so as a spin-k
    vector its quadrupole M_ab = Re<v|J_a J_b|v> / <v|v> is
    k(k + 1)/2 (1 - n n^T): n is M's bottom eigenvector, and g is rotmatch.pole_turn(n).
    """
    w = states.spin_operators(v.size - 1) @ v
    return rotmatch.pole_turn(np.linalg.eigh((w.conj() @ w.T).real)[1][:, 0])


def _axial_coefficient(v: np.ndarray, g: np.ndarray) -> float | None:
    """c of v / |v| = c T_k0 once g (_axis_turn) has turned it, or None when v is not axial.

    v is axial when only the middle coefficient is left after g.
    """
    k = v.size // 2
    turned = states.symmetric_power_apply(g, v) / np.linalg.norm(v)
    axial = np.delete(np.abs(turned), k).max() <= DEFAULT_TOLERANCES.equality
    return float(turned[k].real) if axial else None


_TURN_GRID = 16  # grid points of _solve_turn per unit of degree
_TURN_POLISH = 12  # Newton steps at most per grid maximum; one within h / 2 of a peak needs about 4
_TURN_DROP = (2 * math.pi / _TURN_GRID) ** 2 / 8  # (nh)^2 / 8 of _solve_turn's slack
# _solve_turn's ties: overlaps within this of sum |c_q| of the best, and |phi| within this of h of the least
_TURN_TIE, _TURN_TIE_PHI = 16 * np.finfo(np.float64).eps, 1e-6


def _best_turn(rho_t: np.ndarray, sigma_t: np.ndarray, blocks) -> float:
    """The phi maximizing the weighted overlap of D(rz(phi)) rho_t D(rz(phi))^+ with sigma_t.

    Entry (a, b) turns by e^{-i q phi}, q = m_a - m_b (blocks.turns), so the overlap is the
    trigonometric polynomial f(phi) = Re sum_{|q| <= n} c_q e^{-i q phi},
    maximized by _solve_turn.
    """
    size, q = 2 * blocks.n + 1, blocks.turns
    terms = (blocks.weight * rho_t * sigma_t.conj()).ravel()
    return _solve_turn(np.bincount(q, terms.real, size) + 1j * np.bincount(q, terms.imag, size))[0]


def _solve_turn(c: np.ndarray) -> tuple:
    """(phi, bound): the phi in [-pi, pi) maximizing f(phi) = Re sum_q c_q e^{-i q phi}, and max f <= bound.

    c holds c_q for q = -n..n.  One FFT evaluates f on a grid of M = 16 n
    points, spacing h = 2 pi / M.  By Bernstein's inequality,
    |f''| <= n^2 max|f - c_0|, so f drops by at most
    slack = (nh)^2 / 8 max|f - c_0| from its maximum to the nearest grid
    point, and by the same argument max|f - c_0| <= max_grid|f - c_0| /
    (1 - (nh)^2 / 8); bound is the best grid value plus that slack.  Only
    the grid's local maxima within the slack are Newton-polished, each step
    uphill and at most h / 2; a flat f (only c_0, as in a C_inf family) has
    none.  phi = 0 is kept as a candidate.  Of the candidates within
    roundoff of the best overlap (16 eps sum |c_q|), phi = 0 wins if it is
    one, otherwise the least |phi| (to 1e-6 h), +phi before -phi; so the
    tied turns of a C_m-symmetric family are told apart by their angles,
    not by the last bit of their overlaps.
    """
    n = (c.size - 1) // 2
    orders = np.arange(-n, n + 1)
    size = _TURN_GRID * n
    h = 2 * math.pi / size
    grid = np.zeros(size, dtype=np.complex128)
    grid[orders % size] = c
    grid[0] = 0.0  # the oscillating part f - Re c_0, which Bernstein's inequality bounds
    osc = np.fft.fft(grid).real
    top = osc.max()
    slack = _TURN_DROP / (1 - _TURN_DROP) * max(top, -osc.min())
    ring = np.concatenate([osc[-1:], osc, osc[:1]])
    phis = h * np.flatnonzero((osc > ring[:-2]) & (osc >= ring[2:]) & (osc >= top - slack))
    turn, slopes = -1j * orders, np.stack([-1j * orders * c, -orders * orders * c], axis=1)
    for _ in range(_TURN_POLISH):
        d1, d2 = (np.exp(phis[:, None] * turn) @ slopes).real.T
        # uphill whatever the sign of f'', by at most h / 2
        step = d1 / np.maximum(np.maximum(np.abs(d2), 2 / h * np.abs(d1)), np.finfo(float).tiny)
        phis = phis + step
        if np.abs(step).max(initial=0.0) <= 1e-8 * h:
            break
    phis = np.concatenate([[0.0], (phis + math.pi) % (2 * math.pi) - math.pi])
    vals = (np.exp(phis[:, None] * turn) @ c).real.tolist()
    # a stable pick among the few candidates tied to roundoff: 0, then the least |phi|, +phi before -phi
    cut = max(vals) - _TURN_TIE * float(np.abs(c).sum())
    tied = [phi for phi, val in zip(phis.tolist(), vals) if val >= cut]
    least = min(map(abs, tied)) + _TURN_TIE_PHI * h
    nearest = [phi for phi in tied if abs(phi) <= least]
    return (0.0 if 0.0 in nearest else max(nearest)), float(c[n].real + top + slack)


def _multipoles(form: np.ndarray, blocks: states.SpinBlocks, after: tuple = (0, 0)):
    """(b, k, v) of each multipole of a block form above the cutoff, rank-major, top spin first.

    The scan starts past the rank k and block b of after = (k, b).
    """
    cut = _MULTIPOLE_CUTOFF * np.linalg.norm(form)
    ranks = ((b, k) for k in range(1, blocks.n + 1) for b, j in enumerate(blocks.spins) if 2 * j >= k)
    multipoles = ((b, k, blocks.multipole(form, b, k)) for b, k in ranks if (k, b) > after)
    return ((b, k, v) for b, k, v in multipoles if np.linalg.norm(v) > cut)


class MultipoleFrame(NamedTuple):
    """A block form's first multipole above the cutoff: block b, rank k, multipole v and its axis turn g.

    c is v's axial coefficient once g has turned it (_axial_coefficient), or
    None when v is not axial or there is no multipole (k = 0).
    """

    b: int
    k: int
    v: np.ndarray | None
    g: np.ndarray
    c: float | None


def multipole_frame(form: np.ndarray, blocks: states.SpinBlocks) -> MultipoleFrame:
    """The MultipoleFrame of a block form's first multipole above the cutoff.

    The scan is rank-major, top spin first: v is the rank-k multipole of
    block b, and g (a 2x2 unitary) turns v's axis to the north pole
    (_axis_turn).  With no multipole above the cutoff, k = 0, v is None and
    g is the identity.
    """
    b, k, v = next(_multipoles(form, blocks), (0, 0, None))
    if not k:
        return MultipoleFrame(b, k, v, np.eye(2, dtype=np.complex128), None)
    g = _axis_turn(v)
    return MultipoleFrame(b, k, v, g, _axial_coefficient(v, g))


_CONSTELLATION_GAP = 1e-2  # chordal gap below which two constellation points may be one scattered multiple point


def _constellation(v: np.ndarray) -> majorana.MajoranaConfiguration:
    return majorana.majorana_points(states.SymmetricPureState.from_unnormalized(v))


def _separated(cfg: majorana.MajoranaConfiguration) -> bool:
    """More than two points, none more than twofold, each more than _CONSTELLATION_GAP from every other.

    That is a constellation that is not axial and whose points root finding
    finds in any orientation: an m-fold point scatters by about eps^(1/m),
    3e-8 at m = 2, inside the cluster radius, but 1e-4 at m = 3.
    """
    gaps = np.linalg.norm(cfg.points[:, None] - cfg.points[None], axis=2) + 2 * np.eye(len(cfg.points))
    return len(cfg.points) > 2 and cfg.multiplicities.max() <= 2 and gaps.min() > _CONSTELLATION_GAP


def _matched_candidates(
    rho_b: np.ndarray, sigma_b: np.ndarray, blocks: states.SpinBlocks, frame: MultipoleFrame
) -> tuple:
    """frame_candidates when rho's first multipole is not axial: the rotations carrying a constellation of rho onto sigma's.

    The constellation is that of the first multipole, from the first on,
    whose points are _separated, or else of the first.  An m-fold point of a
    multipole computed to roundoff eps scatters by about eps^(1/m) under
    root finding (1e-4 at m = 3 in tests/test_classify.py's heavy-point
    states), past the cluster radius from m = 3 on, and no rotation matches
    a scattered point onto its image; a point that is threefold at the pole
    of rho is found exactly there but scatters in a turned sigma.  Separated
    points are found to roundoff in any orientation, so their matches hold
    every rotation carrying that multipole, and so rho, onto sigma's.  The
    scan goes on from rho's frame, the first multipole.
    """
    rest = _multipoles(rho_b, blocks, after=(frame.k, frame.b))
    found = ((b, k, _constellation(v)) for b, k, v in itertools.chain([frame[:3]], rest))
    first = next(found)
    b, k, cfg_rho = first if _separated(first[2]) else next((f for f in found if _separated(f[2])), first)
    label = f"frame: rank-{k} multipole of spin {blocks.spins[b]:g}"
    # rho's own self-matches (classify.classify_state) find its constellation once
    if sigma_b is rho_b:
        cfg_sigma = cfg_rho
    else:
        v_sigma = blocks.multipole(sigma_b, b, k)
        if np.linalg.norm(v_sigma) <= _MULTIPOLE_CUTOFF * np.linalg.norm(sigma_b):
            return [], label, False
        cfg_sigma = _constellation(v_sigma)
    rots = np.reshape(rotmatch.all_matching_rotations(cfg_rho, cfg_sigma), (-1, 3, 3))
    # separate arrays: the one an answer returns keeps no stack alive
    return [g.copy() for g in rotmatch.so3_to_su2(rots)], label, False


def frame_candidates(
    rho_b: np.ndarray, sigma_b: np.ndarray, blocks: states.SpinBlocks, frame: MultipoleFrame | None = None
) -> tuple:
    """(candidate unitaries, the frame they come from, whether it is axial) for carrying rho onto sigma.

    rho_b and sigma_b are block forms on blocks (states.SpinBlocks).  When
    some g^{(x)n} carries rho onto sigma, one of the candidates does, so
    scoring them decides LU equivalence.  They come from rho's first
    multipole above the cutoff (multipole_frame), and the scan is rank-major,
    top spin first: a Hermitian operator's rank-k constellation is
    antipodal, so none of its points is more than k-fold.  A multipole that
    is not axial gives the matches of _matched_candidates.  An axial one
    needs no root finding: with both turned to c T_k0 at the pole, the plain
    family g_sigma^+ rz(phi) g_rho keeps c and the flipped one, through X,
    takes it to (-1)^k c, so only a family that gives rho's c sigma's sign
    is solved.  Every rotation carrying rho's multipole onto sigma's lies in
    a solved family, and axial is True only then.  Both
    deciders use it: lu_equivalent_mixed on the spin blocks of n qubits and
    classify.lu_equivalent_pure on the single spin-n/2 block of psi psi^+;
    classify.classify_state takes psi psi^+'s self-matches from it.

    frame is rho's multipole_frame, when the caller has it.  When sigma_b is
    rho_b (a self-match), sigma's frame is rho's, and the plain family's
    member is the identity, exactly and with no turn solved: every c_q of a
    form against itself is >= 0, so f(phi) <= sum_q c_q = f(0), and
    _solve_turn picks phi = 0 on that tie.  Only the flipped family is
    solved, and only at even k.
    """
    frame = multipole_frame(rho_b, blocks) if frame is None else frame
    b, k, _, g_rho, c_rho = frame
    if k == 0:
        return [g_rho], "no multipole above the cutoff", False
    label = f"frame: rank-{k} multipole of spin {blocks.spins[b]:g}"
    self_match = sigma_b is rho_b
    g_sigma, c_sigma = g_rho, c_rho
    if not self_match:
        v_sigma = blocks.multipole(sigma_b, b, k)
        if np.linalg.norm(v_sigma) <= _MULTIPOLE_CUTOFF * np.linalg.norm(sigma_b):
            return [], label, False
        if c_rho is not None:  # a frame that is not axial goes to _matched_candidates unturned
            g_sigma = _axis_turn(v_sigma)
            c_sigma = _axial_coefficient(v_sigma, g_sigma)
    if c_rho is None or c_sigma is None:
        return _matched_candidates(rho_b, sigma_b, blocks, frame)
    # the flip takes T_k0 at the pole to (-1)^k T_k0; a family that moves c off sigma's sign cannot match
    families = ((np.eye(2), 1), (states.POLE_FLIP, (-1) ** k))[self_match:]
    solved = [flip for flip, sign in families if sign * c_rho * c_sigma > 0]
    sigma_t = blocks.rotate(g_sigma, sigma_b) if solved else None
    out = [np.eye(2, dtype=np.complex128)] if self_match else []
    for flip in solved:
        phi = _best_turn(blocks.rotate(flip @ g_rho, rho_b), sigma_t, blocks)
        out.append(g_sigma.conj().T @ states.rz(phi) @ flip @ g_rho)
    return out, f"{label}, axial", True


def lu_equivalent_mixed(
    rho: states.DensityMatrix,
    sigma: states.DensityMatrix,
    threshold: float | None = None,
) -> MixedEquivalenceResult:
    """Decide LU equivalence of two permutation-invariant mixed states (n = 1 or n >= 3).

    threshold bounds the distance D of an equivalence (default_threshold(n)
    when None).  Both states are compressed to their spin blocks before the
    spectrum prefilter, which takes both global spectra off them in one
    stacked call.
    """
    thresh = checked(threshold, default_threshold(rho.n), "threshold")
    if rho.n != sigma.n:
        raise DomainError(f"qubit counts differ: {rho.n} vs {sigma.n}")
    n = rho.n
    if n == 2:
        raise DomainError(
            "the identical-tensor-power reduction does not hold at n = 2; "
            "use two_factor_search (explicitly heuristic)"
        )
    tol = DEFAULT_TOLERANCES.hermiticity * 10
    for name, state in (("first state", rho), ("second state", sigma)):
        if (defect := states.permutation_defect(state, tol)) is not None:
            k, dev = defect
            swap = f"swapping qubits {k} and {k + 1} moves it by {dev:.3g}"
            raise DomainError(f"{name} is not permutation invariant: {swap}")
    blocks = states.spin_blocks(n)
    rho_b, sigma_b = blocks.compress(rho), blocks.compress(sigma)
    if (mismatch := _spectrum_mismatch(rho, sigma, *blocks.spectrum(np.stack([rho_b, sigma_b])))) is not None:
        return MixedEquivalenceResult("inequivalent_spectrum", None, None, thresh, mismatch)

    candidates, frame, _ = frame_candidates(rho_b, sigma_b, blocks)
    if not candidates:
        return MixedEquivalenceResult("undecided", None, None, thresh, f"no candidate rotation, {frame}")
    dist, g = min(((blocks.distance(g, rho_b, sigma_b), g) for g in candidates), key=lambda c: c[0])
    if dist <= thresh:
        # soundness: re-check densely, sharing nothing with the block forms
        dist = float(np.linalg.norm(states.conjugate_local((g,) * n, rho.mat) - sigma.mat))
        if dist <= thresh:
            return MixedEquivalenceResult("equivalent", g, dist, thresh)
    count = f"{len(candidates)} candidate{'' if len(candidates) == 1 else 's'}"
    detail = f"best distance {dist:.3e} above threshold {thresh:.3e}; {count}, {frame}"
    return MixedEquivalenceResult("undecided", None, dist, thresh, detail)


def refine_minimum(model, starts) -> tuple:
    """The n = 2 refinement: the best (g12, f2) of damped Gauss-Newton from each start.

    starts is a (B, 2, 2, 2) stack of factor pairs (g1, g2), refined in
    lockstep by search.gauss_newton, each factor by its own left step
    (_kernels.su2_left_step), until each start stalls; model is
    _kernels.conj_gauss_newton on such stacks.  A pair that reaches a zero
    of D converges quadratically, to roundoff.
    """
    return search.best(search.gauss_newton(model, _kernels.su2_left_step, starts))


# the sign flips of a frame that keep it right-handed: the n = 2 search's four starts
_FRAME_FLIPS = np.array([np.diag(d) for d in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))], dtype=float)


def _frame_starts(rho: states.DensityMatrix, sigma: states.DensityMatrix) -> np.ndarray:
    """The four (g1, g2) that carry the signed-SVD frames of rho's correlation matrix onto sigma's; (4, 2, 2, 2).

    beta_ab = tr(rho sigma_a (x) sigma_b), and g1 (x) g2 moves it to
    R1 beta R2^T.  With beta = U diag(d) V^T, U and V in SO(3) (d_3 takes
    the sign of det beta), the starts are R1 = U_sigma F U_rho^T and
    R2 = V_sigma F V_rho^T for each flip F of _FRAME_FLIPS.
    """
    pair = np.stack([rho.mat, sigma.mat]).reshape((2,) * 5)
    paulis = np.stack([states.PAULI_X, states.PAULI_Y, states.PAULI_Z])
    u, _, vt = np.linalg.svd(np.einsum("xikjl,aji,blk->xab", pair, paulis, paulis).real)
    v = np.swapaxes(vt, 1, 2)
    # right-handed frames: flipping a last column flips the sign of d_3
    u[:, :, 2] *= np.sign(np.linalg.det(u))[:, None]
    v[:, :, 2] *= np.sign(np.linalg.det(v))[:, None]
    rots = np.stack([u[1] @ _FRAME_FLIPS @ u[0].T, v[1] @ _FRAME_FLIPS @ v[0].T], axis=1)
    return rotmatch.so3_to_su2(rots)


def two_factor_search(
    rho: states.DensityMatrix,
    sigma: states.DensityMatrix,
    threshold: float | None = None,
) -> MixedEquivalenceResult:
    """Search (g1, g2) with (g1 (x) g2) rho (g1 (x) g2)^+ = sigma for 2-qubit states.

    n = 2 is outside the identical-tensor-power reduction, so this is a
    search, and a miss stays 'undecided'.  The global spectrum and each
    qubit's reduced spectrum are compared first; a difference is a certified
    negative.  The starts come from the correlation matrices: the four
    pairs that carry the signed-SVD frames of rho's onto sigma's
    (_frame_starts).  When the singular values are distinct and nonzero,
    they hold every pair that carries rho's correlation matrix onto
    sigma's; when some tie, the answer is a family, and the refinement
    moves along it.  They are refined (refine_minimum) on the per-qubit
    least-squares model (_kernels.conj_gauss_newton on (B, 2, 2, 2)
    stacks).  The best pair is equivalent only after a dense re-check of
    || (g1 (x) g2) rho (g1 (x) g2)^+ - sigma ||_F, whose value is reported.
    """
    thresh = checked(threshold, default_threshold(2), "threshold")
    if rho.n != 2 or sigma.n != 2:
        raise DomainError("two_factor_search is for n = 2 only")
    # not the block spectra: these states need not be permutation invariant
    if (mismatch := _spectrum_mismatch(rho, sigma, _dense_spectrum(rho), _dense_spectrum(sigma))) is not None:
        return MixedEquivalenceResult("inequivalent_spectrum", None, None, thresh, mismatch)
    factor, target = _kernels.density_factor(rho.mat), _kernels.density_factor(sigma.mat)

    def model(gs):
        return _kernels.conj_gauss_newton(gs, factor, target, 2)

    g12, _ = refine_minimum(model, _frame_starts(rho, sigma))
    # soundness: re-check densely, sharing nothing with the factored model
    dist = float(np.linalg.norm(states.conjugate_local(g12, rho.mat) - sigma.mat))
    if dist <= thresh:
        return MixedEquivalenceResult("equivalent", g12, dist, thresh, "two-factor heuristic")
    return MixedEquivalenceResult("undecided", None, dist, thresh, "two-factor heuristic miss")


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
