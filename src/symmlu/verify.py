"""Brute-force oracles over full 2^n-dimensional matrices.

Everything here validates the structured modules independently: residuals are
computed by dense conjugation, stabilizer elements are found by a lattice
search (the search module) and an exact integer solve, neither of which
knows anything about the classification, and equivalence is re-decided by
direct optimization.  Dense work is capped at n <= 10.

sample_stabilizer gathers two families:
  * identical tuples g^{(x)n}, searched over a ZYZ Euler lattice, and
  * independent per-qubit diagonal phases diag(1, e^{i phi_k}), solved exactly.
The identical tuples are a sample at the stated lattice resolution: the
lattice minima are refined all at once by damped Gauss-Newton
(search.gauss_newton), and nothing is certified between lattice points.  The
distance is computed from factors V of rho and W of the target, with no
2^n x 2^n residual formed: sample_stabilizer factors rho once (one eigh)
and takes V as both, and lu_equivalent_pure_bruteforce takes each pure
state's 2^n vector as its factor, with no projector and no eigh.  On the
lattice, g = Rz(alpha) Ry(beta) Rz(gamma): (Ry(beta) Rz(gamma))^{(x)n} is
applied to V qubit by qubit once per distinct (beta, gamma), n r 2^n products
(144 of them at grid 12), and Rz(alpha)^{(x)n} is one phase per Hamming-weight
class, so a point of the (beta, gamma) x alpha table costs (n + 1) s r
products at ranks r and s, where the Kronecker power cost about 2 8^n; a
point below S / 16 of S = ||rho||^2 + ||T||^2 is scored again by the
(r + s) r 2^n residual (_kernels.conj_distance_batch).  The refinement
takes left steps g <- exp(-i d.sigma/2) g in the Lie algebra.  The
diagonal family is exact and complete: conjugation moves entry (x, y) of
rho by e^{i phi.d} with d the bit difference of x and y, so the phases
that fix rho are the closed subgroup {phi : D phi in 2 pi Z^m} of the
torus, D the integer matrix of rho's bit-difference classes (16 classes
for the tetrahedron's 64 entries).
Integer row and column operations diagonalise D (Cohen, A Course in
Computational Algebraic Number Theory, 2.4), and every finite element plus
one element per continuous direction is reported.  The oracle reads only
rho's support, never the classification.  lu_equivalent_pure_bruteforce
refines its lowest 40 minima 8 at a time and stops as soon as one reaches
0.01 threshold.

Every witness is accepted only through a dense residual || U rho U+ - rho ||_F.
sample_stabilizer puts all its candidates in one (W, n, 2, 2) stack,
conjugates it chunk by chunk with states.conjugate_local (_residuals), and
keys and deduplicates the stack as arrays; check_stabilizes is the
one-tuple case of the same check.  The check stays dense on purpose: a
residual taken from the factors (as the search's _kernels model takes it)
is not exact at the identity, and it would tie the check to the search it
checks.

StabilizerSearchConfig sets only the size of the identical-tuple search
(Euler lattice points per angle, lattice minima refined).  The acceptance
residual (1e-8), the dedupe resolution (1e-6) and the membership threshold
(StabilizerSearchConfig.membership_tol, 1e-5) are constants, and
lu_equivalent_pure_bruteforce always searches a 12-point lattice at
default_threshold(n).

class_membership_distance needs no search: it finds the nearest element of
a classified family exactly (per-qubit phase fits with a bisection on the
common overlap for the constrained diagonal classes, a geodesic midpoint for
class iii, enumeration for a finite group).  stabilizer_anomalies and
witness_anomalies check the sampled witnesses against it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _kernels, classify, rotmatch, search, states
from .errors import DomainError
from .mixed import SpectraReport, default_threshold, spectra_report

__all__ = [
    "DENSE_ORACLE_CAP",
    "check_dense_cap",
    "StabilizerWitness",
    "StabilizerSearchConfig",
    "SpectraReport",
    "check_stabilizes",
    "sample_stabilizer",
    "class_membership_distance",
    "stabilizer_anomalies",
    "witness_anomalies",
    "spectra_report",
    "lu_equivalent_pure_bruteforce",
]

DENSE_ORACLE_CAP = 10
_WITNESS_TOL = 1e-8  # largest residual of an accepted stabilizer witness
_DEDUPE = 1e-6  # resolution at which witnesses count as projectively equal
# complex entries per conjugated chunk of a witness stack: 256 KiB, so a chunk
# stays in cache (chunks of 2^22 entries ran 2-4x slower at n = 6..8)
_CHUNK_ENTRIES = 1 << 14
# Euler lattice points per angle, lattice minima refined, and refined per round
_BRUTEFORCE_GRID, _BRUTEFORCE_STARTS, _BRUTEFORCE_ROUND = 12, 40, 8


def check_dense_cap(n: int) -> None:
    """DomainError for n > DENSE_ORACLE_CAP; callers run it before any 2^n array is built."""
    if n > DENSE_ORACLE_CAP:
        raise DomainError(f"dense oracles are capped at n <= {DENSE_ORACLE_CAP}, got {n}")


_TO_DENSITY = "states.to_density gives the projector of a pure state"


def _require(what: str, state, kind: type, conversion: str) -> None:
    """DomainError naming kind and the conversion to it, unless state is a kind."""
    if not isinstance(state, kind):
        raise DomainError(f"{what} expects a {kind.__name__}, got {type(state).__name__}; {conversion}")


@dataclass(frozen=True)
class StabilizerWitness:
    """A local unitary together with how far it moves the state."""

    unitary: states.LocalUnitary
    residual: float

    def __post_init__(self):
        if self.residual < 0:
            raise DomainError("residual must be nonnegative")


@dataclass(frozen=True)
class StabilizerSearchConfig:
    """Size of the blind identical-tuple search: Euler lattice points per angle, lattice minima refined."""

    grid: int = 12
    max_descents: int = 400
    # largest membership distance of a witness explained by the classified family
    membership_tol: ClassVar[float] = 1e-5

    def __post_init__(self):
        if self.grid < 4:
            raise DomainError("Euler lattice needs at least 4 points per angle")
        if self.max_descents < 1:
            raise DomainError("need max_descents >= 1")


def check_stabilizes(u: states.LocalUnitary, rho: states.DensityMatrix) -> StabilizerWitness:
    """Residual || U rho U+ - rho ||_F by dense conjugation: _residuals of a one-tuple stack."""
    _require("the stabilizer check", rho, states.DensityMatrix, _TO_DENSITY)
    if u.n != rho.n:
        raise DomainError(f"arity mismatch: unitary on {u.n} qubits, state on {rho.n}")
    return StabilizerWitness(u, float(_residuals(np.array(u.factors)[None], rho.mat)[0]))


def _residuals(stack: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """|| U mat U+ - mat ||_F for each tuple U of a (W, n, 2, 2) stack of factors.

    U mat U+ comes from states.conjugate_local, the factors applied qubit by
    qubit to the 2^n x 2^n matrix, with no Kronecker product formed and no
    DensityMatrix validation (states.apply_lu would run a hermiticity, trace
    and eigenvalue check on each).  The stack is conjugated
    _CHUNK_ENTRIES >> 2n tuples at a time, at least one, so no temporary
    holds more than max(_CHUNK_ENTRIES, 4^n) entries.
    """
    n = stack.shape[1]
    rows = max(1, _CHUNK_ENTRIES >> (2 * n))
    out = np.empty(len(stack))
    for lo in range(0, len(stack), rows):
        out[lo : lo + rows] = np.linalg.norm(states.conjugate_local(stack[lo : lo + rows], mat) - mat, axis=(1, 2))
    return out


# ---------------------------------------------------------------------------
# stabilizer sampling
# ---------------------------------------------------------------------------


def _projective_keys(stack: np.ndarray, resolution: float) -> np.ndarray:
    """Integer keys (W, 8n) of the tuples of a (W, n, 2, 2) stack, equal for projectively equal tuples.

    Each factor is divided by the phase of its first entry (row-major)
    above half its largest modulus, and its interleaved re/im parts are
    rounded at resolution.
    """
    flat = stack.reshape(len(stack), -1, 4)
    size = np.abs(flat)
    first = np.argmax(size > 0.5 * np.max(size, axis=2, keepdims=True), axis=2)[..., None]
    lead = np.take_along_axis(flat, first, axis=2)
    aligned = (flat / (lead / np.take_along_axis(size, first, axis=2))).view(np.float64)
    return np.round(aligned / resolution).astype(np.int64).reshape(len(stack), -1)


def _identical_witnesses(factor, n: int, cfg) -> np.ndarray:
    """g (A, 2, 2) of the refined lattice starts whose g^{(x)n} moves V V^+ by at most _WITNESS_TOL."""
    results = search.euler_descent(factor, factor, n, cfg.grid, cfg.max_descents)
    return np.array([x for x, f2 in results if math.sqrt(max(f2, 0.0)) <= _WITNESS_TOL]).reshape(-1, 2, 2)


def _entry_table(rho):
    """Significant entries as (squared moduli, per-qubit bit differences)."""
    n = rho.n
    d = 1 << n
    rows, cols = np.nonzero(np.abs(rho.mat) > 1e-14)
    vals = np.abs(rho.mat[rows, cols]) ** 2
    bits = ((np.arange(d)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.float64)
    diffs = bits[rows] - bits[cols]
    return vals, diffs


def _difference_classes(vals, diffs):
    """The entry table summed per bit-difference class; (class sums, class diffs).

    Per-qubit phases move an entry by e^{i theta}, theta = phis . diff: it is
    fixed exactly when theta is in 2 pi Z, and its residual is
    sin^2(theta/2), even in theta.  So diff and -diff are one class (kept
    with its first nonzero difference positive).  The zero class never moves
    and is dropped.  Rows are grouped by the base-3 code
    sum_k (d_k + 1) 3^{n-1-k} of their entries d_k in {-1, 0, 1}, whose
    order is the rows' lexicographic order, so the classes come sorted as
    rows.
    """
    lead = np.take_along_axis(diffs, np.argmax(diffs != 0, axis=1)[:, None], axis=1)
    canon = np.where(lead < 0, -diffs, diffs)
    digits = 3 ** np.arange(canon.shape[1] - 1, -1, -1, dtype=np.int64)
    _, first, inverse = np.unique((canon.astype(np.int64) + 1) @ digits, return_index=True, return_inverse=True)
    classes = canon[first]
    sums = np.bincount(inverse, weights=vals, minlength=len(classes))
    moving = np.any(classes != 0, axis=1)
    return sums[moving], classes[moving]


def _diagonal_form(rows, n: int):
    """(s, V) with U D V = diag(s) for the integer matrix D of the given rows, U and V unimodular.

    D is diagonalised by integer row and column operations: the smallest
    nonzero entry left is moved to the next pivot, and its row and column are
    reduced by it until both are clear.  Only the column operations are kept,
    in V (n x n, Python ints); s holds the r nonzero pivots |s_i|, so
    columns r.. of V span the kernel of D.  The s_i need not divide each other.
    """
    a = [list(r) for r in rows]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    s = []
    while True:
        t = len(s)
        entries = [(abs(x), i, j) for i in range(t, len(a)) for j, x in enumerate(a[i][t:], t) if x]
        if not entries:
            return s, v
        _, i, j = min(entries)
        a[t], a[i] = a[i], a[t]
        for row in a + v:
            row[t], row[j] = row[j], row[t]
        p = a[t][t]
        for i in range(t + 1, len(a)):
            q = a[i][t] // p
            a[i] = [x - q * y for x, y in zip(a[i], a[t])]
        for j in range(t + 1, n):
            q = a[t][j] // p
            for row in a + v:
                row[j] -= q * row[t]
        if not any(row[t] for row in a[t + 1 :]) and not any(a[t][t + 1 :]):
            s.append(abs(p))


def _diag_subgroup(rho):
    """The diagonal stabilizer {phi : D phi in 2 pi Z^m} as (finite elements (F, n), directions (n, c)).

    D holds rho's bit-difference classes (_difference_classes), after the
    lightest are dropped for as long as their total weight w moves the
    residual by at most 2 sqrt(sum w) <= _WITNESS_TOL / 2.  With
    U D V = diag(s) (_diagonal_form), phi = V psi stabilizes exactly when
    s_i psi_i is in 2 pi Z for i < r: the finite elements are
    2 pi V (k_1 / s_1, ..., k_r / s_r, 0, ...) mod 2 pi, every k, and the
    integer columns V[:, r:] span the continuous part.
    """
    vals, diffs = _difference_classes(*_entry_table(rho))
    order = np.argsort(vals, kind="stable")
    light = np.count_nonzero(2.0 * np.sqrt(np.cumsum(vals[order])) <= 0.5 * _WITNESS_TOL)
    s, v = _diagonal_form(diffs[order[light:]].astype(np.int64).tolist(), rho.n)
    v = np.array(v, dtype=np.int64)
    ks = np.array(list(itertools.product(*(np.arange(si) / si for si in s))))  # (F, r)
    return 2 * math.pi * ((ks @ v[:, : len(s)].T) % 1.0), v[:, len(s) :]


def _diag_witnesses(rho) -> np.ndarray:
    """Every finite element of the diagonal stabilizer, and each continuous direction at 1 rad, as a stack.

    Each is a tuple of diag(1, e^{i phi_k}), one row (n, 2, 2) of the
    returned stack.  1 / (2 pi) is irrational, so a direction's element at
    1 rad lies in a closed family of phases only if its whole circle does.
    """
    finite, directions = _diag_subgroup(rho)
    phases = np.concatenate([finite, directions.T.astype(np.float64)])
    out = np.zeros(phases.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = np.exp(1j * phases)
    return out


def sample_stabilizer(
    rho: states.DensityMatrix,
    cfg: StabilizerSearchConfig | None = None,
) -> tuple[StabilizerWitness, ...]:
    """Search for stabilizer elements of a permutation-invariant state.

    The diagonal-phase witnesses are the whole diagonal stabilizer: its
    finite elements and one element per continuous direction
    (_diag_witnesses).  The identical-tuple witnesses are a lattice sample,
    deduplicated at _DEDUPE, not the stabilizer: for a continuous family
    their number follows last-bit roundoff of the search.  Decisions rest on
    stabilizer_anomalies.

    Both families form one (W, n, 2, 2) stack, identical tuples first.  Its
    residuals come from one stacked dense conjugation (_residuals), the
    candidates within _WITNESS_TOL are keyed (_projective_keys), and each key
    keeps its least residual, the first candidate on ties.  The witnesses
    come sorted by key, and only they become LocalUnitary objects.
    """
    _require("stabilizer sampling", rho, states.DensityMatrix, _TO_DENSITY)
    if cfg is None:
        cfg = StabilizerSearchConfig()
    n = rho.n
    check_dense_cap(n)
    if (defect := states.permutation_defect(rho)) is not None:
        k, dev = defect
        raise DomainError(
            "stabilizer sampling expects a permutation-invariant state: "
            f"swapping qubits {k} and {k + 1} moves it by {dev:.3g}"
        )
    gs = _identical_witnesses(_kernels.density_factor(rho.mat), n, cfg)
    stack = np.concatenate([np.broadcast_to(gs[:, None], (len(gs), n, 2, 2)), _diag_witnesses(rho)])
    residuals = _residuals(stack, rho.mat)
    kept = np.flatnonzero(residuals <= _WITNESS_TOL)
    keys = _projective_keys(stack[kept], _DEDUPE)
    # by key, then residual, then position: lexsort is stable and sorts by its last key first
    order = np.lexsort((residuals[kept],) + tuple(keys[:, ::-1].T))
    keys = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    return tuple(
        StabilizerWitness(states.LocalUnitary(tuple(stack[i])), float(residuals[i])) for i in kept[order[first]]
    )


# ---------------------------------------------------------------------------
# membership in a classified stabilizer family
# ---------------------------------------------------------------------------


def _conjugated(u: states.LocalUnitary, g: np.ndarray) -> states.LocalUnitary:
    return states.LocalUnitary(tuple(g @ f @ g.conj().T for f in u.factors))


def _wrap(t):
    """Angles taken into [-pi, pi)."""
    return (t + math.pi) % (2 * math.pi) - math.pi


def _half_widths(level: float, a, b) -> np.ndarray:
    """Largest |t - t*_k| at which qubit k keeps its squared overlap >= level.

    pi where the overlap never drops below level, 0 at its peak; a qubit with
    b_k = 0 has a flat overlap and is pi for every level <= a_k.
    """
    cos_w = np.divide(level - a, b, out=np.full_like(a, -1.0), where=b > 0)
    return np.arccos(np.clip(cos_w, -1.0, 1.0))


def _highest_level(feasible, top: float) -> float:
    """Largest level in [0, top] that feasible accepts, bisected to the last bit.

    feasible is monotone (it accepts every level below one it accepts), so
    the answer is the last float it accepts whichever levels are tried.  The
    float just below top is tried first: for a member of the family the
    answer is top or that float, and the bisection is skipped.
    """
    if feasible(top):
        return top
    below = math.nextafter(top, 0.0)
    if feasible(below):
        return below
    lo, hi = 0.0, below
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if feasible(mid):
            lo = mid
        else:
            hi = mid


def _common_arc_midpoint(centres, widths):
    """Midpoint of a part of the intersection of the arcs |t - centre_k| <= width_k, or None.

    A part of a nonempty intersection starts at the left end of some arc, so
    testing the n left ends decides emptiness.
    """
    left = centres - widths
    off = _wrap(left[:, None] - centres[None, :])  # left end i seen from centre k
    inside = np.abs(off) <= widths[None, :]
    np.fill_diagonal(inside, True)  # each left end lies on its own arc
    hits = np.flatnonzero(inside.all(axis=1))
    if hits.size == 0:
        return None
    i = hits[0]
    return left[i] + 0.5 * float(np.min(widths - off[i]))


def _fit_phases(tag: str, c: np.ndarray) -> np.ndarray:
    """Class parameters of the diagonal family member nearest factors c (n, 2, 2).

    Along qubit k, |tr(rz(t)^+ c_k)|^2 = a_k + b_k cos(t - t*_k), and the
    projective distance of that qubit falls as this overlap rises, so the
    nearest member maximises the smallest overlap.  Class i takes each t*_k;
    the constrained classes bisect on the common overlap level.
    """
    m00, m11 = np.abs(c[:, 0, 0]), np.abs(c[:, 1, 1])
    a, b = m00 * m00 + m11 * m11, 2.0 * m00 * m11
    peaks = np.angle(c[:, 1, 1]) - np.angle(c[:, 0, 0])
    if tag == "i":
        return peaks
    top = float(np.min(a + b))
    if tag in ("iia", "iib"):
        # phases summing to 0 mod 2 pi: the offsets e_k = t_k - t*_k sum to r
        r = float(_wrap(-np.sum(peaks)))
        level = _highest_level(lambda q: np.sum(_half_widths(q, a, b)) >= abs(r), top)
        w = _half_widths(level, a, b)
        total = float(np.sum(w))
        offsets = r * w / total if total > 0 else np.zeros_like(w)
        return (peaks + offsets)[:-1]  # the last phase follows from the others
    # iva, ivb: one phase on every qubit
    level = _highest_level(
        lambda q: _common_arc_midpoint(peaks, _half_widths(q, a, b)) is not None, top
    )
    return np.array([_common_arc_midpoint(peaks, _half_widths(level, a, b))])


def _pair_midpoint(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Geodesic midpoint a0 m^{1/2} of a0 and a1 projectively, m = a0^+ a1 in SU(2) with tr m >= 0."""
    m = a0.conj().T @ a1
    m = m / np.sqrt(np.linalg.det(m))
    if np.trace(m).real < 0:
        m = -m
    # for m in SU(2), (m + 1)^2 = (tr m + 2) m
    root = (m + np.eye(2)) / math.sqrt(np.trace(m).real + 2.0)
    return a0 @ root


def _nearest_group_element(factors: np.ndarray, rotations) -> float:
    """min over the group of u.projective_distance(g^{(x)n}), in one array pass.

    factors (n, 2, 2) are u's and rotations the group's SO(3) elements, taken
    to SU(2) by rotmatch.so3_to_su2 as StabilizerSampler.unit does.
    """
    group = rotmatch.so3_to_su2(rotations).reshape(-1, 1, 4)
    dist = states.phase_distances(factors.reshape(1, -1, 4), group)  # (group, qubit)
    return float(np.min(np.max(dist, axis=1)))


def class_membership_distance(
    sampler: classify.StabilizerSampler,
    u: states.LocalUnitary,
) -> float:
    """Projective distance from u to the sampled class family.

    Exact for every class: the finite group is enumerated, class iii takes
    the geodesic midpoint of its two factors, and the diagonal classes fit
    their phases in closed form on each flip layer (_fit_phases).  The
    distance is the entrywise LocalUnitary.projective_distance to the member
    found, so a member scores at roundoff.
    """
    if u.n != sampler.n:
        raise DomainError(f"arity mismatch: unitary on {u.n} qubits, family on {sampler.n}")
    tag = sampler.sclass.tag
    factors = np.array(u.factors)
    if tag == "finite":
        return _nearest_group_element(factors, sampler.sclass.group.elements)
    if tag == "iii":
        return u.projective_distance(sampler.unit((_pair_midpoint(factors[0], factors[1]),)))
    flips = (False, True) if sampler.has_flip else (False,)
    return min(
        u.projective_distance(
            sampler.unit(tuple(_fit_phases(tag, factors @ states.PAULI_X if flip else factors)), flip)
        )
        for flip in flips
    )


def witness_anomalies(witnesses, result: classify.ClassificationResult) -> tuple:
    """The witnesses lying outside the classified family, as (witness, membership distance).

    Each witness is moved into the frame of the class sampler by the
    classification's transform before its distance is taken, and lies
    outside when that distance passes StabilizerSearchConfig.membership_tol.
    """
    anomalies = []
    for w in witnesses:
        moved = _conjugated(w.unitary, result.transform)
        d = class_membership_distance(result.sampler, moved)
        if d > StabilizerSearchConfig.membership_tol:
            anomalies.append((w, d))
    return tuple(anomalies)


def stabilizer_anomalies(
    psi: states.SymmetricPureState,
    result: classify.ClassificationResult | None = None,
    cfg: StabilizerSearchConfig | None = None,
) -> tuple:
    """Sampled stabilizer witnesses lying outside the classified family.

    An empty result means every witness of the blind search (the exact
    diagonal stabilizer and the identical-tuple lattice sample) is explained
    by the classification; each anomaly is returned as (witness, membership
    distance).
    """
    _require("stabilizer_anomalies", psi, states.SymmetricPureState, "sample_stabilizer takes a density matrix")
    check_dense_cap(psi.n)
    if cfg is None:
        cfg = StabilizerSearchConfig()
    if result is None:
        result = classify.classify_state(psi)
    return witness_anomalies(sample_stabilizer(states.to_density(psi), cfg), result)


# ---------------------------------------------------------------------------
# brute-force equivalence
# ---------------------------------------------------------------------------


def lu_equivalent_pure_bruteforce(psi: states.SymmetricPureState, phi: states.SymmetricPureState):
    """Direct identical-tuple search on the projectors; None when no g found.

    Independent of the point-configuration route: minimizes the Frobenius
    distance of the conjugated projector over an Euler lattice, then refines
    the lowest lattice minima by damped Gauss-Newton, _BRUTEFORCE_ROUND at
    a time, until one reaches 0.01 threshold.  The threshold is
    default_threshold(n).  The projectors are never formed: the 2^n vectors
    of psi and phi are their factors (search.euler_descent).
    """
    for state in (psi, phi):
        _require(
            "the brute-force check", state, states.SymmetricPureState, "mixed.lu_equivalent_mixed compares density matrices"
        )
    if psi.n != phi.n:
        raise DomainError(f"qubit counts differ: {psi.n} vs {phi.n}")
    check_dense_cap(psi.n)
    n = psi.n
    threshold = default_threshold(n)
    vec, target = (states.expand(s).amps[:, None] for s in (psi, phi))
    stop_f2 = (0.01 * threshold) ** 2
    results = search.euler_descent(vec, target, n, _BRUTEFORCE_GRID, _BRUTEFORCE_STARTS, stop_f2, _BRUTEFORCE_ROUND)
    best_g, best_f2 = search.best(results)
    if math.sqrt(max(best_f2, 0.0)) <= threshold:
        return best_g
    return None
