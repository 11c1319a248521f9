"""States of n qubits: symmetric pure states, full vectors, density matrices.

Conventions used across the package:

* Basis strings are integers whose binary digits are qubit values with
  qubit 0 as the most significant bit, matching the Kronecker order
  g_0 (x) g_1 (x) ... (x) g_{n-1}.
* A permutation-symmetric pure state is stored as its n+1 coefficients in
  the orthonormal symmetrized-weight basis: basis vector k is the normalized
  uniform superposition of all weight-k strings, so the amplitude of a
  weight-k string in the full vector is c_k / sqrt(C(n, k)).
* Global phase is normalized by making the first coefficient with modulus
  above the zero threshold real and positive.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NormalizationError
from .tolerances import DEFAULT_TOLERANCES

__all__ = [
    "SymmetricPureState",
    "PureState",
    "DensityMatrix",
    "LocalUnitary",
    "DENSE_QUBIT_CAP",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "POLE_FLIP",
    "weight",
    "basis_table",
    "binomial_roots",
    "complement",
    "phase_normalize",
    "phase_distance",
    "phase_distances",
    "is_unitary",
    "rx",
    "ry",
    "rz",
    "dicke",
    "ghz",
    "singlet",
    "symmetrize",
    "expand",
    "to_density",
    "symmetric_power",
    "symmetric_power_apply",
    "spin_operators",
    "apply_diag_symmetric",
    "apply_lu",
    "conjugate_local",
    "permute_qubits",
    "is_permutation_invariant",
    "permutation_defect",
    "SpinBlocks",
    "spin_blocks",
    "pure_blocks",
    "reduced_density",
    "random_su2",
    "random_local_unitary",
    "random_symmetric",
    "random_symmetric_mixed",
]

# Full 2^n storage is reserved for small systems and oracle checks.
DENSE_QUBIT_CAP = 12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def weight(index: int) -> int:
    """Number of 1 bits in a basis-string index."""
    return int(index).bit_count()


@functools.lru_cache(maxsize=None)
def basis_table(n: int) -> tuple:
    """(bits, weights) of the 2^n basis strings of n qubits, read-only, built once per n.

    bits[x, k] (int8) is qubit k's value in string x, qubit 0 the most
    significant bit, and weights[x] = |x| is the Hamming weight of x.  Dense
    like the 2^n vectors it indexes: n above DENSE_QUBIT_CAP raises DomainError.
    """
    if not 0 <= n <= DENSE_QUBIT_CAP:
        raise DomainError(f"basis table blocked for n={n} outside 0..{DENSE_QUBIT_CAP}")
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return _freeze(bits.astype(np.int8)), _freeze(bits.sum(axis=1))


@functools.lru_cache(maxsize=None)
def binomial_roots(n: int) -> np.ndarray:
    """sqrt(C(n, k)) for k = 0..n, read-only: the weight-k amplitudes of basis vector k are 1 / sqrt(C(n, k))."""
    return _freeze([math.sqrt(math.comb(n, k)) for k in range(n + 1)])


def complement(index: int, n: int) -> int:
    """Bitwise complement of an n-bit string index (an involution)."""
    if not 0 <= index < (1 << n):
        raise DomainError(f"index {index} out of range for {n} qubits")
    return ((1 << n) - 1) ^ index


def _check_finite(arr: np.ndarray, what: str) -> None:
    # NaN passes every "abs(x - 1) > tol" check below, so it is refused first
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} has non-finite entries")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr)
    arr.setflags(write=False)
    return arr


def phase_normalize(vec: np.ndarray) -> np.ndarray:
    """Multiply by a global phase making the first significant entry real > 0."""
    vec = np.asarray(vec, dtype=np.complex128)
    cutoff = DEFAULT_TOLERANCES.coeff_zero * max(np.linalg.norm(vec), 1e-300)
    for v in vec:
        if abs(v) > cutoff:
            return vec * np.exp(-1j * np.angle(v))
    return vec.copy()


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over global phase of ||u - e^{ia} v|| for unit vectors (arrays of any shape, taken flat)."""
    return float(phase_distances(np.ravel(u), np.ravel(v)))


def phase_distances(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """phase_distance between the unit vectors along the last axes of u and v, broadcast against each other.

    Evaluated as the entrywise difference after aligning v's phase to
    <v, u>; the closed form sqrt(2 - 2|<v, u>|) would bottom out near
    sqrt(eps).
    """
    u, v = np.asarray(u), np.asarray(v)
    ip = (v.conj()[..., None, :] @ u[..., :, None])[..., 0, 0]
    size = np.abs(ip)
    zero = size == 0  # any phase will do: take 1
    diff = u - v * ((ip + zero) / (size + zero))[..., None]
    return np.sqrt(np.add.reduce((diff.conj() * diff).real, axis=-1))  # np.linalg.norm's sum, fewer calls


def is_unitary(u: np.ndarray, tol: float | None = None) -> bool:
    u = np.asarray(u)
    if u.shape != (2, 2):
        return False
    if tol is None:
        tol = DEFAULT_TOLERANCES.equality
    return _unitary_entries(*(complex(x) for x in u.ravel().tolist()), tol)


def _unitary_entries(a: complex, b: complex, c: complex, d: complex, tol: float) -> bool:
    """Whether [[a, b], [c, d]] is unitary: every entry of u u^+ - 1 within tol; a NaN fails."""
    return (
        abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= tol
        and abs(a * c.conjugate() + b * d.conjugate()) <= tol
        and abs(abs(c) ** 2 + abs(d) ** 2 - 1.0) <= tol
    )


def rx(t: float) -> np.ndarray:
    """exp(-i t X / 2)."""
    return math.cos(t / 2) * np.eye(2) - 1j * math.sin(t / 2) * PAULI_X


def ry(t: float) -> np.ndarray:
    """exp(-i t Y / 2)."""
    return math.cos(t / 2) * np.eye(2) - 1j * math.sin(t / 2) * PAULI_Y


def rz(t: float) -> np.ndarray:
    """exp(-i t Z / 2) = diag(e^{-it/2}, e^{+it/2})."""
    return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]], dtype=np.complex128)


# -iX, which rx(pi) is up to a roundoff diagonal: it swaps the north and south poles
POLE_FLIP = _freeze(-1j * PAULI_X)


@dataclass(frozen=True, eq=False)
class SymmetricPureState:
    """n-qubit permutation-symmetric pure state, n+1 weight-basis coefficients."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need n >= 1 qubits, got {self.n}")
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.n + 1,):
            raise DomainError(
                f"expected {self.n + 1} coefficients for n={self.n}, got shape {c.shape}"
            )
        _check_finite(c, "coefficient vector")
        norm = np.linalg.norm(c)
        if abs(norm - 1.0) > 1e-9:
            raise NormalizationError(f"coefficient norm {norm} is not 1")
        # snap tiny drift so downstream norms stay within the strict tolerance
        object.__setattr__(self, "coeffs", _freeze(c / norm))

    @classmethod
    def from_unnormalized(cls, coeffs) -> "SymmetricPureState":
        c = np.asarray(coeffs, dtype=np.complex128)
        _check_finite(c, "coefficient vector")
        norm = np.linalg.norm(c)
        if norm == 0:
            raise NormalizationError("zero coefficient vector")
        return cls(len(c) - 1, c / norm)

    def phase_normalized(self) -> "SymmetricPureState":
        return SymmetricPureState(self.n, phase_normalize(self.coeffs))

    def distance(self, other: "SymmetricPureState") -> float:
        """Global-phase-invariant distance."""
        if self.n != other.n:
            raise DomainError("qubit counts differ")
        return phase_distance(self.coeffs, other.coeffs)


@dataclass(frozen=True, eq=False)
class PureState:
    """Full 2^n state vector."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=np.complex128)
        if self.n < 1 or a.shape != (1 << self.n,):
            raise DomainError(f"amplitude vector shape {a.shape} wrong for n={self.n}")
        _check_finite(a, "amplitude vector")
        norm = np.linalg.norm(a)
        if abs(norm - 1.0) > 1e-9:
            raise NormalizationError(f"state norm {norm} is not 1")
        object.__setattr__(self, "amps", _freeze(a / norm))

    def distance(self, other: "PureState") -> float:
        if self.n != other.n:
            raise DomainError("qubit counts differ")
        return phase_distance(self.amps, other.amps)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """2^n x 2^n density matrix (hermitian, unit trace, PSD within tolerance).

    mat is the Hermitian part of the matrix given, with the trace checked,
    not divided out: taking the Hermitian part of a Hermitian matrix is
    exact, so DensityMatrix(n, rho.mat) keeps every bit of rho.mat.
    """

    n: int
    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=np.complex128)
        d = 1 << self.n
        if self.n < 1 or m.shape != (d, d):
            raise DomainError(f"matrix shape {m.shape} wrong for n={self.n}")
        _check_finite(m, "density matrix")
        tol = DEFAULT_TOLERANCES
        herm = np.max(np.abs(m - m.conj().T))
        if herm > tol.hermiticity:
            raise DomainError(f"matrix not hermitian: max |M - M^+| = {herm}")
        tr = m.trace().real
        if abs(tr - 1.0) > 1e-9:
            raise NormalizationError(f"trace {tr} is not 1")
        m = 0.5 * (m + m.conj().T)
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -1e-9:
            raise DomainError(f"matrix not PSD: lowest eigenvalue {lo}")
        object.__setattr__(self, "mat", _freeze(m))


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """Tuple of one single-qubit unitary per qubit."""

    factors: tuple

    def __post_init__(self):
        fs = tuple(np.asarray(f, dtype=np.complex128) for f in self.factors)
        if not fs:
            raise DomainError("need at least one factor")
        for k, f in enumerate(fs):
            if not is_unitary(f, 1e-9):
                raise DomainError(f"factor {k} is not a 2x2 unitary")
        frozen = {id(f): _freeze(f) for f in fs}  # a factor repeated n times is stored once
        object.__setattr__(self, "factors", tuple(frozen[id(f)] for f in fs))

    @classmethod
    def uniform(cls, g: np.ndarray, n: int) -> "LocalUnitary":
        return cls(tuple(g for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.factors)

    def matrix(self) -> np.ndarray:
        if self.n > DENSE_QUBIT_CAP:
            raise DomainError(f"dense matrix blocked for n={self.n} > {DENSE_QUBIT_CAP}")
        big = self.factors[0]
        for f in self.factors[1:]:
            big = np.kron(big, f)
        return big

    def compose(self, other: "LocalUnitary") -> "LocalUnitary":
        """Factor-wise product self . other (other acts first)."""
        if self.n != other.n:
            raise DomainError("arity mismatch")
        return LocalUnitary(tuple(a @ b for a, b in zip(self.factors, other.factors)))

    def projective_distance(self, other: "LocalUnitary") -> float:
        """Max over qubits of the phase_distance between the two factors."""
        if self.n != other.n:
            raise DomainError("arity mismatch")
        mine, theirs = np.array(self.factors + other.factors).reshape(2, self.n, 4)
        return max(phase_distances(mine, theirs).tolist())

    def projectively_equal(self, other: "LocalUnitary") -> bool:
        return self.projective_distance(other) <= DEFAULT_TOLERANCES.equality


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def dicke(n: int, k: int) -> SymmetricPureState:
    """Uniform superposition of all weight-k strings of n qubits."""
    if not 0 <= k <= n:
        raise DomainError(f"excitation count k={k} out of range for n={n}")
    c = np.zeros(n + 1, dtype=np.complex128)
    c[k] = 1.0
    return SymmetricPureState(n, c)


def ghz(n: int, a: complex = None, b: complex = None) -> SymmetricPureState:
    """a|0...0> + b|1...1>; balanced with a = b = 1/sqrt(2) by default."""
    if n < 2:
        raise DomainError(f"need n >= 2 for a two-pole state, got {n}")
    if a is None and b is None:
        a = b = 1.0 / math.sqrt(2.0)
    elif a is None or b is None:
        raise DomainError("give both amplitudes or neither")
    _check_finite(np.array([a, b], dtype=np.complex128), "amplitude pair")
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-9:
        raise NormalizationError(f"|a|^2+|b|^2 = {abs(a)**2 + abs(b)**2} is not 1")
    c = np.zeros(n + 1, dtype=np.complex128)
    c[0] = a
    c[n] = b
    return SymmetricPureState(n, c / np.linalg.norm(c))


def singlet() -> PureState:
    """(|01> - |10>) / sqrt(2), the antisymmetric 2-qubit state."""
    amps = np.zeros(4, dtype=np.complex128)
    amps[0b01] = 1.0 / math.sqrt(2.0)
    amps[0b10] = -1.0 / math.sqrt(2.0)
    return PureState(2, amps)


def symmetrize(vectors) -> SymmetricPureState:
    """Project the product of 1-qubit vectors onto the symmetric subspace.

    Each vector is a nonzero length-2 complex array; the result is normalized.
    The weight-basis coefficients come from the coefficient convolution of
    the linear factors (v0 + v1 z), divided by sqrt(C(n, k)).
    """
    vs = [np.asarray(v, dtype=np.complex128).ravel() for v in vectors]
    n = len(vs)
    if n < 1:
        raise DomainError("need at least one vector")
    poly = np.ones(1, dtype=np.complex128)
    for v in vs:
        if v.shape != (2,):
            raise DomainError(f"expected length-2 vectors, got shape {v.shape}")
        nv = np.linalg.norm(v)
        if nv == 0:
            raise DomainError("zero single-qubit vector")
        poly = np.convolve(poly, v / nv)
    c = poly / binomial_roots(n)
    return SymmetricPureState.from_unnormalized(c)


# ---------------------------------------------------------------------------
# basis expansion and density matrices
# ---------------------------------------------------------------------------


def expand(state: SymmetricPureState) -> PureState:
    """Full 2^n vector of a symmetric state."""
    n = state.n
    if n > DENSE_QUBIT_CAP:
        raise DomainError(f"dense expansion blocked for n={n} > cap={DENSE_QUBIT_CAP}")
    return PureState(n, (state.coeffs * (1.0 / binomial_roots(n)))[basis_table(n)[1]])


def to_density(state) -> DensityMatrix:
    """Projector |psi><psi| of a SymmetricPureState or PureState."""
    if isinstance(state, SymmetricPureState):
        state = expand(state)
    if not isinstance(state, PureState):
        raise DomainError(f"cannot build a density matrix from {type(state).__name__}")
    if state.n > DENSE_QUBIT_CAP:
        raise DomainError(f"dense density blocked for n={state.n} > cap={DENSE_QUBIT_CAP}")
    return DensityMatrix(state.n, np.outer(state.amps, state.amps.conj()))


def symmetric_power(g: np.ndarray, n: int) -> np.ndarray:
    """(n+1)x(n+1) action of g^{(x)n} on the symmetrized-weight basis, the Wigner D^{n/2}(g).

    A (K, 2, 2) stack of g gives the (K, n+1, n+1) stack of their matrices.
    With s = det(g)^{1/2}, g / s = rz(alpha) ry(beta) rz(gamma) (ZYZ Euler
    angles), so the matrix is s^n diag(e^{-i alpha m}) d(beta) diag(e^{-i gamma m})
    with m = n/2 - k on basis vector k.  d(beta) = exp(-i beta J_y) is formed
    in the eigenbasis of J_y, diagonalised once per n (Feng, Wang, Yang and
    Jin, PRE 92, 043307 (2015)), which keeps every entry accurate to roundoff
    at any n.  A g that is not unitary raises DomainError.  The matrix is
    pure_blocks(n).rep(g), which builds every D^j(g) of the spin blocks.
    """
    return pure_blocks(n).rep(g)


def _euler_angles(g: np.ndarray) -> list:
    """(s, -i alpha, i beta, -i gamma) of symmetric_power for each g of a 2x2 unitary or a (K, 2, 2) stack.

    A g that is not unitary raises DomainError.
    """
    g = np.asarray(g, dtype=np.complex128)
    if g.ndim not in (2, 3) or g.shape[-2:] != (2, 2):
        raise DomainError("g is not a 2x2 unitary")
    # a few scalars per g, where Python's cmath is quicker than numpy calls
    euler = []
    for g00, g01, g10, g11 in g.reshape(-1, 4).tolist():
        if not _unitary_entries(g00, g01, g10, g11, 1e-9):
            raise DomainError("g is not a 2x2 unitary")
        root = cmath.sqrt(g00 * g11 - g01 * g10)
        a, b = g00 / root, g10 / root
        beta = 2.0 * math.atan2(abs(b), abs(a))
        alpha, gamma = cmath.phase(b) - cmath.phase(a), -cmath.phase(a) - cmath.phase(b)
        euler.append((root, -1j * alpha, 1j * beta, -1j * gamma))
    return euler


def _euler_phases(g: np.ndarray, n: int, m: np.ndarray) -> tuple:
    """(s^n e^{-i alpha m}, e^{i beta m}, e^{-i gamma m}), each (K, len(m)), of g or a (K, 2, 2) stack of g.

    On a J_y eigenbasis (V, V^+, m), J_y = V diag(-m) V^+ (_jy_eigenbasis),
    g^{(x)n} is diag(first) V diag(second) V^+ diag(third).
    """
    factors = np.array([(root**n, *slopes) for root, *slopes in _euler_angles(g)], dtype=np.complex128).reshape(-1, 4)
    turns = np.exp(factors[:, 1:, None] * m)
    return factors[:, :1] * turns[:, 0], turns[:, 1], turns[:, 2]


def symmetric_power_apply(g: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """symmetric_power(g, n) @ coeffs, n = len(coeffs) - 1, without forming the matrix.

    A (K, 2, 2) stack of g gives the (K, n+1) stack of turned vectors.  Each
    is the chain s^n e^{-i alpha m} V (e^{i beta m} V^+ (e^{-i gamma m} c)) of
    symmetric_power's factors, in the same J_y eigenbasis V: O(K n^2), where
    the matrices cost O(K n^3).  A g that is not unitary raises DomainError.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    n = coeffs.size - 1
    vecs, vecs_h, m = _jy_eigenbasis(n)
    left, mid, right = _euler_phases(g, n, m)
    out = left * ((mid * ((right * coeffs) @ vecs_h.T)) @ vecs.T)
    return out.reshape(np.shape(g)[:-2] + (n + 1,))


def _j_plus(two_j: int) -> np.ndarray:
    """J_+ of spin j = two_j / 2 on |j, m>, m = j, j - 1, ..., -j: <m + 1| J_+ |m> on the first superdiagonal."""
    m = two_j / 2 - np.arange(1, two_j + 1)
    return np.diag(np.sqrt((two_j / 2 - m) * (two_j / 2 + m + 1)), 1)


@functools.lru_cache(maxsize=None)
def spin_operators(two_j: int) -> np.ndarray:
    """(J_x, J_y, J_z) of spin j = two_j / 2 on |j, m>, m = j, j - 1, ..., -j; (3, 2j + 1, 2j + 1).

    symmetric_power(g, two_j) is exp(-i theta n.J), up to sign, when g turns
    the Bloch sphere by theta about n.
    """
    j_plus, m = _j_plus(two_j), two_j / 2 - np.arange(two_j + 1)
    return _freeze([0.5 * (j_plus + j_plus.T), -0.5j * (j_plus - j_plus.T), np.diag(m)])


@functools.lru_cache(maxsize=None)
def _jy_eigenbasis(two_j: int) -> tuple:
    """(V, V^+, m) with J_y = V diag(-m) V^+ for spin j = two_j / 2 and m = j, j - 1, ..., -j."""
    vecs = np.linalg.eigh(spin_operators(two_j)[1])[1]
    return _freeze(vecs), _freeze(vecs.conj().T), _freeze(two_j / 2 - np.arange(two_j + 1))


def apply_diag_symmetric(g: np.ndarray, state: SymmetricPureState) -> SymmetricPureState:
    """Apply g^{(x)n} to a symmetric state without leaving the weight basis."""
    return SymmetricPureState.from_unnormalized(symmetric_power_apply(g, state.coeffs))


def apply_lu(u: LocalUnitary, rho: DensityMatrix) -> DensityMatrix:
    """Conjugate a density matrix by a local unitary tuple (conjugate_local)."""
    if u.n != rho.n:
        raise DomainError(f"arity mismatch: {u.n} factors vs {rho.n} qubits")
    return DensityMatrix(rho.n, conjugate_local(u.factors, rho.mat))


def conjugate_local(factors, mat: np.ndarray) -> np.ndarray:
    """U mat U^+ for U = factors[0] (x) ... (x) factors[n-1] and a 2^n x 2^n mat, without forming U.

    factors is n 2x2 factors, or a (W, n, 2, 2) stack of W such tuples,
    whose W conjugates come back as one (W, 2^n, 2^n) stack.  Qubit k's
    factors multiply the 2^k stacked (2, rest) slices of
    mat.reshape(2^k, 2, rest) in one batched matmul, contiguous and with no
    axis moved, so U mat takes n passes; the columns take the same passes on
    the adjoint, U mat U^+ = (U (U mat)^+)^+.  That is O(n 4^n) a tuple,
    where U and the products with it cost O(8^n).  For one g on every qubit
    the result equals, bit for bit, g applied by tensordot to each of the 2n
    axes of the (2,)*2n tensor, g^* on the column axes, and a tuple's
    conjugate is the same in a stack as alone.
    """
    stack = np.asarray(factors, dtype=np.complex128)
    single = stack.ndim == 3
    if single:
        stack = stack[None]
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.shape != (1 << stack.shape[1],) * 2:
        raise DomainError(f"matrix shape {mat.shape} wrong for {stack.shape[1]} factors")
    half = _apply_local(stack, mat[None]).conj().transpose(0, 2, 1)
    out = _apply_local(stack, half).conj().transpose(0, 2, 1)
    return out[0] if single else out


def _apply_local(stack, mats: np.ndarray) -> np.ndarray:
    """(stack[w, 0] (x) ... (x) stack[w, n-1]) mats[w] for each w, qubit by qubit; mats (W or 1, 2^n, 2^n)."""
    shape = stack.shape[:1] + mats.shape[1:]
    for k in range(stack.shape[1]):
        mats = (stack[:, k, None] @ mats.reshape(len(mats), 1 << k, 2, -1)).reshape(shape)
    return mats


# ---------------------------------------------------------------------------
# permutations and reductions
# ---------------------------------------------------------------------------


def permute_qubits(rho: DensityMatrix, perm) -> DensityMatrix:
    """Relabel qubits: output qubit i is input qubit perm[i]."""
    n = rho.n
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise DomainError(f"{perm} is not a permutation of 0..{n - 1}")
    return DensityMatrix(n, _permuted(rho.mat, n, perm))


def _permuted(mat: np.ndarray, n: int, perm: list) -> np.ndarray:
    t = mat.reshape((2,) * (2 * n))
    axes = perm + [n + p for p in perm]
    return np.transpose(t, axes).reshape(1 << n, 1 << n)


_GENERATOR_MARGIN = 1e-12  # permutation_defect: relative slack of the bound for the rounding of the computed deviations


def _generator_defects(mat: np.ndarray) -> tuple:
    """(delta_s, delta_c): the max |P rho P^T - rho| entry for the swap of qubits 0, 1 and for the cyclic shift.

    The shift moves qubit 0 to the last place.  Each compares mat with a
    transposed view of itself, so no permuted copy is made.
    """
    half, quarter = mat.shape[0] >> 1, mat.shape[0] >> 2
    pairs = mat.reshape(2, 2, quarter, 2, 2, quarter)
    swap = np.max(np.abs(pairs.transpose(1, 0, 2, 4, 3, 5) - pairs))
    shifted = mat.reshape(2, half, 2, half).transpose(1, 0, 3, 2)
    return float(swap), float(np.max(np.abs(shifted - mat.reshape(half, 2, half, 2))))


def permutation_defect(rho: DensityMatrix, tol: float | None = None) -> tuple | None:
    """(k, deviation) of the first swap of qubits k, k + 1 moving rho by more than tol, or None.

    The swap s of qubits 0, 1 and the cyclic shift c generate S_n, and the
    swap of qubits k, k + 1 is c^k s c^-k.  The max-entry norm does not
    change under permutations, so that swap moves rho by at most
    delta_s + 2 min(k, n - k) delta_c (_generator_defects).  When
    delta_s + 2 floor(n / 2) delta_c is within tol, less a relative 1e-12
    for rounding, every adjacent swap passes and the answer is None from two
    comparisons.  Otherwise the adjacent swaps are scanned in order, one
    permuted copy each, which names the first that fails.
    """
    if tol is None:
        tol = DEFAULT_TOLERANCES.equality
    n = rho.n
    if n >= 2:
        swap, shift = _generator_defects(rho.mat)
        if swap + 2 * (n // 2) * shift <= tol * (1 - _GENERATOR_MARGIN):
            return None
    for k in range(n - 1):
        perm = list(range(n))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        # the raw relabelled matrix: a DensityMatrix would re-check PSD by an eigensolve per swap
        dev = float(np.max(np.abs(_permuted(rho.mat, n, perm) - rho.mat)))
        if dev > tol:
            return k, dev
    return None


def is_permutation_invariant(rho: DensityMatrix) -> bool:
    """Check invariance under all adjacent transpositions (they generate S_n)."""
    return permutation_defect(rho) is None


@dataclass(frozen=True, eq=False)
class SpinBlocks:
    """Spin blocks j of a permutation-invariant state, block j with multiplicity m_j.

    By Schur-Weyl duality a permutation-invariant rho on n qubits is the
    direct sum of rho_j (x) 1_{m_j} over j = n/2, n/2 - 1, ..., and
    g^{(x)n} is the direct sum of D^j(g) (x) 1, so
    || g^{(x)n} rho g^{(x)n +} - sigma ||^2 = sum_j m_j || D^j rho_j D^j+ - sigma_j ||^2.
    Block j's columns are |j, m> for m = j, j - 1, ..., -j, the Dicke basis of
    2j qubits, so D^j(g) is symmetric_power(g, 2j) up to the phase
    det(g)^{n/2 - j} of the n - 2j qubits outside them.  The forms are
    d x d, d = sum_j (2j + 1): slices[b] indexes block b, and weight[a, c] is
    m_j when columns a and c both lie in block j and 0 otherwise.  turns holds
    m_a - m_c + n for the entries (a, c) of a form, flattened: rz(phi) turns
    entry (a, c) by e^{-i q phi}, q = m_a - m_c (mixed._best_turn bins by q + n).

    eigenbasis is (V, V^+, m) for the block-diagonal V whose block j is
    _jy_eigenbasis(2j)'s and the m of every column, so rep builds the whole
    direct sum of D^j(g) as one product of symmetric_power's form, with exact
    zeros off the blocks; one block shares _jy_eigenbasis(n)'s arrays.

    Only compress needs basis, the 2^n x d columns spanning one copy of each
    block (spin_blocks(n) has all of them).  A symmetric pure state psi is
    the single block SpinBlocks(n, (n / 2,), (1,)) with form psi psi^+, built
    once per n by pure_blocks(n).
    """

    n: int
    spins: tuple
    mults: tuple
    basis: np.ndarray | None = None
    slices: tuple = field(init=False)
    weight: np.ndarray = field(init=False)
    turns: np.ndarray = field(init=False)
    eigenbasis: tuple = field(init=False)

    def __post_init__(self):
        sizes = [round(2 * j) + 1 for j in self.spins]
        slices = tuple(slice(int(end - size), int(end)) for end, size in zip(np.cumsum(sizes), sizes))
        block = np.repeat(np.arange(len(sizes)), sizes)
        same = block[:, None] == block[None, :]
        parts = [_jy_eigenbasis(size - 1) for size in sizes]
        eigenbasis, m = parts[0], np.concatenate([part[2] for part in parts])  # one block shares the cached arrays
        if len(parts) > 1:
            vecs = np.zeros(same.shape, dtype=np.complex128)
            vecs[same] = np.concatenate([part[0].ravel() for part in parts])  # row-major: block by block
            eigenbasis = (_freeze(vecs), _freeze(vecs.conj().T), _freeze(m))
        object.__setattr__(self, "slices", slices)
        object.__setattr__(self, "weight", _freeze(np.where(same, np.array(self.mults, float)[block][:, None], 0.0)))
        object.__setattr__(self, "turns", _freeze(np.rint(m[:, None] - m).astype(int).ravel() + self.n))
        object.__setattr__(self, "eigenbasis", eigenbasis)

    def compress(self, rho: DensityMatrix) -> np.ndarray:
        """The d x d block form basis^+ rho basis, whose blocks are the rho_j."""
        if rho.n != self.n:
            raise DomainError(f"arity mismatch: blocks of {self.n} qubits, state on {rho.n}")
        if self.basis is None:
            raise DomainError("these spin blocks carry no basis to compress a density matrix with")
        return self.basis.T @ rho.mat @ self.basis

    def rep(self, g: np.ndarray) -> np.ndarray:
        """g^{(x)n} on the blocks, the direct sum of the D^j(g), for any 2x2 unitary g or a (K, 2, 2) stack.

        One product s^n diag(e^{-i alpha m}) V diag(e^{i beta m}) V^+
        diag(e^{-i gamma m}) on eigenbasis (V, V^+, m): symmetric_power's
        form, and on pure_blocks(n) its one body.  One matrix, or a (K, d, d)
        stack.
        """
        vecs, vecs_h, m = self.eigenbasis
        left, mid, right = _euler_phases(g, self.n, m)
        out = (left[:, :, None] * vecs * mid[:, None, :]) @ (vecs_h * right[:, None, :])
        return out.reshape(np.shape(g)[:-2] + vecs.shape)

    def rotate(self, g: np.ndarray, form: np.ndarray) -> np.ndarray:
        """The block form of g^{(x)n} rho g^{(x)n +} from that of rho."""
        rep = self.rep(g)
        return rep @ form @ rep.conj().T

    def distance(self, g: np.ndarray, form: np.ndarray, target: np.ndarray) -> float:
        """|| g^{(x)n} rho g^{(x)n +} - sigma ||_F from the block forms of rho and sigma."""
        diff = np.abs(self.rotate(g, form) - target)
        return float(np.sqrt(np.sum(self.weight * diff * diff)))

    def spectrum(self, forms: np.ndarray) -> np.ndarray:
        """The eigenvalues of each state of a (..., d, d) stack of forms, descending: those of each rho_j, m_j times.

        g^{(x)n} moves block j's basis copy by D^j(g), so each block's
        spectrum is an exact g^{(x)n} invariant of any input; for a
        permutation-invariant rho the union is rho's whole spectrum.  One
        eigensolve per spin, of at most (n + 1) x (n + 1), takes that block of
        every form in the stack, and each form's spectrum is the same, bit for
        bit, as alone.
        """
        values = np.concatenate([np.linalg.eigvalsh(forms[..., sl, sl]) for sl in self.slices], axis=-1)
        return np.sort(np.repeat(values, np.diagonal(self.weight).astype(int), axis=-1), axis=-1)[..., ::-1]

    def multipole(self, form: np.ndarray, block: int, k: int) -> np.ndarray:
        """Rank-k multipole v_q = tr(T_kq^+ rho_j), q = k..-k, of one block of a form.

        Conjugating the state by g^{(x)n} moves it as a 2k-qubit symmetric state:
        v -> symmetric_power(g, 2k) v.
        """
        sl = self.slices[block]
        ops = _tensor_operators(sl.stop - sl.start - 1, k)
        return np.einsum("qab,ab->q", ops.conj(), form[sl, sl])


@functools.lru_cache(maxsize=None)
def _tensor_operators(two_j: int, k: int) -> np.ndarray:
    """Spherical tensor operators T_kq, q = k..-k, of spin j = two_j / 2; (2k + 1, 2j + 1, 2j + 1).

    T_kk is J_+^k normalized and [J_-, T_kq] = sqrt((k + q)(k - q + 1)) T_k,q-1:
    orthonormal in the trace inner product, they move as the |k, q> of symmetric_power.
    Neither is how they are computed: the powers and commutators lose all
    accuracy by spin 24.  T_kq lies on the diagonal of the |m + q><m|, where
    the adjoint Casimir sum_a [J_a, [J_a, .]] is a symmetric tridiagonal
    matrix with the eigenvalues l(l + 1), l = |q| .. 2j, at least 2 apart; so
    eigh finds T_kq, the eigenvector of k(k + 1), to roundoff at any spin.
    Its sign is that of the sum for q = k, and that of T_k,q+1 lowered once
    for the others.
    """
    j, j_plus = two_j / 2, _j_plus(two_j)
    up = np.concatenate([[0.0], np.diag(j_plus, 1)])  # <m + 1| J_+ |m> at the column of |m>
    m = j - np.arange(two_j + 1)
    ops = np.zeros((2 * k + 1, two_j + 1, two_j + 1))
    for i, q in enumerate(range(k, -k - 1, -1)):
        cols = np.arange(max(q, 0), two_j + 1 + min(q, 0))
        rows = cols - q
        off = -up[rows[1:]] * up[cols[1:]]
        casimir = np.diag(2 * j * (j + 1) - 2 * m[rows] * m[cols]) + np.diag(off, 1) + np.diag(off, -1)
        t = np.linalg.eigh(casimir)[1][:, k - abs(q)]
        lowered = t.sum() if q == k else (j_plus.T @ ops[i - 1] - ops[i - 1] @ j_plus.T)[rows, cols] @ t
        ops[i, rows, cols] = t if lowered > 0 else -t
    return _freeze(ops)


@functools.lru_cache(maxsize=None)
def spin_blocks(n: int) -> SpinBlocks:
    """The SpinBlocks of n qubits, built once per n.

    Block k is k singlets (|01> - |10>)/sqrt(2) on qubit pairs (0, 1), ...,
    (2k - 2, 2k - 1) times the Dicke states of the other 2j = n - 2k qubits:
    g^{(x)n} fixes the singlets (for g in SU(2)) and moves the Dicke states
    by symmetric_power(g, 2j).
    """
    if not 1 <= n <= DENSE_QUBIT_CAP:
        raise DomainError(f"spin blocks need 1 <= n <= {DENSE_QUBIT_CAP}, got {n}")
    cols, sizes = [], list(range(n + 1, 0, -2))
    for k, size in enumerate(sizes):
        pairs = functools.reduce(np.kron, [singlet().amps.real] * k, np.ones(1))
        dicke = (basis_table(size - 1)[1][:, None] == np.arange(size)) / binomial_roots(size - 1)
        cols.append(np.kron(pairs[:, None], dicke))
    spins = tuple((size - 1) / 2 for size in sizes)
    mults = tuple(math.comb(n, k) - (math.comb(n, k - 1) if k else 0) for k in range(len(sizes)))
    return SpinBlocks(n, spins, mults, _freeze(np.hstack(cols)))


@functools.lru_cache(maxsize=None)
def pure_blocks(n: int) -> SpinBlocks:
    """The single spin-n/2 block of a symmetric pure state psi of n qubits, whose form is psi psi^+; built once per n."""
    return SpinBlocks(n, (n / 2,), (1,))


def reduced_density(rho: DensityMatrix, qubits: tuple) -> np.ndarray:
    """The partial trace of rho over every qubit but the given ones: their 2^q x 2^q reduced density matrix.

    The rows and columns run over the given qubits in the order given, the
    first most significant.  Repeated or out-of-range qubits raise DomainError.
    """
    n = rho.n
    if len(set(qubits).intersection(range(n))) != len(qubits):
        raise DomainError(f"qubits {qubits} are not distinct indices in 0..{n - 1}")
    kept = range(n, n + len(qubits))
    cols = list(range(n))
    for k, c in zip(qubits, kept):
        cols[k] = c
    d = 1 << len(qubits)
    return np.einsum(rho.mat.reshape((2,) * (2 * n)), list(range(n)) + cols, [*qubits, *kept]).reshape(d, d)


# ---------------------------------------------------------------------------
# random generators (deterministic given the passed rng)
# ---------------------------------------------------------------------------


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) element."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return q / np.sqrt(np.linalg.det(q))


def random_local_unitary(n: int, rng: np.random.Generator) -> LocalUnitary:
    return LocalUnitary(tuple(random_su2(rng) for _ in range(n)))


def random_symmetric(n: int, rng: np.random.Generator) -> SymmetricPureState:
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return SymmetricPureState.from_unnormalized(c)


def random_symmetric_mixed(n: int, rng: np.random.Generator, rank: int = 3) -> DensityMatrix:
    """Random mixture of symmetric pure states (permutation invariant)."""
    weights = rng.dirichlet(np.ones(rank))
    mat = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for w in weights:
        amps = expand(random_symmetric(n, rng)).amps
        mat += w * np.outer(amps, amps.conj())
    return DensityMatrix(n, mat)
