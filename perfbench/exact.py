"""Input construction and answer checks that do not go through symmlu.

The benchmark builds rotated inputs and checks returned maps with the
routines below, so a change to a library layer can neither alter the inputs
nor vouch for its own answers.

A symmetric n-qubit state with Dicke coefficients c_k is the binary form
P(x, y) = sum_k c_k sqrt(C(n, k)) x^(n-k) y^k.  A product of spinors
(a_i, b_i) is the form prod_i (a_i x + b_i y), and g^(x)n substitutes
x -> g00 x + g10 y, y -> g01 x + g11 y.  Forms are stored dehomogenised,
as ascending coefficient arrays in z = y / x.
"""
from __future__ import annotations

import math

import numpy as np


def _binom_sqrt(n: int) -> np.ndarray:
    return np.sqrt([float(math.comb(n, k)) for k in range(n + 1)])


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) element from a uniform unit quaternion."""
    a, b, c, d = rng.normal(size=4)
    s = math.sqrt(a * a + b * b + c * c + d * d)
    a, b, c, d = a / s, b / s, c / s, d / s
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_points(count: int, rng: np.random.Generator, min_gap: float = 0.5) -> np.ndarray:
    """Uniform unit vectors, pairwise at least min_gap apart and not antipodal."""
    pts: list = []
    while len(pts) < count:
        p = unit(rng.normal(size=3))
        if all(np.linalg.norm(p - q) > min_gap and np.linalg.norm(p + q) > min_gap for q in pts):
            pts.append(p)
    return np.array(pts)


def spinor(p) -> np.ndarray:
    """Unit spinor with Bloch vector p, in the library's phase convention."""
    x, y, z = p
    a = math.sqrt(max(0.0, (1.0 + z) / 2.0))
    if a < 1e-12:
        return np.array([0.0, 1.0], dtype=np.complex128)
    return np.array([a, complex(x, y) / (2.0 * a)], dtype=np.complex128)


def coeffs_from_points(points, mults=None) -> np.ndarray:
    """Normalised Dicke coefficients of the symmetrised product of spinors."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    mults = np.ones(len(points), dtype=int) if mults is None else mults
    poly = np.ones(1, dtype=np.complex128)
    for p, m in zip(points, mults):
        for _ in range(int(m)):
            poly = np.convolve(poly, spinor(unit(p)))
    c = poly / _binom_sqrt(len(poly) - 1)
    return c / np.linalg.norm(c)


def rotate_coeffs(g: np.ndarray, coeffs) -> np.ndarray:
    """Dicke coefficients of g^(x)n |psi>, by substitution into the form."""
    c = np.asarray(coeffs, dtype=np.complex128)
    n = len(c) - 1
    sq = _binom_sqrt(n)
    xs = [np.ones(1, dtype=np.complex128)]  # (g00 + g10 z)^m
    ys = [np.ones(1, dtype=np.complex128)]  # (g01 + g11 z)^m
    for _ in range(n):
        xs.append(np.convolve(xs[-1], [g[0, 0], g[1, 0]]))
        ys.append(np.convolve(ys[-1], [g[0, 1], g[1, 1]]))
    out = np.zeros(n + 1, dtype=np.complex128)
    for k in range(n + 1):
        if c[k] != 0:
            out += c[k] * sq[k] * np.convolve(xs[n - k], ys[k])
    return out / sq


def phase_distance(u, v) -> float:
    """||u - e^{ia} v|| at the best phase a."""
    u = np.asarray(u).ravel()
    v = np.asarray(v).ravel()
    ip = np.vdot(v, u)
    if abs(ip) > 0:
        v = v * (ip / abs(ip))
    return float(np.linalg.norm(u - v))


def map_error(g, psi_coeffs, phi_coeffs) -> float:
    """Distance from g^(x)n psi to phi, up to a global phase."""
    return phase_distance(rotate_coeffs(np.asarray(g), psi_coeffs), phi_coeffs)


def kron_power(g: np.ndarray, n: int) -> np.ndarray:
    big = g
    for _ in range(n - 1):
        big = np.kron(big, g)
    return big


def conjugate(g: np.ndarray, mat: np.ndarray, n: int) -> np.ndarray:
    """g^(x)n mat g^(x)n+."""
    big = kron_power(np.asarray(g), n)
    return big @ mat @ big.conj().T


def reduced_spectrum(mat: np.ndarray, n: int) -> np.ndarray:
    """Sorted eigenvalues of the first qubit's reduced density matrix."""
    half = 1 << (n - 1)
    red = np.einsum("iaja->ij", mat.reshape(2, half, 2, half))
    return np.sort(np.linalg.eigvalsh(red))


def product_kron(factors) -> np.ndarray:
    big = np.ones((1, 1), dtype=np.complex128)
    for f in factors:
        big = np.kron(big, f)
    return big


def ghz_stabilizer(phases, flip: bool) -> list:
    """Factors diag(1, e^{i t_k}) with sum t_k = 0, after an X layer if flip.

    Every such product fixes a|0..0> + b|1..1> up to a global phase (with
    flip only when |a| = |b|).
    """
    ts = list(phases) + [-float(np.sum(phases))]
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    out = []
    for t in ts:
        f = np.diag([1.0, np.exp(1j * t)]).astype(np.complex128)
        out.append(f @ x if flip else f)
    return out


def stabilizer_residual(factors, mat: np.ndarray) -> float:
    """||U rho U+ - rho|| for U the tensor product of the factors."""
    big = product_kron(factors)
    return float(np.linalg.norm(big @ mat @ big.conj().T - mat))


TETRAHEDRON = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
OCTAHEDRON = np.array(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float
)
CUBE = np.array(
    [[x, y, z] for x in (1, -1) for y in (1, -1) for z in (1, -1)], dtype=float
)
_GOLD = (1 + math.sqrt(5)) / 2
ICOSAHEDRON = np.array(
    [[0, s1, s2 * _GOLD] for s1 in (1, -1) for s2 in (1, -1)]
    + [[s1, s2 * _GOLD, 0] for s1 in (1, -1) for s2 in (1, -1)]
    + [[s2 * _GOLD, 0, s1] for s1 in (1, -1) for s2 in (1, -1)],
    dtype=float,
)
