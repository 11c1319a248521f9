"""Hot numeric kernels with numba and pure-numpy implementations.

The numba path is used when numba imports successfully and the environment
variable SYMMLU_DISABLE_NUMBA is unset/falsy; setting SYMMLU_DISABLE_NUMBA=1
selects the pure-numpy fallback.  The paths agree to about 1e-12, not bit for
bit: _polish_roots_nb stops a root at its first non-improving Newton step,
_polish_roots_numpy keeps stepping for all iters.  benchmarks/bench_kernels.py
compares their speed.

Kernels:
  conj_distance_batch    Frobenius distance || g^{(x)n} rho g^{(x)n +} - target ||
                         for a batch of ZYZ Euler triples
  conj_distance_single   scalar version used inside line searches
  polish_roots           guarded Newton refinement of polynomial roots
  diag_phase_residual    stabilization residual of per-qubit diagonal phases
"""
from __future__ import annotations

import os

import numpy as np

__all__ = [
    "HAS_NUMBA",
    "USING_NUMBA",
    "euler_su2",
    "euler_su2_batch",
    "horner",
    "conj_distance_batch",
    "conj_distance_single",
    "polish_roots",
    "diag_phase_residual",
]

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAS_NUMBA = False

_DISABLED = os.environ.get("SYMMLU_DISABLE_NUMBA", "").strip().lower() in (
    "1",
    "true",
    "yes",
    "on",
)
USING_NUMBA = HAS_NUMBA and not _DISABLED


def euler_su2(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """SU(2) element Rz(alpha) Ry(beta) Rz(gamma).

    Rz(t) = diag(e^{-it/2}, e^{+it/2}),
    Ry(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]].
    """
    cb = np.cos(0.5 * beta)
    sb = np.sin(0.5 * beta)
    ep = np.exp(-0.5j * (alpha + gamma))
    em = np.exp(-0.5j * (alpha - gamma))
    return np.array(
        [[ep * cb, -em * sb], [np.conj(em) * sb, np.conj(ep) * cb]],
        dtype=np.complex128,
    )


def euler_su2_batch(angles: np.ndarray) -> np.ndarray:
    """Vectorized euler_su2 for an (B, 3) angle array; returns (B, 2, 2)."""
    angles = np.asarray(angles, dtype=np.float64)
    cb = np.cos(0.5 * angles[:, 1])
    sb = np.sin(0.5 * angles[:, 1])
    ep = np.exp(-0.5j * (angles[:, 0] + angles[:, 2]))
    em = np.exp(-0.5j * (angles[:, 0] - angles[:, 2]))
    out = np.empty((angles.shape[0], 2, 2), dtype=np.complex128)
    out[:, 0, 0] = ep * cb
    out[:, 0, 1] = -em * sb
    out[:, 1, 0] = np.conj(em) * sb
    out[:, 1, 1] = np.conj(ep) * cb
    return out


# ---------------------------------------------------------------------------
# numpy fallback implementations
# ---------------------------------------------------------------------------


def _tensor_power_batch_numpy(gs: np.ndarray, n: int) -> np.ndarray:
    """Batched n-fold Kronecker power of (B, 2, 2) matrices."""
    big = gs
    dim = 2
    for _ in range(n - 1):
        big = np.einsum("bij,bkl->bikjl", big, gs).reshape(-1, dim * 2, dim * 2)
        dim *= 2
    return big


def _conj_distance_batch_numpy(angles, rho, target, n, chunk=256):
    angles = np.asarray(angles, dtype=np.float64)
    out = np.empty(angles.shape[0], dtype=np.float64)
    for start in range(0, angles.shape[0], chunk):
        sl = slice(start, min(start + chunk, angles.shape[0]))
        gs = euler_su2_batch(angles[sl])
        big = _tensor_power_batch_numpy(gs, n)
        moved = big @ rho @ np.conj(np.swapaxes(big, 1, 2))
        diff = moved - target[None, :, :]
        out[sl] = np.sqrt(np.sum(np.abs(diff) ** 2, axis=(1, 2)))
    return out


def _conj_distance_single_numpy(alpha, beta, gamma, rho, target, n):
    g = euler_su2(alpha, beta, gamma)
    big = g
    for _ in range(n - 1):
        big = np.kron(big, g)
    moved = big @ rho @ big.conj().T
    return float(np.linalg.norm(moved - target))


def horner(coeffs, z):
    """Values at z of the polynomial with descending coefficients."""
    acc = np.full_like(np.asarray(z, dtype=np.complex128), coeffs[0])
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


def _polish_roots_numpy(coeffs, roots, iters=5):
    """Newton steps on each root; keep a step only if |P| decreases."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    deriv = coeffs[:-1] * np.arange(len(coeffs) - 1, 0, -1)
    z = np.array(roots, dtype=np.complex128)
    best = np.abs(horner(coeffs, z))
    for _ in range(iters):
        pz = horner(coeffs, z)
        dz = horner(deriv, z)
        step = np.where(dz != 0, pz / np.where(dz == 0, 1, dz), 0)
        cand = z - step
        val = np.abs(horner(coeffs, cand))
        better = val < best
        z = np.where(better, cand, z)
        best = np.where(better, val, best)
    return z


def _diag_phase_residual_numpy(phis, vals, diffs):
    phis = np.atleast_2d(np.asarray(phis, dtype=np.float64))
    theta = phis @ diffs.T
    res2 = (vals[None, :] * (2.0 - 2.0 * np.cos(theta))).sum(axis=1)
    return np.sqrt(np.maximum(res2, 0.0))


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if USING_NUMBA:

    @njit(cache=True)
    def _su2_nb(alpha, beta, gamma):
        cb = np.cos(0.5 * beta)
        sb = np.sin(0.5 * beta)
        ep = np.exp(-0.5j * (alpha + gamma))
        em = np.exp(-0.5j * (alpha - gamma))
        g = np.empty((2, 2), dtype=np.complex128)
        g[0, 0] = ep * cb
        g[0, 1] = -em * sb
        g[1, 0] = np.conj(em) * sb
        g[1, 1] = np.conj(ep) * cb
        return g

    @njit(cache=True)
    def _tensor_power_nb(g, n):
        dim = 2
        big = g.copy()
        for _ in range(n - 1):
            new = np.empty((dim * 2, dim * 2), dtype=np.complex128)
            for i in range(dim):
                for j in range(dim):
                    v = big[i, j]
                    new[2 * i, 2 * j] = v * g[0, 0]
                    new[2 * i, 2 * j + 1] = v * g[0, 1]
                    new[2 * i + 1, 2 * j] = v * g[1, 0]
                    new[2 * i + 1, 2 * j + 1] = v * g[1, 1]
            big = new
            dim *= 2
        return big

    @njit(cache=True)
    def _conj_distance_core_nb(alpha, beta, gamma, rho, target, n):
        g = _su2_nb(alpha, beta, gamma)
        big = _tensor_power_nb(g, n)
        moved = np.dot(np.dot(big, rho), np.conj(big).T)
        acc = 0.0
        d = rho.shape[0]
        for i in range(d):
            for j in range(d):
                dv = moved[i, j] - target[i, j]
                acc += dv.real * dv.real + dv.imag * dv.imag
        return np.sqrt(acc)

    @njit(cache=True)
    def _conj_distance_batch_nb(angles, rho, target, n):
        out = np.empty(angles.shape[0], dtype=np.float64)
        for b in range(angles.shape[0]):
            out[b] = _conj_distance_core_nb(
                angles[b, 0], angles[b, 1], angles[b, 2], rho, target, n
            )
        return out

    @njit(cache=True)
    def _horner_nb(cs, x):
        acc = cs[0] + 0.0j
        for k in range(1, cs.shape[0]):
            acc = acc * x + cs[k]
        return acc

    @njit(cache=True)
    def _polish_roots_nb(coeffs, roots, iters):
        m = coeffs.shape[0] - 1
        deriv = np.empty(m, dtype=np.complex128)
        for k in range(m):
            deriv[k] = coeffs[k] * (m - k)
        out = roots.copy()
        for r in range(out.shape[0]):
            z = out[r]
            best = abs(_horner_nb(coeffs, z))
            for _ in range(iters):
                dz = _horner_nb(deriv, z)
                if dz == 0:
                    break
                cand = z - _horner_nb(coeffs, z) / dz
                val = abs(_horner_nb(coeffs, cand))
                if val < best:
                    z = cand
                    best = val
                else:
                    break
            out[r] = z
        return out

    @njit(cache=True)
    def _diag_phase_residual_nb(phis, vals, diffs):
        B = phis.shape[0]
        M = vals.shape[0]
        n = diffs.shape[1]
        out = np.empty(B, dtype=np.float64)
        for b in range(B):
            acc = 0.0
            for m in range(M):
                theta = 0.0
                for k in range(n):
                    theta += phis[b, k] * diffs[m, k]
                acc += vals[m] * (2.0 - 2.0 * np.cos(theta))
            out[b] = np.sqrt(max(acc, 0.0))
        return out


# ---------------------------------------------------------------------------
# public dispatch
# ---------------------------------------------------------------------------


def conj_distance_batch(angles, rho, target, n):
    """|| g(a)^{(x)n} rho g(a)^{(x)n +} - target ||_F for each Euler row."""
    angles = np.ascontiguousarray(angles, dtype=np.float64)
    rho = np.ascontiguousarray(rho, dtype=np.complex128)
    target = np.ascontiguousarray(target, dtype=np.complex128)
    if USING_NUMBA:
        return _conj_distance_batch_nb(angles, rho, target, n)
    return _conj_distance_batch_numpy(angles, rho, target, n)


def conj_distance_single(alpha, beta, gamma, rho, target, n):
    if USING_NUMBA:
        return float(
            _conj_distance_core_nb(
                float(alpha),
                float(beta),
                float(gamma),
                np.ascontiguousarray(rho, dtype=np.complex128),
                np.ascontiguousarray(target, dtype=np.complex128),
                n,
            )
        )
    return _conj_distance_single_numpy(alpha, beta, gamma, rho, target, n)


def polish_roots(coeffs, roots, iters: int = 5):
    """Refine roots of the polynomial with descending coefficients."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    roots = np.ascontiguousarray(roots, dtype=np.complex128)
    if roots.size == 0 or coeffs.size < 2:
        return roots.copy()
    if USING_NUMBA:
        return _polish_roots_nb(coeffs, roots, iters)
    return _polish_roots_numpy(coeffs, roots, iters)


def diag_phase_residual(phis, vals, diffs):
    """Residual of conjugation by per-qubit diag(1, e^{i phi_k}) phases.

    vals are squared moduli of the density matrix's nonzero entries and
    diffs the per-entry bit differences (row bits minus column bits), so the
    returned value equals the Frobenius distance moved by the conjugation.
    """
    phis = np.ascontiguousarray(np.atleast_2d(phis), dtype=np.float64)
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    diffs = np.ascontiguousarray(diffs, dtype=np.float64)
    if USING_NUMBA:
        return _diag_phase_residual_nb(phis, vals, diffs)
    return _diag_phase_residual_numpy(phis, vals, diffs)
