"""Hot numeric kernels, one numpy body each.

Kernels:
  euler_su2_batch        SU(2) elements of a batch of ZYZ Euler triples
  conj_distance_batch    Frobenius distance || g^{(x)n} rho g^{(x)n +} - target ||
                         for a batch of ZYZ Euler triples, on dense 2^n
                         matrices: the oracle form, used by verify
  polish_roots           guarded Newton refinement of polynomial roots
  diag_phase_residual    stabilization residual of per-qubit diagonal phases

euler_su2 and conj_distance_single are the one-point forms, computed by the
batch bodies on a one-row array.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "euler_su2",
    "euler_su2_batch",
    "horner",
    "conj_distance_batch",
    "conj_distance_single",
    "polish_roots",
    "diag_phase_residual",
]

_CHUNK_ROWS, _CHUNK_ENTRIES = 256, 1 << 22  # dense path: rows per chunk, complex entries per temporary


def _chunk_rows(n: int) -> int:
    """Euler rows per chunk of the dense path at n qubits.

    At most 256, and at least 1; otherwise few enough that each (rows, 2^n,
    2^n) temporary of a chunk holds at most 2^22 complex entries (64 MiB):
    256 rows up to n = 7, 4 at n = 10.
    """
    return max(1, min(_CHUNK_ROWS, _CHUNK_ENTRIES >> (2 * n)))


def euler_su2_batch(angles: np.ndarray) -> np.ndarray:
    """SU(2) elements Rz(alpha) Ry(beta) Rz(gamma) of (B, 3) angle rows; (B, 2, 2).

    Rz(t) = diag(e^{-it/2}, e^{+it/2}),
    Ry(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]].
    """
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


def euler_su2(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """SU(2) element Rz(alpha) Ry(beta) Rz(gamma); see euler_su2_batch."""
    return euler_su2_batch(np.array([[alpha, beta, gamma]], dtype=np.float64))[0]


def _tensor_power_batch(gs: np.ndarray, n: int) -> np.ndarray:
    """Batched n-fold Kronecker power of (B, 2, 2) matrices."""
    big = gs
    dim = 2
    for _ in range(n - 1):
        big = np.einsum("bij,bkl->bikjl", big, gs).reshape(-1, dim * 2, dim * 2)
        dim *= 2
    return big


def _distance(reps: np.ndarray, rho: np.ndarray, target: np.ndarray) -> np.ndarray:
    """|| R rho R^+ - target ||_F for each R of one chunk; its buffers die when it returns."""
    moved = reps @ rho @ np.conj(np.swapaxes(reps, 1, 2))
    sq = np.abs(moved - target[None, :, :])
    sq *= sq
    return np.sqrt(np.sum(sq, axis=(1, 2)))


def _conj_distance(angles: np.ndarray, rho, target, n: int) -> np.ndarray:
    """D on the dense 2^n matrices, _chunk_rows(n) Euler rows at a time, behind both public names.

    Kept apart from them so a one-point call is not also counted as a batch
    call by wrappers installed on the public names.
    """
    rho = np.ascontiguousarray(rho, dtype=np.complex128)
    target = np.ascontiguousarray(target, dtype=np.complex128)
    out = np.empty(angles.shape[0], dtype=np.float64)
    rows = _chunk_rows(n)
    for start in range(0, angles.shape[0], rows):
        sl = slice(start, start + rows)
        out[sl] = _distance(_tensor_power_batch(euler_su2_batch(angles[sl]), n), rho, target)
    return out


def conj_distance_batch(angles, rho, target, n):
    """|| g(a)^{(x)n} rho g(a)^{(x)n +} - target ||_F for each Euler row."""
    return _conj_distance(np.asarray(angles, dtype=np.float64), rho, target, n)


def conj_distance_single(alpha, beta, gamma, rho, target, n):
    """conj_distance_batch of the single Euler triple (alpha, beta, gamma)."""
    angles = np.array([[alpha, beta, gamma]], dtype=np.float64)
    return float(_conj_distance(angles, rho, target, n)[0])


def horner(coeffs, z):
    """Values at z of the polynomial with descending coefficients."""
    acc = np.full_like(np.asarray(z, dtype=np.complex128), coeffs[0])
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


def polish_roots(coeffs, roots, iters: int = 5):
    """Refine roots of the polynomial with descending coefficients.

    Newton steps on each root; a step is kept only if |P| decreases.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    z = np.array(roots, dtype=np.complex128)
    if z.size == 0 or coeffs.size < 2:
        return z
    deriv = coeffs[:-1] * np.arange(len(coeffs) - 1, 0, -1)
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


def diag_phase_residual(phis, vals, diffs):
    """Residual of conjugation by per-qubit diag(1, e^{i phi_k}) phases.

    vals are squared moduli of the density matrix's nonzero entries and
    diffs the per-entry bit differences (row bits minus column bits), so the
    returned value equals the Frobenius distance moved by the conjugation.
    The angles are summed qubit by qubit in a fixed order, so a row's value
    does not depend on the other rows of the batch.
    """
    phis = np.atleast_2d(np.asarray(phis, dtype=np.float64))
    vals = np.asarray(vals, dtype=np.float64)
    diffs = np.asarray(diffs, dtype=np.float64)
    theta = phis[:, :1] * diffs[None, :, 0]
    for k in range(1, phis.shape[1]):
        theta += phis[:, k : k + 1] * diffs[None, :, k]
    res2 = (vals[None, :] * (2.0 - 2.0 * np.cos(theta))).sum(axis=1)
    return np.sqrt(np.maximum(res2, 0.0))
