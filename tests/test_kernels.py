"""Numeric kernels against dense oracles."""
import math

import numpy as np
import pytest

from symmlu import _kernels, states


def dense_conj_distance(angles, rho, target, n):
    g = _kernels.euler_su2(*angles)
    big = np.ones((1, 1), dtype=np.complex128)
    for _ in range(n):
        big = np.kron(big, g)
    return float(np.linalg.norm(big @ rho @ big.conj().T - target))


def test_euler_su2_is_special_unitary():
    rng = np.random.default_rng(20)
    for _ in range(25):
        a, b, g = rng.uniform(0, 2 * math.pi, size=3)
        u = _kernels.euler_su2(a, b, g)
        assert states.is_unitary(u, 1e-12)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_euler_su2_reaches_any_rotation():
    # rz(a) ry(b) rz(g) composition in matrix form
    a, b, g = 0.7, 1.1, -0.4
    want = states.rz(a) @ states.ry(b) @ states.rz(g)
    assert np.max(np.abs(_kernels.euler_su2(a, b, g) - want)) < 1e-12


def test_euler_su2_batch_matches_scalar():
    rng = np.random.default_rng(21)
    angles = rng.uniform(0, 2 * math.pi, size=(40, 3))
    batch = _kernels.euler_su2_batch(angles)
    for row, mat in zip(angles, batch):
        assert np.max(np.abs(mat - _kernels.euler_su2(*row))) < 1e-14


def test_conj_distance_batch_matches_dense_oracle():
    rng = np.random.default_rng(22)
    n = 3
    rho = states.random_symmetric_mixed(n, rng).mat
    target = states.random_symmetric_mixed(n, rng).mat
    angles = rng.uniform(0, 2 * math.pi, size=(30, 3))
    got = _kernels.conj_distance_batch(angles, rho, target, n)
    for row, d in zip(angles, got):
        assert abs(d - dense_conj_distance(row, rho, target, n)) < 1e-10


def test_conj_distance_single_matches_batch():
    rng = np.random.default_rng(23)
    n = 4
    rho = states.random_symmetric_mixed(n, rng).mat
    target = states.random_symmetric_mixed(n, rng).mat
    angles = rng.uniform(0, 2 * math.pi, size=(10, 3))
    batch = _kernels.conj_distance_batch(angles, rho, target, n)
    for row, d in zip(angles, batch):
        single = _kernels.conj_distance_single(row[0], row[1], row[2], rho, target, n)
        assert abs(d - single) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_conj_distance_single_matches_dense_oracle(n):
    rng = np.random.default_rng(28 + n)
    rho = states.random_symmetric_mixed(n, rng).mat
    target = states.random_symmetric_mixed(n, rng).mat
    for row in rng.uniform(0, 2 * math.pi, size=(5, 3)):
        single = _kernels.conj_distance_single(row[0], row[1], row[2], rho, target, n)
        assert abs(single - dense_conj_distance(row, rho, target, n)) < 1e-10


def test_polish_roots_recovers_perturbed_roots():
    rng = np.random.default_rng(24)
    roots = rng.normal(size=6) + 1j * rng.normal(size=6)
    coeffs = np.poly(roots)
    noisy = roots + 1e-5 * (rng.normal(size=6) + 1j * rng.normal(size=6))
    polished = _kernels.polish_roots(coeffs, noisy, iters=20)
    assert np.max(np.abs(np.sort_complex(polished) - np.sort_complex(roots))) < 1e-12


def test_polish_roots_never_worsens_residual():
    rng = np.random.default_rng(25)
    coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
    start = rng.normal(size=7) + 1j * rng.normal(size=7)
    polished = _kernels.polish_roots(coeffs, start, iters=5)
    before = np.abs(np.polyval(coeffs, start))
    after = np.abs(np.polyval(coeffs, polished))
    assert np.all(after <= before + 1e-15)


def test_polish_roots_empty_and_constant():
    assert _kernels.polish_roots(np.array([1.0 + 0j]), np.array([], dtype=complex)).size == 0


def test_diag_phase_residual_matches_dense_conjugation():
    rng = np.random.default_rng(26)
    n = 3
    rho = states.random_symmetric_mixed(n, rng)
    rows, cols = np.nonzero(np.abs(rho.mat) > 1e-14)
    vals = np.abs(rho.mat[rows, cols]) ** 2
    bits = ((np.arange(8)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)
    diffs = bits[rows] - bits[cols]
    for _ in range(10):
        phis = rng.uniform(0, 2 * math.pi, size=n)
        got = float(_kernels.diag_phase_residual(phis[None, :], vals, diffs)[0])
        factors = tuple(np.diag([1.0, np.exp(1j * t)]).astype(complex) for t in phis)
        u = states.LocalUnitary(factors)
        want = float(np.linalg.norm(states.apply_lu(u, rho).mat - rho.mat))
        assert abs(got - want) < 1e-10


def test_dense_chunks_hold_at_most_2_22_entries():
    # 256 rows up to n = 7, then as many 4^n matrices as fit in 2^22 entries
    assert [_kernels._chunk_rows(n) for n in (1, 4, 6, 7, 8, 9, 10, 11, 12)] == [256] * 4 + [64, 16, 4, 1, 1]
    for n in range(1, 13):
        assert _kernels._chunk_rows(n) * 4**n <= max(1 << 22, 4**n)


def test_chunk_seams_do_not_change_the_dense_distance(monkeypatch):
    rng = np.random.default_rng(24)
    rho = states.random_symmetric_mixed(4, rng).mat
    target = states.random_symmetric_mixed(4, rng).mat
    angles = rng.uniform(0, 2 * math.pi, size=(10, 3))
    whole = _kernels.conj_distance_batch(angles, rho, target, 4)
    monkeypatch.setattr(_kernels, "_CHUNK_ENTRIES", 3 * 4**4)  # 3 rows a chunk
    assert _kernels._chunk_rows(4) == 3
    assert np.array_equal(_kernels.conj_distance_batch(angles, rho, target, 4), whole)
