"""Numeric kernels against dense oracles."""
import math

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmlu import _kernels, majorana, search, states


def dense_conj_distance(angles, rho, target, n):
    g = _kernels.euler_su2(*angles)
    big = np.ones((1, 1), dtype=np.complex128)
    for _ in range(n):
        big = np.kron(big, g)
    return float(np.linalg.norm(big @ rho @ big.conj().T - target))


def _scan_rows(grid, rng):
    """euler_lattice(grid) and rows that repeat alpha and (beta, gamma) in every mix, shuffled together."""
    alphas = np.concatenate([[0.0, math.pi], rng.uniform(0, 2 * math.pi, size=3)])
    pairs = np.concatenate([[[0.0, 0.0], [math.pi, 0.0]], rng.uniform(0, 2 * math.pi, size=(3, 2))])
    picks = rng.integers(0, 5, size=(20, 2))
    mixed = np.column_stack([alphas[picks[:, 0]], pairs[picks[:, 1]]])
    return rng.permutation(np.concatenate([search.euler_lattice(grid), mixed])), mixed


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
    got = _kernels.conj_distance_batch(angles, _kernels.density_factor(rho), _kernels.density_factor(target), n)
    for row, d in zip(angles, got):
        assert abs(d - dense_conj_distance(row, rho, target, n)) < 1e-10


def test_conj_distance_single_matches_batch():
    rng = np.random.default_rng(23)
    n = 4
    rho = states.random_symmetric_mixed(n, rng).mat
    target = states.random_symmetric_mixed(n, rng).mat
    angles = rng.uniform(0, 2 * math.pi, size=(10, 3))
    factor = _kernels.density_factor(rho)
    batch = _kernels.conj_distance_batch(angles, factor, _kernels.density_factor(target), n)
    for row, d in zip(angles, batch):
        single = _kernels.conj_distance_single(row[0], row[1], row[2], factor, _kernels.density_factor(target), n)
        assert abs(d - single) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_conj_distance_single_matches_dense_oracle(n):
    rng = np.random.default_rng(28 + n)
    rho = states.random_symmetric_mixed(n, rng).mat
    target = states.random_symmetric_mixed(n, rng).mat
    factor = _kernels.density_factor(rho)
    for row in rng.uniform(0, 2 * math.pi, size=(5, 3)):
        single = _kernels.conj_distance_single(row[0], row[1], row[2], factor, _kernels.density_factor(target), n)
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


def fixed_pass_polish(coeffs, roots, iters=5):
    """polish_roots without its early exit: all iters Newton passes."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    z = np.array(roots, dtype=np.complex128)
    if z.size == 0 or coeffs.size < 2:
        return z
    deriv = coeffs[:-1] * np.arange(len(coeffs) - 1, 0, -1)
    best = np.abs(_kernels.horner(coeffs, z))
    for _ in range(iters):
        pz = _kernels.horner(coeffs, z)
        dz = _kernels.horner(deriv, z)
        cand = z - np.where(dz != 0, pz / np.where(dz == 0, 1, dz), 0)
        val = np.abs(_kernels.horner(coeffs, cand))
        better = val < best
        z = np.where(better, cand, z)
        best = np.where(better, val, best)
    return z


def test_polish_roots_stops_where_the_fixed_passes_end(monkeypatch):
    rng = np.random.default_rng(27)
    cases = []
    for deg in (2, 6, 12):
        roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
        coeffs = np.poly(roots)
        for noise, iters in ((1e-5, 20), (1e-2, 5), (0.0, 8)):
            cases.append((coeffs, roots + noise * (rng.normal(size=deg) + 1j * rng.normal(size=deg)), iters))
    cases.append((rng.normal(size=8) + 1j * rng.normal(size=8), rng.normal(size=7) + 1j * rng.normal(size=7), 5))
    # every call root finding makes on the four polyhedra, each also turned
    calls = []
    original = _kernels.polish_roots

    def recording(coeffs, roots, iters=5):
        calls.append((np.array(coeffs), np.array(roots), iters))
        return original(coeffs, roots, iters)

    corners = {
        "tetrahedron": np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3),
        "octahedron": np.vstack([np.eye(3), -np.eye(3)]),
        "cube": np.array([[a, b, c] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]) / math.sqrt(3),
    }
    phi = (1 + math.sqrt(5)) / 2
    ico = [pt for a in (-1.0, 1.0) for b in (-phi, phi) for pt in ([0, a, b], [a, b, 0], [b, 0, a])]
    corners["icosahedron"] = np.array(ico) / math.sqrt(1 + phi**2)
    monkeypatch.setattr(_kernels, "polish_roots", recording)
    for pts in corners.values():
        psi = majorana.points_to_state(pts)
        for state in (psi, states.apply_diag_symmetric(states.random_su2(rng), psi)):
            majorana.majorana_points(state)
    assert len(calls) >= 8
    for coeffs, roots, iters in cases + calls:
        assert np.array_equal(original(coeffs, roots, iters), fixed_pass_polish(coeffs, roots, iters))


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
    angles, _ = _scan_rows(5, rng)  # 145 rows on 30 distinct (beta, gamma)
    factor = _kernels.density_factor(rho)
    whole = _kernels.conj_distance_batch(angles, factor, _kernels.density_factor(target), 4)
    order = rng.permutation(len(angles))
    assert np.array_equal(_kernels.conj_distance_batch(angles[order], factor, _kernels.density_factor(target), 4), whole[order])
    for rows in (1, 3, 7):  # 1, 4 and 10 pairs a chunk: seams between the table's chunks of pairs
        monkeypatch.setattr(_kernels, "_CHUNK_ENTRIES", rows * 4**4)
        assert _kernels._chunk_rows(4) == rows
        assert np.array_equal(_kernels.conj_distance_batch(angles, factor, _kernels.density_factor(target), 4), whole)


def _full_rank_density(n, rng):
    m = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("rank", [1, 3, "full"])
def test_factor_kernel_matches_the_kronecker_formula(rank, monkeypatch):
    rng = np.random.default_rng(40)
    n = 4
    if rank == "full":
        rho = _full_rank_density(n, rng)
    elif rank == 1:
        rho = states.to_density(states.random_symmetric(n, rng)).mat
    else:
        rho = states.random_symmetric_mixed(n, rng, rank=rank).mat
    target = states.random_symmetric_mixed(n, rng).mat
    factor = _kernels.density_factor(rho)
    assert factor.shape == (1 << n, 1 << n if rank == "full" else rank)
    assert np.max(np.abs(factor @ factor.conj().T - rho)) < 1e-14
    angles = rng.uniform(0, 2 * math.pi, size=(10, 3))
    angles[0] = 0.0
    angles[1, 1] = 0.0
    want = np.array([dense_conj_distance(row, rho, target, n) for row in angles])
    whole = _kernels.conj_distance_batch(angles, factor, _kernels.density_factor(target), n)
    assert np.max(np.abs(whole - want)) < 2e-15
    monkeypatch.setattr(_kernels, "_CHUNK_ENTRIES", 3 * 4**n)  # 3 rows a chunk: seams after rows 3, 6 and 9
    assert np.array_equal(_kernels.conj_distance_batch(angles, factor, _kernels.density_factor(target), n), whole)
    f2, _, _ = _kernels.conj_gauss_newton(_kernels.euler_su2_batch(angles), factor, _kernels.density_factor(target), n)
    assert np.max(np.abs(np.sqrt(f2) - want)) < 2e-15


def _density_of_rank(rank, n, rng, symmetric=True):
    if rank == "full":
        return _full_rank_density(n, rng)
    if not symmetric:
        m = rng.normal(size=(1 << n, rank)) + 1j * rng.normal(size=(1 << n, rank))
        rho = m @ m.conj().T
        return rho / np.trace(rho).real
    if rank == 1:
        return states.to_density(states.random_symmetric(n, rng)).mat
    return states.random_symmetric_mixed(n, rng, rank=rank).mat


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    n=st.integers(3, 6),
    rho_rank=st.sampled_from([1, 2, "full"]),
    target_rank=st.sampled_from([1, 2, "full"]),
    rotated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_distance_equals_the_kronecker_formula(n, rho_rank, target_rank, rotated, seed):
    rng = np.random.default_rng(seed)
    rho = _density_of_rank(rho_rank, n, rng)
    angles = rng.uniform(0, 2 * math.pi, size=(6, 3))
    if rotated:
        # the first row carries rho onto the target: D there is roundoff
        big = np.ones((1, 1), dtype=np.complex128)
        for _ in range(n):
            big = np.kron(big, _kernels.euler_su2(*angles[0]))
        target = big @ rho @ big.conj().T
    else:
        target = _density_of_rank(target_rank, n, rng)
    want = np.array([dense_conj_distance(row, rho, target, n) for row in angles])
    factor, target_factor = _kernels.density_factor(rho), _kernels.density_factor(target)
    got = _kernels.conj_distance_batch(angles, factor, target_factor, n)
    f2, _, _ = _kernels.conj_gauss_newton(_kernels.euler_su2_batch(angles), factor, target_factor, n)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.max(np.abs(np.sqrt(f2) - want)) <= 1e-14
    if rotated:
        assert max(want[0], got[0]) < 1e-12


def test_low_rank_kernels_form_no_square_temporaries():
    rng = np.random.default_rng(46)
    n = 8
    rows = _kernels._chunk_rows(n)
    factor = _kernels.density_factor(states.to_density(states.random_symmetric(n, rng)).mat)
    target_factor = _kernels.density_factor(states.random_symmetric_mixed(n, rng, rank=2).mat)
    angles = rng.uniform(0, 2 * math.pi, size=(rows, 3))
    gs = _kernels.euler_su2_batch(angles)
    square = rows * 4**n * 16  # bytes of one (rows, 2^n, 2^n) complex array
    tracemalloc.start()
    try:
        _kernels.conj_distance_batch(angles, factor, target_factor, n)
        _kernels.conj_gauss_newton(gs, factor, target_factor, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < square / 8


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    rho_rank=st.sampled_from([1, 2, "full"]),
    target_rank=st.sampled_from([1, 2, "full"]),
    grid=st.integers(4, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_scan_shared_turns_equal_the_kronecker_formula(n, rho_rank, target_rank, grid, seed):
    # the scan forms (Ry(beta) Rz(gamma))^{(x)n} V once per distinct (beta, gamma) and applies
    # Rz(alpha)^{(x)n} as a phase: each row must still be the dense formula's value
    rng = np.random.default_rng(seed)
    rho, target = _density_of_rank(rho_rank, n, rng), _density_of_rank(target_rank, n, rng)
    angles, mixed = _scan_rows(grid, rng)
    got = _kernels.conj_distance_batch(angles, _kernels.density_factor(rho), _kernels.density_factor(target), n)
    assert got.shape == (len(angles),)
    check = np.concatenate([np.flatnonzero((angles[:, None] == mixed[None]).all(axis=2).any(axis=1)), rng.choice(len(angles), 8)])
    want = np.array([dense_conj_distance(angles[i], rho, target, n) for i in check])
    # the roundoff of both forms grows with the n one-qubit turns; the dense one reaches 7e-15 at n = 6
    scale = n * max(np.linalg.norm(rho), np.linalg.norm(target))
    assert np.max(np.abs(got[check] - want)) <= 2e-15 * scale


def test_scan_never_builds_the_whole_table_of_turned_factors(monkeypatch):
    rng = np.random.default_rng(48)
    n = 6
    factor = _kernels.density_factor(_full_rank_density(n, rng))  # r = 2^n
    target_factor = _kernels.density_factor(states.to_density(states.random_symmetric(n, rng)).mat)
    angles = search.euler_lattice(16)
    table = 16 * 16 * factor.size * 16  # bytes of every distinct (beta, gamma)'s turned factor
    monkeypatch.setattr(_kernels, "_CHUNK_ENTRIES", 2 * 4**n)  # 1 pair a chunk: its factor, Y and X fit 2 x 4^n
    tracemalloc.start()
    try:
        _kernels.conj_distance_batch(angles, factor, target_factor, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table / 16


@pytest.mark.parametrize("n", [1, 3, 5])
def test_spin_components_are_the_dense_spin_operators(n):
    rng = np.random.default_rng(49)
    a = rng.normal(size=(4, 1 << n, 3)) + 1j * rng.normal(size=(4, 1 << n, 3))
    got = _kernels._spin_components(a, n)
    per_qubit = _kernels._qubit_spin_components(a, n).reshape((n, 3) + a.shape)
    for c, pauli in enumerate((states.PAULI_X, states.PAULI_Y, states.PAULI_Z)):
        spin = np.zeros((1 << n, 1 << n), dtype=np.complex128)
        for k in range(n):
            term = np.ones((1, 1))
            for j in range(n):
                term = np.kron(term, pauli if j == k else np.eye(2))
            spin += 0.5 * term
            # the one-qubit generator sigma_c^(k) / 2 of per-qubit factors
            assert np.max(np.abs(per_qubit[k, c] - 0.5 * term @ a)) <= 1e-15
        assert np.max(np.abs(got[c] - spin @ a)) <= 1e-14


def test_density_factor_keeps_the_eigenvalues_above_the_rank_cutoff():
    rng = np.random.default_rng(41)
    rho = states.to_density(states.ghz(5)).mat  # eigenvalues 1 and roundoff
    assert _kernels.density_factor(rho).shape == (32, 1)
    assert np.linalg.matrix_rank(rho) == 1
    mixed = states.random_symmetric_mixed(3, rng, rank=2).mat
    assert _kernels.density_factor(mixed).shape == (8, np.linalg.matrix_rank(mixed))


def _central_differences(f, x, step, dim=3, h=1e-6):
    return np.stack([(f(step(x, h * e)) - f(step(x, -h * e))) / (2 * h) for e in np.eye(dim)], axis=1)


def _kron_all(factors):
    big = np.ones((1, 1), dtype=np.complex128)
    for f in factors:
        big = np.kron(big, f)
    return big


def _check_conj_gauss_newton(gs, rho, target, n, dim):
    """f2, grad and gn of conj_gauss_newton at gs against central differences and the dense Jacobian."""
    factor, target_factor = _kernels.density_factor(rho), _kernels.density_factor(target)
    f2, grad, gn = _kernels.conj_gauss_newton(gs, factor, target_factor, n)
    assert grad.shape == (len(gs), dim) and gn.shape == (len(gs), dim, dim)

    def left(g, e):
        return _kernels.su2_left_step(g, np.broadcast_to(e, (len(g), dim)))

    def moved(g):  # dense (g_0 (x) ... (x) g_{n-1}) rho (...)^+, flattened
        factors = [[u] * n for u in g] if g.ndim == 3 else g
        return np.array([(_kron_all(f) @ rho @ _kron_all(f).conj().T).ravel() for f in factors])

    assert np.max(np.abs(f2 - np.sum(np.abs(moved(gs) - target.ravel()) ** 2, axis=1))) < 1e-13
    fd = _central_differences(lambda g: _kernels.conj_gauss_newton(g, factor, target_factor, n)[0], gs, left, dim)
    assert np.max(np.abs(fd - 2 * grad)) < 1e-7
    jac = np.stack([(moved(left(gs, 1e-6 * e)) - moved(left(gs, -1e-6 * e))) / 2e-6 for e in np.eye(dim)], axis=2)
    assert np.max(np.abs(np.real(np.einsum("bmc,bmd->bcd", jac.conj(), jac)) - gn)) < 1e-7


@pytest.mark.parametrize("rank", [1, 3])
def test_conj_gauss_newton_derivatives_match_finite_differences(rank):
    rng = np.random.default_rng(42 + rank)
    n = 3
    rho = states.random_symmetric_mixed(n, rng, rank=rank).mat
    target = states.random_symmetric_mixed(n, rng).mat
    gs = _kernels.euler_su2_batch(rng.uniform(0, 2 * math.pi, size=(6, 3)))
    _check_conj_gauss_newton(gs, rho, target, n, 3)
    # one factor per qubit, on 2-qubit states that are not permutation invariant:
    # a (B, 2, 2, 2) stack and 6 step coordinates
    rho2, target2 = _density_of_rank(rank, 2, rng, symmetric=False), _full_rank_density(2, rng)
    pairs = _kernels.euler_su2_batch(rng.uniform(0, 2 * math.pi, size=(12, 3))).reshape(6, 2, 2, 2)
    _check_conj_gauss_newton(pairs, rho2, target2, 2, 6)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("per_qubit", [False, True])
def test_conj_gauss_newton_of_an_empty_stack_is_empty(n, per_qubit):
    # zero rows once failed to reshape with a -1 axis; conj_distance_batch already answers them with an empty array
    rng = np.random.default_rng(60 + n)
    factor = _kernels.density_factor(states.random_symmetric_mixed(n, rng, rank=2).mat)
    target_factor = _kernels.density_factor(states.random_symmetric_mixed(n, rng).mat)
    gs, dim = (np.zeros((0, n, 2, 2)), 3 * n) if per_qubit else (np.zeros((0, 2, 2)), 3)
    f2, grad, gn = _kernels.conj_gauss_newton(gs, factor, target_factor, n)
    assert (f2.shape, grad.shape, gn.shape) == ((0,), (0, dim), (0, dim, dim))
    assert f2.dtype == grad.dtype == gn.dtype == np.float64
    assert _kernels.conj_distance_batch(np.zeros((0, 3)), factor, target_factor, n).shape == (0,)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_per_qubit_factors_act_as_the_kronecker_product(n):
    rng = np.random.default_rng(50 + n)
    ops = _kernels.euler_su2_batch(rng.uniform(0, 2 * math.pi, size=(5 * n, 3))).reshape(5, n, 2, 2)
    a = rng.normal(size=(1, 1 << n, 3)) + 1j * rng.normal(size=(1, 1 << n, 3))
    got = _kernels._on_every_qubit(ops, a, n)
    for b in range(5):
        assert np.max(np.abs(got[b] - _kron_all(ops[b]) @ a[0])) <= 1e-14
    # a tied stack is the per-qubit stack with every factor equal
    tied = ops[:, 0]
    assert np.array_equal(_kernels._on_every_qubit(tied, a, n), _kernels._on_every_qubit(np.repeat(tied[:, None], n, axis=1), a, n))


def test_su2_left_step_is_the_exponential():
    from scipy.linalg import expm

    rng = np.random.default_rng(44)
    gs = _kernels.euler_su2_batch(rng.uniform(0, 2 * math.pi, size=(5, 3)))
    deltas = rng.normal(size=(5, 3))
    deltas[0] = 0.0
    deltas[1] = [1e-9, 0.0, -2e-9]
    got = _kernels.su2_left_step(gs, deltas)
    paulis = (states.PAULI_X, states.PAULI_Y, states.PAULI_Z)
    for g, d, u in zip(gs, deltas, got):
        assert np.max(np.abs(u - expm(-0.5j * sum(c * p for c, p in zip(d, paulis))) @ g)) < 1e-14
    # per-qubit stacks (B, n, 2, 2) step factor k by columns 3k .. 3k + 2 of (B, 3n) deltas
    stack = _kernels.euler_su2_batch(rng.uniform(0, 2 * math.pi, size=(12, 3))).reshape(4, 3, 2, 2)
    steps = rng.normal(size=(4, 9))
    steps[0, 3:6] = 0.0
    moved = _kernels.su2_left_step(stack, steps)
    assert moved.shape == stack.shape
    assert np.array_equal(moved[0, 1], stack[0, 1])
    assert np.array_equal(moved.reshape(12, 2, 2), _kernels.su2_left_step(stack.reshape(12, 2, 2), steps.reshape(12, 3)))
    for b in range(4):
        for k in range(3):
            step = expm(-0.5j * sum(c * p for c, p in zip(steps[b, 3 * k : 3 * k + 3], paulis)))
            assert np.max(np.abs(moved[b, k] - step @ stack[b, k])) < 1e-14


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    rank=st.sampled_from([1, 2, "full"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rows_on_both_sides_of_the_rescore_cutoff_keep_the_dense_accuracy(n, rank, seed):
    # the target is rho turned by a small g: rows at g and near it fall below the cutoff
    # and are scored again, rows farther out keep the weight-class sum
    rng = np.random.default_rng(seed)
    rho = _density_of_rank(rank, n, rng)
    turn = 0.3 * rng.normal(size=3)
    big = np.ones((1, 1), dtype=np.complex128)
    for _ in range(n):
        big = np.kron(big, _kernels.euler_su2(*turn))
    target = big @ rho @ big.conj().T
    steps = 10.0 ** rng.uniform(-6, 0.5, size=(40, 1)) * rng.normal(size=(40, 3))
    angles = np.concatenate([turn[None], turn + steps, search.euler_lattice(4)])
    got = _kernels.conj_distance_batch(angles, _kernels.density_factor(rho), _kernels.density_factor(target), n)
    want = np.array([dense_conj_distance(row, rho, target, n) for row in angles])
    below = want**2 < _kernels._RESCORE * (np.linalg.norm(rho) ** 2 + np.linalg.norm(target) ** 2)
    assert below.any() and not below.all()
    assert np.max(np.abs(got - want)) <= 2e-15 * n * max(np.linalg.norm(rho), np.linalg.norm(target))
    assert max(got[0], want[0]) < 1e-12


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    n=st.integers(1, 6),
    rank=st.sampled_from([1, 2, "full"]),
    grid=st.integers(4, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_row_reads_the_entry_a_single_point_scores(n, rank, grid, seed):
    # a batch is scored as one (beta, gamma) x alpha table and each row reads its entry, so a
    # row's bits do not depend on the batch: not on duplicates, shared angles or re-scored entries
    rng = np.random.default_rng(seed)
    rho = _density_of_rank(rank, n, rng)
    angles, _ = _scan_rows(grid, rng)
    angles = rng.permutation(np.concatenate([angles, angles[rng.integers(0, len(angles), size=10)]]))
    factor = _kernels.density_factor(rho)
    turned = _kernels._on_every_qubit(_kernels.euler_su2_batch(rng.uniform(0, 2 * math.pi, size=(1, 3))), factor[None], n)[0]
    for target_factor in (factor, turned):
        got = _kernels.conj_distance_batch(angles, factor, target_factor, n)
        single = [_kernels.conj_distance_single(*row, factor, target_factor, n) for row in angles]
        assert np.array_equal(got, single)
    # the self target's identity rows, and any stabilizer rows, lie below the cutoff and are scored again
    self_scan = _kernels.conj_distance_batch(angles, factor, factor, n)
    assert np.any(self_scan**2 < _kernels._RESCORE * 2.0 * np.linalg.norm(rho) ** 2)


def _spy_on_the_residual(monkeypatch):
    """Stacks that _kernels._squared_residual receives, recorded as it is called."""
    sent = []
    original = _kernels._squared_residual

    def spy(a, q, m):
        sent.append(a.copy())
        return original(a, q, m)

    monkeypatch.setattr(_kernels, "_squared_residual", spy)
    return sent


def test_generic_lattice_rows_skip_the_2n_residual(monkeypatch):
    # phi is psi turned by a g at the centre of a grid-12 lattice cell, so no lattice
    # row comes within the cutoff of it, and every row keeps the weight-class sum
    rng = np.random.default_rng(60)
    h = 2 * math.pi / 12
    g = _kernels.euler_su2(3.5 * h, 5.5 * math.pi / 11, 7.5 * h)
    sent = _spy_on_the_residual(monkeypatch)
    for _ in range(5):
        psi = states.random_symmetric(5, rng)
        vec, target = (states.expand(s).amps[:, None] for s in (psi, states.apply_diag_symmetric(g, psi)))
        dists = _kernels.conj_distance_batch(search.euler_lattice(12), vec, target, 5)
        assert dists.min() ** 2 >= _kernels._RESCORE * 2.0
    assert sent == []


def test_a_self_scan_rescores_only_rows_below_the_cutoff(monkeypatch):
    corners = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    vec = states.expand(majorana.points_to_state(corners)).amps[:, None]
    sent = _spy_on_the_residual(monkeypatch)
    dists = _kernels.conj_distance_batch(search.euler_lattice(12), vec, vec, 4)
    rows = np.concatenate(sent)
    scale = 2.0 * np.sum(np.abs(vec) ** 2) ** 2  # ||rho||^2 + ||T||^2
    below = dists**2 < _kernels._RESCORE * scale
    assert len(rows) == np.count_nonzero(below) < len(dists) // 10
    q, m = _kernels._target_split(vec)
    for a in rows:
        d2 = np.sum(np.abs(a @ a.conj().T - (q * m) @ q.conj().T) ** 2)
        assert d2 < _kernels._RESCORE * scale
    # the identity row, g = 1: the turned factor is the factor itself, bit for bit
    assert any(np.array_equal(a, vec) for a in rows)
    assert dists[0] < 1e-12
