"""State containers and operations against explicit full-space oracles."""
import itertools
import functools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from symmlu import states
from symmlu.errors import DomainError, NormalizationError


def brute_symmetrize(vectors):
    """Full 2^n symmetrization by summing over all qubit orderings."""
    n = len(vectors)
    acc = np.zeros(2**n, dtype=np.complex128)
    for perm in itertools.permutations(range(n)):
        prod = np.ones(1, dtype=np.complex128)
        for q in perm:
            prod = np.kron(prod, np.asarray(vectors[q], dtype=np.complex128))
        acc += prod
    return acc / np.linalg.norm(acc)


def brute_dicke_vector(n, k):
    vec = np.zeros(2**n, dtype=np.complex128)
    for idx in range(2**n):
        if bin(idx).count("1") == k:
            vec[idx] = 1.0
    return vec / np.linalg.norm(vec)


def brute_partial_trace_single(mat, n, keep):
    """2x2 reduction of qubit `keep` by direct index summation."""
    out = np.zeros((2, 2), dtype=np.complex128)
    shift = n - 1 - keep
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            if (i & ~(1 << shift)) == (j & ~(1 << shift)):
                out[(i >> shift) & 1, (j >> shift) & 1] += mat[i, j]
    return out


def test_weight_and_complement():
    assert states.weight(0) == 0
    assert states.weight(0b1011) == 3
    assert states.complement(0, 3) == 0b111
    assert states.complement(0b101, 3) == 0b010


def _expand_loop(state):
    """The 2^n vector string by string: c_k / sqrt(C(n, k)) at each weight-k string."""
    n = state.n
    amps = np.zeros(1 << n, dtype=np.complex128)
    scale = np.array([1.0 / math.sqrt(math.comb(n, k)) for k in range(n + 1)])
    for idx in range(1 << n):
        k = states.weight(idx)
        amps[idx] = state.coeffs[k] * scale[k]
    return states.PureState(n, amps).amps


def _spin_basis_loop(n):
    """spin_blocks(n).basis column by column, each string's weight counted on its own."""
    cols = []
    for k, size in enumerate(range(n + 1, 0, -2)):
        pairs = functools.reduce(np.kron, [states.singlet().amps.real] * k, np.ones(1))
        ones = np.array([states.weight(x) for x in range(1 << (size - 1))])
        cols += [np.kron(pairs, (ones == i) / math.sqrt(math.comb(size - 1, i))) for i in range(size)]
    return np.column_stack(cols)


@pytest.mark.parametrize("n", range(1, 13))
def test_basis_table_gives_the_string_loops_bit_for_bit(n):
    bits, weights = states.basis_table(n)
    assert bits is states.basis_table(n)[0] and not bits.flags.writeable and not weights.flags.writeable
    assert bits.tolist() == [[int(b) for b in format(x, f"0{n}b")] for x in range(1 << n)]  # qubit 0 leads
    assert weights.tolist() == [states.weight(x) for x in range(1 << n)]
    assert states.binomial_roots(n).tolist() == [math.sqrt(math.comb(n, k)) for k in range(n + 1)]
    rng = np.random.default_rng(640 + n)
    sparse = rng.normal(size=n + 1) * (np.arange(n + 1) % 2) + 0j
    sparse[0] = -1.0
    signed_zeros = np.array([complex(-0.0, x) if k % 3 else complex(x, -0.0) for k, x in enumerate(rng.normal(size=n + 1))])
    for c in (rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1), sparse, signed_zeros):
        psi = states.SymmetricPureState.from_unnormalized(c)
        assert states.expand(psi).amps.tobytes() == _expand_loop(psi).tobytes()
    assert states.spin_blocks(n).basis.tobytes() == _spin_basis_loop(n).tobytes()


def test_dicke_expansion_matches_bitstring_oracle():
    for n in range(1, 7):
        for k in range(n + 1):
            vec = states.expand(states.dicke(n, k)).amps
            assert np.allclose(vec, brute_dicke_vector(n, k), atol=1e-12)


def test_dicke_rejects_bad_k():
    with pytest.raises(DomainError):
        states.dicke(3, 4)
    with pytest.raises(DomainError):
        states.dicke(3, -1)


def test_ghz_balanced_and_weighted():
    psi = states.ghz(3)
    assert np.allclose(psi.coeffs, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
    psi2 = states.ghz(4, 0.8, 0.6)
    assert abs(psi2.coeffs[0] - 0.8) < 1e-12
    assert abs(psi2.coeffs[4] - 0.6) < 1e-12


def test_singlet_is_antisymmetric_vector():
    vec = states.singlet().amps
    assert abs(vec[1] + vec[2]) < 1e-15
    assert abs(vec[0]) < 1e-15 and abs(vec[3]) < 1e-15
    rho = states.to_density(states.singlet())
    assert states.is_permutation_invariant(rho)


def test_symmetrize_matches_permutation_sum():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3, 4, 5):
        vecs = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(n)]
        got = states.expand(states.symmetrize(vecs)).amps
        want = brute_symmetrize(vecs)
        assert states.phase_distance(got, want) < 1e-12


def _symmetrize_loop(vectors):
    """symmetrize with the norms sqrt(C(n, k)) taken from one list of integers."""
    vs = [np.asarray(v, dtype=np.complex128).ravel() for v in vectors]
    poly = np.ones(1, dtype=np.complex128)
    for v in vs:
        poly = np.convolve(poly, v / np.linalg.norm(v))
    return states.SymmetricPureState.from_unnormalized(poly / np.sqrt([math.comb(len(vs), k) for k in range(len(vs) + 1)]))


def test_symmetrize_is_the_integer_list_form_bit_for_bit():
    rng = np.random.default_rng(86)
    for n in list(range(1, 31)) + [48, 66]:
        spread = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        repeated = np.repeat(spread[: 1 + n // 3], 3, axis=0)[:n]  # points of multiplicity 3
        poles = np.array([[1.0, 0.0]] * (n // 2) + [[0.0, 1.0]] * (n - n // 2))
        for vecs in (spread, repeated, poles):
            assert states.symmetrize(vecs).coeffs.tobytes() == _symmetrize_loop(vecs).coeffs.tobytes()


def test_symmetrize_holds_binomials_past_int64():
    # C(100, 50) ~ 1e29 is no int64: np.sqrt of the list of integers raised TypeError from n = 67
    psi = states.symmetrize([[1.0, 0.0]] * 50 + [[0.0, 1.0]] * 50)
    assert np.array_equal(psi.coeffs, states.dicke(100, 50).coeffs)


def test_symmetrize_rejects_zero_vector():
    with pytest.raises(DomainError):
        states.symmetrize([np.array([0.0, 0.0]), np.array([1.0, 0.0])])


def test_normalization_guard():
    with pytest.raises(NormalizationError):
        states.SymmetricPureState(2, np.array([1.0, 0.0, 1.0]))
    psi = states.SymmetricPureState.from_unnormalized(np.array([3.0, 0.0, 4.0]))
    assert abs(np.linalg.norm(psi.coeffs) - 1.0) < 1e-15


def test_density_matrix_of_a_density_matrix_keeps_its_bits():
    # the constructor once divided by the trace every time, moving the last bits of 7 of these 50
    rng = np.random.default_rng(45)
    for _ in range(50):
        rho = states.random_symmetric_mixed(4, rng)
        assert np.array_equal(states.DensityMatrix(rho.n, rho.mat).mat, rho.mat)


def test_density_matrix_checks_its_trace_hermiticity_and_positivity():
    mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(NormalizationError):
        states.DensityMatrix(2, mat * (1 + 2e-9))
    assert np.array_equal(states.DensityMatrix(2, mat * (1 + 5e-10)).mat, mat * (1 + 5e-10))
    skew = mat.copy()
    skew[0, 1] = 1e-6
    with pytest.raises(DomainError, match="hermitian"):
        states.DensityMatrix(2, skew)
    with pytest.raises(DomainError, match="PSD"):
        states.DensityMatrix(2, np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


def test_phase_normalize_first_significant_entry():
    v = np.array([0.0, -1j, 1.0]) / math.sqrt(2)
    w = states.phase_normalize(v)
    assert w[1].real > 0 and abs(w[1].imag) < 1e-15


def test_phase_distance_floor_free():
    rng = np.random.default_rng(11)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    w = v * np.exp(1.3j)
    w = w + 1e-13 * (rng.normal(size=8) + 1j * rng.normal(size=8))
    w /= np.linalg.norm(w)
    assert states.phase_distance(v, w) < 1e-12


def test_rotation_gates_are_unitary_and_match_exponentials():
    for t in (0.0, 0.3, math.pi, 4.0):
        for gate, pauli in ((states.rx, states.PAULI_X), (states.ry, states.PAULI_Y), (states.rz, states.PAULI_Z)):
            g = gate(t)
            assert states.is_unitary(g, 1e-12)
            w, v = np.linalg.eigh(pauli)
            want = (v * np.exp(-0.5j * t * w)) @ v.conj().T
            assert np.max(np.abs(g - want)) < 1e-12


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_symmetric_power_agrees_with_dense_conjugation(n, seed):
    rng = np.random.default_rng(seed)
    g = states.random_su2(rng) * np.exp(1j * rng.uniform(0, 2 * math.pi))  # U(2), not only SU(2)
    psi = states.random_symmetric(n, rng)
    moved = states.apply_diag_symmetric(g, psi)
    big = np.ones((1, 1), dtype=np.complex128)
    for _ in range(n):
        big = np.kron(big, g)
    want = big @ states.expand(psi).amps
    assert states.phase_distance(states.expand(moved).amps, want) < 1e-12
    # the whole matrix: g^{(x)n} restricted to the symmetric subspace, and unitary
    s = states.symmetric_power(g, n)
    basis = np.column_stack([states.expand(states.dicke(n, k)).amps for k in range(n + 1)])
    assert np.max(np.abs(basis @ s - big @ basis)) < 1e-12
    assert np.max(np.abs(s.conj().T @ s - np.eye(n + 1))) < 1e-12


def _spin_generators(n):
    """J_x, J_y, J_z of spin n/2 on |m>, m = n/2, ..., -n/2, from the ladder operator."""
    m = n / 2 - np.arange(n + 1)
    j_plus = np.zeros((n + 1, n + 1))
    for k in range(1, n + 1):
        j_plus[k - 1, k] = math.sqrt((n / 2 - m[k]) * (n / 2 + m[k] + 1))
    return (j_plus + j_plus.T) / 2, (j_plus - j_plus.T) / 2j, np.diag(m)


@pytest.mark.parametrize("n", [64, 96])
def test_symmetric_power_stays_accurate_at_large_n(n):
    # g = exp(-i theta u.sigma / 2) acts as expm(-i theta u.J) on spin n/2
    rng = np.random.default_rng(n)
    gens = _spin_generators(n)
    for _ in range(3):
        g = states.random_su2(rng)
        axis = [np.trace(0.5j * (g - g.conj().T) @ p).real / 2 for p in (states.PAULI_X, states.PAULI_Y, states.PAULI_Z)]
        half = math.atan2(np.linalg.norm(axis), np.trace(g).real / 2)
        gen = sum(c * j for c, j in zip(np.array(axis) / np.linalg.norm(axis), gens))
        want = scipy.linalg.expm(-2j * half * gen)
        s = states.symmetric_power(g, n)
        assert np.max(np.abs(s - want)) < 1e-12
        assert np.max(np.abs(s.conj().T @ s - np.eye(n + 1))) < 1e-12


def test_symmetric_power_rejects_a_matrix_that_is_not_unitary():
    for bad in (np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([[1.0, 1e-6], [0.0, 1.0]]), np.eye(3)):
        with pytest.raises(DomainError, match="unitary"):
            states.symmetric_power(bad, 4)
        with pytest.raises(DomainError, match="unitary"):
            states.apply_diag_symmetric(bad, states.dicke(4, 1))


def test_symmetric_power_accepts_exactly_the_g_that_is_unitary_accepts_at_1e_9():
    rng = np.random.default_rng(32)
    stack = np.array([states.random_su2(rng) for _ in range(4)])
    verdicts = set()
    # a row scaled by 1 + eps moves its norm^2 by about 2 eps: both sides of 1e-9
    for eps in (0.3e-9, 0.45e-9, 0.55e-9, 0.7e-9):
        for row in (0, 1):
            bad = stack.copy()
            bad[2, row] *= 1 + eps
            ok = states.is_unitary(bad[2], 1e-9)
            verdicts.add(ok)
            for g in (bad[2], bad):
                if ok:
                    states.symmetric_power(g, 3)
                else:
                    with pytest.raises(DomainError, match="unitary"):
                        states.symmetric_power(g, 3)
    assert verdicts == {True, False}
    for entry in range(4):
        bad = stack.copy()
        bad[3].flat[entry] = np.nan
        with pytest.raises(DomainError, match="unitary"):
            states.symmetric_power(bad, 3)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 48])
def test_symmetric_power_of_a_stack_is_the_stack_of_symmetric_powers(n):
    rng = np.random.default_rng(31 + n)
    gs = np.array([states.random_su2(rng) * np.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(7)])
    stacked = states.symmetric_power(gs, n)
    assert stacked.shape == (7, n + 1, n + 1)
    for g, s in zip(gs, stacked):
        assert np.array_equal(s, states.symmetric_power(g, n))
    assert states.symmetric_power(gs[:0], n).shape == (0, n + 1, n + 1)
    # every g of a stack is checked, not only the first
    bad = gs.copy()
    bad[4, 1, 1] *= 1.001
    with pytest.raises(DomainError, match="unitary"):
        states.symmetric_power(bad, n)


@pytest.mark.parametrize("n", [1, 2, 7, 48, 96])
def test_symmetric_power_apply_is_the_matrix_times_the_vector(n):
    rng = np.random.default_rng(61 + n)
    # U(2) elements: a det phase as well as the SU(2) part
    gs = np.array([states.random_su2(rng) * np.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(6)])
    psi = states.random_symmetric(n, rng)
    turned = states.symmetric_power_apply(gs, psi.coeffs)
    assert turned.shape == (6, n + 1)
    assert np.max(np.abs(turned - states.symmetric_power(gs, n) @ psi.coeffs)) < 1e-13
    one = states.symmetric_power_apply(gs[2], psi.coeffs)
    assert one.shape == (n + 1,) and np.max(np.abs(one - turned[2])) < 1e-15
    assert states.symmetric_power_apply(gs[:0], psi.coeffs).shape == (0, n + 1)
    # apply_diag_symmetric runs on it, with the coefficients of the matrix route
    moved = states.apply_diag_symmetric(gs[3], psi).coeffs
    want = states.symmetric_power(gs[3], n) @ psi.coeffs
    assert np.max(np.abs(moved - want / np.linalg.norm(want))) < 1e-13
    bad = gs.copy()
    bad[4, 0] *= 1.001
    for g in (bad, bad[4], np.eye(3)):
        with pytest.raises(DomainError, match="unitary"):
            states.symmetric_power_apply(g, psi.coeffs)


def test_pure_blocks_are_built_once_per_n():
    blocks = states.pure_blocks(6)
    assert blocks is states.pure_blocks(6)
    assert (blocks.n, blocks.spins, blocks.mults) == (6, (3.0,), (1,))


def reference_phase_distance(u, v):
    """||u - e^{ia} v|| for one pair, v's phase aligned to np.vdot(v, u)."""
    ip = np.vdot(v, u)
    return np.linalg.norm(u - v * (ip / abs(ip) if abs(ip) > 0 else 1.0))


def test_phase_distances_of_a_stack_are_the_phase_distances_of_its_rows():
    rng = np.random.default_rng(41)
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    v /= np.linalg.norm(v)
    rows = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
    rows[1] = v * np.exp(0.7j) + 1e-13
    rows[2] = np.roll(v.conj(), 1)
    rows[3] = 0.0
    rows[3, 0] = 1.0
    rows[3] -= np.vdot(v, rows[3]) * v  # orthogonal to v: every phase is as good
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    got = states.phase_distances(rows, v)
    want = [reference_phase_distance(row, v) for row in rows]
    assert np.max(np.abs(got - want)) < 1e-15
    assert got[1] < 1e-12 and abs(got[3] - math.sqrt(2)) < 1e-15
    assert [states.phase_distance(row, v) for row in rows] == got.tolist()
    # stacks broadcast against each other: rows against rows, pair by pair and as a table
    pairwise = states.phase_distances(rows, rows[::-1])
    assert np.max(np.abs(pairwise - [reference_phase_distance(a, b) for a, b in zip(rows, rows[::-1])])) < 1e-15
    table = states.phase_distances(rows[None], rows[:, None])
    assert table.shape == (6, 6)
    assert np.max(np.abs(table - [[reference_phase_distance(a, b) for a in rows] for b in rows])) < 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
def test_states_reject_non_finite_entries(bad):
    coeffs = np.array([0.6, 0.0, bad], dtype=np.complex128)
    with pytest.raises(DomainError, match="non-finite"):
        states.SymmetricPureState(2, coeffs)
    with pytest.raises(DomainError, match="non-finite"):
        states.SymmetricPureState.from_unnormalized(coeffs)
    with pytest.raises(DomainError, match="non-finite"):
        states.PureState(2, np.array([0.6, 0.0, 0.0, bad]))
    with pytest.raises(DomainError, match="non-finite"):
        states.DensityMatrix(1, np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(DomainError, match="non-finite"):
        states.ghz(3, bad, 0.8)
    with pytest.raises(DomainError, match="non-finite"):
        states.ghz(3, 0.6, bad)


def test_apply_lu_matches_kron_oracle():
    rng = np.random.default_rng(13)
    n = 3
    rho = states.random_symmetric_mixed(n, rng)
    u = states.random_local_unitary(n, rng)
    big = np.ones((1, 1), dtype=np.complex128)
    for f in u.factors:
        big = np.kron(big, f)
    want = big @ rho.mat @ big.conj().T
    got = states.apply_lu(u, rho).mat
    assert np.max(np.abs(got - want)) < 1e-12


def reference_conjugate(g, mat, n):
    """g^{(x)n} mat g^{(x)n +}, g applied by tensordot to each of the 2n axes of the (2,)*2n tensor, g^* on the columns."""
    t = mat.reshape((2,) * (2 * n))
    for ax in range(2 * n):
        t = np.moveaxis(np.tensordot(g if ax < n else g.conj(), t, axes=(1, ax)), 0, ax)
    return t.reshape(mat.shape)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_conjugate_local_is_conjugation_by_the_kronecker_product(n, seed):
    rng = np.random.default_rng(seed)
    # a different U(2) factor per qubit, det phases included, on a matrix with no permutation symmetry
    factors = tuple(states.random_su2(rng) * np.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(n))
    ginibre = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    mat = ginibre @ ginibre.conj().T
    mat /= np.trace(mat).real
    big = states.LocalUnitary(factors).matrix()
    assert np.max(np.abs(states.conjugate_local(factors, mat) - big @ mat @ big.conj().T)) < 1e-13
    # one g on every qubit: bit for bit the tensordot formula, so no reported mixed distance moves
    g = factors[0]
    assert np.array_equal(states.conjugate_local((g,) * n, mat), reference_conjugate(g, mat, n))
    with pytest.raises(DomainError, match="shape"):
        states.conjugate_local(factors + (g,), mat)


def test_local_unitary_validation_and_compose():
    rng = np.random.default_rng(14)
    u = states.random_local_unitary(3, rng)
    v = states.random_local_unitary(3, rng)
    w = u.compose(v)
    for fw, fu, fv in zip(w.factors, u.factors, v.factors):
        assert np.max(np.abs(fw - fu @ fv)) < 1e-12
    with pytest.raises(DomainError):
        states.LocalUnitary((np.array([[1.0, 1.0], [0.0, 1.0]]),))


def test_uniform_local_unitary_stores_one_read_only_copy():
    g = states.random_su2(np.random.default_rng(16))
    u = states.LocalUnitary.uniform(g, 5)
    assert all(f is u.factors[0] for f in u.factors)
    assert not u.factors[0].flags.writeable
    g[0, 0] = 7.0  # the caller's array was copied, not shared
    assert u.factors[0][0, 0] != 7.0


def test_projective_distance_ignores_per_factor_phase():
    rng = np.random.default_rng(15)
    u = states.random_local_unitary(3, rng)
    phased = states.LocalUnitary(
        tuple(np.exp(1j * rng.uniform(0, 2 * math.pi)) * f for f in u.factors)
    )
    assert u.projective_distance(phased) < 1e-12
    assert u.projectively_equal(phased)


def test_permute_qubits_and_invariance():
    rng = np.random.default_rng(16)
    rho = states.random_symmetric_mixed(4, rng)
    assert states.is_permutation_invariant(rho)
    for perm in ([1, 0, 2, 3], [3, 2, 1, 0], [1, 2, 3, 0]):
        moved = states.permute_qubits(rho, perm)
        assert np.max(np.abs(moved.mat - rho.mat)) < 1e-10

    # break the symmetry on one qubit
    f = [np.eye(2, dtype=complex)] * 4
    f[2] = states.rz(0.7)
    broken = states.apply_lu(states.LocalUnitary(tuple(f)), rho)
    assert not states.is_permutation_invariant(broken)


def test_permute_qubits_relabels_axes():
    # |100> permuted by perm[i] = input qubit at output slot i
    vec = np.zeros(8, dtype=np.complex128)
    vec[0b100] = 1.0
    rho = states.DensityMatrix(3, np.outer(vec, vec.conj()))
    moved = states.permute_qubits(rho, [1, 2, 0])
    idx = int(np.argmax(np.abs(np.diag(moved.mat))))
    assert idx in (0b001, 0b010)  # the excitation moved off qubit 0
    back = states.permute_qubits(moved, [2, 0, 1])
    assert np.max(np.abs(back.mat - rho.mat)) < 1e-14


def test_reduced_1qubit_matches_index_sum_oracle():
    rng = np.random.default_rng(17)
    rho = states.random_symmetric_mixed(3, rng)
    for k in range(3):
        got = states.reduced_density(rho, (k,))
        want = brute_partial_trace_single(rho.mat, 3, k)
        assert np.max(np.abs(got - want)) < 1e-12
    assert abs(np.trace(states.reduced_density(rho, (0,))) - 1.0) < 1e-12


@pytest.mark.parametrize("qubits", [(3,), (-1,), (0, 0), (1, 3), (0, 1, 2, 0)])
def test_reduced_density_refuses_qubits_outside_or_repeated(qubits):
    rho = states.random_symmetric_mixed(3, np.random.default_rng(18))
    with pytest.raises(DomainError, match="qubits"):
        states.reduced_density(rho, qubits)


def test_density_matrix_validation():
    bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(DomainError):
        states.DensityMatrix(1, bad)
    notpsd = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
    with pytest.raises(DomainError):
        states.DensityMatrix(1, notpsd)


def test_random_su2_is_special_unitary():
    rng = np.random.default_rng(18)
    for _ in range(50):
        g = states.random_su2(rng)
        assert states.is_unitary(g, 1e-12)
        assert abs(np.linalg.det(g) - 1.0) < 1e-12


def test_random_symmetric_mixed_is_valid_and_invariant():
    rng = np.random.default_rng(19)
    rho = states.random_symmetric_mixed(3, rng)
    w = np.linalg.eigvalsh(rho.mat)
    assert w.min() > -1e-12
    assert abs(w.sum() - 1.0) < 1e-12
    assert states.is_permutation_invariant(rho)


def test_dense_cap_enforced():
    with pytest.raises(DomainError):
        states.expand(states.dicke(13, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
def test_spin_blocks_span_one_copy_of_each_spin(n):
    blocks = states.spin_blocks(n)
    assert states.spin_blocks(n) is blocks  # built once per n
    sizes = [round(2 * j) + 1 for j in blocks.spins]
    assert blocks.spins[0] == n / 2 and blocks.spins[-1] == (n % 2) / 2
    assert sum(m * s for m, s in zip(blocks.mults, sizes)) == 2**n
    d = sum(sizes)
    assert blocks.basis.shape == (2**n, d)
    assert np.max(np.abs(blocks.basis.T @ blocks.basis - np.eye(d))) < 1e-13
    # Jz is diagonal on the columns, with m = j, j - 1, ..., -j in each block
    jz = sum(np.kron(np.kron(np.eye(2**q), states.PAULI_Z), np.eye(2 ** (n - q - 1))) for q in range(n)) / 2
    jy = sum(np.kron(np.kron(np.eye(2**q), states.PAULI_Y), np.eye(2 ** (n - q - 1))) for q in range(n)) / 2
    b = blocks.basis
    m = np.concatenate([j - np.arange(round(2 * j) + 1) for j in blocks.spins])
    assert np.max(np.abs(b.T @ jz @ b - np.diag(m))) < 1e-13
    assert [sl.stop - sl.start for sl in blocks.slices] == sizes and blocks.slices[-1].stop == d
    # the block representation is g^{(x)n} on the columns
    g = states.random_su2(np.random.default_rng(n))
    assert np.max(np.abs(states.LocalUnitary.uniform(g, n).matrix() @ b - b @ blocks.rep(g))) < 1e-12
    # the columns are invariant: Jy maps their span to itself
    assert np.max(np.abs(jy @ b - b @ (b.T @ jy @ b))) < 1e-13
    for k, m in enumerate(blocks.mults):
        assert m == math.comb(n, k) - (math.comb(n, k - 1) if k else 0)


def test_spin_block_rep_is_the_tensor_power_on_the_blocks():
    rng = np.random.default_rng(27)
    for n in (1, 2, 5, 6, 8):
        blocks = states.spin_blocks(n)
        for g in [states.random_su2(rng) for _ in range(3)] + [states.rx(math.pi)]:
            big = states.LocalUnitary.uniform(g, n).matrix()
            assert np.max(np.abs(big @ blocks.basis - blocks.basis @ blocks.rep(g))) < 1e-12


def test_spin_block_form_keeps_the_trace_with_weights():
    rng = np.random.default_rng(47)
    n = 5
    tau = states.random_symmetric_mixed(1, rng, rank=2).mat
    power = functools.reduce(np.kron, [tau] * n)
    rho = states.DensityMatrix(n, 0.5 * power + 0.5 * states.random_symmetric_mixed(n, rng).mat)
    blocks = states.spin_blocks(n)
    form = blocks.compress(rho)
    # sum_j m_j tr rho_j = tr rho, and nothing couples different spins
    assert abs(np.sum(blocks.weight * np.eye(len(form)) * form) - 1.0) < 1e-13
    assert np.max(np.abs(form[blocks.weight == 0])) < 1e-13
    with pytest.raises(DomainError):
        blocks.compress(states.random_symmetric_mixed(4, rng))


def test_spin_blocks_without_a_basis_derive_slices_and_weights():
    blocks = states.SpinBlocks(40, (20.0,), (1,))
    assert blocks.slices == (slice(0, 41),) and np.all(blocks.weight == 1.0)
    full = states.spin_blocks(5)
    same = states.SpinBlocks(5, full.spins, full.mults)
    assert same.slices == full.slices and np.array_equal(same.weight, full.weight)
    with pytest.raises(DomainError, match="basis"):
        same.compress(states.to_density(states.dicke(5, 2)))
    # one block of weight 1: the block distance of a pure state is that of its projectors
    rng = np.random.default_rng(48)
    psi, g = states.random_symmetric(40, rng), states.random_su2(rng)
    phi = states.apply_diag_symmetric(g, psi)
    form, target = np.outer(psi.coeffs, psi.coeffs.conj()), np.outer(phi.coeffs, phi.coeffs.conj())
    assert blocks.distance(g, form, target) < 1e-12


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, 10), phase=st.floats(-math.pi, math.pi), seed=st.integers(0, 2**32 - 1))
def test_spin_block_rep_is_the_tensor_power_of_any_u2_element(n, phase, seed):
    g = np.exp(1j * phase) * states.random_su2(np.random.default_rng(seed))
    blocks = states.spin_blocks(n)
    rep = blocks.rep(g)
    want = blocks.basis.T @ states.LocalUnitary.uniform(g, n).matrix() @ blocks.basis
    assert np.max(np.abs(rep - want)) < 1e-12
    assert np.all(rep[blocks.weight == 0] == 0)  # one product for every block, exact zeros between them


def test_spin_block_rep_gives_every_block_the_phase_of_the_tensor_power():
    # (i I)^{(x)n} is i^n on every block, the spin-1 block of 4 qubits included
    for n, phase in ((4, 1), (5, 1j), (6, -1)):
        rep = states.spin_blocks(n).rep(1j * np.eye(2))
        assert np.max(np.abs(rep - phase * np.eye(len(rep)))) < 1e-14


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, 64), count=st.integers(1, 4), phase=st.floats(-math.pi, math.pi), seed=st.integers(0, 2**32 - 1))
def test_one_block_rep_is_symmetric_power_bit_for_bit(n, count, phase, seed):
    rng = np.random.default_rng(seed)
    gs = np.array([np.exp(1j * phase) * states.random_su2(rng) for _ in range(count)])
    blocks = states.pure_blocks(n)
    assert blocks.eigenbasis is states._jy_eigenbasis(n)  # shared with symmetric_power, not copied
    assert np.array_equal(blocks.rep(gs[0]), states.symmetric_power(gs[0], n))
    assert np.array_equal(blocks.rep(gs), states.symmetric_power(gs, n))


def _spectrum_test_state(family, n, rng):
    if family == "full_rank":  # p tau^{(x)n} + (1 - p) rho_sym: every spin block filled
        power = functools.reduce(np.kron, [states.random_symmetric_mixed(1, rng, rank=2).mat] * n)
        p = rng.uniform(0.2, 0.8)
        return states.DensityMatrix(n, p * power + (1 - p) * states.random_symmetric_mixed(n, rng).mat)
    if family == "maximally_mixed":  # each block j is a multiple of 1, repeated m_j times
        p = rng.uniform(0.2, 0.8)
        return states.DensityMatrix(n, p * states.random_symmetric_mixed(n, rng).mat + (1 - p) * np.eye(2**n) / 2**n)
    return states.random_symmetric_mixed(n, rng, rank=family)


_SPECTRUM_FAMILIES = st.sampled_from([1, 2, 3, "full_rank", "maximally_mixed"])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, 8), first=_SPECTRUM_FAMILIES, second=_SPECTRUM_FAMILIES, seed=st.integers(0, 2**32 - 1))
def test_stacked_spectra_are_each_forms_own_bit_for_bit(n, first, second, seed):
    rng = np.random.default_rng(seed)
    blocks = states.spin_blocks(n)
    forms = [blocks.compress(_spectrum_test_state(family, n, rng)) for family in (first, second)]
    stacked = blocks.spectrum(np.stack(forms))
    assert stacked.shape == (2, 2**n)
    for got, form in zip(stacked, forms):
        assert np.array_equal(got, blocks.spectrum(form))


@pytest.mark.parametrize("n", [0, 13])
def test_spin_blocks_reject_sizes_outside_the_dense_range(n):
    with pytest.raises(DomainError):
        states.spin_blocks(n)


def reference_tensor_operators(two_j, k):
    """T_kk = J_+^k normalized, lowered by [J_-, .]: exact in principle, accurate to roundoff only at small spin."""
    j_plus = states._j_plus(two_j)
    top = np.linalg.matrix_power(j_plus, k)
    ops = [top / np.linalg.norm(top)]
    for q in range(k, -k, -1):
        ops.append((j_plus.T @ ops[-1] - ops[-1] @ j_plus.T) / math.sqrt((k + q) * (k - q + 1)))
    return np.array(ops)


def test_tensor_operators_are_the_lowered_powers_of_j_plus_at_small_spin():
    # the reference drifts past 1e-14 from spin 4 on
    for two_j in range(7):
        for k in range(two_j + 1):
            assert np.max(np.abs(states._tensor_operators(two_j, k) - reference_tensor_operators(two_j, k))) <= 1e-14


@pytest.mark.parametrize("two_j, k", [(12, 6), (24, 6), (24, 12), (48, 12), (48, 47), (96, 40)])
def test_tensor_operators_stay_accurate_at_large_spin(two_j, k):
    # the lowered powers of J_+ are off by 1e-9 at (24, 6) and not even orthonormal at (48, 12)
    ops = states._tensor_operators(two_j, k)
    gram = np.einsum("qab,pab->qp", ops.conj(), ops)
    assert np.max(np.abs(gram - np.eye(2 * k + 1))) <= 1e-13
    # each is the eigenoperator of sum_a [J_a, [J_a, .]] of eigenvalue k (k + 1)
    spin = states.spin_operators(two_j)
    casimir = sum(a @ (a @ ops - ops @ a) - (a @ ops - ops @ a) @ a for a in spin)
    assert np.max(np.abs(casimir - k * (k + 1) * ops)) <= 1e-13 * two_j**2
    # and the multipole of a turned state is the turned multipole
    rng = np.random.default_rng(two_j + k)
    psi, g = states.random_symmetric(two_j, rng), states.random_su2(rng)
    phi = states.apply_diag_symmetric(g, psi)
    blocks = states.SpinBlocks(two_j, (two_j / 2,), (1,))
    v, w = (blocks.multipole(np.outer(s.coeffs, s.coeffs.conj()), 0, k) for s in (psi, phi))
    assert np.max(np.abs(states.symmetric_power(g, 2 * k) @ v - w)) <= 1e-14
