"""Mixed-state equivalence decisions and the two-pole canonical form."""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmlu import _kernels, classify, majorana, mixed, rotmatch, search, states
from symmlu.errors import DomainError, NotGhzFormError
from symmlu.tolerances import DEFAULT_TOLERANCES


def phase_layer(phi, n):
    return states.LocalUnitary.uniform(
        np.diag([1.0, np.exp(1j * phi)]).astype(np.complex128), n
    )


# ---------------------------------------------------------------------------
# equivalence search
# ---------------------------------------------------------------------------


def test_default_threshold_scales_with_dimension():
    assert mixed.default_threshold(3) == pytest.approx(1e-7 * 2**1.5)
    assert mixed.default_threshold(4) == pytest.approx(4e-7)


def test_threshold_validation():
    rho3, rho2 = states.to_density(states.ghz(3)), states.to_density(states.ghz(2))
    for threshold in (0.0, -1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="threshold"):
            mixed.lu_equivalent_mixed(rho3, rho3, threshold)
        with pytest.raises(DomainError, match="threshold"):
            mixed.two_factor_search(rho2, rho2, threshold)


def test_constructed_pairs_are_recovered():
    rng = np.random.default_rng(41)
    for _ in range(4):
        rho = states.random_symmetric_mixed(3, rng)
        g = states.random_su2(rng)
        sigma = states.apply_lu(states.LocalUnitary.uniform(g, 3), rho)
        res = mixed.lu_equivalent_mixed(rho, sigma)
        assert res.status == "equivalent"
        assert bool(res)
        assert res.distance <= 1e-9
        # the reported unitary itself certifies the equivalence
        check = states.apply_lu(states.LocalUnitary.uniform(res.unitary, 3), rho)
        assert np.linalg.norm(check.mat - sigma.mat) <= 1e-9


def full_rank_invariant(n, rng):
    """p tau^{(x)n} + (1 - p) rho_sym: permutation invariant, every spin block filled."""
    tau = states.random_symmetric_mixed(1, rng, rank=2).mat
    power = functools.reduce(np.kron, [tau] * n)
    p = rng.uniform(0.2, 0.8)
    return states.DensityMatrix(n, p * power + (1 - p) * states.random_symmetric_mixed(n, rng).mat)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(3, 7), seed=st.integers(0, 2**32 - 1))
def test_spin_block_distance_equals_the_dense_kernel(n, seed):
    rng = np.random.default_rng(seed)
    rho, sigma = full_rank_invariant(n, rng), full_rank_invariant(n, rng)
    if rng.uniform() < 0.3:
        # a rotated copy puts the distance near zero, where cancellation is worst
        g = states.random_su2(rng)
        sigma = states.apply_lu(states.LocalUnitary.uniform(g, n), rho)
    blocks = states.spin_blocks(n)
    rb, sb = blocks.compress(rho), blocks.compress(sigma)
    angles = rng.uniform(0, 2 * math.pi, size=(4, 3))
    dense = _kernels.conj_distance_batch(angles, _kernels.density_factor(rho.mat), sigma.mat, n)
    block = [blocks.distance(_kernels.euler_su2(*row), rb, sb) for row in angles]
    assert np.max(np.abs(np.array(block) - dense)) < 1e-12
    # a unitary outside SU(2) differs by a phase per block, which conjugation cancels
    flip = states.PAULI_X @ _kernels.euler_su2(*angles[0])
    kron = states.LocalUnitary.uniform(flip, n).matrix()
    want = np.linalg.norm(kron @ rho.mat @ kron.conj().T - sigma.mat)
    assert abs(blocks.distance(flip, rb, sb) - want) < 1e-12


@settings(derandomize=True, max_examples=25, deadline=None)
@given(n=st.integers(3, 8), seed=st.integers(0, 2**32 - 1))
def test_multipoles_move_as_symmetric_states(n, seed):
    rng = np.random.default_rng(seed)
    rho = full_rank_invariant(n, rng)
    g = states.random_su2(rng)
    sigma = states.apply_lu(states.LocalUnitary.uniform(g, n), rho)
    blocks = states.spin_blocks(n)
    rb, sb = blocks.compress(rho), blocks.compress(sigma)
    for b, j in enumerate(blocks.spins):
        for k in range(round(2 * j) + 1):
            v, w = blocks.multipole(rb, b, k), blocks.multipole(sb, b, k)
            assert np.max(np.abs(states.symmetric_power(g, 2 * k) @ v - w)) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 8])
def test_turn_about_the_pole_is_solved_exactly(n):
    rng = np.random.default_rng(150 + n)
    rho = full_rank_invariant(n, rng)
    blocks = states.spin_blocks(n)
    rb = blocks.compress(rho)
    for phi in rng.uniform(-math.pi, math.pi, size=3):
        sigma = states.apply_lu(states.LocalUnitary.uniform(states.rz(phi), n), rho)
        sb = blocks.compress(sigma)
        # the trigonometric polynomial's best critical point is the turn itself
        assert blocks.distance(states.rz(mixed._best_turn(rb, sb, blocks)), rb, sb) < 1e-12
        res = mixed.lu_equivalent_mixed(rho, sigma)
        assert res.status == "equivalent"
        assert res.distance <= mixed.default_threshold(n)


def _points_projector(points, mults=None):
    return states.to_density(majorana.points_to_state(np.array(points, dtype=float), mults))


_CUBE = [[x, y, z] for x in (1, -1) for y in (1, -1) for z in (1, -1)]
_OCTAHEDRON = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
_TETRAHEDRON = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]


def _dicke_mixture(n, rng):
    weights = rng.dirichlet(np.ones(n + 1))
    return states.DensityMatrix(n, sum(w * states.to_density(states.dicke(n, k)).mat for k, w in enumerate(weights)))


def _ghz_form(n, rng):
    a = rng.uniform(0.3, 0.9)
    b = rng.uniform(0, 1) * math.sqrt(a * (1 - a)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    return mixed.ghz_form_density(mixed.GhzForm(n, a, b))


def _multiset(mults, rng):
    points = rng.normal(size=(len(mults), 3))
    return _points_projector(points / np.linalg.norm(points, axis=1)[:, None], mults)


def _c3_symmetric(n, rng):
    """Projector of n points invariant under turns by 2 pi / 3 about z: orbits of three, the rest at poles."""
    points = [[0.0, 0.0, rng.choice([-1.0, 1.0])] for _ in range(n % 3)]
    for theta, phi in rng.uniform(0, math.pi, size=(n // 3, 2)):
        points += [majorana.bloch_from_angles(theta, 2 * phi + 2 * math.pi * i / 3) for i in range(3)]
    return _points_projector(points)


_FAMILIES = {
    "c3_symmetric": lambda n, rng: _c3_symmetric(n, rng),
    "dicke_mixture": lambda n, rng: _dicke_mixture(n, rng),
    "ghz_form": lambda n, rng: _ghz_form(n, rng),
    "full_rank": lambda n, rng: full_rank_invariant(n, rng),
    "multiset_3_3": lambda n, rng: _multiset((3, 3), rng),
    "multiset_2_2_2": lambda n, rng: _multiset((2, 2, 2), rng),
    "multiset_4_1_1": lambda n, rng: _multiset((4, 1, 1), rng),
    "multiset_6_2": lambda n, rng: _multiset((6, 2), rng),
    "tetrahedron": lambda n, rng: _points_projector(_TETRAHEDRON),
    "octahedron": lambda n, rng: _points_projector(_OCTAHEDRON),
    "cube": lambda n, rng: _points_projector(_CUBE),
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(family=st.sampled_from(sorted(_FAMILIES)), n=st.integers(3, 8), seed=st.integers(0, 2**32 - 1))
def test_rotated_pairs_are_decided_from_multipole_frames(family, n, seed):
    rng = np.random.default_rng(seed)
    rho = _FAMILIES[family](n, rng)
    g = states.random_su2(rng)
    sigma = states.apply_lu(states.LocalUnitary.uniform(g, rho.n), rho)
    res = mixed.lu_equivalent_mixed(rho, sigma)
    assert res.status == "equivalent", res.detail
    check = states.apply_lu(states.LocalUnitary.uniform(res.unitary, rho.n), rho)
    assert np.linalg.norm(check.mat - sigma.mat) <= mixed.default_threshold(rho.n)


def _mirror_pair(n, seed):
    """A random pure projector and its complex conjugate: the reduced states
    on every set of qubits are conjugate, so every spectrum agrees, but the
    conjugate's Majorana points are the mirror image, which no rotation
    reaches for a generic state."""
    rho = states.to_density(states.random_symmetric(n, np.random.default_rng(seed)))
    return rho, states.DensityMatrix(n, rho.mat.conj())


def test_dense_recheck_gates_every_equivalent(monkeypatch):
    # a block distance that reads 0 for every candidate must not turn into "equivalent"
    monkeypatch.setattr(states.SpinBlocks, "distance", lambda self, g, form, target: 0.0)
    res = mixed.lu_equivalent_mixed(*_mirror_pair(4, 7))
    assert res.status == "undecided"
    assert res.distance > mixed.default_threshold(4)


def test_decisions_run_no_descent(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the n >= 3 decision must not descend")

    for name in ("descend", "refine_minimum"):
        monkeypatch.setattr(search, name, refuse)
    monkeypatch.setattr(mixed, "refine_minimum", refuse)
    rng = np.random.default_rng(160)
    for family in ("full_rank", "ghz_form", "multiset_3_3", "tetrahedron"):
        rho = _FAMILIES[family](4, rng)
        sigma = states.apply_lu(states.LocalUnitary.uniform(states.random_su2(rng), rho.n), rho)
        assert mixed.lu_equivalent_mixed(rho, sigma).status == "equivalent"
    assert mixed.lu_equivalent_mixed(*_mirror_pair(4, 7)).status == "undecided"
    ghz4 = states.to_density(states.ghz(4))
    dicke42 = states.to_density(states.dicke(4, 2))
    assert mixed.lu_equivalent_mixed(ghz4, dicke42).status == "inequivalent_spectrum"
    blurred = states.DensityMatrix(4, 0.9 * ghz4.mat + 0.1 * np.eye(16) / 16)
    assert mixed.lu_equivalent_mixed(ghz4, blurred).status == "inequivalent_spectrum"
    with pytest.raises(AssertionError, match="descend"):
        mixed.two_factor_search(states.to_density(states.ghz(2)), states.to_density(states.ghz(2)))


def test_axial_frames_run_no_root_finding(monkeypatch):
    rng = np.random.default_rng(170)

    def rotated(rho):
        return states.apply_lu(states.LocalUnitary.uniform(states.random_su2(rng), rho.n), rho)

    mixed_pairs = []
    for n in range(3, 8):
        for rank in (1, 2, 3):
            rho = states.random_symmetric_mixed(n, rng, rank)
            mixed_pairs.append((rho, rotated(rho)))
    points = rng.normal(size=(3, 3))
    pure = [
        states.random_symmetric(9, rng),
        states.dicke(8, 3),
        states.ghz(6, 0.8, 0.6),
        majorana.points_to_state(points / np.linalg.norm(points, axis=1)[:, None], (4, 2, 2)),
    ]
    pure_pairs = [(psi, states.apply_diag_symmetric(states.random_su2(rng), psi)) for psi in pure]
    tetrahedron = _points_projector(_TETRAHEDRON)
    tetrahedron_pair = (tetrahedron, rotated(tetrahedron))

    def refuse(*args, **kwargs):
        raise AssertionError("an axial frame must not find Majorana roots")

    monkeypatch.setattr(majorana, "majorana_points", refuse)
    monkeypatch.setattr(rotmatch, "all_matching_rotations", refuse)
    for rho, sigma in mixed_pairs:
        assert mixed.lu_equivalent_mixed(rho, sigma).status == "equivalent"
    for psi, phi in pure_pairs:
        g = classify.lu_equivalent_pure(psi, phi)
        assert g is not None
        assert states.apply_diag_symmetric(g, psi).distance(phi) <= 1e-8
    # the tetrahedron's first multipole (rank 3) is not axial: the patch is reached
    with pytest.raises(AssertionError, match="Majorana roots"):
        mixed.lu_equivalent_mixed(*tetrahedron_pair)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.integers(1, 6), c=st.floats(0.05, 2.0), negative=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_axial_frames_solve_only_the_families_of_their_sign(k, c, negative, seed):
    rng = np.random.default_rng(seed)
    c = -c if negative else c
    g = states.random_su2(rng)
    middle = np.zeros(2 * k + 1)
    middle[k] = c
    v = states.symmetric_power(g, 2 * k) @ middle
    g_v = mixed._axis_turn(v)
    c_v = mixed._axial_coefficient(v, g_v)
    assert c_v is not None and abs(abs(c_v) - 1) < 1e-9
    assert abs(abs((states.symmetric_power(g_v, 2 * k) @ v)[k]) - abs(c)) < 1e-9

    # one spin-(k + 1)/2 block: c T_k0 and a random rank-(k + 1) part that pins the turn
    blocks = states.SpinBlocks(k + 1, ((k + 1) / 2,), (1,))
    amps = rng.normal(size=2 * k + 3) + 1j * rng.normal(size=2 * k + 3)
    part = np.einsum("q,qab->ab", amps, states._tensor_operators(k + 1, k + 1))
    rho_b = c * states._tensor_operators(k + 1, k)[k] + part + part.conj().T
    sigma_b = blocks.rotate(g, rho_b)
    assert np.max(np.abs(blocks.multipole(sigma_b, 0, k) - v)) < 1e-12
    candidates, frame = mixed.frame_candidates(rho_b, sigma_b, blocks)
    assert frame == f"frame: rank-{k} multipole of spin {(k + 1) / 2:g}, axial"
    # the flip keeps c T_k0 for even k and negates it for odd k
    assert len(candidates) == (1 if k % 2 else 2)
    assert min(blocks.distance(h, rho_b, sigma_b) for h in candidates) < 1e-10


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rotated_full_rank_pairs_are_recovered(n):
    # weight off the symmetric subspace: the block multiplicities m_j > 1 count
    rng = np.random.default_rng(140 + n)
    for _ in range(2):
        rho = full_rank_invariant(n, rng)
        assert np.linalg.eigvalsh(rho.mat)[0] > 1e-6
        g = states.random_su2(rng)
        sigma = states.apply_lu(states.LocalUnitary.uniform(g, n), rho)
        res = mixed.lu_equivalent_mixed(rho, sigma)
        assert res.status == "equivalent"
        check = states.apply_lu(states.LocalUnitary.uniform(res.unitary, n), rho)
        assert np.linalg.norm(check.mat - sigma.mat) <= mixed.default_threshold(n)


def test_rotated_pair_at_eight_qubits_is_recovered():
    rng = np.random.default_rng(148)
    rho = states.random_symmetric_mixed(8, rng)
    g = states.random_su2(rng)
    sigma = states.apply_lu(states.LocalUnitary.uniform(g, 8), rho)
    res = mixed.lu_equivalent_mixed(rho, sigma)
    assert res.status == "equivalent"
    assert res.distance <= mixed.default_threshold(8)


def test_self_equivalence_returns_stabilizer_element():
    rng = np.random.default_rng(42)
    rho = states.random_symmetric_mixed(4, rng)
    res = mixed.lu_equivalent_mixed(rho, rho)
    assert res.status == "equivalent"
    assert res.distance <= 1e-9


def test_spectrum_prefilter_certifies_inequivalence():
    rng = np.random.default_rng(43)
    rho = states.random_symmetric_mixed(3, rng)
    d = rho.mat.shape[0]
    blurred = states.DensityMatrix(3, 0.97 * rho.mat + 0.03 * np.eye(d) / d)
    res = mixed.lu_equivalent_mixed(rho, blurred)
    assert res.status == "inequivalent_spectrum"
    assert not bool(res)
    assert res.unitary is None


def test_reduced_spectrum_prefilter():
    # same global eigenvalues {3/4, 1/4}, different 1-qubit reductions
    rho = mixed.ghz_form_density(mixed.GhzForm(3, 0.75, 0.0))
    sig = states.DensityMatrix(
        3,
        0.75 * states.to_density(states.dicke(3, 0)).mat
        + 0.25 * states.to_density(states.dicke(3, 1)).mat,
    )
    res = mixed.lu_equivalent_mixed(rho, sig)
    assert res.status == "inequivalent_spectrum"
    assert "reduced" in res.detail


def test_two_qubit_spectra_certify_ghz4_against_dicke4():
    # same global {1, 0, ...} and 1-qubit {1/2, 1/2} spectra; the 2-qubit
    # reductions are {1/2, 1/2, 0, 0} and {2/3, 1/6, 1/6, 0}
    ghz4 = states.to_density(states.ghz(4))
    g = states.random_su2(np.random.default_rng(44))
    dicke42 = states.apply_lu(states.LocalUnitary.uniform(g, 4), states.to_density(states.dicke(4, 2)))
    assert mixed.spectra_report(ghz4).reduced_spectrum == pytest.approx(
        mixed.spectra_report(dicke42).reduced_spectrum, abs=1e-12
    )
    res = mixed.lu_equivalent_mixed(ghz4, dicke42)
    assert res.status == "inequivalent_spectrum"
    assert res.detail == "2-qubit reduced spectra differ"
    assert mixed.lu_equivalent_mixed(dicke42, ghz4).status == "inequivalent_spectrum"


def test_result_reports_the_threshold_it_applied():
    rng = np.random.default_rng(45)
    rho = states.random_symmetric_mixed(3, rng)
    rotated = states.apply_lu(states.LocalUnitary.uniform(states.random_su2(rng), 3), rho)
    ghz4, dicke42 = states.to_density(states.ghz(4)), states.to_density(states.dicke(4, 2))
    bell = states.to_density(states.ghz(2))
    mixture = states.DensityMatrix(2, 0.5 * bell.mat + 0.5 * states.to_density(states.dicke(2, 2)).mat)
    cases = [
        (mixed.lu_equivalent_mixed, (rho, rotated), "equivalent"),
        (mixed.lu_equivalent_mixed, (ghz4, dicke42), "inequivalent_spectrum"),
        (mixed.lu_equivalent_mixed, _mirror_pair(4, 7), "undecided"),
        (mixed.two_factor_search, (bell, bell), "equivalent"),
        (mixed.two_factor_search, (bell, mixture), "inequivalent_spectrum"),
    ]
    for decide, (a, b), status in cases:
        res = decide(a, b)
        assert res.status == status
        assert res.threshold == mixed.default_threshold(a.n)
        res = decide(a, b, 1e-6)
        assert res.status == status
        assert res.threshold == 1e-6


def test_mirror_pairs_pass_every_spectrum_and_stay_undecided():
    for n in (3, 4, 5):
        res = mixed.lu_equivalent_mixed(*_mirror_pair(n, 8))
        assert res.status == "undecided"
        assert res.distance > mixed.default_threshold(n)


def test_non_identical_diagonal_stabilizer_is_shadowed():
    # a two-sided diagonal twist fixes a two-pole state exactly, so the
    # identical-power search still answers with a (near-)identity element
    tau = mixed.ghz_form_density(mixed.GhzForm(3, 0.6, 0.3))
    t = 0.9
    u = states.LocalUnitary(
        (states.rz(t), states.rz(-t), np.eye(2, dtype=np.complex128))
    )
    tau2 = states.apply_lu(u, tau)
    assert np.max(np.abs(tau2.mat - tau.mat)) < 1e-15
    res = mixed.lu_equivalent_mixed(tau, tau2)
    assert res.status == "equivalent"
    assert res.distance <= 1e-9


def test_permutation_invariance_is_required():
    vec = np.zeros(8, dtype=np.complex128)
    vec[1] = 1.0  # |001> is not permutation invariant
    rho = states.DensityMatrix(3, np.outer(vec, vec.conj()))
    sym = states.random_symmetric_mixed(3, np.random.default_rng(44))
    with pytest.raises(DomainError, match="qubits"):
        mixed.lu_equivalent_mixed(rho, sym)
    with pytest.raises(DomainError, match="qubits"):
        mixed.lu_equivalent_mixed(sym, rho)


def test_small_n_is_rejected():
    rho = states.to_density(states.ghz(2))
    with pytest.raises(DomainError):
        mixed.lu_equivalent_mixed(rho, rho)
    with pytest.raises(DomainError):
        mixed.two_factor_search(
            states.to_density(states.ghz(3)), states.to_density(states.ghz(3))
        )


def test_qubit_count_mismatch():
    with pytest.raises(DomainError):
        mixed.lu_equivalent_mixed(
            states.to_density(states.ghz(3)), states.to_density(states.ghz(4))
        )


def test_two_factor_search_heuristic():
    rng = np.random.default_rng(45)
    rho = states.to_density(states.ghz(2))
    u = states.LocalUnitary((states.random_su2(rng), states.random_su2(rng)))
    sigma = states.apply_lu(u, rho)
    res = mixed.two_factor_search(rho, sigma)
    assert res.status == "equivalent"
    g1, g2 = res.unitary
    check = states.apply_lu(states.LocalUnitary((g1, g2)), rho)
    assert np.linalg.norm(check.mat - sigma.mat) <= mixed.default_threshold(2)

    blurred = states.DensityMatrix(2, 0.9 * rho.mat + 0.1 * np.eye(4) / 4)
    assert mixed.two_factor_search(rho, blurred).status == "inequivalent_spectrum"


# ---------------------------------------------------------------------------
# two-pole canonical form
# ---------------------------------------------------------------------------


def test_ghz_projector_canonical_form():
    form = mixed.canonical_ghz_form(states.to_density(states.ghz(3)))
    assert form.n == 3
    assert form.pole == 0
    assert abs(form.a - 0.5) < 1e-12
    assert abs(form.b - 0.5) < 1e-12


def test_complex_coherence_becomes_real_nonnegative():
    b = 0.25 * np.exp(1j * math.pi / 3)
    tau = mixed.ghz_form_density(mixed.GhzForm(3, 0.5, b))
    form = mixed.canonical_ghz_form(tau)
    assert abs(form.a - 0.5) < 1e-12
    assert abs(form.b - 0.25) < 1e-12
    assert form.b.imag == 0 if isinstance(form.b, complex) else True
    # the canonicalizing phase layer really does the job on the matrix
    rotated = states.apply_lu(phase_layer(math.pi / 9, 3), tau)
    entry = rotated.mat[0, 7]
    assert abs(entry.imag) < 1e-12 and entry.real > 0


def test_pure_pole_has_zero_coherence():
    tau = mixed.ghz_form_density(mixed.GhzForm(4, 1.0, 0.0))
    form = mixed.canonical_ghz_form(tau)
    assert form.a == 1.0
    assert abs(form.b) == 0.0


def test_population_flip_moves_weight_to_the_zero_pole():
    b = 0.2 * np.exp(1j * 1.1)
    tau = mixed.ghz_form_density(mixed.GhzForm(3, 0.3, b))
    form = mixed.canonical_ghz_form(tau)
    assert abs(form.a - 0.7) < 1e-12
    assert abs(form.b - 0.2) < 1e-12


def test_phase_layer_identity_on_coherence():
    # conjugating by diag(1, e^{i phi})^{(x)n} multiplies b by e^{-i n phi}
    rng = np.random.default_rng(46)
    for n in (3, 4, 6):
        b = 0.3 * np.exp(1j * rng.uniform(0, 2 * math.pi))
        tau = mixed.ghz_form_density(mixed.GhzForm(n, 0.55, b))
        phi = rng.uniform(0, 2 * math.pi)
        out = states.apply_lu(phase_layer(phi, n), tau)
        hi = (1 << n) - 1
        assert abs(out.mat[0, hi] - b * np.exp(-1j * n * phi)) < 1e-12


def test_equivalent_inputs_canonicalize_identically():
    rng = np.random.default_rng(47)
    for _ in range(5):
        n = 4
        a = rng.uniform(0.5, 0.9)
        bmax = math.sqrt(a * (1 - a))
        b = rng.uniform(0.1, 0.95) * bmax * np.exp(1j * rng.uniform(0, 2 * math.pi))
        tau = mixed.ghz_form_density(mixed.GhzForm(n, a, b))
        twisted = states.apply_lu(phase_layer(rng.uniform(0, 2 * math.pi), n), tau)
        flipped = states.apply_lu(
            states.LocalUnitary.uniform(states.PAULI_X.astype(np.complex128), n),
            twisted,
        )
        f0 = mixed.canonical_ghz_form(tau)
        f1 = mixed.canonical_ghz_form(twisted)
        f2 = mixed.canonical_ghz_form(flipped)
        for f in (f1, f2):
            assert abs(f.a - f0.a) < 1e-9
            assert abs(f.b - f0.b) < 1e-9


def test_off_support_entries_raise_with_witnesses():
    tau = states.to_density(states.dicke(3, 1))
    with pytest.raises(NotGhzFormError) as exc:
        mixed.canonical_ghz_form(tau)
    offending = exc.value.offending
    assert offending
    for i, j, val in offending:
        assert (i, j) not in ((0, 0), (0, 7), (7, 0), (7, 7))
        assert abs(val) > 1e-12


def test_ghz_form_psd_and_pole_validation():
    with pytest.raises(DomainError):
        mixed.GhzForm(3, 0.9, 0.5)  # |b|^2 > a(1-a)
    with pytest.raises(DomainError):
        mixed.GhzForm(3, 1.2, 0.0)
    with pytest.raises(DomainError):
        mixed.GhzForm(3, 0.6, 0.1, pole=3)
    top = mixed.GhzForm(3, 0.6, 0.1, pole=7)
    m = mixed.ghz_form_density(top).mat
    assert m[7, 7] == pytest.approx(0.6)
    assert m[0, 0] == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# two-qubit diagonal support check
# ---------------------------------------------------------------------------


def test_support_check_passes_on_two_pole_state():
    tau = mixed.ghz_form_density(mixed.GhzForm(3, 0.6, 0.3))
    res = mixed.two_qubit_support_check(tau, 0, 1, math.pi / 4)
    assert res.applicable
    assert res.ok
    assert res.witness is None
    assert bool(res)


def test_support_check_not_applicable_when_phase_moves_the_state():
    tau = states.to_density(states.dicke(3, 1))
    res = mixed.two_qubit_support_check(tau, 0, 1, math.pi / 4)
    assert not res.applicable
    assert res.residual > 0.1
    assert res.ok is None
    assert not bool(res)


def test_support_check_flags_injected_coherence():
    # couple the zero string to a neighbor that differs only on qubit 2;
    # the (0, 1)-phase still stabilizes the state, the support test must fail
    m = np.zeros((8, 8), dtype=np.complex128)
    m[0, 0] = 0.6
    m[1, 1] = 0.4
    m[0, 1] = m[1, 0] = 0.1
    tau = states.DensityMatrix(3, m)
    res = mixed.two_qubit_support_check(tau, 0, 1, math.pi / 4)
    assert res.applicable
    assert res.ok is False
    assert res.witness == (0, 1)
    assert not bool(res)


def _first_off_support_entry(mat, n, tol):
    """Reference: row-major scan for an entry coupling a string to neither itself nor its complement."""
    for i in range(1 << n):
        for j in range(1 << n):
            if j not in (i, states.complement(i, n)) and abs(mat[i, j]) > tol:
                return (i, j)
    return None


def test_support_check_witness_matches_the_row_major_scan():
    rng = np.random.default_rng(64)
    for n, k, l in [(3, 0, 1), (3, 2, 0), (4, 1, 3)]:
        bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        label = bits[:, k] - bits[:, l]  # the phase leaves an entry alone iff its labels agree
        for _ in range(4):
            m = np.zeros((1 << n, 1 << n), dtype=np.complex128)
            for value in (-1, 0, 1):
                support = (label == value) & (rng.random(1 << n) < 0.5)
                v = np.where(support, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n), 0)
                m += np.outer(v, v.conj())
            tau = states.DensityMatrix(n, m / np.trace(m).real)
            res = mixed.two_qubit_support_check(tau, k, l, 0.3)
            assert res.applicable
            want = _first_off_support_entry(tau.mat, n, DEFAULT_TOLERANCES.equality)
            assert res.witness == want
            assert res.ok is (want is None)


def test_support_check_argument_validation():
    tau = mixed.ghz_form_density(mixed.GhzForm(3, 0.6, 0.3))
    with pytest.raises(DomainError):
        mixed.two_qubit_support_check(tau, 0, 0, math.pi / 4)
    with pytest.raises(DomainError):
        mixed.two_qubit_support_check(tau, 0, 3, math.pi / 4)
    with pytest.raises(DomainError):
        mixed.two_qubit_support_check(tau, 0, 1, math.pi)
