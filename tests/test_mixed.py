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
    dense = _kernels.conj_distance_batch(angles, _kernels.density_factor(rho.mat), _kernels.density_factor(sigma.mat), n)
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


def reference_turn_coefficients(rho_t, sigma_t, blocks):
    """c_q of the overlap Re sum_q c_q e^{-i q phi}, entry by entry: (a, b) turns by e^{-i (m_a - m_b) phi}."""
    n = blocks.n
    mz = np.concatenate([j - np.arange(round(2 * j) + 1) for j in blocks.spins])
    c = np.zeros(2 * n + 1, dtype=np.complex128)
    for a, b in zip(*np.nonzero(blocks.weight)):
        c[round(mz[a] - mz[b]) + n] += blocks.weight[a, b] * rho_t[a, b] * np.conj(sigma_t[a, b])
    return c


def turn_overlap(c, phis):
    n = (c.size - 1) // 2
    return (np.exp(-1j * np.outer(phis, np.arange(-n, n + 1))) @ c).real


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["random", "symmetric", "flat", "pure_pair", "mixed_pair"]),
    n=st.integers(1, 40),
    m=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_turn_solve_is_never_below_a_dense_scan(kind, n, m, seed):
    rng = np.random.default_rng(seed)
    c = (rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1)) * rng.uniform(1e-3, 1e3)
    if kind == "symmetric":
        # C_m-symmetric: m tied maxima
        c[np.arange(-n, n + 1) % m != 0] = 0.0
    elif kind == "flat":
        c[np.arange(2 * n + 1) != n] = 0.0
    elif kind in ("pure_pair", "mixed_pair"):
        if kind == "pure_pair":
            psi = states.random_symmetric(n, rng).coeffs
            blocks = states.SpinBlocks(n, (n / 2,), (1,))
            rho_t = np.outer(psi, psi.conj())
        else:
            n = 3 + n % 4
            blocks = states.spin_blocks(n)
            rho_t = blocks.compress(full_rank_invariant(n, rng))
        sigma_t = blocks.rotate(states.rz(rng.uniform(-math.pi, math.pi)), rho_t)
        c = reference_turn_coefficients(rho_t, sigma_t, blocks)
    phi, bound = mixed._solve_turn(c)
    assert -math.pi <= phi < math.pi
    scan = turn_overlap(c, 2 * math.pi * np.arange(64 * n) / (64 * n)).max()
    roundoff = 1e-13 * np.abs(c).sum()
    assert turn_overlap(c, [phi])[0] >= scan - roundoff
    # the grid's certificate: its best value plus the Bernstein slack bounds the maximum
    assert bound >= scan - roundoff
    if kind == "flat":
        assert phi == 0.0
    if kind in ("pure_pair", "mixed_pair"):
        # the gather of the coefficients is the reference's
        assert turn_overlap(c, [mixed._best_turn(rho_t, sigma_t, blocks)])[0] >= scan - roundoff


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(2, 40),
    m=st.integers(2, 6),
    zero_is_a_peak=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_tied_turns_are_picked_by_angle_not_by_roundoff(n, m, zero_is_a_peak, seed):
    rng = np.random.default_rng(seed)
    orders = np.arange(-n, n + 1)
    c = (rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1)) * rng.uniform(1e-3, 1e3)
    c[orders % m != 0] = 0.0  # C_m-symmetric: the maxima come in tied orbits of m turns
    if zero_is_a_peak:
        c[orders % m == 0] = np.abs(c[orders % m == 0])  # every term peaks at phi = 0
    phi, _ = mixed._solve_turn(c)
    # the least |phi| of its orbit; only +pi / m and -pi / m tie in |phi|, and then the + one
    assert -math.pi / m - 1e-9 < phi <= math.pi / m + 1e-9
    if zero_is_a_peak:
        assert phi == 0.0
    for _ in range(3):
        perturbed = c * (1 + 1e-15 * rng.normal(size=c.size))
        assert abs(mixed._solve_turn(perturbed)[0] - phi) < 1e-9


def test_pole_turn_is_the_preimage_of_the_minimal_rotation():
    rng = np.random.default_rng(180)
    haar = rng.normal(size=(2000, 3))
    axes = list(haar / np.linalg.norm(haar, axis=1, keepdims=True))
    # on both sides of rotation_between's 1e-12 cut, and of so3_to_su2's sign rule (w = cos(theta / 2) <= 1e-12)
    for off in (0.0, 1e-17, 5e-13, 0.999e-12, 1.001e-12, 1.5e-12, 1.999e-12, 2.001e-12, 1e-9):
        for z in (1.0, -1.0):
            for t in rng.uniform(0, 2 * math.pi, size=4):
                axes.append(np.array([off * math.cos(t), off * math.sin(t), z * math.sqrt(1 - off * off)]))
    for axis in axes:
        g = rotmatch.pole_turn(axis)
        want = rotmatch.so3_to_su2(rotmatch.rotation_between(axis, majorana.NORTH_POLE))
        assert np.max(np.abs(g - want)) <= 1e-15
        off = math.hypot(axis[0], axis[1])
        assert np.max(np.abs(rotmatch.su2_to_so3(g) @ axis - majorana.NORTH_POLE)) <= 1e-15 + 2 * off


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


def test_a_multipole_sigma_lacks_gives_no_candidate():
    # the tetrahedron's first multipole is rank 3; the maximally mixed block has none
    blocks = states.pure_blocks(4)
    psi = majorana.points_to_state(np.array(_TETRAHEDRON, dtype=float))
    rho_b = np.outer(psi.coeffs, psi.coeffs.conj())
    assert mixed.frame_candidates(rho_b, np.eye(5) / 5, blocks) == ([], "frame: rank-3 multipole of spin 2", False)


def test_a_frame_that_is_not_axial_turns_only_rho(monkeypatch):
    # the tetrahedron's rank-3 multipole is not axial, so sigma's goes to the root matches unturned
    turned = []
    original = mixed._axis_turn

    def spy(v):
        turned.append(v)
        return original(v)

    monkeypatch.setattr(mixed, "_axis_turn", spy)
    psi = majorana.points_to_state(np.array(_TETRAHEDRON, dtype=float))
    phi = states.apply_diag_symmetric(states.random_su2(np.random.default_rng(49)), psi)
    g = classify.lu_equivalent_pure(psi, phi)
    assert g is not None and states.apply_diag_symmetric(g, psi).distance(phi) <= 1e-8
    assert len(turned) == 1


def test_no_candidate_rotation_is_undecided(monkeypatch):
    monkeypatch.setattr(mixed, "frame_candidates", lambda rho_b, sigma_b, blocks: ([], "frame: none", False))
    rho = states.random_symmetric_mixed(3, np.random.default_rng(48))
    res = mixed.lu_equivalent_mixed(rho, rho)
    assert (res.status, res.unitary, res.distance) == ("undecided", None, None)
    assert res.detail == "no candidate rotation, frame: none"


def test_dense_recheck_gates_every_equivalent(monkeypatch):
    # a block distance that reads 0 for every candidate must not turn into "equivalent"
    monkeypatch.setattr(states.SpinBlocks, "distance", lambda self, g, form, target: 0.0)
    res = mixed.lu_equivalent_mixed(*_mirror_pair(4, 7))
    assert res.status == "undecided"
    assert res.distance > mixed.default_threshold(4)


def test_decisions_run_no_descent(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the n >= 3 decision must not descend")

    monkeypatch.setattr(search, "gauss_newton", refuse)
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
    candidates, frame, axial = mixed.frame_candidates(rho_b, sigma_b, blocks)
    assert frame == f"frame: rank-{k} multipole of spin {(k + 1) / 2:g}, axial" and axial
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


@pytest.mark.parametrize("n", [2, 3, 5])
def test_reduced_spectra_are_the_partial_traces(n):
    rng = np.random.default_rng(90 + n)
    # independent factors on each qubit, so the qubits' reductions differ
    u = states.LocalUnitary(tuple(states.random_su2(rng) for _ in range(n)))
    rho = states.apply_lu(u, states.random_symmetric_mixed(n, rng, rank=3))
    for k in range(n):
        want = np.sort(np.linalg.eigvalsh(states.reduced_1qubit(rho, k)))[::-1]
        assert np.array_equal(mixed._reduced_spectrum(rho, (k,)), want)  # bit for bit
    # qubits 0 and 1 by an index sum over the rest
    t = rho.mat.reshape(4, 1 << (n - 2), 4, 1 << (n - 2))
    red = np.einsum("aibi->ab", t)
    want = np.sort(np.linalg.eigvalsh(red))[::-1]
    assert np.max(np.abs(mixed._reduced_spectrum(rho, (0, 1)) - want)) < 1e-14


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


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(3, 8), rank=st.sampled_from(["full", 1, 2, 3, 4, 5]), seed=st.integers(0, 2**32 - 1))
def test_block_global_spectrum_is_the_dense_spectrum(n, rank, seed):
    rng = np.random.default_rng(seed)
    rho = full_rank_invariant(n, rng) if rank == "full" else states.random_symmetric_mixed(n, rng, rank)
    blocks = states.spin_blocks(n)
    want = np.sort(np.linalg.eigvalsh(rho.mat))[::-1]
    assert np.max(np.abs(blocks.spectrum(blocks.compress(rho)) - want)) < 1e-12


def _rotated(rho, rng):
    return states.apply_lu(states.LocalUnitary.uniform(states.random_su2(rng), rho.n), rho)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rank_three_against_rank_two_differs_in_the_global_spectrum(n):
    rng = np.random.default_rng(180 + n)
    rho = states.random_symmetric_mixed(n, rng, rank=3)
    sigma = _rotated(states.random_symmetric_mixed(n, rng, rank=2), rng)
    for a, b in ((rho, sigma), (sigma, rho)):
        res = mixed.lu_equivalent_mixed(a, b)
        assert res.status == "inequivalent_spectrum"
        assert res.detail == "global eigenvalue multisets differ"


def test_mixed_decisions_form_no_dense_eigensolve_and_no_kronecker_product(monkeypatch):
    rng = np.random.default_rng(190)
    cases = []
    for n in (3, 4, 5, 6):
        rho = states.random_symmetric_mixed(n, rng)
        cases.append((rho, _rotated(rho, rng), "equivalent", ""))
        other = _rotated(states.random_symmetric_mixed(n, rng, rank=2), rng)
        cases.append((rho, other, "inequivalent_spectrum", "global eigenvalue multisets differ"))
    ghz4, dicke42 = states.to_density(states.ghz(4)), states.to_density(states.dicke(4, 2))
    cases.append((ghz4, _rotated(dicke42, rng), "inequivalent_spectrum", "2-qubit reduced spectra differ"))
    cases.append((*_mirror_pair(4, 7), "undecided", None))
    for rho, *_ in cases:
        states.spin_blocks(rho.n)  # its basis, cached per n, is built with np.kron

    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a mixed decision must not form a Kronecker product")

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    monkeypatch.setattr(np, "kron", refuse)
    monkeypatch.setattr(states.LocalUnitary, "matrix", refuse)
    for rho, sigma, status, detail in cases:
        sizes.clear()
        res = mixed.lu_equivalent_mixed(rho, sigma)
        assert res.status == status
        assert detail is None or res.detail == detail
        assert sizes and max(sizes) <= max(4, rho.n + 1)


def test_one_qubit_pairs_are_decided_by_the_same_route():
    rng = np.random.default_rng(200)
    for _ in range(20):
        rho = states.random_symmetric_mixed(1, rng, rank=2)
        sigma = _rotated(rho, rng)
        res = mixed.lu_equivalent_mixed(rho, sigma)
        assert res.status == "equivalent"
        assert res.distance <= mixed.default_threshold(1)
        check = states.apply_lu(states.LocalUnitary.uniform(res.unitary, 1), rho)
        assert np.linalg.norm(check.mat - sigma.mat) <= mixed.default_threshold(1)
        # a one-qubit state is fixed up to a turn by its spectrum
        res = mixed.lu_equivalent_mixed(rho, states.random_symmetric_mixed(1, rng, rank=2))
        assert res.status == "inequivalent_spectrum"
        assert res.detail == "global eigenvalue multisets differ"
        pure = [states.to_density(states.random_symmetric(1, rng)) for _ in range(2)]
        assert mixed.lu_equivalent_mixed(*pure).status == "equivalent"
    # no multipole: the identity
    center = states.DensityMatrix(1, np.eye(2, dtype=np.complex128) / 2)
    res = mixed.lu_equivalent_mixed(center, center)
    assert res.status == "equivalent" and res.distance == 0.0


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


def reference_defect(rho, tol):
    """The adjacent-swap scan: (k, deviation) of the first swap of qubits k, k + 1 moving rho by more than tol."""
    n = rho.n
    tensor = rho.mat.reshape((2,) * (2 * n))
    for k in range(n - 1):
        perm = list(range(n))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        moved = np.transpose(tensor, perm + [n + p for p in perm]).reshape(rho.mat.shape)
        dev = float(np.max(np.abs(moved - rho.mat)))
        if dev > tol:
            return k, dev
    return None


def added_perturbation(n, kind, rng):
    """A Hermitian, traceless perturbation of n qubits with largest entry 1.

    "bump": one random off-diagonal entry and its mirror.  "cyclic": that
    bump at every cyclic image of its entry, which the cyclic shift leaves
    in place and the swaps do not.  "ramp" (n >= 2): the antisymmetric pair
    terms a_j (X_j Z_j+1 - Z_j X_j+1) around the ring, a_j = min(j, n - j),
    so the swap defects grow away from qubit 0 while the shift changes each
    a_j by 1: the 2 min(k, n - k) delta_c term of the generator bound is needed.
    """
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=np.complex128)
    if kind == "ramp":
        x, z = np.array([[0, 1], [1, 0]]), np.diag([1, -1])

        def pair(j, first, second):
            ops = [np.eye(2)] * n
            ops[j], ops[(j + 1) % n] = first, second
            return functools.reduce(np.kron, ops)

        for j in range(n):
            out += min(j, n - j) * (pair(j, x, z) - pair(j, z, x))
    else:
        i = int(rng.integers(dim))
        j = (i + 1 + int(rng.integers(dim - 1))) % dim
        value = np.exp(1j * rng.uniform(0, 2 * np.pi))
        for shift in range(n if kind == "cyclic" else 1):
            a, b = (((x << shift) | (x >> (n - shift))) & (dim - 1) for x in (i, j))
            out[a, b] += value
            out[b, a] += value.conjugate()
    return out / np.max(np.abs(out))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    n=st.sampled_from(range(8, 0, -1)),
    seed=st.integers(0, 2**32 - 1),
    source=st.sampled_from(["rank1", "rank2", "rank3", "full_rank", "mixed_with_identity"]),
    perturbation=st.sampled_from(["none", "rz", "bump", "cyclic", "ramp"]),
    tol=st.sampled_from([DEFAULT_TOLERANCES.equality, DEFAULT_TOLERANCES.hermiticity * 10]),
)
def test_permutation_defect_matches_the_adjacent_swap_scan(n, seed, source, perturbation, tol):
    # the generator bound decides only when every swap passes; whatever it
    # reads, the answer is the scan's, deviation and all, for perturbations
    # that move the state by a log-uniform factor of tol either way
    rng = np.random.default_rng(seed)
    dim = 1 << n
    if source == "full_rank":
        mat = full_rank_invariant(n, rng).mat
    else:
        rank = {"rank1": 1, "rank2": 2}.get(source, 3)
        mat = states.random_symmetric_mixed(n, rng, rank=rank).mat
    added = perturbation in ("bump", "cyclic") or (perturbation == "ramp" and n >= 2)
    if source == "mixed_with_identity" or added:
        # the identity fills the blocks with m_j > 1, and keeps an added Hermitian perturbation PSD
        p = rng.uniform(0.2, 0.8)
        mat = p * mat + (1 - p) * np.eye(dim) / dim
    size = tol * 10 ** rng.uniform(-1, 1)
    if perturbation == "rz":
        factors = [np.eye(2, dtype=np.complex128)] * n
        factors[rng.integers(n)] = states.rz(size)
        mat = states.conjugate_local(tuple(factors), mat)
    elif added:
        mat = mat + size * added_perturbation(n, perturbation, rng)
    rho = states.DensityMatrix(n, mat)
    assert states.permutation_defect(rho, tol) == reference_defect(rho, tol)


def test_an_invariant_state_is_certified_without_a_permuted_copy(monkeypatch):
    rng = np.random.default_rng(7)
    invariant = full_rank_invariant(7, rng)
    calls = []
    permuted = states._permuted
    monkeypatch.setattr(states, "_permuted", lambda *args: calls.append(args) or permuted(*args))
    assert states.permutation_defect(invariant) is None
    assert states.is_permutation_invariant(invariant)
    assert calls == []
    # a defect still comes from the scan, which names the first failing swap
    factors = [np.eye(2, dtype=np.complex128)] * 7
    factors[4] = states.rz(1e-3)
    broken = states.DensityMatrix(7, states.conjugate_local(tuple(factors), invariant.mat))
    k, dev = states.permutation_defect(broken)
    assert k == 3 and dev > 1e-8
    assert calls


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


def _two_qubit_state(kind, rank, rng):
    """A Ginibre state of the given rank, or a mixture of rank symmetric pure states."""
    if kind == "symmetric":
        return states.random_symmetric_mixed(2, rng, rank=rank)
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    mat = g @ g.conj().T
    return states.DensityMatrix(2, mat / np.trace(mat).real)


def _dense_distance(g12, rho, sigma):
    big = np.kron(*g12)
    return float(np.linalg.norm(big @ rho.mat @ big.conj().T - sigma.mat))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["ginibre", "symmetric"]),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_factor_search_recovers_every_turned_pair(kind, rank, seed):
    rng = np.random.default_rng(seed)
    rank = min(rank, 3) if kind == "symmetric" else rank
    rho = _two_qubit_state(kind, rank, rng)
    u = states.LocalUnitary((states.random_su2(rng), states.random_su2(rng)))
    sigma = states.apply_lu(u, rho)
    res = mixed.two_factor_search(rho, sigma)
    assert res.status == "equivalent"
    assert res.unitary.shape == (2, 2, 2)
    # the reported distance is, bit for bit, that of the reported pair; the
    # Kronecker product, which rounds in another order, agrees to roundoff
    assert res.distance == float(np.linalg.norm(states.conjugate_local(res.unitary, rho.mat) - sigma.mat))
    assert abs(_dense_distance(res.unitary, rho, sigma) - res.distance) <= 1e-15
    assert res.distance <= mixed.default_threshold(2)
    # a pure state is LU-equivalent to its conjugate (real Schmidt form); a
    # generic mixed one is not: conjugation reflects both Bloch frames
    mirror = states.DensityMatrix(2, rho.mat.conj())
    assert mixed.two_factor_search(rho, mirror).status == ("equivalent" if rank == 1 else "undecided")


_LOCAL_BASIS = (np.eye(2), states.PAULI_X, states.PAULI_Y, states.PAULI_Z)


def _bloch_state(s, p, beta):
    """(1 + s.sigma (x) 1 + 1 (x) p.sigma + sum_ab beta_ab sigma_a (x) sigma_b) / 4."""
    coeffs = np.block([[np.ones((1, 1)), np.reshape(p, (1, 3))], [np.reshape(s, (3, 1)), np.asarray(beta)]])
    mat = sum(coeffs[a, b] * np.kron(_LOCAL_BASIS[a], _LOCAL_BASIS[b]) for a in range(4) for b in range(4)) / 4
    assert np.linalg.eigvalsh(mat).min() >= -1e-12
    return states.DensityMatrix(2, mat)


def _bell_diagonal(*weights):
    """The correlation matrix of weights on Phi+, Phi-, Psi+ and Psi-: diag(XX, YY, ZZ)."""
    return np.diag(np.asarray(weights) @ [[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])


def _correlation(rho):
    """beta_ab = tr(rho sigma_a (x) sigma_b)."""
    return np.array([[np.trace(rho.mat @ np.kron(a, b)).real for b in _LOCAL_BASIS[1:]] for a in _LOCAL_BASIS[1:]])


_UP, _TILTED = np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8])
_TWO_QUBIT_FAMILIES = {
    # ties in the correlation matrix's singular values make the answer a family
    "pure product": ((_UP, _TILTED, np.outer(_UP, _TILTED)), 101),
    "mixed product": ((0.5 * _UP, 0.3 * _TILTED, 0.15 * np.outer(_UP, _TILTED)), 102),
    "werner 0.3": (((0, 0, 0), (0, 0, 0), -0.3 * np.eye(3)), 103),
    "werner 0.7": (((0, 0, 0), (0, 0, 0), -0.7 * np.eye(3)), 104),
    # the tied pair that the CI runtime job decides
    "bell tied": (((0, 0, 0), (0, 0, 0), _bell_diagonal(0.4, 0.4, 0.1, 0.1)), 111),
    "bell distinct": (((0, 0, 0), (0, 0, 0), _bell_diagonal(0.5, 0.25, 0.15, 0.1)), 105),
    "werner with fields": ((0.1 * _UP, 0.05 * _TILTED, -0.5 * np.eye(3)), 106),
    "bell tied with fields": ((0.1 * _TILTED, 0.1 * _UP, _bell_diagonal(0.4, 0.4, 0.1, 0.1)), 107),
    "identity with a field": ((0.4 * _UP, (0, 0, 0), np.zeros((3, 3))), 108),
    "ghz2": (((0, 0, 0), (0, 0, 0), _bell_diagonal(1, 0, 0, 0)), 109),
    "singlet": (((0, 0, 0), (0, 0, 0), -np.eye(3)), 110),
    "werner near a tie": (((0, 0, 0), (0, 0, 0), -0.5 * np.diag([1 + 1e-9, 1, 1 - 1e-9])), 112),
    "bell near a tie": (((0, 0, 0), (0, 0, 0), _bell_diagonal(0.4 + 1e-9, 0.4, 0.1, 0.1 - 1e-9)), 113),
}


@pytest.mark.parametrize("family", sorted(_TWO_QUBIT_FAMILIES))
def test_two_factor_search_recovers_tied_correlation_frames(family):
    bloch, seed = _TWO_QUBIT_FAMILIES[family]
    rng = np.random.default_rng(seed)
    rho = _bloch_state(*bloch)
    sigma = states.apply_lu(states.LocalUnitary((states.random_su2(rng), states.random_su2(rng))), rho)
    res = mixed.two_factor_search(rho, sigma)
    assert res.status == "equivalent", res.detail
    assert _dense_distance(res.unitary, rho, sigma) <= mixed.default_threshold(2)


@pytest.mark.parametrize("kind", ["ginibre", "diagonal"])
def test_two_factor_search_refines_exactly_the_four_frame_starts(monkeypatch, kind):
    rng = np.random.default_rng(46)
    # numpy's SVD gives this diagonal correlation matrix and its turn frames of opposite handedness
    diagonal = _bloch_state(0.1 * _UP, 0.1 * _TILTED, np.diag([-0.2, 0.25, 0.1]))
    rho = _two_qubit_state("ginibre", 2, rng) if kind == "ginibre" else diagonal
    g12 = np.array([states.random_su2(rng), states.random_su2(rng)])
    sigma = states.apply_lu(states.LocalUnitary(tuple(g12)), rho)
    refine, seen = mixed.refine_minimum, []

    def spy(model, starts):
        seen.append(np.array(starts))
        return refine(model, starts)

    monkeypatch.setattr(mixed, "refine_minimum", spy)
    assert mixed.two_factor_search(rho, sigma).status == "equivalent"
    [starts] = seen
    assert starts.shape == (4, 2, 2, 2)
    beta_rho, beta_sigma = _correlation(rho), _correlation(sigma)
    # distinct singular values: exactly four pairs (R1, R2) carry beta_rho onto
    # beta_sigma, one for each sign flip of the frames, and they are the starts
    assert np.diff(np.linalg.svd(beta_rho, compute_uv=False)).max() < -1e-3
    rots = rotmatch.su2_to_so3(starts)
    assert max(np.abs(r1 @ beta_rho @ r2.T - beta_sigma).max() for r1, r2 in rots) < 1e-12
    assert min(np.abs(rots[i] - rots[j]).max() for i in range(4) for j in range(i)) > 0.1
    assert np.abs(rots - rotmatch.su2_to_so3(g12)).max(axis=(1, 2, 3)).min() < 1e-12


def test_two_factor_search_compares_each_qubits_spectrum():
    a, b = np.diag([0.8, 0.2]), np.diag([0.6, 0.4])
    rho, swapped = states.DensityMatrix(2, np.kron(a, b)), states.DensityMatrix(2, np.kron(b, a))
    assert mixed.spectra_report(rho).global_spectrum == mixed.spectra_report(swapped).global_spectrum
    res = mixed.two_factor_search(rho, swapped)
    assert res.status == "inequivalent_spectrum"
    assert res.detail == "1-qubit reduced spectra differ"
    # the same populations in another order: the global spectrum and qubit 0's
    # agree, and only qubit 1's, (0.7, 0.3) against (0.6, 0.4), tells them apart
    upper = states.DensityMatrix(2, np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex))
    lower = states.DensityMatrix(2, np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex))
    assert mixed.spectra_report(upper) == mixed.spectra_report(lower)
    res = mixed.two_factor_search(upper, lower)
    assert res.status == "inequivalent_spectrum"
    assert res.detail == "1-qubit reduced spectra differ"


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
