"""Brute-force dense oracles: stabilizer residuals, sampling, spectra."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from symmlu import _kernels, classify, majorana, mixed, search, states, verify
from symmlu.classify import StabilizerClass
from symmlu.errors import DomainError


def tetrahedron_state():
    pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    return majorana.points_to_state(pts)


def octahedron_state():
    return majorana.points_to_state(np.vstack([np.eye(3), -np.eye(3)]))


def icosahedron_state():
    phi = (1 + math.sqrt(5)) / 2
    raw = [pt for a in (-1.0, 1.0) for b in (-phi, phi) for pt in ([0, a, b], [a, b, 0], [b, 0, a])]
    return majorana.points_to_state(np.array(raw) / math.sqrt(1 + phi**2))


def test_stabilizer_search_config_rejects_degenerate_settings():
    verify.StabilizerSearchConfig(grid=4, max_descents=2)  # the smallest useful search
    assert [f.name for f in dataclasses.fields(verify.StabilizerSearchConfig)] == ["grid", "max_descents"]
    with pytest.raises(DomainError):
        verify.StabilizerSearchConfig(max_descents=0)
    # the membership threshold is a constant, not a setting
    assert verify.StabilizerSearchConfig().membership_tol == 1e-5
    with pytest.raises(TypeError):
        verify.StabilizerSearchConfig(membership_tol=1.0)


@pytest.mark.parametrize("grid", [0, 3])
def test_oracles_reject_a_degenerate_grid(grid):
    # grid=0 would give an empty lattice, in which the search finds nothing
    with pytest.raises(DomainError, match="at least 4 points"):
        verify.sample_stabilizer(states.to_density(states.ghz(3)), verify.StabilizerSearchConfig(grid=grid))


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------


def test_identity_stabilizes_everything():
    rng = np.random.default_rng(51)
    rho = states.random_symmetric_mixed(3, rng)
    w = verify.check_stabilizes(
        states.LocalUnitary.uniform(np.eye(2, dtype=np.complex128), 3), rho
    )
    assert w.residual == 0.0


def test_two_pole_generator_with_flip_stabilizes_ghz():
    sampler = classify.stabilizer_generators(StabilizerClass("iia"), 3)
    u = sampler.unit((math.pi / 3, math.pi / 5), flip=True)
    rho = states.to_density(states.ghz(3))
    w = verify.check_stabilizes(u, rho)
    assert w.residual <= 1e-10


def test_identical_diagonal_stabilizes_dicke():
    g = np.diag([np.exp(1j * math.pi / 8), np.exp(-1j * math.pi / 8)])
    u = states.LocalUnitary.uniform(g.astype(np.complex128), 3)
    rho = states.to_density(states.dicke(3, 1))
    w = verify.check_stabilizes(u, rho)
    assert w.residual <= 1e-10


def test_singlet_is_stabilized_by_identical_pairs():
    rng = np.random.default_rng(52)
    rho = states.to_density(states.singlet())
    sampler = classify.stabilizer_generators(StabilizerClass("iii"), 2)
    for _ in range(100):
        u = sampler.unit((states.random_su2(rng),))
        assert verify.check_stabilizes(u, rho).residual <= 1e-10


def test_arity_mismatch_raises():
    u = states.LocalUnitary.uniform(np.eye(2, dtype=np.complex128), 3)
    with pytest.raises(DomainError):
        verify.check_stabilizes(u, states.to_density(states.ghz(4)))


def test_witness_rejects_negative_residual():
    u = states.LocalUnitary.uniform(np.eye(2, dtype=np.complex128), 2)
    with pytest.raises(DomainError):
        verify.StabilizerWitness(u, -1e-3)


# ---------------------------------------------------------------------------
# blind stabilizer sampling
# ---------------------------------------------------------------------------


def test_sample_stabilizer_on_ghz3_finds_both_families():
    rho = states.to_density(states.ghz(3))
    witnesses = verify.sample_stabilizer(rho)
    assert witnesses
    for w in witnesses:
        assert w.residual <= 1e-8
    # the compensating diagonal family must appear beyond the identity
    diag_found = 0
    for w in witnesses:
        mats = [np.asarray(f) for f in w.unitary.factors]
        if all(abs(m[0, 1]) + abs(m[1, 0]) < 1e-6 for m in mats):
            diag_found += 1
    assert diag_found > 1


def test_sample_stabilizer_tetrahedron_count():
    # the blind search over both families collapses to the 12 rotations
    rho = states.to_density(tetrahedron_state())
    witnesses = verify.sample_stabilizer(rho)
    assert len(witnesses) == 12


def test_flat_objective_takes_no_step_and_keeps_the_identity():
    # every local unitary stabilizes I/8: the Gauss-Newton matrix is zero
    # everywhere and the refinement must not step on roundoff gradients
    rho = states.DensityMatrix(3, np.eye(8) / 8)
    witnesses = verify.sample_stabilizer(rho)
    identity = states.LocalUnitary.uniform(np.eye(2, dtype=np.complex128), 3)
    assert any(w.unitary.projectively_equal(identity) for w in witnesses)
    assert max(w.residual for w in witnesses) <= 1e-8


@pytest.mark.parametrize("n, k", [(4, 1), (4, 3), (6, 2), (6, 3), (6, 4)])
def test_flat_stabilizer_families_keep_the_damped_solve_regular(n, k):
    # along a continuous stabilizer family the Gauss-Newton matrix is
    # singular, with roundoff eigenvalues below zero: a damping that shrinks
    # with no floor leaves gn + lam I singular, and the solve raised
    psi = states.dicke(n, k)
    witnesses = verify.sample_stabilizer(states.to_density(psi))
    assert witnesses
    assert max(w.residual for w in witnesses) <= 1e-8
    assert verify.stabilizer_anomalies(psi) == ()


@pytest.mark.parametrize("make", [tetrahedron_state, octahedron_state, lambda: states.ghz(5), lambda: states.dicke(4, 2)])
def test_class_summed_phase_table_gives_the_entry_residual(make):
    rho = states.to_density(make())
    vals, diffs = verify._entry_table(rho)
    class_vals, class_diffs = verify._difference_classes(vals, diffs)
    assert len(class_vals) < len(vals)
    assert not np.any(np.all(class_diffs == 0, axis=1))
    phis = np.random.default_rng(57).uniform(0, 2 * math.pi, size=(40, rho.n))
    phis[0] = 0.0
    residual = _kernels.diag_phase_residual(phis, vals, diffs)
    assert np.max(np.abs(_kernels.diag_phase_residual(phis, class_vals, class_diffs) - residual)) <= 1e-14


def test_difference_classes_are_the_row_unique_classes():
    # the reference groups the canonical rows by np.unique(axis=0)
    for n in range(1, 9):
        rho = states.random_symmetric_mixed(n, np.random.default_rng(59 + n))
        vals, diffs = verify._entry_table(rho)
        lead = np.take_along_axis(diffs, np.argmax(diffs != 0, axis=1)[:, None], axis=1)
        classes, inverse = np.unique(np.where(lead < 0, -diffs, diffs), axis=0, return_inverse=True)
        sums = np.bincount(inverse.ravel(), weights=vals, minlength=len(classes))
        moving = np.any(classes != 0, axis=1)
        got_sums, got_classes = verify._difference_classes(vals, diffs)
        assert np.array_equal(got_sums, sums[moving]) and np.array_equal(got_classes, classes[moving])


def _in_diag_subgroup(phi, finite, directions) -> bool:
    """Whether phi is, mod 2 pi, a finite element plus a real combination of the directions.

    Solved as phi - f - 2 pi z in the span of the directions for an integer z:
    a point C t of the subtorus with t in [0, 2 pi)^c differs from its wrap
    into (-pi, pi] by 2 pi z with |z_k| <= 1/2 + sum_i |C_ki|, so a box of z
    that size decides.
    """
    n = len(phi)
    proj = np.eye(n) - directions @ np.linalg.pinv(directions) if directions.size else np.eye(n)
    reach = [math.ceil(0.5 + r) for r in np.sum(np.abs(directions), axis=1)]
    zs = search.lattice(*(np.arange(-r, r + 1) for r in reach))
    for f in finite:
        x = (phi - f + math.pi) % (2 * math.pi) - math.pi
        if np.min(np.linalg.norm((x[None] - 2 * math.pi * zs) @ proj.T, axis=1)) < 1e-9:
            return True
    return False


@pytest.mark.parametrize(
    "make, per_qubit, order, continuous",
    [
        (tetrahedron_state, 12, 2, 0),
        (lambda: states.ghz(3), 12, 1, 2),
        (lambda: states.dicke(4, 2), 12, 1, 1),
        (lambda: states.dicke(3, 1), 12, 1, 1),
        (lambda: np.eye(8) / 8, 12, 1, 3),
        (octahedron_state, 4, 4, 0),  # spacing pi / 2
    ],
    ids=["tetrahedron", "ghz3", "dicke42", "dicke31", "maximally-mixed", "octahedron"],
)
def test_exact_diagonal_group_holds_every_lattice_witness(make, per_qubit, order, continuous):
    # the reference is the lattice search's acceptance: the class-free entry
    # residual, then the dense conjugation, at every point of the phase lattice
    made = make()
    rho = states.DensityMatrix(3, made) if isinstance(made, np.ndarray) else states.to_density(made)
    n = rho.n
    finite, directions = verify._diag_subgroup(rho)
    assert (len(finite), directions.shape) == (order, (n, continuous))
    vals, diffs = verify._entry_table(rho)
    points = search.lattice(*([np.linspace(0.0, 2 * math.pi, per_qubit, endpoint=False)] * n))
    residual = _kernels.diag_phase_residual(points, vals, diffs)
    accepted = points[residual <= 1e-8]
    assert len(accepted) >= order
    assert not any(_in_diag_subgroup(phi, finite, directions) for phi in points[residual > 1e-3][:50])
    for phi in accepted:
        u = states.LocalUnitary(tuple(np.diag([1.0, np.exp(1j * t)]) for t in phi))
        assert verify.check_stabilizes(u, rho).residual <= 1e-8
        assert _in_diag_subgroup(phi, finite, directions), phi
    # the reported group is no larger than the stabilizer: each element, and
    # each direction at an arbitrary angle, passes the dense check
    for phi in np.concatenate([finite, 0.7 * directions.T]):
        u = states.LocalUnitary(tuple(np.diag([1.0, np.exp(1j * t)]) for t in phi))
        assert verify.check_stabilizes(u, rho).residual <= 1e-8


def test_diagonal_group_of_the_tetrahedron_is_the_z_half_turn():
    finite, directions = verify._diag_subgroup(states.to_density(tetrahedron_state()))
    assert directions.size == 0
    # the identity and diag(1, -1) on every qubit
    assert sorted(np.round(finite / math.pi, 12).tolist()) == [[0.0] * 4, [1.0] * 4]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_diagonal_group_of_ghz_and_dicke(n):
    finite, directions = verify._diag_subgroup(states.to_density(states.ghz(n)))
    assert (len(finite), directions.shape[1]) == (1, n - 1)
    assert np.all(directions.sum(axis=0) == 0)  # the phases sum to 0
    finite, directions = verify._diag_subgroup(states.to_density(states.dicke(n, n // 2)))
    assert (len(finite), directions.shape[1]) == (1, 1)
    assert abs(directions[:, 0].sum()) == n  # one phase on every qubit


def test_diagonal_form_clears_an_integer_matrix():
    rng = np.random.default_rng(58)
    for _ in range(20):
        m, n = rng.integers(1, 7), rng.integers(1, 6)
        d = rng.integers(-3, 4, size=(m, n))
        s, v = verify._diagonal_form(d.tolist(), n)
        v = np.array(v, dtype=np.int64)
        assert round(abs(np.linalg.det(v))) == 1
        assert len(s) == np.linalg.matrix_rank(d) and all(si > 0 for si in s)
        dv = d @ v
        assert not np.any(dv[:, len(s) :])  # the kernel
        # D V = U^{-1} diag(s): column i is s_i times an integer column
        for i, si in enumerate(s):
            assert np.all(dv[:, i] % si == 0)


def test_sample_stabilizer_requires_permutation_invariance():
    vec = np.zeros(8, dtype=np.complex128)
    vec[1] = 1.0
    rho = states.DensityMatrix(3, np.outer(vec, vec.conj()))
    # |001> is fixed by the swap of qubits 0 and 1, and moved by that of 1 and 2
    with pytest.raises(DomainError, match="permutation-invariant state: swapping qubits 1 and 2 moves it by 1$"):
        verify.sample_stabilizer(rho)


@pytest.mark.parametrize("state", [states.dicke(4, 1), states.expand(states.ghz(3))], ids=["symmetric", "expanded"])
def test_sample_stabilizer_names_the_density_matrix_it_expects(state):
    with pytest.raises(DomainError, match=r"expects a DensityMatrix, got \w*PureState; states\.to_density"):
        verify.sample_stabilizer(state)
    assert verify.sample_stabilizer(states.to_density(state))


def test_the_other_entry_points_name_the_state_they_expect():
    psi = states.dicke(4, 1)
    rho = states.to_density(psi)
    pure = r"expects a SymmetricPureState, got DensityMatrix; "
    with pytest.raises(DomainError, match=pure + r"mixed\.lu_equivalent_mixed"):
        verify.lu_equivalent_pure_bruteforce(rho, rho)
    with pytest.raises(DomainError, match=pure + r"mixed\.lu_equivalent_mixed"):
        verify.lu_equivalent_pure_bruteforce(psi, rho)
    with pytest.raises(DomainError, match=pure + r"sample_stabilizer"):
        verify.stabilizer_anomalies(rho)
    u = states.LocalUnitary.uniform(states.rz(0.3), 4)
    with pytest.raises(DomainError, match=r"expects a DensityMatrix, got SymmetricPureState; states\.to_density"):
        verify.check_stabilizes(u, psi)
    assert verify.check_stabilizes(u, rho).residual <= 1e-12


def test_dense_cap_blocks_large_n():
    coeffs = np.zeros(12, dtype=np.complex128)
    coeffs[0] = 1.0
    psi = states.SymmetricPureState.from_unnormalized(coeffs)  # n = 11
    with pytest.raises(DomainError):
        verify.lu_equivalent_pure_bruteforce(psi, psi)


# ---------------------------------------------------------------------------
# membership and anomalies
# ---------------------------------------------------------------------------


def test_class_membership_distance_accepts_family_elements():
    rng = np.random.default_rng(53)
    sampler = classify.stabilizer_generators(StabilizerClass("iia"), 3)
    for _ in range(3):
        u = sampler.random(rng)
        assert verify.class_membership_distance(sampler, u) < 1e-6


def test_class_membership_distance_rejects_outsiders():
    sampler = classify.stabilizer_generators(StabilizerClass("ivb", k=1), 3)
    outsider = states.LocalUnitary.uniform(states.rx(1.0), 3)
    assert verify.class_membership_distance(sampler, outsider) > 1e-2


def test_membership_on_finite_group():
    res = classify.classify_state(tetrahedron_state())
    sampler = res.sampler
    inside = sampler.unit((3,))
    assert verify.class_membership_distance(sampler, inside) < 1e-9
    rng = np.random.default_rng(54)
    outsider = states.LocalUnitary.uniform(states.random_su2(rng), 4)
    assert verify.class_membership_distance(sampler, outsider) > 1e-3


@pytest.mark.parametrize("make, order", [(tetrahedron_state, 12), (octahedron_state, 24), (icosahedron_state, 60)])
def test_finite_membership_equals_the_element_by_element_loop(make, order):
    sampler = classify.classify_state(make()).sampler
    assert len(sampler.sclass.group.elements) == order
    n = sampler.n
    rng = np.random.default_rng(58)
    nudge = states.LocalUnitary.uniform(_kernels.euler_su2(1e-7, 2e-7, -1e-7), n)
    candidates = [
        sampler.unit((order // 2,)),
        sampler.unit((1,)).compose(nudge),
        states.LocalUnitary.uniform(states.random_su2(rng), n),
        states.LocalUnitary(tuple(states.random_su2(rng) for _ in range(n))),
        states.LocalUnitary.uniform(states.PAULI_X, n),  # orthogonal to the identity element
    ]
    for u in candidates:
        loop = min(u.projective_distance(sampler.unit((idx,))) for idx in range(order))
        assert abs(verify.class_membership_distance(sampler, u) - loop) <= 1e-15


# every continuous class with its allowed qubit counts
CONTINUOUS = (
    [("i", n) for n in range(2, 9)]
    + [("iia", n) for n in range(2, 9)]
    + [("iib", n) for n in range(2, 9)]
    + [("iva", n) for n in range(2, 9, 2)]
    + [("ivb", n) for n in range(3, 9)]
    + [("iii", 2)]
)


def continuous_sampler(tag, n):
    params = {"iib": {"t": 0.3}, "ivb": {"k": 1}}.get(tag, {})
    return classify.stabilizer_generators(StabilizerClass(tag, **params), n)


def random_member(sampler, flip, rng):
    """A family element with a random global phase on each factor."""
    if sampler.sclass.tag == "iii":
        u = sampler.random(rng)
    else:
        u = sampler.unit(tuple(rng.uniform(0, 2 * math.pi, sampler.continuous_dim)), flip)
    phases = np.exp(1j * rng.uniform(0, 2 * math.pi, sampler.n))
    return states.LocalUnitary(tuple(p * f for p, f in zip(phases, u.factors)))


def family_phases(tag, n, params):
    """Per-qubit rz phases (rows, n) of the diagonal family at parameter rows."""
    if tag == "i":
        return params
    if tag in ("iia", "iib"):
        return np.hstack([params, -params.sum(axis=1, keepdims=True)])
    return np.repeat(params, n, axis=1)  # iva, ivb


def lattice_distances(factors, gates):
    """max over qubits of the phase-aligned distance of gates (rows, n, 2, 2) to factors, by traces."""
    overlap = np.abs(np.einsum("rkji,kji->rk", gates.conj(), factors))
    return np.sqrt(np.maximum(4.0 - 2.0 * overlap, 0.0)).max(axis=1)


def nelder_mead(objective, x0):
    return minimize(
        objective, x0, method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-15, "maxfev": 4000}
    ).fun


def reference_distance(sampler, u):
    """Distance from u to the family found by a dense search: an upper bound on the minimum.

    A lattice plus Nelder-Mead where the family has at most 3 parameters
    (class iii on an Euler lattice), a fine scan for the one-phase classes,
    and for every diagonal class a Nelder-Mead polish from the closed form's
    own fit, which a fit that is off the minimum would improve on.
    """
    tag, n = sampler.sclass.tag, sampler.n
    factors = np.array(u.factors)
    if tag == "iii":
        points = search.euler_lattice(16)
        gs = _kernels.euler_su2_batch(points)
        vals = lattice_distances(factors, np.stack([gs, gs], axis=1))
        x0 = points[int(np.argmin(vals))]
        polished = nelder_mead(lambda x: u.projective_distance(sampler.unit((_kernels.euler_su2(*x),))), x0)
        return min(float(vals.min()), polished)
    dim = sampler.continuous_dim
    best = math.inf
    for flip in (False, True) if sampler.has_flip else (False,):

        def objective(x, flip=flip):
            return u.projective_distance(sampler.unit(tuple(x), flip))

        layer = factors @ states.PAULI_X if flip else factors
        starts = [verify._fit_phases(tag, layer)]
        if dim <= 2:
            axis = np.linspace(0.0, 2 * math.pi, 8192 if dim == 1 else 96, endpoint=False)
            params = search.lattice(*([axis] * dim))
            t = family_phases(tag, n, params)
            gates = np.zeros(t.shape + (2, 2), dtype=np.complex128)
            gates[..., 0, 0], gates[..., 1, 1] = np.exp(-0.5j * t), np.exp(0.5j * t)
            if flip:
                gates = gates @ states.PAULI_X
            vals = lattice_distances(factors, gates)
            best = min(best, float(vals.min()))
            starts.append(params[int(np.argmin(vals))])
        best = min([best] + [nelder_mead(objective, x0) for x0 in starts])
    return best


@settings(derandomize=True, max_examples=80, deadline=None)
@given(case=st.sampled_from(CONTINUOUS), flip=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_members_of_every_continuous_class_score_at_roundoff(case, flip, seed):
    sampler = continuous_sampler(*case)
    u = random_member(sampler, flip and sampler.has_flip, np.random.default_rng(seed))
    assert verify.class_membership_distance(sampler, u) <= 1e-12


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    case=st.sampled_from(CONTINUOUS),
    flip=st.booleans(),
    scale=st.sampled_from([1e-3, 0.3, None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_is_no_worse_than_a_dense_search(case, flip, scale, seed):
    # outsiders far from the family (scale None) and members moved by a
    # small rotation, near which the minimum sits at a kink of the max
    rng = np.random.default_rng(seed)
    sampler = continuous_sampler(*case)
    n = sampler.n
    if scale is None:
        kicks = [states.random_su2(rng) for _ in range(n)]
    else:
        kicks = [_kernels.euler_su2(*(scale * rng.normal(size=3))) for _ in range(n)]
    member = random_member(sampler, flip and sampler.has_flip, rng)
    u = states.LocalUnitary(tuple(f @ k for f, k in zip(member.factors, kicks)))
    got = verify.class_membership_distance(sampler, u)
    assert got <= reference_distance(sampler, u) + 1e-9


def test_ghz5_members_are_members():
    # the lattice search put 3 of these 10 members above membership_tol
    sampler = classify.classify_state(states.ghz(5)).sampler
    rng = np.random.default_rng(7)
    for _ in range(10):
        assert verify.class_membership_distance(sampler, sampler.random(rng)) <= 1e-12


def test_membership_needs_matching_arity():
    sampler = continuous_sampler("iia", 3)
    with pytest.raises(DomainError, match="arity"):
        verify.class_membership_distance(sampler, states.LocalUnitary.uniform(np.eye(2), 4))


def test_no_anomalies_for_ghz3():
    assert verify.stabilizer_anomalies(states.ghz(3)) == ()


def test_no_anomalies_for_random_trivial_state():
    rng = np.random.default_rng(55)
    psi = states.random_symmetric(3, rng)
    assert verify.stabilizer_anomalies(psi) == ()


@pytest.mark.parametrize(
    ("other", "count"),
    [(states.random_symmetric(4, np.random.default_rng(1)), 11), (states.ghz(4), 8)],
    ids=["trivial", "ghz4"],
)
def test_witnesses_outside_a_wrong_class_are_anomalies(other, count):
    # the tetrahedron's 12 rotations against a trivial group (all but the identity) and GHZ_4's class iia
    witnesses = verify.sample_stabilizer(states.to_density(tetrahedron_state()))
    assert len(witnesses) == 12
    anomalies = verify.witness_anomalies(witnesses, classify.classify_state(other))
    assert len(anomalies) == count
    assert all(d > 1e3 * verify.StabilizerSearchConfig.membership_tol for _, d in anomalies)


# ---------------------------------------------------------------------------
# spectra and brute-force equivalence
# ---------------------------------------------------------------------------


def test_spectra_of_pure_state():
    rep = verify.spectra_report(states.to_density(states.ghz(3)))
    assert rep.global_spectrum[0] == pytest.approx(1.0, abs=1e-12)
    assert max(abs(v) for v in rep.global_spectrum[1:]) < 1e-12


def test_spectra_of_two_pole_forms():
    pure = verify.spectra_report(
        mixed.ghz_form_density(mixed.GhzForm(3, 0.5, 0.5))
    )
    assert pure.global_spectrum[0] == pytest.approx(1.0, abs=1e-12)

    rep = verify.spectra_report(
        mixed.ghz_form_density(mixed.GhzForm(3, 0.5, 0.25))
    )
    nonzero = [v for v in rep.global_spectrum if abs(v) > 1e-12]
    assert nonzero == pytest.approx([0.75, 0.25], abs=1e-12)
    assert rep.to_dict()["global_spectrum"][0] == pytest.approx(0.75)


def test_bruteforce_agrees_with_configuration_route():
    rng = np.random.default_rng(56)
    for _ in range(4):
        psi = states.random_symmetric(4, rng)
        g = states.random_su2(rng)
        phi = states.apply_diag_symmetric(g, psi)
        assert classify.lu_equivalent_pure(psi, phi) is not None
        assert verify.lu_equivalent_pure_bruteforce(psi, phi) is not None
    for _ in range(4):
        a = states.random_symmetric(4, rng)
        b = states.random_symmetric(4, rng)
        assert classify.lu_equivalent_pure(a, b) is None
        assert verify.lu_equivalent_pure_bruteforce(a, b) is None


def test_bruteforce_result_is_sound():
    rng = np.random.default_rng(57)
    psi = states.random_symmetric(3, rng)
    phi = states.apply_diag_symmetric(states.random_su2(rng), psi)
    g = verify.lu_equivalent_pure_bruteforce(psi, phi)
    assert g is not None
    rho = states.apply_lu(
        states.LocalUnitary.uniform(g, 3), states.to_density(psi)
    )
    assert np.linalg.norm(rho.mat - states.to_density(phi).mat) <= 1e-7


@settings(derandomize=True, max_examples=24, deadline=None)
@given(n=st.integers(3, 6), seed=st.integers(0, 2**32 - 1))
def test_bruteforce_recovers_rotated_pairs_and_rejects_others(n, seed):
    rng = np.random.default_rng(seed)
    psi = states.random_symmetric(n, rng)
    phi = states.apply_diag_symmetric(states.random_su2(rng), psi)
    g = verify.lu_equivalent_pure_bruteforce(psi, phi)
    assert g is not None
    moved = states.apply_lu(states.LocalUnitary.uniform(g, n), states.to_density(psi))
    assert np.linalg.norm(moved.mat - states.to_density(phi).mat) <= mixed.default_threshold(n)
    other = states.random_symmetric(n, rng)
    if classify.lu_equivalent_pure(psi, other) is None:
        assert verify.lu_equivalent_pure_bruteforce(psi, other) is None


def _plain_bisection(feasible, top):
    if feasible(top):
        return top
    lo, hi = 0.0, top
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if feasible(mid):
            lo = mid
        else:
            hi = mid


def test_highest_level_takes_the_float_below_top_in_two_calls():
    calls = []
    for top in (1.0, 0.37, 2.0 ** -30, 1.9999999999999998):
        boundary = math.nextafter(top, 0.0)
        calls.clear()
        level = verify._highest_level(lambda q: calls.append(q) or q <= boundary, top)
        assert level == boundary and len(calls) <= 2


def test_highest_level_matches_a_plain_bisection():
    rng = np.random.default_rng(58)
    for _ in range(200):
        top = float(rng.uniform(0.1, 2.0))
        boundary = top * float(rng.choice([rng.uniform(), 1.0 - rng.uniform() * 1e-15, 0.0]))
        feasible = lambda q, b=boundary: q <= b  # noqa: E731
        assert verify._highest_level(feasible, top) == _plain_bisection(feasible, top)


# ---------------------------------------------------------------------------
# the stacked witness check
# ---------------------------------------------------------------------------


def _kron_residual(factors, mat) -> float:
    """|| U mat U+ - mat ||_F with U the Kronecker product, in extended precision (np.clongdouble)."""
    big = np.ones((1, 1), dtype=np.clongdouble)
    for f in factors:
        big = np.kron(big, np.asarray(f).astype(np.clongdouble))
    m = mat.astype(np.clongdouble)
    d = big @ m @ big.conj().T - m
    return float(np.sqrt(np.sum(d.real**2 + d.imag**2)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(1, 6), rank=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_stacked_residuals_are_the_kronecker_residuals(n, rank, seed):
    rng = np.random.default_rng(seed)
    rho = states.random_symmetric_mixed(n, rng, min(rank, n + 1))
    identical = np.broadcast_to(np.array([states.random_su2(rng) for _ in range(4)])[:, None], (4, n, 2, 2))
    phases = np.exp(1j * rng.uniform(0, 7, size=(4, n, 1, 1)))  # det phases
    per_qubit = np.array([[states.random_su2(rng) for _ in range(n)] for _ in range(4)]) * phases
    diagonal = np.zeros((4, n, 2, 2), dtype=np.complex128)
    diagonal[..., 0, 0] = 1.0
    diagonal[..., 1, 1] = np.exp(1j * rng.uniform(0, 2 * math.pi, size=(4, n)))
    identity = np.broadcast_to(np.eye(2, dtype=np.complex128), (1, n, 2, 2))
    stack = np.concatenate([identity, identical, per_qubit, diagonal])
    got = verify._residuals(stack, rho.mat)
    assert got[0] == 0.0
    assert np.max(np.abs(got - [_kron_residual(w, rho.mat) for w in stack])) <= 2e-15
    # a tuple's residual does not depend on the stack it is checked in
    for i, w in enumerate(stack):
        assert verify.check_stabilizes(states.LocalUnitary(tuple(w)), rho).residual == got[i]


def _factor_key(factors, resolution: float) -> tuple:
    """The key of a tuple of factors, factor by factor: the per-factor reference of _projective_keys."""
    parts = []
    for f in factors:
        flat = f.ravel()
        scale = np.max(np.abs(flat))
        idx = int(np.argmax(np.abs(flat) > 0.5 * scale))
        phase = flat[idx] / abs(flat[idx])
        aligned = (f / phase).ravel().view(np.float64)  # interleaved re/im
        parts.append(tuple(np.round(aligned / resolution).astype(np.int64).tolist()))
    return tuple(parts)


def test_stacked_keys_are_the_per_factor_keys():
    rng = np.random.default_rng(61)
    n = 4
    stack = np.array([[states.random_su2(rng) * np.exp(1j * rng.uniform(0, 7)) for _ in range(n)] for _ in range(50)])
    # diagonal, antidiagonal and equal-modulus factors, where the leading entry is decided by the half-scale rule
    stack[:10, :, 0, 1] = stack[:10, :, 1, 0] = 0.0
    stack[10:20, :, 0, 0] = stack[10:20, :, 1, 1] = 0.0
    stack[20:25] = np.array([[1, 1], [1, -1]]) * np.exp(1j * rng.uniform(0, 7, size=(5, n, 1, 1))) / math.sqrt(2)
    got = verify._projective_keys(stack, verify._DEDUPE)
    for w, key in zip(stack, got):
        want = _factor_key(w, verify._DEDUPE)
        assert tuple(map(tuple, key.reshape(n, 8).tolist())) == want


def _sample_one_by_one(rho, cfg):
    """sample_stabilizer's witnesses as (key, residual), tuple by tuple: its reference.

    Each candidate is a LocalUnitary checked alone by states.conjugate_local
    and keyed factor by factor; each key keeps its least residual, the
    first candidate on ties, and the keys come sorted.
    """
    n = rho.n
    gs = verify._identical_witnesses(_kernels.density_factor(rho.mat), n, cfg)
    candidates = [states.LocalUnitary.uniform(g, n) for g in gs]
    candidates += [states.LocalUnitary(tuple(w)) for w in verify._diag_witnesses(rho)]
    seen = {}
    for u in candidates:
        residual = float(np.linalg.norm(states.conjugate_local(u.factors, rho.mat) - rho.mat))
        if residual > 1e-8:
            continue
        key = _factor_key(u.factors, verify._DEDUPE)
        if key not in seen or residual < seen[key]:
            seen[key] = residual
    return sorted(seen.items())


@pytest.mark.parametrize(
    "make, count",
    [
        (tetrahedron_state, 12),
        (octahedron_state, 24),
        (lambda: states.ghz(3), 8),
        (lambda: states.ghz(5), 14),
        (lambda: states.dicke(3, 1), 9),
        (lambda: states.dicke(4, 2), 25),
    ],
    ids=["tetrahedron", "octahedron", "ghz3", "ghz5", "dicke31", "dicke42"],
)
def test_stacked_sampling_keeps_the_witnesses_of_the_one_by_one_check(make, count):
    psi = make()
    rho = states.to_density(psi)
    cfg = verify.StabilizerSearchConfig()
    got = verify.sample_stabilizer(rho, cfg)
    want = _sample_one_by_one(rho, cfg)
    assert len(got) == len(want) == count
    assert [_factor_key(w.unitary.factors, verify._DEDUPE) for w in got] == [key for key, _ in want]
    assert max(abs(w.residual - r) for w, (_, r) in zip(got, want)) <= 1e-15
    assert verify.stabilizer_anomalies(psi) == ()


def test_stacked_check_holds_its_chunk_bound():
    n, count = 8, 128
    rng = np.random.default_rng(62)
    mat = states.to_density(states.random_symmetric(n, rng)).mat
    stack = np.array([[states.random_su2(rng) for _ in range(n)] for _ in range(count)])
    chunk = max(verify._CHUNK_ENTRIES, 4**n) * 16  # bytes of one conjugated chunk
    tracemalloc.start()
    try:
        got = verify._residuals(stack, mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (count,)
    # the whole stack conjugated at once would hold count 4^n entries a temporary
    assert peak <= 8 * chunk < count * 4**n * 16 // 4


def test_bruteforce_works_on_vectors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense projector or an eigensolve")

    rng = np.random.default_rng(63)
    psi = states.random_symmetric(4, rng)
    phi = states.apply_diag_symmetric(states.random_su2(rng), psi)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(states, "to_density", refuse)
    assert verify.lu_equivalent_pure_bruteforce(psi, phi) is not None
    assert verify.lu_equivalent_pure_bruteforce(psi, states.random_symmetric(4, rng)) is None
