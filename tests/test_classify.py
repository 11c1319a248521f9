"""Stabilizer-class decisions and pure-state equivalence."""
import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmlu import classify, majorana, mixed, rotmatch, states
from symmlu.classify import StabilizerClass
from symmlu.errors import AmbiguousClassificationError, DomainError

RNG = np.random.default_rng


def scrambled(psi, rng):
    """Same state pushed through a random identical-factor unitary and phase."""
    g = states.random_su2(rng)
    moved = states.apply_diag_symmetric(g, psi)
    phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
    return states.SymmetricPureState.from_unnormalized(moved.coeffs * phase)


def check_result(result, psi, tol=1e-9):
    """The returned transform really maps psi onto the canonical state."""
    moved = states.apply_diag_symmetric(result.transform, psi)
    assert moved.distance(result.canonical) <= max(tol, 10 * result.residual + 1e-12)


def check_generators_stabilize(result, tol=1e-9):
    rho = states.to_density(result.canonical)
    for gen in result.generators:
        out = states.apply_lu(gen, rho)
        assert np.max(np.abs(out.mat - rho.mat)) < tol


def test_product_states_are_class_i():
    rng = RNG(31)
    for n in (1, 3, 5):
        psi = scrambled(states.dicke(n, 0), rng)
        res = classify.classify_state(psi)
        assert res.sclass.tag == "i"
        check_result(res, psi)
        check_generators_stabilize(res)


def test_all_excited_product_state_flips_to_class_i():
    res = classify.classify_state(states.dicke(4, 4))
    assert res.sclass.tag == "i"
    check_result(res, states.dicke(4, 4))


def test_balanced_two_pole_is_class_iia():
    rng = RNG(32)
    for n in (3, 4, 6):
        psi = scrambled(states.ghz(n), rng)
        res = classify.classify_state(psi)
        assert res.sclass.tag == "iia"
        check_result(res, psi)
        check_generators_stabilize(res)


def test_unbalanced_two_pole_recovers_weight_parameter():
    rng = RNG(33)
    for n, t in ((3, 0.2), (4, 0.5), (5, 0.8)):
        a, b = math.cos(math.pi * t / 4), math.sin(math.pi * t / 4)
        psi = scrambled(states.ghz(n, a, b), rng)
        res = classify.classify_state(psi)
        assert res.sclass.tag == "iib"
        assert abs(res.sclass.t - t) < 1e-8
        check_result(res, psi)
        check_generators_stabilize(res)


def test_two_pole_weight_parameter_is_canonicalized():
    # dominant weight moves to the unexcited pole, so t stays below 1
    a, b = 0.3, math.sqrt(1 - 0.09)
    res = classify.classify_state(states.ghz(4, a, b))
    assert res.sclass.tag == "iib"
    assert abs(res.sclass.t - 4 / math.pi * math.atan2(a, b)) < 1e-9


def test_two_pole_with_complex_weight():
    b = 0.4 * np.exp(1j * 0.7)
    a = math.sqrt(1 - 0.16)
    psi = states.ghz(5, a, b)
    res = classify.classify_state(psi)
    assert res.sclass.tag == "iib"
    assert abs(res.sclass.t - 4 / math.pi * math.atan2(0.4, a)) < 1e-8
    check_result(res, psi)


def test_dicke_states_are_class_iv():
    rng = RNG(34)
    res = classify.classify_state(scrambled(states.dicke(6, 2), rng))
    assert res.sclass.tag == "ivb"
    assert res.sclass.k == 2

    # complements are identified; k = 5 canonicalizes to k = 1
    res = classify.classify_state(scrambled(states.dicke(6, 5), rng))
    assert res.sclass.tag == "ivb"
    assert res.sclass.k == 1

    res = classify.classify_state(scrambled(states.dicke(4, 2), rng))
    assert res.sclass.tag == "iva"
    check_generators_stabilize(res)


def test_tetrahedron_has_finite_tetrahedral_class():
    pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    psi = majorana.points_to_state(pts)
    res = classify.classify_state(psi)
    assert res.sclass.tag == "finite"
    assert res.sclass.group.tag == "Tetrahedral"
    assert res.sclass.group.order == 12
    check_generators_stabilize(res, tol=1e-8)


def test_square_plus_pole_is_finite_cyclic():
    ring = [
        [math.cos(2 * math.pi * j / 4), math.sin(2 * math.pi * j / 4), 0.0]
        for j in range(4)
    ]
    psi = majorana.points_to_state(np.array(ring + [[0.0, 0.0, 1.0]]))
    res = classify.classify_state(psi)
    assert res.sclass.tag == "finite"
    assert res.sclass.group.tag == "Cyclic"
    assert res.sclass.group.m == 4
    check_generators_stabilize(res, tol=1e-8)


def test_random_states_have_trivial_finite_class():
    rng = RNG(35)
    for _ in range(5):
        res = classify.classify_state(states.random_symmetric(5, rng))
        assert res.sclass.tag == "finite"
        assert res.sclass.group.tag == "Trivial"


def test_classification_is_invariant_under_scrambling():
    rng = RNG(36)
    psi = states.ghz(5, 0.8, 0.6)
    base = classify.classify_state(psi)
    for _ in range(3):
        res = classify.classify_state(scrambled(psi, rng))
        assert res.sclass.tag == base.sclass.tag
        assert abs(res.sclass.t - base.sclass.t) < 1e-8


def _family_state(kind, n, k, gap):
    """A state of class i, iia, iib or iv; gap is |a|^2 - |b|^2 of the unbalanced two-pole one."""
    if kind == "product":
        return states.dicke(n, 0)
    if kind == "ghz":
        return states.ghz(n)
    if kind == "unbalanced":
        return states.ghz(n, math.sqrt((1 + gap) / 2), math.sqrt((1 - gap) / 2))
    return states.dicke(n, 1 + k % (n - 1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(3, 32),
    kind=st.sampled_from(["product", "ghz", "unbalanced", "dicke"]),
    k=st.integers(0, 30),
    log_gap=st.floats(-6, -0.01),
    seed=st.integers(0, 2**32 - 1),
)
def test_infinite_classes_are_invariant_under_rotation(n, kind, k, log_gap, seed):
    # the axis comes from a multipole of psi psi^+, so no Majorana root is found,
    # and a heavy root's scatter cannot hide it
    psi = _family_state(kind, n, k, 10.0**log_gap)
    phi = states.apply_diag_symmetric(states.random_su2(RNG(seed)), psi)

    def refuse(*args, **kwargs):
        raise AssertionError("an infinite class must not find Majorana roots")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(majorana, "majorana_points", refuse)
        base, res = classify.classify_state(psi), classify.classify_state(phi)
    assert res.sclass.tag == base.sclass.tag
    assert res.sclass.k == base.sclass.k
    if base.sclass.t is not None:
        assert abs(res.sclass.t - base.sclass.t) <= 1e-6
    check_result(res, phi)


_PHI = (1 + math.sqrt(5)) / 2
_POLYHEDRA = {
    "tetrahedron": np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]),
    "octahedron": np.vstack([np.eye(3), -np.eye(3)]),
    "cube": np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]),
    "icosahedron": np.array(
        [p for a in (-1, 1) for b in (-_PHI, _PHI) for p in ([0, a, b], [a, b, 0], [b, 0, a])]
    ),
    "dodecahedron": np.array(
        [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        + [p for a in (-1, 1) for b in (-_PHI, _PHI) for p in ([0, a / _PHI, b], [a / _PHI, b, 0], [b, 0, a / _PHI])]
    ),
}


@st.composite
def finite_configurations(draw):
    """(points, multiplicities) of at most 24 points whose group is finite and whose state is in no infinite class."""
    kind = draw(st.sampled_from(["ring", "polyhedron", "pair", "composition"]))
    rng = RNG(draw(st.integers(0, 2**32 - 1)))
    if kind == "polyhedron":
        name = draw(st.sampled_from(sorted(_POLYHEDRA)))
        pts = _POLYHEDRA[name]
        return pts, [draw(st.integers(1, 24 // len(pts)))] * len(pts)
    if kind == "ring":
        # an m-gon of uniform multiplicity plus poles; a bare one-fold ring is class ii
        m, mult = draw(st.integers(2, 8)), draw(st.integers(1, 4))
        north, south = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        if m * mult + north + south > 24 or (mult == 1 and north == south == 0):
            m, mult, north, south = 4, 2, 1, 0
        z = 0.0 if draw(st.booleans()) else rng.uniform(-0.9, 0.9)
        if m == 2 and z == 0.0 and north == south and (north == 0 or north == mult == 1):
            z = 0.5  # two antipodal points are class iv, and a 1-fold square class ii
        t = 2 * math.pi * np.arange(m) / m
        ring = np.column_stack([math.sqrt(1 - z * z) * np.cos(t), math.sqrt(1 - z * z) * np.sin(t), np.full(m, z)])
        poles = [(p, mlt) for p, mlt in (([0, 0, 1], north), ([0, 0, -1], south)) if mlt]
        return np.vstack([ring] + [p for p, _ in poles]), [mult] * m + [mlt for _, mlt in poles]
    if kind == "pair":
        # two equal points, never antipodal: the half turn about their bisector swaps them (two simple points are class ii)
        angle = rng.uniform(0.2, math.pi - 0.2)
        return np.array([[0, 0, 1], [math.sin(angle), 0, math.cos(angle)]]), [draw(st.integers(2, 12))] * 2
    pts = rng.normal(size=(draw(st.integers(2, 4)), 3))
    mults = [draw(st.integers(1, 24 // len(pts))) for _ in pts]
    return pts, [mults[0] + max(0, 3 - sum(mults))] + mults[1:]  # every two-qubit state is in an infinite class


@settings(derandomize=True, max_examples=200, deadline=None)
@given(config=finite_configurations(), seed=st.integers(0, 2**32 - 1))
def test_finite_groups_are_the_groups_of_the_exact_points(config, seed):
    pts, mults = config
    pts = np.asarray(pts, dtype=float)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    want = rotmatch.symmetry_group(majorana.config_from_points(pts, mults))
    psi = majorana.points_to_state(pts, mults)
    phi = states.apply_diag_symmetric(states.random_su2(RNG(seed)), psi)
    find_points = majorana.majorana_points
    # by its coefficients, not its distance: the cube's rank-4 multipole is the cube state itself
    inputs = [c for s in (psi, phi) for c in (s.coeffs, s.phase_normalized().coeffs)]

    def points_of_multipoles_only(state, *args, **kwargs):
        if any(np.array_equal(state.coeffs, c) for c in inputs):
            raise AssertionError("the finite class must not find the Majorana points of psi")
        return find_points(state, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the finite class must not call symmetry_group")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(majorana, "majorana_points", points_of_multipoles_only)
        patch.setattr(rotmatch, "symmetry_group", refuse)
        results = [classify.classify_state(s) for s in (psi, phi)]
    for state, res in zip((psi, phi), results):
        assert res.sclass.tag == "finite"
        got = res.sclass.group
        assert (got.tag, got.m, got.order) == (want.tag, want.m, want.order)
        moved = states.symmetric_power(rotmatch.so3_to_su2(got.elements), state.n) @ state.coeffs
        assert states.phase_distances(moved, state.coeffs).max() <= 1e-8


@st.composite
def states_with_points(draw):
    """(psi, its exact points, their multiplicities): a polyhedron, a GHZ state, a Dicke state, or up to four random points of multiplicity at most 5."""
    kind = draw(st.sampled_from(["polyhedron", "ghz", "dicke", "random"]))
    rng = RNG(draw(st.integers(0, 2**32 - 1)))
    if kind == "ghz":
        # a|0..0> + b|1..1> has its points where z^n = -a / b: an n-gon at height z = (r^2 - 1) / (r^2 + 1), r = |a / b|^(1/n)
        n, t = draw(st.integers(2, 10)), math.pi / 4 if draw(st.booleans()) else rng.uniform(0.1, 0.7)
        r = (math.cos(t) / math.sin(t)) ** (1 / n)
        z, phi = (r * r - 1) / (r * r + 1), 2 * math.pi * np.arange(n) / n
        ring = np.column_stack([math.sqrt(1 - z * z) * np.cos(phi), math.sqrt(1 - z * z) * np.sin(phi), np.full(n, z)])
        return states.ghz(n, math.cos(t), math.sin(t)), ring, [1] * n
    if kind == "dicke":
        n = draw(st.integers(1, 12))
        k = draw(st.integers(0, n))
        poles = [(p, m) for p, m in (([0.0, 0.0, 1.0], k), ([0.0, 0.0, -1.0], n - k)) if m]
        return states.dicke(n, k), np.array([p for p, _ in poles]), [m for _, m in poles]
    if kind == "polyhedron":
        pts = _POLYHEDRA[draw(st.sampled_from(sorted(_POLYHEDRA)))]
        mults = [draw(st.integers(1, 24 // len(pts)))] * len(pts)
    else:
        pts = rng.normal(size=(draw(st.integers(1, 4)), 3))
        mults = [draw(st.integers(1, 5)) for _ in pts]
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return majorana.points_to_state(pts, mults), pts, mults


@settings(derandomize=True, max_examples=200, deadline=None)
@given(config=states_with_points(), seed=st.integers(0, 2**32 - 1))
def test_rotation_group_is_the_group_of_the_exact_points(config, seed):
    psi, pts, mults = config
    want = rotmatch.symmetry_group(majorana.config_from_points(pts, mults))
    phi = states.apply_diag_symmetric(states.random_su2(RNG(seed)), psi)
    for state in (psi, phi):
        got = classify.rotation_group(state)
        assert (got.tag, got.m, got.order) == (want.tag, want.m, want.order)
        # every element fixes the state; an axial group, every turn about its axis
        rots = got.elements if got.is_finite else rotmatch.rotation_about(got.axis, 1.0)[None]
        moved = states.symmetric_power_apply(rotmatch.so3_to_su2(rots), state.coeffs)
        assert states.phase_distances(moved, state.coeffs).max() <= 1e-8


@pytest.mark.parametrize(
    ("psi", "tag"),
    [
        (states.ghz(2), "AxialContinuousFlip"),
        (states.dicke(2, 1), "AxialContinuousFlip"),
        (states.dicke(5, 0), "AxialContinuous"),
        (states.dicke(5, 1), "AxialContinuous"),
    ],
    ids=["ghz2", "dicke21", "product5", "dicke51"],
)
def test_rotation_group_of_axial_states_includes_two_qubits(psi, tag):
    # classify_state calls the balanced two-qubit states ambiguous (iia or iva); their group is not
    for state in (psi, scrambled(psi, RNG(44))):
        got = classify.rotation_group(state)
        assert (got.tag, got.m, got.order, got.elements.shape) == (tag, None, None, (0, 3, 3))
        moved = states.apply_diag_symmetric(rotmatch.so3_to_su2(rotmatch.rotation_about(got.axis, 0.7)), state)
        assert states.phase_distance(moved.coeffs, state.coeffs) <= 1e-12


def test_classify_state_and_rotation_group_name_the_same_finite_group():
    # the finite class is the routine's group, built once from the same frame
    rng = RNG(45)
    for psi in _one_frame_states().values():
        state = scrambled(psi, rng)
        res = classify.classify_state(state)
        if res.sclass.tag == "finite":
            got, want = classify.rotation_group(state), res.sclass.group
            assert (got.tag, got.m, got.order) == (want.tag, want.m, want.order)
            assert np.array_equal(got.elements, want.elements)


def test_dihedral_two_is_three_perpendicular_half_turns():
    # +-x twofold and +-y onefold: the half turns about x, y and z, and nothing more
    pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
    mults = [2, 2, 1, 1]
    want = rotmatch.symmetry_group(majorana.config_from_points(pts, mults))
    assert (want.tag, want.m, want.order) == ("Dihedral", 2, 4)
    assert np.allclose(want.axis, [0, 0, 1], rtol=0, atol=1e-12)
    psi = majorana.points_to_state(pts, mults)
    g = states.random_su2(RNG(46))
    for state, axis in ((psi, [0, 0, 1]), (states.apply_diag_symmetric(g, psi), rotmatch.su2_to_so3(g)[:, 2])):
        for got in (classify.classify_state(state).sclass.group, classify.rotation_group(state)):
            assert (got.tag, got.m, got.order) == ("Dihedral", 2, 4)
            assert abs(abs(float(np.dot(got.axis, axis))) - 1) <= 1e-9
            moved = states.symmetric_power_apply(rotmatch.so3_to_su2(got.elements), state.coeffs)
            assert states.phase_distances(moved, state.coeffs).max() <= 1e-8


def _ring(m, z):
    t = 2 * math.pi * np.arange(m) / m
    return np.column_stack([math.sqrt(1 - z * z) * np.cos(t), math.sqrt(1 - z * z) * np.sin(t), np.full(m, z)])


_EDGE_STATES = {
    "tetrahedron4": (_POLYHEDRA["tetrahedron"], [1] * 4),
    "tetrahedron12": (_POLYHEDRA["tetrahedron"], [3] * 4),
    "octahedron": (_POLYHEDRA["octahedron"], [1] * 6),
    "icosahedron": (_POLYHEDRA["icosahedron"], [1] * 12),
    "c5": (np.vstack([_ring(5, 0.3), [[0, 0, 1]]]), [1] * 6),
    "d4": (_ring(4, 0.0), [1] * 4),
    "d3": (np.vstack([_ring(3, 0.5), _ring(3, -0.5)]), [1] * 6),
}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_EDGE_STATES)), log_eps=st.floats(-11, -6), seed=st.integers(0, 2**32 - 1))
def test_states_at_the_tolerance_edge_get_a_group_or_an_ambiguity(name, log_eps, seed):
    # near the edge the self-matches that fix psi to tol need not be closed; the group they generate is named
    pts, mults = _EDGE_STATES[name]
    rng = RNG(seed)
    exact = majorana.points_to_state(pts / np.linalg.norm(pts, axis=1, keepdims=True), mults)
    noise = rng.normal(size=exact.n + 1) + 1j * rng.normal(size=exact.n + 1)
    psi = states.SymmetricPureState.from_unnormalized(exact.coeffs + 10**log_eps * noise)
    for state in (psi, states.apply_diag_symmetric(states.random_su2(rng), psi)):
        for call in (classify.classify_state, classify.rotation_group):
            try:
                call(state)
            except AmbiguousClassificationError:
                pass


# Found by least squares, Dicke coefficients c_0 .. c_{n/2}; the state repeats
# them backwards (c_{n-k} = c_k), so X^{(x)n} fixes it and its group holds the
# half turn about x.  Its multipoles below rank k vanish (to 2e-14 at k = 4,
# 1e-12 at k = 5), and the rank-k one has (k - 1)-fold points at both poles
# and two simple points: the first multipole is not axial, and its heavy
# points scatter far past the cluster radius once the state is turned.
_HEAVY_FIRST_MULTIPOLE = {
    4: [
        0.30951070838708394, 0.0022834135043657364 - 0.01563416983126156j,
        0.014038505725539033 + 0.046188958517151366j, -0.597858753003052 + 0.17623683099772644j,
        0.014851965454528304 + 0.05057589243284295j, 0.013258780280465097 + 0.0065545362183670255j,
        -0.07559701232835539 + 0.12061308690601577j,
    ],
    5: [
        0.24966237535419553, -0.16088282433522233 + 0.11459901456108408j,
        -0.07500209238754618 + 0.22972598277213183j, 0.05083933177451168 - 0.08668064843731414j,
        0.28440991176070834 + 0.17941883496935165j, 0.18218487007303028 - 0.09233356461339481j,
        0.10691466626819954 - 0.057176755112960664j, 0.01512588710192424 + 0.38509568509325104j,
        -0.05913152095645286 - 0.06816897811605277j, -0.08920849736674726 + 0.004001642941560777j,
    ],
}


@pytest.mark.parametrize("k", sorted(_HEAVY_FIRST_MULTIPOLE))
def test_a_heavy_point_in_the_first_multipole_keeps_groups_and_maps_exact(k):
    half = np.array(_HEAVY_FIRST_MULTIPOLE[k])
    psi = states.SymmetricPureState.from_unnormalized(np.concatenate([half, half[-2::-1]]))
    n = psi.n
    blocks = states.SpinBlocks(n, (n / 2,), (1,))

    def first_constellation(state):
        frame = mixed.multipole_frame(np.outer(state.coeffs, state.coeffs.conj()), blocks)
        assert (frame.b, frame.k) == (0, k)
        return majorana.majorana_points(states.SymmetricPureState.from_unnormalized(frame.v))

    assert sorted(first_constellation(psi).multiplicities.tolist()) == [1, 1, k - 1, k - 1]
    assert states.apply_diag_symmetric(states.POLE_FLIP, psi).distance(psi) < 1e-13
    rng = RNG(190 + k)
    for _ in range(12):
        phi = states.apply_diag_symmetric(states.random_su2(rng), psi)
        scattered = first_constellation(phi).points
        gaps = np.linalg.norm(scattered[:, None] - scattered[None], axis=2) + 2 * np.eye(len(scattered))
        assert gaps.min() < 1e-2 and gaps.min() > 1e-5
        group = classify.classify_state(phi).sclass.group
        assert (group.tag, group.m, group.order) == ("Cyclic", 2, 2)
        # psi's own constellation has its heavy points exactly at the poles: equivalence must not match on it
        g = classify.lu_equivalent_pure(psi, phi)
        assert g is not None and states.apply_diag_symmetric(g, psi).distance(phi) <= 1e-8


def test_rotated_ten_qubit_product_state_is_class_i():
    # a draw of the degenerate probe (seed 2026): a 10-fold root scatters like
    # eps^(1/10) under root finding, so no cluster radius recovers it reliably
    point = np.array([[0.19354431109503342, 0.6768285359211241, -0.7102420239648007]])
    g = np.array([
        [-0.505686065354441 - 0.7765587485465355j, 0.31814516722087993 - 0.20005440744002892j],
        [-0.3181451672208799 - 0.2000544074400289j, -0.505686065354441 + 0.7765587485465356j],
    ])
    phi = states.apply_diag_symmetric(g, majorana.points_to_state(point, [10]))
    res = classify.classify_state(phi)
    assert res.sclass.tag == "i"
    check_result(res, phi)


def test_two_qubit_balanced_pairs_stay_ambiguous():
    # two antipodal points are a balanced Dicke pair about their axis and a
    # balanced two-pole pair about any axis perpendicular to it
    rng = RNG(43)
    for psi in (states.ghz(2), states.dicke(2, 1)):
        for state in (psi, scrambled(psi, rng), scrambled(psi, rng)):
            with pytest.raises(AmbiguousClassificationError) as raised:
                classify.classify_state(state)
            assert sorted(raised.value.candidates) == ["iia", "iva"]


def test_class_validation():
    with pytest.raises(DomainError):
        StabilizerClass("nope")
    with pytest.raises(DomainError):
        StabilizerClass("iib")  # missing t
    with pytest.raises(DomainError):
        StabilizerClass("iib", t=1.5)
    with pytest.raises(DomainError):
        StabilizerClass("ivb")  # missing k
    with pytest.raises(DomainError):
        StabilizerClass("finite")  # missing group


def test_stabilizer_generator_validation():
    with pytest.raises(DomainError):
        classify.stabilizer_generators(StabilizerClass("iii"), 3)
    with pytest.raises(DomainError):
        classify.stabilizer_generators(StabilizerClass("iva"), 5)
    with pytest.raises(DomainError):
        classify.stabilizer_generators(StabilizerClass("ivb", k=2), 4)
    sampler = classify.stabilizer_generators(StabilizerClass("iib", t=0.5), 4)
    with pytest.raises(DomainError):
        sampler.unit((0.1,))  # needs n - 1 = 3 parameters
    with pytest.raises(DomainError):
        sampler.unit((0.1, 0.2, 0.3), flip=True)  # no antidiagonal layer
    with pytest.raises(DomainError):
        classify.stabilizer_generators(StabilizerClass("iii"), 2).unit(
            (np.array([[1.0, 1.0], [0.0, 1.0]]),)
        )


def test_sampler_random_elements_are_local_unitaries():
    rng = RNG(37)
    sampler = classify.stabilizer_generators(StabilizerClass("iia"), 4)
    rho = states.to_density(states.ghz(4))
    for _ in range(10):
        u = sampler.random(rng)
        out = states.apply_lu(u, rho)
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-12


def test_census_counts():
    c3 = classify.class_census(3)
    assert c3.dicke_general_ks == (1,)
    assert not c3.dicke_count_discrepancy
    assert not c3.balanced_dicke

    c5 = classify.class_census(5)
    assert c5.dicke_general_ks == (1, 2)
    assert c5.stated_dicke_general_count == 2
    assert not c5.dicke_count_discrepancy

    c6 = classify.class_census(6)
    assert c6.balanced_dicke
    assert c6.dicke_general_ks == (1, 2)
    assert c6.stated_dicke_general_count == 3
    assert c6.dicke_count_discrepancy

    d = c6.to_dict()
    assert d["classes"]["ivb"]["canonical_count"] == 2
    assert d["classes"]["ivb"]["count_discrepancy"] is True

    with pytest.raises(DomainError):
        classify.class_census(2)


def test_lu_equivalent_pure_on_scrambled_pairs():
    rng = RNG(38)
    for n in (3, 4, 6):
        psi = states.random_symmetric(n, rng)
        phi = scrambled(psi, rng)
        g = classify.lu_equivalent_pure(psi, phi)
        assert g is not None
        assert states.apply_diag_symmetric(g, psi).distance(phi) < 1e-9


def test_lu_equivalent_pure_negative_cases():
    rng = RNG(39)
    assert classify.lu_equivalent_pure(states.dicke(6, 1), states.dicke(6, 2)) is None
    a = states.random_symmetric(4, rng)
    b = states.random_symmetric(4, rng)
    assert classify.lu_equivalent_pure(a, b) is None
    with pytest.raises(DomainError):
        classify.lu_equivalent_pure(states.dicke(3, 1), states.dicke(4, 1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(3, 12), parts=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_lu_equivalent_pure_recovers_rotated_degenerate_configurations(n, parts, seed):
    # at most 4 points whose multiplicities are a random composition of n
    rng = RNG(seed)
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(parts, n) - 1, replace=False))
    mults = np.diff(np.concatenate([[0], cuts, [n]])).astype(int)
    points = rng.normal(size=(len(mults), 3))
    psi = majorana.points_to_state(points / np.linalg.norm(points, axis=1)[:, None], mults)
    phi = states.apply_diag_symmetric(states.random_su2(rng), psi)
    g = classify.lu_equivalent_pure(psi, phi)
    assert g is not None, f"missed multiplicities {mults.tolist()}"
    assert states.apply_diag_symmetric(g, psi).distance(phi) <= 1e-8


@pytest.mark.parametrize("n", range(3, 20))
def test_lu_equivalent_pure_rejects_random_pairs(n):
    rng = RNG([40, n])
    for _ in range(3):
        a, b = states.random_symmetric(n, rng), states.random_symmetric(n, rng)
        assert classify.lu_equivalent_pure(a, b) is None


@pytest.mark.parametrize("n", [64, 96])
def test_lu_equivalent_pure_recovers_rotated_pairs_at_large_n(n):
    rng = RNG([5, 1])
    for _ in range(5):
        psi = states.random_symmetric(n, rng)
        phi = states.apply_diag_symmetric(states.random_su2(rng), psi)
        g = classify.lu_equivalent_pure(psi, phi)
        assert g is not None
        assert states.apply_diag_symmetric(g, psi).distance(phi) <= 1e-8


def test_lu_equivalent_pure_on_one_and_two_qubits():
    rng = RNG(41)
    for n in (1, 2):
        for _ in range(5):
            psi = states.random_symmetric(n, rng)
            assert classify.lu_equivalent_pure(psi, scrambled(psi, rng)) is not None
    # two qubits: the Schmidt coefficients differ
    assert classify.lu_equivalent_pure(states.dicke(2, 0), states.ghz(2)) is None


def test_lu_equivalent_pure_complement_dicke():
    # k and n - k only differ by a bit flip on every qubit
    g = classify.lu_equivalent_pure(states.dicke(6, 1), states.dicke(6, 5))
    assert g is not None
    assert np.allclose(np.abs(g), np.abs(states.PAULI_X), atol=1e-9)


@pytest.mark.parametrize("n", range(3, 9))
def test_balanced_ghz_is_iia_with_a_diagonal_transform(n):
    # |c_0| = |c_n| exactly: the pole flip must not be applied on a roundoff tie
    res = classify.classify_state(states.ghz(n))
    assert res.sclass.tag == "iia"
    assert res.transform[0, 1] == 0 and res.transform[1, 0] == 0
    check_result(res, states.ghz(n))


def test_canonical_state_shapes():
    assert classify.canonical_state(StabilizerClass("i"), 4).distance(
        states.dicke(4, 0)
    ) < 1e-15
    assert classify.canonical_state(StabilizerClass("iia"), 3).distance(
        states.ghz(3)
    ) < 1e-15
    with pytest.raises(DomainError):
        classify.canonical_state(StabilizerClass("iva"), 5)
    with pytest.raises(DomainError):
        classify.canonical_state(StabilizerClass("iii"), 2)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_every_tol_must_be_positive_and_finite(tol):
    # an unchecked tol answered anyway: inf matched inequivalent states and merged every Majorana point
    rng = RNG(42)
    a, b = states.random_symmetric(5, rng), states.random_symmetric(5, rng)
    calls = [
        lambda: majorana.majorana_points(states.dicke(4, 2), tol=tol),
        lambda: classify.classify_state(states.ghz(4), tol=tol),
        lambda: classify.lu_equivalent_pure(a, b, tol=tol),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            call()


def _one_frame_states():
    rng = RNG(2201)
    tetrahedron = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    pair = rng.normal(size=(2, 3))
    triangle = np.array([[math.cos(a), math.sin(a), 0.0] for a in 2 * math.pi * np.arange(3) / 3])
    return {
        "generic": states.random_symmetric(6, rng),
        "dicke": states.dicke(4, 2),
        "tetrahedron": majorana.points_to_state(tetrahedron),
        "degenerate": majorana.points_to_state(pair / np.linalg.norm(pair, axis=1)[:, None], [3, 3]),
        "bipyramid": majorana.points_to_state(np.vstack([triangle, [[0, 0, 1], [0, 0, -1]]])),
    }


@pytest.mark.parametrize("name", sorted(_one_frame_states()))
def test_classify_state_scans_psi_psi_dagger_once(monkeypatch, name):
    psi = scrambled(_one_frame_states()[name], RNG(2202))
    rho = np.outer(psi.coeffs, psi.coeffs.conj())
    frame = mixed.multipole_frame(rho, states.pure_blocks(psi.n))
    calls = collections.Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(mixed, "multipole_frame", counted("frame", mixed.multipole_frame))
    monkeypatch.setattr(mixed, "_axis_turn", counted("axis", mixed._axis_turn))
    monkeypatch.setattr(mixed, "_best_turn", counted("turn", mixed._best_turn))
    scanned, kept = [], []
    multipole, su2_to_so3 = states.SpinBlocks.multipole, rotmatch.su2_to_so3
    monkeypatch.setattr(states.SpinBlocks, "multipole", lambda self, form, b, k: scanned.append((b, k)) or multipole(self, form, b, k))
    monkeypatch.setattr(rotmatch, "su2_to_so3", lambda g: kept.append(np.array(g)) or su2_to_so3(g))
    sclass = classify.classify_state(psi).sclass
    assert (calls["frame"], calls["axis"]) == (1, 1)
    assert len(scanned) == len(set(scanned))  # no multipole of psi psi^+ is computed twice
    assert sclass.tag == ("iva" if name == "dicke" else "finite")
    axial = frame.c is not None
    # the plain self-match is the identity with no turn solved; only an even-rank flip family is
    assert calls["turn"] == int(sclass.tag == "finite" and axial and frame.k % 2 == 0)
    if sclass.tag == "finite" and axial:
        assert any(np.array_equal(g, np.eye(2)) for g in kept[0])
