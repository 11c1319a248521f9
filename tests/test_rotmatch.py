"""Rotation matching and point-group detection on the sphere."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from symmlu import majorana, rotmatch, states
from symmlu.errors import DomainError, SymmluError


def ngon_config(m, latitude=0.0):
    """m points equally spaced on a circle at the given latitude angle."""
    theta = math.pi / 2 - latitude
    pts = [
        [
            math.sin(theta) * math.cos(2 * math.pi * j / m),
            math.sin(theta) * math.sin(2 * math.pi * j / m),
            math.cos(theta),
        ]
        for j in range(m)
    ]
    return majorana.config_from_points(np.array(pts))


def tetrahedron_config():
    pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    return majorana.config_from_points(pts / math.sqrt(3))


def octahedron_config():
    pts = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=float,
    )
    return majorana.config_from_points(pts)


def icosahedron_config():
    phi = (1 + math.sqrt(5)) / 2
    raw = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            raw.extend([[0, a, b], [a, b, 0], [b, 0, a]])
    pts = np.array(raw) / math.sqrt(1 + phi**2)
    return majorana.config_from_points(pts)


def random_config(rng, n):
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return majorana.config_from_points(pts)


def assert_rotation(r):
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(r) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# su2 <-> so3
# ---------------------------------------------------------------------------


def test_su2_to_so3_rotates_bloch_vectors():
    # the image rotation must act on Bloch vectors exactly as the spinor map
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = states.random_su2(rng)
        r = rotmatch.su2_to_so3(g)
        assert_rotation(r)
        spinor = rng.normal(size=2) + 1j * rng.normal(size=2)
        spinor /= np.linalg.norm(spinor)
        before = majorana.bloch_from_spinor(spinor)
        after = majorana.bloch_from_spinor(g @ spinor)
        assert np.allclose(r @ before, after, atol=1e-12)


def test_su2_to_so3_is_a_homomorphism():
    rng = np.random.default_rng(12)
    for _ in range(10):
        g = states.random_su2(rng)
        h = states.random_su2(rng)
        lhs = rotmatch.su2_to_so3(g @ h)
        rhs = rotmatch.su2_to_so3(g) @ rotmatch.su2_to_so3(h)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_so3_to_su2_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(25):
        g = states.random_su2(rng)
        r = rotmatch.su2_to_so3(g)
        g2 = rotmatch.so3_to_su2(r)
        # recover g up to the double-cover sign
        assert min(np.abs(g2 - g).max(), np.abs(g2 + g).max()) < 1e-12
        assert np.allclose(rotmatch.su2_to_so3(g2), r, atol=1e-12)


def test_so3_to_su2_is_special_unitary():
    rng = np.random.default_rng(14)
    for _ in range(10):
        r = Rotation.random(rng=rng).as_matrix()
        g = rotmatch.so3_to_su2(r)
        assert np.allclose(g.conj().T @ g, np.eye(2), atol=1e-12)
        assert abs(np.linalg.det(g) - 1.0) < 1e-12


def test_quaternion_canonical_sign():
    rng = np.random.default_rng(15)
    for _ in range(25):
        r = Rotation.random(rng=rng).as_matrix()
        q = rotmatch.quaternion_from_rotation(r)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert q[0] >= -1e-12
        # oracle: scipy stores (x, y, z, w)
        ref = Rotation.from_matrix(r).as_quat()
        ref = np.array([ref[3], ref[0], ref[1], ref[2]])
        if ref[0] < 0:
            ref = -ref
        assert np.allclose(q, ref, atol=1e-9)


def test_quaternion_sign_for_half_turns():
    # w = 0 rotations resolve the sign from the first nonzero vector part
    q = rotmatch.quaternion_from_rotation(rotmatch.rotation_about([0, 0, -1], math.pi))
    assert q[0] < 1e-12
    first = next(c for c in q[1:] if abs(c) > 1e-12)
    assert first > 0


# ---------------------------------------------------------------------------
# elementary rotations
# ---------------------------------------------------------------------------


def test_rotation_about_matches_scipy():
    rng = np.random.default_rng(16)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-math.pi, math.pi)
        got = rotmatch.rotation_about(axis, angle)
        ref = Rotation.from_rotvec(angle * axis).as_matrix()
        assert np.allclose(got, ref, atol=1e-12)


def test_rotation_between_carries_u_to_v():
    rng = np.random.default_rng(17)
    for _ in range(20):
        u, v = rng.normal(size=(2, 3))
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        r = rotmatch.rotation_between(u, v)
        assert_rotation(r)
        assert np.allclose(r @ u, v, atol=1e-12)


def test_rotation_between_same_and_antipodal():
    u = np.array([0.0, 0.0, 1.0])
    assert np.allclose(rotmatch.rotation_between(u, u), np.eye(3), atol=1e-15)
    r = rotmatch.rotation_between(u, -u)
    assert_rotation(r)
    assert np.allclose(r @ u, -u, atol=1e-12)


def test_axis_angle_round_trip():
    rng = np.random.default_rng(18)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.05, math.pi - 0.05)
        ax, ang = rotmatch.axis_angle(rotmatch.rotation_about(axis, angle))
        assert abs(ang - angle) < 1e-10
        assert np.allclose(ax, axis, atol=1e-9)
        # negative input angle folds into [0, pi] with the axis reversed
        ax2, ang2 = rotmatch.axis_angle(rotmatch.rotation_about(axis, -angle))
        assert abs(ang2 - angle) < 1e-10
        assert np.allclose(ax2, -axis, atol=1e-9)


def test_axis_angle_identity():
    _, ang = rotmatch.axis_angle(np.eye(3))
    assert ang == 0.0


def test_snap_angle():
    assert rotmatch.snap_angle(math.pi / 3 + 1e-12) == math.pi / 3
    assert rotmatch.snap_angle(2 * math.pi / 7 - 3e-11) == 2 * math.pi / 7
    ugly = 0.7362849
    assert rotmatch.snap_angle(ugly) == ugly
    # denominators past 64 stay untouched
    fine = math.pi / 97
    assert rotmatch.snap_angle(fine) == fine


# ---------------------------------------------------------------------------
# configuration matching
# ---------------------------------------------------------------------------


def test_match_rotation_recovers_applied_rotation():
    rng = np.random.default_rng(19)
    for n in (3, 4, 6):
        cfg = random_config(rng, n)
        r = Rotation.random(rng=rng).as_matrix()
        rotated = majorana.config_from_points(cfg.points @ r.T, cfg.multiplicities)
        got = rotmatch.match_rotation(cfg, rotated)
        assert got is not None
        # random configs have no symmetry, so the match is unique
        assert np.allclose(got, r, atol=1e-6)


def test_match_rotation_respects_multiplicities():
    cfg_a = majorana.config_from_points(
        np.array([[0, 0, 1.0], [1.0, 0, 0]]), [2, 1]
    )
    cfg_b = majorana.config_from_points(
        np.array([[0, 0, 1.0], [1.0, 0, 0]]), [1, 2]
    )
    r = rotmatch.match_rotation(cfg_a, cfg_b)
    assert r is not None
    # the doubled point must land on the doubled point, never the single one
    assert np.allclose(r @ np.array([0, 0, 1.0]), np.array([1.0, 0, 0]), atol=1e-9)


def test_match_rotation_returns_none_for_shape_mismatch():
    sq = ngon_config(4)
    tri = majorana.config_from_points(
        np.vstack([ngon_config(3).points, [[0.0, 0.0, 1.0]]])
    )
    assert rotmatch.match_rotation(sq, tri) is None
    assert rotmatch.all_matching_rotations(sq, tri) == []


def test_all_matching_rotations_ngon_self_count():
    # a regular m-gon on a great circle has the full dihedral set: 2m maps
    for m in (3, 4, 5, 6):
        cfg = ngon_config(m)
        rots = rotmatch.all_matching_rotations(cfg, cfg)
        assert len(rots) == 2 * m
        for r in rots:
            assert_rotation(r)


def test_all_matching_rotations_off_equator_ngon():
    # lifting the ring off the equator kills the flip axes
    cfg = ngon_config(5, latitude=0.4)
    rots = rotmatch.all_matching_rotations(cfg, cfg)
    assert len(rots) == 5


def test_matching_distance():
    rng = np.random.default_rng(20)
    cfg = random_config(rng, 4)
    assert rotmatch.matching_distance(cfg, cfg) < 1e-15
    bumped = cfg.points.copy()
    bumped[0] += 1e-4 * np.array([1.0, 0, 0])
    bumped[0] /= np.linalg.norm(bumped[0])
    near = majorana.config_from_points(bumped, cfg.multiplicities)
    d = rotmatch.matching_distance(cfg, near)
    assert 1e-6 < d < 1e-3
    other = majorana.config_from_points(cfg.points[:3], [2, 1, 1])
    assert rotmatch.matching_distance(cfg, other) == float("inf")


def separated_points(rng, m, ngon):
    """m unit vectors: a turned regular m-gon, or random ones with pairwise chordal distance in [0.3, 1.9]."""
    if ngon:
        return ngon_config(m).points @ rotmatch.su2_to_so3(states.random_su2(rng)).T
    while True:
        pts = rng.normal(size=(m, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        chords = np.linalg.norm(pts[:, None] - pts[None], axis=2)[np.triu_indices(m, 1)]
        if 0.3 <= chords.min() and chords.max() <= 1.9:
            return pts


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    mults=st.lists(st.integers(1, 3), min_size=2, max_size=6),
    ngon=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_matching_accepts_the_rotation_and_rejects_a_moved_point(mults, ngon, seed):
    rng = np.random.default_rng(seed)
    ngon = ngon and len(mults) >= 3
    cfg = majorana.config_from_points(separated_points(rng, len(mults), ngon), mults)
    r = rotmatch.su2_to_so3(states.random_su2(rng))
    pts = cfg.points @ r.T
    turned = majorana.config_from_points(pts, cfg.multiplicities)
    found = rotmatch.all_matching_rotations(cfg, turned)
    assert any(np.max(np.abs(f - r)) <= 1e-8 for f in found)
    for f in found:  # each point lands on a point of its own multiplicity
        gaps = np.linalg.norm((cfg.points @ f.T)[:, None] - turned.points[None], axis=2)
        same = cfg.multiplicities[:, None] == turned.multiplicities[None]
        assert np.all(np.min(np.where(same, gaps, np.inf), axis=1) <= 1e-6)
    assert len(rotmatch.all_matching_rotations(cfg, cfg)) == len(rotmatch.all_matching_rotations(turned, turned))

    # move a point of the closest pair 1e-3 along the great circle toward its partner:
    # the least pairwise distance shrinks by more than any match within tol allows
    chords = np.linalg.norm(pts[:, None] - pts[None], axis=2) + 4 * np.eye(len(pts))
    i, j = np.unravel_index(np.argmin(chords), chords.shape)
    toward = pts[j] - np.dot(pts[j], pts[i]) * pts[i]
    pts[i] = rotmatch.rotation_about(np.cross(pts[i], toward), 1e-3) @ pts[i]
    moved = majorana.config_from_points(pts, cfg.multiplicities)
    assert rotmatch.all_matching_rotations(cfg, moved) == []


# ---------------------------------------------------------------------------
# symmetry groups
# ---------------------------------------------------------------------------


def group_axioms(elements, tol=1e-8):
    """Closure, identity, and inverses, checked against the element list."""
    def member(r):
        return any(np.max(np.abs(r - s)) < tol for s in elements)

    assert member(np.eye(3))
    for r in elements:
        assert member(r.T)  # inverse of a rotation is its transpose
        for s in elements:
            assert member(r @ s)


def test_symmetry_group_dihedral_ngon():
    for m in (3, 4, 5, 6):
        grp = rotmatch.symmetry_group(ngon_config(m))
        assert grp.tag == "Dihedral"
        assert grp.m == m
        assert grp.order == 2 * m
        assert np.allclose(np.abs(grp.axis), [0, 0, 1], atol=1e-9)
        group_axioms(grp.elements)


def test_symmetry_group_cyclic_ngon_off_equator():
    grp = rotmatch.symmetry_group(ngon_config(4, latitude=0.3))
    assert grp.tag == "Cyclic"
    assert grp.m == 4
    assert grp.order == 4
    group_axioms(grp.elements)


def test_symmetry_group_tetrahedral():
    grp = rotmatch.symmetry_group(tetrahedron_config())
    assert grp.tag == "Tetrahedral"
    assert grp.order == 12
    group_axioms(grp.elements)


def test_symmetry_group_octahedral():
    grp = rotmatch.symmetry_group(octahedron_config())
    assert grp.tag == "Octahedral"
    assert grp.order == 24
    group_axioms(grp.elements)


def test_symmetry_group_icosahedral():
    grp = rotmatch.symmetry_group(icosahedron_config())
    assert grp.tag == "Icosahedral"
    assert grp.order == 60
    group_axioms(grp.elements)


def test_symmetry_group_trivial_for_random_points():
    rng = np.random.default_rng(21)
    for _ in range(5):
        grp = rotmatch.symmetry_group(random_config(rng, 5))
        assert grp.tag == "Trivial"
        assert grp.order == 1
        assert grp.is_finite


def test_symmetry_group_axial_tags():
    one = majorana.config_from_points(np.array([[0.0, 0.0, 1.0]]), [3])
    grp = rotmatch.symmetry_group(one)
    assert grp.tag == "AxialContinuous"
    assert not grp.is_finite

    balanced = majorana.config_from_points(
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), [2, 2]
    )
    assert rotmatch.symmetry_group(balanced).tag == "AxialContinuousFlip"

    lopsided = majorana.config_from_points(
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), [3, 1]
    )
    assert rotmatch.symmetry_group(lopsided).tag == "AxialContinuous"


def test_symmetry_group_generators_close_on_the_group():
    grp = rotmatch.symmetry_group(tetrahedron_config())
    closed = rotmatch.closure(grp.generators)
    assert len(closed) == grp.order


def test_symmetry_group_commutes_with_rotation():
    # conjugating the configuration conjugates the group; tag and order hold
    rng = np.random.default_rng(22)
    r = Rotation.random(rng=rng).as_matrix()
    cfg = tetrahedron_config()
    rotated = majorana.config_from_points(cfg.points @ r.T, cfg.multiplicities)
    grp = rotmatch.symmetry_group(rotated)
    assert grp.tag == "Tetrahedral"
    assert grp.order == 12


def test_point_group_rejects_wrong_order_claim():
    with pytest.raises(SymmluError):
        rotmatch.PointGroup("Cyclic", 4, 4, np.array([0.0, 0.0, 1.0]), (), ())


def test_closure_generates_dihedral_three():
    turn = rotmatch.rotation_about([0, 0, 1], 2 * math.pi / 3)
    flip = rotmatch.rotation_about([1, 0, 0], math.pi)
    elems = rotmatch.closure((turn, flip))
    assert len(elems) == 6
    group_axioms(list(elems))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(m=st.integers(1, 12), dihedral=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_closure_of_cyclic_and_dihedral_generators(m, dihedral, seed):
    frame = Rotation.random(rng=np.random.default_rng(seed)).as_matrix()
    gens = [rotmatch.rotation_about([0, 0, 1], 2 * math.pi / m)]
    if dihedral:
        gens.append(rotmatch.rotation_about([1, 0, 0], math.pi))
    elems = rotmatch.closure([frame @ g @ frame.T for g in gens])
    assert len(elems) == (2 * m if dihedral else m)
    group_axioms(elems)


@pytest.mark.parametrize("angle", [1.0, math.sqrt(2), math.pi * (math.sqrt(5) - 1)])
def test_closure_of_an_irrational_rotation_stops_at_the_cap(angle):
    axis = [0.3, -0.5, 0.8]
    turn = rotmatch.rotation_about(axis, angle)
    with pytest.raises(SymmluError, match="closure exceeded 200 elements"):
        rotmatch.closure([turn])
    # a group of exactly cap elements still closes
    assert len(rotmatch.closure([rotmatch.rotation_about(axis, 2 * math.pi / 200)])) == 200


def test_size_mismatch_raises():
    with pytest.raises(DomainError):
        rotmatch.all_matching_rotations(ngon_config(3), ngon_config(4))
