"""Rotation matching and point-group detection on the sphere."""
import math
import tracemalloc

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


_PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))


def reference_su2_to_so3(g):
    """R_ij = tr(sigma_i g sigma_j g^+) / 2, one entry at a time."""
    return np.array([[0.5 * np.trace(si @ g @ sj @ g.conj().T).real for sj in _PAULI] for si in _PAULI])


def test_su2_to_so3_on_stacks_is_the_trace_formula():
    rng = np.random.default_rng(16)
    # SU(2), U(2) with a global phase, the identity, the pole flip and half turns
    gs = [states.random_su2(rng) for _ in range(200)]
    gs += [states.random_su2(rng) * np.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(50)]
    gs += [np.eye(2), states.POLE_FLIP, states.rz(math.pi), states.rx(math.pi), states.ry(math.pi)]
    stack = np.array(gs)
    got = rotmatch.su2_to_so3(stack)
    assert got.shape == (len(gs), 3, 3)
    for g, r in zip(gs, got):
        assert np.max(np.abs(r - reference_su2_to_so3(g))) <= 1e-14
        assert np.max(np.abs(rotmatch.su2_to_so3(g) - r)) == 0.0
    # and back: so3_to_su2 of the stack recovers each g up to sign and phase
    back = rotmatch.su2_to_so3(rotmatch.so3_to_su2(got))
    assert np.max(np.abs(back - got)) <= 1e-14
    assert rotmatch.su2_to_so3(stack.reshape(5, -1, 2, 2)).shape == (5, len(gs) // 5, 3, 3)


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
        r = Rotation.random(None, rng).as_matrix()
        g = rotmatch.so3_to_su2(r)
        assert np.allclose(g.conj().T @ g, np.eye(2), atol=1e-12)
        assert abs(np.linalg.det(g) - 1.0) < 1e-12


def test_quaternion_canonical_sign():
    rng = np.random.default_rng(15)
    for _ in range(25):
        r = Rotation.random(None, rng).as_matrix()
        q = rotmatch.quaternion_from_rotation(r)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert q[0] >= -1e-12
        # oracle: scipy stores (x, y, z, w)
        ref = Rotation.from_matrix(r).as_quat()
        ref = np.array([ref[3], ref[0], ref[1], ref[2]])
        if ref[0] < 0:
            ref = -ref
        assert np.allclose(q, ref, atol=1e-9)


def test_stacks_of_rotations_give_the_stacks_of_their_one_matrix_results():
    rng = np.random.default_rng(23)
    half_turns = [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]
    stack = np.array([Rotation.random(None, rng).as_matrix() for _ in range(20)] + half_turns + [np.eye(3)])
    stack = np.concatenate([stack, np.array(rotmatch.symmetry_group(octahedron_config()).elements)])
    quats, su2s = rotmatch.quaternion_from_rotation(stack), rotmatch.so3_to_su2(stack)
    axes, angles = rotmatch.axis_angle(stack)
    assert quats.shape == (len(stack), 4) and su2s.shape == (len(stack), 2, 2)
    for k, r in enumerate(stack):
        assert np.array_equal(quats[k], rotmatch.quaternion_from_rotation(r))
        assert np.array_equal(su2s[k], rotmatch.so3_to_su2(r))
        axis, angle = rotmatch.axis_angle(r)
        assert np.array_equal(axes[k], axis) and angles[k] == angle and isinstance(angle, float)
    empty = rotmatch.axis_angle(stack[:0])
    assert empty[0].shape == (0, 3) and empty[1].shape == (0,)


def test_row_dot_products_round_as_np_dot():
    # quaternions, axes and anchor frames are normalized with these sums;
    # np.dot's rounding keeps them equal to the one-vector formulas
    rng = np.random.default_rng(29)
    for d in (3, 4):
        a, b = rng.normal(size=(500, d)), rng.normal(size=(500, d))
        assert rotmatch._dot(a, b).tolist() == [float(np.dot(x, y)) for x, y in zip(a, b)]
        table = rotmatch._dot(a[:20, None], b[None, :30])
        assert table.tolist() == [[float(np.dot(x, y)) for y in b[:30]] for x in a[:20]]


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
        r = Rotation.random(None, rng).as_matrix()
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


def test_matching_uses_each_point_once():
    # both points of a lie nearest the same point of b; the matching pairs
    # only one of them with it, and the other with b's far point
    p = np.array([0.0, 0.0, 1.0])
    a = majorana.config_from_points(np.array([p, rotmatch.rotation_about([1, 0, 0], 1e-4) @ p]))
    b = majorana.config_from_points(np.array([p, [1.0, 0.0, 0.0]]))
    assert abs(rotmatch.matching_distance(a, b) - math.sqrt(2)) < 1e-3
    assert rotmatch.all_matching_rotations(a, b) == []


def test_matching_in_blocks_of_one_candidate_gives_the_same_rotations(monkeypatch):
    rng = np.random.default_rng(31)
    cases = [pair for which in range(4) for pair in polyhedron_configs(rng, which)]
    cases += [pair for _ in range(4) for pair in probe_configs(rng)]
    whole = [rotmatch.all_matching_rotations(a, b) for a, b in cases]
    monkeypatch.setattr(rotmatch, "_MATCH_BLOCK", 1)
    for (a, b), want in zip(cases, whole):
        got = rotmatch.all_matching_rotations(a, b)
        assert len(got) == len(want) and all(np.array_equal(r, s) for r, s in zip(got, want))


def test_matching_a_large_ngon_stays_within_its_block():
    # 200 anchor candidates of 100 x 100 distances each: 48 MB of differences at once
    cfg = ngon_config(100)
    tracemalloc.start()
    try:
        found = rotmatch.all_matching_rotations(cfg, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 200
    assert peak < 8 * 2**20


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


# A matcher that tries one candidate rotation at a time, the reference for
# the stacked one: anchor pairs in the same order, the greedy
# closest-free-pair rule by a scan of the sorted distances, deduplication at
# 1e-8 entrywise and the (angle, axis) sort key.


def reference_key(r):
    # a rotation and its inverse share angle and canonical axis: the sign that made the axis canonical tells them apart
    axis, angle = rotmatch.axis_angle(r)
    sign = next((1.0 if c > 0 else -1.0 for c in axis if abs(c) > 1e-9), 1.0)
    axis = sign * axis
    return (round(angle, 9), round(axis[0], 9), round(axis[1], 9), round(axis[2], 9), int(sign < 0))


def reference_assignment_max(apts, amults, bpts, bmults, r, tol):
    rotated = apts @ r.T
    worst = 0.0
    for mult in set(int(m) for m in amults):
        ai = [i for i, m in enumerate(amults) if m == mult]
        bi = [j for j, m in enumerate(bmults) if m == mult]
        if len(ai) != len(bi):
            return None
        cost = np.linalg.norm(rotated[ai][:, None, :] - bpts[bi][None, :, :], axis=2)
        taken_rows, taken_cols = set(), set()
        for f in np.argsort(cost, axis=None):
            i, j = divmod(int(f), cost.shape[1])
            if i in taken_rows or j in taken_cols:
                continue
            taken_rows.add(i)
            taken_cols.add(j)
            worst = max(worst, float(cost[i, j]))
            if worst > tol:
                return None
            if len(taken_rows) == len(ai):
                break
    return worst


def reference_frame(p1, p2):
    u = p2 - np.dot(p2, p1) * p1
    u = u / np.linalg.norm(u)
    return np.column_stack([p1, u, np.cross(p1, u)])


def reference_anchors(cfg):
    mults, pts = cfg.multiplicities, cfg.points
    cands = [i for i, m in enumerate(mults) if m == int(mults.min())]
    a1_idx = min(cands, key=lambda i: tuple(np.round(pts[i], 12)))
    a1 = pts[a1_idx]
    best = None
    for i, p in enumerate(pts):
        score = abs(float(np.dot(a1, p)))
        if i == a1_idx or score > 1.0 - 1e-12:
            continue
        key = (score, tuple(np.round(p, 12)))
        if best is None or key < best[0]:
            best = (key, p)
    return a1, best[1]


def reference_matching_rotations(a, b, tol=1e-6):
    if sorted(a.multiplicities) != sorted(b.multiplicities):
        return []
    axial = [
        c.points[0] if len(c.points) == 1 or (len(c.points) == 2 and np.linalg.norm(c.points.sum(0)) <= tol) else None
        for c in (a, b)
    ]
    if (axial[0] is None) != (axial[1] is None):
        return []
    if axial[0] is not None:
        cands = [rotmatch.rotation_between(axial[0], t) for t in (axial[1], -axial[1])]
    else:
        a1, a2 = reference_anchors(a)
        ref, fa = float(np.dot(a1, a2)), reference_frame(a1, a2)
        m1 = int(a.multiplicities.min())
        cands = [
            reference_frame(b1, b2) @ fa.T
            for i, b1 in enumerate(b.points)
            if b.multiplicities[i] == m1
            for j, b2 in enumerate(b.points)
            if j != i
            and abs(float(np.dot(b1, b2)) - ref) <= 3.0 * tol + 1e-12
            and abs(float(np.dot(b1, b2))) <= 1.0 - 1e-12
        ]
    unique = []
    for r in cands:
        if reference_assignment_max(a.points, a.multiplicities, b.points, b.multiplicities, r, tol) is None:
            continue
        if not any(np.max(np.abs(u - r)) <= 1e-6 for u in unique):
            unique.append(r)
    return sorted(unique, key=reference_key)


def cube_config():
    pts = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float)
    return majorana.config_from_points(pts / math.sqrt(3))


def probe_configs(rng):
    """One draw of the degenerate probe at n <= 24: its exact points and the Majorana points of psi and of a turned psi."""
    n = int(rng.integers(3, 25))
    parts = min(int(rng.integers(1, 5)), n)
    cuts = np.sort(rng.choice(np.arange(1, n), parts - 1, replace=False))
    mults = np.diff(np.concatenate([[0], cuts, [n]]))
    pts = rng.normal(size=(parts, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    psi = majorana.points_to_state(pts, mults)
    g = states.random_su2(rng)
    exact = majorana.config_from_points(pts, mults)
    turned = majorana.config_from_points(pts @ rotmatch.su2_to_so3(g).T, mults)
    found = majorana.majorana_points(psi)
    moved = majorana.majorana_points(states.apply_diag_symmetric(g, psi))
    return [(exact, turned), (found, found), (found, moved), (moved, moved)]


def polyhedron_configs(rng, which):
    cfg = (tetrahedron_config, octahedron_config, cube_config, icosahedron_config)[which]()
    r = rotmatch.su2_to_so3(states.random_su2(rng))
    turned = majorana.config_from_points(cfg.points @ r.T, cfg.multiplicities)
    return [(cfg, cfg), (cfg, turned), (turned, turned)]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), polyhedron=st.sampled_from([None, 0, 1, 2, 3]))
def test_stacked_matcher_agrees_with_the_per_candidate_reference(seed, polyhedron):
    rng = np.random.default_rng(seed)
    cases = probe_configs(rng) if polyhedron is None else polyhedron_configs(rng, polyhedron)
    for a, b in cases:
        got = rotmatch.all_matching_rotations(a, b)
        want = reference_matching_rotations(a, b)
        assert len(got) == len(want)
        for r, s in zip(got, want):
            assert np.max(np.abs(r - s)) <= 1e-10
        keys = [reference_key(r) for r in got]
        assert keys == sorted(keys) and keys == [reference_key(r) for r in want]
        for r in got:
            worst = reference_assignment_max(a.points, a.multiplicities, b.points, b.multiplicities, r, np.inf)
            assert worst <= 1e-6


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
    r = Rotation.random(None, rng).as_matrix()
    cfg = tetrahedron_config()
    rotated = majorana.config_from_points(cfg.points @ r.T, cfg.multiplicities)
    grp = rotmatch.symmetry_group(rotated)
    assert grp.tag == "Tetrahedral"
    assert grp.order == 12


def test_point_group_elements_are_one_read_only_stack():
    grp = rotmatch.symmetry_group(tetrahedron_config())
    assert isinstance(grp.elements, np.ndarray) and grp.elements.shape == (12, 3, 3)
    assert not grp.elements.flags.writeable
    with pytest.raises(ValueError):
        grp.elements[0, 0, 0] = 2.0
    assert len(grp.elements) == 12 and np.array_equal(grp.elements[3], list(grp.elements)[3])
    assert rotmatch.symmetry_group(random_config(np.random.default_rng(5), 5)).elements.shape == (1, 3, 3)
    assert rotmatch.symmetry_group(ngon_config(1)).elements.shape == (0, 3, 3)


@pytest.mark.parametrize("config", [tetrahedron_config, octahedron_config, icosahedron_config, lambda: ngon_config(5)])
def test_point_group_does_not_follow_the_order_of_its_elements(config):
    # a rotation and its inverse share angle and axis up to sign: the pick must not fall to roundoff or input order
    want = rotmatch.symmetry_group(config())
    rng = np.random.default_rng(24)
    for _ in range(5):
        got = rotmatch.point_group(want.elements[rng.permutation(len(want.elements))])
        assert (got.tag, got.m, got.order) == (want.tag, want.m, want.order)
        assert np.array_equal(got.elements, want.elements)
        assert len(got.generators) == len(want.generators)
        assert all(np.array_equal(a, b) for a, b in zip(got.generators, want.generators))
        assert np.array_equal(got.axis, want.axis)
    # inverses come in a fixed order too: each turn before its inverse
    axes, angles = rotmatch.axis_angle(want.elements)
    for k, r in enumerate(want.elements):
        inverse = int(np.argmin(np.abs(want.elements - r.T).max(axis=(1, 2))))
        if 1e-9 < angles[k] < math.pi - 1e-9:
            assert (inverse > k) == (rotmatch._canonical_axes(axes[k]) @ axes[k] > 0)


def test_point_group_rejects_wrong_order_claim():
    with pytest.raises(SymmluError):
        rotmatch.PointGroup("Cyclic", 4, 4, np.array([0.0, 0.0, 1.0]), (), ())


def test_point_group_rejects_elements_that_contradict_its_order():
    # a finite group's elements must be `order` rotations that its generators generate
    z = np.array([0.0, 0.0, 1.0])
    sixfold = rotmatch.closure([rotmatch.rotation_about(z, math.pi / 3)])  # turns by 0, 60, ..., 300 degrees
    third = sixfold[2]
    with pytest.raises(SymmluError, match="claims order 3, but its 6 elements are not the 3 rotations"):
        rotmatch.PointGroup("Cyclic", 3, 3, z, (third,), sixfold)
    with pytest.raises(SymmluError, match="claims order 3, but its 0 elements are not the 3 rotations"):
        rotmatch.PointGroup("Cyclic", 3, 3, z, (third,), ())
    with pytest.raises(SymmluError, match="claims order 3"):
        rotmatch.PointGroup("Cyclic", 3, 3, z, (third,), sixfold[[0, 1, 2]])
    with pytest.raises(SymmluError, match="claims order 3"):
        rotmatch.PointGroup("Cyclic", 3, 3, z, (sixfold[1],), sixfold[[0, 2, 4]])
    # as many elements as the order claims, closed under the generator, but it reaches only half of them
    with pytest.raises(SymmluError, match="claims order 6, but its 6 elements are not the 3 rotations"):
        rotmatch.PointGroup("Cyclic", 6, 6, z, (third,), sixfold)
    grp = rotmatch.PointGroup("Cyclic", 3, 3, z, (third,), sixfold[[4, 0, 2]])
    assert grp.order == 3 and np.array_equal(grp.elements, sixfold[[4, 0, 2]])


def named_group(name):
    """The elements of C_m, D_m (as 'C3', 'D4', ...) or the rotation group of T, O or I, a (K, 3, 3) stack."""
    if name in "TOI":
        config = {"T": tetrahedron_config, "O": octahedron_config, "I": icosahedron_config}[name]
        return rotmatch.symmetry_group(config()).elements
    m = int(name[1:])
    gens = [rotmatch.rotation_about([0, 0, 1], 2 * math.pi / m)]
    if name[0] == "D":
        gens.append(rotmatch.rotation_about([1, 0, 0], math.pi))
    return rotmatch.closure(gens)


def same_elements(a, b, tol):
    """Each rotation of a within tol of one of b and back, entrywise."""
    gap = np.abs(a[:, None] - b[None]).max(axis=(2, 3)) <= tol
    return len(a) == len(b) and gap.any(axis=0).all() and gap.any(axis=1).all()


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    name=st.sampled_from([f"C{m}" for m in range(1, 7)] + [f"D{m}" for m in range(2, 7)] + ["T", "O", "I"]),
    keep=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_point_group_names_the_group_its_rotations_generate(name, keep, seed):
    # any subset, in any order, names the group it generates; a near-duplicate changes nothing
    rng = np.random.default_rng(seed)
    frame = Rotation.random(None, rng).as_matrix()
    group = frame @ named_group(name) @ frame.T
    subset = group[rng.permutation(len(group))[: max(1, round(keep * len(group)))]]
    generated = rotmatch.closure(subset)
    want = rotmatch.point_group(generated)
    assert want.order == len(generated) and same_elements(want.elements, generated, 0.0)
    got = rotmatch.point_group(subset)
    assert (got.tag, got.m, got.order) == (want.tag, want.m, want.order)
    if len(generated) == len(group):
        assert (got.tag, got.order) == (rotmatch.point_group(group).tag, len(group))
    assert np.allclose(got.elements, want.elements, rtol=0, atol=1e-9)
    assert len(got.generators) == len(want.generators)
    assert all(np.allclose(a, b, rtol=0, atol=1e-9) for a, b in zip(got.generators, want.generators))
    assert (got.axis is None) == (want.axis is None)
    if got.axis is not None:
        assert np.allclose(got.axis, want.axis, rtol=0, atol=1e-9)
    # a member turned by at most 1e-8 rad, put in at a random place
    member = subset[rng.integers(len(subset))]
    twin = member @ rotmatch.rotation_about(rng.normal(size=3), rng.uniform(0, 1e-8))
    noisy = np.insert(subset, rng.integers(len(subset) + 1), twin, axis=0)
    got = rotmatch.point_group(noisy)
    assert (got.tag, got.m, got.order) == (want.tag, want.m, want.order)
    assert same_elements(got.elements, want.elements, 1e-6)


def test_point_group_of_a_set_that_is_not_closed():
    # two of the tetrahedron's threefold turns generate it; the identity is not needed
    group = rotmatch.symmetry_group(tetrahedron_config())
    axes, angles = rotmatch.axis_angle(group.elements)
    threefold = group.elements[np.abs(angles - 2 * math.pi / 3) < 1e-9]
    got = rotmatch.point_group(threefold[[0, 3]])
    assert (got.tag, got.order) == ("Tetrahedral", 12)
    assert same_elements(got.elements, group.elements, 1e-12)
    assert rotmatch.point_group(np.zeros((0, 3, 3))).tag == "Trivial"
    # a near-identity rotation is the identity
    near = rotmatch.rotation_about([0.3, 0.4, 0.5], 5e-7)
    assert rotmatch.point_group([np.eye(3), near]).order == 1


def reference_generators(ranked):
    """The generators of the breadth-first pick: each rotation of ranked that the closure of those before does not reach."""
    gens, group = [], np.eye(3)[None]
    while True:
        outside = np.flatnonzero(~rotmatch._close(ranked, group).any(axis=1))
        if not outside.size:
            return gens
        gens.append(ranked[outside[0]])
        group = rotmatch.closure(gens)


def reference_census(axes, angles):
    """(axis, fold) of the greedy census: the first axis left takes every axis left within 1e-6 of it, either sign."""
    axes = rotmatch._canonical_axes(axes[angles >= 1e-9])
    gap = np.linalg.norm(axes[:, None] - axes[None], axis=2)
    close = np.minimum(gap, np.linalg.norm(axes[:, None] + axes[None], axis=2)) < 1e-6
    left, census = np.ones(len(axes), dtype=bool), []
    while left.any():
        first = int(np.argmax(left))
        members = left & close[first]
        census.append((axes[first], int(members.sum()) + 1))
        left &= ~members
    return census


_NAMED = {"T": ("Tetrahedral", None, 12), "O": ("Octahedral", None, 24), "I": ("Icosahedral", None, 60)}


@pytest.mark.parametrize("name", ["C2", "C3", "C5", "D2", "D3", "D6", "T", "O", "I"])
def test_a_closed_set_fills_one_product_table_per_generator(name, monkeypatch):
    # in a random frame and order; the answer is the one the breadth-first pick and the greedy census give, bit for bit
    rng = np.random.default_rng(sum(map(ord, name)))
    frame = Rotation.random(None, rng).as_matrix()
    group = frame @ named_group(name) @ frame.T
    group = group[rng.permutation(len(group))]
    ranked, axes, angles = rotmatch._ranked(group)
    want_gens, want_census = reference_generators(ranked), reference_census(axes, angles)
    tables = []
    fill = rotmatch._fill_products

    def spy(elems, cols, gens):
        missing = int((cols < 0).sum())
        out = fill(elems, cols, gens)
        tables.append((len(elems), missing, len(out[0])))
        return out

    monkeypatch.setattr(rotmatch, "_fill_products", spy)
    monkeypatch.setattr(rotmatch, "closure", lambda mats: pytest.fail("a closed set is not closed again"))
    got = rotmatch.point_group(group)
    k, order = len(want_gens), len(group)
    # the pick fills one column of the K rows per generator, PointGroup's check all k at once; no row is appended
    assert tables == [(order, order, order)] * k + [(order, k * order, order)]
    m = int(name[1:]) if name[0] in "CD" else None
    want = _NAMED.get(name) or ("Cyclic" if name[0] == "C" else "Dihedral", m, m if name[0] == "C" else 2 * m)
    assert (got.tag, got.m, got.order) == want
    assert np.array_equal(got.elements, ranked)
    assert len(got.generators) == k and all(np.array_equal(a, b) for a, b in zip(got.generators, want_gens))
    census = rotmatch._axis_census(axes, angles)
    assert [(a.tobytes(), f) for a, f in census] == [(a.tobytes(), f) for a, f in want_census]
    by_fold = {}
    for axis, fold in want_census:
        by_fold.setdefault(fold, []).append(axis)
    assert np.array_equal(got.axis, min(by_fold[max(by_fold)], key=lambda a: tuple(np.round(a, 9))))


def test_rotations_at_the_identity_are_trivial_before_any_product_table(monkeypatch):
    fill = rotmatch._fill_products
    tables = []
    monkeypatch.setattr(rotmatch, "_fill_products", lambda e, c, g: tables.append(c.shape) or fill(e, c, g))
    monkeypatch.setattr(rotmatch, "_ranked", lambda rots: pytest.fail("nothing to rank"))
    near = rotmatch.rotation_about([0.3, 0.4, 0.5], 5e-7)
    for rots in (np.eye(3)[None], near[None], np.stack([near, np.eye(3)]), np.zeros((0, 3, 3))):
        got = rotmatch.point_group(rots)
        assert (got.tag, got.order, got.generators) == ("Trivial", 1, ())
        assert np.array_equal(got.elements, np.eye(3)[None])
    assert tables == [(1, 0)] * 4  # PointGroup's check, with no generator


@pytest.mark.parametrize("size", [4, 12, 100])
def test_close_table_is_the_entrywise_table(size):
    # pairs on either side of the 1e-6 edge; at size 100 the 200 x 200 table takes more than one row block
    rng = np.random.default_rng(size)
    a = Rotation.random(size, rng).as_matrix().reshape(-1, 3, 3)
    a = np.concatenate([a, a @ Rotation.random(size, rng).as_matrix().reshape(-1, 3, 3)])
    scale = rng.uniform(0.9e-6, 1.1e-6, size=(len(a), 1, 1))
    b = a[rng.permutation(len(a))] + scale * rng.choice([-1.0, 1.0], size=a.shape)
    want = np.abs(a[:, None] - b[None]).max(axis=(2, 3)) <= 1e-6
    assert 0 < want.sum() < len(a)
    assert np.array_equal(rotmatch._close(a, b), want)
    assert np.array_equal(rotmatch._close(a[:3], b), want[:3])


def degenerate_probe_draw(draw):
    """psi and its turn at draw `draw` of the degenerate probe: default_rng(2026), n in 3..12, up to four parts."""
    rng = np.random.default_rng(2026)
    for _ in range(draw + 1):
        n = int(rng.integers(3, 13))
        parts = min(int(rng.integers(1, 5)), n)
        cuts = np.sort(rng.choice(np.arange(1, n), parts - 1, replace=False))
        mults = np.diff(np.concatenate([[0], cuts, [n]]))
        pts = rng.normal(size=(parts, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        psi = majorana.points_to_state(pts, mults)
        g = states.random_su2(rng)
    return psi, states.apply_diag_symmetric(g, psi)


@pytest.mark.parametrize("draw", [62, 96])
def test_self_matches_of_found_roots_hold_no_near_duplicates(draw):
    # roots of one cluster about 1e-6 apart once gave the identity and a turn by under 1e-6 rad as two self-matches
    for state in degenerate_probe_draw(draw):
        cfg = majorana.majorana_points(state)
        rots = np.array(rotmatch.all_matching_rotations(cfg, cfg)).reshape(-1, 3, 3)
        gap = np.abs(rots[:, None] - rots[None]).max(axis=(2, 3))
        assert (gap[~np.eye(len(rots), dtype=bool)] > 1e-6).all()


def test_closure_generates_dihedral_three():
    turn = rotmatch.rotation_about([0, 0, 1], 2 * math.pi / 3)
    flip = rotmatch.rotation_about([1, 0, 0], math.pi)
    elems = rotmatch.closure((turn, flip))
    assert len(elems) == 6
    group_axioms(list(elems))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(m=st.integers(1, 12), dihedral=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_closure_of_cyclic_and_dihedral_generators(m, dihedral, seed):
    frame = Rotation.random(None, np.random.default_rng(seed)).as_matrix()
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


def test_closure_one_past_the_cap_raises():
    # a finite group of cap + 1 elements is refused like an infinite one
    turn = rotmatch.rotation_about([0.3, -0.5, 0.8], 2 * math.pi / 201)
    with pytest.raises(SymmluError, match="closure exceeded 200 elements; not a small finite group"):
        rotmatch.closure([turn])


def test_size_mismatch_raises():
    with pytest.raises(DomainError):
        rotmatch.all_matching_rotations(ngon_config(3), ngon_config(4))
