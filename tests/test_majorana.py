"""Point configurations of symmetric states: forced cases and round trips."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmlu import majorana, states
from symmlu.errors import DomainError


def test_bloch_angle_spinor_conversions():
    rng = np.random.default_rng(30)
    for _ in range(50):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        theta, phi = majorana.angles_from_bloch(v)
        assert np.max(np.abs(majorana.bloch_from_angles(theta, phi) - v)) < 1e-12
        sp = majorana.spinor_from_bloch(v)
        assert abs(np.linalg.norm(sp) - 1.0) < 1e-12
        assert np.max(np.abs(majorana.bloch_from_spinor(sp) - v)) < 1e-12


def test_bloch_from_root_special_values():
    north = majorana.bloch_from_root(0.0)
    assert np.allclose(north, [0, 0, 1])
    assert np.allclose(majorana.bloch_from_root(1.0), [1, 0, 0], atol=1e-15)
    assert np.allclose(majorana.bloch_from_root(1j), [0, 1, 0], atol=1e-15)
    far = majorana.bloch_from_root(1e200 + 1e200j)
    assert np.allclose(far, [0, 0, -1])


def test_all_zero_state_is_north_pole():
    cfg = majorana.majorana_points(states.dicke(4, 0))
    assert cfg.points.shape == (1, 3)
    assert np.allclose(cfg.points[0], [0, 0, 1], atol=1e-14)
    assert cfg.multiplicities[0] == 4


def test_all_one_state_is_south_pole():
    cfg = majorana.majorana_points(states.dicke(4, 4))
    assert cfg.points.shape == (1, 3)
    assert np.allclose(cfg.points[0], [0, 0, -1], atol=1e-14)
    assert cfg.multiplicities[0] == 4


def test_dicke_states_are_pole_pairs():
    for n, k in [(3, 1), (4, 1), (4, 2), (5, 2), (6, 5)]:
        cfg = majorana.majorana_points(states.dicke(n, k))
        assert cfg.points.shape[0] == 2
        mults = dict()
        for p, m in zip(cfg.points, cfg.multiplicities):
            mults[round(float(p[2]))] = int(m)
            assert abs(abs(float(p[2])) - 1.0) < 1e-12
        # k excitations put multiplicity k at the south pole
        assert mults[-1] == k
        assert mults[1] == n - k


def test_ghz_points_form_equatorial_ngon():
    for n in range(3, 9):
        cfg = majorana.majorana_points(states.ghz(n))
        assert cfg.points.shape[0] == n
        assert np.max(np.abs(cfg.points[:, 2])) < 1e-10
        phis = np.sort(np.mod(np.arctan2(cfg.points[:, 1], cfg.points[:, 0]), 2 * math.pi))
        gaps = np.diff(np.concatenate([phis, [phis[0] + 2 * math.pi]]))
        assert np.max(np.abs(gaps - 2 * math.pi / n)) < 1e-8


def test_single_qubit_point():
    psi = states.symmetrize([np.array([1.0, 1.0]) / math.sqrt(2)])
    cfg = majorana.majorana_points(psi)
    assert np.allclose(cfg.points[0], [1, 0, 0], atol=1e-12)


def test_round_trip_random_states():
    rng = np.random.default_rng(31)
    for n in range(1, 9):
        for _ in range(10):
            psi = states.random_symmetric(n, rng)
            back = majorana.points_to_state(majorana.majorana_points(psi))
            assert psi.distance(back) < 1e-10


def test_round_trip_with_double_roots_at_default_tolerance():
    # double roots scatter by ~sqrt(eps), well inside the default radius
    rng = np.random.default_rng(32)
    for mults in ([2, 1], [2, 2], [2, 2, 1]):
        pts = rng.normal(size=(len(mults), 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        cfg = majorana.config_from_points(pts, mults)
        psi = majorana.points_to_state(cfg)
        got = majorana.majorana_points(psi)
        assert majorana.points_to_state(got).distance(psi) < 1e-9
        assert sorted(got.multiplicities.tolist()) == sorted(mults)


def test_round_trip_with_heavy_multiplicities_needs_coarser_radius():
    # m-fold roots scatter by ~eps^(1/m); callers pass a coarser radius
    rng = np.random.default_rng(36)
    for mults in ([3], [4, 1], [3, 2, 1]):
        pts = rng.normal(size=(len(mults), 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        cfg = majorana.config_from_points(pts, mults)
        psi = majorana.points_to_state(cfg)
        got = majorana.majorana_points(psi, tol=1e-2)
        assert majorana.points_to_state(got).distance(psi) < 1e-8
        assert sorted(got.multiplicities.tolist()) == sorted(mults)


def test_points_to_state_matches_direct_symmetrization():
    rng = np.random.default_rng(33)
    pts = rng.normal(size=(4, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    psi = majorana.points_to_state(majorana.config_from_points(pts))
    want = states.symmetrize([majorana.spinor_from_bloch(p) for p in pts])
    assert psi.distance(want) < 1e-13


def test_cluster_points_merges_within_radius():
    pts = np.array(
        [[0, 0, 1.0], [2e-7, 0, 1.0], [1.0, 0, 0]],
        dtype=float,
    )
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    merged_pts, merged_mults = majorana.cluster_points(pts, np.array([1, 1, 1]), 1e-6)
    assert merged_pts.shape[0] == 2
    assert sorted(merged_mults.tolist()) == [1, 2]


def test_cluster_points_chain_merges_to_fixpoint():
    # single-linkage: a chain of points each within eps of the next collapses
    pts = np.array([[0.0, 0.0], [0.9e-6, 0.0], [1.8e-6, 0.0]])
    pts3 = np.column_stack([pts, np.ones(3)])
    pts3 /= np.linalg.norm(pts3, axis=1, keepdims=True)
    merged_pts, merged_mults = majorana.cluster_points(pts3, np.array([1, 1, 1]), 1e-6)
    assert merged_pts.shape[0] == 1
    assert merged_mults[0] == 3


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_cluster_points_is_order_free_and_idempotent(k, seed):
    # k well-separated clusters of 1-3 points, each scattered by ~1e-8 around its centre
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(k, 3))
    sizes = rng.integers(1, 4, size=k)
    pts = np.repeat(centres / np.linalg.norm(centres, axis=1, keepdims=True), sizes, axis=0)
    pts += 1e-8 * rng.normal(size=pts.shape)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    mults = rng.integers(1, 3, size=len(pts))
    once_pts, once_mults = majorana.cluster_points(pts, mults, 1e-6)
    perm = rng.permutation(len(pts))
    perm_pts, perm_mults = majorana.cluster_points(pts[perm], mults[perm], 1e-6)
    assert len(once_pts) == len(perm_pts)
    dist = np.linalg.norm(once_pts[:, None] - perm_pts[None, :], axis=2)
    match = dist.argmin(axis=1)
    assert sorted(match.tolist()) == list(range(len(once_pts)))
    assert np.max(dist[np.arange(len(once_pts)), match]) < 1e-12
    assert np.array_equal(perm_mults[match], once_mults)
    twice_pts, twice_mults = majorana.cluster_points(once_pts, once_mults, 1e-6)
    assert np.array_equal(twice_pts, once_pts)
    assert np.array_equal(twice_mults, once_mults)


def test_cluster_points_keeps_the_first_point_when_the_mean_vanishes():
    # six equatorial points 60 degrees apart chain into one cluster whose mean is exactly 0;
    # a pair at the north pole comes first, so the ring is cluster 1 but starts at point 2
    s = math.sqrt(3) / 2
    ring = [[1, 0, 0], [0.5, s, 0], [-0.5, s, 0], [-1, 0, 0], [-0.5, -s, 0], [0.5, -s, 0]]
    pts = np.array([[0, 0, 1.0], [0, 1e-9, 1.0], *ring])
    merged_pts, merged_mults = majorana.cluster_points(pts, np.ones(8, dtype=int), 1.01)
    assert merged_mults.tolist() == [2, 6]
    assert np.array_equal(merged_pts[1], [1.0, 0.0, 0.0])


def test_multiple_root_recovery_is_tight():
    # repeated points scatter under root finding; a coarse radius re-merges
    # them and the derivative polish pulls the representative back
    v = np.array([0.6, 0.48, 0.64])
    v /= np.linalg.norm(v)
    cfg = majorana.config_from_points(np.array([v, [0, 0, 1.0]]), [5, 1])
    psi = majorana.points_to_state(cfg)
    got = majorana.majorana_points(psi, tol=1e-2)
    assert got.points.shape[0] == 2
    heavy = got.points[np.argmax(got.multiplicities)]
    assert np.linalg.norm(heavy - v) < 1e-8


def test_find_roots_degree_and_trimming():
    # trailing zeros: exact root at z = 0
    roots = majorana.find_roots(np.array([1.0, -1.0, 0.0], dtype=complex))
    assert np.min(np.abs(roots)) == 0.0
    # leading zeros reduce the degree (poles handled by the caller)
    roots = majorana.find_roots(np.array([0.0, 1.0, -2.0], dtype=complex))
    assert roots.shape == (1,)
    assert abs(roots[0] - 2.0) < 1e-12


def test_majorana_configuration_validation():
    with pytest.raises(DomainError):
        majorana.MajoranaConfiguration(1, np.array([[0.0, 0.0, 0.5]]), np.array([1]))
    with pytest.raises(DomainError):
        majorana.config_from_points(np.array([[0.0, 0.0, 1.0]]), [0])
    with pytest.raises(DomainError):
        majorana.MajoranaConfiguration(3, np.array([[0.0, 0.0, 1.0]]), np.array([2]))


def test_canonical_point_order_is_deterministic():
    rng = np.random.default_rng(34)
    pts = rng.normal(size=(5, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    a = majorana.config_from_points(pts)
    b = majorana.config_from_points(pts[::-1])
    assert np.max(np.abs(a.points - b.points)) < 1e-15
    assert a.multiplicities.tolist() == b.multiplicities.tolist()


def test_mobius_apply_tracks_state_rotation():
    rng = np.random.default_rng(35)
    for n in (2, 4, 6):
        psi = states.random_symmetric(n, rng)
        g = states.random_su2(rng)
        direct = majorana.majorana_points(states.apply_diag_symmetric(g, psi))
        moved = majorana.mobius_apply(g, majorana.majorana_points(psi))
        from symmlu import rotmatch

        assert rotmatch.matching_distance(direct, moved) < 1e-9


def test_antipodal_pair_with_phases():
    # a|0..0> + b|1..1> with nontrivial phases still yields n points
    psi = states.ghz(5, 0.6 * np.exp(0.3j), 0.8 * np.exp(-1.1j))
    cfg = majorana.majorana_points(psi)
    assert int(cfg.multiplicities.sum()) == 5
    back = majorana.points_to_state(cfg)
    assert psi.distance(back) < 1e-10


def _polynomial_loop(psi):
    """a_k = (-1)^k sqrt(C(n, k)) c_k, coefficient by coefficient, as complex scalars."""
    n, c = psi.n, psi.coeffs
    return np.array([(-1) ** k * math.sqrt(math.comb(n, k)) * c[k] for k in range(n + 1)], dtype=np.complex128)


def _majorana_cases():
    """Random states, pole-heavy Dicke and GHZ states, and degenerate multisets of 2 to 4 points."""
    rng = np.random.default_rng(2026)
    cases = [states.random_symmetric(n, rng) for n in list(range(1, 25)) + [48]]
    cases += [states.dicke(7, 3), states.dicke(6, 0), states.ghz(5, 0.6, 0.8)]
    for _ in range(30):
        n = int(rng.integers(3, 13))
        parts = min(int(rng.integers(2, 5)), n)
        mults = np.diff(np.concatenate([[0], np.sort(rng.choice(np.arange(1, n), parts - 1, replace=False)), [n]]))
        pts = rng.normal(size=(parts, 3))
        pts[0] = [0.0, 0.0, rng.choice([-1.0, 1.0])]  # a pole, trimmed into its multiplicity
        cases.append(majorana.points_to_state(pts / np.linalg.norm(pts, axis=1, keepdims=True), mults))
    return cases


def test_majorana_polynomial_is_the_coefficient_loop_bit_for_bit(monkeypatch):
    # the polynomial past the trimmed poles is what find_roots receives
    seen, find_roots = [], majorana.find_roots
    monkeypatch.setattr(majorana, "find_roots", lambda a: seen.append(a.copy()) or find_roots(a))
    for psi in _majorana_cases():
        seen.clear()
        majorana.majorana_points(psi)
        a = _polynomial_loop(psi)
        kept = np.flatnonzero(np.abs(a) > majorana.DEFAULT_TOLERANCES.coeff_zero * np.linalg.norm(a))
        mid = a[kept[0] : kept[-1] + 1]
        assert [s.tobytes() for s in seen] == ([mid.tobytes()] if mid.size >= 2 else [])
