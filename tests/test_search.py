"""The shared lattice search: lattices, local minima, starts and refinement."""
import itertools
import math

import numpy as np
import pytest

from symmlu import _kernels, majorana, search, states


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


def test_lattice_is_the_c_order_product_of_its_axes():
    axes = ([0.0, 1.5], [2.0, 3.0, 4.0], [-1.0])
    got = search.lattice(*axes)
    assert got.shape == (6, 3)
    assert got.tolist() == [list(p) for p in itertools.product(*axes)]


@pytest.mark.parametrize("grid", [4, 7, 12])
def test_euler_lattice_keeps_alpha_beta_gamma_row_order(grid):
    alphas = np.linspace(0.0, 2 * math.pi, grid, endpoint=False)
    betas = np.linspace(0.0, math.pi, grid)
    want = np.array([[a, b, g] for a in alphas for b in betas for g in alphas])
    got = search.euler_lattice(grid)
    assert np.array_equal(got, want)  # bitwise, gamma fastest
    assert got[:, 0].max() < 2 * math.pi and got[:, 1].max() == math.pi


# ---------------------------------------------------------------------------
# local minima
# ---------------------------------------------------------------------------


def test_local_minima_on_a_wrapped_axis_compare_across_the_seam():
    vals = np.array([1.0, 2.0, 3.0, 0.5])
    # index 0 sees index 3 (0.5) across the seam, so only index 3 is a minimum
    assert search.local_minima(vals, wrap=(0,)).tolist() == [3]


def test_local_minima_pad_unwrapped_edges_with_infinity():
    vals = np.array([1.0, 2.0, 3.0, 0.5])
    # without wrapping, the edges have no outer neighbor, so both ends are minima
    assert search.local_minima(vals, wrap=()).tolist() == [0, 3]


def test_local_minima_keep_every_point_of_a_plateau():
    assert search.local_minima(np.array([2.0, 1.0, 1.0, 3.0]), wrap=()).tolist() == [1, 2]
    assert search.local_minima(np.ones(4), wrap=(0,)).tolist() == [0, 1, 2, 3]


def test_local_minima_mix_wrapped_and_unwrapped_axes_in_flat_order():
    vals = np.array(
        [
            [5.0, 4.0, 5.0],
            [9.0, 9.0, 9.0],
            [0.0, 9.0, 9.0],
        ]
    )
    # open axes: the corner (2, 2) = 9 ties its two neighbors and is a minimum
    assert search.local_minima(vals, wrap=()).tolist() == [1, 6, 8]
    # wrapping axis 0, the corner also sees (0, 2) = 5 across the seam
    assert search.local_minima(vals, wrap=(0,)).tolist() == [1, 6]
    # wrapping axis 1, the corner sees (2, 0) = 0 across the seam
    assert search.local_minima(vals, wrap=(1,)).tolist() == [1, 6]


# ---------------------------------------------------------------------------
# starts
# ---------------------------------------------------------------------------


def test_lowest_minima_take_the_count_lowest_local_minima_lowest_first():
    vals = np.array(
        [
            [3.0, 9.0, 2.0, 9.0],
            [5.0, 9.0, 5.0, 9.0],
            [1.0, 9.0, 2.0, 9.0],
        ]
    )
    # local minima (axis 1 wrapped) at flat 0, 2, 8, 10 with values 3, 2, 1, 2;
    # the tie of 2 keeps flat order
    assert search.lowest_minima(vals, (1,), 3).tolist() == [8, 2, 10]
    # a count past the minima takes them all, and never a lower non-minimum (the 5s)
    assert search.lowest_minima(vals, (1,), 12).tolist() == [8, 2, 10, 0]


def test_best_takes_the_first_lowest_result():
    a, b, c = np.array([0.0]), np.array([1.0]), np.array([2.0])
    x, f2 = search.best([(a, 0.5), (b, 0.1), (c, 0.1)])
    assert x is b and f2 == 0.1
    assert search.best([]) == (None, math.inf)


def test_euler_scan_objective_matches_the_lattice_values():
    rng = np.random.default_rng(5)
    rho = states.random_symmetric_mixed(3, rng).mat
    target = states.random_symmetric_mixed(3, rng).mat
    points, dists, model = search.euler_scan(_kernels.density_factor(rho), _kernels.density_factor(target), 3, 4)
    assert np.array_equal(points, search.euler_lattice(4))
    for i in (0, 17, 63):
        f2 = model(_kernels.euler_su2_batch(points[i : i + 1]))[0][0]
        assert math.sqrt(f2) == pytest.approx(dists[i], abs=1e-12)


def test_block_distance_matches_the_dense_scan():
    rng = np.random.default_rng(6)
    rho = states.random_symmetric_mixed(4, rng)
    target = states.random_symmetric_mixed(4, rng)
    blocks = states.spin_blocks(4)
    rho_b, target_b = blocks.compress(rho), blocks.compress(target)
    points, dense, _ = search.euler_scan(_kernels.density_factor(rho.mat), _kernels.density_factor(target.mat), 4, 4)
    block = [blocks.distance(_kernels.euler_su2(*x), rho_b, target_b) for x in points]
    assert np.max(np.abs(np.array(block) - dense)) < 1e-12


# ---------------------------------------------------------------------------
# damped Gauss-Newton refinement
# ---------------------------------------------------------------------------


def _tetrahedron_rho():
    pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    return states.to_density(majorana.points_to_state(pts)).mat


def _rotation(axis, angle):
    """exp(-i angle axis.sigma / 2) for a unit axis."""
    gen = sum(c * p for c, p in zip(axis, (states.PAULI_X, states.PAULI_Y, states.PAULI_Z)))
    return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * gen


def _tetrahedral_group():
    """The 12 rotations of the tetrahedron with vertices (1, 1, 1), (1, -1, -1), ... in SU(2), one sign each."""
    out = [np.eye(2, dtype=np.complex128)]
    out += [_rotation(axis, math.pi) for axis in np.eye(3)]
    for v in np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3):
        out += [_rotation(v, 2 * math.pi / 3), _rotation(v, 4 * math.pi / 3)]
    return out


def _group_index(g, group):
    """Index of the element of group equal to g up to sign; None when there is none."""
    hits = [i for i, h in enumerate(group) if min(np.max(np.abs(g - h)), np.max(np.abs(g + h))) < 1e-10]
    return hits[0] if len(hits) == 1 else None


def test_refine_all_on_the_tetrahedron_lattice_minima():
    factor = _kernels.density_factor(_tetrahedron_rho())
    points, dists, model = search.euler_scan(factor, factor, 4, 12)
    starts = points[search.local_minima(dists.reshape((12,) * 3), wrap=(0, 2))]
    assert len(starts) > 40
    got = search.gauss_newton(model, _kernels.su2_left_step, _kernels.euler_su2_batch(starts))
    assert len(got) == len(starts)
    assert max(f2 for _, f2 in got) < 1e-20  # every start reaches a stabilizer element
    group = _tetrahedral_group()
    reached = [_group_index(g, group) for g, _ in got]
    assert None not in reached
    assert sorted(set(reached)) == list(range(12))  # the accepted witnesses are the whole group


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_refinement_leaves_gimbal_lock(n):
    # beta = 0 rows of the Euler lattice, where Euler coordinates lose a
    # direction; the left steps do not, and reach rz(2 pi k / n) of GHZ_n
    factor = _kernels.density_factor(states.to_density(states.ghz(n)).mat)
    _, _, model = search.euler_scan(factor, factor, n, 4)
    calls = [0]

    def counted(gs):
        calls[0] += 1
        return model(gs)

    turn = np.linspace(0.0, 2 * math.pi, 7, endpoint=False)
    starts = search.lattice(turn, [0.0], [0.0, 0.3])
    got = search.gauss_newton(counted, _kernels.su2_left_step, _kernels.euler_su2_batch(starts))
    assert max(math.sqrt(f2) for _, f2 in got) <= 1e-12
    assert calls[0] <= 12
    phases = set()
    for g, _ in got:
        assert abs(g[0, 1]) + abs(g[1, 0]) < 1e-12  # still a rotation about z
        turns = (np.angle(g[1, 1] / g[0, 0]) / (2 * math.pi) * n) % n
        assert min(turns % 1, 1 - turns % 1) < 1e-9
        phases.add(round(turns) % n)
    assert phases == set(range(n))


def test_refinement_from_gimbal_lock_reaches_the_identity():
    rng = np.random.default_rng(34)
    vec = states.expand(states.random_symmetric(4, rng)).amps[:, None]  # a pure state's factor
    _, _, model = search.euler_scan(vec, vec, 4, 4)
    starts = np.array([[0.1, 0.0, -0.05], [0.2, 0.0, 0.0], [0.0, 0.0, -0.15]])
    for g, f2 in search.gauss_newton(model, _kernels.su2_left_step, _kernels.euler_su2_batch(starts)):
        assert math.sqrt(f2) <= 1e-12
        assert min(np.max(np.abs(g - np.eye(2))), np.max(np.abs(g + np.eye(2)))) < 1e-12


def test_gauss_newton_rounds_stop_at_the_first_good_round():
    # r = (x - 2, x^2 - 4): zero at x = 2, a local minimum of ||r||^2 = 13.9 at x = -1.707
    def model(xs):
        r = np.hstack([xs - 2.0, xs * xs - 4.0])
        jac = np.hstack([np.ones_like(xs), 2.0 * xs])
        return np.sum(r * r, axis=1), np.sum(jac * r, axis=1, keepdims=True), np.sum(jac * jac, axis=1)[:, None, None]

    starts = np.array([[-3.0], [-2.5], [1.0], [-1.0], [3.0]])
    everything = search.gauss_newton(model, np.add, starts)
    assert [round(float(x[0]), 3) for x, _ in everything] == [-1.707, -1.707, 2.0, -1.707, 2.0]
    two_rounds = search.gauss_newton(model, np.add, starts, stop_f2=1e-20, rows=2)
    assert len(two_rounds) == 4  # the second round holds the first good start
    assert [f2 <= 1e-20 for _, f2 in two_rounds] == [False, False, True, False]
    # the fourth start stopped where it stood when the third reached the threshold
    for (x, f2), (x_all, f2_all) in zip(two_rounds[:3], everything):
        assert np.allclose(x, x_all) and f2 == pytest.approx(f2_all, abs=1e-24)
    calls = []

    def counted(xs):
        calls.append(len(xs))
        return model(xs)

    search.gauss_newton(counted, np.add, starts[2:4])
    to_the_end = len(calls)
    calls.clear()
    search.gauss_newton(counted, np.add, starts[2:4], stop_f2=1e-20)
    assert len(calls) < to_the_end  # a round ends when its first start is good enough


def test_a_zero_gauss_newton_matrix_takes_no_step():
    # a flat objective: roundoff values and gradients, a Gauss-Newton matrix
    # that is zero or has no positive diagonal entry
    def model(xs):
        grad = np.full_like(xs, 1e-17)
        gn = np.zeros((len(xs), 2, 2))
        gn[1::2] = np.diag([-1e-17, 0.0])
        return np.full(len(xs), 1e-33), grad, gn

    starts = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    got = search.gauss_newton(model, np.add, starts)
    assert [x.tolist() for x, _ in got] == starts.tolist()
    assert [f2 for _, f2 in got] == [1e-33] * 3


def test_refine_all_of_no_starts_is_empty():
    assert search.gauss_newton(None, np.add, np.empty((0, 2))) == []
