"""The shared lattice search: lattices, local minima, starts and descent."""
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
# starts and descent
# ---------------------------------------------------------------------------


def test_descend_refines_in_order_and_stops_at_the_threshold():
    calls = []

    def objective2(x):
        calls.append(float(x[0]))
        return float((x[0] - 1.0) ** 2)

    starts = [np.array([3.0]), np.array([-2.0]), np.array([5.0])]
    everything = search.descend(objective2, starts, maxfev=400)
    assert len(everything) == 3
    assert all(abs(x[0] - 1.0) < 1e-6 for x, _ in everything)

    calls.clear()
    first_only = search.descend(objective2, iter(starts), maxfev=400, stop_f2=1e-12)
    assert len(first_only) == 1
    assert calls[0] == 3.0  # the first start was refined first


def test_best_takes_the_first_lowest_result():
    a, b, c = np.array([0.0]), np.array([1.0]), np.array([2.0])
    x, f2 = search.best([(a, 0.5), (b, 0.1), (c, 0.1)])
    assert x is b and f2 == 0.1
    assert search.best([]) == (None, math.inf)


def test_refine_minimum_reaches_the_arithmetic_floor():
    x, f2 = search.refine_minimum(lambda v: float(np.sum((v - [0.3, -0.7]) ** 2)), [2.0, 2.0])
    assert f2 < 1e-20
    assert np.allclose(x, [0.3, -0.7], atol=1e-9)


def test_euler_scan_objective_matches_the_lattice_values():
    rng = np.random.default_rng(5)
    rho = states.random_symmetric_mixed(3, rng).mat
    target = states.random_symmetric_mixed(3, rng).mat
    points, dists, objective2 = search.euler_scan(rho, target, 3, 4)
    assert np.array_equal(points, search.euler_lattice(4))
    for i in (0, 17, 63):
        assert math.sqrt(objective2(points[i])) == pytest.approx(dists[i], abs=1e-12)


def test_block_distance_matches_the_dense_scan():
    rng = np.random.default_rng(6)
    rho = states.random_symmetric_mixed(4, rng)
    target = states.random_symmetric_mixed(4, rng)
    blocks = states.spin_blocks(4)
    rho_b, target_b = blocks.compress(rho), blocks.compress(target)
    points, dense, _ = search.euler_scan(rho.mat, target.mat, 4, 4)
    block = [blocks.distance(_kernels.euler_su2(*x), rho_b, target_b) for x in points]
    assert np.max(np.abs(np.array(block) - dense)) < 1e-12


# ---------------------------------------------------------------------------
# lockstep refinement
# ---------------------------------------------------------------------------


def _rosenbrock(xs):
    xs = np.atleast_2d(xs)
    return np.sum(100.0 * (xs[:, 1:] - xs[:, :-1] ** 2) ** 2 + (1.0 - xs[:, :-1]) ** 2, axis=1)


def _wavy(xs):
    # a ripple along one direction makes Nelder-Mead shrink often; row-wise
    # sums, not a matrix product, so that a row's value does not depend on
    # the batch it comes in
    xs = np.atleast_2d(xs)
    return np.sum(xs**2, axis=1) + 0.5 * np.sin(40.0 * np.sum(xs * [1.0, 1.7, 2.3], axis=1)) ** 2


def _one_at_a_time(objective2_batch, starts, maxfev):
    calls = [0]

    def objective2(x):
        calls[0] += 1
        return float(objective2_batch(x[None, :])[0])

    return [search.refine_minimum(objective2, s, maxfev) for s in starts], calls[0]


def _lockstep(objective2_batch, starts, maxfev):
    points = [0]

    def counted(xs):
        points[0] += len(xs)
        return objective2_batch(xs)

    return search.refine_all(counted, starts, maxfev), points[0]


def _assert_same_results(got, want):
    assert len(got) == len(want)
    for (x, f2), (x_ref, f2_ref) in zip(got, want):
        assert np.array_equal(x, x_ref) and f2 == f2_ref  # bit for bit


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_refine_all_is_refine_minimum_start_by_start(dim):
    rng = np.random.default_rng(30 + dim)
    starts = rng.uniform(-2.0, 2.0, size=(6, dim))
    starts[1, 0] = 0.0  # zero coordinates get scipy's absolute offset, not 5 %
    starts[2] = 0.0
    want, calls = _one_at_a_time(_rosenbrock, starts, 4000)
    got, points = _lockstep(_rosenbrock, starts, 4000)
    _assert_same_results(got, want)
    assert points == calls


def test_refine_all_shrinks_as_scipy_does():
    starts = np.random.default_rng(32).uniform(-2.0, 2.0, size=(8, 3))
    want, calls = _one_at_a_time(_wavy, starts, 4000)
    got, points = _lockstep(_wavy, starts, 4000)
    _assert_same_results(got, want)
    assert points == calls


def test_refine_all_on_the_tetrahedron_lattice_minima():
    psi = majorana.points_to_state(
        np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    )
    rho = states.to_density(psi).mat
    points, dists, objective2 = search.euler_scan(rho, rho, 4, 12)
    starts = points[search.local_minima(dists.reshape((12,) * 3), wrap=(0, 2))]
    assert len(starts) > 40
    got = search.refine_all(lambda xs: _kernels.conj_distance_batch(xs, rho, rho, 4) ** 2, starts)
    _assert_same_results(got, [search.refine_minimum(objective2, s) for s in starts])
    assert max(f2 for _, f2 in got) < 1e-20  # every start reaches a stabilizer element


def test_refine_all_on_the_tetrahedron_diagonal_phases():
    # the diagonal-phase residual of a row must not depend on its batch, or
    # a lockstep descent drifts from the one-start descent in the last bit
    n = 4
    rho = states.to_density(
        majorana.points_to_state(
            np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
        )
    ).mat
    rows, cols = np.nonzero(np.abs(rho) > 1e-14)
    vals = np.abs(rho[rows, cols]) ** 2
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.float64)
    diffs = bits[rows] - bits[cols]
    axis = np.linspace(0.0, 2 * math.pi, 6, endpoint=False)
    points = search.lattice(*([axis] * n))
    res = _kernels.diag_phase_residual(points, vals, diffs)
    starts = points[search.local_minima(res.reshape((6,) * n), wrap=tuple(range(n)))]
    assert len(starts) > 20

    def objective2_batch(xs):
        return _kernels.diag_phase_residual(xs, vals, diffs) ** 2

    want, calls = _one_at_a_time(objective2_batch, starts, 4000)
    got, points_used = _lockstep(objective2_batch, starts, 4000)
    _assert_same_results(got, want)
    assert points_used == calls


def test_refine_all_stops_at_maxfev_where_scipy_does():
    from scipy.optimize import minimize

    # each start's first run reaches the cap of 100 calls in a shrink step,
    # which scipy abandons with one vertex moved and not evaluated
    capped = np.array(
        [
            [1.5251981891104611, 1.665996542521364, -1.974859571079557],
            [1.5058685202226583, -1.950060275550375, 1.2430739280225969],
        ]
    )
    for x0 in capped:
        res = minimize(
            lambda x: float(_wavy(x)[0]),
            x0,
            method="Nelder-Mead",
            options={"fatol": 1e-26, "xatol": 1e-12, "maxfev": 100},
        )
        sim, fsim = res.final_simplex
        assert res.nfev == 100 and not res.success
        assert any(_wavy(v)[0] != f for v, f in zip(sim, fsim))
    starts = np.vstack([capped, np.random.default_rng(33).uniform(-2.0, 2.0, size=(6, 3))])
    want, calls = _one_at_a_time(_wavy, starts, 100)
    for i, start in enumerate(starts):
        # two chained runs of at most 100 calls each
        one, points = _lockstep(_wavy, start[None, :], 100)
        _assert_same_results(one, want[i : i + 1])
        assert points <= 200
    got, points = _lockstep(_wavy, starts, 100)
    _assert_same_results(got, want)
    assert points == calls


def test_refine_all_of_no_starts_is_empty():
    assert search.refine_all(_rosenbrock, np.empty((0, 2))) == []
