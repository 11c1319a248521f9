"""The shared lattice search: lattices, local minima, starts and descent."""
import itertools
import math

import numpy as np
import pytest

from symmlu import _kernels, search, states


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
