"""Lattice search: scan an objective on a product lattice, pick starts, refine.

The lattice serves only the dense oracles: blind identical-tuple stabilizer
sampling and brute-force pure equivalence both run euler_descent, which
scans an Euler lattice, takes its lowest local minima (lowest_minima) and
refines them by damped Gauss-Newton (gauss_newton, Levenberg-Marquardt).
They differ only in when they stop.
(The diagonal-phase stabilizer needs no search: verify solves it exactly.)
The n = 2 two-factor mixed search takes its starts from the frames of the
correlation matrices, with no lattice, and refines them here too.
Objectives are refined squared so that their zeros are smooth minima:
squared norms of residuals with analytic Jacobians (the _kernels models),
and every start of a batch takes its steps in lockstep, one batched model
call per iteration.  Every family steps in the Lie algebra,
g <- exp(-i d.sigma/2) g, one g on every qubit or one factor per qubit at
n = 2, so Euler angles are only lattice coordinates and gimbal lock does
not arise.  The damping has a floor relative to the Gauss-Newton matrix, so
a refinement along a flat family, where that matrix is singular, still
solves a regular system.  The sampling search and the n = 2 search refine
all their starts in one round; brute-force equivalence refines fixed-size
rounds and stops as soon as one start is good enough.
"""
from __future__ import annotations

import math

import numpy as np

from . import _kernels

__all__ = [
    "lattice",
    "euler_lattice",
    "local_minima",
    "lowest_minima",
    "gauss_newton",
    "euler_descent",
    "best",
]


def lattice(*axes) -> np.ndarray:
    """(prod len(axes), len(axes)) array of every point, last axis fastest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def euler_lattice(grid: int) -> np.ndarray:
    """ZYZ Euler triples (alpha, beta, gamma): periodic alpha, gamma; beta in [0, pi]."""
    turn = np.linspace(0.0, 2 * math.pi, grid, endpoint=False)
    return lattice(turn, np.linspace(0.0, math.pi, grid), turn)


def local_minima(vals: np.ndarray, wrap: tuple) -> np.ndarray:
    """Indices (flat) of lattice points no larger than any axis neighbor.

    Axes listed in wrap are periodic; the others have no neighbor past
    their ends.
    """
    mask = np.ones(vals.shape, dtype=bool)
    for ax in range(vals.ndim):
        if ax in wrap:
            mask &= vals <= np.roll(vals, 1, axis=ax)
            mask &= vals <= np.roll(vals, -1, axis=ax)
        else:
            pad = np.full(vals.shape[:ax] + (1,) + vals.shape[ax + 1 :], np.inf)
            up = np.concatenate([pad, vals], axis=ax)
            down = np.concatenate([vals, pad], axis=ax)
            mask &= vals <= np.take(up, range(vals.shape[ax]), axis=ax)
            mask &= vals <= np.take(down, range(1, vals.shape[ax] + 1), axis=ax)
    return np.flatnonzero(mask.ravel())


def lowest_minima(vals: np.ndarray, wrap: tuple, count: int) -> np.ndarray:
    """Flat indices of the lattice's local minima (local_minima); the count lowest, lowest first."""
    minima = local_minima(vals, wrap)
    return minima[np.argsort(vals.ravel()[minima], kind="stable")[:count]]


# damped Gauss-Newton (Levenberg-Marquardt): iteration cap per round, initial
# damping and its floor relative to the largest diagonal entry of the
# Gauss-Newton matrix, damping factors after an accepted and a rejected step,
# and the step size and relative decrease below which a start is done
_GN_ITERATIONS = 100
_GN_DAMPING, _GN_FLOOR = 1e-3, 1e-12
_GN_DOWN, _GN_UP = 0.1, 10.0
_GN_XTOL, _GN_FTOL = 1e-14, 1e-8


def _gauss_newton_round(model, step, x, stop_f2: float):
    """Levenberg-Marquardt from every row of x at once; (x, f2) of each row.

    A row is done when its damped step is shorter than _GN_XTOL (converged,
    or stuck where no step lowers f2) or an accepted step lowers f2 by less
    than _GN_FTOL of itself; a row whose Gauss-Newton matrix is zero at its
    start takes no step.  Every row is done after _GN_ITERATIONS, or as
    soon as one row reaches stop_f2; the others then keep where they are.
    """
    f2, grad, gn = model(x)
    x_out, f2_out = x.copy(), f2.copy()
    dim = grad.shape[1]
    # a Gauss-Newton matrix is PSD, so one with no positive diagonal entry is
    # zero: the objective is flat there, its gradient is roundoff, and the row
    # has no step
    lam = _GN_DAMPING * np.max(np.diagonal(gn, axis1=1, axis2=2), axis=1)
    curved = lam > 0
    live, x, f2, grad, gn, lam = (v[curved] for v in (np.arange(len(f2)), x, f2, grad, gn, lam))
    for _ in range(_GN_ITERATIONS):
        if f2_out.min() <= stop_f2:
            break
        damped = gn + lam[:, None, None] * np.eye(dim)
        delta = -np.linalg.solve(damped, grad[:, :, None])[:, :, 0]
        moving = np.sqrt(np.sum(delta * delta, axis=1)) > _GN_XTOL
        if not moving.all():
            live, x, f2, grad, gn, lam, delta = (v[moving] for v in (live, x, f2, grad, gn, lam, delta))
        if live.size == 0:
            break
        x_new = step(x, delta)
        f2_new, grad_new, gn_new = model(x_new)
        better = f2_new < f2
        stalled = better & (f2 - f2_new <= _GN_FTOL * f2)
        x[better], grad[better], gn[better] = x_new[better], grad_new[better], gn_new[better]
        f2 = np.where(better, f2_new, f2)
        # the floor keeps gn + lam I regular along a flat family, where gn is
        # singular and its roundoff eigenvalues can be negative
        floor = _GN_FLOOR * gn.diagonal(axis1=1, axis2=2).max(axis=1)
        lam = np.maximum(np.where(better, _GN_DOWN, _GN_UP) * lam, floor)
        x_out[live], f2_out[live] = x, f2
        if stalled.any():
            keep = ~stalled
            live, x, f2, grad, gn, lam = (v[keep] for v in (live, x, f2, grad, gn, lam))
    return x_out, f2_out


def gauss_newton(model, step, starts, stop_f2: float = -math.inf, rows: int | None = None) -> list:
    """Damped Gauss-Newton refinement of starts in lockstep; (x, f2) of each refined start, in order.

    model maps a batch of points to (f2, grad, gn): the squared residual
    norm, grad = Re J^+ r and the Gauss-Newton matrix Re J^+ J of each point
    in the step coordinates.  step(x, delta) moves each point by its step
    (x + delta for coordinates, a left multiplication for a group element).
    The starts are refined rows at a time (all at once by default), and the
    refinement stops as soon as a start reaches f2 <= stop_f2: the starts of
    later rounds are not refined, and those of its own round keep the point
    they had reached.
    """
    starts = np.asarray(starts)
    rows = rows or max(len(starts), 1)
    out = []
    for lo in range(0, len(starts), rows):
        x, f2 = _gauss_newton_round(model, step, starts[lo : lo + rows].copy(), stop_f2)
        out += zip(x, f2.tolist())
        if f2.min() <= stop_f2:
            break
    return out


def euler_descent(
    factor, target_factor, n: int, grid: int, count: int, stop_f2: float = -math.inf, rows: int | None = None
) -> list:
    """The oracles' search of D = || g^{(x)n} V V^+ g^{(x)n +} - W W^+ || over SU(2); gauss_newton's (g, D^2) list.

    factor V (2^n, r) and target_factor W (2^n, s) are factors of the two
    states, W's columns orthogonal: _kernels.density_factor of a density
    matrix, or a pure state's vector as its one column.  D is scored on the
    grid^3 Euler lattice (euler_lattice), the count lowest of its local
    minima (alpha and gamma periodic) become SU(2) starts, and
    gauss_newton refines them in left steps (_kernels.su2_left_step) on the
    least-squares model of D^2 (_kernels.conj_gauss_newton), rows at a time
    until one reaches stop_f2.  _kernels.conj_distance_batch scores the
    lattice as a (beta, gamma) x alpha table, one entry a point: it turns V
    once for each of the grid^2 distinct (beta, gamma) and splits it into
    Hamming-weight classes against W, Y_w = W_w^+ B_w.  Each alpha is one
    phase a class, broadcast over the pair's row, so a point costs
    (n + 1) s r products:
    D^2 = S - 2 ||sum_w e^{-i alpha (n/2 - w)} Y_w||^2, S = ||V V^+||^2 + ||W W^+||^2.
    Points with D^2 < S / 16, where that difference cancels, are scored
    again by the non-cancelling (r + s) r 2^n form; above it the difference
    is off in D by at most 2 e sqrt(S) for terms rounded to e.
    """
    points = euler_lattice(grid)
    dists = _kernels.conj_distance_batch(points, factor, target_factor, n)
    minima = lowest_minima(dists.reshape((grid,) * 3), (0, 2), count)

    def model(gs):
        return _kernels.conj_gauss_newton(gs, factor, target_factor, n)

    starts = _kernels.euler_su2_batch(points[minima])
    return gauss_newton(model, _kernels.su2_left_step, starts, stop_f2, rows)


def best(results) -> tuple:
    """The first lowest (x, f2) of gauss_newton's results; (None, inf) for none."""
    return min(results, key=lambda r: r[1], default=(None, math.inf))
