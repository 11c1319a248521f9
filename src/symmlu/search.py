"""Lattice search: scan an objective on a product lattice, pick starts, descend.

Blind stabilizer sampling, brute-force pure equivalence and the n = 2
two-factor mixed heuristic all search this way; they differ only in how
they pick starts from the lattice and when they stop.
Objectives are passed squared so that their zeros are smooth minima.

Descent is chained Nelder-Mead (refine_minimum).  The sampling searches,
which refine every start, run all starts in lockstep (refine_all): the same
steps as scipy's, with one batched objective call per phase of a step.  The
early-stopping searches (descend with stop_f2) refine one start at a time,
so that they can stop after the first start that is good enough.
"""
from __future__ import annotations

import math

import numpy as np

from . import _kernels

__all__ = [
    "lattice",
    "euler_lattice",
    "euler_scan",
    "local_minima",
    "refine_minimum",
    "refine_all",
    "descend",
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


def euler_scan(rho, target, n: int, grid: int):
    """Euler lattice, D on it, and D^2 of one triple; D = || g^{(x)n} rho g^{(x)n +} - target ||.

    Dense 2^n conjugation: the oracles' form of the scan.
    """
    points = euler_lattice(grid)

    def objective2(x):
        d = _kernels.conj_distance_single(x[0], x[1], x[2], rho, target, n)
        return d * d

    return points, _kernels.conj_distance_batch(points, rho, target, n), objective2


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


_CHAIN = ((1e-26, 1e-12), (1e-28, 1e-13))  # (fatol, xatol) of the chained runs

# scipy's Nelder-Mead: initial simplex offsets and reflection, expansion,
# contraction and shrink coefficients (non-adaptive)
_NONZDELT, _ZDELT = 0.05, 0.00025
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5


def refine_minimum(objective, x0, maxfev: int = 4000):
    """Derivative-free local minimization (chained Nelder-Mead runs).

    The second run rebuilds the simplex at the first run's solution, which
    reliably pushes smooth near-zero minima down to the arithmetic floor.
    Distance-like objectives should be passed squared so the minimum is
    smooth rather than conical.
    """
    from scipy.optimize import minimize

    x, best = np.asarray(x0, dtype=float), None
    for fatol, xatol in _CHAIN:
        opts = {"fatol": fatol, "xatol": xatol, "maxfev": maxfev}
        res = minimize(objective, x, method="Nelder-Mead", options=opts)
        if best is None or res.fun <= best.fun:
            best = res
        x = res.x
    return best.x, float(best.fun)


def _sorted(sim: np.ndarray, fsim: np.ndarray):
    """Each simplex ordered by its values, lowest first, by scipy's sort.

    That is numpy's default argsort, which is not stable on ties of four or
    more entries where it has a SIMD sort; row by row it orders a batch as
    it orders each row alone.
    """
    ind = np.argsort(fsim, axis=1)
    return np.take_along_axis(sim, ind[:, :, None], axis=1), np.take_along_axis(fsim, ind, axis=1)


def _nelder_mead_all(objective2_batch, x0: np.ndarray, fatol: float, xatol: float, maxfev: int):
    """scipy's Nelder-Mead from every row of x0 at once; (x, f) of each row.

    Row by row this is scipy.optimize.minimize(method="Nelder-Mead") with the
    same fatol, xatol and maxfev: the same simplex, arithmetic, sort and
    stopping test, and at the maxfev cap the same state scipy leaves (the
    step that asks for one call too many is abandoned where it stands).
    A step calls objective2_batch once for the reflections of all live
    simplices, once for their expansion or contraction points and once for
    any shrink points.
    """
    rows, dim = x0.shape
    sim = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for k in range(dim):
        y = sim[:, k + 1, k]
        sim[:, k + 1, k] = np.where(y != 0, (1 + _NONZDELT) * y, _ZDELT)
    first = min(dim + 1, maxfev)
    fsim = np.full((rows, dim + 1), np.inf)
    fsim[:, :first] = objective2_batch(sim[:, :first].reshape(-1, dim)).reshape(rows, first)
    sim, fsim = _sorted(*_sorted(sim, fsim))  # scipy sorts the first simplex twice
    calls = np.full(rows, first)
    live = np.arange(rows)
    x_out, f_out = np.empty_like(x0), np.empty(rows)

    def retire(done):
        nonlocal live, sim, fsim, calls
        x_out[live[done]] = sim[done, 0]
        f_out[live[done]] = fsim[done].min(axis=1)
        keep = ~done
        live, sim, fsim, calls = live[keep], sim[keep], fsim[keep], calls[keep]

    while True:
        retire(calls >= maxfev)
        flat = np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol
        retire(flat & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol))
        if live.size == 0:
            return x_out, f_out

        xbar = np.add.reduce(sim[:, :-1], axis=1) / dim
        worst = sim[:, -1]
        xr = (1 + _RHO) * xbar - _RHO * worst
        fxr = objective2_batch(xr)
        calls += 1

        expand = fxr < fsim[:, 0]
        take_r = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~take_r & (fxr < fsim[:, -1])
        probe = ~take_r & (calls < maxfev)  # the rest abandon the step at the cap
        pts = np.where(
            expand[:, None],
            (1 + _RHO * _CHI) * xbar - _RHO * _CHI * worst,
            np.where(
                outside[:, None],
                (1 + _PSI * _RHO) * xbar - _PSI * _RHO * worst,
                (1 - _PSI) * xbar + _PSI * worst,
            ),
        )
        fpt = np.full(live.size, np.nan)  # compares false: unprobed rows keep what they have
        if probe.any():
            fpt[probe] = objective2_batch(pts[probe])
            calls += probe

        use_pt = probe & np.where(expand, fpt < fxr, np.where(outside, fpt <= fxr, fpt < fsim[:, -1]))
        use_r = take_r | (probe & expand & ~use_pt)
        sim[:, -1] = np.where(use_pt[:, None], pts, np.where(use_r[:, None], xr, worst))
        fsim[:, -1] = np.where(use_pt, fpt, np.where(use_r, fxr, fsim[:, -1]))

        shrink = np.flatnonzero(probe & ~expand & ~use_pt)
        if shrink.size:
            left = maxfev - calls[shrink]
            j = np.arange(1, dim + 1)
            # vertex j moves before it is evaluated: at the cap one vertex moves unevaluated
            moved = j[None, :] <= left[:, None] + 1
            evaluated = j[None, :] <= left[:, None]
            best, rest = sim[shrink, :1], sim[shrink, 1:]
            sim[shrink, 1:] = np.where(moved[:, :, None], best + _SIGMA * (rest - best), rest)
            if evaluated.any():
                vals = fsim[shrink, 1:]
                vals[evaluated] = objective2_batch(sim[shrink, 1:][evaluated])
                fsim[shrink, 1:] = vals
                calls[shrink] += evaluated.sum(axis=1)
        sim, fsim = _sorted(sim, fsim)


def refine_all(objective2_batch, starts, maxfev: int = 4000) -> list:
    """refine_minimum from every start at once; (x, f2) of each start, in order.

    objective2_batch maps (m, d) points to their m values.  Each result is
    the one refine_minimum(objective2, start, maxfev) returns, bit for bit,
    when objective2 is objective2_batch on one row and objective2_batch
    gives a row the value it gives that row alone.  A matrix product over
    the batch (diag_phase_residual's) can round a row differently by batch
    size, and the descent then agrees only to roundoff.
    """
    x = np.asarray(starts, dtype=float)
    if x.shape[0] == 0:
        return []
    best_x = best_f = None
    for fatol, xatol in _CHAIN:
        x, f = _nelder_mead_all(objective2_batch, x, fatol, xatol, maxfev)
        if best_x is None:
            best_x, best_f = x, f
        else:
            better = f <= best_f
            best_x = np.where(better[:, None], x, best_x)
            best_f = np.where(better, f, best_f)
    return list(zip(best_x, best_f.tolist()))


def descend(objective2, starts, maxfev: int = 4000, stop_f2: float = -math.inf) -> list:
    """refine_minimum from each start in order; stop once the best f2 <= stop_f2.

    starts may be lazy.  Returns (x, f2) of every refined start, in order.
    """
    out = []
    best_f2 = math.inf
    for start in starts:
        x, f2 = refine_minimum(objective2, start, maxfev)
        out.append((x, f2))
        best_f2 = min(best_f2, f2)
        if best_f2 <= stop_f2:
            break
    return out


def best(results) -> tuple:
    """The first lowest (x, f2) of descend's results; (None, inf) for none."""
    return min(results, key=lambda r: r[1], default=(None, math.inf))
