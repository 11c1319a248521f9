"""Lattice search: scan an objective on a product lattice, pick starts, descend.

Blind stabilizer sampling, brute-force pure equivalence, class membership
and the n = 2 two-factor mixed heuristic all search this way; they differ
only in how they pick starts from the lattice and when they stop.
Objectives are passed squared so that their zeros are smooth minima.
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


def refine_minimum(objective, x0, maxfev: int = 4000):
    """Derivative-free local minimization (chained Nelder-Mead runs).

    The second run rebuilds the simplex at the first run's solution, which
    reliably pushes smooth near-zero minima down to the arithmetic floor.
    Distance-like objectives should be passed squared so the minimum is
    smooth rather than conical.
    """
    from scipy.optimize import minimize

    x, best = np.asarray(x0, dtype=float), None
    for fatol, xatol in ((1e-26, 1e-12), (1e-28, 1e-13)):
        opts = {"fatol": fatol, "xatol": xatol, "maxfev": maxfev}
        res = minimize(objective, x, method="Nelder-Mead", options=opts)
        if best is None or res.fun <= best.fun:
            best = res
        x = res.x
    return best.x, float(best.fun)


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
