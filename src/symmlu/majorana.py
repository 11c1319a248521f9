"""Point configurations of symmetric states on the Bloch sphere.

A symmetric n-qubit state with weight-basis coefficients c_k corresponds to
the root multiset of

    P(z) = sum_k (-1)^k sqrt(C(n, k)) c_k z^{n - k},

where a root z maps to the 1-qubit state (|0> + z|1>) / sqrt(1 + |z|^2) and a
degree deficiency of m (vanishing leading coefficients) contributes m points
at the pole of |1> (the south pole).  Under this convention |0> sits at the
north pole (0, 0, 1), a Dicke state with k excitations yields k south plus
n-k north points, and the balanced two-pole state yields an equatorial
regular n-gon.

Single-qubit representatives are canonicalized with a real nonnegative |0>
component (real nonnegative |1> component at the exact south pole).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, states
from .errors import DomainError, SymmluError
from .tolerances import DEFAULT_TOLERANCES, checked

__all__ = [
    "NORTH_POLE",
    "MajoranaConfiguration",
    "bloch_from_angles",
    "angles_from_bloch",
    "spinor_from_bloch",
    "bloch_from_spinor",
    "bloch_from_root",
    "find_roots",
    "cluster_points",
    "majorana_points",
    "points_to_state",
    "mobius_apply",
    "config_from_points",
]

NORTH_POLE = np.array([0.0, 0.0, 1.0])  # the Bloch vector of |0>, the pole axis
NORTH_POLE.setflags(write=False)


def bloch_from_angles(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def angles_from_bloch(v) -> tuple[float, float]:
    x, y, z = np.asarray(v, dtype=float)
    theta = math.atan2(math.hypot(x, y), z)
    phi = math.atan2(y, x) % (2 * math.pi) if (x != 0 or y != 0) else 0.0
    return theta, phi


def spinor_from_bloch(v) -> np.ndarray:
    """Canonical unit spinor with Bloch vector v."""
    x, y, z = np.asarray(v, dtype=float)
    a = math.sqrt(max(0.0, (1.0 + z) / 2.0))
    if a < 1e-12:
        return np.array([0.0, 1.0], dtype=np.complex128)
    b = complex(x, y) / (2.0 * a)
    return np.array([a, b], dtype=np.complex128)


def bloch_from_spinor(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    nrm2 = abs(v[0]) ** 2 + abs(v[1]) ** 2
    cross = np.conj(v[0]) * v[1]
    return np.array(
        [2 * cross.real / nrm2, 2 * cross.imag / nrm2, (abs(v[0]) ** 2 - abs(v[1]) ** 2) / nrm2]
    )


def bloch_from_root(z: complex) -> np.ndarray:
    """Bloch vector of (|0> + z|1>)/sqrt(1+|z|^2), overflow-safe."""
    az = abs(z)
    if az > 1e150:
        return np.array([0.0, 0.0, -1.0])
    d = 1.0 + az * az
    return np.array([2 * z.real / d, 2 * z.imag / d, (1.0 - az * az) / d])


@dataclass(frozen=True, eq=False)
class MajoranaConfiguration:
    """Multiset of unit Bloch vectors: cluster representatives + multiplicities."""

    n: int
    points: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        mults = np.asarray(self.multiplicities, dtype=int).ravel()
        if pts.shape[0] != mults.shape[0]:
            raise DomainError("points and multiplicities disagree in length")
        if pts.shape[0] == 0:
            raise DomainError("empty configuration")
        if np.any(mults < 1):
            raise DomainError("multiplicities must be >= 1")
        if int(mults.sum()) != self.n:
            raise DomainError(f"multiplicities sum to {int(mults.sum())}, expected n={self.n}")
        norms = np.linalg.norm(pts, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= 1e-9:  # NaN fails too
            raise DomainError("points must be finite unit vectors")
        pts = pts / norms[:, None]
        pts.setflags(write=False)
        mults.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "multiplicities", mults)

    def expanded(self) -> np.ndarray:
        """(n, 3) array repeating each representative by its multiplicity."""
        return np.repeat(self.points, self.multiplicities, axis=0)

    def as_angle_rows(self):
        """[theta, phi, multiplicity] rows."""
        rows = []
        for p, m in zip(self.points, self.multiplicities):
            theta, phi = angles_from_bloch(p)
            rows.append([theta, phi, int(m)])
        return rows


def _canonical_sort(points: np.ndarray, mults: np.ndarray):
    keys = [
        (-int(m), round(p[0], 12), round(p[1], 12), round(p[2], 12))
        for p, m in zip(points, mults)
    ]
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    return points[order], mults[order]


def config_from_points(points, multiplicities=None) -> MajoranaConfiguration:
    """Build a configuration from raw unit vectors, clustering duplicates."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    pts = pts / np.linalg.norm(pts, axis=1)[:, None]
    if multiplicities is None:
        mults = np.ones(pts.shape[0], dtype=int)
    else:
        mults = np.asarray(multiplicities, dtype=int).ravel()
    pts, mults = cluster_points(pts, mults, DEFAULT_TOLERANCES.cluster)
    pts, mults = _canonical_sort(pts, mults)
    return MajoranaConfiguration(int(mults.sum()), pts, mults)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def find_roots(coeffs) -> np.ndarray:
    """All roots of the polynomial with descending coefficients.

    Companion-matrix eigenvalues (numpy.roots) followed by up to five guarded
    Newton steps.  The residual of every returned root must satisfy
    |P(z)| <= root_residual * max(||coeffs||, sum_i |a_i| |z|^{d-i}) (the
    DEFAULT_TOLERANCES field); the second scale keeps the bound meaningful
    for large-modulus roots, where double-precision evaluation itself
    carries that conditioning.
    """
    a = np.asarray(coeffs, dtype=np.complex128).ravel()
    scale = np.linalg.norm(a)
    if scale == 0:
        raise DomainError("zero polynomial")
    lead = np.argmax(np.abs(a) > DEFAULT_TOLERANCES.coeff_zero * scale)
    a = a[lead:]
    if a.size < 2:
        return np.zeros(0, dtype=np.complex128)
    roots = np.roots(a)
    roots = _kernels.polish_roots(a, roots, 5)
    absz = np.abs(roots)
    powers = np.vstack([absz ** (len(a) - 1 - i) for i in range(len(a))])
    cond = np.abs(a) @ powers
    resid = np.abs(_kernels.horner(a, roots))
    bound = DEFAULT_TOLERANCES.root_residual * np.maximum(scale, cond)
    if np.any(resid > bound):
        worst = float(np.max(resid / np.maximum(bound, 1e-300)))
        raise SymmluError(f"root residual check failed (worst ratio {worst:.3g})")
    return roots


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


def cluster_points(points, mults, eps: float):
    """Single-linkage merge of points within chordal distance eps.

    Clusters are the connected components of the graph "chordal distance <=
    eps", numbered by their first point.  Each becomes its multiplicity-
    weighted mean renormalized to the sphere (its first point if the mean
    vanishes), repeated to a fixed point so the operation is idempotent.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    ms = np.asarray(mults, dtype=int).ravel()
    while (m := pts.shape[0]) > 1:
        reach = (np.linalg.norm(pts[:, None] - pts[None, :], axis=2) <= eps) | np.eye(m, dtype=bool)
        for _ in range(m.bit_length()):  # each squaring doubles the path length reached
            reach = (reach.astype(float) @ reach) > 0
        first, labels = np.unique(reach.argmax(axis=1), return_inverse=True)
        if first.size == m:
            break
        sums = np.full((first.size, 3), -0.0)  # -0.0 + x is x, signed zeros included
        np.add.at(sums, labels, pts * ms[:, None])
        # one 1-D norm per row: a norm over axis=1 rounds differently in the last bit
        nrm = np.array([np.linalg.norm(v) for v in sums])
        flat = nrm == 0
        sums[flat], nrm[flat] = pts[first[flat]], 1.0
        pts = sums / nrm[:, None]
        ms = np.bincount(labels, weights=ms).astype(int)
    return pts, ms


# ---------------------------------------------------------------------------
# state <-> configuration
# ---------------------------------------------------------------------------


def majorana_points(psi: states.SymmetricPureState, tol: float | None = None) -> MajoranaConfiguration:
    """Point configuration of a symmetric state.

    tol is the chordal cluster radius (defaults to the package cluster
    tolerance).  Vanishing leading coefficients are trimmed exactly into
    south-pole multiplicity; vanishing trailing coefficients into north-pole
    multiplicity, so canonical Dicke-type states give exact poles.
    """
    tol = checked(tol, DEFAULT_TOLERANCES.cluster)
    n = psi.n
    a = np.where(np.arange(n + 1) % 2, -1.0, 1.0) * states.binomial_roots(n) * psi.coeffs
    scale = np.linalg.norm(a)
    cut = DEFAULT_TOLERANCES.coeff_zero * scale
    lead = 0
    while lead <= n and abs(a[lead]) <= cut:
        lead += 1
    south = lead  # degree deficiency -> points at |1>
    tail = n
    while tail >= lead and abs(a[tail]) <= cut:
        tail -= 1
    north = n - tail  # exact z = 0 roots
    mid = a[lead : tail + 1]

    pts, ms = [], []
    if south:
        pts.append(np.array([0.0, 0.0, -1.0]))
        ms.append(south)
    if north:
        pts.append(NORTH_POLE)
        ms.append(north)
    roots = find_roots(mid) if mid.size >= 2 else np.zeros(0, dtype=np.complex128)
    for z in roots:
        pts.append(bloch_from_root(complex(z)))
        ms.append(1)
    pts = np.asarray(pts)
    ms = np.asarray(ms, dtype=int)
    pts, ms = cluster_points(pts, ms, tol)
    pts, ms = _refine_multiple_roots(mid, pts, ms, tol)
    pts, ms = _canonical_sort(pts, ms)
    return MajoranaConfiguration(n, pts, ms)


def _refine_multiple_roots(coeffs, pts, ms, eps):
    """Polish a multiplicity-m cluster as a simple root of the (m-1) derivative."""
    if coeffs.size < 3:
        return pts, ms
    out = pts.copy()
    for i, (p, m) in enumerate(zip(pts, ms)):
        if m < 2 or abs(p[2] + 1.0) < 1e-12:
            continue
        z0 = complex(p[0], p[1]) / (1.0 + p[2])
        if abs(z0) > 1e3:
            continue
        d = coeffs
        for _ in range(m - 1):
            if d.size < 2:
                break
            d = d[:-1] * np.arange(d.size - 1, 0, -1)
        if d.size < 2:
            continue
        z = complex(_kernels.polish_roots(d, np.array([z0]), 8)[0])
        moved = np.linalg.norm(bloch_from_root(z) - p)
        if moved <= 10 * eps + 1e-2 and abs(_kernels.horner(d, np.array([z]))[0]) <= abs(
            _kernels.horner(d, np.array([z0]))[0]
        ):
            out[i] = bloch_from_root(z)
    return out, ms


def points_to_state(points, multiplicities=None) -> states.SymmetricPureState:
    """Symmetric state whose configuration is the given point multiset."""
    if isinstance(points, MajoranaConfiguration):
        cfg = points
        vecs = [spinor_from_bloch(p) for p in cfg.expanded()]
    else:
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        if multiplicities is None:
            multiplicities = np.ones(pts.shape[0], dtype=int)
        vecs = []
        for p, m in zip(pts, np.asarray(multiplicities, dtype=int)):
            vecs.extend([spinor_from_bloch(p / np.linalg.norm(p))] * int(m))
    return states.symmetrize(vecs)


def mobius_apply(g: np.ndarray, cfg: MajoranaConfiguration) -> MajoranaConfiguration:
    """Rotate a configuration by the rotation corresponding to g in SU(2)."""
    from . import rotmatch  # local import; rotmatch depends on this module

    r = rotmatch.su2_to_so3(g)
    pts = cfg.points @ r.T
    pts, ms = _canonical_sort(pts, cfg.multiplicities.copy())
    return MajoranaConfiguration(cfg.n, pts, ms)
