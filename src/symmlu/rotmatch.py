"""Rotations of the sphere, configuration matching, and symmetry groups.

Correspondence conventions:

* su2_to_so3(g) returns the rotation R with g (v . sigma) g^+ = (R v) . sigma,
  so g = exp(-i (theta/2) v.sigma) maps to the rotation by theta about v.
* so3_to_su2 picks the SU(2) preimage with quaternion scalar part >= 0,
  breaking the scalar-part-zero tie by making the first significant vector
  component positive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DomainError, SymmluError
from .majorana import MajoranaConfiguration
from .tolerances import DEFAULT_TOLERANCES, checked

__all__ = [
    "PointGroup",
    "su2_to_so3",
    "so3_to_su2",
    "quaternion_from_rotation",
    "rotation_about",
    "rotation_between",
    "axis_angle",
    "match_rotation",
    "all_matching_rotations",
    "matching_distance",
    "symmetry_group",
    "closure",
    "snap_angle",
]

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def su2_to_so3(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=np.complex128)
    r = np.empty((3, 3))
    gh = g.conj().T
    for j in range(3):
        m = g @ _SIGMA[j] @ gh
        for i in range(3):
            r[i, j] = 0.5 * np.trace(_SIGMA[i] @ m).real
    return r


def quaternion_from_rotation(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with canonical sign (w >= 0)."""
    r = np.asarray(r, dtype=float)
    tr = r[0, 0] + r[1, 1] + r[2, 2]
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
        )
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2
        q = np.array(
            [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
        )
    elif r[1, 1] > r[2, 2]:
        s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2
        q = np.array(
            [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2
        q = np.array(
            [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
        )
    q = q / np.linalg.norm(q)
    if q[0] < -1e-12:
        q = -q
    elif abs(q[0]) <= 1e-12:
        for comp in q[1:]:
            if abs(comp) > 1e-12:
                if comp < 0:
                    q = -q
                break
    return q


def so3_to_su2(r: np.ndarray) -> np.ndarray:
    """Deterministic SU(2) preimage of a rotation matrix."""
    w, x, y, z = quaternion_from_rotation(r)
    return np.array(
        [[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]], dtype=np.complex128
    )


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation by angle about the (normalized) axis."""
    v = np.asarray(axis, dtype=float)
    v = v / np.linalg.norm(v)
    k = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def rotation_between(u, v) -> np.ndarray:
    """Minimal rotation carrying unit vector u to unit vector v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    c = np.cross(u, v)
    s = np.linalg.norm(c)
    d = float(np.dot(u, v))
    if s < 1e-12:
        if d > 0:
            return np.eye(3)
        # antipodal: rotate by pi about any perpendicular axis (deterministic pick)
        probe = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        perp = np.cross(u, probe)
        return rotation_about(perp, math.pi)
    return rotation_about(c / s, math.atan2(s, d))


def axis_angle(r: np.ndarray) -> tuple[np.ndarray, float]:
    """Canonical (axis, angle) with angle in [0, pi]."""
    w, x, y, z = quaternion_from_rotation(r)
    vec = np.array([x, y, z])
    nv = np.linalg.norm(vec)
    if nv < 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0
    return vec / nv, 2.0 * math.atan2(nv, w)


_SNAP_TOL, _SNAP_DENOMINATOR = 1e-9, 64  # snap_angle: reach, and largest denominator of angle / pi


def snap_angle(theta: float) -> float:
    """Snap an angle to the nearest rational multiple of pi within _SNAP_TOL."""
    from fractions import Fraction

    frac = Fraction(theta / math.pi).limit_denominator(_SNAP_DENOMINATOR)
    snapped = float(frac) * math.pi
    return snapped if abs(snapped - theta) <= _SNAP_TOL else theta


# ---------------------------------------------------------------------------
# configuration matching
# ---------------------------------------------------------------------------


def _canonical_axis(v: np.ndarray) -> np.ndarray:
    for comp in v:
        if abs(comp) > 1e-9:
            return v if comp > 0 else -v
    return v


def _rotation_key(r: np.ndarray):
    axis, angle = axis_angle(r)
    axis = _canonical_axis(axis)
    return (round(angle, 9), round(axis[0], 9), round(axis[1], 9), round(axis[2], 9))


def _assignment_max(apts, amults, bpts, bmults, r, tol):
    """Max chordal distance of the best multiplicity-respecting matching."""
    rotated = apts @ r.T
    worst = 0.0
    for mult in set(int(m) for m in amults):
        ai = [i for i, m in enumerate(amults) if m == mult]
        bi = [j for j, m in enumerate(bmults) if m == mult]
        if len(ai) != len(bi):
            return None
        cost = np.linalg.norm(rotated[ai][:, None, :] - bpts[bi][None, :, :], axis=2)
        # greedy nearest-neighbor first
        cm = cost.copy()
        taken_rows, taken_cols = set(), set()
        pairs = []
        flat = np.argsort(cm, axis=None)
        for f in flat:
            i, j = divmod(int(f), cm.shape[1])
            if i in taken_rows or j in taken_cols:
                continue
            taken_rows.add(i)
            taken_cols.add(j)
            pairs.append(cm[i, j])
            if len(pairs) == len(ai):
                break
        gmax = max(pairs) if pairs else 0.0
        if gmax > tol and len(ai) > 1:
            rows, cols = linear_sum_assignment(cost)
            gmax = float(cost[rows, cols].max())
        worst = max(worst, gmax)
        if worst > tol:
            return None
    return worst


def _is_axial(cfg: MajoranaConfiguration, tol: float):
    """Axis if all points lie on one line through the origin, else None."""
    if cfg.points.shape[0] == 1:
        return cfg.points[0]
    if cfg.points.shape[0] == 2 and np.linalg.norm(cfg.points[0] + cfg.points[1]) <= tol:
        return cfg.points[0]
    return None


def _candidate_anchors(cfg: MajoranaConfiguration):
    """(a1, a2) pair: smallest multiplicity class, most orthogonal partner."""
    mults = cfg.multiplicities
    pts = cfg.points
    smallest = int(mults.min())
    cands = [i for i, m in enumerate(mults) if m == smallest]
    a1_idx = min(cands, key=lambda i: tuple(np.round(pts[i], 12)))
    a1 = pts[a1_idx]
    best = None
    for i, p in enumerate(pts):
        if i == a1_idx:
            continue
        score = abs(float(np.dot(a1, p)))
        if score > 1.0 - 1e-12:
            continue
        key = (score, tuple(np.round(p, 12)))
        if best is None or key < best[0]:
            best = (key, p)
    if best is None:
        raise SymmluError("no non-collinear anchor found in a non-axial configuration")
    return a1, best[1]


def _frame(p1, p2) -> np.ndarray:
    u = p2 - np.dot(p2, p1) * p1
    u = u / np.linalg.norm(u)
    return np.column_stack([p1, u, np.cross(p1, u)])


def all_matching_rotations(a: MajoranaConfiguration, b: MajoranaConfiguration, tol: float | None = None):
    """Every rotation carrying configuration a onto b (deduplicated)."""
    tol = checked(tol, DEFAULT_TOLERANCES.match)
    if a.n != b.n:
        raise DomainError(f"configurations have different sizes {a.n} and {b.n}")
    if sorted(a.multiplicities) != sorted(b.multiplicities):
        return []
    axis_a = _is_axial(a, tol)
    axis_b = _is_axial(b, tol)
    if (axis_a is None) != (axis_b is None):
        return []
    found = []
    if axis_a is not None:
        for target in (axis_b, -axis_b):
            r = rotation_between(axis_a, target)
            if _assignment_max(a.points, a.multiplicities, b.points, b.multiplicities, r, tol) is not None:
                found.append(r)
    else:
        a1, a2 = _candidate_anchors(a)
        ref = float(np.dot(a1, a2))
        fa = _frame(a1, a2)
        m1 = int(a.multiplicities.min())  # a1 comes from the smallest class
        slack = 3.0 * tol + 1e-12
        for i, b1 in enumerate(b.points):
            if b.multiplicities[i] != m1:
                continue
            for j, b2 in enumerate(b.points):
                if j == i:
                    continue
                if abs(float(np.dot(b1, b2)) - ref) > slack:
                    continue
                if abs(float(np.dot(b1, b2))) > 1.0 - 1e-12:
                    continue
                r = _frame(b1, b2) @ fa.T
                if (
                    _assignment_max(
                        a.points, a.multiplicities, b.points, b.multiplicities, r, tol
                    )
                    is not None
                ):
                    found.append(r)
    unique = []
    for r in found:
        if not _contains(unique, r, 1e-8):
            unique.append(r)
    unique.sort(key=_rotation_key)
    return unique


def match_rotation(a: MajoranaConfiguration, b: MajoranaConfiguration, tol: float | None = None):
    """A rotation carrying a onto b, or None.

    When several rotations match, the one with the smallest canonical key
    (rotation angle, then lexicographic axis) is returned.
    """
    matches = all_matching_rotations(a, b, tol)
    return matches[0] if matches else None


def matching_distance(a: MajoranaConfiguration, b: MajoranaConfiguration) -> float:
    """Best multiplicity-respecting max-chordal matching distance (no rotation)."""
    if a.n != b.n:
        raise DomainError("configurations have different sizes")
    if sorted(a.multiplicities) != sorted(b.multiplicities):
        return float("inf")
    worst = _assignment_max(
        a.points, a.multiplicities, b.points, b.multiplicities, np.eye(3), float("inf")
    )
    return float("inf") if worst is None else worst


# ---------------------------------------------------------------------------
# symmetry groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointGroup:
    """Rotational symmetry group of a configuration.

    tag is one of: Trivial, Cyclic, Dihedral, Tetrahedral, Octahedral,
    Icosahedral, AxialContinuous, AxialContinuousFlip.  For finite tags the
    number of elements generated by `generators` is re-verified against
    `order` at construction.
    """

    tag: str
    m: int | None
    order: int | None
    axis: np.ndarray | None
    generators: tuple
    elements: tuple = ()

    def __post_init__(self):
        if self.order is not None:
            gen = closure(self.generators)
            if len(gen) != self.order:
                raise SymmluError(
                    f"{self.tag} group claims order {self.order} but generators "
                    f"close on {len(gen)} elements"
                )

    @property
    def is_finite(self) -> bool:
        return self.order is not None


def _contains(rotations, r, tol: float) -> bool:
    """Whether some rotation of a list or (k, 3, 3) stack lies within tol of r, entrywise."""
    stack = np.asarray(rotations, dtype=float).reshape(-1, 3, 3)
    return bool(np.any(np.max(np.abs(stack - r), axis=(1, 2)) <= tol))


_CLOSURE_TOL, _CLOSURE_CAP = 1e-6, 200  # closure: entrywise dedupe, and largest group


def closure(mats):
    """The group generated by the given rotations (deduplicated at _CLOSURE_TOL).

    Breadth-first orbit of the identity under right multiplication by the
    generators; in a finite group that orbit holds every product.
    """
    gens = [np.asarray(g, dtype=float) for g in mats]
    elems = [np.eye(3)]
    for e in elems:  # elems grows while it is scanned
        for g in gens:
            p = e @ g
            if not _contains(elems, p, _CLOSURE_TOL):
                if len(elems) == _CLOSURE_CAP:
                    raise SymmluError(f"closure exceeded {_CLOSURE_CAP} elements; not a small finite group")
                elems.append(p)
    return elems


def _axis_census(elements):
    """Group non-identity rotations by unoriented axis; return fold counts."""
    axes = []  # list of [axis, count]
    for r in elements:
        ax, ang = axis_angle(r)
        if ang < 1e-9:
            continue
        ax = _canonical_axis(ax)
        for rec in axes:
            if min(np.linalg.norm(rec[0] - ax), np.linalg.norm(rec[0] + ax)) < 1e-6:
                rec[1] += 1
                break
        else:
            axes.append([ax, 1])
    return [(rec[0], rec[1] + 1) for rec in axes]  # fold = rotations + identity


def _pick_generators(elements, order):
    """Greedy small generating set reproducing the full element list."""
    ranked = sorted(
        (e for e in elements if axis_angle(e)[1] > 1e-9),
        key=lambda e: (axis_angle(e)[1], _rotation_key(e)),
    )
    gens: list = []
    generated = [np.eye(3)]
    for e in ranked:
        if _contains(generated, e, 1e-6):
            continue
        gens.append(e)
        generated = closure(gens)
        if len(generated) == order:
            return tuple(gens)
    raise SymmluError("could not reproduce group order from its own elements")


def symmetry_group(cfg: MajoranaConfiguration, tol: float | None = None) -> PointGroup:
    """Classify the rotational symmetry group of a configuration."""
    tol = checked(tol, DEFAULT_TOLERANCES.match)
    axis = _is_axial(cfg, tol)
    if axis is not None:
        flip = (
            cfg.points.shape[0] == 2
            and cfg.multiplicities[0] == cfg.multiplicities[1]
        )
        tag = "AxialContinuousFlip" if flip else "AxialContinuous"
        return PointGroup(tag, None, None, _canonical_axis(np.array(axis)), (), ())
    elements = all_matching_rotations(cfg, cfg, tol)
    n_el = len(elements)
    if n_el == 1:
        return PointGroup("Trivial", None, 1, None, (), (np.eye(3),))
    census = _axis_census(elements)
    folds = sorted((fold for _, fold in census), reverse=True)
    max_fold = folds[0]
    by_fold = {}
    for ax, fold in census:
        by_fold.setdefault(fold, []).append(ax)
    gens = _pick_generators(elements, n_el)
    elements_t = tuple(elements)

    if len(census) == 1 and n_el == max_fold:
        axis = _canonical_axis(by_fold[max_fold][0])
        return PointGroup("Cyclic", max_fold, n_el, axis, gens, elements_t)
    if n_el == 12 and folds.count(3) == 4 and folds.count(2) == 3:
        axis = min(by_fold[3], key=lambda a: tuple(np.round(a, 9)))
        return PointGroup("Tetrahedral", None, 12, axis, gens, elements_t)
    if n_el == 24 and folds.count(4) == 3 and folds.count(3) == 4 and folds.count(2) == 6:
        axis = min(by_fold[4], key=lambda a: tuple(np.round(a, 9)))
        return PointGroup("Octahedral", None, 24, axis, gens, elements_t)
    if n_el == 60 and folds.count(5) == 6 and folds.count(3) == 10 and folds.count(2) == 15:
        axis = min(by_fold[5], key=lambda a: tuple(np.round(a, 9)))
        return PointGroup("Icosahedral", None, 60, axis, gens, elements_t)
    if n_el == 2 * max_fold and max_fold >= 2:
        if max_fold == 2:
            # dihedral-2: three mutually perpendicular 2-fold axes
            if len(census) == 3:
                axis = min(by_fold[2], key=lambda a: tuple(np.round(a, 9)))
                return PointGroup("Dihedral", 2, 4, axis, gens, elements_t)
        else:
            principal = by_fold[max_fold]
            twofolds = by_fold.get(2, [])
            if len(principal) == 1 and len(twofolds) == max_fold:
                p = principal[0]
                if all(abs(float(np.dot(p, t))) < 1e-6 for t in twofolds):
                    return PointGroup(
                        "Dihedral", max_fold, n_el, _canonical_axis(p), gens, elements_t
                    )
    raise SymmluError(
        f"unrecognized rotation-group census (order {n_el}, folds {folds}); refusing to guess"
    )
