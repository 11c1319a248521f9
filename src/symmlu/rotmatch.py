"""Rotations of the sphere, configuration matching, and symmetry groups.

Correspondence conventions:

* su2_to_so3(g) returns the rotation R with g (v . sigma) g^+ = (R v) . sigma,
  so g = exp(-i (theta/2) v.sigma) maps to the rotation by theta about v.
* so3_to_su2 picks the SU(2) preimage with quaternion scalar part >= 0,
  breaking the scalar-part-zero tie by making the first significant vector
  component positive.

Matching: a rotation carries configuration a onto b when, in each
multiplicity class, the greedy matching (closest free pair first) pairs
every rotated point of a with a point of b within tol.  When the points of
one multiplicity lie more than 2 tol apart, each rotated point has at most
one partner within tol, so the greedy matching finds it whenever any
matching does.  The candidate rotations come from anchor pairs, and the rule
is evaluated on a (K, 3, 3) stack of them, a block of candidates at a time,
with a (K, a, b) stack of distance tables: each round matches, per candidate,
every free pair that is the closest free pair of both its point of a and its
point of b (masked argmins along both axes), and drops the candidates with a
matched pair beyond tol.  The point-group layer works on such stacks too.
closure, the generator pick and PointGroup's own check fill one kind of
product table (_fill_products): a stack of rotations and one integer column
per generator, row i of column j naming the row that rotation i times
generator j matches within _CLOSURE_TOL.  A round fills the missing columns with one stacked matmul
and one _close table and appends only the products that match no row; the
group is the identity's orbit over the columns.  On a closed set nothing is
appended, so naming its group costs one product table per generator, and
the axis census groups the axes in one pass.

Matching and symmetry_group read one tolerance, DEFAULT_TOLERANCES.match,
and take none per call; matches, closure and the generator pick all merge
rotations within _CLOSURE_TOL of each other, entrywise.

Groups: point_group names the finite group that a set of rotations
generates, whichever way they were found: symmetry_group passes the
self-matches of a configuration given as points (the tests' exact-points
reference), and classify.rotation_group, the one routine for a state's
group, the multipole frame's self-matches that fix the state.  The set need
not be closed: a missing product or a near-duplicate changes nothing, since
the group is named from the elements it generates.  PointGroup keeps its
axis signed as _canonical_axes signs it.  Elements are sorted by (angle,
canonical axis, sense), where the sense tells a rotation from its inverse,
so the element order and the generators follow the group, not the order the
elements came in or their last bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SymmluError
from .majorana import MajoranaConfiguration
from .tolerances import DEFAULT_TOLERANCES

__all__ = [
    "PointGroup",
    "su2_to_so3",
    "so3_to_su2",
    "quaternion_from_rotation",
    "pole_turn",
    "rotation_about",
    "rotation_between",
    "axis_angle",
    "match_rotation",
    "all_matching_rotations",
    "matching_distance",
    "symmetry_group",
    "point_group",
    "closure",
    "snap_angle",
]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis of two broadcasting arrays, each rounded as np.dot rounds it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def su2_to_so3(g: np.ndarray) -> np.ndarray:
    """The rotation R of g, R_ij = tr(sigma_i g sigma_j g^+) / 2; a (..., 2, 2) stack gives (..., 3, 3).

    With g = [[a, b], [c, d]], column j is (Re m, -Im m, (m_00 - m_11) / 2)
    for m = g sigma_j g^+ and its off-diagonal entry m_01, read off in
    closed form.  Each entry pairs g with g^+, so a global phase of g drops out.
    """
    g = np.asarray(g, dtype=np.complex128)
    a, b, c, d = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
    ad, bc = a * d.conj(), b * c.conj()
    x, y, z = ad + bc, ad - bc, a * c.conj() - b * d.conj()
    w = a * b.conj() - c * d.conj()  # (m_00 - m_11) / 2 of sigma_x, and of sigma_y as its imaginary part
    r = np.empty(g.shape[:-2] + (3, 3))
    r[..., 0, 0], r[..., 1, 0], r[..., 2, 0] = x.real, -x.imag, w.real
    r[..., 0, 1], r[..., 1, 1], r[..., 2, 1] = y.imag, y.real, w.imag
    r[..., 0, 2], r[..., 1, 2] = z.real, -z.imag
    r[..., 2, 2] = 0.5 * (np.abs(a) ** 2 - np.abs(b) ** 2 - np.abs(c) ** 2 + np.abs(d) ** 2)
    return r


def quaternion_from_rotation(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with canonical sign (w >= 0); a (..., 3, 3) stack gives (..., 4).

    Shepperd's method: each matrix is read off the trace when it is
    positive, else off its largest diagonal entry, so the square root is of
    a number near 1 or more.  The sign makes the first component above 1e-12
    positive, so a half turn (w = 0) has its first significant vector
    component positive; it is read before normalizing, which scales by
    1 + O(eps).  The branch and the sign are taken one matrix at a time in
    Python floats: a point group has at most 60 elements, and at that size a
    dozen float operations per matrix cost less than the numpy calls a
    vectorized branch needs.
    """
    r = np.asarray(r, dtype=float)
    raw = []
    for r00, r01, r02, r10, r11, r12, r20, r21, r22 in r.reshape(-1, 9).tolist():
        tr = r00 + r11 + r22
        if tr > 0:
            s = math.sqrt(tr + 1.0) * 2
            q = (0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s)
        elif r00 > r11 and r00 > r22:
            s = math.sqrt(1.0 + r00 - r11 - r22) * 2
            q = ((r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s)
        elif r11 > r22:
            s = math.sqrt(1.0 + r11 - r00 - r22) * 2
            q = ((r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s)
        else:
            s = math.sqrt(1.0 + r22 - r00 - r11) * 2
            q = ((r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s)
        raw.append(_canonical_sign(q))
    q = np.array(raw).reshape(-1, 4)
    q /= np.sqrt(_dot(q, q))[:, None]
    return q.reshape(r.shape[:-2] + (4,))


def _canonical_sign(q: tuple) -> tuple:
    """q or -q, whichever has its first component above 1e-12 in size positive."""
    for c in q:
        if abs(c) > 1e-12:
            return q if c > 0 else (-q[0], -q[1], -q[2], -q[3])
    return q


def _quaternion_to_su2(q: np.ndarray) -> np.ndarray:
    """The 2x2 unitary of unit quaternions (w, x, y, z); a (..., 4) stack gives (..., 2, 2)."""
    q = np.asarray(q, dtype=float)
    g = [(w - 1j * z, -y - 1j * x, y - 1j * x, w + 1j * z) for w, x, y, z in q.reshape(-1, 4).tolist()]
    return np.array(g, dtype=np.complex128).reshape(q.shape[:-1] + (2, 2))


def so3_to_su2(r: np.ndarray) -> np.ndarray:
    """Deterministic SU(2) preimage of a rotation matrix; a (..., 3, 3) stack gives (..., 2, 2)."""
    return _quaternion_to_su2(quaternion_from_rotation(r))


def pole_turn(axis) -> np.ndarray:
    """so3_to_su2(rotation_between(axis, NORTH_POLE)), straight from the half angle.

    The minimal turn of the unit axis (x, y, z) to the pole is by
    theta = atan2(hypot(x, y), z) about (y, -x, 0) / hypot(x, y), so g is
    the quaternion (cos(theta / 2), sin(theta / 2) (y, -x, 0) / hypot(x, y)),
    with so3_to_su2's sign.  Within 1e-12 of the z axis it takes
    rotation_between's picks: the identity, or a half turn about (x, y, z) x (1, 0, 0).
    """
    x, y, z = np.asarray(axis, dtype=float).tolist()
    off = math.hypot(x, y)
    if off >= 1e-12:
        half = 0.5 * math.atan2(off, z)
        s = math.sin(half) / off
        q = (math.cos(half), s * y, -s * x, 0.0)
    elif z > 0:
        q = (1.0, 0.0, 0.0, 0.0)
    else:
        r = math.hypot(y, z)
        q = (0.0, 0.0, z / r, -y / r)
    return _quaternion_to_su2(_canonical_sign(q))


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


def axis_angle(r: np.ndarray):
    """Canonical (axis, angle) with angle in [0, pi]; a (K, 3, 3) stack gives ((K, 3), (K,)).

    The identity has angle 0 and axis (0, 0, 1).
    """
    q = quaternion_from_rotation(r)
    rows = q.reshape(-1, 4)
    nv = np.sqrt(_dot(rows[:, 1:], rows[:, 1:]))
    turned = nv >= 1e-12
    axes = np.where(turned[:, None], rows[:, 1:] / np.where(turned, nv, 1.0)[:, None], (0.0, 0.0, 1.0))
    # math.atan2 mapped over floats, not numpy's arctan2, which rounds some angles differently
    angles = np.where(turned, 2.0 * np.array(list(map(math.atan2, nv.tolist(), rows[:, 0].tolist())), float), 0.0)
    axes = axes.reshape(q.shape[:-1] + (3,))
    return (axes, angles) if q.ndim > 1 else (axes, float(angles[0]))


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


def _canonical_axes(v: np.ndarray) -> np.ndarray:
    """Each row of (K, 3), or one axis, signed so its first component above 1e-9 is positive."""
    v = np.asarray(v, dtype=float)
    rows = v.reshape(-1, 3)
    significant = np.abs(rows) > 1e-9
    first = rows[np.arange(len(rows)), np.argmax(significant, axis=1)]
    sign = np.where(significant.any(axis=1) & (first < 0), -1.0, 1.0)
    return (rows * sign[:, None]).reshape(v.shape)


def _rotation_keys(axes: np.ndarray, angles: np.ndarray) -> list:
    """Sort keys (angle, canonical axis, sense) of a stack's axis_angle, angle and axis rounded to 9 digits.

    A rotation and its inverse share angle and canonical axis.  sense, 0
    when the axis is already canonical and 1 when _canonical_axes flipped
    it, tells them apart by the rotation itself, not by roundoff or input order.
    """
    canonical = _canonical_axes(axes)
    rounded, flipped = np.round(canonical, 9).tolist(), (_dot(canonical, axes) < 0).tolist()
    return [(round(angle, 9), *axis, int(f)) for angle, axis, f in zip(angles.tolist(), rounded, flipped)]


def _ranked(rots: np.ndarray) -> tuple:
    """A (K, 3, 3) stack sorted by _rotation_keys (a stable sort), and its axis_angle in that order."""
    axes, angles = axis_angle(rots)
    keys = _rotation_keys(axes, angles)
    rank = sorted(range(len(keys)), key=keys.__getitem__)
    return rots[rank], axes[rank], angles[rank]


_MATCH_BLOCK = 1 << 16  # _assignment_max: (candidate, a, b) distances at once, 1.5 MB of differences


def _assignment_max(apts, amults, bpts, bmults, rots, tol) -> np.ndarray:
    """Max chordal distance of the greedy multiplicity-respecting matching under each rotation of a (K, 3, 3) stack.

    Within each multiplicity class the closest free pair is matched first.
    Greedy matching takes a pair that is the closest free pair of both its
    row and its column before any other pair of that row or column, so it is
    taken in rounds, on all live candidates of a block at once: each round
    matches every such pair (the closest free pair overall is one).  A
    candidate with a matched pair beyond tol is rejected (inf) and leaves the
    stack.  Candidates are taken in blocks of at most _MATCH_BLOCK distances
    per class, so the (candidates, a, b, 3) differences stay small.  a and b
    have the same multiplicities.
    """
    worst = np.zeros(len(rots))
    classes = [(apts[amults == mult], bpts[bmults == mult]) for mult in set(amults.tolist())]
    step = max(1, _MATCH_BLOCK // max(len(a_cls) * len(b_cls) for a_cls, b_cls in classes))
    for start in range(0, len(rots), step):
        live = np.arange(start, min(start + step, len(rots)))
        for a_cls, b_cls in classes:
            rotated = a_cls @ np.swapaxes(rots[live], 1, 2)
            cost = np.linalg.norm(rotated[:, :, None, :] - b_cls[None, None], axis=3)
            k, rows = np.arange(len(live))[:, None], np.arange(len(a_cls))
            free = np.ones(cost.shape[:2], dtype=bool)
            while free.any():
                col = cost.argmin(axis=2)
                pick = free & (cost.argmin(axis=1)[k, col] == rows)
                worst[live] = np.maximum(worst[live], np.where(pick, cost[k, rows, col], 0.0).max(axis=1))
                cost[pick] = np.inf
                hit, row = np.nonzero(pick)
                cost[hit, :, col[hit, row]] = np.inf
                free &= ~pick
                ok = worst[live] <= tol
                if not ok.all():
                    worst[live[~ok]] = np.inf
                    live, cost, free, k = live[ok], cost[ok], free[ok], k[: ok.sum()]
    return worst


def _is_axial(cfg: MajoranaConfiguration):
    """Axis if all points lie on one line through the origin (to the match tolerance), else None."""
    if cfg.points.shape[0] == 1:
        return cfg.points[0]
    if cfg.points.shape[0] == 2 and np.linalg.norm(cfg.points[0] + cfg.points[1]) <= DEFAULT_TOLERANCES.match:
        return cfg.points[0]
    return None


def _candidate_anchors(cfg: MajoranaConfiguration):
    """(a1, a2) pair: smallest multiplicity class, most orthogonal partner.

    Ties go to the lexicographically smallest point, its coordinates rounded
    to 12 digits.
    """
    pts = cfg.points
    rounded = np.round(pts, 12)
    cands = np.flatnonzero(cfg.multiplicities == cfg.multiplicities.min())
    a1_idx = cands[np.lexsort(rounded[cands].T[::-1])[0]]
    # partners at equal angles are told apart by the rounding of these dot products
    score = np.abs(_dot(pts, pts[a1_idx]))
    partners = np.flatnonzero((np.arange(len(pts)) != a1_idx) & (score <= 1.0 - 1e-12))
    if not partners.size:
        raise SymmluError("no non-collinear anchor found in a non-axial configuration")
    order = np.lexsort(np.column_stack([score[partners], rounded[partners]]).T[::-1])
    return pts[a1_idx], pts[partners[order[0]]]


def _frame(p1, p2) -> np.ndarray:
    """Orthonormal frames [p1, u, p1 x u], u along p2's part orthogonal to p1; (..., 3) points give (..., 3, 3)."""
    u = p2 - _dot(p2, p1)[..., None] * p1
    u /= np.sqrt(_dot(u, u))[..., None]
    frame = np.empty(p1.shape + (3,))
    frame[..., 0], frame[..., 1] = p1, u
    frame[..., 2] = p1[..., [1, 2, 0]] * u[..., [2, 0, 1]] - p1[..., [2, 0, 1]] * u[..., [1, 2, 0]]
    return frame


_CLOSURE_TOL = 1e-6  # entrywise: matches, closure and the generator pick merge rotations this close
_CLOSE_BLOCK = 1 << 12  # _close: rotation pairs compared at once, 0.3 MB of differences


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(K, L) table: rotation k of stack a lies within _CLOSURE_TOL of rotation l of stack b, entrywise.

    Rows of a are taken a block at a time, so the (rows, L, 3, 3) differences stay small.
    """
    out = np.empty((len(a), len(b)), dtype=bool)
    step = max(1, _CLOSE_BLOCK // max(1, len(b)))
    for start in range(0, len(a), step):
        out[start : start + step] = (np.abs(a[start : start + step, None] - b[None]) <= _CLOSURE_TOL).all(axis=(2, 3))
    return out


def _drop_repeats(rots: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """keep, with each rotation within _CLOSURE_TOL of a kept one before it also dropped.

    The first-come rule of a scan that keeps a rotation unless it is close to
    one kept so far.  Rows keep already drops neither count nor block, and
    only rows close to an earlier one need the scan.
    """
    live = np.flatnonzero(keep)
    if len(live) < 2:
        return keep
    earlier = np.tril(_close(rots[live], rots[live]), -1)
    kept = np.ones(len(live), dtype=bool)
    for k in np.flatnonzero(earlier.any(axis=1)):
        kept[k] = not (earlier[k] & kept).any()
    keep[live] = kept
    return keep


def _anchor_rotations(a: MajoranaConfiguration, b: MajoranaConfiguration, tol: float) -> np.ndarray:
    """(K, 3, 3) rotations taking a's anchor frame to the frames of b's point pairs with the anchors' angle."""
    a1, a2 = _candidate_anchors(a)
    ref = float(np.dot(a1, a2))
    slack = 3.0 * tol + 1e-12
    m1 = int(a.multiplicities.min())  # a1 comes from the smallest class
    dots = _dot(b.points[:, None], b.points[None])
    pairs = (
        (b.multiplicities == m1)[:, None]
        & ~np.eye(len(dots), dtype=bool)
        & (np.abs(dots - ref) <= slack)
        & (np.abs(dots) <= 1.0 - 1e-12)
    )
    i, j = np.nonzero(pairs)
    return _frame(b.points[i], b.points[j]) @ _frame(a1, a2).T


def all_matching_rotations(a: MajoranaConfiguration, b: MajoranaConfiguration):
    """Every rotation carrying configuration a onto b, deduplicated at _CLOSURE_TOL and sorted by (angle, axis)."""
    tol = DEFAULT_TOLERANCES.match
    if a.n != b.n:
        raise DomainError(f"configurations have different sizes {a.n} and {b.n}")
    if sorted(a.multiplicities) != sorted(b.multiplicities):
        return []
    axis_a, axis_b = _is_axial(a), _is_axial(b)
    if (axis_a is None) != (axis_b is None):
        return []
    if axis_a is not None:
        rots = np.array([rotation_between(axis_a, target) for target in (axis_b, -axis_b)])
    else:
        rots = _anchor_rotations(a, b, tol)
    worst = _assignment_max(a.points, a.multiplicities, b.points, b.multiplicities, rots, tol)
    found = rots[worst <= tol]
    found = found[_drop_repeats(found, np.ones(len(found), dtype=bool))]
    return list(_ranked(found)[0] if len(found) > 1 else found)


def match_rotation(a: MajoranaConfiguration, b: MajoranaConfiguration):
    """A rotation carrying a onto b, or None.

    When several rotations match, the one with the smallest canonical key
    (rotation angle, then lexicographic axis) is returned.
    """
    matches = all_matching_rotations(a, b)
    return matches[0] if matches else None


def matching_distance(a: MajoranaConfiguration, b: MajoranaConfiguration) -> float:
    """Max chordal distance of the greedy multiplicity-respecting matching (no rotation).

    An upper bound on the best (bottleneck) matching distance; the two agree
    when the points of each multiplicity lie more than twice that distance apart.
    """
    if a.n != b.n:
        raise DomainError("configurations have different sizes")
    if sorted(a.multiplicities) != sorted(b.multiplicities):
        return float("inf")
    worst = _assignment_max(
        a.points, a.multiplicities, b.points, b.multiplicities, np.eye(3)[None], float("inf")
    )
    return float(worst[0])


# ---------------------------------------------------------------------------
# symmetry groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointGroup:
    """Rotational symmetry group of a configuration.

    tag is one of: Trivial, Cyclic, Dihedral, Tetrahedral, Octahedral,
    Icosahedral, AxialContinuous, AxialContinuousFlip.  elements is one
    read-only (order, 3, 3) array, empty for the axial tags.  A finite tag
    is checked at construction by the orbit over its own elements: the
    product table seeded with `elements` and filled for `generators`
    (_fill_products) must gain no row, and the identity's orbit over it must
    reach every row.  So the elements are `order` rotations, one per element
    of the group the generators generate, or SymmluError is raised.
    """

    tag: str
    m: int | None
    order: int | None
    axis: np.ndarray | None
    generators: tuple
    elements: np.ndarray | tuple = ()

    def __post_init__(self):
        # own copies: a view would keep the larger array it was cut from alive
        elements = np.array(self.elements, dtype=float).reshape(-1, 3, 3)
        elements.setflags(write=False)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "generators", tuple(np.array(g, dtype=float) for g in self.generators))
        if self.axis is not None:
            object.__setattr__(self, "axis", _canonical_axes(self.axis))
        if self.order is not None:
            gens = np.array(self.generators).reshape(-1, 3, 3)
            elems, start = _seeded(elements)
            elems, cols = _fill_products(elems, np.full((len(elems), len(gens)), -1), gens)
            orbit = _orbit(cols, start)
            if not (len(elements) == self.order == len(elems) and orbit.all()):
                raise SymmluError(
                    f"{self.tag} group claims order {self.order}, but its {len(elements)} elements "
                    f"are not the {orbit.sum()} rotations its generators generate"
                )

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    def __str__(self):
        return f"{self.tag}{'' if self.m is None else self.m}"


_CLOSURE_CAP = 200  # closure: largest group


def _fill_products(elems: np.ndarray, cols: np.ndarray, gens: np.ndarray) -> tuple:
    """The product table (elems, cols) with every -1 of cols filled: cols[i, j] is the row of elems[i] @ gens[j].

    A round multiplies every (row, generator) pair still at -1 in one stacked
    matmul, in row-major order, and matches the products against the stack
    with _close: a product takes the first row within _CLOSURE_TOL.  The
    products that no row matches are appended, the first of each set of
    repeats (_drop_repeats), with their columns at -1 for the next round.
    On a closed stack no round appends, so each generator costs one product
    table.  More than _CLOSURE_CAP rows raise SymmluError.
    """
    rows, which = np.nonzero(cols < 0)
    while len(rows):
        products = elems[rows] @ gens[which]
        close = _close(products, elems)
        cols[rows, which] = close.argmax(axis=1)
        unmatched = ~close.any(axis=1)
        if not unmatched.any():
            break
        fresh = _drop_repeats(products, unmatched.copy())
        if len(elems) + fresh.sum() > _CLOSURE_CAP:
            raise SymmluError(f"closure exceeded {_CLOSURE_CAP} elements; not a small finite group")
        # each unmatched product takes the first appended one within _CLOSURE_TOL: itself, or the one it repeats
        cols[rows[unmatched], which[unmatched]] = len(elems) + _close(products[unmatched], products[fresh]).argmax(axis=1)
        elems = np.concatenate([elems, products[fresh]])
        cols = np.concatenate([cols, np.full((int(fresh.sum()), cols.shape[1]), -1)])
        rows, which = np.nonzero(cols < 0)
    return elems, cols


def _orbit(cols: np.ndarray, start: int) -> np.ndarray:
    """Mask of the rows that row start, the identity, reaches through the product columns cols.

    Breadth-first over the integer table in Python: at most _CLOSURE_CAP
    rows, each read once, cost less than the numpy calls of a layer.
    """
    table = cols.tolist()
    reached = [False] * len(table)
    reached[start] = True
    todo = [start]
    for row in todo:
        for product in table[row]:
            if not reached[product]:
                reached[product] = True
                todo.append(product)
    return np.array(reached)


def _seeded(rots: np.ndarray) -> tuple:
    """rots as the rows of a product table, and the row of the identity: the first rotation at it, else an appended identity."""
    at = np.flatnonzero(_close(rots, np.eye(3)[None])[:, 0])
    if at.size:
        return rots, int(at[0])
    return np.concatenate([rots, np.eye(3)[None]]), len(rots)


def closure(mats) -> np.ndarray:
    """The group generated by the given rotations, as a (K, 3, 3) stack (deduplicated at _CLOSURE_TOL).

    The product table (_fill_products) seeded with the identity alone: each
    round multiplies the rows the last round appended by every generator,
    so the rows come a breadth-first layer at a time, and every row is in
    the identity's orbit.  In a finite group that orbit holds every product.
    """
    gens = np.asarray(mats, dtype=float).reshape(-1, 3, 3)
    return _fill_products(np.eye(3)[None], np.full((1, len(gens)), -1), gens)[0]


def _axis_census(axes: np.ndarray, angles: np.ndarray) -> list:
    """Group the non-identity rotations of a stack's axis_angle by unoriented axis; return (axis, fold) in order of first appearance.

    A rotation joins the first axis within 1e-6 of its own, either sign, in
    one pass over the table of |cosines| between the unit axes: distance
    1e-6 is |cos| = 1 - 5e-13.
    """
    axes = _canonical_axes(axes[angles >= 1e-9])
    close = np.abs(axes @ axes.T) > 1.0 - 5e-13
    first, count = np.unique(close.argmax(axis=1), return_counts=True)
    return [(axes[f], c + 1) for f, c in zip(first.tolist(), count.tolist())]  # fold = rotations + identity


def _pick_generators(ranked: np.ndarray) -> tuple:
    """Greedy small generating set of the rotations of ranked, and whether ranked is the group it generates.

    ranked is sorted by _rotation_keys.  One product table, seeded with
    ranked (_seeded), grows a column per generator: the first rotation that
    the identity's orbit over the columns so far does not reach is taken,
    unless it lies within _CLOSURE_TOL of a reached row (a repeat), until
    every rotation of ranked is reached or a repeat.  ranked is the group
    when the orbit is every row and no row was appended.
    """
    elems, start = _seeded(ranked)
    cols = np.empty((len(elems), 0), dtype=int)
    orbit = _orbit(cols, start)
    gens: list = []
    repeat = np.zeros(len(ranked), dtype=bool)
    while True:
        outside = np.flatnonzero(~orbit[: len(ranked)] & ~repeat)
        if not outside.size:
            return tuple(gens), len(elems) == len(ranked) and bool(orbit.all())
        if _close(ranked[outside[:1]], elems[orbit]).any():
            repeat[outside[0]] = True
            continue
        gens.append(ranked[outside[0]])
        elems, cols = _fill_products(elems, np.column_stack([cols, np.full(len(cols), -1)]), np.array(gens))
        orbit = _orbit(cols, start)


def symmetry_group(cfg: MajoranaConfiguration) -> PointGroup:
    """Classify the rotational symmetry group of a configuration: an axial tag, or point_group of its self-matches."""
    axis = _is_axial(cfg)
    if axis is not None:
        flip = (
            cfg.points.shape[0] == 2
            and cfg.multiplicities[0] == cfg.multiplicities[1]
        )
        tag = "AxialContinuousFlip" if flip else "AxialContinuous"
        return PointGroup(tag, None, None, _canonical_axes(axis), ())
    return point_group(all_matching_rotations(cfg, cfg))


def point_group(rotations) -> PointGroup:
    """The PointGroup of the finite group that the rotations of a (K, 3, 3) stack generate.

    Rotations all within _CLOSURE_TOL of the identity (or none) are the
    Trivial group.  Otherwise they are sorted by _rotation_keys, so the
    result does not depend on the order they come in, and the generators
    are picked from them on a product table seeded with them
    (_pick_generators).  When they are not that group itself (a product is
    missing, or two lie within _CLOSURE_TOL of each other), the group is
    named from its own elements instead, closure of the generators sorted
    the same way, so the answer depends only on the group.  A set of
    rotations that generates no small finite group raises closure's
    SymmluError.
    """
    rotations = np.asarray(rotations, dtype=float).reshape(-1, 3, 3)
    if _close(rotations, np.eye(3)[None]).all():
        return PointGroup("Trivial", None, 1, None, (), np.eye(3)[None])
    elements, axes, angles = _ranked(rotations)
    gens, closed = _pick_generators(elements)
    if not closed:
        elements, axes, angles = _ranked(closure(gens))
        gens = _pick_generators(elements)[0]
    n_el = len(elements)
    census = _axis_census(axes, angles)
    folds = sorted((fold for _, fold in census), reverse=True)
    max_fold = folds[0]
    by_fold = {}
    for ax, fold in census:
        by_fold.setdefault(fold, []).append(ax)

    if len(census) == 1 and n_el == max_fold:
        return PointGroup("Cyclic", max_fold, n_el, by_fold[max_fold][0], gens, elements)
    if n_el == 12 and folds.count(3) == 4 and folds.count(2) == 3:
        axis = min(by_fold[3], key=lambda a: tuple(np.round(a, 9)))
        return PointGroup("Tetrahedral", None, 12, axis, gens, elements)
    if n_el == 24 and folds.count(4) == 3 and folds.count(3) == 4 and folds.count(2) == 6:
        axis = min(by_fold[4], key=lambda a: tuple(np.round(a, 9)))
        return PointGroup("Octahedral", None, 24, axis, gens, elements)
    if n_el == 60 and folds.count(5) == 6 and folds.count(3) == 10 and folds.count(2) == 15:
        axis = min(by_fold[5], key=lambda a: tuple(np.round(a, 9)))
        return PointGroup("Icosahedral", None, 60, axis, gens, elements)
    if n_el == 2 * max_fold and max_fold >= 2:
        if max_fold == 2:
            # dihedral-2: three mutually perpendicular 2-fold axes
            if len(census) == 3:
                axis = min(by_fold[2], key=lambda a: tuple(np.round(a, 9)))
                return PointGroup("Dihedral", 2, 4, axis, gens, elements)
        else:
            principal = by_fold[max_fold]
            twofolds = by_fold.get(2, [])
            if len(principal) == 1 and len(twofolds) == max_fold:
                p = principal[0]
                if all(abs(float(np.dot(p, t))) < 1e-6 for t in twofolds):
                    return PointGroup("Dihedral", max_fold, n_el, p, gens, elements)
    raise SymmluError(
        f"unrecognized rotation-group census (order {n_el}, folds {folds}); refusing to guess"
    )
