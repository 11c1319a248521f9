"""Seeded inputs of the three workloads, each with the answer its construction implies.

A workload is a fixed list of operations on the library's public entry
points, called with library defaults.  The list of operation kinds and sizes
is the same for every seed.  The seed picks every `pure` input, the mixed
spectrum-mismatch pairs and the stabilizer elements given to the membership
oracle.  Inputs whose search cost depends on the draw by whole multiples
(one Nelder-Mead chain or several: the rotated pairs of `mixed` and of the
brute-force oracle, and the non-members given to the membership oracle) come
from a fixed stream, the same for every seed, so that a run measures the
same work whatever its seed.  Operations of 3 s or more (the n = 7 and
same-spectrum mixed pairs, the stabilizer oracle) are marked long: they
span many phases of the host's speed, and the benchmark scales them by the
run's speed factor rather than by the kernel calls next to them.

Each operation carries a check that compares the answer with the
construction and returns None or a failure reason:

  exception:<Type>  the call raised
  miss              no map or verdict 'equivalent' on a pair equivalent by construction
  false_positive    a map or 'equivalent' on a pair inequivalent by construction
  bad_map           the returned map does not carry one input to the other
  wrong_class       class tag, parameter or point group differs from the construction
  wrong_verdict     a mixed-state status other than the one the construction certifies
  anomalies         the stabilizer oracle reported witnesses outside the class
  wrong_membership  a membership distance on the wrong side of the tolerance
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import exact
from symmlu import classify, majorana, mixed, rotmatch, states, verify

# Checks of returned maps allow ten times the library's own acceptance
# threshold, so rounding differences between the two routes never count as
# failures while a wrong map (error of order one) always does.
_MAP_SLACK = 10.0


@dataclass
class Op:
    kind: str
    family: str
    n: int
    call: Callable[[], object]
    check: Callable[[object], str | None]
    long: bool = False


@dataclass
class Workload:
    ops: list
    warmups: list

    def __post_init__(self):
        self.ops = _interleave(self.ops)


def _interleave(ops):
    """Spread each group of like operations evenly over the pass.

    Host speed drifts over seconds; spreading a group lets its median and
    the pass total average over that drift instead of catching one phase.
    """
    groups = {}
    for op in ops:
        groups.setdefault((op.kind, op.family, op.n), []).append(op)
    keyed = []
    for members in groups.values():
        keyed += [((j + 0.5) / len(members), op) for j, op in enumerate(members)]
    return [op for _, op in sorted(keyed, key=lambda kv: kv[0])]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _expect_class(tag, k=None, t=None, group=None):
    """group is (tag, m, order) of a finite point group."""

    def check(res):
        c = res.sclass
        if c.tag != tag:
            return "wrong_class"
        if k is not None and c.k != k:
            return "wrong_class"
        if t is not None and abs(c.t - t) > 1e-6:
            return "wrong_class"
        if group is not None and (c.group.tag, c.group.m, c.group.order) != group:
            return "wrong_class"
        return None

    return check


def _expect_map(psi, phi):
    def check(g):
        if g is None:
            return "miss"
        return "bad_map" if exact.map_error(g, psi.coeffs, phi.coeffs) > 1e-8 * _MAP_SLACK else None

    return check


def _expect_none(g):
    return None if g is None else "false_positive"


def _expect_mixed_equivalent(rho, sigma, n):
    def check(res):
        if res.status != "equivalent":
            return "miss"
        err = float(np.linalg.norm(exact.conjugate(res.unitary, rho.mat, n) - sigma.mat))
        return "bad_map" if err > mixed.default_threshold(n) * _MAP_SLACK else None

    return check


def _expect_status(*allowed):
    def check(res):
        if res.status in allowed:
            return None
        return "false_positive" if res.status == "equivalent" else "wrong_verdict"

    return check


def _expect_projector_map(psi, phi, n):
    rho = states.to_density(psi).mat
    sigma = states.to_density(phi).mat

    def check(g):
        if g is None:
            return "miss"
        err = float(np.linalg.norm(exact.conjugate(g, rho, n) - sigma))
        return "bad_map" if err > mixed.default_threshold(n) * _MAP_SLACK else None

    return check


def _expect_no_anomalies(res):
    return None if len(res) == 0 else "anomalies"


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _state(coeffs) -> states.SymmetricPureState:
    return states.SymmetricPureState.from_unnormalized(coeffs)


def _rotated(psi, rng) -> states.SymmetricPureState:
    return _state(exact.rotate_coeffs(exact.random_su2(rng), psi.coeffs))


def _exact_group(points, mults):
    """Point group of the exact multiset, computed before timing."""
    grp = rotmatch.symmetry_group(majorana.config_from_points(points, mults))
    return (grp.tag, grp.m, grp.order)


def _pure_pair_ops(family, psi, phi, class_check):
    """classify_state(phi) and lu_equivalent_pure(psi, phi) for phi = g psi."""
    n = psi.n
    return [
        Op("classify", family, n, lambda: classify.classify_state(phi), class_check),
        Op("equiv", family, n, lambda: classify.lu_equivalent_pure(psi, phi), _expect_map(psi, phi)),
    ]


GENERIC_LADDER = (4, 8, 12, 20, 32, 48)
POLYHEDRA = (
    ("tetrahedron", exact.TETRAHEDRON, ("Tetrahedral", None, 12)),
    ("octahedron", exact.OCTAHEDRON, ("Octahedral", None, 24)),
    ("cube", exact.CUBE, ("Octahedral", None, 24)),
    ("icosahedron", exact.ICOSAHEDRON, ("Icosahedral", None, 60)),
)
DICKE = ((4, 2), (6, 1), (8, 3))
DEGENERATE = ((2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 3), (2, 2, 2), (4, 2, 1), (3, 4), (5, 1, 1), (2, 3, 2, 1))
_UNBALANCED = 0.4  # GHZ amplitudes cos, sin of this angle


def build_pure(seed: int, smoke: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for n in GENERIC_LADDER[:3] if smoke else GENERIC_LADDER:
        psi = states.random_symmetric(n, rng)
        trivial = _expect_class("finite", group=("Trivial", None, 1))
        ops += _pure_pair_ops("generic", psi, _rotated(psi, rng), trivial)
    for _, verts, group in POLYHEDRA[:1] if smoke else POLYHEDRA:
        psi = _state(exact.coeffs_from_points(verts))
        ops += _pure_pair_ops("polyhedron", psi, _rotated(psi, rng), _expect_class("finite", group=group))
    ops += _pure_pair_ops("ghz", states.ghz(5), _rotated(states.ghz(5), rng), _expect_class("iia"))
    a, b = math.cos(_UNBALANCED), math.sin(_UNBALANCED)
    unbalanced = states.ghz(6, a, b)
    t = 4.0 / math.pi * math.atan2(b, a)
    ops += _pure_pair_ops("ghz", unbalanced, _rotated(unbalanced, rng), _expect_class("iib", t=t))
    for n, k in DICKE:
        psi = states.dicke(n, k)
        expect = _expect_class("iva") if 2 * k == n else _expect_class("ivb", k=min(k, n - k))
        ops += _pure_pair_ops("dicke", psi, _rotated(psi, rng), expect)
    degenerate = {}
    for mults in DEGENERATE:
        pts = exact.random_points(len(mults), rng)
        psi = _state(exact.coeffs_from_points(pts, mults))
        degenerate[mults] = psi
        expect = _expect_class("finite", group=_exact_group(pts, mults))
        ops += _pure_pair_ops("degenerate", psi, _rotated(psi, rng), expect)
    # inequivalent by construction: multiplicity multisets or classes differ
    negatives = [
        (degenerate[(2, 1, 1)], _state(exact.coeffs_from_points(exact.random_points(4, rng)))),
        (degenerate[(3, 3)], _rotated(degenerate[(2, 2, 2)], rng)),
        (states.ghz(4), _rotated(states.dicke(4, 2), rng)),
        (_state(exact.coeffs_from_points(exact.TETRAHEDRON)), _rotated(states.random_symmetric(4, rng), rng)),
    ]
    for psi, phi in negatives:
        call = lambda psi=psi, phi=phi: classify.lu_equivalent_pure(psi, phi)  # noqa: E731
        ops.append(Op("equiv", "negative", psi.n, call, _expect_none))
    warm = states.ghz(4)
    warmups = [lambda: classify.classify_state(warm), lambda: classify.lu_equivalent_pure(warm, warm)]
    return Workload(ops, warmups)


# Rotated pairs per size, for ranks 1 and 3; a pair's search cost depends
# on the draw, so they come from a fixed stream.  At n = 7 one rank-1 pair
# (3-4 s) is all a pass can hold.
MIXED_PAIRS = {3: 2, 4: 5, 5: 2, 6: 1, 7: 1}
MIXED_RANKS = {7: (1,)}
MIXED_SPECTRUM_N = (3, 4, 5, 6)
# smoke mode: only cheap sizes
MIXED_SMOKE = {3: 2}


def _rotated_density(rho, n, rng) -> states.DensityMatrix:
    return states.DensityMatrix(n, exact.conjugate(exact.random_su2(rng), rho.mat, n))


def _mixed_op(family, rho, sigma, check, long=False):
    return Op("equiv_mixed", family, rho.n, lambda: mixed.lu_equivalent_mixed(rho, sigma), check, long)


def build_mixed(seed: int, smoke: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 2])
    fixed = np.random.default_rng([0, 2])
    ops = []
    for n, copies in (MIXED_SMOKE if smoke else MIXED_PAIRS).items():
        for rank in MIXED_RANKS.get(n, (1, 3)):
            for _ in range(copies):
                rho = states.random_symmetric_mixed(n, fixed, rank=rank)
                sigma = _rotated_density(rho, n, fixed)
                check = _expect_mixed_equivalent(rho, sigma, n)
                ops.append(_mixed_op(f"rank{rank}", rho, sigma, check, long=n == 7))
    for n in MIXED_SPECTRUM_N[:1] if smoke else MIXED_SPECTRUM_N:
        # global spectra differ: ranks 3 and 2
        rho = states.random_symmetric_mixed(n, rng, rank=3)
        sigma = _rotated_density(states.random_symmetric_mixed(n, rng, rank=2), n, rng)
        ops.append(_mixed_op("spectrum", rho, sigma, _expect_status("inequivalent_spectrum")))
        # global spectra agree (both pure), 1-qubit spectra differ
        while True:
            rho = states.random_symmetric_mixed(n, rng, rank=1)
            sigma = _rotated_density(states.random_symmetric_mixed(n, rng, rank=1), n, rng)
            gap = np.abs(exact.reduced_spectrum(rho.mat, n) - exact.reduced_spectrum(sigma.mat, n))
            if gap.max() > 1e-3:
                break
        ops.append(_mixed_op("spectrum", rho, sigma, _expect_status("inequivalent_spectrum")))
    if not smoke:
        # same global and 1-qubit spectra, inequivalent classes (iia vs iva);
        # this pair runs every refinement chain, 4-8 s
        d42 = _rotated_density(states.to_density(states.dicke(4, 2)), 4, fixed)
        ghz4 = states.to_density(states.ghz(4))
        expect = _expect_status("undecided", "inequivalent_spectrum")
        ops.append(_mixed_op("same_spectrum", ghz4, d42, expect, long=True))
    warm = states.to_density(states.ghz(3))
    warmups = [lambda: mixed.lu_equivalent_mixed(warm, warm)]
    return Workload(ops, warmups)


# Rotated brute-force pairs per size, from a fixed stream like MIXED_PAIRS.
ORACLE_PAIRS = {3: 4, 4: 4, 5: 1, 6: 1}
ORACLE_SMOKE = {3: 2}
# GHZ_3 stabilizer elements given to the membership oracle (seeded), and
# products of random unitaries that are not stabilizer elements (from the
# fixed stream: the descent's cost on them depends on the draw).
MEMBERS, NON_MEMBERS = 10, 5


def _expect_distance(member: bool, tol: float):
    def check(d):
        return None if (d <= tol) == member else "wrong_membership"

    return check


def _membership_ops(rng, fixed, members, non_members):
    """class_membership_distance on the sampler of GHZ_3 (class iia, with X layer).

    Each element is built as it reaches the oracle inside
    stabilizer_anomalies: a stabilizer element of the state, conjugated by
    the classification's transform into the frame of the class sampler.
    """
    psi = states.ghz(3)
    result = classify.classify_state(psi)
    rho = states.to_density(psi).mat
    tol = verify.StabilizerSearchConfig().membership_tol
    t = np.asarray(result.transform)
    ops = []
    for j in range(members + non_members):
        member = j < members
        if member:
            factors = exact.ghz_stabilizer(rng.uniform(0, 2 * math.pi, size=2), flip=bool(j % 2))
            assert exact.stabilizer_residual(factors, rho) < 1e-12
        else:
            factors = [exact.random_su2(fixed) for _ in range(3)]
        u = states.LocalUnitary(tuple(t @ f @ t.conj().T for f in factors))
        call = lambda u=u: verify.class_membership_distance(result.sampler, u)  # noqa: E731
        ops.append(Op("membership", "member" if member else "non_member", 3, call, _expect_distance(member, tol)))
    return ops


def build_oracle(seed: int, smoke: bool = False) -> Workload:
    """The stabilizer oracle end to end on the tetrahedron state (class finite T).

    Its blind sampling (self-distance lattice, up to 400 descents, diagonal
    phase grid) costs about as much on any small state; the tetrahedron is
    the cheapest found.  The continuous-family membership path, which on
    GHZ_3 costs far more than the sampling, runs as separate
    class_membership_distance operations on GHZ_3 stabilizer elements.
    """
    rng = np.random.default_rng([seed, 3])
    fixed = np.random.default_rng([0, 3])
    target = _state(exact.coeffs_from_points(exact.TETRAHEDRON))
    small = verify.StabilizerSearchConfig(grid=4, max_descents=2)
    cfg = small if smoke else None
    call = lambda: verify.stabilizer_anomalies(target, cfg=cfg)  # noqa: E731
    ops = [Op("anomalies", "polyhedron", 4, call, _expect_no_anomalies, long=True)]
    ops += _membership_ops(rng, fixed, *((2, 1) if smoke else (MEMBERS, NON_MEMBERS)))
    for n, copies in (ORACLE_SMOKE if smoke else ORACLE_PAIRS).items():
        for _ in range(copies):
            psi = states.random_symmetric(n, fixed)
            phi = _rotated(psi, fixed)
            call = lambda psi=psi, phi=phi: verify.lu_equivalent_pure_bruteforce(psi, phi)  # noqa: E731
            ops.append(Op("bruteforce", "rotated", n, call, _expect_projector_map(psi, phi, n)))
    warm = states.ghz(3)
    warm_member = ops[1].call
    warmups = [
        lambda: verify.lu_equivalent_pure_bruteforce(warm, warm),
        lambda: verify.stabilizer_anomalies(target, cfg=small),
        warm_member,
    ]
    return Workload(ops, warmups)


def wrong_answer_ops() -> list:
    """One operation whose expected answer is deliberately wrong (a generic state is not class iia)."""
    psi = states.random_symmetric(4, np.random.default_rng(0))
    return [Op("classify", "injected", 4, lambda: classify.classify_state(psi), _expect_class("iia"))]


BY_NAME = {"pure": build_pure, "mixed": build_mixed, "oracle": build_oracle}
