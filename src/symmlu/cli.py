"""Command-line interface.

Subcommands: mkstate (dicke | ghz | from-points | random), majorana,
symmetry, classify, equiv, equiv-mixed, verify.  '-' reads JSON from stdin,
so subcommands compose into pipelines.  Output is deterministic for a fixed
argv and seed; exit codes: 0 success/equivalent, 1 not-equivalent (for
equiv: no candidate rotation of the multipole frames within --tol) or
anomalies found, 2 usage errors, 3 domain errors (with {"error": ...} JSON),
4 undecided (equiv-mixed found no equivalence and no certificate against it),
141 stdout closed before the answer was written (128 + SIGPIPE, no verdict).
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import classify, io, majorana, mixed, rotmatch, states, verify
from .errors import SymmluError

DEFAULT_SEED = 7
EXIT_UNDECIDED = 4  # a miss without a certificate, kept apart from the certified "not equivalent" (1)


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _add_mode(p, csv_ok=False):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--json", dest="mode", action="store_const", const="json")
    if csv_ok:
        g.add_argument("--csv", dest="mode", action="store_const", const="csv")
    g.add_argument("--human", dest="mode", action="store_const", const="human")
    p.set_defaults(mode="json")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="symmlu",
        description="Majorana configurations, stabilizer classes, and LU "
        "equivalence of permutation-symmetric qubit states.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    mk = sub.add_parser("mkstate", help="construct a symmetric state as JSON")
    mks = mk.add_subparsers(dest="kind", required=True)
    d = mks.add_parser("dicke", help="equal-weight basis state")
    d.add_argument("n", type=int)
    d.add_argument("k", type=int)
    g = mks.add_parser("ghz", help="two-pole superposition")
    g.add_argument("n", type=int)
    g.add_argument("--weights", nargs=2, type=float, metavar=("A", "B"))
    f = mks.add_parser("from-points", help="state from a point-multiset file")
    f.add_argument("path")
    r = mks.add_parser("random", help="Haar-like random symmetric state")
    r.add_argument("n", type=int)
    r.add_argument("--seed", type=_nonnegative_int, default=DEFAULT_SEED)

    mj = sub.add_parser("majorana", help="point configuration of a state")
    mj.add_argument("path")
    mj.add_argument("--tol", type=_positive_float, default=None, help="cluster radius")
    _add_mode(mj, csv_ok=True)

    sy = sub.add_parser("symmetry", help="rotational symmetry group of a state")
    sy.add_argument("path")
    sy.add_argument("--tol", type=_positive_float, default=None, help="classify's tol, on turned coefficients and phase distances")
    _add_mode(sy, csv_ok=True)

    cl = sub.add_parser("classify", help="stabilizer class of a state")
    cl.add_argument("path")
    cl.add_argument("--tol", type=_positive_float, default=None)
    _add_mode(cl)

    eq = sub.add_parser("equiv", help="pure-state LU equivalence")
    eq.add_argument("a")
    eq.add_argument("b")
    eq.add_argument("--tol", type=_positive_float, default=None)
    _add_mode(eq)

    em = sub.add_parser("equiv-mixed", help="mixed-state LU equivalence")
    em.add_argument("a")
    em.add_argument("b")
    em.add_argument("--threshold", type=_positive_float, default=None)
    _add_mode(em)

    vf = sub.add_parser("verify", help="brute-force stabilizer search")
    vf.add_argument("path")
    vf.add_argument("--class-check", action="store_true")
    vf.add_argument("--search-grid", type=int, default=12)
    _add_mode(vf)
    return p


def _class_label(sclass: classify.StabilizerClass) -> str:
    if sclass.tag == "finite":
        return f"finite:{sclass.group}"
    return sclass.tag


def _unitary_factors(u: states.LocalUnitary) -> list:
    return [io.matrix_pairs(f) for f in u.factors]


def _run_mkstate(args) -> int:
    if args.kind == "dicke":
        psi = states.dicke(args.n, args.k)
    elif args.kind == "ghz":
        if args.weights is None:
            psi = states.ghz(args.n)
        else:
            psi = states.ghz(args.n, args.weights[0], args.weights[1])
    elif args.kind == "from-points":
        psi = io.state_from_dict(io.load_json(args.path))
    else:
        rng = np.random.default_rng(args.seed)
        psi = states.random_symmetric(args.n, rng)
    print(io.dumps(io.state_to_dict(psi)))
    return 0


def _run_majorana(args) -> int:
    psi = io.state_from_dict(io.load_json(args.path))
    cfg = majorana.majorana_points(psi, tol=args.tol)
    if args.mode == "csv":
        lines = ["x,y,z,multiplicity"]
        for pt, m in zip(cfg.points, cfg.multiplicities):
            lines.append(",".join("%.17g" % v for v in pt) + f",{int(m)}")
        print("\n".join(lines))
    elif args.mode == "human":
        for theta, phi, m in cfg.as_angle_rows():
            print(
                f"theta {math.degrees(theta):10.4f} deg   "
                f"phi {math.degrees(phi):10.4f} deg   x{int(m)}"
            )
    else:
        print(io.dumps(io.points_to_dict(cfg)))
    return 0


def _run_symmetry(args) -> int:
    grp = classify.rotation_group(io.state_from_dict(io.load_json(args.path)), tol=args.tol)
    axes, angles = rotmatch.axis_angle(grp.elements)
    rows = [(axis, angle, rotmatch.snap_angle(angle)) for axis, angle in zip(axes, angles.tolist())]
    if args.mode == "csv":
        lines = ["axis_x,axis_y,axis_z,angle_rad"]
        for axis, angle, _ in rows:
            lines.append(",".join("%.17g" % v for v in axis) + ",%.17g" % angle)
        print("\n".join(lines))
    elif args.mode == "human":
        print(f"group {grp}, order {grp.order}")
        if grp.axis is not None:
            print("axis [" + " ".join(f"{v:+.4f}" for v in grp.axis) + "]")
        for axis, angle, snapped in rows:
            ax = " ".join(f"{v:+.4f}" for v in axis)
            print(f"  axis [{ax}]  angle {math.degrees(snapped):9.4f} deg")
    else:
        print(
            io.dumps(
                {
                    "group": grp.tag,
                    "m": grp.m,
                    "order": grp.order,
                    "axis": None if grp.axis is None else [float(v) for v in grp.axis],
                    "elements": [
                        {
                            "axis": [float(v) for v in axis],
                            "angle": float(angle),
                            "snapped_angle": float(snapped),
                        }
                        for axis, angle, snapped in rows
                    ],
                }
            )
        )
    return 0


def _run_classify(args) -> int:
    psi = io.state_from_dict(io.load_json(args.path))
    res = classify.classify_state(psi, tol=args.tol)
    if args.mode == "human":
        print(f"class {_class_label(res.sclass)}")
        if res.sclass.t is not None:
            print(f"  t = {res.sclass.t:.6f}")
        if res.sclass.k is not None:
            print(f"  k = {res.sclass.k}")
        if res.sclass.group is not None:
            print(f"  order = {res.sclass.group.order}")
        print(f"  residual = {res.residual:.3e}")
        return 0
    out = {"class": res.sclass.tag}
    if res.sclass.t is not None:
        out["t"] = res.sclass.t
    if res.sclass.k is not None:
        out["k"] = res.sclass.k
    if res.sclass.group is not None:
        g = res.sclass.group
        out["group"] = {"tag": g.tag, "m": g.m, "order": g.order}
    out["canonical"] = io.state_to_dict(res.canonical)
    out["g"] = io.matrix_pairs(res.transform)
    out["residual"] = res.residual
    out["generators"] = [_unitary_factors(u) for u in res.generators]
    print(io.dumps(out))
    return 0


def _run_equiv(args) -> int:
    psi = io.state_from_dict(io.load_json(args.a))
    phi = io.state_from_dict(io.load_json(args.b))
    g = classify.lu_equivalent_pure(psi, phi, tol=args.tol)
    if args.mode == "human":
        print("equivalent" if g is not None else "not equivalent")
    elif g is not None:
        print(io.dumps({"equivalent": True, "g": io.matrix_pairs(g)}))
    else:
        print(io.dumps({"equivalent": False}))
    return 0 if g is not None else 1


def _run_equiv_mixed(args) -> int:
    rho = io.density_from_dict(io.load_json(args.a))
    sigma = io.density_from_dict(io.load_json(args.b))
    note = ""
    if rho.n == 2 and sigma.n == 2:
        note = (
            "n = 2 is outside the identical-tensor-power reduction; "
            "results come from an explicitly heuristic two-factor search"
        )
        res = mixed.two_factor_search(rho, sigma, args.threshold)
    else:
        res = mixed.lu_equivalent_mixed(rho, sigma, args.threshold)
    if args.mode == "human":
        print(f"status: {res.status}")
        if res.distance is not None:
            print(f"distance: {res.distance:.3e} (threshold {res.threshold:.3e})")
        if note:
            print(note)
    else:
        out = {
            "status": res.status,
            "equivalent": bool(res),
            "distance": res.distance,
            "threshold": res.threshold,
            "detail": res.detail,
        }
        if note:
            out["note"] = note
        if res.unitary is not None:
            mats = res.unitary if res.unitary.ndim == 3 else res.unitary[None, :, :]
            out["unitaries"] = [io.matrix_pairs(m) for m in mats]
        print(io.dumps(out))
    if res:
        return 0
    return EXIT_UNDECIDED if res.status == "undecided" else 1


def _run_verify(args) -> int:
    psi = io.state_from_dict(io.load_json(args.path))
    rho = states.to_density(psi)
    witnesses = verify.sample_stabilizer(rho, verify.StabilizerSearchConfig(grid=args.search_grid))
    out = {
        "witness_count": len(witnesses),
        "witnesses": [
            {"residual": w.residual, "factors": _unitary_factors(w.unitary)}
            for w in witnesses
        ],
        "spectra": verify.spectra_report(rho).to_dict(),
    }
    code = 0
    if args.class_check:
        res = classify.classify_state(psi)
        anomalies = verify.witness_anomalies(witnesses, res)
        out["class"] = _class_label(res.sclass)
        out["anomalies"] = [
            {
                "residual": w.residual,
                "membership_distance": dist,
                "factors": _unitary_factors(w.unitary),
            }
            for w, dist in anomalies
        ]
        out["ok"] = not anomalies
        if anomalies:
            code = 1
    if args.mode == "human":
        print(f"{len(witnesses)} stabilizer witnesses found")
        if args.class_check:
            print(f"class {out['class']}: " + ("ok" if out["ok"] else "ANOMALIES"))
    else:
        print(io.dumps(out))
    return code


_HANDLERS = {
    "mkstate": _run_mkstate,
    "majorana": _run_majorana,
    "symmetry": _run_symmetry,
    "classify": _run_classify,
    "equiv": _run_equiv,
    "equiv-mixed": _run_equiv_mixed,
    "verify": _run_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code = _HANDLERS[args.cmd](args)
        except SymmluError as exc:
            print(io.dumps({"error": str(exc)}))
            code = 3
        sys.stdout.flush()  # a reader gone early shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # no answer reached the reader; stdout goes to devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, outside the verdict codes 0-4


if __name__ == "__main__":
    sys.exit(main())
