"""Serialization of states, points, and matrices.

All writers emit floats with 17 significant digits (enough to round-trip a
double exactly), recursively and with stable key order, so identical inputs
produce byte-identical files.  Readers renormalize states on load.

Formats:
  pure state      {"n": int, "basis": "dicke", "coeffs": [[re, im], ...]}
                  or {"n": int, "basis": "majorana", "points": [[theta, phi], ...]}
  point multiset  {"points": [[theta, phi, multiplicity], ...]}
  density matrix  {"n": int, "matrix": [[[re, im], ...], ...]}
"""
from __future__ import annotations

import json
import math
import sys

import numpy as np

from . import majorana, states
from .errors import DomainError

__all__ = [
    "dumps",
    "load_json",
    "pair",
    "matrix_pairs",
    "state_to_dict",
    "state_from_dict",
    "points_to_dict",
    "density_to_dict",
    "density_from_dict",
]


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise DomainError(f"cannot serialize non-finite value {x}")
    return "%.17g" % x


def dumps(obj, indent: int = 0) -> str:
    """JSON text with %.17g floats; dict order is preserved as written."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 2)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        parts = [dumps(v, indent + 2) for v in obj]
        flat = "[" + ", ".join(parts) + "]"
        if len(flat) <= 100 and "\n" not in flat:
            return flat
        return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise DomainError(f"cannot serialize {type(obj).__name__}")


def load_json(path: str):
    """Parse JSON from a file path, or from stdin when path is '-'."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        source = "stdin" if path == "-" else path
        raise DomainError(f"invalid JSON from {source}: {exc}") from exc


def pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_pairs(m: np.ndarray) -> list:
    return [[pair(v) for v in row] for row in np.asarray(m)]


def _numbers(value, what: str, shape: tuple) -> np.ndarray:
    """value as a float array of the given shape (-1: any length), or a DomainError naming what.

    Every list read from JSON is parsed here, never by a bare index or cast.
    """
    try:
        arr = np.array(value)
    except ValueError:  # ragged rows
        arr = np.zeros(0, dtype=object)
    if arr.dtype.kind not in "iuf" or arr.ndim != len(shape) or any(
        want not in (-1, got) for want, got in zip(shape, arr.shape)
    ):
        raise DomainError(f"{what} must be numbers of shape {shape} (-1: any), got {json.dumps(value)[:80]}")
    return arr.astype(np.float64)


def _whole(x: float) -> bool:
    return bool(np.isfinite(x) and x >= 1 and x == int(x))


def _qubit_count(obj: dict, default: int) -> int:
    n = _numbers(obj.get("n", default), "n", ())
    if not _whole(n):
        raise DomainError(f"n must be a positive integer, got {float(n):g}")
    return int(n)


def state_to_dict(psi: states.SymmetricPureState) -> dict:
    return {
        "n": psi.n,
        "basis": "dicke",
        "coeffs": [pair(c) for c in psi.coeffs],
    }


def _state_from_angle_rows(rows) -> states.SymmetricPureState:
    pts = []
    for row in rows if isinstance(rows, list) else [rows]:  # a non-list fails as a row
        row = _numbers(row, "a point row [theta, phi(, multiplicity)]", (-1,))
        if len(row) not in (2, 3):
            raise DomainError("each point row must be [theta, phi] or [theta, phi, multiplicity]")
        theta, phi = row[0], row[1]
        mult = row[2] if len(row) == 3 else 1
        if not _whole(mult):
            raise DomainError("multiplicities must be positive integers")
        pts.extend([majorana.bloch_from_angles(theta, phi)] * int(mult))
    cfg = majorana.config_from_points(np.array(pts))
    return majorana.points_to_state(cfg)


def state_from_dict(obj) -> states.SymmetricPureState:
    """Read a pure-state JSON object (any of the interchange shapes)."""
    if not isinstance(obj, dict):
        raise DomainError("state JSON must be an object")
    if "canonical" in obj and "coeffs" not in obj and "points" not in obj:
        return state_from_dict(obj["canonical"])
    basis = obj.get("basis")
    if basis == "dicke" or ("coeffs" in obj and basis is None):
        if "coeffs" not in obj:
            raise DomainError("dicke-basis state needs a coeffs list")
        coeffs = _numbers(obj["coeffs"], "coeffs", (-1, 2)).view(np.complex128)[:, 0]
        n = _qubit_count(obj, len(coeffs) - 1)
        if len(coeffs) != n + 1:
            raise DomainError(f"expected {n + 1} coefficients, got {len(coeffs)}")
        return states.SymmetricPureState.from_unnormalized(coeffs)
    if basis == "majorana" or "points" in obj:
        return _state_from_angle_rows(obj["points"])
    raise DomainError("unrecognized state format (need dicke coeffs or majorana points)")


def points_to_dict(cfg: majorana.MajoranaConfiguration) -> dict:
    return {"points": [[row[0], row[1], int(row[2])] for row in cfg.as_angle_rows()]}


def density_to_dict(rho: states.DensityMatrix) -> dict:
    return {"n": rho.n, "matrix": matrix_pairs(rho.mat)}


def density_from_dict(obj) -> states.DensityMatrix:
    """Read a density matrix; pure-state objects are accepted and converted."""
    if not isinstance(obj, dict):
        raise DomainError("density JSON must be an object")
    if "matrix" in obj:
        mat = _numbers(obj["matrix"], "matrix", (-1, -1, 2)).view(np.complex128)[..., 0]
        size_n = mat.shape[0].bit_length() - 1  # log2 of the row count when it is a power of two
        n = _qubit_count(obj, size_n)
        # n is compared before it is shifted: 1 << n of a huge n would not fit in memory
        if n != size_n or mat.shape != (1 << n, 1 << n):
            raise DomainError(f"matrix shape {mat.shape} does not match n={n}")
        return states.DensityMatrix(n, mat)
    return states.to_density(state_from_dict(obj))
