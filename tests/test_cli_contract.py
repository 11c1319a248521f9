"""The symmlu command line, pinned row by row on numpy alone.

Each row of ROWS names an input builder, the argv of one symmlu command, its
expected exit code and the fields its JSON answer must hold.  The command
runs in a fresh interpreter whose import system refuses scipy (BOOTSTRAP),
so the table checks on every machine, scipy installed or not, that every
subcommand answers with numpy alone.  A row's id names its command.  Run the
table alone with

    PYTHONPATH=src python -m pytest -q tests/test_cli_contract.py
"""
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import symmlu
from symmlu import io, majorana, states

REFUSE_SCIPY = "import sys; sys.modules['scipy'] = None"  # from here on, import scipy raises ImportError
BOOTSTRAP = REFUSE_SCIPY + "; import runpy; runpy.run_module('symmlu.cli', run_name='__main__')"

_SRC = str(Path(symmlu.__file__).resolve().parents[1])
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
_CORNERS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)


def _run(cwd, argv, program=BOOTSTRAP) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", program, *argv], cwd=cwd, env=_ENV, capture_output=True, text=True, timeout=300
    )


def _write(path: Path, obj) -> None:
    to_dict = io.state_to_dict if isinstance(obj, states.SymmetricPureState) else io.density_to_dict
    path.write_text(io.dumps(to_dict(obj)))


def _no_inputs(root: Path) -> None:
    pass


def _pinned_inputs(root: Path) -> None:
    """The pinned commands' inputs, drawn in one order from default_rng(1), then (5) and (111)."""
    rng = np.random.default_rng(1)
    ghz = states.ghz(3)
    _write(root / "ghz.json", ghz)
    _write(root / "ghz_turned.json", states.apply_diag_symmetric(states.random_su2(rng), ghz))
    rho3 = states.random_symmetric_mixed(3, rng)
    _write(root / "rho3.json", rho3)
    _write(root / "sigma3.json", states.apply_lu(states.LocalUnitary.uniform(states.random_su2(rng), 3), rho3))
    rho2 = states.random_symmetric_mixed(2, rng, rank=2)
    _write(root / "rho2.json", rho2)
    u2 = states.LocalUnitary((states.random_su2(rng), states.random_su2(rng)))
    _write(root / "sigma2.json", states.apply_lu(u2, rho2))
    points = [list(majorana.angles_from_bloch(v)) for v in _CORNERS]
    (root / "tetrahedron.json").write_text(io.dumps({"n": 4, "basis": "majorana", "points": points}))
    turned = states.apply_diag_symmetric(states.random_su2(rng), majorana.points_to_state(_CORNERS))
    _write(root / "tetrahedron_turned.json", turned)
    octahedron = [list(majorana.angles_from_bloch(v)) for v in np.vstack([np.eye(3), -np.eye(3)])]
    (root / "octahedron.json").write_text(io.dumps({"n": 6, "basis": "majorana", "points": octahedron}))
    rho1 = states.random_symmetric_mixed(1, rng, rank=2)
    _write(root / "rho1.json", rho1)
    _write(root / "sigma1.json", states.apply_lu(states.LocalUnitary.uniform(states.random_su2(rng), 1), rho1))
    _write(root / "rank3.json", states.random_symmetric_mixed(4, rng, rank=3))
    rank2 = states.random_symmetric_mixed(4, rng, rank=2)
    _write(root / "rank2.json", states.apply_lu(states.LocalUnitary.uniform(states.random_su2(rng), 4), rank2))
    edge = np.random.default_rng(5)
    noise = edge.normal(size=5) + 1j * edge.normal(size=5)
    coeffs = majorana.points_to_state(_CORNERS).coeffs + 3e-9 * noise
    _write(root / "edge.json", states.SymmetricPureState.from_unnormalized(coeffs))
    (root / "two33.json").write_text('{"basis": "majorana", "points": [[0.7, 0.2, 3], [2.0, 1.9, 3]]}')
    bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)
    tied = states.DensityMatrix(2, ((bell.T * [0.4, 0.4, 0.1, 0.1]) @ bell).astype(complex))
    _write(root / "bell_tied.json", tied)
    turns = np.random.default_rng(111)
    u_tied = states.LocalUnitary((states.random_su2(turns), states.random_su2(turns)))
    _write(root / "bell_tied_turned.json", states.apply_lu(u_tied, tied))
    for k in (2, 1):
        out = _run(root, ["mkstate", "dicke", "4", str(k)])
        assert out.returncode == 0, out.stderr
        (root / f"dicke4{k}.json").write_text(out.stdout)


def _mirror_inputs(root: Path) -> None:
    """A rank-2 n = 4 state and its complex conjugate: every spectrum agrees, and no rotation maps one to the other."""
    rho = states.random_symmetric_mixed(4, np.random.default_rng(11), 2)
    _write(root / "mirror_rho.json", rho)
    _write(root / "mirror_conj.json", states.DensityMatrix(4, rho.mat.conj()))


class Row(NamedTuple):
    build: Callable[[Path], None]
    argv: tuple
    code: int
    fields: dict | None = None  # None: stdout is not JSON
    stderr: str = ""  # a line stderr must contain
    program: str = BOOTSTRAP


def _row(name, build, argv, code, **kw):
    return pytest.param(Row(build, tuple(argv.split()), code, **kw), id=name)


ROWS = [
    _row("classify-ghz", _pinned_inputs, "classify ghz.json", 0),
    # classify's finite branch on a non-axial frame
    _row("classify-tetrahedron", _pinned_inputs, "classify tetrahedron.json", 0),
    # the class-iv read on an even-rank axial frame
    _row("classify-dicke42", _pinned_inputs, "classify dicke42.json", 0),
    # the tetrahedron 3e-9 off in its Dicke coefficients
    _row("classify-edge", _pinned_inputs, "classify edge.json", 0),
    # equiv matches constellations
    _row("equiv-tetrahedron", _pinned_inputs, "equiv tetrahedron.json tetrahedron_turned.json", 0),
    _row("equiv-ghz", _pinned_inputs, "equiv ghz.json ghz_turned.json", 0),
    # a turned rank-3 pair at n = 3
    _row("equiv-mixed-n3", _pinned_inputs, "equiv-mixed rho3.json sigma3.json", 0),
    # the n = 2 two-factor search
    _row("equiv-mixed-n2", _pinned_inputs, "equiv-mixed rho2.json sigma2.json", 0),
    # a one-qubit pair
    _row("equiv-mixed-n1", _pinned_inputs, "equiv-mixed rho1.json sigma1.json", 0),
    # rank 3 against rank 2 at n = 4, certified by the block spectra
    _row(
        "equiv-mixed-spectra", _pinned_inputs, "equiv-mixed rank3.json rank2.json", 1,
        fields={"status": "inequivalent_spectrum", "detail": "global eigenvalue multisets differ"},
    ),
    # a tied Bell-diagonal pair: the two-factor search refines along a flat family, where undamped Gauss-Newton is singular
    _row("equiv-mixed-bell-tied", _pinned_inputs, "equiv-mixed bell_tied.json bell_tied_turned.json", 0),
    _row("verify-ghz", _pinned_inputs, "verify ghz.json --class-check", 0, fields={"ok": True}),
    # stabilizer sampling refines along a flat family, where undamped Gauss-Newton is singular
    _row("verify-dicke41", _pinned_inputs, "verify dicke41.json --class-check", 0, fields={"ok": True}),
    # the stacked witnesses are the 12 rotations
    _row(
        "verify-tetrahedron", _pinned_inputs, "verify tetrahedron.json --class-check", 0,
        fields={"witness_count": 12, "ok": True},
    ),
    # an n = 6 self-scan whose entries below the cutoff are scored again inside their chunk of pairs:
    # a finite group's count does not follow roundoff
    _row(
        "verify-octahedron", _pinned_inputs, "verify octahedron.json --class-check", 0,
        fields={"witness_count": 24, "ok": True},
    ),
    # the continuous stabilizer puts a circle of lattice rows at D = 0, below the cutoff where rows are scored again
    _row("verify-dicke42", _pinned_inputs, "verify dicke42.json --class-check", 0, fields={"ok": True}),
    _row("symmetry-ghz", _pinned_inputs, "symmetry ghz.json", 0),
    # the C_2 of two threefold points, which root finding missed
    _row("symmetry-two33", _pinned_inputs, "symmetry two33.json", 0, fields={"group": "Cyclic", "m": 2}),
    # self-matches that fix the state to tol need not be closed; the group they generate is named
    _row("symmetry-edge", _pinned_inputs, "symmetry edge.json", 0),
    # closed self-matches: the group is named from one product table per generator
    _row(
        "symmetry-tetrahedron", _pinned_inputs, "symmetry tetrahedron.json", 0,
        fields={"group": "Tetrahedral", "order": 12},
    ),
    _row(
        "symmetry-octahedron", _pinned_inputs, "symmetry octahedron.json", 0,
        fields={"group": "Octahedral", "order": 24},
    ),
    _row("majorana-ghz", _pinned_inputs, "majorana ghz.json", 0),
    # exit 1 of equiv: no candidate rotation of the multipole frames carries one state onto the other
    _row("equiv-not", _pinned_inputs, "equiv tetrahedron.json dicke42.json", 1, fields={"equivalent": False}),
    # exit 2: a usage error, reported by argparse on stderr
    _row("usage-error", _no_inputs, "classify", 2, stderr="the following arguments are required: path"),
    # exit 3: a domain error, as {"error": ...}
    _row(
        "domain-error", _no_inputs, "classify missing.json", 3,
        fields={"error": "cannot read missing.json: No such file or directory"},
    ),
    # exit 4: a mirror pair passes every spectrum, and its best candidate lies 0.216 off
    _row(
        "equiv-mixed-undecided", _mirror_inputs, "equiv-mixed mirror_rho.json mirror_conj.json", 4,
        fields={"status": "undecided", "equivalent": False},
    ),
    # the bootstrap's refusal, not a missing install, is what stops import scipy
    _row(
        "bootstrap-refuses-scipy", _no_inputs, "", 1,
        stderr="import of scipy halted; None in sys.modules", program=REFUSE_SCIPY + "; import scipy",
    ),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory, and a function that runs a builder into it once."""
    root = tmp_path_factory.mktemp("cli_contract")
    built = set()

    def build(builder):
        if builder not in built:
            builder(root)
            built.add(builder)
        return root

    return build


@pytest.mark.parametrize("row", ROWS)
def test_symmlu(row, inputs):
    out = _run(inputs(row.build), row.argv, row.program)
    assert out.returncode == row.code, out.stdout + out.stderr
    assert row.stderr in out.stderr
    if row.fields is not None:
        answer = json.loads(out.stdout)
        assert {key: answer.get(key) for key in row.fields} == row.fields
