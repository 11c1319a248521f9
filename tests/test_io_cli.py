"""JSON serialization stability and the command-line surface."""
import io as stdio
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import symmlu
from symmlu import classify, cli, io, majorana, rotmatch, states, verify
from symmlu.errors import DomainError


def run_cli(argv, monkeypatch, capsys, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", stdio.StringIO(stdin_text))
    code = cli.main(argv)
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_dumps_floats_survive_a_round_trip():
    vals = [1 / 3, math.pi, 1e-17, 2.0, -0.0, 12345.678901234567]
    out = io.dumps({"vals": vals})
    back = json.loads(out)
    assert back["vals"] == vals  # 17 significant digits reproduce doubles


def test_dumps_rejects_non_finite():
    with pytest.raises(DomainError):
        io.dumps({"x": float("nan")})
    with pytest.raises(DomainError):
        io.dumps([float("inf")])


def test_dumps_handles_numpy_scalars_and_nesting():
    out = io.dumps({"a": np.float64(0.5), "b": np.int64(3), "c": [True, None, "s"]})
    assert json.loads(out) == {"a": 0.5, "b": 3, "c": [True, None, "s"]}


def test_state_round_trip_and_determinism():
    rng = np.random.default_rng(61)
    psi = states.random_symmetric(5, rng)
    blob = io.dumps(io.state_to_dict(psi))
    assert blob == io.dumps(io.state_to_dict(psi))  # byte-identical rerun
    back = io.state_from_dict(json.loads(blob))
    assert back.distance(psi) < 1e-12


def test_state_from_majorana_points_dict():
    obj = {
        "n": 3,
        "basis": "majorana",
        "points": [[math.pi / 2, 0.0], [math.pi / 2, 2 * math.pi / 3, 2]],
    }
    psi = io.state_from_dict(obj)
    assert psi.n == 3


def test_state_dict_validation():
    with pytest.raises(DomainError):
        io.state_from_dict({"n": 3, "basis": "dicke", "coeffs": [[1, 0]]})
    with pytest.raises(DomainError):
        io.state_from_dict({"basis": "dicke"})


def test_density_round_trip():
    rng = np.random.default_rng(62)
    rho = states.random_symmetric_mixed(3, rng)
    back = io.density_from_dict(json.loads(io.dumps(io.density_to_dict(rho))))
    assert np.max(np.abs(back.mat - rho.mat)) < 1e-15


def test_density_from_pure_state_dict():
    rho = io.density_from_dict(io.state_to_dict(states.ghz(3)))
    assert rho.n == 3
    assert abs(rho.mat[0, 0] - 0.5) < 1e-12


def test_load_json_reads_files_and_stdin(tmp_path, monkeypatch):
    p = tmp_path / "st.json"
    p.write_text(io.dumps(io.state_to_dict(states.dicke(3, 1))))
    assert io.load_json(str(p))["n"] == 3
    monkeypatch.setattr("sys.stdin", stdio.StringIO('{"n": 2}'))
    assert io.load_json("-") == {"n": 2}


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------


def test_mkstate_dicke_pipes_into_classify(monkeypatch, capsys):
    code, out = run_cli(["mkstate", "dicke", "4", "2"], monkeypatch, capsys)
    assert code == 0
    code, out = run_cli(["classify", "-"], monkeypatch, capsys, stdin_text=out)
    assert code == 0
    rep = json.loads(out)
    assert rep["class"] == "iva"
    assert rep["residual"] <= 1e-9


def test_mkstate_ghz_pipes_into_majorana(monkeypatch, capsys):
    _, state_json = run_cli(["mkstate", "ghz", "3"], monkeypatch, capsys)
    code, out = run_cli(["majorana", "-"], monkeypatch, capsys, stdin_text=state_json)
    assert code == 0
    rows = json.loads(out)["points"]
    assert len(rows) == 3
    phis = sorted(row[1] % (2 * math.pi) for row in rows)
    for theta, _, mult in rows:
        assert abs(theta - math.pi / 2) < 1e-8  # equatorial
        assert mult == 1
    gaps = [phis[1] - phis[0], phis[2] - phis[1]]
    for gap in gaps:
        assert abs(gap - 2 * math.pi / 3) < 1e-8


def test_majorana_csv_and_human_modes(tmp_path, monkeypatch, capsys):
    p = tmp_path / "ghz.json"
    p.write_text(io.dumps(io.state_to_dict(states.ghz(4))))
    code, out = run_cli(["majorana", str(p), "--csv"], monkeypatch, capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,z,multiplicity"
    assert len(lines) == 5
    code, out = run_cli(["majorana", str(p), "--human"], monkeypatch, capsys)
    assert code == 0
    assert "deg" in out


def test_symmetry_command(tmp_path, monkeypatch, capsys):
    p = tmp_path / "ghz.json"
    p.write_text(io.dumps(io.state_to_dict(states.ghz(3))))
    code, out = run_cli(["symmetry", str(p)], monkeypatch, capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["group"] == "Dihedral"
    assert rep["m"] == 3
    assert rep["order"] == 6
    assert len(rep["elements"]) == 6
    # snapped angles are exact rational multiples of pi
    snapped = sorted(e["snapped_angle"] for e in rep["elements"])
    assert snapped[0] == 0.0
    assert any(abs(s - 2 * math.pi / 3) < 1e-15 for s in snapped)


def _degenerate_probe(draws):
    """{draw: (psi, a turned psi)} for the given draws of the degenerate probe.

    default_rng(2026); each draw takes n in [3, 13), at most four parts, the
    multiplicities from parts - 1 sorted cuts of [1, n), normal points, and
    one random_su2 turn, in that order.
    """
    rng = np.random.default_rng(2026)
    out = {}
    for draw in range(max(draws) + 1):
        n = int(rng.integers(3, 13))
        parts = min(int(rng.integers(1, 5)), n)
        cuts = np.sort(rng.choice(np.arange(1, n), parts - 1, replace=False))
        pts = rng.normal(size=(parts, 3))
        g = states.random_su2(rng)
        if draw in draws:
            mults = np.diff(np.concatenate([[0], cuts, [n]]))
            psi = majorana.points_to_state(pts / np.linalg.norm(pts, axis=1, keepdims=True), mults)
            out[draw] = (psi, states.apply_diag_symmetric(g, psi))
    return out


_PROBE_DRAWS = _degenerate_probe({3, 16, 62, 127})


@pytest.mark.parametrize("draw", sorted(_PROBE_DRAWS))
def test_symmetry_prints_the_group_classify_prints(tmp_path, monkeypatch, capsys, draw):
    # symmetry once found the Majorana roots of psi: it printed Trivial for the
    # C_2 of draws 3 and 16 (two threefold, two fourfold points) and failed on
    # one side of draws 62 and 127; classify read the group off the multipole frame
    for side, psi in zip(("psi", "turned"), _PROBE_DRAWS[draw]):
        p = tmp_path / f"{side}.json"
        p.write_text(io.dumps(io.state_to_dict(psi)))
        code, out = run_cli(["classify", str(p)], monkeypatch, capsys)
        assert code == 0
        want = json.loads(out)["group"]
        find_points = majorana.majorana_points

        def multipoles_only(state, *args, **kwargs):
            if state.n == psi.n and states.phase_distance(state.coeffs, psi.coeffs) < 1e-9:
                raise AssertionError("symmetry must not find the Majorana points of the state")
            return find_points(state, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(majorana, "majorana_points", multipoles_only)
            patch.setattr(rotmatch, "symmetry_group", lambda *a, **k: pytest.fail("symmetry_group called"))
            code, out = run_cli(["symmetry", str(p)], monkeypatch, capsys)
        assert code == 0
        got = json.loads(out)
        assert (got["group"], got["m"], got["order"]) == (want["tag"], want["m"], want["order"])
        assert len(got["elements"]) == got["order"]
        assert (want["tag"], want["m"]) == (("Cyclic", 2) if draw in (3, 16) else ("Trivial", None))


@pytest.mark.parametrize(
    "psi, axis",
    [(states.ghz(2), [0.0, 1.0, 0.0]), (states.dicke(2, 1), [0.0, 0.0, 1.0])],
    ids=["ghz2", "dicke21"],
)
def test_symmetry_of_a_balanced_two_qubit_state_is_axial_with_flip(tmp_path, monkeypatch, capsys, psi, axis):
    # classify calls these ambiguous (exit 3); their symmetry group is not.
    # GHZ_2's two Majorana points are +-y, Dicke_2,1's are +-z
    p = tmp_path / "two.json"
    p.write_text(io.dumps(io.state_to_dict(psi)))
    code, out = run_cli(["symmetry", str(p)], monkeypatch, capsys)
    assert code == 0
    got = json.loads(out)
    assert np.max(np.abs(np.array(got["axis"]) - axis)) <= 1e-15
    assert got == {"group": "AxialContinuousFlip", "m": None, "order": None, "axis": got["axis"], "elements": []}
    assert list(got) == ["group", "m", "order", "axis", "elements"]
    code, out = run_cli(["symmetry", str(p), "--human"], monkeypatch, capsys)
    assert code == 0
    head, axis_line = out.splitlines()
    assert head == "group AxialContinuousFlip, order None"
    assert axis_line.startswith("axis [") and axis_line.endswith("]")
    assert [float(v) for v in axis_line[6:-1].split()] == axis
    assert run_cli(["classify", str(p)], monkeypatch, capsys)[0] == 3


def test_symmetry_prints_the_axis_of_a_finite_group_and_null_for_none(tmp_path, monkeypatch, capsys):
    def symmetry(psi):
        p = tmp_path / "state.json"
        p.write_text(io.dumps(io.state_to_dict(psi)))
        return json.loads(run_cli(["symmetry", str(p)], monkeypatch, capsys)[1])

    got = symmetry(states.ghz(3))
    assert (got["group"], got["m"], got["order"]) == ("Dihedral", 3, 6)
    assert np.max(np.abs(np.abs(got["axis"]) - [0.0, 0.0, 1.0])) <= 1e-12
    got = symmetry(states.random_symmetric(4, np.random.default_rng(3)))
    assert (got["group"], got["order"], got["axis"]) == ("Trivial", 1, None)


def test_closed_stdout_is_no_verdict(tmp_path):
    # exit 1 reads as "not equivalent"; a reader that closed the pipe early got no answer at all
    p = tmp_path / "two33.json"
    p.write_text('{"basis": "majorana", "points": [[0.7, 0.2, 3], [2.0, 1.9, 3]]}')
    src = str(pathlib.Path(symmlu.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in (["classify", str(p)], ["symmetry", str(p), "--human"], ["classify", str(tmp_path / "missing.json")]):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "symmlu.cli", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=300
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")


def test_equiv_exit_codes(tmp_path, monkeypatch, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    rng = np.random.default_rng(63)
    psi = states.random_symmetric(4, rng)
    phi = states.apply_diag_symmetric(states.random_su2(rng), psi)
    other = states.random_symmetric(4, rng)
    a.write_text(io.dumps(io.state_to_dict(psi)))
    b.write_text(io.dumps(io.state_to_dict(phi)))
    c.write_text(io.dumps(io.state_to_dict(other)))

    code, out = run_cli(["equiv", str(a), str(a)], monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["equivalent"] is True

    code, out = run_cli(["equiv", str(a), str(b)], monkeypatch, capsys)
    assert code == 0

    code, out = run_cli(["equiv", str(a), str(c)], monkeypatch, capsys)
    assert code == 1
    assert json.loads(out)["equivalent"] is False


def test_equiv_mixed_command(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(64)
    rho = states.random_symmetric_mixed(3, rng)
    g = states.random_su2(rng)
    sigma = states.apply_lu(states.LocalUnitary.uniform(g, 3), rho)
    blurred = states.DensityMatrix(3, 0.95 * rho.mat + 0.05 * np.eye(8) / 8)
    pa = tmp_path / "rho.json"
    pb = tmp_path / "sigma.json"
    pc = tmp_path / "blur.json"
    pa.write_text(io.dumps(io.density_to_dict(rho)))
    pb.write_text(io.dumps(io.density_to_dict(sigma)))
    pc.write_text(io.dumps(io.density_to_dict(blurred)))

    code, out = run_cli(["equiv-mixed", str(pa), str(pb)], monkeypatch, capsys)
    rep = json.loads(out)
    assert code == 0
    assert rep["status"] == "equivalent"
    assert rep["distance"] <= rep["threshold"]
    assert rep["unitaries"]

    code, out = run_cli(["equiv-mixed", str(pa), str(pc)], monkeypatch, capsys)
    rep = json.loads(out)
    assert code == 1
    assert rep["status"] == "inequivalent_spectrum"


def test_equiv_mixed_undecided_has_its_own_exit_code(tmp_path, monkeypatch, capsys):
    # a state and its complex conjugate (the mirror image of its Majorana
    # points): every spectrum agrees, so there is no certificate, and no
    # candidate rotation reaches the threshold
    rho = states.to_density(states.random_symmetric(4, np.random.default_rng(7)))
    pa = tmp_path / "psi.json"
    pb = tmp_path / "mirror.json"
    pa.write_text(io.dumps(io.density_to_dict(rho)))
    pb.write_text(io.dumps(io.density_to_dict(states.DensityMatrix(4, rho.mat.conj()))))
    argv = ["equiv-mixed", str(pa), str(pb)]
    code, out = run_cli(argv, monkeypatch, capsys)
    rep = json.loads(out)
    assert code == cli.EXIT_UNDECIDED == 4
    assert rep["status"] == "undecided"
    assert rep["equivalent"] is False
    assert rep["distance"] > rep["threshold"]


def test_equiv_mixed_names_the_one_swap_that_breaks_invariance(tmp_path, monkeypatch, capsys):
    # tau_a^{(x)3} (x) tau_b^{(x)2} is invariant under the swaps of qubits 0, 1, 2
    # and of 3, 4, but not between 2 and 3: the generator bound fails, and
    # the adjacent-swap scan names that swap
    rng = np.random.default_rng(90)
    tau_a, tau_b = (states.random_symmetric_mixed(1, rng, rank=2).mat for _ in range(2))
    broken = states.DensityMatrix(5, np.kron(np.kron(np.kron(tau_a, tau_a), np.kron(tau_a, tau_b)), tau_b))
    pa, pb = tmp_path / "broken.json", tmp_path / "sym.json"
    pa.write_text(io.dumps(io.density_to_dict(broken)))
    pb.write_text(io.dumps(io.density_to_dict(states.random_symmetric_mixed(5, rng))))
    code, out = run_cli(["equiv-mixed", str(pa), str(pb)], monkeypatch, capsys)
    assert code == 3
    assert "first state is not permutation invariant: swapping qubits 2 and 3 moves it by" in json.loads(out)["error"]


def test_equiv_mixed_decides_one_qubit_pairs(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(210)
    rho = states.random_symmetric_mixed(1, rng, rank=2)
    sigma = states.apply_lu(states.LocalUnitary.uniform(states.random_su2(rng), 1), rho)
    other = states.random_symmetric_mixed(1, rng, rank=2)
    paths = []
    for name, state in (("rho.json", rho), ("sigma.json", sigma), ("other.json", other)):
        paths.append(tmp_path / name)
        paths[-1].write_text(io.dumps(io.density_to_dict(state)))

    code, out = run_cli(["equiv-mixed", str(paths[0]), str(paths[1])], monkeypatch, capsys)
    rep = json.loads(out)
    assert code == 0
    assert rep["status"] == "equivalent"
    (g,) = [np.array([[complex(*v) for v in row] for row in m]) for m in rep["unitaries"]]
    moved = states.apply_lu(states.LocalUnitary.uniform(g, 1), rho)
    assert np.linalg.norm(moved.mat - sigma.mat) <= rep["threshold"]

    code, out = run_cli(["equiv-mixed", str(paths[0]), str(paths[2])], monkeypatch, capsys)
    rep = json.loads(out)
    assert code == 1
    assert rep["status"] == "inequivalent_spectrum"


def test_equiv_mixed_two_qubit_note(tmp_path, monkeypatch, capsys):
    rho = states.to_density(states.ghz(2))
    p = tmp_path / "bell.json"
    p.write_text(io.dumps(io.density_to_dict(rho)))
    code, out = run_cli(["equiv-mixed", str(p), str(p)], monkeypatch, capsys)
    rep = json.loads(out)
    assert code == 0
    assert "heuristic" in rep["note"]


def test_equiv_mixed_two_qubit_spectrum_is_a_certified_no(tmp_path, monkeypatch, capsys):
    # the same global spectrum, but qubit 0 holds (0.8, 0.2) in one and (0.6, 0.4) in the other
    a, b = np.diag([0.8, 0.2]), np.diag([0.6, 0.4])
    paths = []
    for name, mat in (("ab.json", np.kron(a, b)), ("ba.json", np.kron(b, a))):
        paths.append(tmp_path / name)
        paths[-1].write_text(io.dumps(io.density_to_dict(states.DensityMatrix(2, mat.astype(complex)))))
    code, out = run_cli(["equiv-mixed", *map(str, paths)], monkeypatch, capsys)
    rep = json.loads(out)
    assert code == 1
    assert rep["status"] == "inequivalent_spectrum"
    assert rep["detail"] == "1-qubit reduced spectra differ"


def test_verify_command(tmp_path, monkeypatch, capsys):
    p = tmp_path / "ghz3.json"
    p.write_text(io.dumps(io.state_to_dict(states.ghz(3))))
    code, out = run_cli(
        ["verify", str(p), "--class-check", "--search-grid", "8"],
        monkeypatch,
        capsys,
    )
    rep = json.loads(out)
    assert code == 0
    assert rep["witness_count"] >= 1
    assert rep["class"] == "iia"
    assert rep["anomalies"] == []
    assert rep["ok"] is True
    assert rep["spectra"]["global_spectrum"][0] == pytest.approx(1.0, abs=1e-9)


def test_verify_class_check_samples_once(tmp_path, monkeypatch, capsys):
    calls = []
    sample = verify.sample_stabilizer

    def counted(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(verify, "sample_stabilizer", counted)
    p = tmp_path / "ghz3.json"
    p.write_text(io.dumps(io.state_to_dict(states.ghz(3))))
    code, out = run_cli(
        ["verify", str(p), "--class-check", "--search-grid", "4"],
        monkeypatch,
        capsys,
    )
    rep = json.loads(out)
    assert code == 0 and rep["ok"] is True
    assert len(calls) == 1  # the class check reuses the witnesses it reports


def test_verify_class_check_exits_1_on_anomalies(tmp_path, monkeypatch, capsys):
    # the tetrahedron's witnesses checked against a trivial class: every one but the identity is an anomaly
    corners = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    p = tmp_path / "tetrahedron.json"
    p.write_text(io.dumps(io.state_to_dict(majorana.points_to_state(corners))))
    trivial = classify.classify_state(states.random_symmetric(4, np.random.default_rng(1)))
    assert str(trivial.sclass) == "finite(Trivial)"
    monkeypatch.setattr(classify, "classify_state", lambda psi, tol=None: trivial)
    code, out = run_cli(["verify", str(p), "--class-check"], monkeypatch, capsys)
    rep = json.loads(out)
    assert code == 1 and rep["ok"] is False
    assert (rep["witness_count"], len(rep["anomalies"])) == (12, 11)
    code, out = run_cli(["verify", str(p), "--class-check", "--human"], monkeypatch, capsys)
    assert code == 1 and "ANOMALIES" in out


def test_mkstate_random_is_seed_deterministic(monkeypatch, capsys):
    _, first = run_cli(["mkstate", "random", "4", "--seed", "11"], monkeypatch, capsys)
    _, second = run_cli(["mkstate", "random", "4", "--seed", "11"], monkeypatch, capsys)
    assert first == second
    _, third = run_cli(["mkstate", "random", "4", "--seed", "12"], monkeypatch, capsys)
    assert first != third


def test_mkstate_from_points_file(tmp_path, monkeypatch, capsys):
    p = tmp_path / "pts.json"
    p.write_text(
        io.dumps({"points": [[math.pi / 2, 0.0, 1], [0.0, 0.0, 2]]})
    )
    code, out = run_cli(["mkstate", "from-points", str(p)], monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_usage_errors_exit_2(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["majorana"])  # missing path
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "x.json", "--csv"])  # csv not offered here
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2


def test_domain_errors_exit_3_with_json(tmp_path, monkeypatch, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 3, "basis": "dicke", "coeffs": [[1, 0]]}')
    code, out = run_cli(["classify", str(p)], monkeypatch, capsys)
    assert code == 3
    assert "error" in json.loads(out)


def test_unparseable_input_exits_3_not_traceback(tmp_path, monkeypatch, capsys):
    code, out = run_cli(["classify", "-"], monkeypatch, capsys, stdin_text="{not json")
    assert code == 3
    assert "invalid JSON" in json.loads(out)["error"]
    code, out = run_cli(["classify", str(tmp_path / "absent.json")], monkeypatch, capsys)
    assert code == 3
    assert "cannot read" in json.loads(out)["error"]


def test_reports_are_byte_identical_across_reruns(tmp_path, monkeypatch, capsys):
    p = tmp_path / "st.json"
    p.write_text(io.dumps(io.state_to_dict(states.ghz(5, 0.8, 0.6))))
    _, first = run_cli(["classify", str(p)], monkeypatch, capsys)
    _, second = run_cli(["classify", str(p)], monkeypatch, capsys)
    assert first == second


def _ghz3_file(tmp_path):
    p = tmp_path / "g3.json"
    p.write_text(io.dumps(io.state_to_dict(states.ghz(3))))
    return str(p)


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("cmd", ["majorana", "symmetry", "classify", "equiv", "equiv-mixed"])
def test_non_positive_tol_is_a_usage_error(tmp_path, monkeypatch, capsys, cmd, tol):
    g3 = _ghz3_file(tmp_path)
    paths = [g3, g3] if cmd.startswith("equiv") else [g3]
    flag = "--threshold" if cmd == "equiv-mixed" else "--tol"
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd, *paths, flag, tol])
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3, "basis": "dicke", "coeffs": [[NaN, 0], [0, 0], [0, 0], [1, 0]]}',
        '{"n": 3, "basis": "dicke", "coeffs": [[1, 0], [0, Infinity], [0, 0], [1, 0]]}',
        '{"basis": "majorana", "points": [[NaN, 0, 1], [1.0, 0.5, 1], [2.0, 1.0, 1]]}',
    ],
    ids=["nan-coeff", "inf-coeff", "nan-angle"],
)
@pytest.mark.parametrize("cmd", ["classify", "majorana", "equiv"])
def test_non_finite_state_file_is_a_domain_error(tmp_path, monkeypatch, capsys, cmd, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)  # Python's json reads NaN and Infinity
    paths = [str(bad), _ghz3_file(tmp_path)] if cmd == "equiv" else [str(bad)]
    code, out = run_cli([cmd, *paths], monkeypatch, capsys)
    assert code == 3
    assert "finite" in json.loads(out)["error"]


def test_positive_tol_is_still_accepted(tmp_path, monkeypatch, capsys):
    g3 = _ghz3_file(tmp_path)
    code, out = run_cli(["equiv", g3, g3, "--tol", "1e-6"], monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["equivalent"] is True


@pytest.mark.parametrize("cmd", ["mkstate"])
def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd, "random", "4", "--seed", "-1"])
    assert exc.value.code == 2
    assert "must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--grid", "--restarts", "--seed"])
def test_equiv_mixed_has_no_search_flags(tmp_path, monkeypatch, capsys, flag):
    g3 = _ghz3_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["equiv-mixed", g3, g3, flag, "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"matrix": []}',
        '{"n": -1, "matrix": [[[1, 0]]]}',
        '{"n": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}',
        '{"n": 1, "coeffs": [["a", 0], [1, 0]]}',
        '{"n": 1, "coeffs": [[1], [0, 0]]}',
        '{"n": 1, "coeffs": 5}',
        '{"points": [["x", 0]]}',
    ],
    ids=["empty-matrix", "negative-n", "ragged-rows", "string-entry", "short-pair", "scalar-coeffs", "string-angle"],
)
@pytest.mark.parametrize("cmd", ["classify", "equiv-mixed"])
def test_malformed_json_is_a_domain_error(tmp_path, monkeypatch, capsys, cmd, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    paths = [str(bad), str(bad)] if cmd == "equiv-mixed" else [str(bad)]
    code, out = run_cli([cmd, *paths], monkeypatch, capsys)
    assert code == 3
    assert "error" in json.loads(out)


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 5, "basis": "majorana", "points": [[0, 0], [1, 1]]}',
        '{"n": 0.5, "basis": "majorana", "points": [[0, 0], [1, 1]]}',
        '{"n": 2, "points": [[0, 0, 2], [1, 1]]}',
        '{"n": 3, "basis": "majorana"}',
    ],
    ids=["too-many", "fractional", "multiplicity", "no-points"],
)
def test_majorana_file_whose_n_is_not_its_point_count_exits_3(tmp_path, monkeypatch, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out = run_cli(["classify", str(bad)], monkeypatch, capsys)
    assert code == 3
    assert "error" in json.loads(out)


def test_majorana_file_with_a_matching_n_loads():
    obj = {"n": 3, "basis": "majorana", "points": [[0, 0], [1, 1, 2]]}
    assert io.state_from_dict(obj).n == 3
    del obj["n"]
    assert io.state_from_dict(obj).n == 3


@pytest.mark.parametrize("grid", ["-3", "0", "3"])
def test_verify_rejects_a_degenerate_search_grid_with_exit_3(tmp_path, monkeypatch, capsys, grid):
    code, out = run_cli(["verify", _ghz3_file(tmp_path), "--search-grid", grid], monkeypatch, capsys)
    assert code == 3
    assert "at least 4 points" in json.loads(out)["error"]


def test_huge_qubit_count_of_a_density_file_is_a_domain_error(tmp_path, monkeypatch, capsys):
    # n is checked against the matrix size before 2^n is formed
    bad = tmp_path / "huge.json"
    bad.write_text('{"n": 1e20, "matrix": [[[1, 0]]]}')
    code, out = run_cli(["equiv-mixed", str(bad), str(bad)], monkeypatch, capsys)
    assert code == 3
    assert "does not match n=" in json.loads(out)["error"]
