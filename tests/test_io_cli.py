"""JSON serialization stability and the command-line surface."""
import io as stdio
import json
import math

import numpy as np
import pytest

from symmlu import cli, io, states, verify
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


def test_equiv_mixed_two_qubit_note(tmp_path, monkeypatch, capsys):
    rho = states.to_density(states.ghz(2))
    p = tmp_path / "bell.json"
    p.write_text(io.dumps(io.density_to_dict(rho)))
    code, out = run_cli(["equiv-mixed", str(p), str(p)], monkeypatch, capsys)
    rep = json.loads(out)
    assert code == 0
    assert "heuristic" in rep["note"]


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
