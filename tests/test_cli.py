import io
import json

import numpy as np
import pytest

from schwarzian import FiberSolveReport, Poly
from schwarzian.cli import EXIT_DEGENERATE, EXIT_OK, EXIT_PARSE, EXIT_SOLVER, main


def run_cli(monkeypatch, capsys, argv, payload):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


def test_schwarzian_subcommand(monkeypatch, capsys):
    payload = {"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0], [-2, 0], [1, 0]]}
    code, out, _ = run_cli(monkeypatch, capsys, ["schwarzian"], payload)
    assert code == EXIT_OK
    num = out["schwarzian"]["num"]
    den = out["schwarzian"]["den"]
    assert np.allclose([complex(*c) for c in num], [-1.5])
    assert np.allclose([complex(*c) for c in den], [0, 0, 1, -2, 1])
    assert len(out["poles"]) == 2
    assert {p["local_degree"] for p in out["poles"]} == {2}
    assert out["infinity"]["kind"] == "Regular"


def test_check_local_pass(monkeypatch, capsys):
    payload = {
        "phi": {"num": [[-1.5, 0]], "den": [[0, 0], [0, 0], [1, 0], [-2, 0], [1, 0]]},
        "mode": "local",
        "point": [0, 0],
    }
    code, out, _ = run_cli(monkeypatch, capsys, ["check"], payload)
    assert code == EXIT_OK
    assert out["local_degree"] == 2
    assert out["primitive_exists"] is True
    assert out["holonomy"] == "Identity"
    assert abs(complex(*out["determinant"])) <= 1e-9


def test_check_rational_pass_and_fail(monkeypatch, capsys):
    phi1 = {"num": [[-1.5, 0]], "den": [[0, 0], [0, 0], [1, 0], [-2, 0], [1, 0]]}
    code, out, _ = run_cli(
        monkeypatch, capsys, ["check"], {"phi": phi1, "mode": "rational"}
    )
    assert code == EXIT_OK
    assert out["overall"] is True
    phi2 = {
        "num": [[-1.5, 0], [4, 0], [-4, 0]],
        "den": [[0, 0], [0, 0], [1, 0], [-2, 0], [1, 0]],
    }
    code, out, _ = run_cli(
        monkeypatch, capsys, ["check"], {"phi": phi2, "mode": "rational"}
    )
    assert code == EXIT_OK
    assert out["overall"] is False
    code, out, _ = run_cli(
        monkeypatch, capsys, ["check"], {"phi": phi2, "mode": "polynomial"}
    )
    assert code == EXIT_OK
    assert out["overall"] is True


def test_solve_subcommand(monkeypatch, capsys):
    pts = [[1, 0], [-0.5, 0.5], [0.3, -1.0], [-1.1, -0.2]]
    code, out, _ = run_cli(
        monkeypatch, capsys, ["solve", "--seed", "3", "--attempts", "48"],
        {"points": pts},
    )
    assert code == EXIT_OK
    assert 1 <= len(out["maps"]) <= 2
    assert out["expected_max"] == 2
    assert out["complete"] is (len(out["solutions"]) == 2)
    assert all(r <= 1e-9 for r in out["residuals"])
    assert out["tetrahedron"] is False


def test_solve_without_solutions_exits_4(monkeypatch, capsys):
    def no_solutions(points, attempts=None, seed=42):
        return [], FiberSolveReport(target=Poly.from_roots(points), warning=True)

    monkeypatch.setattr("schwarzian.cli.reconstruct_rational", no_solutions)
    pts = [[1, 0], [-0.5, 0.5], [0.3, -1.0], [-1.1, -0.2]]
    code, out, err = run_cli(monkeypatch, capsys, ["solve"], {"points": pts})
    assert code == EXIT_SOLVER
    assert out is None
    assert "no Newton restart converged" in err


def test_cubic_subcommand(monkeypatch, capsys):
    payload = {"quartic": [[-1, 0], [0, 0], [0, 0], [0, 0], [1, 0]]}
    code, out, _ = run_cli(monkeypatch, capsys, ["cubic"], payload)
    assert code == EXIT_OK
    assert len(out["fiber_branches"]) == 2
    assert len(out["orbit"]) == 6
    assert abs(complex(*out["criticality_discriminant"]) - (-12)) <= 1e-9
    assert out["tetrahedron"] is False


def test_cubic_tetrahedral_points(monkeypatch, capsys):
    j = complex(-0.5, np.sqrt(3) / 2)
    pts = [[1, 0], [j.real, j.imag], [j.real, -j.imag], [0, 0]]
    code, out, _ = run_cli(monkeypatch, capsys, ["cubic"], {"points": pts})
    assert code == EXIT_OK
    assert out["tetrahedron"] is True
    assert len(out["fiber_branches"]) == 1


def test_reconstruct_local_subcommand(monkeypatch, capsys):
    payload = {
        "phi": {"num": [[-1.5, 0]], "den": [[0, 0], [0, 0], [1, 0], [-2, 0], [1, 0]]},
        "point": [0, 0],
    }
    code, out, _ = run_cli(
        monkeypatch, capsys, ["reconstruct-local", "--order", "8"], payload
    )
    assert code == EXIT_OK
    coeffs = [complex(*c) for c in out["coeffs"]]
    assert abs(coeffs[2] - 0.5) <= 1e-10


def test_parse_errors(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("this is not json"))
    assert main(["schwarzian"]) == EXIT_PARSE
    capsys.readouterr()
    code, _, err = run_cli(monkeypatch, capsys, ["schwarzian"], {"num": [[1, 0]]})
    assert code == EXIT_PARSE
    assert "den" in err
    code, _, _ = run_cli(
        monkeypatch, capsys, ["check"],
        {"phi": {"num": [[1, 0]], "den": [[1, 0]]}, "mode": "nonsense"},
    )
    assert code == EXIT_PARSE
    code, _, _ = run_cli(
        monkeypatch, capsys, ["schwarzian"], {"num": [[1, 0]], "den": [[1, 0]], "x": 1}
    )
    assert code == EXIT_PARSE


def test_degenerate_input_exit_code(monkeypatch, capsys):
    # constant map has no Schwarzian
    code, _, err = run_cli(
        monkeypatch, capsys, ["schwarzian"], {"num": [[3, 0]], "den": [[1, 0]]}
    )
    assert code == EXIT_DEGENERATE
    code, _, _ = run_cli(
        monkeypatch, capsys, ["solve"], {"points": [[0, 0], [0, 0]]}
    )
    assert code == EXIT_DEGENERATE
    code, out, err = run_cli(
        monkeypatch, capsys, ["solve"], {"points": [[0, 0], [1, 0], [2, 0]]}
    )
    assert code == EXIT_DEGENERATE
    assert out is None
    assert "even number" in err


def test_flag_validation(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("{}"))
    assert main(["check", "--tol", "-1"]) == EXIT_PARSE


def test_input_from_file(monkeypatch, capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(
        json.dumps({"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]})
    )
    code = main(["schwarzian", "--in", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["infinity"]["kind"] == "DoublePole"
