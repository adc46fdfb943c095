import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from schwarzian import FiberSolveReport, Poly, RationalMap, merom_generator, y_polynomial
from schwarzian.cli import EXIT_DEGENERATE, EXIT_OK, EXIT_PARSE, EXIT_SOLVER, main
from schwarzian.jsonio import encode_rational

from conftest import normalized_wronskian, tetrahedral_images


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


def test_local_verdicts_agree(monkeypatch, capsys):
    # germs with a_d = Y_d(a_1..a_{d-1}) + t straddle the obstruction
    # threshold; check's primitive_exists and holonomy and reconstruct-local
    # must give one verdict on each
    rng = np.random.default_rng(20261017)
    verdicts = set()
    for d in range(2, 6):
        for t in (1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5):
            a = list(rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1))
            a.append(y_polynomial(d, a) + t)
            phi = RationalMap(Poly([(1 - d * d) / 2, *a]), Poly([0, 0, 1]))
            body = {"phi": encode_rational(phi), "point": [0, 0]}
            code, out, _ = run_cli(monkeypatch, capsys, ["check"], dict(body, mode="local"))
            assert code == EXIT_OK and out["local_degree"] == d
            code, _, _ = run_cli(monkeypatch, capsys, ["reconstruct-local"], body)
            assert code in (EXIT_OK, EXIT_DEGENERATE)
            verdict = out["primitive_exists"]
            assert (out["holonomy"] == "Identity") == verdict
            assert (code == EXIT_OK) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_check_local_decides_high_degree(monkeypatch, capsys):
    # check expands a pole of local degree d to a_1..a_d, however large d is;
    # a random tail is obstructed and a_33 = Y_33(a_1..a_32) is not
    d = 33
    rng = np.random.default_rng(33)
    a = list(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    for tail, want in ((a, False), (a[:-1] + [y_polynomial(d, a[:-1])], True)):
        phi = RationalMap(Poly([(1 - d * d) / 2, *tail]), Poly([0, 0, 1]))
        body = {"phi": encode_rational(phi), "point": [0, 0]}
        code, out, _ = run_cli(monkeypatch, capsys, ["check"], dict(body, mode="local"))
        assert code == EXIT_OK
        json.dumps(out, allow_nan=False)
        assert out["local_degree"] == d
        assert out["primitive_exists"] is want
        assert (out["holonomy"] == "Identity") is want
        code, _, _ = run_cli(monkeypatch, capsys, ["reconstruct-local", "--order", "34"], body)
        assert code == (EXIT_OK if want else EXIT_DEGENERATE)


@pytest.mark.parametrize("d, scale, want", [(92, 1e-3, EXIT_OK), (93, 1e-3, EXIT_DEGENERATE),
                                            (200, 1.0, EXIT_DEGENERATE),
                                            (100_000, 0.0, EXIT_DEGENERATE)])
def test_check_local_degree_within_double_range(monkeypatch, capsys, d, scale, want):
    # The determinant's slope in a_d, prod k_j = 2^(d-1) ((d-1)!)^2, is a
    # finite double up to d = 92; beyond it check exits 3 before expanding
    rng = np.random.default_rng(d)
    tail = scale * (rng.standard_normal(min(d, 200)) + 1j * rng.standard_normal(min(d, 200)))
    phi = RationalMap(Poly([(1 - d * d) / 2, *tail]), Poly([0, 0, 1]))
    payload = {"phi": encode_rational(phi), "point": [0, 0], "mode": "local"}
    code, out, _ = run_cli(monkeypatch, capsys, ["check"], payload)
    assert code == want
    if want == EXIT_OK:
        assert out["local_degree"] == d
        json.dumps(out, allow_nan=False)


def test_result_beyond_double_range_exits_3(monkeypatch, capsys):
    # At d = 92 the determinant is about prod k_j a_d = -4.5e307 a_d, so
    # a_92 = 1e3 puts it beyond double range, as 1e200/z does merom's 2x2
    # determinant: check exits 3 instead of printing a non-JSON Infinity or NaN
    d = 92
    rng = np.random.default_rng(d)
    tail = [*(rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)), 1e3]
    phi = RationalMap(Poly([(1 - d * d) / 2, *tail]), Poly([0, 0, 1]))
    merom = {"num": [[1e200, 0]], "den": [[0, 0], [1, 0]]}
    for payload in ({"phi": encode_rational(phi), "point": [0, 0], "mode": "local"},
                    {"phi": merom, "mode": "merom"}):
        code, out, err = run_cli(monkeypatch, capsys, ["check"], payload)
        assert code == EXIT_DEGENERATE and out is None
        assert "double range" in err


def test_check_merom_pass_and_one_shifted_pole(monkeypatch, capsys):
    pts = [0.0, 1.0, -1.0 + 0.5j]
    psi = merom_generator(pts, [0.7, -0.3j, 1.2 + 0.4j], Poly.zero())
    payload = {"phi": encode_rational(psi), "mode": "merom"}
    code, out, _ = run_cli(monkeypatch, capsys, ["check"], payload)
    assert code == EXIT_OK
    assert out["overall"] is True
    assert [e["pass"] for e in out["equations"]] == [True] * 3
    # + 1e-3 * e_1(z), the Lagrange basis polynomial at pts[1], shifts a_2 at
    # pts[1] alone: a_2 at the other poles is untouched, and a_1 everywhere
    e1 = Poly.from_roots([pts[0], pts[2]]) * (1.0 / ((pts[1] - pts[0]) * (pts[1] - pts[2])))
    shifted = RationalMap(psi.num + 1e-3 * (e1 * psi.den), psi.den)
    payload = {"phi": encode_rational(shifted), "mode": "merom"}
    code, out, _ = run_cli(monkeypatch, capsys, ["check"], payload)
    assert code == EXIT_OK
    assert out["overall"] is False
    assert len(out["equations"]) == 3
    for e in out["equations"]:
        pole = complex(*json.loads(e["name"].removeprefix("c2@")))
        assert e["pass"] is (abs(pole - pts[1]) > 1e-6)


def test_check_rational_pass_and_fail(monkeypatch, capsys):
    # The residue systems read only the poles and a_1; "poles" also gates
    # local degree 2 and, for polynomial, phi's own A_i.  Over the double
    # poles 0 and 1: S of z^2/(z-1)^2 (phi1), S of the cubic with critical
    # points 0 and 1 (phi2), leading +1 at both poles, and leading -1 at 0.
    den = [[0, 0], [0, 0], [1, 0], [-2, 0], [1, 0]]
    phi1 = {"num": [[-1.5, 0]], "den": den}
    phi2 = {"num": [[-1.5, 0], [4, 0], [-4, 0]], "den": den}
    plus_one = {"num": [[1, 0]], "den": den}
    minus_one_at_0 = {"num": [[-1, 0], [-1, 0], [0.5, 0]], "den": den}
    for phi, mode, want in ((phi1, "rational", True), (phi1, "polynomial", False),
                            (phi2, "rational", False), (phi2, "polynomial", True),
                            (plus_one, "polynomial", False),
                            (minus_one_at_0, "rational", False)):
        code, out, _ = run_cli(monkeypatch, capsys, ["check"], {"phi": phi, "mode": mode})
        assert code == EXIT_OK
        assert out["overall"] is want, (phi, mode)
        assert len(out["poles"]) == 2
    # random numerators over three random double poles
    rng = np.random.default_rng(7)
    for _ in range(5):
        pts = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        num = Poly(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        phi = RationalMap(num, Poly.from_roots(list(pts) * 2))
        code, out, _ = run_cli(monkeypatch, capsys, ["check"],
                               {"phi": encode_rational(phi), "mode": "polynomial"})
        assert code == EXIT_OK
        assert out["overall"] is False


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
        return [], FiberSolveReport(target=Poly.from_roots(points))

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
    # 100 + {0, 1, 2, 3i} lies far from 0 compared with its spread
    payload = {"points": [[100, 0], [101, 0], [102, 0], [100, 3]]}
    code, out, _ = run_cli(monkeypatch, capsys, ["cubic"], payload)
    assert code == EXIT_OK
    assert out["tetrahedron"] is False
    assert len(out["fiber_branches"]) == 2


def test_cubic_tetrahedral_points(monkeypatch, capsys):
    j = complex(-0.5, np.sqrt(3) / 2)
    base = [1, j, j.conjugate(), 0]
    # the tetrahedron itself and its images under z -> (z + 1)/(2z + i) and
    # z -> z + 100
    for pts in (base, [(z + 1) / (2 * z + 1j) for z in base],
                [z + 100 for z in base]):
        payload = {"points": [[complex(p).real, complex(p).imag] for p in pts]}
        code, out, _ = run_cli(monkeypatch, capsys, ["cubic"], payload)
        assert code == EXIT_OK
        assert out["tetrahedron"] is True
        assert len(out["fiber_branches"]) == 1


def test_cubic_far_from_zero_and_rescaled(monkeypatch, capsys):
    # 200 point sets, half of them Mobius images of the tetrahedron, moved 1e4
    # spreads from 0 and, separately, rescaled by 1e5: each exits 0, has one
    # branch exactly over a tetrahedron, and each branch's Wronskian is the
    # monic quartic with the points as roots
    rng = np.random.default_rng(17)
    sets = tetrahedral_images(rng, 100)
    sets += [list(rng.standard_normal(4) + 1j * rng.standard_normal(4)) for _ in range(100)]
    for pts in sets:
        centre = sum(pts) / 4
        spread = max(abs(p - centre) for p in pts)
        offset = 1e4 * spread * np.exp(2j * np.pi * rng.uniform())
        for moved in ([complex(p - centre + offset) for p in pts], [1e5 * p for p in pts]):
            payload = {"points": [[z.real, z.imag] for z in moved]}
            code, out, _ = run_cli(monkeypatch, capsys, ["cubic"], payload)
            assert code == EXIT_OK
            assert (len(out["fiber_branches"]) == 1) == out["tetrahedron"]
            quartic = np.poly(moved)[::-1]
            for b in out["fiber_branches"]:
                w = normalized_wronskian(np.array([complex(*c) for c in b["a_p"] + b["a_q"]]))
                assert np.max(np.abs(w - quartic)) <= 1e-9 * np.max(np.abs(quartic))


def _far_quartics():
    # 400 quartics, half over Mobius images of the tetrahedron, half over
    # random sets, each moved 1 to 1e3 of its own spreads from 0
    rng = np.random.default_rng(11)
    sets = tetrahedral_images(rng, 200)
    sets += [list(rng.standard_normal(4) + 1j * rng.standard_normal(4)) for _ in range(200)]
    out = []
    for pts in sets:
        centre = sum(pts) / 4
        spread = max(abs(p - centre) for p in pts)
        offset = spread * 10 ** rng.uniform(0, 3) * np.exp(2j * np.pi * rng.uniform())
        out.append(np.poly([p - centre + offset for p in pts])[::-1])
    return out


# Poly's relative 1e-12 trim drops the lead 1 of a quartic whose largest
# coefficient is 1e12 or more, so cubic reads it as degree < 4 and exits 3
# (ROADMAP, "Scale-aware core"); those quartics are run apart as an expected
# failure.
@pytest.mark.parametrize("trimmed", [
    False,
    pytest.param(True, marks=pytest.mark.xfail(
        strict=True, reason="Poly's relative trim drops the lead 1 (ROADMAP: scale-aware core)")),
])
def test_cubic_quartic_far_from_zero(monkeypatch, capsys, trimmed):
    # Each quartic exits 0, has one branch exactly over a tetrahedron, and
    # each branch's Wronskian is the quartic
    quartics = [q for q in _far_quartics() if (Poly(list(q)).degree < 4) == trimmed]
    assert quartics
    for quartic in quartics:
        payload = {"quartic": [[c.real, c.imag] for c in quartic]}
        code, out, _ = run_cli(monkeypatch, capsys, ["cubic"], payload)
        assert code == EXIT_OK
        assert (len(out["fiber_branches"]) == 1) == out["tetrahedron"]
        for b in out["fiber_branches"]:
            w = normalized_wronskian(np.array([complex(*c) for c in b["a_p"] + b["a_q"]]))
            assert np.max(np.abs(w - quartic)) <= 1e-9 * np.max(np.abs(quartic))


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
    # "inf" where a finite point is needed, NaN or Infinity numbers, and an
    # integer beyond double range
    phi = {"num": [[1, 0]], "den": [[0, 0], [0, 0], [1, 0]]}
    for argv, payload in (
        (["solve"], {"points": ["inf", [0, 0]]}),
        (["cubic"], {"points": ["inf", [0, 0], [1, 0], [0, 1]]}),
        (["check"], {"phi": phi, "mode": "local", "point": "inf"}),
        (["reconstruct-local"], {"phi": phi, "point": "inf"}),
        (["schwarzian"], {"num": [float("nan"), [1, 0]], "den": [[1, 0]]}),
        (["schwarzian"], {"num": [[0, 0], [1, float("inf")]], "den": [[1, 0]]}),
        (["schwarzian"], {"num": [[0, 0], [10**400, 0]], "den": [[1, 0]]}),
    ):
        code, out, err = run_cli(monkeypatch, capsys, argv, payload)
        assert (code, out) == (EXIT_DEGENERATE, None), argv
        assert err.startswith("error: ")


@pytest.mark.parametrize("leading, holonomy", [(0.3, "Elliptic"),
                                               (0.5, "ParabolicNonIntegerZero")])
def test_check_local_without_a_local_degree(monkeypatch, capsys, leading, holonomy):
    # leading/z^2 with leading not (1 - d^2)/2 for an integer d >= 1 (0.5 is
    # d = 0): the verdict reads the leading term alone
    phi = {"num": [[leading, 0]], "den": [[0, 0], [0, 0], [1, 0]]}
    code, out, _ = run_cli(monkeypatch, capsys, ["check"],
                           {"phi": phi, "mode": "local", "point": [0, 0]})
    assert code == EXIT_OK
    assert out["local_degree"] is None
    assert out["holonomy"] == holonomy
    assert out["verdict"] == "leading coefficient is not (1-d^2)/2 for an integer d >= 1"
    assert not {"determinant", "b_hat", "primitive_exists"} & set(out)


def test_guards_on_payload_shape(monkeypatch, capsys):
    square = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    for points in (square[:3], square + [[2, 0]]):
        code, out, err = run_cli(monkeypatch, capsys, ["cubic"], {"points": points})
        assert (code, out) == (EXIT_DEGENERATE, None)
        assert "need exactly four points" in err
    code, out, err = run_cli(monkeypatch, capsys, ["schwarzian"], [{"num": [[1, 0]]}])
    assert (code, out) == (EXIT_PARSE, None)
    assert "payload must be a JSON object" in err


def test_json_booleans_are_not_numbers(monkeypatch, capsys):
    phi = {"num": [[1, 0]], "den": [[0, 0], [0, 0], [1, 0]]}
    for argv, payload in (
        (["cubic"], {"points": [True, [0, 1], [-1, 0], [0, -1]]}),
        (["check"], {"phi": phi, "mode": "local", "point": [False, False]}),
    ):
        code, out, err = run_cli(monkeypatch, capsys, argv, payload)
        assert (code, out) == (EXIT_DEGENERATE, None), argv
        assert "not a finite complex scalar" in err


def test_num_and_den_sharing_a_root_exit_3(monkeypatch, capsys):
    # (z^2 - 1)/(z - 1) is stored as given, never reduced to z + 1
    payload = {"num": [[-1, 0], [0, 0], [1, 0]], "den": [[-1, 0], [1, 0]]}
    code, out, err = run_cli(monkeypatch, capsys, ["schwarzian"], payload)
    assert (code, out) == (EXIT_DEGENERATE, None)
    assert "share a root" in err


def test_check_local_keeps_a_numerator_root_near_the_pole(monkeypatch, capsys):
    # (-4 + 1e13 z)/z^2: the numerator's root 4e-13 is near the pole 0 but
    # not at it, so the pole stays double with leading -4 = (1 - 3^2)/2
    phi = {"num": [[-4, 0], [1e13, 0]], "den": [[0, 0], [0, 0], [1, 0]]}
    code, out, _ = run_cli(monkeypatch, capsys, ["check"],
                           {"phi": phi, "mode": "local", "point": [0, 0]})
    assert code == EXIT_OK
    assert out["local_degree"] == 3
    assert complex(*out["leading"]) == -4


def test_flag_validation(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("{}"))
    assert main(["reconstruct-local", "--order", "0"]) == EXIT_PARSE


@pytest.mark.parametrize("argv", [["check", "--tol", "1e-9"], ["cubic", "--seed", "1"],
                                  ["solve", "--order", "8"], ["schwarzian", "--order", "8"],
                                  ["check", "--order", "8"]])
def test_flags_only_where_they_act(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE


def test_negative_seed_exits_2(monkeypatch, capsys):
    # numpy refuses negative seeds; the CLI must say so as a usage error
    code, out, err = run_cli(monkeypatch, capsys, ["solve", "--seed", "-1"],
                             {"points": [[1, 0], [-1, 0], [0, 1], [0, -1]]})
    assert code == EXIT_PARSE
    assert out is None
    assert "--seed" in err


def test_check_rejects_degree_field(monkeypatch, capsys):
    phi = {"num": [[-1.5, 0]], "den": [[0, 0], [0, 0], [1, 0], [-2, 0], [1, 0]]}
    code, _, err = run_cli(monkeypatch, capsys, ["check"],
                           {"phi": phi, "mode": "local", "point": [0, 0], "d": 3})
    assert code == EXIT_PARSE
    assert "'d'" in err


def test_input_from_file(monkeypatch, capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(
        json.dumps({"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]})
    )
    code = main(["schwarzian", "--in", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["infinity"]["kind"] == "DoublePole"


def test_readme_examples_run(monkeypatch, capsys):
    # Each `echo '<json>' | schwarzian <args>` example in README.md exits 0
    # and prints one JSON object
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"echo '([^']*)'\s*\\?\s*\|\s*schwarzian ([^\n]*)", readme)
    assert len(examples) == readme.count("| schwarzian") >= 5
    for raw, args in examples:
        monkeypatch.setattr("sys.stdin", io.StringIO(raw))
        code = main(shlex.split(args))
        captured = capsys.readouterr()
        assert code == EXIT_OK, args
        assert isinstance(json.loads(captured.out), dict)
