"""The four workloads: seeded inputs, one operation each, and its oracle.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns. Inputs come in rounds, made just before the
round runs; a round holds each input class in a fixed count, so every run
has the same mix whatever the seed. A check returns None when the
operation's outcome is right and a reason string when it is not; every
reason counts towards ``fail_frac``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import oracles
import schwarzian as sw
from schwarzian import jsonio

J = complex(-0.5, math.sqrt(3.0) / 2.0)
# Reasons that start with REJECTED are valid inputs the library refused;
# every other reason is a wrong answer.
REJECTED = "rejected"


def rejected(res):
    return f"{REJECTED}: raised {type(res).__name__}: {res}"


def cnormal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def round_mix(counts, rng):
    """Input class names of one round, ``counts`` of each, shuffled."""
    kinds = [k for k, n in counts.items() for _ in range(n)]
    return [kinds[i] for i in rng.permutation(len(kinds))]


# --------------------------------------------------------------------------
# decide: S = schwarzian(f), its poles, the local and global criteria.

@dataclass
class DecideInput:
    kind: str
    order: int
    num: np.ndarray            # ascending coefficients of f (oracle side)
    den: np.ndarray
    f: object = None           # the map, when the operation starts from f
    phi: object = None         # the differential, when it is given directly
    poles: tuple = ()          # exact pole positions, when known
    eps: complex = 0j          # phi = S_f + eps/(z - c) for perturbed inputs
    c: complex = 0j


# Few degree-3 maps per round keep the tail percentile inside the degree-4
# class at the rounds a 20 s run makes.
DECIDE_MIX = {"generic2": 5, "generic3": 1, "generic4": 3, "dyadic2": 3, "poly3": 3,
              "perturbed2": 2, "perturbed3": 1}
DECIDE_ORDER = {"generic4": 8}
DYADIC = [complex(k, l) / 4 for k in range(-6, 7) for l in range(-6, 7)]


def _random_map(rng, degree):
    num = cnormal(rng, degree + 1)
    den = cnormal(rng, degree + 1)
    return num, den


def _dyadic_pair(rng):
    a, b = rng.choice(len(DYADIC), size=2, replace=False)
    return DYADIC[a], DYADIC[b]


def _perturbed_phi(num, den, rng):
    """S_f + eps/(z - c) at a critical point c of f, written over the
    denominator of S_f so the pole structure stays double poles."""
    f = sw.RationalMap(sw.Poly(num), sw.Poly(den))
    s = sw.schwarzian(f)
    crit = oracles.roots(oracles.wronskian(num, den))
    c0 = crit[rng.integers(len(crit))]
    # The pole centre as pole_report finds it: the mean of the two roots of
    # the denominator (a numerically split double root) nearest c0.
    split = oracles.roots(s.den.coeffs)
    c = complex(np.mean(split[np.argsort(np.abs(split - c0))[:2]]))
    quot, _ = np.polydiv(np.array(s.den.coeffs[::-1]), np.array([1.0, -c]))
    eps = 0.5 * complex(np.exp(2j * np.pi * rng.uniform()))
    pert = np.array(s.num.coeffs, dtype=complex)
    shift = eps * quot[::-1]
    total = np.zeros(max(len(pert), len(shift)), dtype=complex)
    total[: len(pert)] += pert
    total[: len(shift)] += shift
    phi = sw.RationalMap(sw.Poly(total), s.den, reduce=False)
    return phi, eps, c


def decide_round(rng):
    out = []
    for kind in round_mix(DECIDE_MIX, rng):
        order = DECIDE_ORDER.get(kind, 32)
        if kind.startswith("generic"):
            num, den = _random_map(rng, int(kind[-1]))
            f = sw.RationalMap(sw.Poly(num), sw.Poly(den))
            out.append(DecideInput(kind, order, num, den, f=f))
        elif kind == "dyadic2":
            a, b = _dyadic_pair(rng)
            num, den = np.array([a * a, -2 * a, 1]), np.array([b * b, -2 * b, 1])
            f = sw.RationalMap(sw.Poly(num), sw.Poly(den))
            out.append(DecideInput(kind, order, num, den, f=f, poles=(a, b)))
        elif kind == "poly3":
            # f' = 3(z-a)(z-b): dyadic coefficients, critical points a, b, inf
            a, b = _dyadic_pair(rng)
            num, den = np.array([0, 3 * a * b, -1.5 * (a + b), 1]), np.array([1 + 0j])
            f = sw.RationalMap(sw.Poly(num), sw.Poly(den))
            out.append(DecideInput(kind, order, num, den, f=f, poles=(a, b)))
        else:
            num, den = _random_map(rng, int(kind[-1]))
            phi, eps, c = _perturbed_phi(num, den, rng)
            out.append(DecideInput(kind, order, num, den, phi=phi, eps=eps, c=c))
    return out


@dataclass
class DecideResult:
    poles: list
    at_inf: object
    determinants: list
    obstructions: list
    holonomy: list
    rational: bool
    polynomial_params: tuple
    primitive_pole: int
    primitive: object          # TruncatedSeries, or None when rejected


def decide_op(inp):
    phi = sw.schwarzian(inp.f) if inp.phi is None else inp.phi
    poles, at_inf = sw.pole_report(phi, inp.order)
    dets, obstructions, holonomy = [], [], []
    for g in poles:
        d = g.local_degree_hint
        q = sw.TruncatedSeries(base=g.pole, coeffs=g.residue_and_tail)
        if d is not None:
            dets.append(sw.condition_determinant(d, g.residue_and_tail[:d]))
            obstructions.append(sw.series_obstruction(d, q))
        holonomy.append(sw.classify_holonomy(g, q).kind)
    config = sw.CriticalConfiguration(
        tuple(g.pole for g in poles),
        tuple(-2.0 / 3.0 * g.residue_and_tail[0] for g in poles))
    rational = sw.check_rational_criterion(config).overall
    poly_config, _ = sw.check_polynomial_criterion(config.points)
    at = min(range(len(poles)), key=lambda i: abs(poles[i].pole - inp.c))
    try:
        primitive = sw.local_primitive(phi, poles[at].pole, inp.order)
    except sw.ObstructionNonzero:
        primitive = None
    return DecideResult(poles, at_inf, dets, obstructions, holonomy, rational,
                        poly_config.params, at, primitive)


def _verdict(what, got, want, accepting):
    """None when a verdict matches the construction. Refusing an input the
    construction says to accept is a rejection; anything else is wrong."""
    if got == want:
        return None
    why = f"{what} {got}, expected {want}"
    return f"{REJECTED}: {why}" if accepting else why


def decide_check(inp, res):
    if isinstance(res, BaseException):
        return rejected(res)
    valid = not inp.kind.startswith("perturbed")
    degree = int(inp.kind[-1])
    n_poles = 2 if inp.kind in ("dyadic2", "poly3") else 2 * degree - 2
    if len(res.poles) != n_poles:
        return f"{len(res.poles)} poles, expected {n_poles}"
    centres = [g.pole for g in res.poles]
    if inp.poles and oracles.match_error(centres, inp.poles) > 1e-9:
        return "pole centres are not the dyadic critical points"

    s_true = oracles.schwarzian_function(inp.num, inp.den)

    def phi_true(z):
        return s_true(z) + inp.eps / (z - inp.c)

    # eps/(z-c) also moves the constant term at every other pole, so every
    # pole of a perturbed input is obstructed.
    want_holonomy = "Identity" if valid else "ParabolicObstructed"
    for i, g in enumerate(res.poles):
        gap = min([abs(g.pole - c) for j, c in enumerate(centres) if j != i])
        lead, resid = oracles.contour_laurent(phi_true, g.pole, 0.25 * gap)
        if abs(lead - g.leading) > 1e-6 * (1 + abs(lead)):
            return f"leading {g.leading} at {g.pole}, contour gives {lead}"
        if abs(resid - g.residue_and_tail[0]) > 1e-6 * (1 + abs(resid)):
            return f"residue {g.residue_and_tail[0]} at {g.pole}, contour gives {resid}"
        why = _verdict(f"local degree at {g.pole}", g.local_degree_hint, 2, valid) or \
            _verdict(f"holonomy at {g.pole}", res.holonomy[i], want_holonomy, valid)
        if why:
            return why
    want_inf = "DoublePole" if inp.kind == "poly3" else "Regular" if valid else "TriplePole"
    if res.at_inf.kind != want_inf:
        return f"infinity {res.at_inf.kind}, expected {want_inf}"
    if inp.kind == "poly3" and abs(res.at_inf.leading + 4.0) > 1e-9:
        return f"infinity leading {res.at_inf.leading}, expected -4"
    want_rational = valid and inp.kind != "poly3"
    phi_params = [-2.0 / 3.0 * g.residue_and_tail[0] for g in res.poles]
    poly_match = max(abs(a - b) for a, b in zip(res.polynomial_params, phi_params)) <= 1e-8
    why = _verdict("rational criterion", res.rational, want_rational, want_rational) or \
        _verdict("polynomial configuration match", poly_match, inp.kind == "poly3",
                 inp.kind == "poly3") or \
        _verdict("local_primitive found a series", res.primitive is not None, valid, valid)
    if why:
        return why
    if valid and abs(res.primitive.coeffs[2] - 0.5) > 1e-9:
        return f"primitive leads with {res.primitive.coeffs[2]}, expected z^2/2"
    return None


# --------------------------------------------------------------------------
# reconstruct: all maps with 2*mu prescribed simple critical points.

@dataclass
class ReconstructInput:
    kind: str
    points: np.ndarray
    seed: int


# mu = 2 is the largest class, so the median and the tail percentile of a
# 20 s run (one round) both fall inside it rather than between classes.
RECONSTRUCT_MIX = {"mu1": 9, "mu2": 16, "mu3": 3, "mu4": 1, "scaled1": 3, "scaled2": 4}


def reconstruct_round(rng):
    out = []
    for kind in round_mix(RECONSTRUCT_MIX, rng):
        mu = int(kind[-1])
        pts = cnormal(rng, 2 * mu)
        if kind.startswith("scaled"):
            pts = pts * 10.0 ** rng.choice([-2, 2]) + cnormal(rng, 1)[0]
        out.append(ReconstructInput(kind, pts, int(rng.integers(2**31))))
    return out


def reconstruct_op(inp):
    return sw.reconstruct_rational(inp.points.tolist(), seed=inp.seed)


def reconstruct_check(inp, res):
    if isinstance(res, BaseException):
        return rejected(res)
    maps, _ = res
    if not maps:
        return f"{REJECTED}: no map returned"
    tol = 1e-6 * (1 + float(np.max(np.abs(inp.points))))
    for f in maps:
        crit = oracles.roots(oracles.wronskian(f.num.coeffs, f.den.coeffs))
        err = oracles.match_error(crit, inp.points)
        if err > tol:
            return f"critical points off by {err:.3g} (tolerance {tol:.3g})"
    return None


def fiber_complete(inp, res):
    """True when the call returned catalan(mu+1) maps, None when it raised."""
    if isinstance(res, BaseException):
        return None
    return len(res[0]) == sw.catalan(len(inp.points) // 2 + 1)


# --------------------------------------------------------------------------
# classify: four-point geometry and the explicit cubic fiber.

@dataclass
class ClassifyInput:
    kind: str
    points: tuple
    f: object = None           # h_alpha, whose critical points are ``points``


CLASSIFY_MIX = {"random": 4, "h_alpha": 3, "tetrahedral": 3}


def classify_round(rng):
    out = []
    for kind in round_mix(CLASSIFY_MIX, rng):
        if kind == "random":
            out.append(ClassifyInput(kind, tuple(cnormal(rng, 4).tolist())))
        elif kind == "h_alpha":
            alpha = complex(cnormal(rng, 1)[0])
            pts = [1.0 + 0j, J, J * J, alpha * alpha]
            out.append(ClassifyInput(kind, tuple(pts[i] for i in rng.permutation(4)),
                                     f=sw.h_alpha(alpha)))
        else:
            a, b, c, d = cnormal(rng, 4).tolist()
            pts = [(a * z + b) / (c * z + d) for z in (0j, 1 + 0j, J, J * J)]
            out.append(ClassifyInput(kind, tuple(pts[i] for i in rng.permutation(4))))
    return out


def classify_op(inp):
    pts = inp.points
    w = list(sw.Poly.from_roots(pts).coeffs[:4])
    t = sw.cross_ratio(*pts)
    out = {
        "w": w,
        "cross_ratio": t,
        "orbit": sw.ratio_orbit(t),
        "tetrahedron": sw.is_regular_tetrahedron(pts),
        "discriminant": sw.criticality_discriminant(w),
        "branches": sw.cubic_fiber_explicit(w),
        "group": sw.four_group(pts),
    }
    if inp.f is not None:
        out["lift"] = sw.lift_correspondence(inp.f)
    return out


def classify_check(inp, res):
    if isinstance(res, BaseException):
        return rejected(res)
    pts = inp.points
    quartic = oracles.from_roots(pts)
    scale = 1 + max(abs(c) for c in quartic)
    if res["tetrahedron"] != (inp.kind == "tetrahedral"):
        return f"tetrahedron verdict {res['tetrahedron']} on a {inp.kind} input"
    a, b, c, d = pts
    t = ((a - c) * (b - d)) / ((c - b) * (d - a))
    if abs(res["cross_ratio"] - t) > 1e-9 * (1 + abs(t)):
        return "cross ratio differs from its definition"
    for br in res["branches"]:
        p = [br.a_p[0], br.a_p[1], 0, 1]
        q = [br.a_q[0], br.a_q[1], 1]
        w = oracles.wronskian(p, q)
        if len(w) != 5 or max(abs(x - y) for x, y in zip(w, quartic)) > 1e-9 * scale:
            return "a fiber branch's Wronskian is not the quartic"
    if len(res["group"]) != 3 or not all(
            oracles.is_involution_permuting(m, pts) for m in res["group"]):
        return "four_group is not three involutions of the points"
    if inp.f is not None:
        num, den = inp.f.num.coeffs, inp.f.den.coeffs
        fv = lambda z: oracles.polyval(num, z) / oracles.polyval(den, z)  # noqa: E731
        for m, n in res["lift"]:
            for z in (0.3 + 0.7j, -1.1 - 0.4j):
                if oracles.chordal(fv(oracles.mobius_value(m, z)),
                                   oracles.mobius_value(n, fv(z))) > 1e-7:
                    return "lift pair breaks f o M = N o f"
    return None


# --------------------------------------------------------------------------
# cli: one ``python -m schwarzian.cli`` process per operation.

EXIT_OK, EXIT_PARSE, EXIT_DEGENERATE = 0, 2, 3


@dataclass
class CliInput:
    kind: str
    command: str
    payload: str
    exit_code: int
    expected: dict | None = field(default_factory=dict)


# Four solves per round put the tail percentile of a 20 s run (four rounds)
# inside the solve class instead of at its edge.
CLI_MIX = {"schwarzian": 2, "check-local": 1, "check-rational": 1, "check-polynomial": 1,
           "check-merom": 1, "solve": 4, "solve-confluent": 1, "cubic-points": 1,
           "cubic-quartic": 1, "cubic-malformed": 1, "reconstruct-local": 1}
CLI_ORDER = 32  # the CLI default


def _enc_map(num, den):
    return {"num": [jsonio.encode_complex(c) for c in num],
            "den": [jsonio.encode_complex(c) for c in den]}


def _cli_expected(kind, body):
    """What the library returns in process for the same request."""
    enc = jsonio.encode_complex
    if kind == "schwarzian":
        s = sw.schwarzian(jsonio.decode_rational(body))
        poles, at_inf = sw.pole_report(s, CLI_ORDER)
        return {"schwarzian": jsonio.encode_rational(s),
                "poles": [{"point": enc(g.pole), "leading": enc(g.leading),
                           "local_degree": g.local_degree_hint} for g in poles],
                "infinity": {"kind": at_inf.kind}}
    if kind.startswith("check"):
        phi = jsonio.decode_rational(body["phi"])
        poles, _ = sw.pole_report(phi, CLI_ORDER)
        if kind == "check-local":
            g = sw.laurent_at(phi, jsonio.decode_complex(body["point"]), CLI_ORDER)
            q = sw.TruncatedSeries(base=g.pole, coeffs=g.residue_and_tail)
            return {"leading": enc(g.leading), "local_degree": g.local_degree_hint,
                    "holonomy": sw.classify_holonomy(g, q).kind}
        if kind == "check-rational":
            config = sw.CriticalConfiguration(
                tuple(g.pole for g in poles),
                tuple(-2.0 / 3.0 * g.residue_and_tail[0] for g in poles))
            return sw.check_rational_criterion(config).to_json()
        if kind == "check-polynomial":
            return sw.check_polynomial_criterion([g.pole for g in poles])[1].to_json()
        # merom: every pole has local degree 2 and a vanishing 2x2 determinant
        return {"overall": all(
            g.local_degree_hint == 2
            and abs(sw.condition_determinant(2, g.residue_and_tail[:2])) <= 1e-8
            for g in poles)}
    if kind == "solve":
        maps, report = sw.reconstruct_rational(
            [jsonio.decode_complex(p) for p in body["points"]], seed=42)
        out = jsonio.encode_fiber_report(report)
        out["maps"] = [jsonio.encode_rational(f) for f in maps]
        return out
    if kind.startswith("cubic"):
        pts = [jsonio.decode_complex(p) for p in body["points"]] if "points" in body \
            else sw.poly_roots(jsonio.decode_poly(body["quartic"]).monic())
        return {"cross_ratio": enc(sw.cross_ratio(*pts)),
                "tetrahedron": sw.is_regular_tetrahedron(pts)}
    phi = jsonio.decode_rational(body["phi"])
    series = sw.local_primitive(phi, jsonio.decode_complex(body["point"]), CLI_ORDER)
    return {"coeffs": [enc(c) for c in series.coeffs]}


def cli_round(rng):
    enc = jsonio.encode_complex
    out = []
    for kind in round_mix(CLI_MIX, rng):
        command = kind.split("-")[0] if kind != "reconstruct-local" else kind
        num, den = _random_map(rng, 2)
        f = sw.RationalMap(sw.Poly(num), sw.Poly(den))
        s = sw.schwarzian(f)
        crit = oracles.roots(oracles.wronskian(num, den))
        exit_code = EXIT_OK
        if kind == "schwarzian":
            body = _enc_map(num, den)
        elif kind == "check-polynomial":
            a, b = _dyadic_pair(rng)
            p = sw.schwarzian(sw.RationalMap(sw.Poly([0, 3 * a * b, -1.5 * (a + b), 1]),
                                             sw.Poly([1])))
            body = {"phi": jsonio.encode_rational(p), "mode": "polynomial"}
        elif kind.startswith("check"):
            body = {"phi": jsonio.encode_rational(s), "mode": kind.split("-")[1]}
            if kind == "check-local":
                body["point"] = enc(crit[0])
        elif kind == "solve":
            body = {"points": [enc(p) for p in cnormal(rng, 4)]}
        elif kind == "solve-confluent":
            p = cnormal(rng, 3)
            body = {"points": [enc(z) for z in (p[0], p[1], p[2], p[0])]}
            exit_code = EXIT_DEGENERATE
        elif kind == "cubic-points":
            body = {"points": [enc(p) for p in cnormal(rng, 4)]}
        elif kind == "cubic-quartic":
            body = {"quartic": [enc(c) for c in np.poly(cnormal(rng, 4))[::-1]]}
        elif kind == "cubic-malformed":
            body = None
            exit_code = EXIT_PARSE
        else:
            body = {"phi": jsonio.encode_rational(s), "point": enc(crit[0])}
        if body is None:
            payload = '{"points": [[1, 0], [0, 1],'
            expected = {}
        else:
            payload = json.dumps(body)
            try:
                expected = _cli_expected(kind, body) if exit_code == EXIT_OK else {}
            except sw.SchwarzianError:
                expected = None  # refused in process too; the CLI must then fail
        out.append(CliInput(kind, command, payload, exit_code, expected))
    return out


def cli_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_argv(inp, traced, bench_dir):
    entry = [os.path.join(bench_dir, "cli_child.py")] if traced else ["-m", "schwarzian.cli"]
    return [sys.executable, *entry, inp.command]


def cli_op(inp, argv, env, cwd):
    proc = subprocess.run(argv, input=inp.payload, capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=150)
    return proc.returncode, proc.stdout


def cli_check(inp, res):
    if isinstance(res, BaseException):
        return rejected(res)
    code, stdout = res
    if code != inp.exit_code:
        why = f"exit code {code}, expected {inp.exit_code}"
        return f"{REJECTED}: {why}" if inp.exit_code == EXIT_OK else why
    if code != EXIT_OK:
        return None if not stdout.strip() else "printed a result on failure"
    if inp.expected is None:
        return "succeeded where the library refuses in process"
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if not oracles.jsonish_close(got, inp.expected):
        return "output differs from the in-process library result"
    return None
