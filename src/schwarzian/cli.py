"""JSON command-line front end.

Grammar: schwarzian reconstruct-local [--order N] [--in FILE|-],
schwarzian solve [--seed N] [--attempts N] [--in FILE|-],
schwarzian schwarzian|check|cubic [--in FILE|-].  Input JSON on stdin or file;
output JSON on stdout, diagnostics on stderr.  Exit codes: 0 ok, 2 parse error,
3 degenerate input, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import algebra
from .cubic import (
    criticality_discriminant,
    cross_ratio,
    cubic_fiber_explicit,
    is_regular_tetrahedron,
    ratio_orbit,
)
from .errors import (
    DegenerateInput,
    NoSolutionFound,
    ObstructionNonzero,
    PoleTooHigh,
    SchwarzianError,
)
from .fiber import local_primitive, reconstruct_rational
from .jsonio import (
    decode_complex,
    decode_poly,
    decode_rational,
    encode_complex,
    encode_fiber_report,
    encode_rational,
)
from .primitivity import (
    CriticalConfiguration,
    HolonomyClass,
    check_polynomial_criterion,
    check_rational_criterion,
    classify_holonomy,
    condition_determinant,
    residual_tol,
    series_obstruction,
)
from .quaddiff import _expand, _pole_order, pole_report, schwarzian

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_SOLVER = 4


class _PayloadError(Exception):
    pass


def _require(payload, key):
    if key not in payload:
        raise _PayloadError(f"missing field {key!r}")
    return payload[key]


def _reject_unknown(payload, allowed):
    unknown = set(payload) - set(allowed)
    if unknown:
        raise _PayloadError(f"unknown fields: {sorted(unknown)}")


def cmd_schwarzian(payload, args):
    _reject_unknown(payload, {"num", "den"})
    f = decode_rational({"num": _require(payload, "num"), "den": _require(payload, "den")})
    s = schwarzian(f)
    # The leading term, all that is printed, is the same at every order.
    poles, at_inf = pole_report(s, order=1)
    return {
        "schwarzian": encode_rational(s),
        "poles": [
            {
                "point": encode_complex(g.pole),
                "leading": encode_complex(g.leading),
                "local_degree": g.local_degree_hint,
            }
            for g in poles
        ],
        "infinity": {"kind": at_inf.kind,
                     "leading": encode_complex(at_inf.leading)
                     if at_inf.leading is not None else None},
    }


def cmd_check(payload, args):
    _reject_unknown(payload, {"phi", "mode", "point", "variant"})
    phi = decode_rational(_require(payload, "phi"))
    mode = _require(payload, "mode")
    if mode == "local":
        point = complex(decode_complex(_require(payload, "point")))
        # Every verdict reads a_1..a_d, with d fixed by the leading term alone.
        m = _pole_order(phi.den, point)
        germ = _expand(phi, point, m, 1)
        d = germ.local_degree_hint
        if d is not None:
            # 92 is the largest d at which the determinant's slope in a_d,
            # prod k_j = 2^(d-1) ((d-1)!)^2, is a finite double.
            if d > 92:
                raise DegenerateInput(f"local degree {d} > 92 overflows the determinant")
            germ = _expand(phi, point, m, d)
        q = algebra.TruncatedSeries(base=point, coeffs=germ.residue_and_tail)
        holonomy = classify_holonomy(germ, q).kind
        out = {
            "mode": "local",
            "point": encode_complex(point),
            "leading": encode_complex(germ.leading),
            "local_degree": d,
        }
        if d is None:
            out["verdict"] = "leading coefficient is not (1-d^2)/2 for an integer d >= 1"
            out["holonomy"] = holonomy
            return out
        det = encode_complex(condition_determinant(d, germ.residue_and_tail))
        return dict(out, determinant=det, b_hat=encode_complex(series_obstruction(d, q)),
                    holonomy=holonomy, primitive_exists=holonomy == HolonomyClass.IDENTITY)
    if mode in ("rational", "polynomial"):
        return _check_residue_system(phi, mode, payload.get("variant", "AllL_E123"))
    if mode == "merom":
        # A meromorphic primitive may have an essential singularity at
        # infinity, so only the finite poles are tested, each to a_2 for d = 2.
        equations = []
        for center, m in algebra.root_clusters(phi.den):
            g = _expand(phi, center, m, 2)
            q = algebra.TruncatedSeries(base=g.pole, coeffs=g.residue_and_tail)
            ok = (g.local_degree_hint == 2
                  and classify_holonomy(g, q).kind == HolonomyClass.IDENTITY)
            equations.append(
                {
                    "name": f"c2@{encode_complex(g.pole)}",
                    "residual": abs(condition_determinant(2, list(g.residue_and_tail[:2]))),
                    "pass": ok,
                }
            )
        return {"variant": "merom", "equations": equations,
                "overall": all(e["pass"] for e in equations)}
    raise _PayloadError(f"unknown mode {mode!r}")


def _check_residue_system(phi, mode, variant):
    # The systems read only the poles of phi and a_1 there.  "poles" gates local
    # degree 2 and, for polynomial, phi's A_i against the constructed A_i.
    poles, _ = pole_report(phi, order=1)
    config = CriticalConfiguration.from_poles(poles)
    if mode == "rational":
        built, rec = config, check_rational_criterion(config, variant)
    else:
        built, rec = check_polynomial_criterion(config.points)
    tol = residual_tol(config.points)
    gate = [{"point": encode_complex(g.pole), "local_degree": g.local_degree_hint,
             "param_residual": abs(a - w),
             "pass": g.local_degree_hint == 2 and abs(a - w) <= tol}
            for g, a, w in zip(poles, config.params, built.params)]
    return dict(rec.to_json(), overall=rec.overall and all(p["pass"] for p in gate), poles=gate)


def cmd_solve(payload, args):
    _reject_unknown(payload, {"points"})
    points = [decode_complex(p) for p in _require(payload, "points")]
    maps, report = reconstruct_rational(points, attempts=args.attempts, seed=args.seed)
    out = encode_fiber_report(report)
    out["maps"] = [encode_rational(f) for f in maps]
    if len(points) == 4:
        out["tetrahedron"] = is_regular_tetrahedron(points)
    if report.warning:
        raise NoSolutionFound("no Newton restart converged")
    return out


def cmd_cubic(payload, args):
    _reject_unknown(payload, {"points", "quartic"})
    if "points" in payload:
        points = [decode_complex(p) for p in payload["points"]]
        if len(points) != 4:
            raise DegenerateInput("need exactly four points")
    else:
        target = decode_poly(_require(payload, "quartic"))
        if target.degree != 4:
            raise DegenerateInput("quartic must have degree 4")
        points = algebra.poly_roots(target.monic())
    # The fiber is solved over the quartic w with the roots moved by z -> (z - s)/lam.
    # Points go to mean 0 and spread about 1, which keeps their accuracy however far
    # from 0 they sit; lam is a power of 2, so the scaling is exact.
    t = cross_ratio(*points)  # rejects repeated points
    s = sum(complex(p) for p in points) / 4
    lam = 2.0 ** round(math.log2(max(abs(complex(p) - s) for p in points)))
    w = list(algebra.Poly.from_roots([(complex(p) - s) / lam for p in points]).coeffs[:4])
    return {
        "points": [encode_complex(p) for p in points],
        "cross_ratio": encode_complex(t),
        "orbit": [encode_complex(v) for v in ratio_orbit(t)],
        "tetrahedron": is_regular_tetrahedron(points),
        "criticality_discriminant": encode_complex(criticality_discriminant(w) * lam**4),
        "fiber_branches": [_moved_back(b, s, lam) for b in cubic_fiber_explicit(w)],
    }


def _moved_back(branch, s, lam):
    # The branch (p, q) over w as one over the points, in normal form P + 3s Q and Q,
    # with P(z) = lam^3 p((z - s)/lam) and Q(z) = lam^2 q((z - s)/lam).  On the plain
    # lists of Poly.shift, since Poly's trim would drop top coefficients far from 0.
    p = algebra.Poly((*branch.a_p, 0, 1)).shift(-s / lam)
    q = algebra.Poly((*branch.a_q, 1)).shift(-s / lam)
    big_q = [q[k] * lam ** (2 - k) for k in (0, 1)]
    return {"a_p": [encode_complex(p[k] * lam ** (3 - k) + 3 * s * big_q[k]) for k in (0, 1)],
            "a_q": [encode_complex(c) for c in big_q]}


def cmd_reconstruct_local(payload, args):
    _reject_unknown(payload, {"phi", "point"})
    phi = decode_rational(_require(payload, "phi"))
    point = decode_complex(_require(payload, "point"))
    series = local_primitive(phi, point, args.order)
    return {
        "base": encode_complex(series.base),
        "coeffs": [encode_complex(c) for c in series.coeffs],
    }


COMMANDS = {
    "schwarzian": cmd_schwarzian,
    "check": cmd_check,
    "solve": cmd_solve,
    "cubic": cmd_cubic,
    "reconstruct-local": cmd_reconstruct_local,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schwarzian",
        description="Schwarzian primitives of rational maps: decide, "
        "reconstruct, classify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "solve":
            p.add_argument("--seed", type=int, default=42)
            p.add_argument("--attempts", type=int, default=None)
        if name == "reconstruct-local":
            p.add_argument("--order", type=int, default=32)
        p.add_argument("--in", dest="infile", default="-")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    attempts = getattr(args, "attempts", None)
    if getattr(args, "order", 1) <= 0 or (attempts is not None and attempts <= 0) \
            or getattr(args, "seed", 0) < 0:
        print("error: --order and --attempts must be positive, --seed >= 0", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.infile == "-":
            raw = sys.stdin.read()
        else:
            with open(args.infile) as fh:
                raw = fh.read()
        payload = json.loads(raw) if raw.strip() else {}
        if not isinstance(payload, dict):
            raise _PayloadError("payload must be a JSON object")
    except (OSError, json.JSONDecodeError, _PayloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        result = COMMANDS[args.command](payload, args)
    except _PayloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DegenerateInput, PoleTooHigh, ObstructionNonzero) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SchwarzianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    try:
        text = json.dumps(result, allow_nan=False)
    except ValueError:
        print("error: a result is beyond double range", file=sys.stderr)
        return EXIT_DEGENERATE
    print(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
