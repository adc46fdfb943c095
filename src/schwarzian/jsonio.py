"""Normative JSON encoding shared by the CLI and its consumers.

A complex scalar is [re, im]; a polynomial is an array of scalars ascending
by degree; the point at infinity is the string "inf".
"""

from __future__ import annotations

import cmath

from .algebra import INF, Poly, RationalMap, is_inf
from .errors import DegenerateInput


def encode_complex(z):
    if is_inf(z):
        return "inf"
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(obj):
    if obj == "inf":
        return INF
    if isinstance(obj, (int, float)):
        obj = (obj, 0)
    if (
        isinstance(obj, (list, tuple))
        and len(obj) == 2
        and all(isinstance(v, (int, float)) for v in obj)
    ):
        try:
            z = complex(obj[0], obj[1])
        except OverflowError:  # an integer beyond double range
            z = cmath.inf
        if cmath.isfinite(z):
            return z
    raise DegenerateInput(f"not a finite complex scalar: {obj!r}")


def encode_poly(p: Poly):
    return [encode_complex(c) for c in p.coeffs]


def decode_poly(obj):
    if not isinstance(obj, list):
        raise DegenerateInput("polynomial must be an array of [re, im] pairs")
    coeffs = [decode_complex(c) for c in obj]
    if any(is_inf(c) for c in coeffs):
        raise DegenerateInput("polynomial coefficients must be finite")
    return Poly(coeffs)


def encode_rational(f: RationalMap):
    return {"num": encode_poly(f.num), "den": encode_poly(f.den)}


def decode_rational(obj):
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise DegenerateInput("rational map must be {num: [...], den: [...]}")
    return RationalMap(decode_poly(obj["num"]), decode_poly(obj["den"]))


def encode_coords(coords):
    return {
        "mu": coords.mu,
        "a_p": [encode_complex(c) for c in coords.a_p],
        "a_q": [encode_complex(c) for c in coords.a_q],
    }


def encode_fiber_report(report):
    return {
        "target": encode_poly(report.target),
        "solutions": [encode_coords(s) for s in report.solutions],
        "attempts": report.attempts,
        "seed": report.seed,
        "residuals": list(report.residuals),
        "rconds": list(report.rconds),
        "expected_max": report.expected_max,
        "warning": report.warning,
        "complete": report.complete,
    }
