"""Independent numerical checks of the library's answers.

Nothing here calls into ``schwarzian``: polynomials are plain lists of
ascending complex coefficients, so a defect in the library's algebra cannot
hide itself by appearing on both sides of a comparison.
"""

from __future__ import annotations

import math

import numpy as np


def polyval(asc, z):
    """Value at z of the polynomial with ascending coefficients ``asc``."""
    acc = 0j
    for c in reversed(asc):
        acc = acc * z + c
    return acc


def deriv(asc):
    return [k * c for k, c in enumerate(asc)][1:] or [0j]


def mul(a, b):
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


def sub(a, b):
    out = [0j] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def from_roots(points):
    """Monic polynomial with the given roots."""
    out = [1 + 0j]
    for p in points:
        out = mul(out, [-p, 1])
    return out


def wronskian(num, den):
    """num' den - num den', whose roots are the finite critical points."""
    return sub(mul(deriv(num), den), mul(num, deriv(den)))


def roots(asc):
    asc = np.trim_zeros(np.asarray(asc, dtype=complex), "b")
    return np.roots(asc[::-1])


def schwarzian_function(num, den):
    """z -> S_f(z) for f = num/den, from f' = W/den^2 without forming S.

    With g = f''/f' = W'/W - 2 den'/den, S = g' - g^2/2.
    """
    w = wronskian(num, den)
    ws = (w, deriv(w), deriv(deriv(w)))
    ds = (list(den), deriv(den), deriv(deriv(den)))

    def s(z):
        w0, w1, w2 = (polyval(p, z) for p in ws)
        d0, d1, d2 = (polyval(p, z) for p in ds)
        g = w1 / w0 - 2.0 * d1 / d0
        dg = w2 / w0 - (w1 / w0) ** 2 - 2.0 * d2 / d0 + 2.0 * (d1 / d0) ** 2
        return dg - 0.5 * g * g

    return s


def contour_laurent(phi, c, radius, samples=64):
    """(z-c)^-2 and (z-c)^-1 coefficients of phi about c by the trapezoid
    rule on a circle; exact up to aliasing of the 64th term."""
    theta = 2.0 * np.pi * np.arange(samples) / samples
    e = np.exp(1j * theta)
    g = np.array([phi(c + radius * x) for x in e]) * (radius * e) ** 2
    leading = g.mean()
    residue = (g / (radius * e)).mean()
    return complex(leading), complex(residue)


def match_error(found, wanted):
    """Largest distance when each wanted point takes its nearest unused
    found point, smallest distances first; inf when the counts differ."""
    found = list(found)
    wanted = list(wanted)
    if len(found) != len(wanted):
        return float("inf")
    pairs = sorted(
        (abs(f - w), i, k) for i, f in enumerate(found) for k, w in enumerate(wanted)
    )
    used_f, used_w, worst = set(), set(), 0.0
    for dist, i, k in pairs:
        if i in used_f or k in used_w:
            continue
        used_f.add(i)
        used_w.add(k)
        worst = max(worst, dist)
    return worst


def mobius_value(m, z):
    return (m.a * z + m.b) / (m.c * z + m.d)


def chordal(p, q):
    return abs(p - q) / math.sqrt((1 + abs(p) ** 2) * (1 + abs(q) ** 2))


def is_involution_permuting(m, points, tol=1e-7):
    """m maps the point set onto itself, moves every point and m(m(z)) = z."""
    images = [mobius_value(m, p) for p in points]
    for p, im in zip(points, images):
        if abs(im - p) <= tol * (1 + abs(p)):
            return False
        if min(abs(im - q) for q in points) > tol * (1 + abs(im)):
            return False
    z = 0.31 + 0.77j
    return chordal(mobius_value(m, mobius_value(m, z)), z) <= tol


def jsonish_close(actual, expected, tol=1e-9):
    """Structural equality with a relative tolerance on numbers."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and set(actual) >= set(expected) and all(
            jsonish_close(actual[k], v, tol) for k, v in expected.items()
        )
    if isinstance(expected, (list, tuple)):
        return (
            isinstance(actual, (list, tuple))
            and len(actual) == len(expected)
            and all(jsonish_close(a, e, tol) for a, e in zip(actual, expected))
        )
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        return actual == expected
    if isinstance(expected, (int, float)):
        return (
            isinstance(actual, (int, float))
            and not isinstance(actual, bool)
            and abs(actual - expected) <= tol * (1.0 + abs(expected))
        )
    return actual == expected
