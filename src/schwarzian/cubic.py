"""Cross ratios, regular ideal tetrahedra, the explicit cubic fiber and
Mobius symmetry of four-point sets."""

from __future__ import annotations

import cmath
import math

from .algebra import (
    INF,
    J,
    Mobius,
    Poly,
    RationalMap,
    is_inf,
    mobius_from_triples,
    require_distinct,
    riemann_close,
)
from .errors import DegenerateInput
from .fiber import NormalizedMapCoords
from .quaddiff import critical_points

# R(-j^2) = {(1 + i sqrt 3)/2, (1 - i sqrt 3)/2}, the tetrahedral cross ratios.
TETRAHEDRAL_RATIOS = (
    complex(0.5, math.sqrt(3.0) / 2.0),
    complex(0.5, -math.sqrt(3.0) / 2.0),
)


def _check_four(points):
    pts = tuple(points)
    if len(pts) != 4:
        raise DegenerateInput("need exactly four points")
    require_distinct(pts, "points")
    return pts


def cross_ratio(a, b, c, d):
    """[a,b,c,d] = (a-c)(b-d) / ((c-b)(d-a)), with the standard limits at INF."""
    pts = _check_four((a, b, c, d))
    n_inf = sum(1 for p in pts if is_inf(p))
    if n_inf > 1:
        raise DegenerateInput("at most one point may be infinity")
    if is_inf(a):
        b, c, d = complex(b), complex(c), complex(d)
        return (b - d) / (b - c)
    if is_inf(b):
        a, c, d = complex(a), complex(c), complex(d)
        return (a - c) / (a - d)
    if is_inf(c):
        a, b, d = complex(a), complex(b), complex(d)
        return (b - d) / (a - d)
    if is_inf(d):
        a, b, c = complex(a), complex(b), complex(c)
        return (a - c) / (b - c)
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    return ((a - c) * (b - d)) / ((c - b) * (d - a))


def ratio_orbit(t):
    """The six anharmonic values {t, 1/t, 1-t, 1/(1-t), t/(t-1), (t-1)/t}."""
    t = complex(t)
    if abs(t) <= 1e-12 or abs(t - 1.0) <= 1e-12:
        raise DegenerateInput("cross ratio must avoid 0 and 1")
    return (t, 1.0 / t, 1.0 - t, 1.0 / (1.0 - t), t / (t - 1.0), (t - 1.0) / t)


def is_regular_tetrahedron(points, tol: float = 1e-8) -> bool:
    """True iff the four points are a Mobius image of {1, j, j^2, 0}.

    Equivalently the cross ratio of any ordering lies in R(-j^2); the full
    six-element orbit is tested against both target values.
    """
    pts = _check_four(points)
    t = cross_ratio(*pts)
    for v in ratio_orbit(t):
        for target in TETRAHEDRAL_RATIOS:
            if abs(v - target) <= tol:
                return True
    return False


def criticality_discriminant(w):
    """w_2^2 + 12 w_0 - 3 w_1 w_3 for the monic quartic z^4 + w3 z^3 + ... + w0.

    Zero iff the quartic's (distinct) roots form a regular tetrahedron, iff
    the cubic fiber over it is a single critical point of the Wronskian
    operator, iff a_1 + 3 b_0 = 0 on the fiber.
    """
    w0, w1, w2, w3 = (complex(x) for x in w)
    return w2 * w2 + 12.0 * w0 - 3.0 * w1 * w3


def cubic_fiber_explicit(w):
    """Both branches of the cubic Wronskian fiber over z^4 + w3 z^3 + ... + w0.

    b_1 = w_3/2, a_0 = -w_1/2, a_1 = (-w_2 +- s)/2, b_0 = (w_2 +- s)/6 with
    s the principal square root of the criticality discriminant; a single
    merged solution is reported once when s vanishes.
    """
    w0, w1, w2, w3 = (complex(x) for x in w)
    disc = criticality_discriminant((w0, w1, w2, w3))
    s = cmath.sqrt(disc)
    b1 = w3 / 2.0
    a0 = -w1 / 2.0
    out = []
    for sign in (1.0, -1.0):
        a1 = 0.5 * (-w2 + sign * s)
        b0 = (w2 + sign * s) / 6.0
        out.append(NormalizedMapCoords(2, (a0, a1), (b0, b1)))
    scale = 1.0 + max(abs(w0), abs(w1), abs(w2), abs(w3))
    if abs(s) <= 1e-8 * scale:
        return out[:1]
    return out


def h_alpha(alpha) -> RationalMap:
    """The degree-3 family h_a(z) = (a(z^3+2) + 3z^2) / (3az + 2z^3 + 1).

    Critical points {1, j, j^2, a^2}; requires a^6 != 1.
    """
    a = complex(alpha)
    if abs(a**6 - 1.0) <= 1e-9:
        raise DegenerateInput("alpha^6 = 1 degenerates the family")
    num = Poly((2.0 * a, 0.0, 3.0, a))
    den = Poly((1.0, 3.0 * a, 0.0, 2.0))
    return RationalMap(num, den)


def four_group(points):
    """The three non-identity Mobius involutions permuting the four points.

    M_{a,b} sends a,b,c to b,a,d; the fourth point is carried correctly by
    cross-ratio preservation and is validated rather than assumed.
    """
    a, b, c, d = _check_four(points)
    pairings = (
        ((a, b, c), (b, a, d), d, c),
        ((a, c, b), (c, a, d), d, b),
        ((a, d, b), (d, a, c), c, b),
    )
    out = []
    for src, dst, fourth_src, fourth_dst in pairings:
        m = mobius_from_triples(src, dst)
        if not riemann_close(m(fourth_src), fourth_dst, tol=1e-8):
            raise DegenerateInput("four-group construction failed validation")
        out.append(m)
    return out


def _induced_permutation(m: Mobius, points, tol=1e-6):
    perm = []
    for p in points:
        image = m(p)
        match = None
        for i, q in enumerate(points):
            if riemann_close(image, q, tol=tol):
                match = i
                break
        if match is None:
            raise DegenerateInput("map does not permute the point set")
        perm.append(match)
    return tuple(perm)


def lift_correspondence(f: RationalMap):
    """The bijection M <-> N between the four-groups of critical points and
    critical values of a cubic f, with f o M = N o f.

    Returns three (M, N) pairs, each verified at 20 sample points in the
    chordal metric (sup residual <= 1e-7)."""
    crit = critical_points(f)
    if len(crit) != 4:
        raise DegenerateInput("need four distinct finite critical points")
    values = [f(c) for c in crit]
    require_distinct(values, "critical values", tol=1e-8)
    ms = four_group(crit)
    ns = four_group(values)
    pairs = []
    for m in ms:
        perm = _induced_permutation(m, crit)
        n_match = None
        for n in ns:
            if _induced_permutation(n, values) == perm:
                n_match = n
                break
        if n_match is None:
            # Rigidity still pins N by the permutation on values directly.
            n_match = mobius_from_triples(
                (values[0], values[1], values[2]),
                (values[perm[0]], values[perm[1]], values[perm[2]]),
            )
        if not _verify_lift(f, m, n_match):
            raise DegenerateInput("lift verification failed")
        pairs.append((m, n_match))
    return pairs


def _verify_lift(f, m, n):
    for k in range(20):
        z = 1.7 * cmath.exp(2j * cmath.pi * (k + 0.37) / 20)
        lhs = f(m(z))
        rhs = n(f(z))
        if not riemann_close(lhs, rhs, tol=1e-7):
            return False
    return True
