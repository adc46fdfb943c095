"""Cross ratios, regular ideal tetrahedra, the explicit cubic fiber and
Mobius symmetry of four-point sets."""

from __future__ import annotations

import cmath

from .algebra import (CRITICAL_VALUE_TOL, DISTINCT_TOL, FOUR_GROUP_TOL, LIFT_TOL, ROUNDING_TOL,
                      TETRAHEDRON_TOL, UNIT_TOL, Poly, RationalMap, _to_zero_one_inf,
                      mobius_from_triples, require_distinct, riemann_close)
from .errors import DegenerateInput
from .fiber import NormalizedMapCoords
from .quaddiff import critical_points


def _check_four(points):
    pts = tuple(points)
    if len(pts) != 4:
        raise DegenerateInput("need exactly four points")
    require_distinct(pts, "points")
    return pts


def cross_ratio(a, b, c, d):
    """[a,b,c,d] = (a-c)(b-d) / ((c-b)(d-a)), the image of a under the Mobius
    map sending (c, b, d) to (0, 1, INF); the standard limits at INF."""
    a, b, c, d = _check_four((a, b, c, d))
    return _to_zero_one_inf(c, b, d)(a)


def ratio_orbit(t):
    """The six anharmonic values {t, 1/t, 1-t, 1/(1-t), t/(t-1), (t-1)/t}."""
    t = complex(t)
    if abs(t) <= DISTINCT_TOL or abs(t - 1.0) <= DISTINCT_TOL:
        raise DegenerateInput("cross ratio must avoid 0 and 1")
    return (t, 1.0 / t, 1.0 - t, 1.0 / (1.0 - t), t / (t - 1.0), (t - 1.0) / t)


def _equianharmonic(e, d, c, b, a):
    """True iff the binary quartic a x^4 + b x^3 y + c x^2 y^2 + d x y^3 + e y^4
    has vanishing invariant I = 12ae - 3bd + c^2.

    With distinct roots I = 0 iff the roots are a Mobius image of
    {1, j, j^2, 0}, iff the cubic fiber over the quartic has one branch.
    I counts as zero when
        |I| <= TETRAHEDRON_TOL |J|^(2/3) + ROUNDING_TOL (12|ae| + 3|bd| + |c|^2),
    J = 72ace + 9bcd - 27ad^2 - 27eb^2 - 2c^3.  I^3 / J^2 depends only on the
    cross ratio t of the roots, so the first term is unchanged by Mobius maps;
    near the tetrahedron it reads |t - exp(+-i pi/3)| <= 1.7e-8.  The second
    is the rounding of I's own terms, which leads when the roots lie far from
    0 compared with their spread: on 4e5 Mobius images of the tetrahedron,
    scaled by 1e-3..1e3 and half of them translated by up to 1e3 times their
    spread, |I| was at most 58 machine epsilons times those terms.
    """
    inv_i = 12.0 * a * e - 3.0 * b * d + c * c
    inv_j = (72.0 * a * c * e + 9.0 * b * c * d
             - 27.0 * (a * d * d + e * b * b) - 2.0 * c**3)
    rounding = 12.0 * abs(a * e) + 3.0 * abs(b * d) + abs(c) ** 2
    return abs(inv_i) <= TETRAHEDRON_TOL * abs(inv_j) ** (2.0 / 3.0) + ROUNDING_TOL * rounding


def is_regular_tetrahedron(points) -> bool:
    """True iff the four points are a Mobius image of {1, j, j^2, 0}.

    Tested on the binary quartic x y (x - y)(x - t y), whose roots 0, INF,
    1 and t, t the cross ratio of the points, are a Mobius image of them.
    """
    t = cross_ratio(*_check_four(points))
    return _equianharmonic(0j, t, -1.0 - t, 1.0, 0j)


def criticality_discriminant(w):
    """w_2^2 + 12 w_0 - 3 w_1 w_3 for the monic quartic z^4 + w3 z^3 + ... + w0.

    Zero iff the quartic's (distinct) roots form a regular tetrahedron, iff
    the cubic fiber over it is a single critical point of the Wronskian
    operator, iff a_1 + 3 b_0 = 0 on the fiber.
    """
    w0, w1, w2, w3 = (complex(x) for x in w)
    return w2 * w2 + 12.0 * w0 - 3.0 * w1 * w3


def cubic_fiber_explicit(w):
    """The branches of the cubic Wronskian fiber over z^4 + w3 z^3 + ... + w0.

    b_1 = w_3/2, a_0 = -w_1/2, a_1 = (-w_2 + s)/2, b_0 = (w_2 + s)/6 with
    s = +-sqrt of the criticality discriminant, principal root first.  When
    the quartic is equianharmonic, the same test as is_regular_tetrahedron,
    the discriminant is 0 and the one merged branch s = 0 is reported.
    """
    w0, w1, w2, w3 = (complex(x) for x in w)
    if _equianharmonic(w0, w1, w2, w3, 1.0):
        s_values = (0j,)
    else:
        s = cmath.sqrt(criticality_discriminant((w0, w1, w2, w3)))
        s_values = (s, -s)
    return [NormalizedMapCoords(2, (-w1 / 2.0, 0.5 * (-w2 + s)), ((w2 + s) / 6.0, w3 / 2.0))
            for s in s_values]


def h_alpha(alpha) -> RationalMap:
    """The degree-3 family h_a(z) = (a(z^3+2) + 3z^2) / (3az + 2z^3 + 1).

    Critical points {1, j, j^2, a^2}; requires a^6 != 1, which keeps num and
    den coprime: their resultant is -54(a+1)^2(a^2-a+1)^2.
    """
    a = complex(alpha)
    if abs(a**6 - 1.0) <= UNIT_TOL:
        raise DegenerateInput("alpha^6 = 1 degenerates the family")
    num = Poly((2.0 * a, 0.0, 3.0, a))
    den = Poly((1.0, 3.0 * a, 0.0, 2.0))
    return RationalMap(num, den, reduce=False)


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
        if not riemann_close(m(fourth_src), fourth_dst, tol=FOUR_GROUP_TOL):
            raise DegenerateInput("four-group construction failed validation")
        out.append(m)
    return out


def lift_correspondence(f: RationalMap):
    """The bijection M <-> N between the four-groups of critical points and
    critical values of a cubic f, with f o M = N o f.

    four_group pairs the positions of any four points alike and f sends
    crit[i] to values[i], so the k-th involutions of crit and of values
    correspond.  Each of the three (M, N) pairs is verified at 20 sample
    points in the chordal metric (sup residual <= LIFT_TOL)."""
    crit = critical_points(f)
    if len(crit) != 4:
        raise DegenerateInput("need four distinct finite critical points")
    values = [f(c) for c in crit]
    require_distinct(values, "critical values", tol=CRITICAL_VALUE_TOL)
    pairs = list(zip(four_group(crit), four_group(values)))
    if not all(_verify_lift(f, m, n) for m, n in pairs):
        raise DegenerateInput("lift verification failed")
    return pairs


def _verify_lift(f, m, n):
    for k in range(20):
        z = 1.7 * cmath.exp(2j * cmath.pi * (k + 0.37) / 20)
        lhs = f(m(z))
        rhs = n(f(z))
        if not riemann_close(lhs, rhs, tol=LIFT_TOL):
            return False
    return True
