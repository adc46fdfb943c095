"""Schwarzian derivatives and the pole data of quadratic differentials.

The Schwarzian of f = n/d is computed by exact rational calculus through the
Wronskian W = n'd - nd'.  Since f' = W/d^2 and W'd' - Wd'' = d(n''d' - n'd''),

    S_f = [ W''W - (3/2)W'^2 + 2W(n''d' - n'd'') ] / W^2

with no division by d, so the reduced result has denominator W^2 up to
common factors at multiple critical points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Poly, RationalMap, poly_roots, root_clusters
from .errors import DegenerateInput, PoleTooHigh


@dataclass(frozen=True)
class LaurentData:
    """Germ of a quadratic differential at a finite double (or simple) pole.

    ``leading`` is the (z-c)^-2 coefficient; simple poles carry leading = 0
    with residue_and_tail[0] != 0.  When leading = (1-d^2)/2 for an integer
    d >= 1 within tolerance, local_degree_hint is that d.
    """

    pole: complex
    leading: complex
    residue_and_tail: tuple
    local_degree_hint: Optional[int] = None


class InfinityType:
    """Pole type of phi(z) dz^2 at infinity after the w = 1/z change."""

    TRIPLE = "TriplePole"
    DOUBLE = "DoublePole"
    SIMPLE = "SimplePole"
    REGULAR = "Regular"

    def __init__(self, kind, leading=None):
        self.kind = kind
        self.leading = leading

    def __repr__(self):
        if self.kind == self.DOUBLE:
            return f"InfinityType(DoublePole, leading={self.leading})"
        return f"InfinityType({self.kind})"

    def __eq__(self, other):
        if not isinstance(other, InfinityType):
            return NotImplemented
        return self.kind == other.kind


def numerator_wronskian(f: RationalMap) -> Poly:
    """W = n'd - nd'; its roots are the finite critical points of f."""
    return f.num.deriv() * f.den - f.num * f.den.deriv()


def schwarzian(f: RationalMap) -> RationalMap:
    """S_f = f'''/f' - (3/2)(f''/f')^2 as a normalized rational map."""
    if f.degree() < 1:
        raise DegenerateInput("constant map has no Schwarzian derivative")
    w = numerator_wronskian(f)
    if w.is_zero:
        raise DegenerateInput("constant map has no Schwarzian derivative")
    n1, d1 = f.num.deriv(), f.den.deriv()
    wp = w.deriv()
    bracket = wp.deriv() * w - 1.5 * (wp * wp) \
        + 2.0 * (w * (n1.deriv() * d1 - n1 * d1.deriv()))
    return RationalMap(bracket, w * w)


# Exact complex rational arithmetic on (Fraction, Fraction) pairs.  Floats are
# exact rationals, so the polynomial shift and the series division below incur
# no rounding at all; only the final conversion back to complex rounds.

def _xc(z):
    z = complex(z)
    return (Fraction(z.real), Fraction(z.imag))


def _xmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _xshift(coeffs, c):
    work = [_xc(x) for x in coeffs]
    n = len(work)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            prod = _xmul(c, work[j + 1])
            work[j] = (work[j][0] + prod[0], work[j][1] + prod[1])
    return work


def _xdiv_series(num, den, n):
    d0 = den[0]
    norm = d0[0] * d0[0] + d0[1] * d0[1]
    inv0 = (d0[0] / norm, -d0[1] / norm)
    out = []
    for k in range(n):
        acc = num[k] if k < len(num) else (Fraction(0), Fraction(0))
        for j in range(1, min(k, len(den) - 1) + 1):
            prod = _xmul(den[j], out[k - j])
            acc = (acc[0] - prod[0], acc[1] - prod[1])
        out.append(_xmul(acc, inv0))
    return out


def laurent_at(phi: RationalMap, c, order: int) -> LaurentData:
    """Leading coefficient and tail a_1..a_order of phi about the point c.

    Requires c to be at worst a double pole; the expansion satisfies
    phi(z) = leading/(z-c)^2 + sum a_k (z-c)^(k-2) + O((z-c)^(order-1)).
    """
    if order < 1:
        raise DegenerateInput("order must be >= 1")
    c = complex(c)
    cx = _xc(c)
    ns = _xshift(phi.num.coeffs, cx) if phi.num.coeffs else []
    ds = _xshift(phi.den.coeffs, cx)
    m = sum(k for center, k in root_clusters(phi.den)
            if abs(center - c) <= 1e-4 * (1.0 + abs(c)))
    if m > 2:
        raise PoleTooHigh(f"pole of order {m} at {c}")
    ds_reduced = ds[m:]
    n_terms = order + 3
    if not ns:
        u = [0j] * n_terms
    else:
        u = [complex(x[0], x[1])
             for x in _xdiv_series(ns, ds_reduced, n_terms)]
    # (z-c)^2 phi = t^(2-m) * u(t)
    shiftpow = 2 - m
    full = [0j] * shiftpow + u
    leading = full[0]
    tail = tuple(full[1 : order + 1])
    hint = _degree_hint(leading)
    return LaurentData(pole=c, leading=leading, residue_and_tail=tail,
                       local_degree_hint=hint)


def _degree_hint(leading):
    # leading = (1 - d^2)/2  =>  d = sqrt(1 - 2*leading)
    val = 1.0 - 2.0 * complex(leading)
    if val.real < 0.0:
        return None
    d = round(math.sqrt(max(val.real, 0.0)))
    if d < 1:
        return None
    target = (1.0 - d * d) / 2.0
    if abs(complex(leading) - target) <= 1e-8 * (1.0 + abs(complex(leading))):
        return d
    return None


def infinity_type(phi: RationalMap) -> InfinityType:
    """Pole type of phi(z) dz^2 at infinity.

    After w = 1/z the differential reads Phi(w) dw^2 with
    Phi(w) = phi(1/w) w^-4 = w^(deg den - deg num - 4) * rev(num)/rev(den).
    """
    if phi.is_zero:
        return InfinityType(InfinityType.REGULAR)
    n, d = phi.num, phi.den
    k = 4 + n.degree - d.degree
    if k > 3:
        raise PoleTooHigh(f"pole of order {k} at infinity; not any Schwarzian")
    if k == 3:
        return InfinityType(InfinityType.TRIPLE)
    if k == 2:
        return InfinityType(InfinityType.DOUBLE, leading=n.lead / d.lead)
    if k == 1:
        return InfinityType(InfinityType.SIMPLE)
    return InfinityType(InfinityType.REGULAR)


def e_sums(points, params, count: int):
    """E_1..E_count with E_{m+1} = sum_i (m c_i^(m-1) + c_i^m A_i).

    The m = 0 term m*c^(m-1) is 0 by convention, also at c = 0.
    """
    if count < 1:
        raise DegenerateInput("count must be >= 1")
    points = [complex(p) for p in points]
    params = [complex(a) for a in params]
    if len(points) != len(params):
        raise DegenerateInput("points and params must have equal length")
    out = []
    for m in range(count):
        s = 0j
        for c, a in zip(points, params):
            if m == 0:
                s += a
            else:
                s += m * c ** (m - 1) + c ** m * a
        out.append(s)
    return out


def critical_points(f: RationalMap, tol: float = 1e-9):
    """Finite critical points of f (roots of the numerator Wronskian)."""
    w = numerator_wronskian(f)
    if w.degree < 1:
        return []
    return poly_roots(w, tol)


def pole_report(phi: RationalMap, order: int = 8):
    """Laurent data of phi at each finite pole, plus the infinity type.

    Each cluster of denominator roots (see root_clusters) is one pole,
    expanded about the cluster center.
    """
    poles = [laurent_at(phi, center, order) for center, _ in root_clusters(phi.den)]
    return poles, infinity_type(phi)
