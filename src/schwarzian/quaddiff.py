"""Schwarzian derivatives and the pole data of quadratic differentials.

The Schwarzian of f = n/d is computed in complex floating-point polynomial
arithmetic (Poly) through the Wronskian W = n'd - nd'.  Since f' = W/d^2 and
W'd' - Wd'' = d(n''d' - n'd''),

    S_f = [ W''W - (3/2)W'^2 + 2W(n''d' - n'd'') ] / W^2

with no division by d.  A critical point c of multiplicity k is a root of W
of order k and of the bracket of order 2k - 2, and S_f has a double pole
there, so both are divided by (z - c)^(2k - 2); nothing else is cancelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .algebra import (CLUSTER_RADIUS, CRITERION_TOL, Poly, RationalMap, _w, poly_roots,
                      root_clusters, series_div)
from .errors import DegenerateInput, PoleTooHigh


@dataclass(frozen=True)
class LaurentData:
    """Germ of a quadratic differential at a finite double (or simple) pole.

    ``leading`` is the (z-c)^-2 coefficient; simple poles carry leading = 0
    with residue_and_tail[0] != 0.
    """

    pole: complex
    leading: complex
    residue_and_tail: tuple

    def _integer_delta(self) -> Optional[int]:
        # The one integer-degree test: leading = (1 - d^2)/2 for an integer
        # d >= 0, within CRITERION_TOL relative; d = 0 is the parabolic germ.
        lead = complex(self.leading)
        d = round(math.sqrt(max(1.0 - 2.0 * lead.real, 0.0)))
        if abs(lead - (1.0 - d * d) / 2.0) <= CRITERION_TOL * (1.0 + abs(lead)):
            return d
        return None

    @property
    def local_degree_hint(self) -> Optional[int]:
        """The local degree d >= 1 when leading = (1-d^2)/2, else None."""
        return self._integer_delta() or None


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


def _wronskian(p: Poly, q: Poly) -> Poly:
    # Two zeros of padding keep p' and q' nonempty for a constant or zero p, q.
    return Poly(_w(p.coeffs + (0j, 0j), q.coeffs + (0j, 0j)))


def numerator_wronskian(f: RationalMap) -> Poly:
    """W = n'd - nd'; its roots are the finite critical points of f."""
    return _wronskian(f.num, f.den)


def schwarzian(f: RationalMap) -> RationalMap:
    """S_f = f'''/f' - (3/2)(f''/f')^2 as a rational map whose denominator
    is prod (z - c_i)^2 over the distinct finite critical points c_i: W^2
    divided by prod (z - c_i)^(2k_i - 2), with (c_i, k_i) = root_clusters(W)."""
    if f.degree() < 1:
        raise DegenerateInput("constant map has no Schwarzian derivative")
    w = numerator_wronskian(f)
    if w.is_zero:
        raise DegenerateInput("constant map has no Schwarzian derivative")
    wp = w.deriv()
    bracket = wp.deriv() * w - 1.5 * (wp * wp) \
        + 2.0 * (w * _wronskian(f.num.deriv(), f.den.deriv()))
    g = Poly.from_roots([c for c, k in root_clusters(w) for _ in range(k - 1)])
    if g.degree >= 1:
        w = w.divmod(g)[0]
        bracket = bracket.divmod(g * g)[0]
    return RationalMap(bracket, w * w)


def laurent_at(phi: RationalMap, c, order: int) -> LaurentData:
    """Leading coefficient and tail a_1..a_order of phi about the point c.

    Requires c to be at worst a double pole; the expansion satisfies
    phi(z) = leading/(z-c)^2 + sum a_k (z-c)^(k-2) + O((z-c)^(order-1)).
    The pole order m at c is the multiplicity of the denominator root
    cluster (see root_clusters) within relative distance CLUSTER_RADIUS of c.

    The shift to c and the series division run in complex floats.  Measured
    against exact rational arithmetic (tests/conftest.exact_laurent), the
    leading term and a_1..a_d (d the local degree) agree to 1.2e-12 relative
    to 1 + max|a_k| on Schwarzians of 60 random degree-2..4 maps (20 per
    degree, default_rng(1511)) with poles scaled by 1e-2, 1 and (degree 2)
    1e2, and the whole order-12 tail to 1.8e-15 on h_alpha(2).
    """
    c = complex(c)
    return _expand(phi, c, _pole_order(phi.den, c), order)


def _pole_order(den, c: complex) -> int:
    return sum(k for center, k in root_clusters(den)
               if abs(center - c) <= CLUSTER_RADIUS * (1.0 + abs(c)))


def _expand(phi: RationalMap, c: complex, m: int, order: int) -> LaurentData:
    # phi = N(t)/(t^m D(t)) with t = z - c, so (z-c)^2 phi = t^(2-m) N/D.
    if order < 1:
        raise DegenerateInput("order must be >= 1")
    if m > 2:
        raise PoleTooHigh(f"pole of order {m} at {c}")
    u = series_div(phi.num.shift(c), phi.den.shift(c)[m:], order + m - 1)
    full = [0j] * (2 - m) + u
    return LaurentData(pole=c, leading=full[0], residue_and_tail=tuple(full[1 : order + 1]))


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


def critical_points(f: RationalMap):
    """Finite critical points of f (roots of the numerator Wronskian)."""
    w = numerator_wronskian(f)
    if w.degree < 1:
        return []
    return poly_roots(w)


def pole_report(phi: RationalMap, order: int = 8):
    """Laurent data of phi at each finite pole, plus the infinity type.

    Each cluster of denominator roots (see root_clusters) is one pole,
    expanded about the cluster center.
    """
    poles = [_expand(phi, center, m, order) for center, m in root_clusters(phi.den)]
    return poles, infinity_type(phi)
