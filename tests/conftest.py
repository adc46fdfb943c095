"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from schwarzian import J, Poly, RationalMap
from schwarzian.algebra import series_div, series_mul


def rand_complex(rng, scale=1.0):
    return complex(rng.normal() * scale, rng.normal() * scale)


def rand_poly(rng, degree, scale=1.0):
    coeffs = [rand_complex(rng, scale) for _ in range(degree)]
    coeffs.append(rand_complex(rng, scale) + 2.0)  # keep the degree honest
    return Poly(coeffs)


def compose_rational(u: RationalMap, v: RationalMap) -> RationalMap:
    """u(v(z)) by Horner evaluation of u's numerator and denominator at v."""

    def eval_poly_at(p, arg):
        acc = RationalMap(Poly.zero(), Poly.one(), reduce=False)
        for c in reversed(p.coeffs):
            acc = acc * arg + c
        return acc

    num = eval_poly_at(u.num, v)
    den = eval_poly_at(u.den, v)
    return num / den


def series_schwarzian_laurent(f_series, d, n_out):
    """Independent oracle: Laurent coefficients of the Schwarzian of a
    truncated primitive with leading term t^d/d.

    Returns s[k] = coefficient of t^(k-2), k = 0..n_out, computed by formal
    differentiation and series division only.
    """
    co = list(f_series.coeffs)
    fp = [k * c for k, c in enumerate(co)][1:]
    fpp = [k * c for k, c in enumerate(fp)][1:]
    b = fp[d - 1 :]
    a = fpp[d - 2 :] if d >= 2 else fpp
    n = min(len(a), len(b))
    c_ser = series_div(a, b, n)  # f''/f' = c(t)/t, c[0] = d-1
    sq = series_mul(c_ser, c_ser, n)
    return [(m - 1) * c_ser[m] - sq[m] / 2.0 for m in range(min(n, n_out + 1))]


def log_derivative_schwarzian(num, den, z):
    """Independent oracle: S_f(z) for f = num/den (ascending coefficient
    arrays) as u' - u^2/2 with u = f''/f' = W'/W - 2d'/d, where f' = W/d^2
    and W = num' den - num den'; numpy polynomials, evaluated pointwise."""
    w = npoly.polysub(npoly.polymul(npoly.polyder(num), den),
                      npoly.polymul(num, npoly.polyder(den)))
    w0, w1, w2 = (npoly.polyval(z, npoly.polyder(w, k)) for k in range(3))
    d0, d1, d2 = (npoly.polyval(z, npoly.polyder(den, k)) for k in range(3))
    u = w1 / w0 - 2 * d1 / d0
    du = (w2 * w0 - w1 * w1) / (w0 * w0) - 2 * (d2 * d0 - d1 * d1) / (d0 * d0)
    return du - u * u / 2


def partial_fraction_residues(phi: RationalMap, poles):
    """Independent oracle: for phi with double poles at the given points,
    the (z-c)^-2 and (z-c)^-1 coefficients via limits of derivatives."""
    out = []
    for c in poles:
        g = lambda z: phi(z) * (z - c) ** 2
        # radius balances truncation against cancellation noise in phi
        h = 1e-3
        samples = [g(c + h * np.exp(2j * np.pi * k / 8)) for k in range(8)]
        lead = sum(samples) / 8
        resid = sum(
            g(c + h * np.exp(2j * np.pi * k / 8)) * np.exp(-2j * np.pi * k / 8)
            for k in range(8)
        ) / (8 * h)
        out.append((complex(lead), complex(resid)))
    return out


def exact_laurent(phi: RationalMap, c, m, n_terms):
    """Independent oracle: the first n_terms coefficients of (z-c)^2 phi(z)
    about c, [leading, a_1, a_2, ...], for a pole of order m at c.

    The Taylor shift and the series division run in exact complex rationals
    on (Fraction, Fraction) pairs; floats are exact rationals, so only the
    final conversion back to complex rounds.  The m lowest shifted
    denominator coefficients are dropped, as for an exact root of order m.
    """

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def shift(coeffs, z):
        work = [(Fraction(x.real), Fraction(x.imag)) for x in map(complex, coeffs)]
        for i in range(len(work)):
            for j in range(len(work) - 2, i - 1, -1):
                prod = mul(z, work[j + 1])
                work[j] = (work[j][0] + prod[0], work[j][1] + prod[1])
        return work

    c = complex(c)
    z = (Fraction(c.real), Fraction(c.imag))
    num = shift(phi.num.coeffs, z)
    den = shift(phi.den.coeffs, z)[m:]
    norm = den[0][0] ** 2 + den[0][1] ** 2
    inv0 = (den[0][0] / norm, -den[0][1] / norm)
    quot = []
    for k in range(n_terms - (2 - m)):
        acc = num[k] if k < len(num) else (Fraction(0), Fraction(0))
        for j in range(1, min(k, len(den) - 1) + 1):
            prod = mul(den[j], quot[k - j])
            acc = (acc[0] - prod[0], acc[1] - prod[1])
        quot.append(mul(acc, inv0))
    return ([0j] * (2 - m) + [complex(x[0], x[1]) for x in quot])[:n_terms]


@pytest.fixture
def rng():
    return np.random.default_rng(20160101)


@pytest.fixture
def f1():
    """z^2 / (z-1)^2."""
    return RationalMap(Poly([0, 0, 1]), Poly([1, -2, 1]))


@pytest.fixture
def f2():
    """2z^3 - 3z^2."""
    return RationalMap(Poly([0, 0, -3, 2]), Poly([1]))


@pytest.fixture
def phi1():
    """-3 / (2 z^2 (z-1)^2)."""
    return RationalMap(Poly([-1.5]), Poly([0, 0, 1, -2, 1]))


@pytest.fixture
def phi2():
    """-(8z^2 - 8z + 3) / (2 z^2 (z-1)^2)."""
    return RationalMap(Poly([-1.5, 4, -4]), Poly([0, 0, 1, -2, 1]))


@pytest.fixture
def corpus():
    """Rational maps with known critical structure used across suites."""
    from schwarzian.cubic import h_alpha

    return [
        RationalMap(Poly([0, 0, 1]), Poly([1])),  # z^2
        RationalMap(Poly([0, 0, -3, 2]), Poly([1])),  # 2z^3 - 3z^2
        RationalMap(Poly([0, 0, 0, 0, 1]), Poly([1])),  # z^4
        RationalMap(Poly([0, 0, 1]), Poly([1, -2, 1])),  # z^2/(z-1)^2
        RationalMap(Poly([-1, 0, 1]), Poly([0, 1])),  # (z^2-1)/z
        h_alpha(2),
    ]


JJ = J
