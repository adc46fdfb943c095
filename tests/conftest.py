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


def rational_close(f: RationalMap, g: RationalMap, tol=1e-8) -> bool:
    """Coefficientwise comparison of the normalized representations: equal
    lengths, and every coefficient within tol * (1 + the largest one)."""
    scale = 1.0 + max(f.num.scale(), g.num.scale(), f.den.scale(), g.den.scale())
    return all(
        len(a.coeffs) == len(b.coeffs)
        and all(abs(x - y) <= tol * scale for x, y in zip(a.coeffs, b.coeffs))
        for a, b in ((f.num, g.num), (f.den, g.den))
    )


def compose_rational(u: RationalMap, v: RationalMap) -> RationalMap:
    """Independent oracle: u(v(z)) for u = P/Q and v = n/d of degree N =
    deg u, as sum P_k n^k d^(N-k) over sum Q_k n^k d^(N-k); numpy.polynomial
    arithmetic."""
    n, d = np.array(v.num.coeffs), np.array(v.den.coeffs)
    top = u.degree()

    def homogenize(coeffs):
        out = np.zeros(1, dtype=complex)
        for k, c in enumerate(coeffs):
            term = npoly.polymul(npoly.polypow(n, k), npoly.polypow(d, top - k))
            out = npoly.polyadd(out, c * term)
        return Poly(out)

    return RationalMap(homogenize(u.num.coeffs), homogenize(u.den.coeffs))


def tetrahedral_images(rng, n):
    """n Mobius images of the regular tetrahedron {0, 1, j, j^2}: the map
    z -> (az + b)/(cz + d) with complex standard-normal a, b, c, d."""
    out = []
    for _ in range(n):
        a, b, c, d = (rng.standard_normal(4) + 1j * rng.standard_normal(4)).tolist()
        out.append([(a * z + b) / (c * z + d) for z in (0j, 1 + 0j, J, J * J)])
    return out


def mobius_is_identity(m) -> bool:
    """+-I to 1e-9 in every entry of the det-1 matrix."""
    return abs(m.b) <= 1e-9 and abs(m.c) <= 1e-9 and any(
        abs(m.a - s) <= 1e-9 and abs(m.d - s) <= 1e-9 for s in (1.0, -1.0))


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


def paper_determinant(d, a):
    """Independent oracle: the paper's d x d banded determinant in a_1..a_d,
    with first column a_1..a_d, superdiagonal k_j = 2j(j - d) and a Toeplitz
    a-fill below; numpy det of the dense matrix."""
    m = np.zeros((d, d), dtype=complex)
    for i in range(d):
        m[i, : i + 1] = a[i::-1]
        if i + 1 < d:
            m[i, i + 1] = 2.0 * (i + 1) * (i + 1 - d)
    return complex(np.linalg.det(m))


def series_b_hat(d, a):
    """Independent oracle: the log coefficient b_hat_d = [z^d] 1/g^2, where
    g = 1 + c_1 z + ... solves the recursion at -d,
    2n(n + d) c_n = -(a_n + a_{n-1} c_1 + ... + a_1 c_{n-1}), whose
    coefficients never vanish; 1/g^2 by a triangular numpy solve."""
    a = np.asarray(a[:d], dtype=complex)
    c = np.zeros(d + 1, dtype=complex)
    c[0] = 1.0
    for n in range(1, d + 1):
        c[n] = -np.dot(a[n - 1::-1], c[:n]) / (2.0 * n * (n + d))
    g2 = np.convolve(c, c)[: d + 1]
    toeplitz = np.array([[g2[i - j] if j <= i else 0 for j in range(d + 1)]
                         for i in range(d + 1)])
    return complex(np.linalg.solve(toeplitz, np.eye(d + 1)[0])[d])


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


def normalized_wronskian(x):
    """Independent oracle: ascending coefficients of p'q - q'p for the
    normalized coordinates x = (a_p, a_q) of length 2*mu, where
    p = sum a_p[i] z^i + z^(mu+1) and q = sum a_q[i] z^i + z^mu;
    numpy.polynomial arithmetic."""
    mu = len(x) // 2
    p = npoly.polyadd(x[:mu], npoly.polypow([0, 1], mu + 1))
    q = npoly.polyadd(x[mu:], npoly.polypow([0, 1], mu))
    return npoly.polysub(npoly.polymul(npoly.polyder(p), q),
                         npoly.polymul(npoly.polyder(q), p))


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
