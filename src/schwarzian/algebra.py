"""Complex polynomials, rational functions, truncated series and Mobius maps.

Conventions used throughout the package:

* polynomials are dense, coefficients ascending by degree, complex doubles;
* a coefficient c is treated as zero when |c| <= ZERO_TOL * (1 + max |coeff|)
  of the polynomial it belongs to;
* the point at infinity is the tagged constant ``INF``, never a large float.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, NonConvergence

# Every tolerance of the package, with the scale it multiplies (x).  The paper's
# conditions are exact, so each decision made in floats reads one of these.
ZERO_TOL = 1e-12  # a Poly coefficient is 0: x (1 + max |coeff|)
ROUNDING_TOL = 1e-12  # a sum is 0 to the rounding of its terms: x sum of their |.|
DISTINCT_TOL = 1e-12  # points p, q coincide: x (1 + |p|); a cross ratio vs 0 and 1: x 1
SINGULAR_TOL = 1e-14  # a Mobius matrix is singular: x (|ad| + |bc|), the rounding of det
ROOT_ORDER_GRID = 1e-9  # spacing of the grid ordering roots: absolute, in units of z
CLUSTER_RADIUS = 1e-4  # a root is in a cluster: x (1 + |its first root or the point asked|)
GCD_TOL = 1e-8  # read by poly_gcd only: a remainder is 0: x 1; g divides p: x (1 + max |p_k|)
# The paper's conditions: leading = (1 - d^2)/2, x (1 + |leading|); the resonant
# equation, x (1 + max |a_1..a_d|); L_i = E_m = 0, x (1 + max |c_i|, |A_i|)^2.
CRITERION_TOL = 1e-8
UNIT_TOL = 1e-9  # a dimensionless value is 1 (monic lead, |multiplier|, alpha^6): x 1
BRANCH_TOL = 1e-14  # Re sqrt(1 - 2 leading) is 0, choosing the branch: absolute
NEWTON_TOL = 1e-9  # Newton accepts: max |residual| over the target dilated to root scale 1
DEDUP_TOL = 1e-6  # two fiber points are one: max-norm distance, dilated coordinates
TETRAHEDRON_TOL = 1e-8  # quartic invariant I is 0: x |J|^(2/3), unchanged by Mobius maps
CRITICAL_VALUE_TOL = 1e-8  # a cubic's critical values are apart: x (1 + |value|)
FOUR_GROUP_TOL = 1e-8  # chordal: a four-group involution's image of the fourth point
LIFT_TOL = 1e-7  # chordal: f o M = N o f for a lift of a cubic

# Primitive cube root of unity, j = exp(2*pi*i/3).
J = complex(-0.5, math.sqrt(3.0) / 2.0)


class _Infinity:
    """The distinguished point of the Riemann sphere."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __complex__(self):
        raise DegenerateInput("infinity given where a finite point is needed")


INF = _Infinity()


def is_inf(z) -> bool:
    return z is INF


def _trim(coeffs):
    c = [complex(x) for x in coeffs]
    if not c:
        return []
    scale = max(abs(x) for x in c)
    tol = ZERO_TOL * (1.0 + scale)
    n = len(c)
    while n > 0 and abs(c[n - 1]) <= tol:
        n -= 1
    return c[:n]


class Poly:
    """Dense complex polynomial, ascending coefficients, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = tuple(_trim(coeffs))

    @staticmethod
    def zero():
        return Poly(())

    @staticmethod
    def one():
        return Poly((1.0,))

    @staticmethod
    def from_roots(roots):
        out = [1.0 + 0j]
        for r in roots:
            # Multiply by (z - r) in place, top coefficient first.
            nr = -complex(r)
            out.append(out[-1])
            for k in range(len(out) - 2, 0, -1):
                out[k] = out[k - 1] + out[k] * nr
            out[0] = out[0] * nr
        return Poly(out)

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    @property
    def lead(self):
        if self.is_zero:
            raise DegenerateInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def scale(self):
        return max((abs(c) for c in self.coeffs), default=0.0)

    def __call__(self, z):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Poly(a)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Poly.zero()
        return Poly(np.convolve(self.coeffs, other.coeffs).tolist())

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def deriv(self):
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self):
        if self.is_zero:
            raise DegenerateInput("cannot normalize the zero polynomial")
        lead = self.lead
        return Poly([c / lead for c in self.coeffs])

    def shift(self, c):
        """Coefficients of p(t + c), i.e. the Taylor expansion about c."""
        c = complex(c)
        out = list(self.coeffs)
        n = len(out)
        # Repeated synthetic division by (z - c).
        for i in range(n - 1):
            for k in range(n - 2, i - 1, -1):
                out[k] += c * out[k + 1]
        return out

    def divmod(self, other):
        other = _as_poly(other)
        if other.is_zero:
            raise DegenerateInput("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), Poly(rem)
        quot = [0j] * (dq + 1)
        dcoef = other.coeffs
        for i in range(dq, -1, -1):
            q = rem[i + len(dcoef) - 1] / dcoef[-1]
            quot[i] = q
            for k, c in enumerate(dcoef):
                rem[i + k] -= q * c
        return Poly(quot), Poly(rem)


def _w(p, q):
    """Ascending coefficients of p'q - q'p; bilinear in the arrays p and q."""
    return (np.convolve(p[1:] * np.arange(1, len(p)), q)
            - np.convolve(q[1:] * np.arange(1, len(q)), p))


def _as_poly(p):
    if isinstance(p, Poly):
        return p
    if isinstance(p, (int, float, complex)):
        return Poly((complex(p),))
    return Poly(p)


def poly_roots(p: Poly):
    """All roots with multiplicity, deterministically ordered.

    Companion-matrix eigenvalues; order is lexicographic by (re, im) after
    rounding to ROOT_ORDER_GRID.  Raises NonConvergence if the eigenvalue
    iteration fails.
    """
    if p.is_zero or p.degree < 1:
        raise DegenerateInput("root finding needs degree >= 1")
    try:
        rts = np.roots(list(reversed(p.coeffs)))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NonConvergence(str(exc))
    rts = [complex(r) for r in rts]
    grid = ROOT_ORDER_GRID
    rts.sort(key=lambda z: (round(z.real / grid), round(z.imag / grid), z.real, z.imag))
    return rts


def root_clusters(p: Poly):
    """Distinct roots of p as (center, multiplicity) pairs, in poly_roots order.

    A root joins the first cluster whose first root lies within relative
    distance CLUSTER_RADIUS, and the center is the cluster mean: a
    numerically split multiple root recovers its center to near machine
    precision.  The radius
    must absorb the splitting of a numerical double root, which can reach
    ~1e-5 for badly scaled octics.
    """
    if p.degree < 1:
        return []
    clusters = []
    for r in poly_roots(p):
        for cl in clusters:
            if abs(r - cl[0]) <= CLUSTER_RADIUS * (1.0 + abs(cl[0])):
                cl.append(r)
                break
        else:
            clusters.append([r])
    return [(sum(cl) / len(cl), len(cl)) for cl in clusters]


def poly_resultant(p: Poly, q: Poly):
    """Sylvester-matrix determinant; zero iff p and q share a root.

    Nothing in the package calls it; the benchmark's tracer wraps it by name."""
    if p.is_zero or q.is_zero:
        raise DegenerateInput("resultant needs nonzero polynomials")
    m, n = p.degree, q.degree
    if m == 0:
        return p.coeffs[0] ** n
    if n == 0:
        return q.coeffs[0] ** m
    size = m + n
    s = np.zeros((size, size), dtype=complex)
    prow = list(reversed(p.coeffs))
    qrow = list(reversed(q.coeffs))
    for i in range(n):
        s[i, i : i + m + 1] = prow
    for i in range(m):
        s[n + i, i : i + n + 1] = qrow
    return complex(np.linalg.det(s))


def poly_gcd(p: Poly, q: Poly):
    """Approximate monic GCD.

    Euclid with monic normalization at every step; a remainder is declared
    zero when its scale drops below GCD_TOL.  The candidate is verified by
    division; when that fails, p and q have roots too close to tell shared
    from distinct, and DegenerateInput is raised.

    Nothing in the package calls it: a GCD at an absolute tolerance cancels
    roots that are only close.  The benchmark's tracer wraps it by name.
    """
    if p.is_zero:
        return q.monic() if not q.is_zero else Poly.zero()
    if q.is_zero:
        return p.monic()
    a, b = p.monic(), q.monic()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        _, r = a.divmod(b)
        if r.is_zero or r.scale() <= GCD_TOL:
            g = b.monic()
            if _divides(p, g) and _divides(q, g):
                return g
            raise DegenerateInput("polynomials nearly share a root")
        a, b = b, r.monic()
    return a.monic()


def _divides(p: Poly, g: Poly) -> bool:
    _, r = p.divmod(g)
    return r.is_zero or r.scale() <= GCD_TOL * (1.0 + p.scale())


class RationalMap:
    """num/den stored as given, with the denominator made monic.

    Nothing is cancelled: a root shared by num and den stays in both (see
    require_coprime for input that must not have one).  ``reduce`` has no
    effect; it is accepted because the benchmark's workloads pass it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den, reduce=None):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise DegenerateInput("zero denominator")
        if num.is_zero:
            self.num = Poly.zero()
            self.den = Poly.one()
            return
        lead = den.lead
        self.num = Poly([c / lead for c in num.coeffs])
        self.den = den.monic()

    @property
    def is_zero(self):
        return self.num.is_zero

    def __call__(self, z):
        if is_inf(z):
            dn, dd = self.num.degree, self.den.degree
            if dn > dd:
                return INF
            if dn < dd:
                return 0j
            return self.num.lead / self.den.lead
        nv = self.num(z)
        dv = self.den(z)
        if abs(dv) == 0.0:
            return INF
        return nv / dv

    def degree(self):
        return max(self.num.degree, self.den.degree)

    def __repr__(self):
        return f"RationalMap({self.num!r}, {self.den!r})"


@dataclass(frozen=True)
class TruncatedSeries:
    """Finitely many Taylor coefficients about a base point.

    coeffs[k] is the coefficient of (z - base)^k unless the consumer
    documents a different offset (the tail series q starts at a_1).
    """

    base: complex
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if len(self.coeffs) < 1:
            raise DegenerateInput("series needs at least one retained term")

    @property
    def order(self):
        return len(self.coeffs)


# Truncated power series helpers on plain coefficient lists (base 0).

def series_mul(a, b, n):
    # Both factors padded to n terms: coefficient k then sums the same
    # products in the same order at every n.
    a, b = (list(x[:n]) + [0j] * (n - len(x[:n])) for x in (a, b))
    return np.convolve(a, b)[:n].tolist()


def series_inv(a, n):
    if abs(a[0]) == 0.0:
        raise DegenerateInput("series inverse needs nonzero constant term")
    out = [0j] * n
    out[0] = 1.0 / a[0]
    for k in range(1, n):
        s = 0j
        for i in range(1, min(k, len(a) - 1) + 1):
            s += a[i] * out[k - i]
        out[k] = -s / a[0]
    return out


def series_div(a, b, n):
    return series_mul(a, series_inv(b, n), n)


class Mobius:
    """2x2 complex matrix acting on the Riemann sphere, det normalized to 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        det = a * d - b * c
        if abs(det) <= SINGULAR_TOL * (abs(a * d) + abs(b * c)):
            raise DegenerateInput("singular Mobius matrix")
        s = cmath.sqrt(det)
        self.a, self.b, self.c, self.d = a / s, b / s, c / s, d / s

    def __call__(self, z):
        if is_inf(z):
            if abs(self.c) == 0.0:
                return INF
            return self.a / self.c
        z = complex(z)
        denom = self.c * z + self.d
        if abs(denom) == 0.0:
            return INF
        return (self.a * z + self.b) / denom

    def compose(self, other):
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    __matmul__ = compose

    def inverse(self):
        return Mobius(self.d, -self.b, -self.c, self.a)

    def __repr__(self):
        return f"Mobius({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def _to_zero_one_inf(z1, z2, z3):
    """Matrix of the Mobius map sending (z1, z2, z3) to (0, 1, INF)."""
    if is_inf(z1):
        return Mobius(0, z2 - z3, 1, -z3)
    if is_inf(z2):
        return Mobius(1, -z1, 1, -z3)
    if is_inf(z3):
        return Mobius(1, -z1, 0, z2 - z1)
    return Mobius(z2 - z3, -z1 * (z2 - z3), z2 - z1, -z3 * (z2 - z1))


def require_distinct(points, what, tol=DISTINCT_TOL):
    """Raise DegenerateInput unless the Riemann-sphere points are pairwise
    distinct: no two INF, and finite p, q with |p - q| > tol * (1 + |p|)."""
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            if is_inf(p) or is_inf(q):
                collide = is_inf(p) and is_inf(q)
            else:
                collide = abs(complex(p) - complex(q)) <= tol * (1.0 + abs(complex(p)))
            if collide:
                raise DegenerateInput(f"{what} must be pairwise distinct")


def require_coprime(num: Poly, den: Poly, what):
    """Raise DegenerateInput when num vanishes at a root r of den to within
    the rounding of its terms, |num(r)| <= ROUNDING_TOL sum_k |num_k| |r|^k:
    a backward-error test, free of the scale of z and of num."""
    if num.is_zero or den.degree < 1:
        return
    for r in poly_roots(den):
        terms = sum(abs(c) * abs(r) ** k for k, c in enumerate(num.coeffs))
        if abs(num(r)) <= ROUNDING_TOL * terms:
            raise DegenerateInput(f"{what} share a root")


def mobius_from_triples(src, dst) -> Mobius:
    """The unique Mobius map carrying the src triple to the dst triple in order."""
    src = tuple(src)
    dst = tuple(dst)
    if len(src) != 3 or len(dst) != 3:
        raise DegenerateInput("need exactly three source and target points")
    require_distinct(src, "triple points")
    require_distinct(dst, "triple points")
    return _to_zero_one_inf(*dst).inverse().compose(_to_zero_one_inf(*src))


def _chordal(p, q):
    """Chordal distance between two Riemann-sphere points."""
    if is_inf(p) and is_inf(q):
        return 0.0
    if is_inf(p) or is_inf(q):
        finite = q if is_inf(p) else p
        return 1.0 / math.hypot(1.0, abs(finite))
    p, q = complex(p), complex(q)
    return abs(p - q) / math.sqrt((1.0 + abs(p) ** 2) * (1.0 + abs(q) ** 2))


def riemann_close(p, q, tol):
    """Chordal-metric comparison of two Riemann-sphere points."""
    return _chordal(p, q) <= tol
