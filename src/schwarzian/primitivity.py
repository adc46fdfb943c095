"""Criteria deciding when a germ or a global rational function is a Schwarzian.

Contains the banded determinant condition in the Laurent tail, the equivalent
log-coefficient obstruction from the series recursion, the holonomy class of
the induced projective structure at a puncture, and the L_i / E_m polynomial
systems characterizing Schwarzians of rational and polynomial maps with
prescribed simple critical points.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .algebra import Poly, RationalMap, TruncatedSeries, require_distinct, series_inv, series_mul
from .errors import DegenerateInput, ObstructionNonzero
from .quaddiff import LaurentData, e_sums, pole_report

RESIDUAL_TOL = 1e-8
OBSTRUCTION_TOL = 1e-8


@dataclass(frozen=True)
class CriticalConfiguration:
    """Prescribed critical points c_i with companion residue parameters A_i."""

    points: tuple
    params: tuple

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        prm = tuple(complex(a) for a in self.params)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "params", prm)
        if len(pts) != len(prm):
            raise DegenerateInput("points and params must have equal length")
        require_distinct(pts, "critical points")

    @classmethod
    def from_phi(cls, phi: RationalMap) -> CriticalConfiguration:
        """The poles of phi with A = -(2/3) a_1, since a_1 = -(3/2) A at a
        simple critical point.  Series division produces a_1 before any later
        term, so a_1 is the same at every expansion order and order 1 suffices."""
        poles, _ = pole_report(phi, order=1)
        return cls(tuple(g.pole for g in poles),
                   tuple(-2.0 / 3.0 * g.residue_and_tail[0] for g in poles))


class HolonomyClass:
    """Conjugacy class of the holonomy generator around a puncture."""

    ELLIPTIC = "Elliptic"
    PARABOLIC_ZERO = "ParabolicNonIntegerZero"
    PARABOLIC_OBSTRUCTED = "ParabolicObstructed"
    IDENTITY = "Identity"

    def __init__(self, kind, multiplier=None, obstruction=None, unitary=True):
        self.kind = kind
        self.multiplier = multiplier
        self.obstruction = obstruction
        self.unitary = unitary

    def __repr__(self):
        extra = ""
        if self.multiplier is not None:
            extra = f", multiplier={self.multiplier}"
        if self.obstruction is not None:
            extra = f", obstruction={self.obstruction}"
        return f"HolonomyClass({self.kind}{extra})"


def k_coefficients(d: int):
    """k_j = 2j(j - d) for j = 1..d-1 (empty for d = 1)."""
    if d < 1:
        raise DegenerateInput("d must be >= 1")
    return [2.0 * j * (j - d) for j in range(1, d)]


def condition_determinant(d: int, a):
    """The d x d banded determinant in the tail a_1..a_d.

    First column a_1..a_d, superdiagonal k_1..k_{d-1}, Toeplitz a-fill below;
    the germ has a meromorphic Schwarzian primitive iff the value is zero.
    """
    a = [complex(x) for x in a]
    if d < 1 or len(a) != d:
        raise DegenerateInput("need exactly d tail coefficients")
    if d == 1:
        return a[0]
    ks = k_coefficients(d)
    m = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for col in range(d):
            if col == i + 1:
                m[i, col] = ks[i]
            elif col <= i:
                m[i, col] = a[i - col]
    return complex(np.linalg.det(m))


def y_polynomial(d: int, x):
    """The value Y_d(x_1..x_{d-1}) making the determinant vanish at x_d = Y_d.

    The determinant is affine in x_d with slope N = (-1)^(d-1) * prod k_j != 0.
    """
    x = [complex(v) for v in x]
    if d < 1 or len(x) != d - 1:
        raise DegenerateInput("need exactly d-1 coefficients")
    if d == 1:
        return 0j
    det0 = condition_determinant(d, x + [0j])
    slope = 1.0
    for k in k_coefficients(d):
        slope *= k
    slope *= (-1.0) ** (d - 1)
    return -det0 / slope


def g_recursion(delta: int, a, n_terms: int):
    """c_0 = 1 and c_1..c_{n_terms-1} of the series g solving
    2(delta-1)g' - 2zg'' = qg, q = a_1 + a_2 z + ... (a[0] is a_1).

    Recursion -k_n c_n = a_n + a_{n-1} c_1 + ... + a_1 c_{n-1} with
    k_n = 2n(n - delta).  At the resonant index n = delta the right side must
    vanish relative to a_1..a_delta, the coefficients entering that equation
    (ObstructionNonzero otherwise), and c_delta is set to 0.
    """
    c = [1.0 + 0j]
    for n in range(1, n_terms):
        rhs = 0j
        for j in range(n):
            if n - j - 1 < len(a):
                rhs += a[n - j - 1] * c[j]
        if n == delta:
            scale = 1.0 + max((abs(x) for x in a[:delta]), default=0.0)
            if abs(rhs) > OBSTRUCTION_TOL * scale:
                raise ObstructionNonzero(rhs)
            c.append(0j)
        else:
            c.append(-rhs / (2.0 * n * (n - delta)))
    return c


def series_obstruction(d: int, q: TruncatedSeries):
    """The log coefficient b_hat_d of the always-solvable branch.

    Solves the g-recursion with delta = -d (all k_n nonzero), inverts g^2 as a
    series and returns its zeta^d coefficient; vanishes exactly when the
    banded determinant does.
    """
    if d < 1:
        raise DegenerateInput("d must be >= 1")
    if q.order < d + 1:
        raise DegenerateInput("series must carry at least d+1 tail coefficients")
    g = g_recursion(-d, q.coeffs, d + 1)
    g2 = series_mul(g, g, d + 1)
    inv = series_inv(g2, d + 1)
    return inv[d]


def classify_holonomy(germ: LaurentData, q_tail: TruncatedSeries) -> HolonomyClass:
    """Holonomy generator class of the projective structure around the pole.

    delta is the root of 1 - 2*leading with Re delta >= 0 (Im >= 0 when
    Re = 0); non-integer delta gives an elliptic generator with multiplier
    e^(2 pi i delta), delta = 0 a parabolic one, and integer delta >= 1 the
    identity iff the series obstruction vanishes.
    """
    delta = cmath.sqrt(1.0 - 2.0 * complex(germ.leading))
    if delta.real < 0 or (abs(delta.real) < 1e-14 and delta.imag < 0):
        delta = -delta
    d = round(delta.real)
    is_integer = abs(delta - d) <= 1e-9 * (1.0 + abs(delta))
    if is_integer and d == 0:
        return HolonomyClass(HolonomyClass.PARABOLIC_ZERO)
    if is_integer and d >= 1:
        b_hat = series_obstruction(d, q_tail)
        if abs(b_hat) <= RESIDUAL_TOL:
            return HolonomyClass(HolonomyClass.IDENTITY)
        return HolonomyClass(HolonomyClass.PARABOLIC_OBSTRUCTED, obstruction=b_hat)
    multiplier = cmath.exp(2j * cmath.pi * delta)
    unitary = abs(abs(multiplier) - 1.0) <= 1e-9
    return HolonomyClass(HolonomyClass.ELLIPTIC, multiplier=multiplier, unitary=unitary)


def L_values(config: CriticalConfiguration):
    """L_i = 3 A_i^2 - 4 sum_{j != i} (A_j (c_i - c_j) + 1)/(c_i - c_j)^2."""
    pts, prm = config.points, config.params
    out = []
    for i, (ci, ai) in enumerate(zip(pts, prm)):
        s = 0j
        for j, (cj, aj) in enumerate(zip(pts, prm)):
            if j == i:
                continue
            diff = ci - cj
            s += (aj * diff + 1.0) / (diff * diff)
        out.append(3.0 * ai * ai - 4.0 * s)
    return out


def build_phi(config: CriticalConfiguration) -> RationalMap:
    """phi(z) = -(3/2) sum_i (A_i (z - c_i) + 1)/(z - c_i)^2, normalized."""
    pts, prm = config.points, config.params
    den = Poly.one()
    factors = [Poly((-c, 1.0)) for c in pts]
    for f in factors:
        den = den * f * f
    num = Poly.zero()
    for i, (ci, ai) in enumerate(zip(pts, prm)):
        term = Poly((1.0 - ai * ci, ai))
        for j, f in enumerate(factors):
            if j != i:
                term = term * f * f
        num = num + term
    return RationalMap(-1.5 * num, den)


@dataclass
class DecisionRecord:
    """Pass/fail record for a criterion, one residual per equation."""

    variant: str
    equations: list = field(default_factory=list)
    overall: bool = True

    def add(self, name, value, tol, gating=True):
        residual = abs(value)
        ok = residual <= tol
        self.equations.append({"name": name, "residual": residual, "pass": bool(ok),
                               "gating": bool(gating)})
        if gating and not ok:
            self.overall = False
        return ok

    def to_json(self):
        return {
            "variant": self.variant,
            "equations": [
                {"name": e["name"], "residual": e["residual"], "pass": e["pass"]}
                for e in self.equations
            ],
            "overall": self.overall,
        }


RATIONAL_VARIANTS = ("AllL_E123", "DropLastL", "DropE3", "Eremenko_E2only")


def check_rational_criterion(config: CriticalConfiguration,
                             variant: str = "AllL_E123") -> DecisionRecord:
    """Evaluate one of the equivalent rational-map systems in the A_i.

    The dropped equations of the redundant variants are evaluated and
    reported as non-gating, documenting the redundancy claims.
    """
    if variant not in RATIONAL_VARIANTS:
        raise DegenerateInput(f"unknown variant {variant!r}")
    k = len(config.points)
    if k % 2 != 0 or k < 2:
        raise DegenerateInput("need k = 2d-2 critical points for some d >= 2")
    scale = 1.0 + max([abs(c) for c in config.points] + [abs(a) for a in config.params])
    tol = RESIDUAL_TOL * scale * scale
    ls = L_values(config)
    es = e_sums(config.points, config.params, 3)
    rec = DecisionRecord(variant=variant)
    if variant == "Eremenko_E2only":
        rec.variant = "Eremenko_E2only (external claim)"
    n_l_gating = k - 1 if variant == "DropLastL" else k
    for i, l in enumerate(ls):
        rec.add(f"L{i + 1}", l, tol, gating=(i < n_l_gating))
    if variant == "Eremenko_E2only":
        gate = {0: False, 1: True, 2: False}
    elif variant == "DropE3":
        gate = {0: True, 1: True, 2: False}
    else:
        gate = {0: True, 1: True, 2: True}
    for m, e in enumerate(es):
        rec.add(f"E{m + 1}", e, tol, gating=gate[m])
    return rec


def check_polynomial_criterion(points):
    """Construct the polynomial-primitive configuration over the given points.

    A_i = (2/3) sum_{j != i} 1/(c_i - c_j); verifies all L_i = 0, E_1 = 0 and
    -(3/2) E_2 = (1 - (k+1)^2)/2.  Returns (configuration, decision record).
    """
    pts = [complex(p) for p in points]
    k = len(pts)
    if k < 1:
        raise DegenerateInput("need at least one critical point")
    require_distinct(pts, "critical points")
    params = []
    for i, ci in enumerate(pts):
        s = 0j
        for j, cj in enumerate(pts):
            if j != i:
                s += 1.0 / (ci - cj)
        params.append(s * 2.0 / 3.0)
    config = CriticalConfiguration(tuple(pts), tuple(params))
    scale = 1.0 + max(abs(c) for c in pts)
    tol = RESIDUAL_TOL * scale * scale
    rec = DecisionRecord(variant="polynomial")
    for i, l in enumerate(L_values(config)):
        rec.add(f"L{i + 1}", l, tol)
    e1, e2 = e_sums(config.points, config.params, 2)
    rec.add("E1", e1, tol)
    target = (1.0 - (k + 1) ** 2) / 2.0
    rec.add("E2_pole_type", -1.5 * e2 - target, tol * (1.0 + abs(target)))
    return config, rec


def merom_generator(points, residues, G: Poly) -> RationalMap:
    """The general Schwarzian of a meromorphic map with simple critical points.

    psi(z) = sum_i [ -3/(2(z-c_i)^2) + r_i/(z-c_i) + (-r_i^2/2 - v_i) e_i(z) ]
             + G(z) prod_i (z - c_i),
    with e_i the Lagrange basis over the c_i and
    v_i = sum_{j != i} [ -3/(2(c_i-c_j)^2) + r_j/(c_i-c_j) ].

    At every c_i the output has leading -3/2, residue r_i and constant term
    -r_i^2/2, hence satisfies the d = 2 determinant condition there.
    """
    pts = [complex(p) for p in points]
    res = [complex(r) for r in residues]
    if len(pts) != len(res):
        raise DegenerateInput("points and residues must have equal length")
    require_distinct(pts, "critical points")
    factors = [Poly((-c, 1.0)) for c in pts]
    prod_all = Poly.one()
    den = Poly.one()
    for f in factors:
        prod_all = prod_all * f
        den = den * f * f
    # everything is assembled over the common denominator directly; no
    # pairwise reduction, so no approximate GCD can misfire
    num = G * prod_all * den
    for i, (ci, ri) in enumerate(zip(pts, res)):
        vi = 0j
        for j, (cj, rj) in enumerate(zip(pts, res)):
            if j == i:
                continue
            diff = ci - cj
            vi += -1.5 / (diff * diff) + rj / diff
        others_sq = Poly.one()
        ei_num = Poly.one()
        ei_den = 1.0 + 0j
        for j, fj in enumerate(factors):
            if j != i:
                others_sq = others_sq * fj * fj
                ei_num = ei_num * fj
                ei_den *= pts[i] - pts[j]
        num = num + (-1.5) * others_sq
        num = num + ri * (factors[i] * others_sq)
        num = num + ((-0.5 * ri * ri - vi) / ei_den) * (ei_num * den)
    return RationalMap(num, den, reduce=False)
