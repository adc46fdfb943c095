"""Criteria deciding when a germ or a global rational function is a Schwarzian.

The local condition at a pole of leading term (1 - d^2)/2 is one number, r,
the right side of the resonant equation n = d of g_recursion, read from
a_1..a_d.  The banded determinant (-1)^(d-1) (prod k_j) r, b_hat_d = r/(2d^2)
and Y_d(x) = -r(x, 0) are closed forms in it.  Also the holonomy class at a
puncture, and the L_i / E_m systems characterizing Schwarzians of rational and
polynomial maps with prescribed simple critical points.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

from .algebra import (BRANCH_TOL, CRITERION_TOL, UNIT_TOL, Poly, RationalMap, TruncatedSeries,
                      require_distinct)
from .errors import DegenerateInput
from .quaddiff import LaurentData, e_sums


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
    def from_poles(cls, poles) -> CriticalConfiguration:
        """The poles of phi (pole_report's LaurentData) with A = -(2/3) a_1,
        since a_1 = -(3/2) A at a simple critical point; the local degrees are
        not read.  Series division produces a_1 before any later term, so a_1
        is the same at every expansion order and order 1 suffices."""
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


def g_recursion(d: int, a, n_terms: int):
    """c_0 = 1 and c_1..c_{n_terms-1} of the series g solving
    2(d-1)g' - 2zg'' = qg, q = a_1 + a_2 z + ... (a[0] is a_1), and r.

    Recursion -k_n c_n = a_n + a_{n-1} c_1 + ... + a_1 c_{n-1} with
    k_n = 2n(n - d).  At the resonant index n = d, k_d = 0: the right side
    there is r, returned unjudged, and c_d is set to 0.  A tail shorter than
    a_1..a_{n_terms-1} raises DegenerateInput rather than being read as zeros.
    """
    if d < 1 or n_terms < d + 1:
        raise DegenerateInput("need d >= 1 and at least d + 1 terms")
    if len(a) < n_terms - 1:
        raise DegenerateInput(f"need a_1..a_{n_terms - 1}, got {len(a)} tail coefficients")
    c, r = [1.0 + 0j], 0j
    for n in range(1, n_terms):
        rhs = sum(map(operator.mul, a[n - 1::-1], c))  # a_n c_0 + ... + a_1 c_{n-1}
        if n == d:
            c.append(0j)
            r = rhs
        else:
            c.append(-rhs / (2.0 * n * (n - d)))
    return c, r


def _resonance_vanishes(d: int, a, r) -> bool:
    # The one test of the local condition, relative to the a_1..a_d in r.
    return abs(r) <= CRITERION_TOL * (1.0 + max(abs(x) for x in a[:d]))


def condition_determinant(d: int, a):
    """The d x d banded determinant in the tail a_1..a_d, as (-1)^(d-1) (prod k_j) r.

    The paper's M has first column a_1..a_d, superdiagonal k_1..k_{d-1} and a
    Toeplitz a-fill below; the germ has a meromorphic primitive iff det M = 0.
    For c = (c_0..c_{d-1}) of g_recursion, rows 1..d-1 of M c are its equations
    n < d and row d is r, so M c = r e_d.  As c_0 = 1, putting M c in column 1
    keeps det M; expanding that column leaves (-1)^(d-1) r times a lower
    triangular minor with diagonal k_1..k_{d-1}.  Overflows from d = 93.
    """
    if len(a) != d:
        raise DegenerateInput("need exactly d tail coefficients")
    _, r = g_recursion(d, a, d + 1)
    return (-1.0) ** (d - 1) * math.prod(k_coefficients(d)) * r


def y_polynomial(d: int, x):
    """The value Y_d(x_1..x_{d-1}) making the determinant vanish at x_d = Y_d.

    r = a_d + terms in a_1..a_{d-1}, so Y_d(x) = -r(x_1..x_{d-1}, 0).
    """
    if len(x) != d - 1:
        raise DegenerateInput("need exactly d-1 coefficients")
    _, r = g_recursion(d, [*x, 0j], d + 1)
    return -r


def series_obstruction(d: int, q: TruncatedSeries):
    """The log coefficient b_hat_d = r / (2 d^2) of the always-solvable branch.

    b_hat_d = [z^d] 1/g_-^2, g_- the series of the recursion at -d.  Solutions
    of y'' + (phi/2) y = 0 are y_+ = z^((1+d)/2) g_- and y_- = z^((1-d)/2)
    (1 + c_1 z + ...) + lambda y_+ log z, with c_1..c_{d-1} of g_recursion;
    its equation n = d reads r/2 + d lambda = 0.  (y_-/y_+)' is
    -d z^(-d-1)/g_-^2, whose residue is -d b_hat_d = lambda = -r/(2d).
    """
    _, r = g_recursion(d, q.coeffs, d + 1)
    return r / (2.0 * d * d)


def classify_holonomy(germ: LaurentData, q_tail: TruncatedSeries) -> HolonomyClass:
    """Holonomy generator class of the projective structure around the pole.

    delta is the root of 1 - 2*leading with Re delta >= 0 (Im >= 0 when
    Re = 0).  Whether delta is an integer d is the test behind
    germ.local_degree_hint.  For d >= 1 the generator is the identity iff r of
    g_recursion passes the resonance test, the test local_primitive makes;
    otherwise it is parabolic with obstruction b_hat_d = r / (2 d^2).  d = 0
    is parabolic, and a non-integer delta elliptic with multiplier
    e^(2 pi i delta).
    """
    d = germ._integer_delta()
    if d == 0:
        return HolonomyClass(HolonomyClass.PARABOLIC_ZERO)
    if d is not None:
        _, r = g_recursion(d, q_tail.coeffs, d + 1)
        if _resonance_vanishes(d, q_tail.coeffs, r):
            return HolonomyClass(HolonomyClass.IDENTITY)
        return HolonomyClass(HolonomyClass.PARABOLIC_OBSTRUCTED, obstruction=r / (2.0 * d * d))
    delta = cmath.sqrt(1.0 - 2.0 * complex(germ.leading))
    if abs(delta.real) < BRANCH_TOL and delta.imag < 0:
        delta = -delta
    multiplier = cmath.exp(2j * cmath.pi * delta)
    unitary = abs(abs(multiplier) - 1.0) <= UNIT_TOL
    return HolonomyClass(HolonomyClass.ELLIPTIC, multiplier=multiplier, unitary=unitary)


def _other_poles(points, alpha, beta):
    """Per i, sum_{j != i} alpha_j/(c_i - c_j) + beta/(c_i - c_j)^2."""
    return [sum(aj / (ci - cj) + beta / (ci - cj) ** 2
                for j, (cj, aj) in enumerate(zip(points, alpha)) if j != i)
            for i, ci in enumerate(points)]


def residual_tol(values):
    """CRITERION_TOL (1 + max |v|)^2, the tolerance of the L_i and E_m."""
    scale = 1.0 + max(abs(v) for v in values)
    return CRITERION_TOL * scale * scale


def L_values(config: CriticalConfiguration):
    """L_i = 3 A_i^2 - 4 sum_{j != i} (A_j (c_i - c_j) + 1)/(c_i - c_j)^2."""
    others = _other_poles(config.points, config.params, 1.0)
    return [3.0 * ai * ai - 4.0 * s for ai, s in zip(config.params, others)]


def build_phi(config: CriticalConfiguration) -> RationalMap:
    """phi(z) = -(3/2) sum_i (A_i (z - c_i) + 1)/(z - c_i)^2, normalized."""
    pts, prm = config.points, config.params
    num = Poly.zero()
    for i, (ci, ai) in enumerate(zip(pts, prm)):
        others = pts[:i] + pts[i + 1:]
        num = num + Poly((1.0 - ai * ci, ai)) * Poly.from_roots(others + others)
    return RationalMap(-1.5 * num, Poly.from_roots(pts + pts))


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
    tol = residual_tol(config.points + config.params)
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
    params = [s * 2.0 / 3.0 for s in _other_poles(pts, [1.0] * k, 0.0)]
    config = CriticalConfiguration(tuple(pts), tuple(params))
    tol = residual_tol(pts)
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
    den = Poly.from_roots(pts + pts)
    num = G * Poly.from_roots(pts) * den
    vs = _other_poles(pts, res, -1.5)
    for i, (ci, ri, vi) in enumerate(zip(pts, res, vs)):
        others = pts[:i] + pts[i + 1:]
        ei_den = math.prod(ci - cj for cj in others)
        num = num + Poly((-1.5 - ri * ci, ri)) * Poly.from_roots(others + others)
        num = num + ((-0.5 * ri * ri - vi) / ei_den) * (Poly.from_roots(others) * den)
    return RationalMap(num, den)
