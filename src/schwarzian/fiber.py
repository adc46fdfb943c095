"""Schwarzian primitives: local power-series reconstruction and the global
Wronskian-fiber solver for prescribed simple critical points."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (DEDUP_TOL, NEWTON_TOL, UNIT_TOL, Poly, RationalMap, TruncatedSeries, _w,
                      require_coprime, require_distinct, series_inv, series_mul)
from .errors import DegenerateInput, ObstructionNonzero
from .primitivity import _resonance_vanishes, g_recursion
from .quaddiff import laurent_at


def catalan(d: int) -> int:
    """u_d = C(2(d-1), d-1) / d."""
    if d < 1:
        raise DegenerateInput("d must be >= 1")
    return math.comb(2 * (d - 1), d - 1) // d


def _pq(mu, x):
    """Ascending coefficient arrays [a_p, 0, 1] and [a_q, 1] of p_a and q_a."""
    x = np.asarray(x, dtype=complex)
    return np.concatenate([x[:mu], [0, 1]]), np.concatenate([x[mu:], [1]])


@dataclass(frozen=True)
class NormalizedMapCoords:
    """Coefficient vector a = (a_p, a_q) of the normalized degree-(mu+1) family.

    p_a(z) = sum a_p[i] z^i + 0*z^mu + z^(mu+1),  q_a(z) = sum a_q[i] z^i + z^mu.
    """

    mu: int
    a_p: tuple
    a_q: tuple

    def __post_init__(self):
        object.__setattr__(self, "a_p", tuple(complex(c) for c in self.a_p))
        object.__setattr__(self, "a_q", tuple(complex(c) for c in self.a_q))
        if self.mu < 1 or len(self.a_p) != self.mu or len(self.a_q) != self.mu:
            raise DegenerateInput("need mu >= 1 and mu coefficients on each side")

    def vector(self):
        return np.array(list(self.a_p) + list(self.a_q), dtype=complex)

    @staticmethod
    def from_vector(mu, vec):
        vec = list(vec)
        return NormalizedMapCoords(mu, tuple(vec[:mu]), tuple(vec[mu:]))


@dataclass
class FiberSolveReport:
    """Outcome of Newton restarts on the Wronskian fiber over a monic target.

    rconds[k] is s_min/s_max of wronskian_jacobian at solutions[k] over the
    dilated target; it tends to 0 where the fiber is singular.  complete is
    True when the restarts found expected_max = catalan(mu+1) distinct
    solutions, the full count over a target with distinct roots; warning is
    True when none converged.
    """

    target: Poly
    solutions: list = field(default_factory=list)
    attempts: int = 0
    seed: int = 0
    residuals: list = field(default_factory=list)
    rconds: list = field(default_factory=list)
    expected_max: int = 0

    @property
    def complete(self) -> bool:
        return len(self.solutions) == self.expected_max

    @property
    def warning(self) -> bool:
        return not self.solutions


def local_g(d: int, q: TruncatedSeries, order: int) -> TruncatedSeries:
    """Solve 2(d-1)g' - 2zg'' = qg for g = 1 + c_1 z + ... + c_{order-1} z^{order-1}.

    This is g_recursion: the right side r of the resonant equation n = d must
    pass the resonance test (ObstructionNonzero otherwise), and c_d is set to 0.
    q must carry a_1..a_{order-1}, and order >= d + 1.
    """
    c, r = g_recursion(d, q.coeffs, order)
    if not _resonance_vanishes(d, q.coeffs, r):
        raise ObstructionNonzero(r)
    return TruncatedSeries(base=q.base, coeffs=tuple(c))


def local_primitive(phi: RationalMap, c, order: int) -> TruncatedSeries:
    """Taylor coefficients about c of the normalized primitive f = int t^(d-1)/g(t)^2.

    f(c) = 0 with leading term (z-c)^d / d; requires the germ of phi at c to
    carry an integer local degree hint.
    """
    germ = laurent_at(phi, c, order)
    d = germ.local_degree_hint
    if d is None:
        raise DegenerateInput(
            f"leading coefficient {germ.leading} is not (1-d^2)/2 for integer d")
    q = TruncatedSeries(base=complex(c), coeffs=germ.residue_and_tail)
    g = local_g(d, q, order)
    g2 = series_mul(list(g.coeffs), list(g.coeffs), order)
    h = series_inv(g2, order)
    coeffs = [0j] * (d + order)
    for k, hk in enumerate(h):
        coeffs[d + k] = hk / (d + k)
    return TruncatedSeries(base=complex(c), coeffs=tuple(coeffs))


def wronskian(coords: NormalizedMapCoords) -> Poly:
    """w_a = p'q - q'p, a monic polynomial of degree 2*mu."""
    return Poly(_w(*_pq(coords.mu, coords.vector())))


def wronskian_jacobian(coords: NormalizedMapCoords):
    """Jacobian of a -> (coefficients 0..2mu-1 of w_a), columns (a_p, a_q).

    w is linear in p for fixed q and in q for fixed p, so the column of a_p[i]
    is exactly _w(z^i, q) and the column of a_q[i] is _w(p, z^i).
    """
    mu = coords.mu
    p, q = _pq(mu, coords.vector())
    unit = np.eye(mu + 2)
    cols = [_w(unit[i], q) for i in range(mu)] + [_w(p, unit[i, :-1]) for i in range(mu)]
    return np.array(cols).T[: 2 * mu]


def _newton_run(mu, target_vec, start):
    def residual(x):
        return _w(*_pq(mu, x))[: 2 * mu] - target_vec

    x = np.array(start, dtype=complex)
    fx = residual(x)
    res = float(np.max(np.abs(fx)))
    for _ in range(100):
        # Iterate to the rounding floor: singular fibers converge linearly and
        # the coordinate error goes like sqrt(residual).
        if res == 0.0:
            break
        jac = wronskian_jacobian(NormalizedMapCoords.from_vector(mu, x))
        try:
            step = np.linalg.solve(jac, fx)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        lam = 1.0
        for _ in range(20):
            x_new = x - lam * step
            f_new = residual(x_new)
            res_new = float(np.max(np.abs(f_new)))
            if res_new < res:
                break
            lam *= 0.5
        else:
            break
        x, fx, res = x_new, f_new, res_new
    if res <= NEWTON_TOL:
        return x, res
    return None


def solve_fiber(target: Poly, attempts: int | None = None, seed: int = 42) -> FiberSolveReport:
    """Newton restarts on a -> coeffs(w_a) over a monic even-degree target.

    Deterministic for fixed (target, attempts, seed): per-start RNG streams
    are derived from (seed, start index) and converged points are merged in
    start-index order, deduplicated at max-norm distance DEDUP_TOL.
    """
    if target.degree < 2 or target.degree % 2 != 0:
        raise DegenerateInput("target must be monic of even degree 2*mu >= 2")
    if abs(target.lead - 1.0) > UNIT_TOL:
        raise DegenerateInput("target must be monic")
    mu = target.degree // 2
    if attempts is None:
        attempts = 64 * catalan(mu + 1)
    if attempts < 1:
        raise DegenerateInput("attempts must be >= 1")
    # Solve over w(rho z) / rho^(2 mu), rho = max_k (|w_k| / C(2mu, k))^(1/(2mu-k))
    # (|r| for (z - r)^(2mu)): tolerances, residuals and the start radius are then
    # relative to the root scale.  a_p[i], a_q[i] scale back by rho^(mu+1-i), rho^(mu-i).
    e = np.arange(2 * mu, 0, -1)
    target_vec = np.array(target.coeffs[: 2 * mu])
    binom = np.array([math.comb(2 * mu, j) for j in e], dtype=float)
    rho = float(np.max((np.abs(target_vec) / binom) ** (1.0 / e))) or 1.0
    target_vec = target_vec / rho ** e
    unscale = rho ** np.concatenate([e[:mu] + 1 - mu, e[mu:]])
    report = FiberSolveReport(target=target, attempts=attempts, seed=seed,
                              expected_max=catalan(mu + 1))
    for start_index in range(attempts):
        rng = np.random.default_rng([seed, start_index])
        r = np.sqrt(rng.uniform(0.0, 1.0, size=2 * mu))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=2 * mu)
        start = r * np.exp(1j * theta)
        got = _newton_run(mu, target_vec, start)
        if got is None:
            continue
        x, res = got
        if any(np.max(np.abs(x - s.vector() / unscale)) <= DEDUP_TOL for s in report.solutions):
            continue
        jac = wronskian_jacobian(NormalizedMapCoords.from_vector(mu, x))
        svals = np.linalg.svd(jac, compute_uv=False)
        report.solutions.append(NormalizedMapCoords.from_vector(mu, x * unscale))
        report.residuals.append(res)
        report.rconds.append(float(svals[-1] / svals[0]))
    return report


def coords_to_map(coords: NormalizedMapCoords) -> RationalMap:
    """f_a = p_a / q_a, the degree-(mu+1) rational map of the coordinates.

    Raises when p and q share a root (require_coprime): the coordinates
    are then outside Omega."""
    p, q = (Poly(c) for c in _pq(coords.mu, coords.vector()))
    require_coprime(p, q, "p and q")
    return RationalMap(p, q)


def reconstruct_rational(points, attempts: int | None = None, seed: int = 42):
    """All degree-d rational maps (mod postcomposition) with the given 2d-2
    simple critical points, via the Wronskian fiber."""
    pts = [complex(p) for p in points]
    require_distinct(pts, "critical points")
    if len(pts) % 2 != 0 or not pts:
        raise DegenerateInput("need an even number 2d-2 of critical points")
    target = Poly.from_roots(pts)
    report = solve_fiber(target, attempts=attempts, seed=seed)
    maps = [coords_to_map(s) for s in report.solutions]
    return maps, report
