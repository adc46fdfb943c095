"""Schwarzian primitives: local power-series reconstruction and the global
Wronskian-fiber solver for prescribed simple critical points."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (DEDUP_TOL, NEWTON_TOL, UNIT_TOL, Poly, RationalMap, TruncatedSeries, _w,
                      require_coprime, require_distinct, series_div, series_mul)
from .errors import DegenerateInput, ObstructionNonzero
from .primitivity import _resonance_vanishes, g_recursion
from .quaddiff import laurent_at

STACK = 128  # starts stepped together: 64 catalan(3), a whole default mu = 2 solve


def catalan(d: int) -> int:
    """u_d = C(2(d-1), d-1) / d."""
    if d < 1:
        raise DegenerateInput("d must be >= 1")
    return math.comb(2 * (d - 1), d - 1) // d


def _pq(mu, x):
    """Ascending coefficient arrays [a_p, 0, 1] and [a_q, 1] of p_a and q_a,
    stacked on the last axis as the coordinate vectors in x are."""
    x = np.asarray(x, dtype=complex)
    zero, one = np.zeros((1,) + x.shape[1:]), np.ones((1,) + x.shape[1:])
    return np.concatenate([x[:mu], zero, one]), np.concatenate([x[mu:], one])


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
    True when none converged.  newton_steps is the number of Newton steps
    summed over the starts, one per start per Jacobian solve.
    """

    target: Poly
    solutions: list = field(default_factory=list)
    attempts: int = 0
    seed: int = 0
    residuals: list = field(default_factory=list)
    rconds: list = field(default_factory=list)
    expected_max: int = 0
    newton_steps: int = 0

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
            f"leading coefficient {germ.leading} is not (1-d^2)/2 for an integer d >= 1")
    q = TruncatedSeries(base=complex(c), coeffs=germ.residue_and_tail)
    g = local_g(d, q, order)
    h = series_div([1.0], series_mul(g.coeffs, g.coeffs, order), order)
    coeffs = [0j] * (d + order)
    for k, hk in enumerate(h):
        coeffs[d + k] = hk / (d + k)
    return TruncatedSeries(base=complex(c), coeffs=tuple(coeffs))


def wronskian(coords: NormalizedMapCoords) -> Poly:
    """w_a = p'q - q'p, a monic polynomial of degree 2*mu."""
    return Poly(_w(*_pq(coords.mu, coords.vector())))


def _tensor(mu):
    """T[k, i, j] = coefficient k < 2mu of _w(z^i, z^j), for i <= mu+1 and j <= mu."""
    unit = np.eye(mu + 2)
    return np.array([[_w(unit[i], unit[j, :-1])[: 2 * mu] for j in range(mu + 1)]
                     for i in range(mu + 2)]).transpose(2, 0, 1)


def _w_and_jacobian(tensor, x):
    """Coefficients 0..2mu-1 of w_a and the Jacobian of a -> them, for each row a of x.

    w is bilinear: the column of a_p[i] is T(z^i, q_a), that of a_q[j] is
    T(p_a, z^j), and w_a is the a_p-block contracted with p_a."""
    mu = x.shape[-1] // 2
    p, q = _pq(mu, x.T)
    jac_p, jac_q = np.einsum("kij,jn->nki", tensor, q), np.einsum("kij,in->nkj", tensor, p)
    jac = np.concatenate([jac_p[..., :mu], jac_q[..., :mu]], axis=-1)
    return np.einsum("nki,in->nk", jac_p, p), jac


def wronskian_jacobian(coords: NormalizedMapCoords):
    """Jacobian of a -> (coefficients 0..2mu-1 of w_a), columns (a_p, a_q): the
    one-row case of the stacked Jacobian the fiber solve steps with."""
    return _w_and_jacobian(_tensor(coords.mu), coords.vector()[None])[1][0]


def _solve_rows(jac, f):
    """The Newton step of each row, NaN where its Jacobian is singular.  One
    singular row makes a stacked solve raise, so that step is solved row by row."""
    try:
        return np.linalg.solve(jac, f[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(f) == 1:
            return np.full_like(f, np.nan)
        return np.concatenate([_solve_rows(jac[k : k + 1], f[k : k + 1]) for k in range(len(f))])


def _newton(tensor, target_vec, x):
    """Damped Newton on coeffs(w_a) = target_vec from every row of x, stepped together.

    A row takes at most 100 steps, each halving up to 20 times to the first strict
    decrease of its max-norm residual res, and leaves the stack at res 0, when no
    halving decreases res, or rejected (res inf) at a singular Jacobian or a
    non-finite step.  Returns (x, res, res <= NEWTON_TOL, steps), one step per row per solve."""
    x = np.array(x, dtype=complex)
    w, jac = _w_and_jacobian(tensor, x)
    f = w - target_vec
    res = np.max(np.abs(f), axis=1)
    live = np.flatnonzero(res != 0.0)
    steps = 0
    for _ in range(100):
        # Iterate to the rounding floor: singular fibers converge linearly and
        # the coordinate error goes like sqrt(residual).
        if not live.size:
            break
        steps += live.size
        step = _solve_rows(jac[live], f[live])
        finite = np.all(np.isfinite(step), axis=1)
        res[live[~finite]] = np.inf
        live, step = live[finite], step[finite]
        searching = np.arange(live.size)
        lam = 1.0
        for _ in range(20):
            rows = live[searching]
            x_new = x[rows] - lam * step[searching]
            w_new, jac_new = _w_and_jacobian(tensor, x_new)
            f_new = w_new - target_vec
            res_new = np.max(np.abs(f_new), axis=1)
            down = res_new < res[rows]
            done = rows[down]
            x[done], f[done], res[done], jac[done] = (x_new[down], f_new[down], res_new[down],
                                                      jac_new[down])
            searching = searching[~down]
            if not searching.size:
                break
            lam *= 0.5
        live = np.delete(live, searching)
        live = live[res[live] != 0.0]
    return x, res, res <= NEWTON_TOL, steps


def solve_fiber(target: Poly, attempts: int | None = None, seed: int = 42) -> FiberSolveReport:
    """Newton restarts on a -> coeffs(w_a) over a monic even-degree target.

    Deterministic for fixed (target, attempts, seed): each start draws from
    its own RNG stream, derived from (seed, start index).  The starts step
    together in stacks of STACK, and each row's iterates depend only on its
    own start.  Converged points are merged in start-index order,
    deduplicated at max-norm distance DEDUP_TOL.
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
    tensor = _tensor(mu)
    found = np.empty((0, 2 * mu), dtype=complex)
    for first in range(0, attempts, STACK):
        stack = range(first, min(first + STACK, attempts))
        rngs = [np.random.default_rng([seed, start_index]) for start_index in stack]
        r = np.sqrt([rng.uniform(0.0, 1.0, size=2 * mu) for rng in rngs])
        theta = np.array([rng.uniform(0.0, 2.0 * np.pi, size=2 * mu) for rng in rngs])
        x, res, accepted, steps = _newton(tensor, target_vec, r * np.exp(1j * theta))
        report.newton_steps += steps
        for k in np.flatnonzero(accepted):
            if np.all(np.max(np.abs(found - x[k]), axis=1) > DEDUP_TOL):
                found = np.vstack([found, x[k]])
                report.residuals.append(float(res[k]))
    report.solutions = [NormalizedMapCoords.from_vector(mu, v) for v in found * unscale]
    svals = np.linalg.svd(_w_and_jacobian(tensor, found)[1], compute_uv=False)
    report.rconds = (svals[:, -1] / svals[:, 0]).tolist()
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
