"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail line
(visible with pytest -s) in addition to the usual assertion outcome.
"""

import cmath
import math

import numpy as np
import pytest

from schwarzian import (
    CriticalConfiguration,
    J,
    Mobius,
    ObstructionNonzero,
    Poly,
    RationalMap,
    TruncatedSeries,
    catalan,
    check_polynomial_criterion,
    check_rational_criterion,
    condition_determinant,
    criticality_discriminant,
    critical_points,
    cross_ratio,
    cubic_fiber_explicit,
    e_sums,
    h_alpha,
    is_regular_tetrahedron,
    laurent_at,
    lift_correspondence,
    local_g,
    local_primitive,
    merom_generator,
    pole_report,
    reconstruct_rational,
    schwarzian,
    series_obstruction,
    solve_fiber,
    wronskian_jacobian,
    y_polynomial,
)
from schwarzian.algebra import riemann_close

from conftest import (
    compose_rational,
    paper_determinant,
    rand_complex,
    rational_close,
    series_b_hat,
    series_schwarzian_laurent,
    tetrahedral_images,
)


def _report(label, ok):
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def _mobius_compose_rational(m: Mobius, f: RationalMap) -> RationalMap:
    num = m.a * f.num + m.b * f.den
    den = m.c * f.num + m.d * f.den
    return RationalMap(num, den)


def test_criterion_01_worked_example_exactness(f1, f2, phi1, phi2):
    ok = rational_close(schwarzian(f1), phi1, tol=1e-10)
    ok = ok and rational_close(schwarzian(f2), phi2, tol=1e-10)
    _report("criterion 01 worked-example exactness", ok)


def test_criterion_02_determinant_criterion(phi1, phi2, rng):
    # the paper's dense determinant (conftest oracle) against condition_determinant
    # and against local_g's resonance test
    ok = True
    for phi in (phi1, phi2):
        for c in (0, 1):
            tail = list(laurent_at(phi, c, 2).residue_and_tail)
            ok = ok and abs(paper_determinant(2, tail)) <= 1e-9
            ok = ok and abs(condition_determinant(2, tail)) <= 1e-9
    agree = 0
    for _ in range(100):
        a1 = rand_complex(rng)
        eps = rand_complex(rng)
        eps = eps / abs(eps) * (1e-3 + abs(rng.normal()))
        a2 = -(a1 * a1) / 2 + eps  # off the zero locus by at least 1e-3
        det = paper_determinant(2, [a1, a2])
        raised = False
        try:
            local_g(2, TruncatedSeries(base=0j, coeffs=(a1, a2, 0j)), 3)
        except ObstructionNonzero:
            raised = True
        # within rounding of the slope |k_1| = 2 of det in a_2
        close = abs(condition_determinant(2, [a1, a2]) - det) <= 1e-12 * (2 + abs(det))
        if abs(det) > 1e-9 and raised and close:
            agree += 1
    ok = ok and agree == 100
    _report("criterion 02 determinant criterion + 100 perturbed tails", ok)


def test_criterion_03_series_determinant_equivalence(rng, corpus):
    # b_hat and the determinant of src/ against the conftest oracles, which
    # compute the paper's dense determinant and the series b_hat independently
    ok = True
    for _ in range(200):
        d = int(rng.integers(1, 6))
        a = [rand_complex(rng) for _ in range(d)]
        if rng.uniform() < 0.4:
            # place the germ on the zero locus of the determinant
            a[d - 1] = y_polynomial(d, a[: d - 1])
        det, b_ref = paper_determinant(d, a), series_b_hat(d, a)
        b_hat = series_obstruction(d, TruncatedSeries(base=0j, coeffs=tuple(a)))
        ok = ok and ((abs(det) <= 1e-8) == (abs(b_ref) <= 1e-8) == (abs(b_hat) <= 1e-8))
        ok = ok and abs(b_hat - b_ref) <= 1e-12 * (1 + abs(b_ref))
        # det = +-(prod k_j) r, so its rounding scales with the slope prod |k_j|
        slope = math.prod(2 * j * (d - j) for j in range(1, d))
        ok = ok and abs(condition_determinant(d, a) - det) <= 1e-12 * (slope + abs(det))
    for f in corpus[:4]:
        phi = schwarzian(f)
        for c in critical_points(f):
            g = laurent_at(phi, c, 8)
            d = g.local_degree_hint
            tail = list(g.residue_and_tail[:d])
            b_hat = series_obstruction(
                d, TruncatedSeries(base=complex(c), coeffs=g.residue_and_tail)
            )
            ok = ok and abs(paper_determinant(d, tail)) <= 1e-8
            ok = ok and abs(series_b_hat(d, tail)) <= 1e-8 and abs(b_hat) <= 1e-8
    _report("criterion 03 series/determinant equivalence", ok)


def test_criterion_04_local_roundtrip():
    maps = [
        RationalMap(Poly([0, 0, 1]), Poly([1])),
        RationalMap(Poly([0, 0, -3, 2]), Poly([1])),
        RationalMap(Poly([0, 0, 0, 0, 1]), Poly([1])),
        RationalMap(Poly([0, 0, 1]), Poly([1, -2, 1])),
    ]
    ok = True
    for f in maps:
        phi = schwarzian(f)
        for c in critical_points(f):
            series = local_primitive(phi, c, 16)
            d = next(k for k, v in enumerate(series.coeffs) if abs(v) > 1e-9)
            s_out = series_schwarzian_laurent(series, d, 11)
            germ = laurent_at(phi, c, 11)
            want = [(1 - d * d) / 2.0] + list(germ.residue_and_tail)
            for got, exp in zip(s_out[:12], want[:12]):
                ok = ok and abs(got - exp) <= 1e-7 * (1 + abs(exp))
    _report("criterion 04 local reconstruction roundtrip", ok)


def test_criterion_05_pole_type_diagnostics():
    es = e_sums([0, 1], [2, -2], 3)
    ok = all(abs(e) <= 1e-10 for e in es)
    config, _ = check_polynomial_criterion([0, 1])
    e1, e2 = e_sums(config.points, config.params, 2)
    ok = ok and abs(e1) <= 1e-10 and abs(-1.5 * e2 - (-4)) <= 1e-10
    _report("criterion 05 pole-type diagnostics at infinity", ok)


def _solver_configs(rng, want):
    configs = []
    while len(configs) < want:
        pts = [rand_complex(rng, 1.2) for _ in range(4)]
        if min(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1 :]) < 0.3:
            continue
        maps, _ = reconstruct_rational(pts, attempts=48, seed=len(configs) + 5)
        for f in maps:
            config = CriticalConfiguration.from_poles(pole_report(schwarzian(f), order=1)[0])
            if len(config.points) != 4:
                continue
            configs.append(config)
            if len(configs) >= want:
                break
    return configs


def test_criterion_06_redundancy_claims(rng):
    ok = True
    for config in _solver_configs(rng, 20):
        for variant, dropped in (("DropLastL", "L4"), ("DropE3", "E3")):
            rec = check_rational_criterion(config, variant)
            ok = ok and rec.overall
            by_name = {e["name"]: e for e in rec.equations}
            ok = ok and by_name[dropped]["residual"] <= 1e-8
    _report("criterion 06 redundancy of dropped equations", ok)


def test_criterion_07_fiber_counting(rng):
    report = solve_fiber(Poly([0, -2, 0, 0, 1]))
    ok = len(report.solutions) == 1
    if ok:
        sol = report.solutions[0]
        ok = np.max(np.abs(sol.vector() - np.array([1, 0, 0, 0]))) <= 1e-8
        ok = ok and abs(np.linalg.det(wronskian_jacobian(sol))) <= 1e-6
    report = solve_fiber(Poly([-1, 0, 0, 0, 1]))
    ok = ok and len(report.solutions) == 2
    explicit = [b.vector() for b in cubic_fiber_explicit((-1, 0, 0, 0))]
    for sol in report.solutions:
        ok = ok and min(
            float(np.max(np.abs(sol.vector() - e))) for e in explicit
        ) <= 1e-8
    done = 0
    while done < 20:
        roots = [rand_complex(rng, 1.1) for _ in range(4)]
        if min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]) < 0.2:
            continue
        target = Poly.from_roots(roots)
        w = list(target.coeffs[:4])
        rep = solve_fiber(target, seed=done + 11)
        count = len(rep.solutions)
        ok = ok and count <= catalan(3)
        if abs(criticality_discriminant(w)) <= 1e-6:
            ok = ok and count == 1
        else:
            ok = ok and count == 2
        done += 1
    _report("criterion 07 fiber counting", ok)


def test_criterion_08_cubic_geometry(rng):
    target = complex(0.5, np.sqrt(3) / 2)
    ok = abs(cross_ratio(1, J, J * J, 0) - target) <= 1e-10
    checked = 0
    while checked < 50:
        w = tuple(rand_complex(rng) for _ in range(4))
        roots = np.roots([1.0, w[3], w[2], w[1], w[0]])
        if min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]) < 1e-3:
            continue
        scale = 1 + max(abs(x) for x in w)
        disc_zero = abs(criticality_discriminant(w)) <= 1e-8 * scale
        tet = is_regular_tetrahedron(list(roots))
        merged = len(cubic_fiber_explicit(w)) == 1
        ok = ok and (disc_zero == tet == merged)
        checked += 1
    for imgs in tetrahedral_images(rng, 200):
        ok = ok and is_regular_tetrahedron(imgs)
        ok = ok and len(cubic_fiber_explicit(np.poly(imgs)[::-1][:4])) == 1
        other = [rand_complex(rng, 1.5) for _ in range(4)]
        if min(abs(a - b) for i, a in enumerate(other) for b in other[i + 1 :]) > 0.1:
            # a random quadruple is essentially never tetrahedral
            ok = ok and not is_regular_tetrahedron(other)
    _report("criterion 08 cubic geometry", ok)


def test_criterion_09_h_alpha_family():
    ok = True
    for alpha in (2, 3 + 1j):
        h = h_alpha(alpha)
        crit = critical_points(h)
        expected = [1, J, J * J, complex(alpha) ** 2]
        for e in expected:
            ok = ok and min(abs(c - e) for c in crit) <= 1e-7
        s = schwarzian(h)
        for c in crit:
            ok = ok and abs(laurent_at(s, c, 2).leading - (-1.5)) <= 1e-7
        pairs = lift_correspondence(h)
        ok = ok and len(pairs) == 3
        for m, n in pairs:
            sup = 0.0
            for k in range(20):
                z = 1.3 * cmath.exp(2j * cmath.pi * (k + 0.11) / 20)
                lhs, rhs = h(m(z)), n(h(z))
                ok = ok and riemann_close(lhs, rhs, tol=1e-7)
    _report("criterion 09 h_alpha family", ok)


def test_criterion_10_mobius_invariance(rng):
    ok = True
    pool = [
        RationalMap(Poly([0, 0, -3, 2]), Poly([1])),
        RationalMap(Poly([0.3, -1, 0, 1]), Poly([1, 0.5, 1])),
        RationalMap(Poly([0, -2, 0, 0, 1]), Poly([1])),
        h_alpha(2),
    ]
    for f in pool:
        for _ in range(3):
            m = Mobius(*(rand_complex(rng) + 0.4 for _ in range(4)))
            ok = ok and rational_close(
                schwarzian(_mobius_compose_rational(m, f)), schwarzian(f), tol=1e-8
            )
    for f in pool[:2]:
        alpha, beta = rand_complex(rng) + 1.0, rand_complex(rng)
        gamma = RationalMap(Poly([beta, alpha]), Poly([1]))
        fg = compose_rational(f, gamma)
        s_fg, s_f = schwarzian(fg), schwarzian(f)
        for _ in range(10):
            w = rand_complex(rng, 0.8)
            lhs = s_fg(w)
            rhs = s_f(alpha * w + beta) * alpha * alpha
            ok = ok and abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))
    for _ in range(5):
        u = RationalMap(Poly([rand_complex(rng), 1.0, rand_complex(rng)]), Poly([1]))
        v = RationalMap(Poly([rand_complex(rng), rand_complex(rng), 1.0]), Poly([1]))
        uv = compose_rational(u, v)
        s_uv, s_u, s_v = schwarzian(uv), schwarzian(u), schwarzian(v)
        vp = v.num.deriv()
        for _ in range(5):
            z = rand_complex(rng, 0.9)
            lhs = s_uv(z)
            rhs = s_u(v(z)) * vp(z) ** 2 + s_v(z)
            if abs(rhs) > 1e6:
                continue  # too close to a pole for a fair comparison
            ok = ok and abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))
    _report("criterion 10 Mobius invariance suite", ok)


def test_criterion_11_meromorphic_generator(rng):
    ok = True
    for trial in range(20):
        k = int(rng.integers(1, 5))
        pts = []
        while len(pts) < k:
            p = rand_complex(rng, 0.7)
            if all(abs(p - q) > 0.5 for q in pts):
                pts.append(p)
        res = [rand_complex(rng) for _ in range(k)]
        g_deg = int(rng.integers(0, 3))
        g_poly = Poly([rand_complex(rng) for _ in range(g_deg + 1)])
        psi = merom_generator(pts, res, g_poly)
        for c, r in zip(pts, res):
            germ = laurent_at(psi, c, 2)
            ok = ok and abs(germ.leading - (-1.5)) <= 1e-9
            ok = ok and abs(germ.residue_and_tail[0] - r) <= 1e-9
            ok = ok and abs(germ.residue_and_tail[1] - (-r * r / 2)) <= 1e-9
            det = condition_determinant(2, list(germ.residue_and_tail[:2]))
            ok = ok and abs(det) <= 1e-8
    _report("criterion 11 meromorphic generator", ok)
