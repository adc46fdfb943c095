import numpy as np
import pytest

from schwarzian import (
    DegenerateInput,
    NormalizedMapCoords,
    ObstructionNonzero,
    Poly,
    RationalMap,
    TruncatedSeries,
    catalan,
    coords_to_map,
    local_g,
    local_primitive,
    reconstruct_rational,
    schwarzian,
    solve_fiber,
    wronskian,
    wronskian_jacobian,
)

from conftest import (
    normalized_wronskian,
    rand_complex,
    series_schwarzian_laurent,
    tetrahedral_images,
)


def test_catalan_values():
    assert [catalan(d) for d in (1, 2, 3, 4, 5)] == [1, 1, 2, 5, 14]
    with pytest.raises(DegenerateInput):
        catalan(0)


def test_coords_polys():
    c = NormalizedMapCoords(2, (1, 2), (3, 4))
    assert coords_to_map(c).num == Poly([1, 2, 0, 1])
    assert coords_to_map(c).den == Poly([3, 4, 1])
    back = NormalizedMapCoords.from_vector(2, c.vector())
    assert back == c


def test_coords_shape_errors():
    with pytest.raises(DegenerateInput):
        NormalizedMapCoords(2, (1,), (3, 4))


def test_wronskian_mu2_formula(rng):
    for _ in range(10):
        a0, a1, b0, b1 = (rand_complex(rng) for _ in range(4))
        w = wronskian(NormalizedMapCoords(2, (a0, a1), (b0, b1)))
        expected = Poly(
            [a1 * b0 - a0 * b1, -2 * a0, 3 * b0 - a1, 2 * b1, 1.0]
        )
        for x, y in zip(w.coeffs, expected.coeffs):
            assert abs(x - y) <= 1e-12 * (1 + abs(y))


def test_wronskian_is_monic_even_degree():
    for mu in (1, 2, 3):
        c = NormalizedMapCoords(mu, (0.5,) * mu, (0.25,) * mu)
        w = wronskian(c)
        assert w.degree == 2 * mu
        assert abs(w.lead - 1) <= 1e-12


def test_jacobian_matches_finite_differences(rng):
    for mu in (2, 3):
        c = NormalizedMapCoords.from_vector(
            mu, [rand_complex(rng) for _ in range(2 * mu)]
        )
        jac = wronskian_jacobian(c)
        h = 1e-6
        base = np.array(wronskian(c).coeffs[: 2 * mu])
        for col in range(2 * mu):
            v = c.vector()
            v[col] += h
            shifted = np.array(
                wronskian(NormalizedMapCoords.from_vector(mu, v)).coeffs[: 2 * mu]
            )
            fd = (shifted - base) / h
            assert np.max(np.abs(fd - jac[:, col])) <= 1e-5


def test_wronskian_and_jacobian_match_numpy_oracle(rng):
    # w is quadratic in the coordinates, so a central difference with step 1
    # is exact up to rounding
    for mu in range(1, 6):
        for _ in range(3):
            x = np.array([rand_complex(rng) for _ in range(2 * mu)])
            c = NormalizedMapCoords.from_vector(mu, x)
            want = normalized_wronskian(x)
            got = np.array(wronskian(c).coeffs)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            jac = wronskian_jacobian(c)
            for k in range(2 * mu):
                step = np.eye(2 * mu)[k]
                col = (normalized_wronskian(x + step) - normalized_wronskian(x - step)) / 2
                col = col[: 2 * mu]
                assert np.max(np.abs(jac[:, k] - col)) <= 1e-12 * np.max(np.abs(col))


def test_jacobian_determinant_mu2(rng):
    # det J = 4 a1 + 12 b0 for the quartic family
    for _ in range(10):
        a0, a1, b0, b1 = (rand_complex(rng) for _ in range(4))
        jac = wronskian_jacobian(NormalizedMapCoords(2, (a0, a1), (b0, b1)))
        det = np.linalg.det(jac)
        assert abs(det - (4 * a1 + 12 * b0)) <= 1e-10 * (1 + abs(det))


def test_local_g_obstruction():
    ok = TruncatedSeries(base=0j, coeffs=(-3, -4.5, 0, 0))
    g = local_g(2, ok, 4)
    assert g.coeffs[0] == 1
    assert g.coeffs[2] == 0
    bad = TruncatedSeries(base=0j, coeffs=(0, 1, 0, 0))
    with pytest.raises(ObstructionNonzero):
        local_g(2, bad, 4)
    # the resonant equation involves only a_1, a_2; a large a_3 must not
    # scale the test up until a 1e-3 obstruction passes
    big_tail = TruncatedSeries(base=0j, coeffs=(0, 1e-3, 1e6, 0, 0, 0, 0, 0))
    with pytest.raises(ObstructionNonzero):
        local_g(2, big_tail, 8)


def test_local_g_short_tail_raises():
    # c_3..c_7 read a_3..a_7, which a two-term tail does not carry; they must
    # not be computed as if those coefficients were 0
    with pytest.raises(DegenerateInput):
        local_g(2, TruncatedSeries(base=0j, coeffs=(-3, -4.5)), 8)


def test_local_primitive_square(phi1):
    # primitive of S_{z^2/(z-1)^2} at 0 starts z^2/2 after normalization
    series = local_primitive(phi1, 0, 12)
    assert abs(series.coeffs[0]) <= 1e-12
    assert abs(series.coeffs[1]) <= 1e-12
    assert abs(series.coeffs[2] - 0.5) <= 1e-12


def test_local_primitive_roundtrip(corpus):
    from schwarzian import critical_points, laurent_at

    for f in [corpus[0], corpus[1], corpus[3]]:
        phi = schwarzian(f)
        for c in critical_points(f):
            series = local_primitive(phi, c, 16)
            d = next(k for k, v in enumerate(series.coeffs) if abs(v) > 1e-9)
            s_out = series_schwarzian_laurent(series, d, 10)
            germ = laurent_at(phi, c, 10)
            germ_phi = [(1 - d * d) / 2.0] + list(germ.residue_and_tail)
            for k, (got, want) in enumerate(zip(s_out, germ_phi)):
                assert abs(got - want) <= 1e-7 * (1 + abs(want)), (f, c, k)


def test_local_primitive_needs_integer_hint():
    phi = RationalMap(Poly([1]), Poly([0, 0, 1]))  # leading 1, no integer d
    with pytest.raises(DegenerateInput):
        local_primitive(phi, 0, 8)


def test_solve_fiber_singular_quartic():
    report = solve_fiber(Poly([0, -2, 0, 0, 1]))
    assert len(report.solutions) == 1
    assert not report.complete
    sol = report.solutions[0]
    vec = sol.vector()
    assert np.max(np.abs(vec - np.array([1, 0, 0, 0]))) <= 1e-8
    jac = wronskian_jacobian(sol)
    assert abs(np.linalg.det(jac)) <= 1e-6


def test_solve_fiber_z4_minus_1():
    report = solve_fiber(Poly([-1, 0, 0, 0, 1]))
    assert len(report.solutions) == 2
    assert report.complete
    root3 = np.sqrt(3.0)
    expected = [
        np.array([0, 1j * root3, 1j * root3 / 3, 0]),
        np.array([0, -1j * root3, -1j * root3 / 3, 0]),
    ]
    for sol in report.solutions:
        vec = sol.vector()
        assert min(np.max(np.abs(vec - e)) for e in expected) <= 1e-8


def test_solve_fiber_determinism():
    target = Poly([0.3 - 0.1j, 1.2, -0.7j, 0.4, 1.0])
    r1 = solve_fiber(target, attempts=32, seed=7)
    r2 = solve_fiber(target, attempts=32, seed=7)
    assert len(r1.solutions) == len(r2.solutions)
    for s1, s2 in zip(r1.solutions, r2.solutions):
        assert np.max(np.abs(s1.vector() - s2.vector())) == 0.0


def test_solve_fiber_count_bound(rng):
    # targets with well-separated roots: default attempts find the full count
    for mu in (1, 2, 3):
        for _ in range(4):
            roots = [rand_complex(rng, 1.2) for _ in range(2 * mu)]
            if min(
                abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]
            ) < 0.2:
                continue
            target = Poly.from_roots(roots)
            report = solve_fiber(target)
            assert len(report.solutions) == catalan(mu + 1)
            assert report.complete
            for res in report.residuals:
                assert res <= 1e-9
            want = np.array(target.coeffs[: 2 * mu])
            for sol in report.solutions:
                got = normalized_wronskian(sol.vector())[: 2 * mu]
                assert np.max(np.abs(got - want)) <= 1e-9


def test_rconds_vanish_over_the_tetrahedron_only():
    # At mu = 2 the fiber is singular over Mobius images of the regular
    # tetrahedron (the paper's pole-dependence result); over real critical
    # points it is transversal (Mukhin, Tarasov and Varchenko, J. Amer. Math.
    # Soc. 22, 2009), so s_min/s_max stays away from 0 there.
    for pts in tetrahedral_images(np.random.default_rng(5), 4):
        _, report = reconstruct_rational(pts, attempts=16)
        assert len(report.rconds) == len(report.solutions) == 1
        assert report.rconds[0] < 1e-6
    rng = np.random.default_rng(1)
    for mu, n_sets in ((1, 3), (2, 3), (3, 1)):
        for _ in range(n_sets):
            pts = rng.uniform(-1.0, 1.0, 2 * mu)
            _, report = reconstruct_rational(list(pts - pts.mean()))
            assert report.complete and len(report.rconds) == report.expected_max
            assert min(report.rconds) > 1e-6


def test_solve_fiber_one_attempt_is_incomplete():
    target = Poly.from_roots([1.0, -0.5 + 0.9j, 0.3 - 1.1j, -1.2 - 0.4j, 0.8 + 0.7j, -0.2j])
    report = solve_fiber(target, attempts=1)
    assert len(report.solutions) <= 1
    assert not report.complete


def test_solve_fiber_rejects_bad_targets():
    with pytest.raises(DegenerateInput):
        solve_fiber(Poly([0, 0, 0, 1]))  # odd degree
    with pytest.raises(DegenerateInput):
        solve_fiber(Poly([0, 0, 2, 0, 2]))  # not monic


def test_coords_to_map_rejects_shared_root():
    # p = z^3 - s^2 z, q = z^2 - s^2 share the root s, at every scale s
    for s in (1e-3, 1.0, 1e3):
        c = NormalizedMapCoords(2, (0, -s * s), (-s * s, 0))
        with pytest.raises(DegenerateInput):
            coords_to_map(c)


def test_reconstruct_rational_quadratic():
    maps, report = reconstruct_rational([0.4 + 0.1j, -1.0])
    assert len(maps) == 1
    f = maps[0]
    from schwarzian import critical_points

    pts = sorted(critical_points(f), key=lambda z: z.real)
    assert abs(pts[0] - (-1.0)) <= 1e-8
    assert abs(pts[1] - (0.4 + 0.1j)) <= 1e-8
    # far from 0: a resultant threshold in the coefficient scale rejected it
    far = [-120.4 + 66.3j, -128.1j]
    maps, report = reconstruct_rational(far)
    assert len(maps) == 1
    for p in far:
        assert min(abs(c - p) for c in critical_points(maps[0])) <= 1e-8 * abs(p)


def test_reconstruct_rational_prescribes_poles(rng):
    points = [1.0, -0.5 + 0.9j, 0.3 - 1.1j, -1.2 - 0.4j]
    maps, report = reconstruct_rational(points)
    assert maps
    from schwarzian import pole_report

    for f in maps:
        s = schwarzian(f)
        poles, _ = pole_report(s)
        got = sorted((g.pole.real, g.pole.imag) for g in poles)
        want = sorted((p.real, p.imag) for p in map(complex, points))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert abs(complex(*a) - complex(*b)) <= 1e-6
    # four points within 0.01 of each other: both maps of the full count
    from schwarzian import critical_points

    clustered = [-0.15 + 0.536j, -0.158 + 0.543j, -0.167 + 0.531j, -0.168 + 0.539j]
    maps, report = reconstruct_rational(clustered)
    assert len(maps) == 2 and report.complete
    for f in maps:
        crit = critical_points(f)
        assert len(crit) == 4
        assert all(min(abs(c - p) for c in crit) <= 1e-9 for p in clustered)


def test_reconstruct_rational_scale_free():
    # s * {1, -1, i, -i, 2+i, -1+2i}: the full count of correct maps at every
    # scale; an absolute residual tolerance accepted non-solutions at s = 1e-2
    from schwarzian import critical_points

    for s in (1e-5, 1e-3, 1e-2, 1.0, 10.0):
        pts = [s * z for z in (1, -1, 1j, -1j, 2 + 1j, -1 + 2j)]
        maps, report = reconstruct_rational(pts)
        assert len(maps) == report.expected_max == 5 and report.complete
        for f in maps:
            crit = critical_points(f)
            assert len(crit) == 6
            assert all(min(abs(c - p) for c in crit) <= 1e-9 * s for p in pts)


def test_reconstruct_rational_rejects_repeats():
    with pytest.raises(DegenerateInput):
        reconstruct_rational([1.0, 1.0])
    with pytest.raises(DegenerateInput):
        reconstruct_rational([1.0, 2.0, 3.0])
