import numpy as np
import pytest

from schwarzian import (
    DegenerateInput,
    InfinityType,
    LaurentData,
    Poly,
    PoleTooHigh,
    RationalMap,
    critical_points,
    e_sums,
    infinity_type,
    laurent_at,
    numerator_wronskian,
    pole_report,
    TruncatedSeries,
    classify_holonomy,
    h_alpha,
    schwarzian,
)
from schwarzian.algebra import root_clusters

from conftest import (
    exact_laurent,
    log_derivative_schwarzian,
    partial_fraction_residues,
    rand_complex,
    rand_poly,
    rational_close,
)


def test_schwarzian_of_f1(f1, phi1):
    s = schwarzian(f1)
    assert rational_close(s, phi1, tol=1e-10)


def test_schwarzian_of_f2(f2, phi2):
    s = schwarzian(f2)
    assert rational_close(s, phi2, tol=1e-10)


def test_schwarzian_rejects_constant():
    with pytest.raises(DegenerateInput):
        schwarzian(RationalMap(Poly([3]), Poly([1])))


def test_schwarzian_numeric_spot_check(rng):
    # compare the rational output against finite differences of f itself
    f = RationalMap(Poly([0.3, -1, 0, 1]), Poly([1, 0.5, 1]))
    s = schwarzian(f)
    h = 1e-3
    for z in (0.4 + 0.2j, -0.3 + 0.5j, 1.2 - 0.7j):
        vals = [complex(f(z + k * h)) for k in (-2, -1, 0, 1, 2)]
        d1 = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
        d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (
            12 * h * h
        )
        d3 = (-vals[0] + 2 * vals[1] - 2 * vals[3] + vals[4]) / (2 * h**3)
        approx = d3 / d1 - 1.5 * (d2 / d1) ** 2
        assert abs(approx - s(z)) <= 1e-3 * (1 + abs(s(z)))


def test_schwarzian_random_degree_5_and_6_maps():
    # high-degree maps where the bracket is large and cancellation-prone
    rng = np.random.default_rng(0)
    for deg in (5, 6):
        for _ in range(20):
            num = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            den = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            s = schwarzian(RationalMap(Poly(num), Poly(den)))
            for z in (0.3 + 0.4j, -0.7 + 0.1j, 0.2 - 0.9j):
                want = log_derivative_schwarzian(num, den, z)
                assert abs(s(z) - want) <= 1e-9 * (1 + abs(want))


def test_wronskian_of_f2(f2):
    w = numerator_wronskian(f2)
    # (6z^2 - 6z) * 1
    assert np.allclose(w.coeffs, [0, -6, 6])


def test_schwarzian_denominator_is_wronskian_squared(rng):
    f = RationalMap(Poly([1, 2, 0, 1]), Poly([-0.5, 1, 1]))
    s = schwarzian(f)
    w = numerator_wronskian(f).monic()
    w2 = w * w
    assert s.den.degree == w2.degree
    for a, b in zip(s.den.coeffs, w2.coeffs):
        assert abs(a - b) <= 1e-8 * (1 + w2.scale())


@pytest.mark.parametrize("gap", np.geomspace(2e-4, 0.1, 25).tolist(), ids="{:.2e}".format)
def test_schwarzian_keeps_close_simple_critical_points(gap):
    # f' = z (z - gap) (z - 1): three simple critical points, so S_f has
    # three double poles of local degree 2, however close 0 and gap are
    f = RationalMap(Poly([0, 0, gap / 2, -(1 + gap) / 3, 0.25]), Poly([1]))
    poles, _ = pole_report(schwarzian(f))
    assert [g.local_degree_hint for g in poles] == [2, 2, 2]
    got = sorted((g.pole for g in poles), key=lambda z: z.real)
    assert max(abs(a - b) for a, b in zip(got, [0, gap, 1])) <= 1e-6 * gap


def test_laurent_at_double_pole(phi1):
    g0 = laurent_at(phi1, 0, 4)
    assert abs(g0.leading - (-1.5)) <= 1e-10
    assert abs(g0.residue_and_tail[0] - (-3)) <= 1e-10
    assert abs(g0.residue_and_tail[1] - (-4.5)) <= 1e-10
    assert g0.local_degree_hint == 2
    g1 = laurent_at(phi1, 1, 4)
    assert abs(g1.leading - (-1.5)) <= 1e-10
    assert abs(g1.residue_and_tail[0] - 3) <= 1e-10


def test_laurent_at_regular_point(phi1):
    g = laurent_at(phi1, 0.5, 4)
    assert abs(g.leading) <= 1e-10
    # phi1(1/2) = -1.5 / (1/16) = -24 sits in the constant slot a_2
    assert abs(g.residue_and_tail[1] - (-24)) <= 1e-8


def test_laurent_at_simple_pole():
    phi = RationalMap(Poly([1]), Poly([0, 1]))
    g = laurent_at(phi, 0, 3)
    assert abs(g.leading) <= 1e-12
    assert abs(g.residue_and_tail[0] - 1) <= 1e-12


def test_laurent_rejects_high_pole():
    phi = RationalMap(Poly([1]), Poly([0, 0, 0, 1]))
    with pytest.raises(PoleTooHigh):
        laurent_at(phi, 0, 3)


def test_laurent_leading_matches_local_degree(corpus):
    for f in corpus:
        s = schwarzian(f)
        for c in critical_points(f):
            g = laurent_at(s, c, 2)
            d = g.local_degree_hint
            assert d is not None
            assert abs(g.leading - (1 - d * d) / 2) <= 1e-8


def test_laurent_agrees_with_sampling_oracle(phi2):
    expected = partial_fraction_residues(phi2, [0, 1])
    for c, (lead, resid) in zip([0, 1], expected):
        g = laurent_at(phi2, c, 2)
        assert abs(g.leading - lead) <= 1e-6
        assert abs(g.residue_and_tail[0] - resid) <= 1e-5


def test_infinity_type_cases(phi1):
    assert infinity_type(phi1).kind == InfinityType.REGULAR
    quad = schwarzian(RationalMap(Poly([0, 0, 1]), Poly([1])))
    t = infinity_type(quad)
    assert t.kind == InfinityType.DOUBLE
    assert abs(t.leading - (-1.5)) <= 1e-12
    triple = RationalMap(Poly([1]), Poly([0, 1]))
    assert infinity_type(triple).kind == InfinityType.TRIPLE
    simple = RationalMap(Poly([1]), Poly([0, 0, 0, 1]))
    assert infinity_type(simple).kind == InfinityType.SIMPLE
    assert infinity_type(RationalMap(Poly([]), Poly([1]))).kind == InfinityType.REGULAR


def test_infinity_type_rejects_higher_order():
    with pytest.raises(PoleTooHigh):
        infinity_type(RationalMap(Poly([0, 0, 1]), Poly([1])))


def test_infinity_double_pole_leading_for_polynomials():
    for k in (1, 2, 3):
        p = Poly([0] * (k + 1) + [1])  # z^(k+1), critical point 0 only
        s = schwarzian(RationalMap(p, Poly([1])))
        t = infinity_type(s)
        assert t.kind == InfinityType.DOUBLE
        expected = (1 - (k + 1) ** 2) / 2
        assert abs(t.leading - expected) <= 1e-9


def test_e_sums_values():
    es = e_sums([0, 1], [2, -2], 3)
    assert all(abs(e) <= 1e-12 for e in es)
    es2 = e_sums([0, 1], [-2 / 3, 2 / 3], 2)
    assert abs(es2[0]) <= 1e-12
    assert abs(-1.5 * es2[1] - (-4)) <= 1e-12


def test_e_sums_empty_and_errors():
    assert e_sums([], [], 2) == [0j, 0j]
    with pytest.raises(DegenerateInput):
        e_sums([0], [1, 2], 1)
    with pytest.raises(DegenerateInput):
        e_sums([0], [1], 0)


def test_critical_points_of_f2(f2):
    pts = sorted(critical_points(f2), key=lambda z: z.real)
    assert np.allclose(pts, [0, 1], atol=1e-9)


def test_pole_report_on_schwarzian(f1):
    s = schwarzian(f1)
    poles, at_inf = pole_report(s)
    assert len(poles) == 2
    assert np.allclose(sorted(g.pole.real for g in poles), [0, 1], atol=1e-8)
    for g in poles:
        assert abs(g.leading - (-1.5)) <= 1e-8
        assert g.local_degree_hint == 2
    assert at_inf.kind == InfinityType.REGULAR


def test_pole_report_handles_split_double_roots():
    # a squared factor stored as an expanded product stresses the root
    # clustering; both poles must still be seen as double
    den = Poly([1, -2, 1]) * Poly([4, 4, 1]) * Poly([-1.5])
    phi = RationalMap(Poly([1, 1]), den)
    poles, _ = pole_report(phi)
    assert len(poles) == 2
    centers = sorted(g.pole.real for g in poles)
    assert np.allclose(centers, [-2, 1], atol=1e-6)
    for g in poles:
        assert abs(g.leading) > 1e-4
    # ((z-1)^2 - 1e-10)(z+2)^2: the double root at 1 is split by 2e-5
    den = Poly([-1e-10 + 1, -2, 1]) * Poly([4, 4, 1])
    phi = RationalMap(Poly([1, 1]), den)
    poles, _ = pole_report(phi)
    assert len(poles) == 2
    centers = sorted(g.pole.real for g in poles)
    assert np.allclose(centers, [-2, 1], atol=1e-6)


def _pullback(phi, s):
    """s^-2 phi(z/s): the same quadratic differential with every pole
    multiplied by s, built from phi's coefficients term by term."""
    num = [c * s ** (-k - 2) for k, c in enumerate(phi.num.coeffs)]
    den = [c * s ** -k for k, c in enumerate(phi.den.coeffs)]
    return RationalMap(Poly(num), Poly(den))


def _holonomy_kind(g):
    return classify_holonomy(g, TruncatedSeries(base=g.pole, coeffs=g.residue_and_tail)).kind


def _assert_matches_exact(phi, order, n_compare, tol):
    """Float Laurent data of phi against the exact oracle at every pole:
    the leading term and a_1..a_n_compare (all of them when n_compare is
    None, else a_1..a_d for the pole's local degree d) within tol relative
    to 1 + max|a_k| over the compared terms; same degree hint and
    holonomy kind."""
    for c, m in root_clusters(phi.den):
        g = laurent_at(phi, c, order)
        exact = exact_laurent(phi, c, m, order + 1)
        n = n_compare if n_compare is not None else g.local_degree_hint
        got = [g.leading, *g.residue_and_tail[:n]]
        scale = 1.0 + max(abs(a) for a in exact[1 : n + 1])
        assert max(abs(a - b) for a, b in zip(got, exact)) <= tol * scale
        germ = LaurentData(pole=c, leading=exact[0], residue_and_tail=tuple(exact[1:]))
        assert g.local_degree_hint == germ.local_degree_hint
        assert _holonomy_kind(g) == _holonomy_kind(germ)


def test_laurent_matches_exact_oracle():
    _assert_matches_exact(schwarzian(h_alpha(2)), 12, 12, 1e-12)
    # ((z-1)^2 - 1e-10)(z+2)^2: the cluster at 1 is expanded as a double pole
    den = Poly([-1e-10 + 1, -2, 1]) * Poly([4, 4, 1])
    _assert_matches_exact(RationalMap(Poly([1, 1]), den), 12, 12, 1e-12)
    rng = np.random.default_rng(1511)
    for deg in (2, 3, 4):
        # Poly keeps coefficients within 1e12 of the largest, so a denominator
        # of degree 4*deg - 4 with roots near 1e2 exists only for deg = 2
        scales = (1e-2, 1.0, 1e2) if deg == 2 else (1e-2, 1.0)
        for _ in range(2):
            phi = schwarzian(RationalMap(rand_poly(rng, deg), rand_poly(rng, deg)))
            for s in scales:
                phi_s = _pullback(phi, s)
                clusters = root_clusters(phi_s.den)
                assert [m for _, m in clusters] == [2] * (2 * deg - 2)
                _assert_matches_exact(phi_s, 8, None, 1e-10)


def test_pole_report_matches_laurent_at_and_a1_ignores_order(corpus):
    den = Poly([-1e-10 + 1, -2, 1]) * Poly([4, 4, 1])
    phis = [schwarzian(f) for f in corpus]
    phis.append(RationalMap(Poly([1, 1]), den))
    for phi in phis:
        for n in (1, 8):
            poles, _ = pole_report(phi, n)
            assert poles == [laurent_at(phi, g.pole, n) for g in poles]
        for g in poles:
            a1 = laurent_at(phi, g.pole, 1).residue_and_tail[0]
            assert a1 == laurent_at(phi, g.pole, 32).residue_and_tail[0]
