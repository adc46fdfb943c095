import numpy as np
import pytest

from schwarzian import (
    CriticalConfiguration,
    DegenerateInput,
    HolonomyClass,
    Poly,
    RationalMap,
    TruncatedSeries,
    build_phi,
    check_polynomial_criterion,
    check_rational_criterion,
    classify_holonomy,
    condition_determinant,
    k_coefficients,
    laurent_at,
    merom_generator,
    schwarzian,
    series_obstruction,
    y_polynomial,
)
from schwarzian.algebra import require_coprime
from schwarzian.primitivity import L_values, RATIONAL_VARIANTS

from conftest import paper_determinant, rand_complex, rational_close, series_b_hat


def test_k_coefficients():
    assert k_coefficients(1) == []
    assert k_coefficients(2) == [-2.0]
    assert k_coefficients(4) == [-6.0, -8.0, -6.0]


def test_condition_determinant_d1_is_residue():
    assert condition_determinant(1, [3 + 1j]) == 3 + 1j


def test_condition_determinant_d2():
    # det [[a1, -2], [a2, a1]] = a1^2 + 2 a2
    assert abs(condition_determinant(2, [-3, -4.5]) - 0) <= 1e-12
    assert abs(condition_determinant(2, [0, 1]) - 2) <= 1e-12
    a1, a2 = 1.3 - 0.2j, 0.7j
    assert abs(condition_determinant(2, [a1, a2]) - (a1 * a1 + 2 * a2)) <= 1e-12


def test_condition_determinant_shape_errors():
    with pytest.raises(DegenerateInput):
        condition_determinant(2, [1])
    with pytest.raises(DegenerateInput):
        condition_determinant(0, [])


def test_y_polynomial_d2():
    for a1 in (0.5, -1 + 2j, 3):
        y = y_polynomial(2, [a1])
        assert abs(y - (-(a1 * a1) / 2)) <= 1e-12
        assert abs(condition_determinant(2, [a1, y])) <= 1e-10


def test_y_polynomial_zeroes_determinant(rng):
    for d in (3, 4, 5):
        for _ in range(5):
            x = [rand_complex(rng) for _ in range(d - 1)]
            y = y_polynomial(d, x)
            det = paper_determinant(d, x + [y])
            scale = 1 + max(abs(v) for v in x + [y]) ** d
            assert abs(det) <= 1e-8 * scale


def test_series_obstruction_matches_determinant(rng):
    # b_hat_d against the independent series oracle, and its zero locus
    # against the paper's dense determinant
    for d in (2, 3, 4):
        for _ in range(10):
            a = [rand_complex(rng) for _ in range(d + 1)]
            q = TruncatedSeries(base=0j, coeffs=tuple(a))
            b = series_obstruction(d, q)
            assert abs(b - series_b_hat(d, a)) <= 1e-12 * (1 + abs(b))
            if abs(paper_determinant(d, a[:d])) > 1e-8:
                assert abs(b) > 1e-12
            y = y_polynomial(d, a[: d - 1])
            q0 = TruncatedSeries(base=0j, coeffs=tuple(a[: d - 1] + [y] + a[d:]))
            assert abs(series_obstruction(d, q0)) <= 1e-8
            assert abs(series_b_hat(d, a[: d - 1] + [y])) <= 1e-8


def test_closed_forms_match_paper_forms():
    # det = (-1)^(d-1) (prod k_j) r, b_hat = r / (2 d^2) and Y_d(x) = -r(x, 0)
    # against the dense determinant and the series b_hat of conftest, for
    # d = 1..60 and unit complex tails; Y_d is the root of the dense
    # determinant, which is affine in a_d
    rng = np.random.default_rng(1)
    for d in range(1, 61):
        for _ in range(3):
            a = list(np.exp(2j * np.pi * rng.uniform(size=d)))
            det = paper_determinant(d, a)
            assert abs(condition_determinant(d, a) - det) <= 1e-11 * abs(det)
            b = series_b_hat(d, a)
            q = TruncatedSeries(base=0j, coeffs=tuple(a))
            assert abs(series_obstruction(d, q) - b) <= 1e-13 * abs(b)
            at0, at1 = (paper_determinant(d, a[:-1] + [t]) for t in (0j, 1 + 0j))
            y = -at0 / (at1 - at0)
            assert abs(y_polynomial(d, a[:-1]) - y) <= 1e-12 * (1 + abs(y))


def test_series_obstruction_worked_values():
    q_good = TruncatedSeries(base=0j, coeffs=(-3, -4.5, 0))
    assert abs(series_obstruction(2, q_good)) <= 1e-12
    q_bad = TruncatedSeries(base=0j, coeffs=(0, 1, 0))
    assert abs(series_obstruction(2, q_bad) - 0.125) <= 1e-12


def test_classify_holonomy_identity(phi1):
    germ = laurent_at(phi1, 0, 4)
    q = TruncatedSeries(base=0j, coeffs=germ.residue_and_tail)
    h = classify_holonomy(germ, q)
    assert h.kind == HolonomyClass.IDENTITY


def test_classify_holonomy_phi2_is_locally_unobstructed(phi2):
    # phi2 only fails the global rational criterion, not the local one
    germ = laurent_at(phi2, 0, 4)
    q = TruncatedSeries(base=0j, coeffs=germ.residue_and_tail)
    assert classify_holonomy(germ, q).kind == HolonomyClass.IDENTITY


def test_classify_holonomy_obstructed():
    from schwarzian.quaddiff import LaurentData

    germ = LaurentData(pole=0j, leading=-1.5, residue_and_tail=(0j, 1.0, 0j))
    q = TruncatedSeries(base=0j, coeffs=germ.residue_and_tail)
    h = classify_holonomy(germ, q)
    assert h.kind == HolonomyClass.PARABOLIC_OBSTRUCTED
    assert abs(h.obstruction - 0.125) <= 1e-12


def test_classify_holonomy_reads_exactly_d_coefficients():
    # r reads a_1..a_d, so a germ carrying exactly a_1, a_2 at d = 2 is decided
    from schwarzian.quaddiff import LaurentData

    for tail, kind, b_hat in (((-3, -4.5), HolonomyClass.IDENTITY, 0.0),
                              ((0j, 1.0), HolonomyClass.PARABOLIC_OBSTRUCTED, 0.125)):
        germ = LaurentData(pole=0j, leading=-1.5, residue_and_tail=tail)
        q = TruncatedSeries(base=0j, coeffs=tail)
        assert classify_holonomy(germ, q).kind == kind
        assert abs(series_obstruction(2, q) - b_hat) <= 1e-12


def test_classify_holonomy_short_tail_raises():
    # d = 2 needs a_1..a_2; a one-term tail must not be read as zeros
    from schwarzian.quaddiff import LaurentData

    germ = LaurentData(pole=0j, leading=-1.5, residue_and_tail=(0j,))
    with pytest.raises(DegenerateInput):
        classify_holonomy(germ, TruncatedSeries(base=0j, coeffs=germ.residue_and_tail))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("eps", [1e-9, 5e-9, 2e-8, 5e-8])
def test_degree_hint_and_holonomy_agree_near_integer_degree(d, eps):
    # leading = (1-d^2)/2 + eps: the degree hint is None exactly when the
    # holonomy class is one of the non-integer-degree kinds
    phi = RationalMap(Poly([(1 - d * d) / 2 + eps]), Poly([0, 0, 1]))
    germ = laurent_at(phi, 0, 8)
    kind = classify_holonomy(germ, TruncatedSeries(base=0j, coeffs=germ.residue_and_tail)).kind
    non_integer = kind in (HolonomyClass.ELLIPTIC, HolonomyClass.PARABOLIC_ZERO)
    assert (germ.local_degree_hint is None) == non_integer


def test_classify_holonomy_elliptic():
    from schwarzian.quaddiff import LaurentData

    germ = LaurentData(pole=0j, leading=0.375, residue_and_tail=(0j, 0j, 0j))
    q = TruncatedSeries(base=0j, coeffs=germ.residue_and_tail)
    h = classify_holonomy(germ, q)
    assert h.kind == HolonomyClass.ELLIPTIC
    assert abs(h.multiplier - (-1)) <= 1e-9
    assert h.unitary


def test_classify_holonomy_parabolic_zero():
    from schwarzian.quaddiff import LaurentData

    germ = LaurentData(pole=0j, leading=0.5, residue_and_tail=(0j, 0j))
    q = TruncatedSeries(base=0j, coeffs=germ.residue_and_tail)
    assert classify_holonomy(germ, q).kind == HolonomyClass.PARABOLIC_ZERO


@pytest.mark.parametrize("leading", [1, 1 + 1e-20j, 1 - 1e-20j])
def test_classify_holonomy_branch_on_the_imaginary_axis(leading):
    # 1 - 2 leading is -1 up to a sign of Im: for 1 + 1e-20j, cmath.sqrt
    # gives delta = 1e-20 - i, which the branch choice flips to +i, so all
    # three read the multiplier e^(2 pi i delta) = e^(-2 pi)
    from schwarzian.quaddiff import LaurentData

    germ = LaurentData(pole=0j, leading=leading, residue_and_tail=(0j, 0j))
    h = classify_holonomy(germ, TruncatedSeries(base=0j, coeffs=germ.residue_and_tail))
    assert h.kind == HolonomyClass.ELLIPTIC
    assert not h.unitary
    assert abs(h.multiplier - 0.0018674427317079893) <= 1e-15


def test_l_values_f1_configuration():
    config = CriticalConfiguration((0, 1), (2, -2))
    for l in L_values(config):
        assert abs(l) <= 1e-12


def test_l_values_nonzero_for_generic_params():
    config = CriticalConfiguration((0, 1), (1, 1))
    assert any(abs(l) > 1e-6 for l in L_values(config))


def test_build_phi_reproduces_schwarzian(f1, phi1):
    config = CriticalConfiguration((0, 1), (2, -2))
    phi = build_phi(config)
    assert rational_close(phi, phi1, tol=1e-10)


def test_build_phi_poles_and_residues(rng):
    pts = (0.5, -1 + 1j, 2)
    prm = tuple(rand_complex(rng) for _ in pts)
    phi = build_phi(CriticalConfiguration(pts, prm))
    for c, a in zip(pts, prm):
        g = laurent_at(phi, c, 2)
        assert abs(g.leading - (-1.5)) <= 1e-8
        assert abs(g.residue_and_tail[0] - (-1.5 * a)) <= 1e-8
    # the numerator at c_i is -(3/2) prod_{j != i} (c_i - c_j)^2 != 0
    for k in (1, 2, 3, 4):
        pts = tuple(rand_complex(rng, 2.0) for _ in range(k))
        phi = build_phi(CriticalConfiguration(pts, tuple(rand_complex(rng) for _ in pts)))
        assert phi.den.degree == 2 * k
        require_coprime(phi.num, phi.den, "num and den")


def test_rational_criterion_f1_passes():
    config = CriticalConfiguration((0, 1), (2, -2))
    for variant in RATIONAL_VARIANTS:
        rec = check_rational_criterion(config, variant)
        assert rec.overall, variant


def test_rational_criterion_f2_config_fails_e2():
    # polynomial configuration: E2 != 0, so the rational test fails
    config, _ = check_polynomial_criterion([0, 1])
    rec = check_rational_criterion(config)
    assert not rec.overall
    by_name = {e["name"]: e for e in rec.equations}
    assert by_name["E2"]["residual"] > 1e-6
    assert all(by_name[f"L{i}"]["pass"] for i in (1, 2))


def test_rational_criterion_rejects_unknown_variant():
    config = CriticalConfiguration((0, 1), (2, -2))
    with pytest.raises(DegenerateInput):
        check_rational_criterion(config, "bogus")


def test_polynomial_criterion_z_zminus1():
    config, rec = check_polynomial_criterion([0, 1])
    assert rec.overall
    assert np.allclose(config.params, [-2 / 3, 2 / 3])


def test_polynomial_criterion_rejects_repeated_points():
    with pytest.raises(DegenerateInput):
        check_polynomial_criterion([0, 0, 1])


def test_polynomial_criterion_matches_actual_polynomials(rng):
    # critical points of a random degree-4 polynomial with simple zeros of P'
    roots = [0.0, 1.0, -0.5 + 0.8j]
    p_prime = Poly.from_roots(roots)
    # integrate
    coeffs = [0j] + [c / (k + 1) for k, c in enumerate(p_prime.coeffs)]
    f = RationalMap(Poly(coeffs), Poly([1]))
    s = schwarzian(f)
    config, rec = check_polynomial_criterion(roots)
    assert rec.overall
    phi = build_phi(config)
    assert rational_close(s, phi, tol=1e-8)


def test_merom_generator_zero_g():
    psi = merom_generator([0, 1], [0.7, -0.3j], Poly.zero())
    for c, r in zip([0, 1], [0.7, -0.3j]):
        g = laurent_at(psi, c, 2)
        assert abs(g.leading - (-1.5)) <= 1e-9
        assert abs(g.residue_and_tail[0] - r) <= 1e-9
        assert abs(g.residue_and_tail[1] - (-r * r / 2)) <= 1e-9
        assert abs(condition_determinant(2, list(g.residue_and_tail[:2]))) <= 1e-8


def test_merom_generator_with_polynomial_part(rng):
    pts = [0.0, 1.0, -1.0 + 0.5j]
    res = [rand_complex(rng) for _ in pts]
    g_poly = Poly([rand_complex(rng), rand_complex(rng), 1.0])
    psi = merom_generator(pts, res, g_poly)
    for c, r in zip(pts, res):
        g = laurent_at(psi, c, 2)
        assert abs(g.leading - (-1.5)) <= 1e-9
        assert abs(g.residue_and_tail[0] - r) <= 1e-8
        assert abs(g.residue_and_tail[1] - (-r * r / 2)) <= 1e-7


def test_merom_generator_rejects_colliding_points():
    with pytest.raises(DegenerateInput):
        merom_generator([0, 0], [1, 1], Poly.zero())
