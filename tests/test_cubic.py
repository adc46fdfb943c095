import cmath
import itertools

import numpy as np
import pytest

from schwarzian import (
    INF,
    DegenerateInput,
    J,
    Mobius,
    Poly,
    RationalMap,
    criticality_discriminant,
    cross_ratio,
    cubic_fiber_explicit,
    four_group,
    h_alpha,
    is_regular_tetrahedron,
    lift_correspondence,
    critical_points,
    ratio_orbit,
    schwarzian,
    wronskian,
)
from schwarzian.algebra import _chordal, riemann_close

from conftest import mobius_is_identity, rand_complex, rand_poly, rational_close, tetrahedral_images


def test_cross_ratio_normalization():
    # [0, 1, t, inf] = t under this convention's Mobius normalization
    t = (1 + 1j * np.sqrt(3)) / 2
    assert abs(cross_ratio(1, J, J * J, 0) - t) <= 1e-10
    # scaled far down: the Mobius normalization must not be called singular
    for s in (1e-7, 1e-9):
        pts = [s, s * J, s * J * J, 0]
        assert abs(cross_ratio(*pts) - t) <= 1e-8
        assert is_regular_tetrahedron(pts)
    # translated far out: the result keeps the rounding of the inputs
    t = cross_ratio(0, 1, 2, 3j)
    assert abs(cross_ratio(*(1e8 + z for z in (0, 1, 2, 3j))) - t) <= 1e-7 * abs(t)


def test_cross_ratio_finite_formula():
    a, b, c, d = 0, 1, 2, 4
    val = cross_ratio(a, b, c, d)
    assert abs(val - ((a - c) * (b - d)) / ((c - b) * (d - a))) <= 1e-12


def test_cross_ratio_infinity_limits():
    base = [0.3, -1.2 + 0.4j, 2.0, 5.0 - 1.0j]
    for pos in range(4):
        pts = list(base)
        pts[pos] = INF
        val = cross_ratio(*pts)
        big = list(base)
        big[pos] = 1e9
        approx = cross_ratio(*big)
        assert abs(val - approx) <= 1e-6 * (1 + abs(val))


def test_cross_ratio_mobius_invariance(rng):
    pts = [0.5, -1.0 + 0.3j, 2.2, -0.7j]
    t = cross_ratio(*pts)
    for _ in range(5):
        m = Mobius(*(rand_complex(rng) + 0.5 for _ in range(4)))
        imgs = [m(p) for p in pts]
        assert abs(cross_ratio(*imgs) - t) <= 1e-8 * (1 + abs(t))


def test_cross_ratio_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        cross_ratio(1, 1, 2, 3)
    with pytest.raises(DegenerateInput):
        cross_ratio(INF, INF, 1, 2)


def test_ratio_orbit():
    t = 0.3 + 0.4j
    orbit = ratio_orbit(t)
    assert len(orbit) == 6
    assert t in orbit
    assert any(abs(v - 1 / t) <= 1e-12 for v in orbit)
    with pytest.raises(DegenerateInput):
        ratio_orbit(1.0)


def test_ratio_orbit_closed_under_involutions():
    t = 1.7 - 0.6j
    orbit = set()
    for v in ratio_orbit(t):
        orbit.update(ratio_orbit(v))
    assert len({round(v.real, 9) + 1j * round(v.imag, 9) for v in orbit}) == 6


def test_tetrahedron_canonical():
    assert is_regular_tetrahedron([1, J, J * J, 0])
    assert is_regular_tetrahedron([0, 1, J, J * J])
    assert not is_regular_tetrahedron([0, 1, 2, 3])
    assert not is_regular_tetrahedron([1, -1, 1j, 2j])


def test_tetrahedron_mobius_images(rng):
    for imgs in tetrahedral_images(rng, 10):
        assert is_regular_tetrahedron(imgs)
    base = [1, J, J * J, 0]
    for z0 in base:  # z -> a/(z - z0) + b sends z0 to INF
        a, b = rand_complex(rng) + 0.3, rand_complex(rng)
        assert is_regular_tetrahedron([INF if z == z0 else a / (z - z0) + b for z in base])
    assert not is_regular_tetrahedron([INF, 0, 1, 2])


def test_criticality_discriminant_examples():
    # z^4 - 2z: w = (0, -2, 0, 0) -> 0 + 0 - 0 = 0
    assert abs(criticality_discriminant((0, -2, 0, 0))) <= 1e-12
    # z^4 - 1: w = (-1, 0, 0, 0) -> -12
    assert abs(criticality_discriminant((-1, 0, 0, 0)) - (-12)) <= 1e-12


def test_cubic_fiber_explicit_z4_minus_1():
    branches = cubic_fiber_explicit((-1, 0, 0, 0))
    assert len(branches) == 2
    root3 = np.sqrt(3.0)
    got = sorted((b.a_p[1].imag for b in branches))
    assert np.allclose(got, [-root3, root3], atol=1e-12)
    for b in branches:
        w = wronskian(b)
        assert np.allclose(w.coeffs, [-1, 0, 0, 0, 1], atol=1e-10)


def test_cubic_fiber_explicit_merged():
    branches = cubic_fiber_explicit((0, -2, 0, 0))
    assert len(branches) == 1
    b = branches[0]
    assert np.allclose(b.vector(), [1, 0, 0, 0], atol=1e-12)
    w = wronskian(b)
    assert np.allclose(w.coeffs, [0, -2, 0, 0, 1], atol=1e-10)


def test_merged_branch_does_not_depend_on_labels():
    # Over a tetrahedron the one branch is the same under all 24 orderings of
    # the four roots, and its Wronskian is the quartic
    for pts in tetrahedral_images(np.random.default_rng(1), 200):
        first = None
        for perm in itertools.permutations(pts):
            w = Poly.from_roots(list(perm)).coeffs[:4]
            scale = 1 + max(abs(x) for x in w)
            (b,) = cubic_fiber_explicit(w)
            first = b.vector() if first is None else first
            assert np.max(np.abs(b.vector() - first)) <= 1e-12 * scale
            assert np.max(np.abs(np.array(wronskian(b).coeffs) - [*w, 1])) <= 1e-12 * scale


def test_cubic_fiber_explicit_random(rng):
    for _ in range(10):
        w = tuple(rand_complex(rng) for _ in range(4))
        for b in cubic_fiber_explicit(w):
            got = wronskian(b)
            for x, y in zip(got.coeffs, list(w) + [1.0]):
                assert abs(x - y) <= 1e-9 * (1 + abs(y))


def test_three_predicates_agree(rng):
    for _ in range(25):
        w = tuple(rand_complex(rng) for _ in range(4))
        disc = criticality_discriminant(w)
        roots = np.roots([1.0, w[3], w[2], w[1], w[0]])
        if min(
            abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]
        ) < 1e-3:
            continue
        tet = is_regular_tetrahedron(list(roots))
        merged = len(cubic_fiber_explicit(w)) == 1
        disc_zero = abs(disc) <= 1e-8 * (1 + max(abs(x) for x in w))
        assert tet == merged == disc_zero
    # Moved away from 0 or rescaled, a set keeps its verdict and branch count.
    for pts in ([100, 101, 102, 100 + 3j], [0, 1e-3, 2e-3, 3e-3j]):
        assert not is_regular_tetrahedron(pts)
        assert len(cubic_fiber_explicit(np.poly(pts)[::-1][:4])) == 2
    for imgs in tetrahedral_images(np.random.default_rng(2), 200):
        for pts in (imgs, [1e-3 * p for p in imgs], [1e3 * p for p in imgs],
                    [p + 100 for p in imgs]):
            assert is_regular_tetrahedron(pts)
            assert len(cubic_fiber_explicit(np.poly(pts)[::-1][:4])) == 1


def test_h_alpha_structure(rng):
    h = h_alpha(2)
    # den is rescaled monic, num by the same factor
    assert np.allclose(h.num.coeffs, [2, 0, 1.5, 1])
    assert np.allclose(h.den.coeffs, [0.5, 3, 0, 1])
    # num and den are coprime for a^6 != 1: reducing them changes nothing
    for _ in range(20):
        h = h_alpha(rand_complex(rng, 2.0))
        reduced = RationalMap(h.num, h.den)
        assert reduced.den.degree == 3
        assert rational_close(reduced, h, 1e-12)
    with pytest.raises(DegenerateInput):
        h_alpha(1)
    with pytest.raises(DegenerateInput):
        h_alpha(J)


def test_h_alpha_critical_points():
    for alpha in (2, 3 + 1j):
        h = h_alpha(alpha)
        crit = critical_points(h)
        expected = [1, J, J * J, complex(alpha) ** 2]
        for e in expected:
            assert min(abs(c - e) for c in crit) <= 1e-7


def test_four_group_properties():
    pts = [1, J, J * J, 0]
    ms = four_group(pts)
    assert len(ms) == 3
    for m in ms:
        assert not mobius_is_identity(m)
        # involution
        sq = m @ m
        for z in (0.3, 1.1 - 0.2j, -2.0):
            assert riemann_close(sq(z), z, tol=1e-8)
        # permutes the set
        for p in pts:
            image = m(p)
            assert any(riemann_close(image, q, tol=1e-7) for q in pts)


def test_four_group_random_quadruple(rng):
    pts = [rand_complex(rng, 1.5) for _ in range(4)]
    ms = four_group(pts)
    for m in ms:
        for p in pts:
            assert any(riemann_close(m(p), q, tol=1e-6) for q in pts)


def test_four_group_rejects_inaccurate_involutions():
    # Two points apart by more than DISTINCT_TOL but close enough that the
    # computed involutions miss the fourth point: the validation rejects them
    for k in (2e-12, 1e-11, 1e-10):
        with pytest.raises(DegenerateInput, match="validation"):
            four_group([0.1 + 0.2j, -0.3 + 0.05j, 0.2 - 0.4j, 0.1 + 0.2j + k * (1 + 0.6j)])


def test_lift_correspondence_h2():
    h = h_alpha(2)
    pairs = lift_correspondence(h)
    assert len(pairs) == 3
    for m, n in pairs:
        for k in range(8):
            z = 0.9 * cmath.exp(2j * cmath.pi * (k + 0.21) / 8)
            assert riemann_close(h(m(z)), n(h(z)), tol=1e-7)


def test_lift_correspondence_schwarzian_compatible():
    # S_h has poles exactly at the critical points, each with leading -3/2
    from schwarzian import laurent_at

    h = h_alpha(3 + 1j)
    s = schwarzian(h)
    for c in critical_points(h):
        g = laurent_at(s, c, 2)
        assert abs(g.leading - (-1.5)) <= 1e-7


def test_lift_correspondence_holds_off_the_sample_points():
    # f o M = N o f at 8 points away from the 20 that lift_correspondence
    # verifies, on 100 random cubics and 100 members of the h_alpha family
    rng = np.random.default_rng(23)
    maps = [RationalMap(rand_poly(rng, 3), rand_poly(rng, 3)) for _ in range(100)]
    maps += [h_alpha(rand_complex(rng, 2.0)) for _ in range(100)]
    for f in maps:
        pairs = lift_correspondence(f)
        assert len(pairs) == 3
        for m, n in pairs:
            for k in range(8):
                z = (0.6 if k % 2 else 3.1) * cmath.exp(2j * cmath.pi * (k + 0.5) / 8)
                assert riemann_close(f(m(z)), n(f(z)), tol=1e-7)


def _nearest_permutation(m, points):
    # Index of the point nearest each image, which must lie within 1e-6
    perm = []
    for p in points:
        dist = [_chordal(m(p), q) for q in points]
        perm.append(dist.index(min(dist)))
        assert dist[perm[-1]] <= 1e-6
    return perm


def test_lift_correspondence_close_critical_values():
    # Critical values 1 and 1 + 1.4e-7 lie close together, so each image must
    # go to its nearest value.  Each involution permutes its four points, and
    # the paired M and N permute critical points and values alike.
    h = h_alpha(cmath.sqrt(1.0124267453851876 + 0.0020538062647742377j))
    crit = critical_points(h)
    values = [h(c) for c in crit]
    for pts in (crit, values):
        for m in four_group(pts):
            assert sorted(_nearest_permutation(m, pts)) == [0, 1, 2, 3]
    pairs = lift_correspondence(h)
    assert len(pairs) == 3
    for m, n in pairs:
        assert _nearest_permutation(m, crit) == _nearest_permutation(n, values)
