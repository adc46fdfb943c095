import ast
import tokenize
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import schwarzian

from schwarzian import (
    INF,
    DegenerateInput,
    Mobius,
    Poly,
    RationalMap,
    mobius_from_triples,
    poly_gcd,
    poly_resultant,
    poly_roots,
)
from schwarzian.algebra import riemann_close, series_inv, series_mul
from schwarzian.jsonio import decode_rational, encode_poly

from conftest import mobius_is_identity, rand_complex, rand_poly


def test_poly_mul_difference_of_squares():
    p = Poly([1, 1]) * Poly([1, -1])
    assert p == Poly([1, 0, -1])


def test_poly_add_identity():
    p = Poly([2, 3, 4])
    assert p + Poly.zero() == p


def test_poly_scalar_distribution(rng):
    p = Poly([0, -1, 1]) * 6
    for _ in range(3):
        z = rand_complex(rng, 2.0)
        assert abs(p(z) - 6 * (z * z - z)) <= 1e-12 * (1 + abs(z)) ** 2


def test_poly_derivative():
    assert Poly([0, 0, -3, 2]).deriv() == Poly([0, -6, 6])
    assert Poly([5]).deriv().is_zero
    assert Poly([0, 0, 0, 0, 1]).deriv() == Poly([0, 0, 0, 4])


def test_poly_mul_evaluation_property(rng):
    for _ in range(10):
        p = rand_poly(rng, int(rng.integers(1, 9)))
        q = rand_poly(rng, int(rng.integers(1, 9)))
        prod = p * q
        for _ in range(10):
            z = rand_complex(rng)
            lhs = prod(z)
            rhs = p(z) * q(z)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_poly_roots_simple():
    assert np.allclose(poly_roots(Poly([-1, 0, 1])), [-1, 1])


def test_poly_roots_quartic_example():
    roots = poly_roots(Poly([0, -2, 0, 0, 1]))
    expected = sorted(
        [0, 2 ** (1 / 3), 2 ** (1 / 3) * np.exp(2j * np.pi / 3),
         2 ** (1 / 3) * np.exp(-2j * np.pi / 3)],
        key=lambda z: (complex(z).real, complex(z).imag),
    )
    got = sorted(roots, key=lambda z: (z.real, z.imag))
    assert np.allclose(got, expected, atol=1e-8)


def test_poly_roots_double_root():
    roots = poly_roots(Poly([-1, 2j, 1]))  # (z + i)^2
    assert len(roots) == 2
    assert all(abs(r + 1j) <= 1e-6 for r in roots)


def test_poly_roots_reconstruction(rng):
    for _ in range(10):
        true = [rand_complex(rng, 2.0) for _ in range(int(rng.integers(2, 9)))]
        # keep the roots well separated
        if min(
            abs(a - b) for i, a in enumerate(true) for b in true[i + 1 :]
        ) < 0.3:
            continue
        p = Poly.from_roots(true)
        rebuilt = Poly.from_roots(poly_roots(p))
        assert len(rebuilt.coeffs) == len(p.coeffs)
        scale = p.scale()
        for a, b in zip(rebuilt.coeffs, p.coeffs):
            assert abs(a - b) <= 1e-7 * (1 + scale)


def test_resultant_examples():
    assert abs(abs(poly_resultant(Poly([0, 1]), Poly([-1, 1]))) - 1) <= 1e-12
    assert abs(poly_resultant(Poly([0, 1]), Poly([0, 1]))) <= 1e-12
    assert abs(poly_resultant(Poly([1, 0, 0, 1]), Poly([0, 0, 1]))) > 1e-6


def test_resultant_zero_iff_shared_root(rng):
    for _ in range(20):
        r1 = [rand_complex(rng, 2.0) for _ in range(3)]
        r2 = [rand_complex(rng, 2.0) for _ in range(3)]
        share = rng.uniform() < 0.5
        if share:
            r2[0] = r1[0]
        p, q = Poly.from_roots(r1), Poly.from_roots(r2)
        res = poly_resultant(p, q)
        mind = min(abs(a - b) for a in r1 for b in r2)
        if share:
            assert abs(res) <= 1e-8
        elif mind > 1e-3:
            assert abs(res) > 1e-9


def test_rational_normalize_monic_rescale():
    f = RationalMap(Poly([0, 2]), Poly([2]))
    assert f.num == Poly([0, 1])
    assert f.den == Poly([1])


def test_rational_normalize_coprime_fixed_point():
    f = RationalMap(Poly([1, 0, 0, 1]), Poly([0, 0, 2]))
    assert f.den == Poly([0, 0, 1])
    assert np.allclose(f.num.coeffs, [0.5, 0, 0, 0.5])


def test_rational_normalize_rejects_zero_over_zero():
    with pytest.raises(DegenerateInput):
        RationalMap(Poly.zero(), Poly.zero())


def test_rational_normalize_rejects_undecidable_common_root():
    # The roots 0 and 1e-8 are too close for the gcd's zero tolerance to
    # tell shared from distinct; Euclid's candidate fails verification.
    num = Poly.from_roots([0, 1])
    den = Poly.from_roots([1e-8, 1, -2, 1j])
    with pytest.raises(DegenerateInput):
        poly_gcd(num, den)
    # RationalMap stores the pair as given; JSON input that shares the root
    # 1 is rejected, and the root 0 near 1e-8 alone would not be
    f = RationalMap(num, den)
    assert f.num.degree == 2 and f.den.degree == 4
    with pytest.raises(DegenerateInput, match="share a root"):
        decode_rational({"num": encode_poly(num), "den": encode_poly(den)})
    decode_rational({"num": encode_poly(Poly.from_roots([0, 3])), "den": encode_poly(den)})


def test_mobius_apply_basic():
    assert Mobius(1, 0, 0, 1)(2 + 1j) == 2 + 1j
    inv = Mobius(0, 1, 1, 0)
    assert inv(0j) is INF
    assert inv(INF) == 0


def test_mobius_from_triples_identity():
    m = mobius_from_triples((0, 1, INF), (0, 1, INF))
    assert mobius_is_identity(m)


def test_mobius_from_triples_interpolates(rng):
    for _ in range(5):
        src = [rand_complex(rng, 2.0) for _ in range(3)]
        dst = [rand_complex(rng, 2.0) for _ in range(3)]
        m = mobius_from_triples(src, dst)
        for s, d in zip(src, dst):
            assert riemann_close(m(s), d, tol=1e-9)


def test_mobius_triples_roundtrip(rng):
    src = [0.3 + 0.1j, -1.2, 2.0 + 2.0j]
    dst = [1.0, 1j, -0.5]
    m = mobius_from_triples(src, dst)
    minv = mobius_from_triples(dst, src)
    for s in src:
        assert abs(minv(m(s)) - s) <= 1e-10


def test_mobius_from_triples_rejects_repeats():
    with pytest.raises(DegenerateInput):
        mobius_from_triples((1, 1, 2), (0, 1, 2))


def test_mobius_group_law(rng):
    for _ in range(10):
        m1 = Mobius(*(rand_complex(rng) for _ in range(4)))
        m2 = Mobius(*(rand_complex(rng) for _ in range(4)))
        z = rand_complex(rng, 2.0)
        lhs = (m1 @ m2)(z)
        rhs = m1(m2(z))
        assert riemann_close(lhs, rhs, tol=1e-9)


def test_poly_shift_is_taylor():
    p = Poly([1, -2, 0, 3])
    c = 0.7 - 0.2j
    shifted = p.shift(c)
    t = 0.05 + 0.01j
    direct = p(c + t)
    via = sum(s * t**k for k, s in enumerate(shifted))
    assert abs(direct - via) <= 1e-12


def test_series_inverse():
    a = [1.0, 0.5, -0.25, 0.1]
    inv = series_inv(a, 4)
    prod = series_mul(a, inv, 4)
    assert abs(prod[0] - 1) <= 1e-14
    assert all(abs(c) <= 1e-14 for c in prod[1:])


def test_rational_eval_at_infinity():
    f = RationalMap(Poly([0, 0, 1]), Poly([1, 1]))
    assert f(INF) is INF
    g = RationalMap(Poly([1]), Poly([0, 1]))
    assert g(INF) == 0


def test_every_tolerance_is_in_the_table():
    # A float literal with a negative exponent is a tolerance.  The only ones
    # in src/ are the values of the module-level table in algebra.py, and no
    # module-level constant name is defined in two modules.
    src = Path(schwarzian.__file__).parent
    table = {node.lineno for node in ast.parse((src / "algebra.py").read_text()).body
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)}
    stray, names = [], Counter()
    for path in sorted(src.glob("*.py")):
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if (tok.type == tokenize.NUMBER and "e-" in tok.string.lower()
                        and not (path.name == "algebra.py" and tok.start[0] in table)):
                    stray.append(f"{path.name}:{tok.start[0]}: {tok.string}")
        names.update(target.id for node in ast.parse(path.read_text()).body
                     if isinstance(node, ast.Assign) for target in node.targets
                     if isinstance(target, ast.Name) and target.id.isupper())
    assert stray == []
    assert [name for name, count in names.items() if count > 1] == []
