"""The closed loop from critical points to verdict, run on the package's own
outputs: points -> reconstruct_rational -> schwarzian -> pole_report and
`check rational` -> a perturbed phi, which must be rejected.

The critical points of f are exactly the poles of S_f, each of local degree 2,
so every stage has a known answer.  Five kinds of point sets, 8 each with
mu = 1, 2 alternating: as drawn (complex normal), scaled by 1e-2, translated
by 20, Mobius images under z -> (az + b)/(cz + d) with complex-normal
a, b, c, d, and scaled by 1e-3; all five are built from the same draws.  The perturbation adds eps/(z - c_0) at the first point c_0, with
eps = 1e-4 times the largest coefficient of phi's denominator, written over
that denominator so every pole stays double.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from schwarzian import (Poly, RationalMap, catalan, critical_points, pole_report,
                        reconstruct_rational, schwarzian)
from schwarzian.cli import EXIT_OK, main
from schwarzian.jsonio import encode_rational

KINDS = ("drawn", "scaled", "translated", "mobius", "scaled-1e-3")


def _point_sets():
    rng = np.random.default_rng(2026)
    sets = {kind: [] for kind in KINDS}
    for i in range(8):
        mu = 1 + i % 2
        pts = list(rng.standard_normal(2 * mu) + 1j * rng.standard_normal(2 * mu))
        a, b, c, d = (rng.standard_normal(4) + 1j * rng.standard_normal(4)).tolist()
        sets["drawn"].append(pts)
        sets["scaled"].append([1e-2 * p for p in pts])
        sets["translated"].append([p + 20 for p in pts])
        sets["mobius"].append([(a * p + b) / (c * p + d) for p in pts])
        sets["scaled-1e-3"].append([1e-3 * p for p in pts])
    return sets


def _matches(found, points):
    # one found value within 1e-6 (1 + |p|) of each point, none left over
    left = list(points)
    for x in found:
        if not left:
            return False
        j = min(range(len(left)), key=lambda k: abs(left[k] - x))
        if abs(left[j] - x) > 1e-6 * (1 + abs(left[j])):
            return False
        left.pop(j)
    return not left


def _check_rational(phi, path):
    path.write_text(json.dumps({"phi": encode_rational(phi), "mode": "rational"}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["check", "--in", str(path)])
    return code == EXIT_OK and json.loads(out.getvalue())["overall"]


@pytest.fixture(scope="module")
def loop(tmp_path_factory):
    """Per kind, one record per point set and one per map, stage by stage."""
    path = tmp_path_factory.mktemp("loop") / "payload.json"
    out = {}
    for kind, sets in _point_sets().items():
        complete, maps = [], []
        for pts in sets:
            found, _ = reconstruct_rational(pts)
            complete.append(len(found) == catalan(len(pts) // 2 + 1))
            for f in found:
                phi = schwarzian(f)
                poles, _ = pole_report(phi, order=1)
                quot, _ = phi.den.divmod(Poly([-pts[0], 1]))
                eps = 1e-4 * phi.den.scale()
                perturbed = RationalMap(phi.num + eps * quot, phi.den)
                maps.append({
                    "critical points": _matches(critical_points(f), pts),
                    "poles": _matches([g.pole for g in poles], pts)
                    and all(g.local_degree_hint == 2 for g in poles),
                    "check rational": _check_rational(phi, path),
                    "perturbed rejected": not _check_rational(perturbed, path),
                })
        out[kind] = complete, maps
    return out


def _failed(maps, stage):
    return [i for i, m in enumerate(maps) if not m[stage]]


@pytest.mark.parametrize("kind", KINDS)
def test_loop_reconstructs_the_points(loop, kind):
    # every set gets its Catalan number of maps, each critical at the points
    complete, maps = loop[kind]
    assert all(complete)
    assert len(maps) == 12
    assert _failed(maps, "critical points") == []


# The kinds that fail at the verdict, each with the ROADMAP item that mends it.
# Translated sets: S_f held as monomial coefficients about 0 cannot carry its
# values near poles at 20 (a degree-8 denominator there sums terms near 40^8),
# so even the exact coefficients rounded to doubles are off by 9e-2 relative.
# Mobius images: a close triple of points gets leading terms off -3/2 by 3e-7,
# beyond CRITERION_TOL.  Computing S_f in a coordinate centred at the points
# gives 12 of 12 maps in both kinds ("affine charts").
@pytest.mark.parametrize("kind", [
    "drawn",
    "scaled",
    pytest.param("translated", marks=pytest.mark.xfail(
        strict=True, reason="S_f in monomials about 0 loses its values near "
                            "the poles (ROADMAP: affine charts)")),
    pytest.param("mobius", marks=pytest.mark.xfail(
        strict=True, reason="leading terms of a close triple miss -3/2; the "
                            "centred computation mends it (ROADMAP: affine charts)")),
    "scaled-1e-3",
])
def test_loop_decides_its_own_schwarzians(loop, kind):
    # the poles of S_f are the points, each of local degree 2, and
    # check rational accepts S_f
    _, maps = loop[kind]
    assert _failed(maps, "poles") == []
    assert _failed(maps, "check rational") == []


@pytest.mark.parametrize("kind", KINDS)
def test_loop_rejects_perturbed_schwarzians(loop, kind):
    _, maps = loop[kind]
    assert _failed(maps, "perturbed rejected") == []
