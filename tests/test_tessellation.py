import json
import math
import random
from fractions import Fraction

import pytest

from cuspdyn.exact import INF, Rational
from cuspdyn.moebius import GroupElement, HPoint, identity
from cuspdyn.svg import render_domain_svg
from cuspdyn.tessellation import (
    _MAX_REDUCE_STEPS,
    _domain,
    build_domain,
    cell,
    domain_to_json,
    g_pair,
    locate_cell,
    matrix_literal,
    modular_domain,
    reduce_point,
    reduce_point_detailed,
)

PRIMES = (2, 3, 5, 7, 11, 13)


def test_build_domain_p5():
    dom = build_domain(5)
    assert [s.center for s in dom.spheres] == [Fraction(q, 5) for q in (1, 2, 3, 4)]
    assert all(s.radius == Fraction(1, 5) for s in dom.spheres)
    assert [v.x for v in dom.inner_vertices] == [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]
    assert all(v.y2 == Fraction(3, 100) for v in dom.inner_vertices)
    assert [m.x for m in dom.maxima] == [Fraction(q, 5) for q in (1, 2, 3, 4)]
    assert all(m.y2 == Fraction(1, 25) for m in dom.maxima)


def test_build_domain_small_primes():
    dom2 = build_domain(2)
    assert len(dom2.spheres) == 1 and dom2.spheres[0].center == Fraction(1, 2)
    assert dom2.spheres[0].radius == Fraction(1, 2)
    assert dom2.inner_vertices == ()
    dom3 = build_domain(3)
    assert [s.center for s in dom3.spheres] == [Fraction(1, 3), Fraction(2, 3)]
    (v1,) = dom3.inner_vertices
    assert v1.x == Fraction(1, 2) and v1.y2 == Fraction(3, 36)


def test_build_domain_rejects_composite():
    for bad in (4, 6, 9, 1):
        with pytest.raises(ValueError):
            build_domain(bad)


def test_vertices_lie_on_adjacent_spheres():
    for p in PRIMES:
        dom = build_domain(p)
        for k, v in enumerate(dom.inner_vertices, start=1):
            # v_k on I_k and I_{k+1}: |p v - q|^2 = 1 exactly
            for q in (k, k + 1):
                assert (p * v.x - q) ** 2 + p * p * v.y2 == 1
        for q, m in enumerate(dom.maxima, start=1):
            assert (p * m.x - q) ** 2 + p * p * m.y2 == 1  # maximum is on its sphere
            assert m.y2 == dom.spheres[q - 1].radius ** 2


def test_g_pair_examples():
    assert g_pair(5, 1).key() == (4, -1, 5, -1)
    assert g_pair(5, 2).key() == (2, -1, 5, -2)
    assert g_pair(7, 3).key() == (2, -1, 7, -3)
    with pytest.raises(ValueError):
        g_pair(5, 0)
    with pytest.raises(ValueError):
        g_pair(5, 5)


def test_g_pair_determinant_and_congruence():
    for p in PRIMES:
        for k in range(1, p):
            g = g_pair(p, k)
            assert g.a * g.d - g.b * g.c == 1
            assert g.c % p == 0


def test_cell_examples():
    c = cell(5, 2)
    assert {(g.key(), i) for g, i in c.decomposition} == {
        ((1, 0, 0, 1), 2),
        ((3, -2, 5, -3), 3),
        ((2, -1, 5, -2), 1),
    }
    c0 = cell(5, 0)
    g01 = dict((i, g) for g, i in c0.decomposition)[4]
    assert g01.apply_boundary(Rational(1)) == Rational(0)
    assert g01.apply_boundary(INF) == Rational(Fraction(1, 5))
    c2 = cell(2, 0)
    assert {(g.key(), i) for g, i in c2.decomposition} == {
        ((1, 0, 0, 1), 0),
        ((1, -1, 2, -1), 1),
    }
    assert (c2.left, c2.right) == (Fraction(0), Fraction(1, 2))


def test_cell_side_identities_all_primes():
    # each non-vertical cell side is a group translate of a vertical side
    for p in PRIMES:
        for k in range(p):
            c = cell(p, k)
            assert (c.left, c.right) == (Fraction(k, p), Fraction(k + 1, p))
            if k == 0:
                g = dict((i, g) for g, i in c.decomposition)[p - 1]
                assert g.apply_boundary(Rational(1)) == Rational(0)
                assert g.apply_boundary(INF) == Rational(Fraction(1, p))
            elif k == p - 1:
                g = dict((i, g) for g, i in c.decomposition)[0]
                assert g.apply_boundary(INF) == Rational(Fraction(p - 1, p))
                assert g.apply_boundary(Rational(0)) == Rational(1)
            else:
                rest = [(g, i) for g, i in c.decomposition if not g.is_identity()]
                assert len(rest) == 2
                # identify which translate plays which role by its image of inf
                roles = set()
                for g, idx in rest:
                    img = g.apply_boundary(INF)
                    if img == Rational(Fraction(k + 1, p)):
                        roles.add("a")
                        assert g.apply_boundary(Rational(Fraction(idx + 1, p))) == Rational(
                            Fraction(k, p)
                        )
                    else:
                        roles.add("b")
                        assert img == Rational(Fraction(k, p))
                        assert g.apply_boundary(Rational(Fraction(idx, p))) == Rational(
                            Fraction(k + 1, p)
                        )
                assert roles == {"a", "b"}


def test_reduce_point_examples():
    g, w = reduce_point(5, HPoint(Fraction(1, 2), Fraction(1, 100)))
    assert w == HPoint(Fraction(1, 5), Fraction(1, 25))
    assert (5 * w.x - 1) ** 2 + 25 * w.y2 == 1  # lands exactly on I_1
    g2, w2 = reduce_point(5, HPoint(0, 1))
    assert g2.is_identity() and w2 == HPoint(0, 1)
    g3, w3 = reduce_point(2, HPoint(Fraction(53, 10), Fraction(4)))
    assert g3.key() == (1, -5, 0, 1) and w3 == HPoint(Fraction(3, 10), Fraction(4))


def test_reduce_point_projection():
    rng = random.Random(2)
    for p in (2, 5):
        dom = build_domain(p)
        for _ in range(25):
            z = HPoint(
                Fraction(rng.randint(-200, 200), 100), Fraction(rng.randint(1, 200), 100) ** 2
            )
            g, w = reduce_point(p, z)
            assert dom.in_closure(w)
            assert g.apply_hpoint(z) == w
            g2, w2 = reduce_point(p, w)
            assert g2.is_identity() and w2 == w


def test_precell_covering():
    rng = random.Random(9)
    for p in (2, 3, 5):
        dom = build_domain(p)
        hits = 0
        while hits < 3500:
            z = HPoint(
                Fraction(rng.randint(0, 1000), 1000),
                Fraction(rng.randint(1, 1500), 1000) ** 2,
            )
            if not dom.in_closure(z):
                continue
            hits += 1
            ks = dom.precell_indices(z)
            assert len(ks) >= 1
            if all(z.x != Fraction(k, p) for k in range(p + 1)):
                assert len(ks) == 1


def test_locate_cell_examples():
    g, k, boundary = locate_cell(5, HPoint(Fraction(3, 20), Fraction(100)))
    assert g.is_identity() and k == 0 and not boundary
    z = HPoint(Fraction(3, 10), Fraction(1, 400))
    g2, k2, _ = locate_cell(5, z)
    assert not g2.is_identity()
    assert cell(5, k2).contains(g2.inv().apply_hpoint(z))
    g3, k3, b3 = locate_cell(2, HPoint(Fraction(1, 2), Fraction(100)))
    assert g3.is_identity() and k3 == 0 and b3  # shared wall of cells 0 and 1


def test_locate_cell_flags_side_walls():
    # reduced points on Re z = 0 and Re z = 1 lie on the domain's side walls
    for z in (HPoint(0, 4), HPoint(1, 4)):
        _, _, boundary = locate_cell(5, z)
        assert boundary


def test_cell_tiling_disjointness():
    # tiles with distinct ideal-vertex sets never overlap in their interiors;
    # different (g, k) pairs may name the same tile, so key by vertices
    rng = random.Random(4)
    p = 5
    tiles = {}
    for _ in range(300):
        z = HPoint(
            Fraction(rng.randint(-500, 1500), 1000),
            Fraction(rng.randint(1, 2000), 1000) ** 2,
        )
        g, k, boundary = locate_cell(p, z)
        if boundary:
            continue
        # the point must lie strictly inside its reported translate
        assert cell(p, k).contains(g.inv().apply_hpoint(z), strict=True)
        key = _vertex_key(g, p, k)
        tiles.setdefault(key, (g, k))
    translates = list(tiles.values())[:40]
    for i, (g1, k1) in enumerate(translates):
        s1 = _interior_sample(g1, cell(p, k1))
        for g2, k2 in translates[i + 1 :]:
            w = g2.inv().apply_hpoint(s1)
            assert not cell(p, k2).contains(w, strict=True)


def _vertex_key(g, p, k):
    from cuspdyn.exact import emit_value

    imgs = [
        g.apply_boundary(v)
        for v in (Rational(Fraction(k, p)), Rational(Fraction(k + 1, p)), INF)
    ]
    return tuple(sorted(emit_value(v) for v in imgs))


def _interior_sample(g, c):
    x = (c.left + c.right) / 2
    y2 = (c.right - c.left) ** 2  # twice the arc radius, safely inside
    return g.apply_hpoint(HPoint(x, y2))


def test_modular_domain_and_reduction():
    dom = modular_domain()
    assert dom.modular
    (v,) = dom.inner_vertices
    assert v.x == Fraction(1, 2) and v.y2 == Fraction(3, 4)
    g, w = reduce_point(1, HPoint(Fraction(1, 2), Fraction(1, 16)), modular=True)
    assert dom.in_closure(w)
    assert g.apply_hpoint(HPoint(Fraction(1, 2), Fraction(1, 16))) == w
    g2, k2, b2 = locate_cell(1, HPoint(Fraction(7, 2), Fraction(1, 9)), modular=True)
    assert k2 == 0
    c = cell(1, 0, modular=True)
    assert c.contains(g2.inv().apply_hpoint(HPoint(Fraction(7, 2), Fraction(1, 9))))


def test_modular_domain_is_level_one():
    dom = modular_domain()
    assert dom.p == 1 and dom.modular
    assert [s.center for s in dom.spheres] == [Fraction(0), Fraction(1)]
    assert all(s.radius == 1 for s in dom.spheres)
    assert [s.element.key() for s in dom.spheres] == [(0, -1, 1, 0), (0, -1, 1, -1)]
    assert dom.maxima == ()
    assert not build_domain(5).modular
    # on |z - 1| = 1 only, and strictly inside |z - 1| < 1
    assert dom.in_closure(HPoint(Fraction(3, 5), Fraction(21, 25)))
    assert not dom.in_closure(HPoint(Fraction(3, 5), Fraction(20, 25)))
    spheres = domain_to_json(dom)["spheres"]
    assert spheres[1]["center"] == "rat:1/1" and spheres[1]["element"] == "[[0,-1],[1,-1]]"


_W = HPoint(Fraction(3, 5), Fraction(21, 25))  # on |z - 1| = 1

# (z, (g, w, rounds) of reduce_point_detailed, (g, k, boundary) of locate_cell)
_MODULAR_PINS = [
    (HPoint(Fraction(1, 2), Fraction(1, 16)),
     ((1, -1, 2, -1), HPoint(Fraction(1, 2), 1), 3), ((1, -1, 2, -1), 0, False)),
    (HPoint(Fraction(7, 2), Fraction(1, 9)),  # reduces onto |z - 1| = 1
     ((2, -7, 1, -3), HPoint(Fraction(8, 13), Fraction(144, 169)), 2), ((3, -7, 1, -2), 0, True)),
    (HPoint(Fraction(18, 5), Fraction(21, 25)),
     ((1, -3, 0, 1), _W, 1), ((1, 3, 0, 1), 0, True)),
    (GroupElement(2, 1, 1, 1).inv().apply_hpoint(_W),
     ((2, 1, 1, 1), _W, 2), ((-1, 1, 1, -2), 0, True)),
    (HPoint(0, Fraction(1, 4)),  # on x = 0
     ((0, -1, 1, 0), HPoint(0, 4), 2), ((0, -1, 1, 0), 0, True)),
    (HPoint(-3, 4),
     ((1, 3, 0, 1), HPoint(0, 4), 1), ((1, -3, 0, 1), 0, True)),
    (HPoint(Fraction(-13, 7), Fraction(1, 50)),
     ((4, 7, 1, 2), HPoint(Fraction(46, 99), Fraction(120050, 9801)), 2),
     ((-2, 7, 1, -4), 0, False)),
    (HPoint(Fraction(9, 10), Fraction(1, 100)),
     ((-5, 4, 1, -1), HPoint(0, 25), 7), ((1, 4, 1, 5), 0, True)),
]


@pytest.mark.parametrize("z, reduced, located", _MODULAR_PINS)
def test_modular_reduction_pinned(z, reduced, located):
    g, w, rounds = reduce_point_detailed(1, z, modular=True)
    assert (g.key(), w, rounds) == reduced
    gc, k, boundary = locate_cell(1, z, modular=True)
    assert (gc.key(), k, boundary) == located


# the same for Gamma_0(5)
_GAMMA0_5_PINS = [
    (HPoint(Fraction(1, 2), Fraction(1, 100)),  # onto the maximum of I_1
     ((2, -1, 5, -2), HPoint(Fraction(1, 5), Fraction(1, 25)), 2), ((2, -1, 5, -2), 0, True)),
    (HPoint(Fraction(3, 10), Fraction(1, 400)),
     ((3, -1, 10, -3), HPoint(Fraction(3, 10), Fraction(1, 25)), 3), ((3, -1, 10, -3), 1, False)),
    (HPoint(Fraction(2, 5), Fraction(1, 36)),  # onto the wall x = 2/5
     ((2, -1, 5, -2), HPoint(Fraction(2, 5), Fraction(36, 625)), 2), ((2, -1, 5, -2), 1, True)),
    (HPoint(Fraction(-7, 5), Fraction(1, 4)),
     ((1, 2, 0, 1), HPoint(Fraction(3, 5), Fraction(1, 4)), 1), ((1, -2, 0, 1), 2, True)),
    (GroupElement(2, 1, 5, 3).apply_hpoint(HPoint(Fraction(1, 5), Fraction(1, 25))),
     ((-3, 1, 5, -2), HPoint(Fraction(1, 5), Fraction(1, 25)), 4), ((2, 1, 5, 3), 0, True)),
    (HPoint(Fraction(-31, 13), Fraction(1, 10**6)),
     ((13, 31, 5, 12), HPoint(Fraction(2197, 200845), Fraction(45697600, 1613548561)), 2),
     ((-12, 31, 5, -13), 0, False)),
]


@pytest.mark.parametrize("z, reduced, located", _GAMMA0_5_PINS)
def test_gamma0_5_reduction_pinned(z, reduced, located):
    g, w, rounds = reduce_point_detailed(5, z)
    assert (g.key(), w, rounds) == reduced
    gc, k, boundary = locate_cell(5, z)
    assert (gc.key(), k, boundary) == located


def _sphere_sign(g, z):
    """Sign of |cz + d|^2 - 1 in Fractions."""
    t = (g.c * z.x + g.d) ** 2 + g.c * g.c * z.y2 - 1
    return (t > 0) - (t < 0)


def _reduce_by_fraction(q, z):
    """The reduction with one apply_hpoint per step: the reference for the integer loop."""
    elements = [s.element for s in _domain(q).spheres]
    g = identity()
    for step in range(_MAX_REDUCE_STEPS):
        n = math.floor(z.x)
        if n != 0:
            t = GroupElement(1, -n, 0, 1)
            g, z = t * g, t.apply_hpoint(z)
        inside = next((s for s in elements if _sphere_sign(s, z) < 0), None)
        if inside is None:
            return g, z, step + 1
        g, z = inside * g, inside.apply_hpoint(z)
    raise ArithmeticError("reduction did not terminate")


def _locate_by_fraction(q, z):
    """Cell location read off the Fraction reduction: first precell, wall or sphere boundary."""
    g, w, _ = _reduce_by_fraction(q, z)
    ks = [k for k in range(q) if Fraction(k, q) <= w.x <= Fraction(k + 1, q)]
    on_sphere = any(_sphere_sign(s.element, w) == 0 for s in _domain(q).spheres)
    return g.inv(), ks[0], len(ks) > 1 or w.x in (0, 1) or on_sphere


def _contains_by_fraction(q, k, z, strict):
    """The closed or open ideal triangle (k/q, (k+1)/q, inf) in Fractions."""
    lo, hi = Fraction(k, q), Fraction(k + 1, q)
    t = (z.x - (lo + hi) / 2) ** 2 + z.y2 - ((hi - lo) / 2) ** 2
    return lo < z.x < hi and t > 0 if strict else lo <= z.x <= hi and t >= 0


def _gamma0_word(rng, q, length):
    gens = [GroupElement(1, 1, 0, 1)] + [s.element for s in _domain(q).spheres]
    g = identity()
    for _ in range(length):
        h = rng.choice(gens)
        g = g * (h if rng.random() < 0.5 else h.inv())
    return g


def _differential_points(rng, q, count):
    """Random points, wall points, inner vertices and maxima, and Gamma_0(q)-translates."""
    dom = _domain(q)
    special = [HPoint(Fraction(k, q) + rng.randint(-2, 2), Fraction(rng.randint(1, 10**6), 10**6))
               for k in range(q + 1)]
    special += list(dom.inner_vertices) + list(dom.maxima)
    points = []
    for i in range(count):
        if i % 3 == 0:
            z = HPoint(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)),
                       Fraction(rng.randint(1, 10**6), 10**rng.randint(0, 16)))  # heights down to 1e-8
        else:
            z = rng.choice(special)
            if i % 3 == 2:
                z = _gamma0_word(rng, q, rng.randint(1, 6)).apply_hpoint(z)
        points.append(z)
    return points


def _level_args(q):
    return dict(modular=True) if q == 1 else {}


# points per level; at 101 a reduction round tests 2 of the 100 spheres
_REFERENCE_POINTS = {1: 150, 2: 150, 3: 150, 5: 150, 7: 150, 13: 150, 101: 40}


@pytest.mark.parametrize("q", sorted(_REFERENCE_POINTS))
def test_reduction_matches_fraction_reference(q):
    rng = random.Random(1100 + q)
    kw, boundary, count = _level_args(q), 0, _REFERENCE_POINTS[q]
    for z in _differential_points(rng, q, count):
        g, w, rounds = reduce_point_detailed(q, z, **kw)
        g0, w0, rounds0 = _reduce_by_fraction(q, z)
        assert (g.key(), w, rounds) == (g0.key(), w0, rounds0), z
        gc, k, b = locate_cell(q, z, **kw)
        gc0, k0, b0 = _locate_by_fraction(q, z)
        assert (gc.key(), k, b) == (gc0.key(), k0, b0), z
        boundary += b
        # the integer triangle rule and precell slicing against Fractions
        dom = _domain(q)
        ks = [j for j in range(q) if Fraction(j, q) <= z.x <= Fraction(j + 1, q)]
        assert dom.precell_indices(z) == (ks if dom.in_closure(z) else [])
        assert dom.precell_indices(w) == [j for j in range(q) if Fraction(j, q) <= w.x <= Fraction(j + 1, q)]
        for j in range(q):
            for strict in (False, True):
                want = [_contains_by_fraction(q, j, v, strict) for v in (z, w)]
                assert [cell(q, j, **kw).contains(v, strict) for v in (z, w)] == want
    assert 0 < boundary < count


@pytest.mark.parametrize("q", (211, 1009))
def test_precell_indices_match_the_closure_scan_at_large_levels(q):
    # as above, with the integer reduction in place of the Fraction one, which
    # scans every sphere per round; points just inside and outside each sphere
    # top, and inside a sphere left of its centre (in the slice below it), test
    # the two-sphere closure rule where it decides
    rng, dom = random.Random(1100 + q), _domain(q)
    tops = [HPoint(m.x, m.y2 * (1 + s * Fraction(1, 10**9))) for m in dom.maxima[:: q // 20] for s in (-1, 1)]
    tops += [HPoint(m.x - Fraction(1, 4 * q), m.y2 / 2) for m in dom.maxima[:: q // 20]]
    tops += [HPoint(Fraction(1), Fraction(1, 4)), HPoint(Fraction(0), Fraction(3, 4))]
    inside = 0
    for z in _differential_points(rng, q, 60) + tops:
        w = reduce_point(q, z)[1]
        for v in (z, w):
            ks = [j for j in range(q) if Fraction(j, q) <= v.x <= Fraction(j + 1, q)]
            closed = dom.in_closure(v)
            assert dom.precell_indices(v) == (ks if closed else []), v
            inside += 0 <= v.x <= 1 and not closed
    assert inside >= 20


def test_reduction_at_a_large_prime():
    """p = 10007, where the Fraction reference is too slow: vertices and maxima beside
    k = 1, (p-1)/2 and p-1, and Gamma_0(p)-translates of each, reduce into the closure."""
    p, rng = 10007, random.Random(10007)
    dom = _domain(p)
    points = []
    for k in (1, (p - 1) // 2, p - 1):
        points += [z for z in dom.inner_vertices + dom.maxima if abs(p * z.x - k) <= 1]
    points += [_gamma0_word(rng, p, rng.randint(1, 4)).apply_hpoint(z) for z in points for _ in range(2)]
    assert len(points) == 33  # 11 vertices and maxima, two translates of each
    for z in points:
        g, w = reduce_point(p, z)
        assert g.c % p == 0 and g.apply_hpoint(z) == w and dom.in_closure(w), z
        assert locate_cell(p, z)[2] is True, z


def test_reduction_extreme_inputs():
    tiny = Fraction(1, 10**200)
    for q, z in [
        (5, HPoint(Fraction(1, 3), tiny)),
        (13, HPoint(Fraction(10**100 + 1, 7**120), tiny)),
        (1, HPoint(Fraction(2, 7), tiny)),
        (5, HPoint(10**300, 1)),
        (2, HPoint(Fraction(-(10**300), 3), Fraction(1, 10**6))),
        (7, HPoint(10**300 + Fraction(3, 7), tiny)),
    ]:
        kw = _level_args(q)
        g, w, rounds = reduce_point_detailed(q, z, **kw)
        assert rounds < _MAX_REDUCE_STEPS
        g0, w0, rounds0 = _reduce_by_fraction(q, z)
        assert (g.key(), w, rounds) == (g0.key(), w0, rounds0)
        gc, k, b = locate_cell(q, z, **kw)
        gc0, k0, b0 = _locate_by_fraction(q, z)
        assert (gc.key(), k, b) == (gc0.key(), k0, b0)


def test_reduction_builds_one_element_per_call_and_applies_none(monkeypatch):
    counts = {"init": 0, "apply": 0}
    init, apply = GroupElement.__init__, GroupElement.apply_hpoint

    def counting_init(self, *args):
        counts["init"] += 1
        init(self, *args)

    def counting_apply(self, z):
        counts["apply"] += 1
        return apply(self, z)

    # 3/20 at height 10 is reduced; x = 10^100/7^120 near the axis takes 185 rounds
    short = HPoint(Fraction(3, 20), 100)
    long = HPoint(Fraction(10**100 + 1, 7**120), Fraction(1, 10**200))
    _domain(5), reduce_point_detailed(5, short)  # fill the level caches first
    monkeypatch.setattr(GroupElement, "__init__", counting_init)
    monkeypatch.setattr(GroupElement, "apply_hpoint", counting_apply)
    seen = []
    for z in (short, long):
        counts.update(init=0, apply=0)
        rounds = reduce_point_detailed(5, z)[2]
        locate_cell(5, z)
        seen.append((counts["init"], counts["apply"], rounds))
    assert [s[:2] for s in seen] == [(2, 0), (2, 0)]
    assert seen[0][2] == 1 and seen[1][2] == 185


def test_domain_json_and_matrix_grammar():
    dom = build_domain(3)
    data = domain_to_json(dom)
    text = json.dumps(data, sort_keys=True)
    assert json.loads(text) == data
    assert data["schema"] == 1 and len(data["spheres"]) == 2
    assert matrix_literal(g_pair(5, 2)) == "[[2,-1],[5,-2]]"


def test_svg_deterministic_and_structured():
    dom = build_domain(5)
    s1 = render_domain_svg(dom)
    s2 = render_domain_svg(dom)
    assert s1 == s2
    assert s1.count('class="sphere"') == 4
    assert s1.count('class="wall"') == 6
    cells_view = render_domain_svg(dom, show="cells")
    assert cells_view.count('class="side"') > 0
    modular_view = render_domain_svg(modular_domain())
    assert modular_view.count('class="sphere"') == 2
