import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspdyn.exact import GREATER, INF, Approx, PrecisionExhausted, Rational, Surd, compare, normalize_surd
from cuspdyn.moebius import GroupElement, HPoint, IsometricSphere, identity, in_gamma0


def test_compose_examples():
    t = GroupElement(1, 1, 0, 1)
    tinv = GroupElement(1, -1, 0, 1)
    assert (t * tinv).is_identity()
    g22 = GroupElement(2, -1, 5, -2)
    assert (g22 * g22).is_identity()  # trace-zero involution in PSL
    assert (t * GroupElement(1, 0, 5, 1)).key() == (6, 1, 5, 1)


def test_canonical_sign():
    g = GroupElement(-1, 0, -5, -1)
    assert g.c > 0
    g2 = GroupElement(-1, -3, 0, -1)
    assert g2.c == 0 and g2.d > 0
    assert GroupElement(-2, 1, -5, 2).key() == (2, -1, 5, -2)
    for args in ((1, 1, 1, 1), (-1, 0, 0, 1), (2, 0, -5, 2)):
        with pytest.raises(ValueError):
            GroupElement(*args)


def test_apply_boundary_examples():
    g = GroupElement(4, -1, 5, -1)  # p=5, k=1 sphere element
    assert g.apply_boundary(INF) == Rational(Fraction(4, 5))
    g2 = GroupElement(1, 0, 5, 1)
    assert g2.apply_boundary(Rational(Fraction(-1, 5))) is INF
    # involution round trip on a surd
    x = normalize_surd(10, 1, 14, 2)
    g3 = GroupElement(2, -1, 5, -2)
    assert g3.apply_boundary(g3.apply_boundary(x)) == x


def test_apply_boundary_inverse_round_trip():
    rng = random.Random(11)
    els = [GroupElement(1, 3, 0, 1), GroupElement(2, -1, 5, -2), GroupElement(0, -1, 1, 0),
           GroupElement(3, -2, 5, -3), GroupElement(1, 0, 7, 1)]
    vals = [
        Rational(Fraction(3, 7)),
        normalize_surd(1, 1, 2, 5),
        normalize_surd(-3, 2, 7, 3),
        INF,
    ]
    for g in els:
        for v in vals:
            assert g.inv().apply_boundary(g.apply_boundary(v)) == v


def test_isometric_sphere_examples():
    s = IsometricSphere(GroupElement(4, -1, 5, -1))
    assert s.center == Fraction(1, 5) and s.radius == Fraction(1, 5)
    s2 = IsometricSphere(GroupElement(1, 0, 5, 1))
    assert s2.center == Fraction(-1, 5) and s2.radius == Fraction(1, 5)
    with pytest.raises(ValueError):
        IsometricSphere(GroupElement(1, 1, 0, 1))


def test_in_gamma0():
    assert in_gamma0(GroupElement(2, -1, 5, -2), 5)
    assert in_gamma0(GroupElement(1, 1, 0, 1), 5)
    assert not in_gamma0(GroupElement(0, -1, 1, 0), 5)


def _rational_points_on_sphere(s: IsometricSphere, count: int, rng: random.Random):
    # Pythagorean parametrization: center + r*((1-t^2) + 2t i)/(1+t^2), t > 0
    pts = []
    while len(pts) < count:
        t = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        den = 1 + t * t
        x = s.center + s.radius * (1 - t * t) / den
        y = s.radius * 2 * t / den
        if y > 0:
            pts.append(HPoint(x, y * y))
    return pts


def test_sphere_maps_to_inverse_sphere():
    # g I(g) = I(g^{-1}) checked exactly on rational sphere points
    rng = random.Random(5)
    count = 0
    while count < 50:
        c = rng.choice((1, 2, 3, 5, 7, 10))
        a = rng.randint(-6, 6)
        try:
            d0 = pow(a, -1, c)
        except ValueError:
            continue
        d = d0 if d0 <= 3 else d0 - c
        b = (a * d - 1) // c
        if a * d - b * c != 1:
            continue
        g = GroupElement(a, b, c, d)
        if g.c == 0:
            continue
        count += 1
        sg, sginv = IsometricSphere(g), IsometricSphere(g.inv())
        for z in _rational_points_on_sphere(sg, 20, rng):
            assert sg.side(z) == 0
            assert sginv.side(g.apply_hpoint(z)) == 0


@given(
    c=st.integers(1, 40),
    d=st.integers(-40, 40),
    x=st.fractions(min_value=-50, max_value=50, max_denominator=10**4),
    y2=st.fractions(min_value=Fraction(1, 10**4), max_value=50, max_denominator=10**4),
)
@settings(max_examples=400, deadline=None)
def test_sphere_side_matches_fraction_reference(c, d, x, y2):
    if math.gcd(c, d) != 1:
        return
    a = pow(d, -1, c) if c > 1 else 0
    s = IsometricSphere(GroupElement(a, (a * d - 1) // c, c, d))
    t = (c * x + d) ** 2 + c * c * y2 - 1
    assert s.side(HPoint(x, y2)) == (t > 0) - (t < 0)
    if abs(c * x + d) < 1:  # the point of the sphere above x
        assert s.side(HPoint(x, (1 - (c * x + d) ** 2) / (c * c))) == 0


def test_apply_hpoint_exact():
    g = GroupElement(2, -1, 5, -2)
    z = HPoint(Fraction(1, 2), Fraction(1, 100))  # 0.5 + 0.1i
    w = g.apply_hpoint(z)
    assert w == HPoint(Fraction(1, 5), Fraction(1, 25))


@pytest.mark.parametrize(
    "x, same, field",
    [
        (GroupElement(-1, 0, 0, -1), identity(), "a"),
        (HPoint(1, 2), HPoint(Fraction(3, 3), 2.0), "x"),
        (IsometricSphere(GroupElement(0, -1, 1, 0)), IsometricSphere(GroupElement(0, 1, -1, 0)), "center"),
    ],
    ids=["GroupElement", "HPoint", "IsometricSphere"],
)
def test_value_is_frozen_and_equal_by_value(x, same, field):
    """Equal values hash equal, and no value takes an assignment."""
    assert type(same) is type(x) and x == x and (x != same or hash(x) == hash(same))
    for name in (field, "spare"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    assert GroupElement(-1, 0, 0, -1) == identity() and GroupElement(1, 1, 0, 1) != identity()
    assert HPoint(1, 2) == HPoint(Fraction(3, 3), 2.0) and type(HPoint(1, 2).x) is Fraction
    assert HPoint("1/3", "1/4") == HPoint(Fraction(1, 3), Fraction(1, 4))
    for y2 in (0, Fraction(0), Fraction(-1, 3)):
        with pytest.raises(ValueError):
            HPoint(0, y2)
    if isinstance(x, IsometricSphere):
        assert (x.center, x.radius, x.element) == (same.center, same.radius, same.element)


def test_identity():
    assert identity().is_identity()
    z = HPoint(Fraction(1, 3), Fraction(2, 7))
    assert identity().apply_hpoint(z) == z


def _ref_image(g, v):
    """Image of v = q + r*sqrt(d) under g, with q, r Fractions; rationals have r = 0."""
    if isinstance(v, Rational):
        q, r, rad = Fraction(v.numerator, v.denominator), Fraction(0), 2
    else:
        q, r, rad = Fraction(v.a, v.c), Fraction(v.b, v.c), v.d
    nq, nr, dq, dr = g.a * q + g.b, g.a * r, g.c * q + g.d, g.c * r
    if dq == 0 and dr == 0:
        return INF
    norm = dq * dq - dr * dr * rad
    q2, r2 = (nq * dq - nr * dr * rad) / norm, (nr * dq - nq * dr) / norm
    if r2 == 0:
        return Rational(q2)
    c = math.lcm(q2.denominator, r2.denominator)
    a, b = q2.numerator * (c // q2.denominator), r2.numerator * (c // r2.denominator)
    k = math.gcd(a, b, c)
    return Surd(a // k, b // k, c // k, rad)


@given(
    word=st.lists(st.integers(-6, 6), max_size=10),
    num=st.integers(-10**6, 10**6),
    b=st.integers(-10**3, 10**3).filter(lambda v: v != 0),
    den=st.integers(1, 10**6),
    d=st.sampled_from((0, 2, 3, 5, 7, 11)),
)
@settings(max_examples=400, deadline=None)
def test_apply_boundary_matches_fraction_reference(word, num, b, den, d):
    # g = T^k1 S T^k2 S ... with T = (1 1; 0 1), S = (0 -1; 1 0)
    g = identity()
    for k in word:
        g = g * GroupElement(1, k, 0, 1) * GroupElement(0, -1, 1, 0)
    v = Rational(num, den) if d == 0 else normalize_surd(num, b, den, d)  # d = 0: a rational
    img = g.apply_boundary(v)
    assert img == _ref_image(g, v)
    if isinstance(img, Rational):
        assert img.denominator > 0 and math.gcd(img.numerator, img.denominator) == 1
    elif isinstance(img, Surd):
        assert img.c > 0 and math.gcd(img.a, img.b, img.c) == 1


def test_apply_boundary_encloses_an_approx_interval():
    # an integer map of determinant one is increasing off its pole
    rng = random.Random(19)
    mapped = poles = 0
    for _ in range(400):
        g = identity()
        for _ in range(rng.randint(1, 4)):
            g = g * GroupElement(1, rng.randint(-3, 3), 0, 1) * GroupElement(0, -1, 1, 0)
        x = Approx(rng.uniform(-3, 3), rng.choice((1e-12, 1e-6, 1e-3, 0.3)))
        lo, hi = x.lo.fr, x.hi.fr
        if g.c and lo <= Fraction(-g.d, g.c) <= hi:
            poles += 1
            with pytest.raises(PrecisionExhausted):
                g.apply_boundary(x)
            continue
        mapped += 1
        y = g.apply_boundary(x)
        image = lambda t: (g.a * t + g.b) / (g.c * t + g.d)
        assert (y.lo.fr, y.hi.fr) == (image(lo), image(hi))
        inner = [lo + (hi - lo) * Fraction(k, 7) for k in range(8)]
        assert all(y.lo.fr <= image(t) <= y.hi.fr for t in inner)
        s = g.apply_boundary(x.lo + (x.hi - x.lo) * normalize_surd(-1, 1, 1, 2))  # lo + (sqrt2 - 1)(hi - lo)
        assert compare(y.lo, s) != GREATER and compare(s, y.hi) != GREATER
    assert mapped > 100 and poles > 10
    for x in (Approx(-0.5, 0.5), Approx(-1.5, 0.5)):  # the pole -1 of x/(x + 1) at an end
        with pytest.raises(PrecisionExhausted):
            GroupElement(1, 0, 1, 1).apply_boundary(x)
