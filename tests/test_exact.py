import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspdyn.dynamics import Interval, Termination
from cuspdyn.exact import (
    EQUAL,
    GREATER,
    INF,
    LESS,
    Approx,
    FieldMixError,
    Rational,
    Surd,
    compare,
    ceil_moebius,
    emit_value,
    floor_exact,
    normalize_surd,
    parse_value,
)


def test_normalize_already_canonical():
    v = normalize_surd(1, 1, 2, 5)
    assert v == Surd(1, 1, 2, 5)


def test_normalize_reduces_radicand_and_gcd():
    # (2 + 2*sqrt(8))/4 = (2 + 4*sqrt(2))/4 = (1 + 2*sqrt(2))/2
    v = normalize_surd(2, 2, 4, 8)
    assert v == Surd(1, 2, 2, 2)
    assert math.isclose(v.to_float(), (1 + 2 * math.sqrt(2)) / 2)


def test_normalize_perfect_square_collapses():
    v = normalize_surd(3, 1, 3, 9)
    assert v == Rational(2)


def test_normalize_rejects_bad_input():
    with pytest.raises(ZeroDivisionError):
        normalize_surd(1, 1, 0, 2)
    with pytest.raises(ValueError):
        normalize_surd(1, 1, 1, -2)


def test_normalize_negative_denominator_sign():
    v = normalize_surd(1, 1, -2, 2)
    assert isinstance(v, Surd) and v.c == 2 and v.a == -1 and v.b == -1


@given(
    a=st.integers(-50, 50),
    b=st.integers(-20, 20),
    c=st.integers(1, 40),
    d=st.integers(1, 60),
)
@settings(max_examples=300, deadline=None)
def test_normalize_idempotent_and_numeric(a, b, c, d):
    v = normalize_surd(a, b, c, d)
    if isinstance(v, Surd):
        again = normalize_surd(v.a, v.b, v.c, v.d)
        assert again == v
    assert math.isclose(v.to_float(), (a + b * math.sqrt(d)) / c, rel_tol=1e-12, abs_tol=1e-12)


def test_compare_examples():
    s = normalize_surd(-1, 1, 1, 2)  # sqrt(2) - 1
    assert compare(s, Rational(Fraction(2, 5))) == GREATER
    assert compare(INF, Rational(10**100)) == GREATER
    assert compare(Rational(Fraction(1, 3)), Rational(Fraction(1, 3))) == EQUAL


def test_equality_is_structural_and_agrees_with_hash():
    assert Interval(Rational(0), None) != Interval(None, None)
    assert Termination("cusp", 3, at=Rational(1)) != Termination("cusp", 3)
    assert None not in [Rational(1)]
    sample = [0, 1, -2, Fraction(1, 2), Fraction(-3, 7), INF, Approx(0.5, 0), Approx(0.5, 1e-9)]
    sample += [Rational(0), Rational(1), Rational(Fraction(1, 2)), Rational(Fraction(-3, 7))]
    sample += [normalize_surd(1, 1, 2, 5), normalize_surd(1, 1, 2, 5), normalize_surd(0, 1, 1, 2)]
    for a in sample:
        for b in sample:
            assert a != b or hash(a) == hash(b), (a, b)
    # order still crosses kinds
    assert compare(Rational(1), 1) == EQUAL and Rational(1) != 1 and Rational(1) <= 1


def test_compare_same_field_tight():
    # sqrt(2) = 1.41421356237...: exact sign either side of the 9th decimal
    s = normalize_surd(0, 1, 1, 2)
    assert compare(s, Rational(Fraction(141421357, 100000000))) == LESS
    assert compare(s, Rational(Fraction(141421356, 100000000))) == GREATER


def test_compare_cross_field():
    s2 = normalize_surd(0, 1, 1, 2)
    s3 = normalize_surd(0, 1, 1, 3)
    assert compare(s2, s3) == LESS
    # very close cross-field pair: sqrt(2) vs (1 + 7 sqrt(3))/9 ~ 1.4583
    close = normalize_surd(1, 7, 9, 3)
    assert compare(s2, close) == LESS


def test_compare_approx_flagged():
    a = Approx(0.5, 1e-9)
    order, exact = compare(a, Rational(Fraction(1, 2))), a.is_exact()
    assert not exact and order == EQUAL
    order, exact = compare(a, Rational(Fraction(2, 3))), a.is_exact()
    assert not exact and order == LESS


def test_compare_consistency_with_floats():
    # agreement with numeric evaluation on 10^4 well-separated random pairs
    rng = random.Random(1)
    vals = []
    for _ in range(20000):
        if rng.random() < 0.5:
            vals.append(Rational(Fraction(rng.randint(-400, 400), rng.randint(1, 60))))
        else:
            vals.append(
                normalize_surd(
                    rng.randint(-40, 40),
                    rng.choice((-1, 1)) * rng.randint(1, 9),
                    rng.randint(1, 30),
                    rng.choice((2, 3, 5, 6, 7, 10)),
                )
            )
    checked = 0
    for i in range(0, len(vals) - 1, 2):
        x, y = vals[i], vals[i + 1]
        fx, fy = x.to_float(), y.to_float()
        if abs(fx - fy) < 1e-9:
            continue
        checked += 1
        assert compare(x, y) == (GREATER if fx > fy else LESS)
    assert checked > 9000


def test_compare_antisymmetric_transitive():
    rng = random.Random(7)
    vals = [
        normalize_surd(
            rng.randint(-20, 20), rng.randint(-9, 9) or 1, rng.randint(1, 20), rng.choice((2, 3, 5))
        )
        for _ in range(30)
    ] + [Rational(Fraction(rng.randint(-40, 40), rng.randint(1, 20))) for _ in range(20)]
    for x in vals[:20]:
        for y in vals[:20]:
            assert compare(x, y) == -compare(y, x)
    ordered = sorted(rng.sample(vals, 10), key=lambda v: (v.to_float(), id(v)))
    for a, b, c in zip(ordered, ordered[1:], ordered[2:]):
        if compare(a, b) != GREATER and compare(b, c) != GREATER:
            assert compare(a, c) != GREATER


def test_arithmetic_field_ops():
    s = Surd(1, 1, 2, 5)  # golden ratio
    assert s * s == s + Rational(1)  # phi^2 = phi + 1
    assert s.reciprocal() == s - Rational(1)  # 1/phi = phi - 1
    assert (s - s) == Rational(0)
    with pytest.raises(FieldMixError):
        _ = s + Surd(0, 1, 1, 2)


def test_floor_exact():
    assert floor_exact(Rational(Fraction(7, 3))) == 2
    assert floor_exact(Rational(Fraction(-7, 3))) == -3
    assert floor_exact(Surd(1, 1, 2, 5)) == 1  # phi
    assert floor_exact(Surd(0, -1, 1, 2)) == -2  # -sqrt(2)
    assert floor_exact(Surd(0, 5, 1, 2)) == 7  # 5 sqrt 2 = 7.07


@given(
    a=st.integers(-30, 30),
    b=st.integers(-9, 9).filter(lambda v: v != 0),
    c=st.integers(1, 30),
    d=st.sampled_from((2, 3, 5, 6, 7, 10, 11, 13)),
)
@settings(max_examples=200, deadline=None)
def test_floor_matches_float(a, b, c, d):
    v = normalize_surd(a, b, c, d)
    assert floor_exact(v) == math.floor(v.to_float())


@given(
    x=st.one_of(
        st.builds(normalize_surd, st.integers(-30, 30), st.integers(-9, 9).filter(bool),
                  st.integers(1, 30), st.sampled_from((2, 3, 5, 6, 7, 10, 11, 13))),
        st.builds(lambda n, m: Rational(Fraction(n, m)), st.integers(-99, 99), st.integers(1, 30)),
    ),
    m=st.tuples(*[st.integers(-20, 20)] * 4).filter(lambda m: m[0] * m[3] != m[1] * m[2]),
)
@settings(max_examples=300, deadline=None)
def test_ceil_moebius_matches_exact_arithmetic(x, m):
    a, b, c, d = m
    den = x * c + Rational(d)
    if den == Rational(0):
        return  # x sits on the pole
    assert ceil_moebius(m, x) == -floor_exact(-((x * a + Rational(b)) / den))


def test_grammar_round_trip():
    cases = [
        "rat:3/7",
        "rat:-3/7",
        "rat:0/1",
        "surd:(1+1*sqrt(5))/2",
        "surd:(-1+1*sqrt(2))/1",
        "surd:(0+-1*sqrt(2))/1",
        "inf",
    ]
    for text in cases:
        v = parse_value(text)
        assert emit_value(v) == text
        assert parse_value(emit_value(v)) == v


def test_grammar_normalizes_on_parse():
    v = parse_value("surd:(2+2*sqrt(8))/4")
    assert emit_value(v) == "surd:(1+2*sqrt(2))/2"
    assert emit_value(parse_value("rat:4/8")) == "rat:1/2"


def test_grammar_approx():
    v = parse_value("approx:1.25")
    assert isinstance(v, Approx) and v.value == 1.25
    assert parse_value(emit_value(v)) == v


def test_grammar_rejects_garbage():
    for bad in ("rat:1/0", "surd:(1+1*sqrt(-2))/2", "foo", "rat:x/y", f"surd:(0+1*sqrt({10**12 + 1}))/1"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_value(bad)


def test_moebius_closure_chains():
    # images of exact values under long determinant-one chains stay exact
    from cuspdyn.moebius import GroupElement

    rng = random.Random(3)
    gens = [GroupElement(1, 1, 0, 1), GroupElement(1, 0, 5, 1), GroupElement(0, -1, 1, 0)]
    start = [
        normalize_surd(1, 1, 2, 5),
        normalize_surd(0, 1, 1, 2),
        Rational(Fraction(3, 7)),
        INF,
    ]
    for v in start:
        cur = v
        for _ in range(100):
            g = rng.choice(gens)
            cur = g.apply_boundary(cur)
        assert isinstance(cur, (Rational, Surd)) or cur is INF
        if isinstance(v, Surd) and isinstance(cur, Surd):
            assert cur.d == v.d


# --- Fraction-based reference for the integer kernel --------------------------
#
# A value of Q(sqrt(d)) is (q, r) meaning q + r*sqrt(d) with Fractions q, r.

_FIELDS = (2, 3, 5, 6, 7, 10, 13)


def _ref(v):
    if isinstance(v, Rational):
        return Fraction(v.numerator, v.denominator), Fraction(0)
    return Fraction(v.a, v.c), Fraction(v.b, v.c)


def _ref_sign(q, r, d):
    """Sign of q + r*sqrt(d)."""
    if q * r >= 0:  # no cancellation
        return (q + r > 0) - (q + r < 0)
    gap = q * q - r * r * d
    return ((q > 0) - (q < 0)) * ((gap > 0) - (gap < 0))


def _ref_value(q, r, d):
    if r == 0:
        return Rational(q)
    c = math.lcm(q.denominator, r.denominator)
    a, b = q.numerator * (c // q.denominator), r.numerator * (c // r.denominator)
    g = math.gcd(a, b, c)
    return Surd(a // g, b // g, c // g, d)


def _assert_canonical(v):
    if isinstance(v, Rational):
        assert v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1
    else:
        assert v.c > 0 and v.b != 0 and math.gcd(v.a, v.b, v.c) == 1


_coeff = st.integers(-10**6, 10**6)


@st.composite
def _field_values(draw):
    d = draw(st.sampled_from(_FIELDS))

    def one():
        if draw(st.booleans()):
            return Rational(draw(_coeff), draw(st.integers(1, 10**6)))
        b = draw(_coeff.filter(lambda v: v != 0))
        return normalize_surd(draw(_coeff), b, draw(st.integers(1, 10**6)), d)

    return d, one(), one()


@given(_field_values())
@settings(max_examples=400, deadline=None)
def test_kernel_matches_fraction_reference(case):
    d, x, y = case
    (q1, r1), (q2, r2) = _ref(x), _ref(y)
    assert compare(x, y) == _ref_sign(q1 - q2, r1 - r2, d)
    assert compare(y, x) == -compare(x, y)
    got = [x + y, x - y, x * y]
    want = [(q1 + q2, r1 + r2), (q1 - q2, r1 - r2), (q1 * q2 + r1 * r2 * d, q1 * r2 + r1 * q2)]
    norm = q2 * q2 - r2 * r2 * d
    if norm != 0:
        got.append(x / y)
        q3, r3 = q2 / norm, -r2 / norm  # 1/y
        want.append((q1 * q3 + r1 * r3 * d, q1 * r3 + r1 * q3))
    for g, (q, r) in zip(got, want):
        _assert_canonical(g)
        assert g == _ref_value(q, r, d)


def test_compare_cross_field_beyond_any_fixed_precision():
    # x = sqrt(2) + (s3 - s2) with s2, s3 the 5000-bit truncations of
    # sqrt(2), sqrt(3): x lies below y = sqrt(3) by less than 2**-5001
    # (checked with mpmath at 20,000 bits).
    n = 2**5000
    s2 = Fraction(math.isqrt(2 * n * n), n)
    s3 = Fraction(math.isqrt(3 * n * n), n)
    x = Rational(s3 - s2) + normalize_surd(0, 1, 1, 2)
    y = normalize_surd(0, 1, 1, 3)
    assert compare(x, y) == LESS
    assert compare(y, x) == GREATER


def test_approx_is_the_closed_rational_interval_of_its_float():
    a = Approx(0.1, 0)  # the float 0.1 is a binary rational just above 1/10
    assert a.lo == a.hi == Rational(Fraction(0.1)) and (a.value, a.err) == (0.1, 0.0)
    assert compare(a, Rational(Fraction(1, 10))) == GREATER
    b = Approx(0.1, 2.0**-60)
    assert (b.lo.fr, b.hi.fr) == (Fraction(0.1) - Fraction(1, 2**60), Fraction(0.1) + Fraction(1, 2**60))
    assert compare(b, Rational(Fraction(0.1))) == EQUAL and compare(b, a) == EQUAL
    assert compare(b, Rational(Fraction(1, 10))) == GREATER  # 0.1 - 1/10 > 2^-60
    assert compare(Approx(-0.5, 0.25), Approx(0.5, 0.25)) == LESS
    # the interval is closed: an end that touches a value leaves the order undecided
    half = Approx(0.5, 0.25)
    for end in (Rational(Fraction(1, 4)), Rational(Fraction(3, 4)), Approx(0.0, 0.25), Approx(1.0, 0.25)):
        assert compare(half, end) == EQUAL == compare(end, half)


@pytest.mark.parametrize("err", [-1, math.nan, math.inf])
def test_approx_refuses_a_bad_error(err):
    with pytest.raises(ValueError):
        Approx(0.5, err)


def test_surd_to_float_past_float_range():
    # (-1393 + 985 sqrt2) + 10^-400, with integers of 400 digits whose leading digits cancel,
    # and (1 + sqrt2) + 10^-400, whose do not
    big = 10**400
    tol = Fraction(1, 10**15)
    for v in (normalize_surd(-1393 * big + 1, 985 * big, big, 2), normalize_surd(big + 1, big, big, 2)):
        f = Fraction(v.to_float())
        assert compare(Rational(f * (1 - tol)), v) == LESS and compare(Rational(f * (1 + tol)), v) == GREATER
    with pytest.raises(OverflowError):
        normalize_surd(big, 1, 1, 2).to_float()
