"""Exact arithmetic on boundary values of the hyperbolic plane.

A boundary value is a point of R u {inf}: a rational n/m, a real
quadratic surd (a + b*sqrt(d))/c, the single compactification point
inf, or a floating approximation with a tracked error bound.  Rationals
and surds are kept as canonical integer tuples, so that equality is
structural, and all arithmetic and ordering is done on plain integers.

The total order is decided by integer sign rules alone, never by
floating comparison.  Within one field (or against a rational) the
difference is (A + B*sqrt(d))/C with C > 0, whose sign is that of
A + B*sqrt(d).  Across fields sqrt(d1) != sqrt(d2), the comparison of
P + Q*sqrt(d1) with R*sqrt(d2) is decided by their signs when they
differ, and otherwise by the sign of their squares' difference
(P^2 + Q^2*d1 - R^2*d2) + 2PQ*sqrt(d1), times their common sign.  No
case refines an interval, so no comparison of two exact finite values
can fail.  The family is closed under integer Moebius maps of
determinant one (within one quadratic field).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "BoundaryValue",
    "Rational",
    "Surd",
    "Infinity",
    "Approx",
    "INF",
    "LESS",
    "EQUAL",
    "GREATER",
    "FieldMixError",
    "normalize_surd",
    "compare",
    "compare_detailed",
    "floor_exact",
    "parse_value",
    "emit_value",
]

LESS, EQUAL, GREATER = -1, 0, 1


class FieldMixError(ValueError):
    """Arithmetic mixing sqrt(d1) with sqrt(d2), d1 != d2, is not supported."""


def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (s, d0) with d = s*s*d0 and d0 squarefree."""
    s, d0, f = 1, d, 2
    while f * f <= d0:
        f2 = f * f
        while d0 % f2 == 0:
            d0 //= f2
            s *= f
        f += 1
    return s, d0


class BoundaryValue:
    """Base class; concrete values are Rational, Surd, Infinity, Approx."""

    __slots__ = ()

    # ordering helpers shared by all variants
    def __lt__(self, other):
        return compare(self, _coerce(other)) == LESS

    def __le__(self, other):
        return compare(self, _coerce(other)) != GREATER

    def __gt__(self, other):
        return compare(self, _coerce(other)) == GREATER

    def __ge__(self, other):
        return compare(self, _coerce(other)) != LESS

    def is_exact(self) -> bool:
        return not isinstance(self, Approx)


class Rational(BoundaryValue):
    """Canonical numerator/denominator: denominator > 0, gcd 1."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, num, den=1):
        fr = Fraction(num, den)
        _set_num(self, fr.numerator)
        _set_den(self, fr.denominator)

    def __setattr__(self, *a):
        raise AttributeError("Rational is immutable")

    @property
    def fr(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def to_float(self) -> float:
        return self.numerator / self.denominator

    def __eq__(self, other):
        other = _coerce(other)
        return (
            isinstance(other, Rational)
            and self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __hash__(self):
        return hash(("bv-rat", self.numerator, self.denominator))

    def __repr__(self):
        return f"Rational({self.numerator}/{self.denominator})"

    def __neg__(self):
        return _coprime(-self.numerator, self.denominator)

    def __add__(self, other):
        other = _coerce(other)
        if isinstance(other, Rational):
            n, m = other.numerator, other.denominator
            return _rational(self.numerator * m + n * self.denominator, self.denominator * m)
        if isinstance(other, Surd):
            return other + self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if isinstance(other, Rational):
            return _rational(self.numerator * other.numerator, self.denominator * other.denominator)
        if isinstance(other, Surd):
            return other * self
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if isinstance(other, (Rational, Surd)):
            return self * other.reciprocal()
        return NotImplemented

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def reciprocal(self):
        if self.numerator == 0:
            raise ZeroDivisionError("reciprocal of rational zero")
        if self.numerator < 0:
            return _coprime(-self.denominator, -self.numerator)
        return _coprime(self.denominator, self.numerator)


_set_num = Rational.numerator.__set__
_set_den = Rational.denominator.__set__


def _coprime(n: int, m: int) -> Rational:
    """Rational n/m from coprime n and m > 0, trusted as canonical."""
    r = object.__new__(Rational)
    _set_num(r, n)
    _set_den(r, m)
    return r


def _rational(n: int, m: int) -> Rational:
    """Canonical Rational n/m for integers n and m != 0."""
    if m < 0:
        n, m = -n, -m
    g = math.gcd(n, m)
    return _coprime(n // g, m // g)


class Surd(BoundaryValue):
    """Canonical (a + b*sqrt(d))/c: d > 1 squarefree, b != 0, c > 0, gcd(a,b,c) = 1.

    Construct through :func:`normalize_surd`; the raw constructor trusts
    its arguments.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)

    def __setattr__(self, *a):
        raise AttributeError("Surd is immutable")

    def to_float(self) -> float:
        return (self.a + self.b * math.sqrt(self.d)) / self.c

    def __eq__(self, other):
        other = _coerce(other)
        return (
            isinstance(other, Surd)
            and (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        )

    def __hash__(self):
        return hash(("bv-surd", self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"Surd(({self.a}+{self.b}*sqrt({self.d}))/{self.c})"

    def __neg__(self):
        return Surd(-self.a, -self.b, self.c, self.d)

    def __add__(self, other):
        other = _coerce(other)
        a, b, c, d = self.a, self.b, self.c, self.d
        if isinstance(other, Rational):
            n, m = other.numerator, other.denominator
            return _surd(a * m + n * c, b * m, c * m, d)
        if isinstance(other, Surd):
            if other.d != d:
                raise FieldMixError(f"cannot add sqrt({d}) and sqrt({other.d}) values")
            c2 = other.c
            return _surd(a * c2 + other.a * c, b * c2 + other.b * c, c * c2, d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        a, b, c, d = self.a, self.b, self.c, self.d
        if isinstance(other, Rational):
            n = other.numerator
            return _surd(a * n, b * n, c * other.denominator, d)
        if isinstance(other, Surd):
            if other.d != d:
                raise FieldMixError(f"cannot multiply sqrt({d}) and sqrt({other.d}) values")
            a2, b2 = other.a, other.b
            return _surd(a * a2 + b * b2 * d, a * b2 + b * a2, c * other.c, d)
        return NotImplemented

    __rmul__ = __mul__

    def reciprocal(self):
        # 1/((a+b*sqrt(d))/c) = c*(a-b*sqrt(d))/(a^2-b^2 d); the norm is
        # nonzero because the value is irrational.
        a, b, c, d = self.a, self.b, self.c, self.d
        return _surd(c * a, -c * b, a * a - b * b * d, d)

    def __truediv__(self, other):
        other = _coerce(other)
        if isinstance(other, (Rational, Surd)):
            return self * other.reciprocal()
        return NotImplemented

    def __rtruediv__(self, other):
        return _coerce(other) * self.reciprocal()


_set_a = Surd.a.__set__
_set_b = Surd.b.__set__
_set_c = Surd.c.__set__
_set_d = Surd.d.__set__


def _surd(a: int, b: int, c: int, d: int) -> BoundaryValue:
    """Canonical value of (a + b*sqrt(d))/c for squarefree d > 1 and c != 0."""
    if b == 0:
        return _rational(a, c)
    if c < 0:
        a, b, c = -a, -b, -c
    g = math.gcd(a, b, c)
    if g != 1:
        a, b, c = a // g, b // g, c // g
    return Surd(a, b, c, d)


class Infinity(BoundaryValue):
    """The single compactification point; greater than every real."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def to_float(self) -> float:
        return math.inf

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash("bv-inf")

    def __repr__(self):
        return "Infinity()"


INF = Infinity()


class Approx(BoundaryValue):
    """Floating value with an absolute error bound; comparisons are inexact."""

    __slots__ = ("value", "err")

    def __init__(self, value: float, err: float = 1e-12):
        object.__setattr__(self, "value", float(value))
        object.__setattr__(self, "err", float(err))

    def __setattr__(self, *a):
        raise AttributeError("Approx is immutable")

    def to_float(self) -> float:
        return self.value

    def __eq__(self, other):
        return isinstance(other, Approx) and (self.value, self.err) == (other.value, other.err)

    def __hash__(self):
        return hash(("bv-approx", self.value, self.err))

    def __repr__(self):
        return f"Approx({self.value!r}, err={self.err!r})"


def _coerce(x) -> BoundaryValue:
    if isinstance(x, BoundaryValue):
        return x
    if isinstance(x, (int, Fraction)):
        return Rational(x)
    raise TypeError(f"cannot interpret {x!r} as a boundary value")


def normalize_surd(a: int, b: int, c: int, d: int) -> BoundaryValue:
    """Canonicalize (a + b*sqrt(d))/c.

    Collapses to a reduced Rational when d is a perfect square or b = 0.
    Rejects c = 0 and d <= 0.
    """
    if c == 0:
        raise ZeroDivisionError("surd denominator c must be nonzero")
    if d <= 0:
        raise ValueError("only real quadratic fields are supported (d > 0)")
    s, d0 = _squarefree_split(d)
    if d0 == 1:
        return _rational(a + b * s, c)
    return _surd(a, b * s, c, d0)


def _sign_of_root_combination(A: int, B: int, d: int) -> int:
    """Exact sign of A + B*sqrt(d) for squarefree d > 1 (never zero unless A=B=0)."""
    if B == 0:
        return (A > 0) - (A < 0)
    if A == 0:
        return (B > 0) - (B < 0)
    if A > 0 and B > 0:
        return 1
    if A < 0 and B < 0:
        return -1
    t = A * A - B * B * d
    if t == 0:
        raise ArithmeticError("sqrt(d) collapsed to a rational; d not squarefree?")
    if A > 0:  # B < 0
        return 1 if t > 0 else -1
    return 1 if t < 0 else -1  # A < 0, B > 0


def compare(x: BoundaryValue, y: BoundaryValue) -> int:
    """Total-order comparison returning LESS / EQUAL / GREATER."""
    return compare_detailed(x, y)[0]


def compare_detailed(x: BoundaryValue, y: BoundaryValue) -> tuple[int, bool]:
    """Comparison plus an exactness flag (False when an Approx is involved).

    Exact values are ordered by integer signs.  Against a rational or
    within one field, sign(x - y) is the sign of A + B*sqrt(d).  For
    surds from fields d1 != d2, scaling both by c1*c2 > 0 turns x - y
    into X - Y with X = P + Q*sqrt(d1) and Y = R*sqrt(d2), both nonzero.
    When sign(X) != sign(Y) the answer is sign(X); otherwise it is
    sign(X) * sign(X^2 - Y^2), where X^2 - Y^2 = (P^2 + Q^2*d1 - R^2*d2)
    + 2PQ*sqrt(d1) is never zero because the fields share no irrational.
    """
    x, y = _coerce(x), _coerce(y)
    if isinstance(x, Surd):
        a, b, c, d = x.a, x.b, x.c, x.d
        if isinstance(y, Rational):
            n, m = y.numerator, y.denominator
            return _sign_of_root_combination(a * m - n * c, b * m, d), True
        if isinstance(y, Surd):
            c2 = y.c
            P, Q = a * c2 - y.a * c, b * c2
            if y.d == d:
                return _sign_of_root_combination(P, Q - y.b * c, d), True
            R = y.b * c
            sx, sy = _sign_of_root_combination(P, Q, d), (R > 0) - (R < 0)
            if sx != sy:
                return sx, True
            t = _sign_of_root_combination(P * P + Q * Q * d - R * R * y.d, 2 * P * Q, d)
            return sx * t, True
    elif isinstance(x, Rational):
        n, m = x.numerator, x.denominator
        if isinstance(y, Rational):
            t = n * y.denominator - y.numerator * m
            return (t > 0) - (t < 0), True
        if isinstance(y, Surd):
            # n/m - (a + b sqrt(d))/c has the sign of (n*c - a*m) - b*m*sqrt(d)
            return _sign_of_root_combination(n * y.c - y.a * m, -y.b * m, y.d), True
    xi, yi = isinstance(x, Infinity), isinstance(y, Infinity)
    if xi or yi:
        if xi and yi:
            return EQUAL, True
        return (GREATER, True) if xi else (LESS, True)
    fx, fy = x.to_float(), y.to_float()
    ex = x.err if isinstance(x, Approx) else 0.0
    ey = y.err if isinstance(y, Approx) else 0.0
    if fx + ex < fy - ey:
        return LESS, False
    if fx - ex > fy + ey:
        return GREATER, False
    return EQUAL, False


def floor_exact(x: BoundaryValue) -> int:
    """Exact floor of a finite exact value."""
    x = _coerce(x)
    if isinstance(x, Rational):
        return x.numerator // x.denominator
    if isinstance(x, Surd):
        t = x.b * x.b * x.d
        m = math.isqrt(t) if x.b > 0 else -math.isqrt(t) - 1
        return (x.a + m) // x.c
    raise TypeError(f"floor is not defined for {x!r}")


# --- text grammar -----------------------------------------------------------
#
#   rat:<num>/<den>      surd:(<a>+<b>*sqrt(<d>))/<c>      inf      approx:<decimal>

_RAT_RE = re.compile(r"^rat:(-?\d+)/(-?\d+)$")
_SURD_RE = re.compile(r"^surd:\((-?\d+)\+(-?\d+)\*sqrt\((\d+)\)\)/(-?\d+)$")
_APPROX_RE = re.compile(r"^approx:(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)$")


def parse_value(text: str, approx_err: float = 1e-12) -> BoundaryValue:
    """Parse the CLI grammar for boundary values."""
    text = text.strip()
    if text == "inf":
        return INF
    m = _RAT_RE.match(text)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Rational(num, den)
    m = _SURD_RE.match(text)
    if m:
        a, b, d, c = (int(m.group(i)) for i in (1, 2, 3, 4))
        return normalize_surd(a, b, c, d)
    m = _APPROX_RE.match(text)
    if m:
        return Approx(float(m.group(1)), approx_err)
    raise ValueError(f"unparseable boundary value {text!r}")


def emit_value(x: BoundaryValue) -> str:
    """Emit a value in the same grammar parse_value accepts (round-trips)."""
    x = _coerce(x)
    if isinstance(x, Infinity):
        return "inf"
    if isinstance(x, Rational):
        return f"rat:{x.numerator}/{x.denominator}"
    if isinstance(x, Surd):
        return f"surd:({x.a}+{x.b}*sqrt({x.d}))/{x.c}"
    if isinstance(x, Approx):
        return f"approx:{x.value!r}"
    raise TypeError(f"cannot emit {x!r}")
