"""Exact arithmetic on boundary values of the hyperbolic plane.

A boundary value is a point of R u {inf}: a rational n/m, a real
quadratic surd (a + b*sqrt(d))/c, the single compactification point
inf, or an approximate value, the closed interval of rationals within
an error bound of a float.  Rationals and surds are kept as canonical
integer tuples, so that equality is structural (a value equals only a
value of the same kind with the same integers, and compare orders
across kinds), and all arithmetic and ordering is done on plain
integers.  Rational is not fractions.Fraction because Fraction.numerator
is a Python property, read on every bisection compare: a prototype that
swapped it in saved 106 lines but slowed coding in 4 of 4 alternating
benchmark pairs on a 2-core machine (1,028 to 900 ops/s, p50 0.248 to
0.295 ms).

The total order is decided by integer sign rules alone, never by
floating comparison.  Within one field (or against a rational) the
difference is (A + B*sqrt(d))/C with C > 0, whose sign is that of
A + B*sqrt(d).  Across fields sqrt(d1) != sqrt(d2), the comparison of
P + Q*sqrt(d1) with R*sqrt(d2) is decided by their signs when they
differ, and otherwise by the sign of their squares' difference
(P^2 + Q^2*d1 - R^2*d2) + 2PQ*sqrt(d1), times their common sign.  No
case refines an interval, so no comparison of two exact finite values
can fail.  An interval is ordered against a value only when it lies
strictly on one side, by the same rules on its two ends.  The family is
closed under integer Moebius maps of determinant one (within one
quadratic field).
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
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
    "PrecisionExhausted",
    "normalize_surd",
    "compare",
    "floor_exact",
    "ceil_moebius",
    "parse_value",
    "emit_value",
]

LESS, EQUAL, GREATER = -1, 0, 1


class FieldMixError(ValueError):
    """Arithmetic mixing sqrt(d1) with sqrt(d2), d1 != d2, is not supported."""


class PrecisionExhausted(ArithmeticError):
    """An Approx interval meets a branch endpoint or a pole, so its points disagree."""


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
        """The value as a float, also when its integers are past float range.

        Those take b*sqrt(d) as an isqrt scaled to at least 64 bits and,
        when a and b differ in sign, the value as (a^2 - b^2*d) / (c*(a -
        b*sqrt(d))), so no digits cancel; one int/int division rounds.
        """
        a, b, c, d = self.a, self.b, self.c, self.d
        try:
            return (a + b * math.sqrt(d)) / c
        except OverflowError:
            pass
        cancel = a != 0 and (a < 0) != (b < 0)
        t = b * b * d
        k = max(0, 65 - t.bit_length() // 2)
        r = math.isqrt(t << 2 * k)
        s = (a << k) + (-r if (b > 0) == cancel else r)
        return ((a * a - t) << k) / (c * s) if cancel else s / (c << k)

    def __eq__(self, other):
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
    """The closed interval [lo, hi] of rationals that an approximate value may be.

    Approx(value, err) is [v - e, v + e] for the exact binary values v and
    e of the two floats, so error 0 is the float's own value.  value and
    err are the float midpoint and half-width.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, value: float, err: float = 1e-12):
        value, err = float(value), float(err)
        if not (math.isfinite(value) and math.isfinite(err) and err >= 0):
            raise ValueError(f"Approx needs a finite value and error >= 0, got {value!r}, {err!r}")
        v, e = Fraction(value), Fraction(err)
        object.__setattr__(self, "lo", Rational(v - e))
        object.__setattr__(self, "hi", Rational(v + e))

    def __setattr__(self, *a):
        raise AttributeError("Approx is immutable")

    @property
    def value(self) -> float:
        return float((self.lo.fr + self.hi.fr) / 2)

    @property
    def err(self) -> float:
        return float((self.hi.fr - self.lo.fr) / 2)

    def to_float(self) -> float:
        return self.value

    def __eq__(self, other):
        return isinstance(other, Approx) and (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self):
        return hash(("bv-approx", self.lo, self.hi))

    def __repr__(self):
        return f"Approx([{self.lo!r}, {self.hi!r}])"


def _approx(lo: Rational, hi: Rational) -> Approx:
    """The Approx [lo, hi] for rationals lo <= hi."""
    x = object.__new__(Approx)
    object.__setattr__(x, "lo", lo)
    object.__setattr__(x, "hi", hi)
    return x


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
    """Total-order comparison returning LESS / EQUAL / GREATER.

    Exact values are ordered by integer signs.  Against a rational or
    within one field, sign(x - y) is the sign of A + B*sqrt(d).  For
    surds from fields d1 != d2, scaling both by c1*c2 > 0 turns x - y
    into X - Y with X = P + Q*sqrt(d1) and Y = R*sqrt(d2), both nonzero.
    When sign(X) != sign(Y) the answer is sign(X); otherwise it is
    sign(X) * sign(X^2 - Y^2), where X^2 - Y^2 = (P^2 + Q^2*d1 - R^2*d2)
    + 2PQ*sqrt(d1) is never zero because the fields share no irrational.
    An Approx is LESS or GREATER only when its whole interval is, and
    EQUAL when the order of its points is not decided.
    """
    x, y = _coerce(x), _coerce(y)
    if isinstance(x, Surd):
        a, b, c, d = x.a, x.b, x.c, x.d
        if isinstance(y, Rational):
            n, m = y.numerator, y.denominator
            return _sign_of_root_combination(a * m - n * c, b * m, d)
        if isinstance(y, Surd):
            c2 = y.c
            P, Q = a * c2 - y.a * c, b * c2
            if y.d == d:
                return _sign_of_root_combination(P, Q - y.b * c, d)
            R = y.b * c
            sx, sy = _sign_of_root_combination(P, Q, d), (R > 0) - (R < 0)
            if sx != sy:
                return sx
            t = _sign_of_root_combination(P * P + Q * Q * d - R * R * y.d, 2 * P * Q, d)
            return sx * t
    elif isinstance(x, Rational):
        n, m = x.numerator, x.denominator
        if isinstance(y, Rational):
            t = n * y.denominator - y.numerator * m
            return (t > 0) - (t < 0)
        if isinstance(y, Surd):
            # n/m - (a + b sqrt(d))/c has the sign of (n*c - a*m) - b*m*sqrt(d)
            return _sign_of_root_combination(n * y.c - y.a * m, -y.b * m, y.d)
    xi, yi = isinstance(x, Infinity), isinstance(y, Infinity)
    if xi or yi:
        if xi and yi:
            return EQUAL
        return GREATER if xi else LESS
    x_lo, x_hi = (x.lo, x.hi) if isinstance(x, Approx) else (x, x)
    y_lo, y_hi = (y.lo, y.hi) if isinstance(y, Approx) else (y, y)
    if compare(x_hi, y_lo) == LESS:
        return LESS
    if compare(x_lo, y_hi) == GREATER:
        return GREATER
    return EQUAL


def _floor_root(a: int, b: int, c: int, d: int) -> int:
    """floor((a + b*sqrt(d))/c) for c > 0 and squarefree d > 1."""
    t = b * b * d
    m = math.isqrt(t) if b >= 0 else -math.isqrt(t) - 1
    return (a + m) // c


def floor_exact(x: BoundaryValue) -> int:
    """Exact floor of a finite exact value."""
    x = _coerce(x)
    if isinstance(x, Rational):
        return x.numerator // x.denominator
    if isinstance(x, Surd):
        return _floor_root(x.a, x.b, x.c, x.d)
    raise TypeError(f"floor is not defined for {x!r}")


def ceil_moebius(matrix: tuple[int, int, int, int], x: BoundaryValue) -> int:
    """Exact ceiling of (a*x + b)/(c*x + d) for matrix = (a, b, c, d).

    The integer matrix may have any nonzero determinant; x is a rational
    or a surd off its pole, or an Approx on which the map is monotone.
    For a surd the quotient is rationalised by the conjugate of its
    denominator, so one isqrt decides it.
    """
    if isinstance(x, Approx):  # M is monotone on the branch that holds the interval
        return min(ceil_moebius(matrix, x.lo), ceil_moebius(matrix, x.hi))
    a, b, c, d = matrix
    if isinstance(x, Rational):
        p, q = x.numerator, x.denominator
        return -(-(a * p + b * q) // (c * p + d * q))
    n0, n1 = a * x.a + b * x.c, a * x.b
    m0, m1 = c * x.a + d * x.c, c * x.b
    num0, num1, den = n0 * m0 - n1 * m1 * x.d, n1 * m0 - n0 * m1, m0 * m0 - m1 * m1 * x.d
    if den < 0:
        num0, num1, den = -num0, -num1, -den
    return -_floor_root(-num0, -num1, den, x.d)


# --- text grammar -----------------------------------------------------------
#
#   rat:<num>/<den>      surd:(<a>+<b>*sqrt(<d>))/<c>      inf      approx:<decimal>
#
# with the radicand d at most MAX_RADICAND.  Integers go through Decimal,
# which, unlike int <-> str, converts integers of any length.

_RAT_RE = re.compile(r"^rat:(-?\d+)/(-?\d+)$")
_SURD_RE = re.compile(r"^surd:\((-?\d+)\+(-?\d+)\*sqrt\((\d+)\)\)/(-?\d+)$")
_APPROX_RE = re.compile(r"^approx:(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)$")
MAX_RADICAND = 10**12  # the squarefree split tries factors up to sqrt(d)


def parse_value(text: str, approx_err: float = 1e-12) -> BoundaryValue:
    """Parse the CLI grammar for boundary values."""
    text = text.strip()
    if text == "inf":
        return INF
    m = _RAT_RE.match(text)
    if m:
        num, den = int(Decimal(m.group(1))), int(Decimal(m.group(2)))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Rational(num, den)
    m = _SURD_RE.match(text)
    if m:
        a, b, d, c = (int(Decimal(m.group(i))) for i in (1, 2, 3, 4))
        if d > MAX_RADICAND:
            raise ValueError(f"radicand {d} exceeds the bound {MAX_RADICAND} in {text!r}")
        return normalize_surd(a, b, c, d)
    m = _APPROX_RE.match(text)
    if m:
        value = float(m.group(1))
        if not math.isfinite(value):
            raise ValueError(f"approx value out of float range in {text!r}")
        return Approx(value, approx_err)
    raise ValueError(f"unparseable boundary value {text!r}")


def emit_value(x: BoundaryValue) -> str:
    """Emit a value in the same grammar parse_value accepts (round-trips)."""
    x = _coerce(x)
    if isinstance(x, Infinity):
        return "inf"
    if isinstance(x, Rational):
        return f"rat:{Decimal(x.numerator)}/{Decimal(x.denominator)}"
    if isinstance(x, Surd):
        return f"surd:({Decimal(x.a)}+{Decimal(x.b)}*sqrt({x.d}))/{Decimal(x.c)}"
    if isinstance(x, Approx):
        return f"approx:{x.value!r}"
    raise TypeError(f"cannot emit {x!r}")
