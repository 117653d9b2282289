"""Exact arithmetic on boundary values of the hyperbolic plane.

A boundary value is a point of R u {inf}: a rational n/m, a real
quadratic surd (a + b*sqrt(d))/c, the single compactification point
inf, or an approximate value, the closed interval of rationals within
an error bound of a float.  Rationals and surds are kept as canonical
integer tuples, so that equality is structural (a value equals only a
value of the same kind with the same integers, and compare orders
across kinds), and all arithmetic and ordering is done on plain
integers.  Rational is not fractions.Fraction because Fraction.numerator
is a Python property: a prototype that swapped it in saved 106 lines but
slowed coding in 4 of 4 alternating benchmark pairs on a 2-core machine
(1,028 to 900 ops/s, p50 0.248 to 0.295 ms).  Neither the coding loop
nor a conjugacy op on exact ends makes a compare call: they place points
by the cut rule of dynamics._position and tell exact values apart by
their parts.  When a conjugacy op still made 10, replaying the 2,000
compares of 200 such ops, one sign rule over _point's parts took 550 ns
a call against 514 ns for a branch per pair of kinds.  On a 2-core
machine the median conjugacy pair read -1.9% and -3.0% in two rounds of
ten alternating benchmark pairs, and -2.3% over six pairs of two copies
of one tree.

Arithmetic is that of one field Q(sqrt(d)), a rational being its element
with b = 0: each of +, -, * and / is one integer formula over the parts
(a, b, c, d) of (a + b*sqrt(d))/c, defined once on BoundaryValue, whose
canonical result is a Rational exactly when b = 0.  Two fields do not
mix (FieldMixError); inf and Approx have no arithmetic (TypeError).
Ints and Fractions go on the right only: 2 * x and sum(values) raise
TypeError, x * 2 and sum(values, Rational(0)) work.

The total order is decided by integer sign rules alone, never by
floating comparison: compare reads the parts of each value once, inf as
(1, 0, 0, 0), and orders every pair of kinds by one rule on them.  No
case refines an interval, so no comparison of two exact values can
fail.  An interval is ordered against a value only when it lies
strictly on one side, by the same rules on its two ends.  The family is
closed under integer Moebius maps of determinant one (within one
quadratic field): GroupElement.apply_boundary maps a value by one integer
formula over its parts.  The loops of dynamics, coding and the past
step, and the oracle's renormalization in flow_oracle carry their point
instead as a binary quadratic form of one discriminant D (in dynamics an
Approx as the forms of its two rational ends), made once from the parts
by _form and mapped by _form_image, which takes integer products alone;
parts are read only to order or to build values.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, fields
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


def _value_class(cls):
    """cls as a frozen slotted dataclass that keeps its own constructor.

    A class with fields and no __init__ of its own gets one that sets each
    field through its slot descriptor, with the fields' defaults, and ends
    in __post_init__ when the class has one, as dataclass's does; cls._make
    takes the same arguments and builds an instance without that check.
    dynamics.Termination, five fields, took 0.76 us to build through
    dataclass's __init__, which sets each through object.__setattr__, and
    takes 0.38 us through slot setters (timeit, best of 7, 2-core machine).
    """
    new = dataclass(frozen=True, slots=True, init=False)(cls)
    # slots=True rebuilds the class, and on Python 3.11 the generated __setattr__ and
    # __delattr__ test for the old one, so a name that is no field raised TypeError
    for cell in new.__setattr__.__closure__ + new.__delattr__.__closure__:
        if cell.cell_contents is cls:
            cell.cell_contents = new
    fs = fields(new)
    if fs and "__init__" not in cls.__dict__:
        ns = {"new": object.__new__, "cls": new}
        ns.update({f"set_{f.name}": getattr(new, f.name).__set__ for f in fs})
        ns.update({f"default_{f.name}": f.default for f in fs})
        args = ", ".join(f.name if f.default is MISSING else f"{f.name}=default_{f.name}" for f in fs)
        sets = "".join(f"\n    set_{f.name}(self, {f.name})" for f in fs)
        check = "\n    self.__post_init__()" if hasattr(new, "__post_init__") else ""
        exec(f"def __init__(self, {args}):{sets}{check}\n"
             f"def _make({args}):\n    self = new(cls){sets}\n    return self", ns)
        new.__init__, new._make = ns["__init__"], staticmethod(ns["_make"])
    return new


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

    # field arithmetic: one formula per operation on the parts of (a + b*sqrt(d))/c
    def __add__(self, other):
        return _sum(self, other, 1)

    def __sub__(self, other):
        return _sum(self, other, -1)

    def __mul__(self, other):
        a1, b1, c1, a2, b2, c2, d = _operands(self, other)
        return _surd(a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2, c1 * c2, d)

    def __truediv__(self, other):
        # x/y = x * c2*(a2 - b2*sqrt(d)) / (a2^2 - b2^2 d); the norm is 0 only at y = 0
        a1, b1, c1, a2, b2, c2, d = _operands(self, other)
        norm = a2 * a2 - b2 * b2 * d
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return _surd((a1 * a2 - b1 * b2 * d) * c2, (b1 * a2 - a1 * b2) * c2, c1 * norm, d)

    def __neg__(self):
        a, b, c, d = _parts(self)
        return _surd(-a, -b, c, d)

    def reciprocal(self):
        return _ONE / self

    def is_exact(self) -> bool:
        return not isinstance(self, Approx)


@_value_class
class Rational(BoundaryValue):
    """Canonical numerator/denominator: denominator > 0, gcd 1."""

    numerator: int
    denominator: int

    def __init__(self, num, den=1):
        fr = Fraction(num, den)
        _set_num(self, fr.numerator)
        _set_den(self, fr.denominator)

    @property
    def fr(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def to_float(self) -> float:
        return self.numerator / self.denominator


_set_num = Rational.numerator.__set__
_set_den = Rational.denominator.__set__


def _coprime(n: int, m: int) -> Rational:
    """Rational n/m from coprime n and m > 0, trusted as canonical."""
    r = object.__new__(Rational)
    _set_num(r, n)
    _set_den(r, m)
    return r


_ONE = _coprime(1, 1)


def _rational(n: int, m: int) -> Rational:
    """Canonical Rational n/m for integers n and m != 0."""
    if m < 0:
        n, m = -n, -m
    g = math.gcd(n, m)
    return _coprime(n // g, m // g)


@_value_class
class Surd(BoundaryValue):
    """Canonical (a + b*sqrt(d))/c: d > 1 squarefree, b != 0, c > 0, gcd(a,b,c) = 1.

    Construct through :func:`normalize_surd`; the raw constructor trusts
    its arguments.
    """

    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int):
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)

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


_set_a = Surd.a.__set__
_set_b = Surd.b.__set__
_set_c = Surd.c.__set__
_set_d = Surd.d.__set__


def _surd(a: int, b: int, c: int, d: int) -> BoundaryValue:
    """Canonical value of (a + b*sqrt(d))/c for c != 0, and squarefree d > 1 when b != 0."""
    if b == 0:
        return _rational(a, c)
    if c < 0:
        a, b, c = -a, -b, -c
    g = math.gcd(a, b, c)
    if g != 1:
        a, b, c = a // g, b // g, c // g
    return Surd(a, b, c, d)


def _parts(x) -> tuple[int, int, int, int]:
    """(a, b, c, d) with x = (a + b*sqrt(d))/c; a rational n/m is (n, 0, m, 0)."""
    if isinstance(x, Rational):
        return x.numerator, 0, x.denominator, 0
    if isinstance(x, Surd):
        return x.a, x.b, x.c, x.d
    if isinstance(x, BoundaryValue):
        raise TypeError(f"no field arithmetic on {x!r}")
    return _parts(_coerce(x))


def _operands(x, y) -> tuple[int, ...]:
    """The parts a, b, c of x and of y, then the radicand d of their field (0 for Q)."""
    a1, b1, c1, d1 = _parts(x)
    a2, b2, c2, d2 = _parts(y)
    if d1 and d2 and d1 != d2:
        raise FieldMixError(f"cannot combine sqrt({d1}) and sqrt({d2}) values")
    return a1, b1, c1, a2, b2, c2, d1 or d2


def _sum(x, y, sign: int) -> BoundaryValue:
    """x + sign*y for sign = +1 or -1."""
    a1, b1, c1, a2, b2, c2, d = _operands(x, y)
    return _surd(a1 * c2 + sign * a2 * c1, b1 * c2 + sign * b2 * c1, c1 * c2, d)


@_value_class
class Infinity(BoundaryValue):
    """The single compactification point; greater than every real."""

    _instance = None

    def __new__(cls):
        # object.__new__: _value_class rebuilds the class, so zero-argument super() breaks
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def to_float(self) -> float:
        return math.inf


INF = Infinity()


@_value_class
class Approx(BoundaryValue):
    """The closed interval [lo, hi] of rationals that an approximate value may be.

    Approx(value, err) is [v - e, v + e] for the exact binary values v and
    e of the two floats, so error 0 is the float's own value.  value and
    err are the float midpoint and half-width.
    """

    lo: Rational
    hi: Rational

    def __init__(self, value: float, err: float = 1e-12):
        value, err = float(value), float(err)
        if not (math.isfinite(value) and math.isfinite(err) and err >= 0):
            raise ValueError(f"Approx needs a finite value and error >= 0, got {value!r}, {err!r}")
        v, e = Fraction(value), Fraction(err)
        object.__setattr__(self, "lo", Rational(v - e))
        object.__setattr__(self, "hi", Rational(v + e))

    @property
    def value(self) -> float:
        return float((self.lo.fr + self.hi.fr) / 2)

    @property
    def err(self) -> float:
        return float((self.hi.fr - self.lo.fr) / 2)

    def to_float(self) -> float:
        return self.value


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


def _point(x) -> tuple[int, int, int, int] | None:
    """_parts(x), with inf as (1, 0, 0, 0): the limit of n/m as m -> 0+, so
    the sign rules over parts order it above every real and equal to itself.
    None for an Approx, an interval and no point."""
    t = type(x)  # an exact type test: isinstance walks the bases on each miss
    if t is Rational:
        return x.numerator, 0, x.denominator, 0
    if t is Surd:
        return x.a, x.b, x.c, x.d
    if x is INF:
        return 1, 0, 0, 0
    return None if t is Approx else _parts(x)


def compare(x: BoundaryValue, y: BoundaryValue) -> int:
    """Total-order comparison returning LESS / EQUAL / GREATER.

    Exact values are ordered by integer signs over their parts, inf being
    (1, 0, 0, 0) under the same rule.  Scaling x - y by c1*c2 >= 0 gives
    P + Q*sqrt(d1) - R*sqrt(d2).  Against a rational or inf, or within one
    field, that is A + B*sqrt(d), whose sign decides: inf minus a finite
    (a + b*sqrt(d))/c is A = c > 0, and inf minus inf is 0.  For surds from
    fields d1 != d2 it is X - Y with X = P + Q*sqrt(d1) and Y = R*sqrt(d2),
    both nonzero.  When sign(X) != sign(Y) the answer is sign(X); otherwise
    it is sign(X) * sign(X^2 - Y^2), where X^2 - Y^2 = (P^2 + Q^2*d1 -
    R^2*d2) + 2PQ*sqrt(d1) is never zero because the fields share no
    irrational.  An Approx is LESS or GREATER only when its whole interval
    is, and EQUAL when the order of its points is not decided.
    """
    px, py = _point(x), _point(y)
    if px is None or py is None:
        return _compare_approx(x, y)
    (a1, b1, c1, d1), (a2, b2, c2, d2) = px, py
    P, Q, R = a1 * c2 - a2 * c1, b1 * c2, b2 * c1
    if d1 == d2 or not (d1 and d2):
        return _sign_of_root_combination(P, Q - R, d1 or d2)
    sx, sy = _sign_of_root_combination(P, Q, d1), (R > 0) - (R < 0)
    if sx != sy:
        return sx
    return sx * _sign_of_root_combination(P * P + Q * Q * d1 - R * R * d2, 2 * P * Q, d1)


def _compare_approx(x, y) -> int:
    """compare where x or y is an Approx, the closed interval [lo, hi]:
    ordered only when the whole interval lies on one side."""
    x_lo, x_hi = (x.lo, x.hi) if isinstance(x, Approx) else (x, x)
    y_lo, y_hi = (y.lo, y.hi) if isinstance(y, Approx) else (y, y)
    if compare(x_hi, y_lo) == LESS:
        return LESS
    if compare(x_lo, y_hi) == GREATER:
        return GREATER
    return EQUAL


def _floor_root(a: int, b: int, c: int, d: int) -> int:
    """floor((a + b*sqrt(d))/c) for c > 0, and squarefree d > 1 when b != 0."""
    t = b * b * d
    m = math.isqrt(t) if b >= 0 else -math.isqrt(t) - 1
    return (a + m) // c


def floor_exact(x: BoundaryValue) -> int:
    """Exact floor of a finite exact value."""
    return _floor_root(*_parts(x))


def _form(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """(P, Q, N, s) with (a + b*sqrt(d))/c = (P + sqrt(D))/Q, D = s*s*d = P^2 + Q*N,
    for canonical parts: the root of Q*x^2 - 2*P*x - N taken with +sqrt(D).

    A surd is scaled by k = c/gcd(c, b^2 d - a^2) with the sign of b,
    so s = k*|b|, and (P, Q) is the only such pair for the value and D.  A
    rational n/m is the square form (n*m, m^2, -n^2) with D = 0 and s = 0.
    """
    if b == 0:
        return a * c, c * c, -a * a, 0
    t = b * b * d - a * a
    g = math.gcd(c, t)
    k = c // g
    if b < 0:
        return -k * a, -k * c, -t // g, -k * b
    return k * a, k * c, t // g, k * b


def _form_image(g: tuple[int, int, int, int], P: int, Q: int, N: int) -> tuple[int, int, int]:
    """The form (P', Q', N') of g((P + sqrt(D))/Q) for det g = 1, which keeps D and
    the +sqrt(D) root: integer products alone, with no gcd, norm or division.

    It is the congruence of the symmetric matrix [[Q, -P], [-P, -N]] by
    g^-1 = [[D, -B], [-C, A]] for g = (A, B, C, D), and the pole of g maps
    to Q' = 0.
    """
    A, B, C, D = g
    x, y = Q * D + P * C, P * D - N * C
    u, v = Q * B + P * A, P * B - N * A
    return B * x + A * y, D * x + C * y, -(B * u + A * v)


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
