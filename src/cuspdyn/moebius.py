"""Integer Moebius transformations in PSL(2,Z) and their geometry.

Group elements are determinant-one integer matrices normalized to the
sign-canonical representative of their +/- class: c > 0, or c = 0 and
d > 0.  The action on boundary values is exact; the action on points of
the upper half plane is exact for points with rational x and rational
squared height, which is the shape every vertex and crossing point in
this package has.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import INF, Approx, BoundaryValue, Infinity, PrecisionExhausted, Rational, Surd
from .exact import _approx, _coprime, _surd, _value_class

__all__ = ["GroupElement", "HPoint", "IsometricSphere", "identity", "in_gamma0"]


@_value_class
class GroupElement:
    """Sign-canonical integer matrix (a b; c d) with ad - bc = 1."""

    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError(f"determinant of ({a},{b};{c},{d}) is not 1")
        if c < 0 or (c == 0 and d < 0):
            a, b, c, d = -a, -b, -c, -d
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)

    def key(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        """Composition: (g*h)(z) = g(h(z))."""
        if not isinstance(other, GroupElement):
            return NotImplemented
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def is_identity(self) -> bool:
        return self.key() == (1, 0, 0, 1)

    # --- actions ------------------------------------------------------------

    def apply_boundary(self, x: BoundaryValue) -> BoundaryValue:
        """Exact image of a boundary value; poles map to inf, inf to a/c.

        A surd maps to (n0 + n1*sqrt(d))/(m0 + m1*sqrt(d)), rationalised by
        its denominator's conjugate.  The map is increasing off its pole, so
        an Approx interval that avoids the pole maps end to end; one that
        holds it raises PrecisionExhausted.
        """
        A, B, C, D = self.a, self.b, self.c, self.d
        if isinstance(x, Surd):
            a, b, c, d = x.a, x.b, x.c, x.d
            n0, n1, m0, m1 = A * a + B * c, A * b, C * a + D * c, C * b
            return _surd(n0 * m0 - n1 * m1 * d, b * c, m0 * m0 - m1 * m1 * d, d)
        if isinstance(x, Rational):
            n, m = A * x.numerator + B * x.denominator, C * x.numerator + D * x.denominator
            if m > 0:
                return _coprime(n, m)
            return _coprime(-n, -m) if m else INF
        if isinstance(x, Infinity):
            return INF if C == 0 else _coprime(A, C)
        if isinstance(x, Approx):
            lo, hi = x.lo, x.hi
            if C * lo.numerator + D * lo.denominator <= 0 <= C * hi.numerator + D * hi.denominator:
                raise PrecisionExhausted(
                    f"approx value {x.value!r} within error {x.err!r} of the pole rat:{-D}/{C}"
                )
            return _approx(self.apply_boundary(lo), self.apply_boundary(hi))
        raise TypeError(f"cannot apply group element to {x!r}")

    def apply_hpoint(self, z: "HPoint") -> "HPoint":
        a, b, c, d = self.a, self.b, self.c, self.d
        # z = x + iy with y^2 = y2:  g z = ((az+b)(c conj(z)+d)) / |cz+d|^2
        den = (c * z.x + d) ** 2 + c * c * z.y2
        if den == 0:
            raise ZeroDivisionError("point maps to the boundary")
        x_new = ((a * z.x + b) * (c * z.x + d) + a * c * z.y2) / den
        return HPoint(x_new, z.y2 / (den * den))


_set_a = GroupElement.a.__set__
_set_b = GroupElement.b.__set__
_set_c = GroupElement.c.__set__
_set_d = GroupElement.d.__set__


def identity() -> GroupElement:
    return GroupElement(1, 0, 0, 1)


def in_gamma0(g: GroupElement, p: int) -> bool:
    """Membership in the congruence subgroup: lower-left entry divisible by p."""
    return g.c % p == 0


@_value_class
class HPoint:
    """Upper half plane point with rational x and rational squared height."""

    x: Fraction
    y2: Fraction

    def __init__(self, x, y2):
        # Fraction(Fraction) costs an ABC isinstance, so only other inputs convert
        if type(x) is not Fraction:
            x = Fraction(x)
        if type(y2) is not Fraction:
            y2 = Fraction(y2)
        if y2.numerator <= 0:
            raise ValueError("HPoint requires strictly positive imaginary part")
        _set_x(self, x)
        _set_y2(self, y2)


_set_x = HPoint.x.__set__
_set_y2 = HPoint.y2.__set__


@_value_class
class IsometricSphere:
    """The geodesic |cz + d| = 1 of an element with c != 0."""

    center: Fraction
    radius: Fraction
    element: GroupElement

    def __init__(self, g: GroupElement):
        if g.c == 0:
            raise ValueError("no isometric sphere for parabolic-at-infinity element")
        object.__setattr__(self, "center", Fraction(-g.d, g.c))
        object.__setattr__(self, "radius", Fraction(1, abs(g.c)))
        object.__setattr__(self, "element", g)

    def side(self, z: HPoint) -> int:
        """Sign of |cz+d|^2 - 1: -1 inside, 0 on the sphere, +1 outside."""
        c, d = self.element.c, self.element.d
        xn, xd = z.x.numerator, z.x.denominator
        u = c * xn + d * xd
        # |cz+d|^2 - 1 times the positive denominator xd^2 * yd, in integers
        t = (u * u - xd * xd) * z.y2.denominator + c * c * z.y2.numerator * xd * xd
        return (t > 0) - (t < 0)
