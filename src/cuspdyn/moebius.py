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

from .exact import INF, Approx, BoundaryValue, Infinity, Rational, Surd, _coprime, _surd

__all__ = ["GroupElement", "HPoint", "IsometricSphere", "identity", "in_gamma0"]


class GroupElement:
    """Sign-canonical integer matrix (a b; c d) with ad - bc = 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError(f"determinant of ({a},{b};{c},{d}) is not 1")
        if c < 0 or (c == 0 and d < 0):
            a, b, c, d = -a, -b, -c, -d
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("GroupElement is immutable")

    def key(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.key() == other.key()

    def __hash__(self):
        return hash(("psl2", self.key()))

    def __repr__(self):
        return f"GroupElement({self.a}, {self.b}, {self.c}, {self.d})"

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

        The matrix is unimodular, so the image of a reduced fraction is
        reduced, and the image of (a + b*sqrt(d))/c has sqrt(d)-coefficient
        b*c before the one gcd of the surd canonicaliser.
        """
        A, B, C, D = self.a, self.b, self.c, self.d
        if isinstance(x, Surd):
            a, b, c, d = x.a, x.b, x.c, x.d
            n0, n1 = A * a + B * c, A * b
            m0, m1 = C * a + D * c, C * b
            norm = m0 * m0 - m1 * m1 * d
            if norm == 0:
                raise ArithmeticError("denominator norm vanished on an irrational value")
            return _surd(n0 * m0 - n1 * m1 * d, b * c, norm, d)
        if isinstance(x, Rational):
            p, q = x.numerator, x.denominator
            num, den = A * p + B * q, C * p + D * q
            if den == 0:
                return INF
            return _coprime(num, den) if den > 0 else _coprime(-num, -den)
        if isinstance(x, Infinity):
            return INF if C == 0 else _coprime(A, C)
        if isinstance(x, Approx):
            den = C * x.value + D
            if den == 0:
                return INF
            # first-order error propagation through the Moebius map
            deriv = 1.0 / (den * den)
            val = (A * x.value + B) / den
            return Approx(val, abs(deriv) * x.err * 1.0000000001 + 1e-17 * (1 + abs(val)))
        raise TypeError(f"cannot apply group element to {x!r}")

    def apply_hpoint(self, z: "HPoint") -> "HPoint":
        a, b, c, d = self.a, self.b, self.c, self.d
        # z = x + iy with y^2 = y2:  g z = ((az+b)(c conj(z)+d)) / |cz+d|^2
        den = (c * z.x + d) ** 2 + c * c * z.y2
        if den == 0:
            raise ZeroDivisionError("point maps to the boundary")
        x_new = ((a * z.x + b) * (c * z.x + d) + a * c * z.y2) / den
        return HPoint(x_new, z.y2 / (den * den))


def identity() -> GroupElement:
    return GroupElement(1, 0, 0, 1)


def in_gamma0(g: GroupElement, p: int) -> bool:
    """Membership in the congruence subgroup: lower-left entry divisible by p."""
    return g.c % p == 0


class HPoint:
    """Upper half plane point with rational x and rational squared height."""

    __slots__ = ("x", "y2")

    def __init__(self, x, y2):
        x, y2 = Fraction(x), Fraction(y2)
        if y2 <= 0:
            raise ValueError("HPoint requires strictly positive imaginary part")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y2", y2)

    def __setattr__(self, *args):
        raise AttributeError("HPoint is immutable")

    def to_complex(self) -> complex:
        return complex(float(self.x), float(self.y2) ** 0.5)

    def __eq__(self, other):
        return isinstance(other, HPoint) and (self.x, self.y2) == (other.x, other.y2)

    def __hash__(self):
        return hash(("hpoint", self.x, self.y2))

    def __repr__(self):
        return f"HPoint({self.x}, y2={self.y2})"


class IsometricSphere:
    """The geodesic |cz + d| = 1 of an element with c != 0."""

    __slots__ = ("center", "radius", "element")

    def __init__(self, g: GroupElement):
        if g.c == 0:
            raise ValueError("no isometric sphere for parabolic-at-infinity element")
        object.__setattr__(self, "center", Fraction(-g.d, g.c))
        object.__setattr__(self, "radius", Fraction(1, abs(g.c)))
        object.__setattr__(self, "element", g)

    def __setattr__(self, *args):
        raise AttributeError("IsometricSphere is immutable")

    def side(self, z: HPoint) -> int:
        """Sign of |cz+d|^2 - 1: -1 inside, 0 on the sphere, +1 outside."""
        c, d = self.element.c, self.element.d
        xn, xd = z.x.numerator, z.x.denominator
        u = c * xn + d * xd
        # |cz+d|^2 - 1 times the positive denominator xd^2 * yd, in integers
        t = (u * u - xd * xd) * z.y2.denominator + c * c * z.y2.numerator * xd * xd
        return (t > 0) - (t < 0)

    def __repr__(self):
        return f"IsometricSphere(center={self.center}, radius={self.radius})"

