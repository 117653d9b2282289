"""Ford fundamental domain of Gamma_0(q) and its precell/cell combinatorics.

The level q is a prime p, or 1 for the modular preset PSL(2,Z) =
Gamma_0(1).  The fundamental domain is the strip 0 < Re z < 1 above the
isometric spheres |qz - k| = 1, 0 <= k <= q with gcd(k, q) = 1.
Precells are its vertical slices between the wall lines k/q; cells are
ideal triangles (k/q, (k+1)/q, inf) assembled from group translates of
precells.  Everything here is exact: vertices carry rational x and
rational squared height, and cell-side identities are verified by
endpoint equality, not numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import Rational, emit_value
from .moebius import GroupElement, HPoint, IsometricSphere, identity

__all__ = [
    "FordDomain",
    "Cell",
    "build_domain",
    "modular_domain",
    "g_pair",
    "group_name",
    "cell",
    "reduce_point",
    "locate_cell",
    "domain_to_json",
]

_MAX_REDUCE_STEPS = 10**6


@functools.cache
def _require_prime(p: int) -> int:
    """p, once trial division has shown it prime (once per p); else ValueError."""
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"p = {p} is not prime")
    return p


def group_name(q: int) -> str:
    """The group of level q as JSON output names it: modular or gamma0(q)."""
    return "modular" if q == 1 else f"gamma0({q})"


def g_pair(p: int, k: int) -> GroupElement:
    """The element (l, -(1+kl)/p; p, -k) determining sphere I_k, k*l = -1 mod p."""
    _require_prime(p)
    if not 1 <= k <= p - 1:
        raise ValueError(f"sphere index k = {k} out of range 1..{p - 1}")
    return _domain(p).spheres[k - 1].element


@dataclass(frozen=True)
class FordDomain:
    """Ford domain data for Gamma_0(p), p = 1 being PSL(2,Z): spheres, vertices, maxima."""

    p: int
    spheres: tuple[IsometricSphere, ...]
    # vertices: v_0 = 0 and v_last = 1 are boundary points (y2 = 0 is not an
    # HPoint, so they are stored as rationals); inner vertices are HPoints.
    vertex_0: Fraction
    vertex_last: Fraction
    inner_vertices: tuple[HPoint, ...]
    maxima: tuple[HPoint, ...]

    @property
    def modular(self) -> bool:
        return self.p == 1

    def in_closure(self, z: HPoint) -> bool:
        """Exact membership of z in the closed fundamental domain."""
        return 0 <= z.x <= 1 and all(s.side(z) >= 0 for s in self.spheres)

    def precell_indices(self, z: HPoint) -> list[int]:
        """Indices k with z in the closed precell A(v_k); empty if outside."""
        if not self.in_closure(z):
            return []
        f, r = divmod(self.p * z.x.numerator, z.x.denominator)
        return list(range(max(f - (r == 0), 0), min(f, self.p - 1) + 1))


def _in_triangle(q: int, k: int, xn: int, xd: int, yn: int, yd: int, strict: bool) -> bool:
    """Whether x = xn/xd, y^2 = yn/yd (xd, yd > 0) is in the ideal triangle (k/q, (k+1)/q, inf):
    k <= qx <= k + 1, and outside the arc on [k/q, (k+1)/q]: (qx - k)(qx - k - 1) + q^2 y^2 >= 0."""
    lo, hi = q * xn - k * xd, q * xn - (k + 1) * xd
    t = lo * hi * yd + q * q * yn * xd * xd
    return lo > 0 > hi and t > 0 if strict else lo >= 0 >= hi and t >= 0


@functools.cache
def _domain(q: int) -> FordDomain:
    """The Ford domain of level q, built once per level.

    Sphere k has the element (l, -(1+kl)/q; q, -k) with l = -k^-1 mod q;
    adjacent spheres k, k+1 meet at ((2k+1)/2q, 3/4q^2), and the tops of
    the spheres strictly inside the strip are the maxima.
    """
    ks = [k for k in range(q + 1) if math.gcd(k, q) == 1]
    spheres = []
    for k in ks:
        l = (-pow(k, -1, q)) % q
        spheres.append(IsometricSphere(GroupElement(l, -(1 + k * l) // q, q, -k)))
    inner = tuple(
        HPoint(Fraction(2 * k + 1, 2 * q), Fraction(3, 4 * q * q))
        for k, k1 in zip(ks, ks[1:])
        if k1 == k + 1
    )
    maxima = tuple(HPoint(Fraction(k, q), Fraction(1, q * q)) for k in ks if 0 < k < q)
    return FordDomain(q, tuple(spheres), Fraction(0), Fraction(1), inner, maxima)


def _level(p: int, modular: bool) -> int:
    """The level q of the group: 1 for the modular preset, else the prime p."""
    return 1 if modular else _require_prime(p)


def build_domain(p: int) -> FordDomain:
    return _domain(_require_prime(p))


def modular_domain() -> FordDomain:
    """PSL(2,Z) preset, level 1: spheres |z| = 1 and |z - 1| = 1, one precell."""
    return _domain(1)


@dataclass(frozen=True)
class Cell:
    """Ideal triangle (k/p, (k+1)/p, inf) with its precell decomposition."""

    p: int
    k: int
    left: Fraction
    right: Fraction
    decomposition: tuple[tuple[GroupElement, int], ...]

    def contains(self, z: HPoint, strict: bool = False) -> bool:
        """Membership in the (closed or open) triangle; exact."""
        x, y2 = z.x, z.y2
        return _in_triangle(self.p, self.k, x.numerator, x.denominator, y2.numerator, y2.denominator, strict)


def cell(p: int, k: int, modular: bool = False) -> Cell:
    q = _level(p, modular)
    if not 0 <= k <= q - 1:
        raise ValueError(f"cell index k = {k} out of range 0..{q - 1}")
    if q == 1:  # the single precell of PSL(2,Z)
        decomp = ((identity(), 0),)
    elif k == 0:
        decomp = ((identity(), 0), (g_pair(q, q - 1), q - 1))
    elif k == q - 1:
        decomp = ((identity(), q - 1), (g_pair(q, 1), 0))
    else:
        a = (-pow(k + 1, -1, q)) % q
        b = (-pow(k, -1, q) - 1) % q
        decomp = ((identity(), k), (g_pair(q, a), a), (g_pair(q, b + 1), b))
    return Cell(q, k, Fraction(k, q), Fraction(k + 1, q), decomp)


def _reduce(q: int, z: HPoint) -> tuple[tuple[int, int, int, int], int, int, int, bool, int]:
    """Reduce z at level q on the integer matrix g = (a b; c d) against the fixed input point.

    With x = X/W, y^2 = Y/V, u = aX + bW and v = cX + dW: N = |cz + d|^2 W^2 V =
    v^2 V + c^2 Y W^2 and R = Re(gz) N = u v V + a c Y W^2.  gz is strictly inside
    (on) the sphere of s when N is smaller (equal) at s g.  Returns
    ((a, b, c, d), R, N, H, on_sphere, rounds), where gz = R/N + i sqrt(H)/N.
    """
    X, W, Y, V = z.x.numerator, z.x.denominator, z.y2.numerator, z.y2.denominator
    K, elements = Y * W * W, [s.element for s in _domain(q).spheres]
    a, b, c, d, u, v, N, R = 1, 0, 0, 1, X, W, W * W * V, X * W * V
    for rounds in range(1, _MAX_REDUCE_STEPS + 1):
        n = R // N
        a, b, u, R = a - n * c, b - n * d, u - n * v, R - n * N
        on_sphere = False
        for e in elements:
            c1, v1 = e.c * a + e.d * c, e.c * u + e.d * v
            n1 = v1 * v1 * V + c1 * c1 * K
            if n1 < N:
                break
            on_sphere = on_sphere or n1 == N
        else:
            return (a, b, c, d), R, N, K * W * W * V, on_sphere, rounds
        a, b, c, d, u, v = e.a * a + e.b * c, e.a * b + e.b * d, c1, e.c * b + e.d * d, e.a * u + e.b * v, v1
        N, R = n1, u * v * V + a * c * K
    raise ArithmeticError("reduction did not terminate; arithmetic precision failure?")


def reduce_point(p: int, z: HPoint, modular: bool = False) -> tuple[GroupElement, HPoint]:
    """Move z into the closed fundamental domain.

    Alternates integer translations of Re into [0,1) with applications of
    sphere elements whenever z is strictly inside a sphere.  The squared
    height strictly increases on every sphere step, which forces
    termination; boundary points are left in place.
    """
    return reduce_point_detailed(p, z, modular=modular)[:2]


def reduce_point_detailed(
    p: int, z: HPoint, modular: bool = False
) -> tuple[GroupElement, HPoint, int]:
    """reduce_point plus the number of sphere/translation rounds used."""
    g, R, N, H, _, rounds = _reduce(_level(p, modular), z)
    return GroupElement(*g), HPoint(Fraction(R, N), Fraction(H, N * N)), rounds


def locate_cell(
    p: int, z: HPoint, modular: bool = False
) -> tuple[GroupElement, int, bool]:
    """Find (g, k, boundary) with g^{-1} z in the closed triangle of cell k.

    boundary is True when z sits on a precell wall or sphere, in which
    case either adjacent cell may be reported.
    """
    q = _level(p, modular)
    (a, b, c, d), R, N, H, on_sphere, _ = _reduce(q, z)
    if not 0 <= R < N:
        raise AssertionError("reduced point escaped the closed domain")
    f, r = divmod(q * R, N)
    k = max(f - (r == 0), 0)  # the first precell holding the reduced point
    if not _in_triangle(q, k, R, N, H, N * N, strict=False):
        raise AssertionError("precell slice fell outside its cell triangle")
    return GroupElement(d, -b, -c, a), k, r == 0 or on_sphere


def domain_to_json(dom: FordDomain) -> dict:
    """Exact-string JSON description of the domain."""

    def pt(z: HPoint) -> dict:
        return {"x": emit_value(Rational(z.x)), "y2": emit_value(Rational(z.y2))}

    return {
        "schema": 1,
        "group": group_name(dom.p),
        "p": None if dom.modular else dom.p,
        "spheres": [
            {
                "center": emit_value(Rational(s.center)),
                "radius": emit_value(Rational(s.radius)),
                "element": matrix_literal(s.element),
            }
            for s in dom.spheres
        ],
        "vertices": {
            "v0": emit_value(Rational(dom.vertex_0)),
            "v_last": emit_value(Rational(dom.vertex_last)),
            "inner": [pt(v) for v in dom.inner_vertices],
        },
        "maxima": [pt(m) for m in dom.maxima],
    }


def matrix_literal(g: GroupElement) -> str:
    return f"[[{g.a},{g.b}],[{g.c},{g.d}]]"
