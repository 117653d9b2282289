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
import json
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
    "cell",
    "reduce_point",
    "locate_cell",
    "domain_to_json",
]

_MAX_REDUCE_STEPS = 10**6


def _require_prime(p: int) -> None:
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"p = {p} is not prime")


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
        if not (0 <= z.x <= 1):
            return False
        return all(s.side(z) >= 0 for s in self.spheres)

    def precell_indices(self, z: HPoint) -> list[int]:
        """Indices k with z in the closed precell A(v_k); empty if outside."""
        if not self.in_closure(z):
            return []
        p = self.p
        return [k for k in range(p) if Fraction(k, p) <= z.x <= Fraction(k + 1, p)]


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
    return FordDomain(
        p=q,
        spheres=tuple(spheres),
        vertex_0=Fraction(0),
        vertex_last=Fraction(1),
        inner_vertices=inner,
        maxima=maxima,
    )


def _level(p: int, modular: bool) -> int:
    """The level q of the group: 1 for the modular preset, else the prime p."""
    if modular:
        return 1
    _require_prime(p)
    return p


def build_domain(p: int) -> FordDomain:
    _require_prime(p)
    return _domain(p)


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
        lo, hi = self.left, self.right
        if strict:
            if not (lo < z.x < hi):
                return False
        elif not (lo <= z.x <= hi):
            return False
        # outside the bottom arc, the semicircle on the diameter [lo, hi]
        center = (lo + hi) / 2
        r2 = ((hi - lo) / 2) ** 2
        t = (z.x - center) ** 2 + z.y2 - r2
        return t > 0 if strict else t >= 0


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


def reduce_point(p: int, z: HPoint, modular: bool = False) -> tuple[GroupElement, HPoint]:
    """Move z into the closed fundamental domain.

    Alternates integer translations of Re into [0,1) with applications of
    sphere elements whenever z is strictly inside a sphere.  The squared
    height strictly increases on every sphere step, which forces
    termination; boundary points are left in place.
    """
    g, z, _ = reduce_point_detailed(p, z, modular=modular)
    return g, z


def reduce_point_detailed(
    p: int, z: HPoint, modular: bool = False
) -> tuple[GroupElement, HPoint, int]:
    """reduce_point plus the number of sphere/translation rounds used."""
    spheres = _domain(_level(p, modular)).spheres
    g = identity()
    for step in range(_MAX_REDUCE_STEPS):
        n = z.x.numerator // z.x.denominator  # floor
        if n != 0:
            t = GroupElement(1, -n, 0, 1)
            g, z = t * g, t.apply_hpoint(z)
        inside = next((s.element for s in spheres if s.side(z) < 0), None)
        if inside is None:
            return g, z, step + 1
        g, z = inside * g, inside.apply_hpoint(z)
    raise ArithmeticError("reduction did not terminate; arithmetic precision failure?")


def locate_cell(
    p: int, z: HPoint, modular: bool = False
) -> tuple[GroupElement, int, bool]:
    """Find (g, k, boundary) with g^{-1} z in the closed triangle of cell k.

    boundary is True when z sits on a precell wall or sphere, in which
    case either adjacent cell may be reported.
    """
    g_red, w = reduce_point(p, z, modular=modular)
    dom = _domain(_level(p, modular))
    ks = dom.precell_indices(w)
    if not ks:
        raise AssertionError("reduced point escaped the closed domain")
    k = ks[0]
    # on a wall shared by two precells, on a side wall Re = 0 or 1, or on a sphere arc
    boundary = len(ks) > 1 or w.x == 0 or w.x == 1 or any(s.side(w) == 0 for s in dom.spheres)
    if not cell(p, k, modular=modular).contains(w):
        raise AssertionError("precell slice fell outside its cell triangle")
    return g_red.inv(), k, boundary


def domain_to_json(dom: FordDomain) -> dict:
    """Exact-string JSON description of the domain."""

    def pt(z: HPoint) -> dict:
        return {"x": emit_value(Rational(z.x)), "y2": emit_value(Rational(z.y2))}

    return {
        "schema": 1,
        "group": "modular" if dom.modular else f"gamma0({dom.p})",
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


def parse_matrix(text: str) -> GroupElement:
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise ValueError(f"unparseable matrix literal {text!r}")
    try:
        rows = json.loads(text)
        (a, b), (c, d) = rows
    except Exception as exc:
        raise ValueError(f"unparseable matrix literal {text!r}") from exc
    return GroupElement(int(a), int(b), int(c), int(d))
