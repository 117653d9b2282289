"""Ford fundamental domain of Gamma_0(p) and its precell/cell combinatorics.

The fundamental domain is the strip 0 < Re z < 1 above the p-1 isometric
spheres |pz - q| = 1.  Precells are its vertical slices between the wall
lines k/p; cells are ideal triangles (k/p, (k+1)/p, inf) assembled from
group translates of precells.  Everything here is exact: vertices carry
rational x and rational squared height, and cell-side identities are
verified by endpoint equality, not numerically.
"""

from __future__ import annotations

import json
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
    l = (-pow(k, -1, p)) % p
    return GroupElement(l, -(1 + k * l) // p, p, -k)


@dataclass(frozen=True)
class FordDomain:
    """Ford domain data for Gamma_0(p): spheres, vertices and sphere maxima."""

    p: int
    spheres: tuple[IsometricSphere, ...]
    # vertices: v_0 = 0 and v_{p-1} = 1 are boundary points (y2 = 0 is not an
    # HPoint, so they are stored as rationals); inner vertices are HPoints.
    vertex_0: Fraction
    vertex_last: Fraction
    inner_vertices: tuple[HPoint, ...]
    maxima: tuple[HPoint, ...]
    modular: bool = False

    def in_closure(self, z: HPoint) -> bool:
        """Exact membership of z in the closed fundamental domain."""
        if self.modular:
            if not (0 <= z.x <= 1):
                return False
            return (z.x**2 + z.y2 >= 1) and ((z.x - 1) ** 2 + z.y2 >= 1)
        if not (0 <= z.x <= 1):
            return False
        return all(s.side(z) >= 0 for s in self.spheres)

    def precell_indices(self, z: HPoint) -> list[int]:
        """Indices k with z in the closed precell A(v_k); empty if outside."""
        if not self.in_closure(z):
            return []
        if self.modular:
            return [0]
        p = self.p
        out = []
        for k in range(p):
            if Fraction(k, p) <= z.x <= Fraction(k + 1, p):
                out.append(k)
        return out


def build_domain(p: int) -> FordDomain:
    _require_prime(p)
    spheres = tuple(IsometricSphere(g_pair(p, q)) for q in range(1, p))
    inner = tuple(
        HPoint(Fraction(2 * k + 1, 2 * p), Fraction(3, 4 * p * p)) for k in range(1, p - 1)
    )
    maxima = tuple(HPoint(Fraction(q, p), Fraction(1, p * p)) for q in range(1, p))
    return FordDomain(
        p=p,
        spheres=spheres,
        vertex_0=Fraction(0),
        vertex_last=Fraction(1),
        inner_vertices=inner,
        maxima=maxima,
    )


def modular_domain() -> FordDomain:
    """PSL(2,Z) preset: one precell (the closed domain), one cell (0,1,inf)."""
    s1 = IsometricSphere(GroupElement(0, -1, 1, 0))        # |z| = 1
    s2 = IsometricSphere(GroupElement(1, -1, 1, 0))        # |z-1| = 1
    vertex = HPoint(Fraction(1, 2), Fraction(3, 4))
    return FordDomain(
        p=1,
        spheres=(s1, s2),
        vertex_0=Fraction(0),
        vertex_last=Fraction(1),
        inner_vertices=(vertex,),
        maxima=(),
        modular=True,
    )


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
    if modular:
        if k != 0:
            raise ValueError("the modular preset has a single cell, index 0")
        return Cell(1, 0, Fraction(0), Fraction(1), ((identity(), 0),))
    _require_prime(p)
    if not 0 <= k <= p - 1:
        raise ValueError(f"cell index k = {k} out of range 0..{p - 1}")
    if k == 0:
        decomp = ((identity(), 0), (g_pair(p, p - 1), p - 1))
    elif k == p - 1:
        decomp = ((identity(), p - 1), (g_pair(p, 1), 0))
    else:
        a = (-pow(k + 1, -1, p)) % p
        b = (-pow(k, -1, p) - 1) % p
        decomp = ((identity(), k), (g_pair(p, a), a), (g_pair(p, b + 1), b))
    return Cell(p, k, Fraction(k, p), Fraction(k + 1, p), decomp)


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
    if modular:
        return _reduce_modular(z)
    _require_prime(p)
    g = identity()
    for step in range(_MAX_REDUCE_STEPS):
        n = z.x.numerator // z.x.denominator  # floor
        if n != 0:
            t = GroupElement(1, -n, 0, 1)
            g, z = t * g, t.apply_hpoint(z)
        q_inside = None
        for q in range(1, p):
            if (p * z.x - q) ** 2 + p * p * z.y2 < 1:
                q_inside = q
                break
        if q_inside is None:
            return g, z, step + 1
        s = g_pair(p, q_inside)
        g, z = s * g, s.apply_hpoint(z)
    raise ArithmeticError("reduction did not terminate; arithmetic precision failure?")


def _reduce_modular(z: HPoint) -> tuple[GroupElement, HPoint, int]:
    inv = GroupElement(0, -1, 1, 0)
    shift = GroupElement(1, -1, 0, 1)
    g = identity()
    for step in range(_MAX_REDUCE_STEPS):
        n = z.x.numerator // z.x.denominator
        if n != 0:
            t = GroupElement(1, -n, 0, 1)
            g, z = t * g, t.apply_hpoint(z)
        if z.x**2 + z.y2 < 1:
            g, z = inv * g, inv.apply_hpoint(z)
        elif (z.x - 1) ** 2 + z.y2 < 1:
            s = shift.inv() * inv * shift  # inversion in |z-1| = 1
            g, z = s * g, s.apply_hpoint(z)
        else:
            return g, z, step + 1
    raise ArithmeticError("reduction did not terminate; arithmetic precision failure?")


def locate_cell(
    p: int, z: HPoint, modular: bool = False
) -> tuple[GroupElement, int, bool]:
    """Find (g, k, boundary) with g^{-1} z in the closed triangle of cell k.

    boundary is True when z sits on a precell wall or sphere, in which
    case either adjacent cell may be reported.
    """
    g_red, w = reduce_point(p, z, modular=modular)
    dom = modular_domain() if modular else build_domain(p)
    ks = dom.precell_indices(w)
    if not ks:
        raise AssertionError("reduced point escaped the closed domain")
    k = ks[0]
    # on a wall shared by two precells, on a side wall Re = 0 or 1, or on a sphere arc
    boundary = len(ks) > 1 or w.x == 0 or w.x == 1
    if not boundary and modular:
        boundary = w.x**2 + w.y2 == 1 or (w.x - 1) ** 2 + w.y2 == 1
    elif not boundary:
        boundary = any(s.side(w) == 0 for s in dom.spheres)
    g = g_red.inv()
    c = cell(p, k, modular=modular)
    if not c.contains(w):
        raise AssertionError("precell slice fell outside its cell triangle")
    return g, k, boundary


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
