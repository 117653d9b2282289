"""Geometric first-return oracle for the cusp-expansion cross section.

The Gamma_0(p)-translates of the representative lines j/p (the line 0
for the modular preset) are exactly the sides of the cells
(k/q, (k+1)/q, inf) and of their translates, with q = p (q = 1 for the
modular preset): the Farey tessellation scaled by 1/q.  So a geodesic
leaving the grid line it starts on, towards its endpoint t, crosses the
grid lines m/q between the two and then leaves the strip through the
bottom arc (m/q, (m+1)/q) of the cell m = floor(q t); when t is itself
a grid point the geodesic runs into that cusp instead and crosses
nothing more.  The oracle walks this sequence with one exact floor and
reports the first crossing that is not a representative (interior) one.

The crossed side is labelled by solving g(inf) = e, g(base) = o for an
endpoint e in the cusp orbit of inf, then renormalized exactly by
g^{-1}.  The branch tables are not consulted for any of this: they only
supply the group and name the letter of the element found.

The walk runs on integer parts: the endpoint t is (a, b, c, d) for
(a + b*sqrt(d))/c, grid points and side ends are pairs (n, m) for n/m
with (1, 0) for inf.  The backward endpoint is one quadratic form
(exact._form), mapped by exact._form_image and placed against the
labelled line by dynamics._position, as in the coding loops.  Where the
geodesic meets a semicircle side is one quotient in Q(sqrt(d)) and each
crossing height one product over the parts (_crossing).  Each value the
record holds is made canonical once.

Crossing positions and heights multiply the two endpoints, so the oracle
requires both endpoints in a single real quadratic field (rationals
allowed; d is the radicand of whichever endpoint is a surd, and either
may be the rational one); this covers every geodesic the conjugacy and
classification tests use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    EQUAL,
    INF,
    BoundaryValue,
    Infinity,
    Rational,
    Surd,
    _coprime,
    _floor_root,
    _form,
    _form_image,
    _parts,
    _rational,
    _surd,
    compare,
    emit_value,
)
from .dynamics import BranchTable, _inf_witness, _position, label_to_json, on_section
from .moebius import GroupElement
from .tessellation import matrix_literal

__all__ = [
    "Geodesic",
    "SectionPoint",
    "CrossingPoint",
    "ReturnRecord",
    "classify",
    "first_return_geometric",
    "previous_exterior_geometric",
    "canonical_section_point",
]


def _field_of(x: BoundaryValue) -> int | None:
    if isinstance(x, Surd):
        return x.d
    if isinstance(x, Rational):
        return None
    raise ValueError(f"oracle geodesics need exact finite endpoints, got {emit_value(x)}")


@dataclass(frozen=True)
class Geodesic:
    """Oriented geodesic with backward endpoint y and forward endpoint x."""

    forward: BoundaryValue
    backward: BoundaryValue

    def __post_init__(self):
        if compare(self.forward, self.backward) == EQUAL:
            raise ValueError("geodesic endpoints must be distinct")

    def field(self) -> int | None:
        dx = _field_of(self.forward)
        dy = _field_of(self.backward)
        if dx is not None and dy is not None and dx != dy:
            raise ValueError(
                "oracle needs both endpoints in one quadratic field "
                f"(got sqrt({dx}) and sqrt({dy}))"
            )
        return dx if dx is not None else dy

    def to_json(self) -> dict:
        return {"forward": emit_value(self.forward), "backward": emit_value(self.backward)}


@dataclass(frozen=True)
class CrossingPoint:
    re: BoundaryValue
    height2: BoundaryValue

    def to_json(self) -> dict:
        return {"re": emit_value(self.re), "height2": emit_value(self.height2)}


def _crossing(geod: Geodesic, c: BoundaryValue) -> CrossingPoint:
    """The geodesic's point over Re = c, with squared height (c - y)(x - c).

    With x = (xa + xb*sqrt(d))/xc, y = (ya + yb*sqrt(d))/yc and c = (ca +
    cb*sqrt(d))/e in the geodesic's field, c - y = (P + Q*sqrt(d))/(e*yc)
    and x - c = (R + S*sqrt(d))/(xc*e), so the squared height is (PR + QSd
    + (PS + QR)*sqrt(d))/(e^2*xc*yc), made canonical once.
    """
    d = geod.field() or 0
    xa, xb, xc, _ = _parts(geod.forward)
    ya, yb, yc, _ = _parts(geod.backward)
    ca, cb, e, _ = _parts(c)
    P, Q = ca * yc - ya * e, cb * yc - yb * e
    R, S = xa * e - ca * xc, xb * e - cb * xc
    return CrossingPoint(c, _surd(P * R + Q * S * d, P * S + Q * R, e * e * xc * yc, d))


@dataclass(frozen=True)
class SectionPoint:
    """A transversal crossing of the geodesic with a representative line."""

    geodesic: Geodesic
    line: Fraction
    direction: int  # +1 left-to-right, -1 right-to-left

    def __post_init__(self):
        x, y = self.geodesic.forward, self.geodesic.backward
        line = _coprime(self.line.numerator, self.line.denominator)
        if self.direction not in (+1, -1):
            raise ValueError(f"direction must be +1 or -1, got {self.direction!r}")
        # the geodesic runs from y to x, so y lies behind the line and x ahead of it
        if not compare(y, line) == -self.direction == -compare(x, line):
            raise ValueError("geodesic does not cross the line transversally in that direction")

    def crossing(self) -> CrossingPoint:
        return _crossing(self.geodesic, Rational(self.line))

    def to_json(self) -> dict:
        return {
            "geodesic": self.geodesic.to_json(),
            "line": f"{self.line.numerator}/{self.line.denominator}",
            "direction": self.direction,
            "crossing": self.crossing().to_json(),
        }


# --- return records ------------------------------------------------------------


@dataclass(frozen=True)
class ReturnRecord:
    letter: object
    translate: GroupElement
    line: Fraction
    direction: int
    crossing: CrossingPoint
    renormalized: SectionPoint
    interior_first: bool
    interior_crossings: tuple[CrossingPoint, ...]

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "letter": label_to_json(self.letter) if self.letter is not None else None,
            "translate": matrix_literal(self.translate),
            "line": f"{self.line.numerator}/{self.line.denominator}",
            "direction": self.direction,
            "crossing": self.crossing.to_json(),
            "renormalized": self.renormalized.to_json(),
            "interior_first": self.interior_first,
            "interior_crossings": [c.to_json() for c in self.interior_crossings],
        }


def canonical_section_point(table: BranchTable, x: BoundaryValue, y: BoundaryValue) -> SectionPoint:
    """The representative crossing used by the reduced section for (x, y)."""
    rec = table.branch_of(x)
    if not on_section(rec, y):
        raise ValueError("(x, y) is not on the reduced cross section")
    return SectionPoint(Geodesic(forward=x, backward=y), rec.rep_line, rec.rep_dir)


# --- the cell walk -------------------------------------------------------------


def _representative(table: BranchTable, m: int, direction: int) -> bool:
    """Whether crossing the grid line m/q in this direction is a representative crossing."""
    return 0 <= m < table.p and (direction == +1 or (table.p > 1 and m == 0))


def _walk(sp: SectionPoint, table: BranchTable, forward: bool):
    """First non-representative side crossed after sp, towards x or back towards y.

    Returns (side endpoints, representative lines crossed before it), all
    integer pairs (n, m) for n/m with (1, 0) for inf; the side is None
    when the geodesic runs into a grid cusp first.  With t = (a +
    b*sqrt(d))/c, q*t lies in the cell floor(q*t), and on the grid
    exactly when b = 0 and c divides q*a.
    """
    q = table.p
    j, off = divmod(sp.line.numerator * q, sp.line.denominator)
    if off or not _representative(table, j, sp.direction):
        raise ValueError(
            f"line {sp.line} in direction {sp.direction:+d} is not a representative crossing"
        )
    a, b, c, d = _parts(sp.geodesic.forward if forward else sp.geodesic.backward)
    step = sp.direction if forward else -sp.direction
    cell = _floor_root(q * a, q * b, c, d)
    on_grid = b == 0 and q * a % c == 0
    # grid lines strictly between the start line and t, in scan order
    last = cell + 1 if step < 0 else cell - on_grid
    interiors = []
    for m in range(j + step, last + step, step):
        if not _representative(table, m, sp.direction):
            return ((m, q), (1, 0)), interiors
        interiors.append((m, q))
    if on_grid:
        return None, interiors
    return ((cell, q), (cell + 1, q)), interiors


def _labels(table: BranchTable, ends: tuple[tuple[int, int], tuple[int, int]]) -> list:
    """Every (g, j) with g.(line j/q) the geodesic between the ends, pairs (n, m)
    for n/m with (1, 0) for inf; g is a determinant-one integer 4-tuple.

    For an end e in the cusp orbit of inf, the elements sending inf to e
    are w^{-1} T^n with w(e) = inf; the other end o = w^{-1}(r) then
    fixes n = floor(r) and base = r - n, which must lie on the grid.
    There are at most two labels, one per end, and a geodesic crosses
    them in opposite directions.  At most one of them is a representative
    crossing: a leftward one must sit on the line 0, whose end 0 is not
    in the cusp orbit of inf for Gamma_0(p), and the modular preset has
    no leftward representative at all.
    """
    q = table.p
    ends = [(n // math.gcd(n, m), m // math.gcd(n, m)) for n, m in ends]
    out = []
    for (en, em), (on, om) in (ends, ends[::-1]):
        if em == 0:
            w = (1, 0, 0, 1)
        elif em % q == 0:
            w = _inf_witness(en, em)
        else:  # e is in the cusp orbit of 0
            continue
        A, B, C, D = w
        rn, rd = A * on + B * om, C * on + D * om  # r = rn/rd, with rd of either sign
        n = rn // rd
        if q % rd == 0:
            out.append(((D, D * n - B, -C, A - C * n), (rn - n * rd) * (q // rd)))
    return out


def _search(sp: SectionPoint, table: BranchTable, forward: bool) -> ReturnRecord | None:
    """The next (forward) or previous exterior crossing, identified and renormalized."""
    geod = sp.geodesic
    d = geod.field() or 0  # validates exact single-field endpoints
    side, interiors = _walk(sp, table, forward)
    if side is None:
        return None
    q = table.p
    x = geod.forward
    xa, xb, xc, _ = _parts(x)
    ya, yb, yc, _ = _parts(geod.backward)
    P, Q, N, s = _form(ya, yb, yc, d)
    for g, j in _labels(table, side):
        A, B, C, D = g
        P1, Q1, _ = _form_image((D, -B, -C, A), P, Q, N)
        # g^-1 y lies below the line j/q (position 0), so it is crossed rightward,
        # or above it (position 2); it is never on the line
        direction = 1 - _position(((j, q),), 0, 1, P1, Q1, s * s * d)
        if _representative(table, j, direction):
            break
    else:
        raise AssertionError("the crossed side has no representative label")
    g = GroupElement(*g)
    ginv = g.inv()
    base = Fraction(j, q)
    xt, yt = ginv.apply_boundary(x), _surd(P1, s, Q1, d)
    # the side's grid point when it is a vertical line, else where the two circles
    # meet: (uv - xy)/((u + v) - (x + y)) for the side ends u and v, which over the
    # common denominator um*vm*xc*yc is (N0 + N1*sqrt(d))/(D0 + D1*sqrt(d))
    (un, um), (vn, vm) = side
    if vm == 0:
        pos = _rational(un, um)
    else:
        M, K = um * vm, xc * yc
        N0, N1 = un * vn * K - M * (xa * ya + xb * yb * d), -M * (xa * yb + xb * ya)
        D0, D1 = (un * vm + vn * um) * K - M * (xa * yc + ya * xc), -M * (xb * yc + yb * xc)
        norm = D0 * D0 - D1 * D1 * d
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        pos = _surd(N0 * D0 - N1 * D1 * d, N1 * D0 - N0 * D1, norm, d)
    # the branch of the point before the crossing names the letter: a next
    # crossing lands on branch k's target line, a previous one sits on
    # h_k^{-1} . (representative line of branch k)
    if forward:
        rec = table.branch_at(x)
        ok = rec is not None and (rec.h, rec.target) == (g, (_rational(j, q), direction))
    else:
        rec = table.branch_at(xt)
        ok = rec is not None and (rec.h, rec.rep_line, rec.rep_dir) == (ginv, base, direction)

    return ReturnRecord(
        letter=rec.label if ok else None,
        translate=g,
        line=base,
        direction=direction,
        crossing=_crossing(geod, pos),
        renormalized=SectionPoint(Geodesic(forward=xt, backward=yt), base, direction),
        interior_first=bool(interiors),
        interior_crossings=tuple(_crossing(geod, _rational(*e)) for e in interiors),
    )


# --- first return / previous exterior ----------------------------------------


def first_return_geometric(sp: SectionPoint, table: BranchTable) -> ReturnRecord:
    """Next exterior crossing after sp, identified and renormalized.

    The walk passes the representative (interior) crossings that precede
    it; they are returned with the record.  sp must be a representative
    crossing: a line j/q crossed left to right, or the line 0 crossed
    right to left for Gamma_0(p).
    """
    if isinstance(sp.geodesic.forward, Rational):
        raise ValueError("forward endpoint is a cusp point; no exterior return exists")
    return _search(sp, table, forward=True)


def previous_exterior_geometric(sp: SectionPoint, table: BranchTable) -> ReturnRecord | None:
    """Previous exterior crossing before sp, or None when none exists.

    None means the backward endpoint is a grid cusp reached through
    representative crossings only.
    """
    return _search(sp, table, forward=False)


# --- classification -----------------------------------------------------------


def classify(geod: Geodesic, table: BranchTable) -> dict:
    """Which intersections the geodesic has with the cross section.

    intersects is False exactly when the geodesic is a side of the
    tessellation, i.e. a translate of a representative line; a geodesic
    with an irrational endpoint always intersects.
    """

    def infinitely_often(e: BoundaryValue) -> bool:
        return not (isinstance(e, Rational) or isinstance(e, Infinity))

    inf_future = infinitely_often(geod.forward)
    inf_past = infinitely_often(geod.backward)
    is_side = False
    if not (inf_future or inf_past):  # both ends rational or inf
        ends = [(1, 0) if e is INF else (e.numerator, e.denominator) for e in (geod.forward, geod.backward)]
        is_side = bool(_labels(table, ends))
    return {
        "intersects": not is_side,
        "inf_future": inf_future,
        "inf_past": inf_past,
        "confidence": "exact",
    }
