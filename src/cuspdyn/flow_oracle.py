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

Exact crossing positions need products of the two endpoint values, so
the oracle requires both endpoints in a single real quadratic field
(rationals allowed); this covers every geodesic the conjugacy and
classification tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    EQUAL,
    INF,
    LESS,
    BoundaryValue,
    Infinity,
    Rational,
    Surd,
    compare,
    emit_value,
    floor_exact,
)
from .dynamics import BranchTable, cusp_witness, label_to_json, on_section
from .moebius import GroupElement, identity
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

    def is_vertical(self) -> bool:
        return isinstance(self.forward, Infinity) or isinstance(self.backward, Infinity)

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
    """The geodesic's point over Re = c, with squared height (c - y)(x - c)."""
    return CrossingPoint(c, (c - geod.backward) * (geod.forward - c))


@dataclass(frozen=True)
class SectionPoint:
    """A transversal crossing of the geodesic with a representative line."""

    geodesic: Geodesic
    line: Fraction
    direction: int  # +1 left-to-right, -1 right-to-left

    def __post_init__(self):
        x, y = self.geodesic.forward, self.geodesic.backward
        line = Rational(self.line)
        if self.direction == +1:
            ok = compare(y, line) == LESS and compare(line, x) == LESS
        elif self.direction == -1:
            ok = compare(x, line) == LESS and compare(line, y) == LESS
        else:
            raise ValueError(f"direction must be +1 or -1, got {self.direction!r}")
        if not ok:
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

    Returns (side endpoints, representative lines crossed before it);
    the side is None when the geodesic runs into a grid cusp first.
    """
    q = table.p
    j = sp.line * q
    if j.denominator != 1 or not _representative(table, j.numerator, sp.direction):
        raise ValueError(
            f"line {sp.line} in direction {sp.direction:+d} is not a representative crossing"
        )
    t = sp.geodesic.forward if forward else sp.geodesic.backward
    step = sp.direction if forward else -sp.direction
    qt = t * Rational(q)
    cell = floor_exact(qt)
    on_grid = isinstance(qt, Rational) and qt.denominator == 1
    # grid lines strictly between the start line and t, in scan order
    last = cell + 1 if step < 0 else cell - on_grid
    interiors = []
    for m in range(j.numerator + step, last + step, step):
        if not _representative(table, m, sp.direction):
            return (Rational(m, q), INF), interiors
        interiors.append(Rational(m, q))
    if on_grid:
        return None, interiors
    return (Rational(cell, q), Rational(cell + 1, q)), interiors


def _labels(table: BranchTable, ends: tuple[BoundaryValue, BoundaryValue]) -> list:
    """Every (g, base) with g.(line base) the geodesic between ends.

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
    out = []
    for e, o in (ends, ends[::-1]):
        if isinstance(e, Infinity):
            w = identity()
        else:
            orbit, w = cusp_witness(table.p, e)
            if orbit != "inf":
                continue
        r = w.apply_boundary(o)
        n = floor_exact(r)
        base = Fraction(r.numerator - n * r.denominator, r.denominator)
        if q % base.denominator == 0:
            out.append((w.inv() * GroupElement(1, n, 0, 1), base))
    return out


def _search(sp: SectionPoint, table: BranchTable, forward: bool) -> ReturnRecord | None:
    """The next (forward) or previous exterior crossing, identified and renormalized."""
    geod = sp.geodesic
    geod.field()  # validates exact single-field endpoints
    side, interiors = _walk(sp, table, forward)
    if side is None:
        return None
    x, y = geod.forward, geod.backward
    u, v = side
    pos = u if isinstance(v, Infinity) else (u * v - x * y) / ((u + v) - (x + y))
    for g, base in _labels(table, side):
        ginv = g.inv()
        xt, yt = ginv.apply_boundary(x), ginv.apply_boundary(y)
        direction = 1 if compare(yt, Rational(base)) == LESS else -1
        if _representative(table, int(base * table.p), direction):
            break
    else:
        raise AssertionError("the crossed side has no representative label")
    # the branch of the point before the crossing names the letter: a next
    # crossing lands on branch k's target line, a previous one sits on
    # h_k^{-1} . (representative line of branch k)
    if forward:
        rec = table.branch_at(x)
        ok = rec is not None and (rec.h, rec.target_line, rec.target_dir) == (g, base, direction)
    else:
        rec = table.branch_at(xt)
        ok = rec is not None and (rec.h, rec.rep_line, rec.rep_dir) == (ginv, base, direction)
    letter = rec.label if ok else None

    return ReturnRecord(
        letter=letter,
        translate=g,
        line=base,
        direction=direction,
        crossing=_crossing(geod, pos),
        renormalized=SectionPoint(Geodesic(forward=xt, backward=yt), base, direction),
        interior_first=bool(interiors),
        interior_crossings=tuple(_crossing(geod, c) for c in interiors),
    )


# --- first return / previous exterior ----------------------------------------


def first_return_geometric(sp: SectionPoint, table: BranchTable) -> ReturnRecord:
    """Next exterior crossing after sp, identified and renormalized.

    The walk passes the representative (interior) crossings that precede
    it; they are returned with the record.  sp must be a representative
    crossing: a line j/q crossed left to right, or the line 0 crossed
    right to left for Gamma_0(p).
    """
    if sp.geodesic.is_vertical():
        raise ValueError("first return needs a finite irrational forward endpoint")
    if isinstance(sp.geodesic.forward, Rational):
        raise ValueError("forward endpoint is a cusp point; no exterior return exists")
    return _search(sp, table, forward=True)


def previous_exterior_geometric(sp: SectionPoint, table: BranchTable) -> ReturnRecord | None:
    """Previous exterior crossing before sp, or None when none exists.

    None means the backward endpoint is a grid cusp reached through
    representative crossings only.
    """
    if sp.geodesic.is_vertical():
        raise ValueError("previous return needs finite endpoints")
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
    is_side = not (inf_future or inf_past) and bool(_labels(table, (geod.forward, geod.backward)))
    return {
        "intersects": not is_side,
        "inf_future": inf_future,
        "inf_past": inf_past,
        "confidence": "exact",
    }
