"""Branch tables and symbolic dynamics of the cusp-expansion section map.

For Gamma_0(p) the generating map F acts on R minus the cusp orbit
(which is exactly Q) through finitely many inverse branches h_k, one per
letter of the alphabet {-inf, -1, 0, ..., p}.  The modular preset is the
two-branch system x -> x/(1-x) on (0,1), x -> x-1 on (1,inf), whose
run-length acceleration is the ordinary continued fraction algorithm.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat

from .exact import (
    EQUAL,
    INF,
    Approx,
    BoundaryValue,
    Infinity,
    PrecisionExhausted,
    Rational,
    _approx,
    _form,
    _form_image,
    _parts,
    _point,
    _surd,
    compare,
    emit_value,
)
from .moebius import GroupElement
from .tessellation import _require_prime, cell, group_name, matrix_literal

__all__ = [
    "NEG_INF_LABEL",
    "Interval",
    "BranchRecord",
    "BranchTable",
    "CodingSequence",
    "Termination",
    "CuspPointError",
    "PrecisionExhausted",
    "OutsideDomainError",
    "branch_table",
    "modular_table",
    "apply_F",
    "code_future",
    "code_two_sided",
    "on_section",
    "accelerate_to_cf",
    "cusp_witness",
]

NEG_INF_LABEL = float("-inf")


class CuspPointError(ValueError):
    """Raised when the map is evaluated on the cusp orbit."""

    def __init__(self, value: BoundaryValue, orbit: str, witness: GroupElement | None):
        self.value = value
        self.orbit = orbit
        self.witness = witness
        super().__init__(f"cusp point {emit_value(value)} (orbit of {orbit})")


class OutsideDomainError(ValueError):
    """Value outside the union of branch intervals (modular preset, x <= 0)."""


@dataclass(frozen=True)
class Interval:
    """Open interval; a None endpoint means unbounded on that side."""

    lo: BoundaryValue | None
    hi: BoundaryValue | None

    def contains(self, x: BoundaryValue) -> bool:
        if isinstance(x, Infinity):
            return False
        if self.lo is not None and compare(x, self.lo) != 1:
            return False
        if self.hi is not None and compare(x, self.hi) != -1:
            return False
        return True

    def to_json(self) -> dict:
        return {
            "lo": None if self.lo is None else emit_value(self.lo),
            "hi": None if self.hi is None else emit_value(self.hi),
        }


@dataclass(frozen=True)
class BranchRecord:
    """One letter of the alphabet with its interval, element and geometry."""

    label: float | int
    interval: Interval
    y_interval: Interval
    h: GroupElement
    image: Interval
    rep_line: Fraction
    rep_dir: int
    h_inv: GroupElement = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "h_inv", self.h.inv())

    @property
    def target(self) -> tuple[Rational, int]:
        """The representative vertical line the renormalized section point
        lands on after this letter, and the direction it is crossed in: +1
        left to right, -1 right to left (only ever on the line at 0).

        h^{-1} sends one end of the interval to inf, so the image has one
        finite end: the line, crossed left to right when it is the lower end.
        """
        lo = self.image.lo
        return (self.image.hi, -1) if lo is None else (lo, +1)

    def apply(self, x: BoundaryValue) -> BoundaryValue:
        """F on this branch: the inverse element applied to x."""
        return self.h_inv.apply_boundary(x)

    def to_json(self) -> dict:
        return {
            "label": label_to_json(self.label),
            "interval": self.interval.to_json(),
            "y_interval": self.y_interval.to_json(),
            "h": matrix_literal(self.h),
            "image": self.image.to_json(),
        }


def label_to_json(label) -> str | int:
    return "-inf" if label == NEG_INF_LABEL else int(label)


def _parabolic_run(rec: BranchRecord) -> tuple[tuple, tuple] | None:
    """(M, N) when F = h^{-1} is parabolic and fixes an end f of the interval; else None.

    That is exactly when a parabolic branch follows itself: F(I) shares f
    with I, and a Markov image meeting I holds it; conversely h maps I into
    itself, so its one fixed point lies in the closure, and inside it would
    push one end outward.  With F taken at trace 2 and N = F - I, N^2 = 0,
    so F^n = I + nN and F fixes the ends N annihilates.  M is the Moebius
    map sending the other end e to 0, f to inf and h(e) to 1, so it
    conjugates F to x -> x - 1 and maps I onto (0, inf): the letter repeats
    exactly ceil(M x) times from x, and the run ends at (I + nN) x.  Points
    are integer pairs (v1, v2) for v1/v2, with (1, 0) for an unbounded end.
    """
    g, h = rec.h_inv, rec.h
    if abs(g.a + g.d) != 2:
        return None
    s = (g.a + g.d) // 2
    N = (s * g.a - 1, s * g.b, s * g.c, s * g.d - 1)
    ends = [(1, 0) if v is None else (v.numerator, v.denominator) for v in (rec.interval.lo, rec.interval.hi)]
    fixed = [N[0] * u + N[1] * v == 0 == N[2] * u + N[3] * v for u, v in ends]
    if not any(fixed):
        return None
    f, e = ends if fixed[0] else ends[::-1]
    y = (h.a * e[0] + h.b * e[1], h.c * e[0] + h.d * e[1])
    det = lambda u, v: u[0] * v[1] - u[1] * v[0]
    fy, ey = det(f, y), det(e, y)
    return (-e[1] * fy, e[0] * fy, -f[1] * ey, f[0] * ey), N


def _record(label, lo, hi, y_lo, y_hi, h, rep_line, rep_dir) -> BranchRecord:
    """The record of a branch whose image is that of (lo, hi) under h^{-1} (monotone increasing)."""
    hinv = h.inv()
    ends = [hinv.apply_boundary(INF if e is None else e) for e in (lo, hi)]
    return BranchRecord(
        label=label,
        interval=Interval(lo, hi),
        y_interval=Interval(y_lo, y_hi),
        h=h,
        image=Interval(*(None if isinstance(e, Infinity) else e for e in ends)),
        rep_line=Fraction(rep_line),
        rep_dir=rep_dir,
    )


def _position(pairs: tuple, lo: int, hi: int, P: int, Q: int, D: int) -> int:
    """Position of x = (P + sqrt(D))/Q among the cuts n/m, known to lie above the
    cuts before pairs[lo] and below those from pairs[hi], by bisection of
    pairs[lo:hi]; D is 0 or not a square.  x - n/m = (A + m*sqrt(D))/(m*Q)
    with A = m*P - n*Q, and A + m*sqrt(D) has the sign of A when A > 0, of
    D when A = 0, and of m^2 D - A^2 when A < 0: one squaring, no root."""
    while lo < hi:
        mid = (lo + hi) // 2
        n, m = pairs[mid]
        s = m * P - n * Q
        if s < 0:
            s = m * m * D - s * s
        elif not s:
            s = D
        if Q < 0:
            s = -s
        if s < 0:
            hi = mid
        elif s > 0:
            lo = mid + 1
        else:
            return 2 * mid + 1
    return 2 * lo


def _cut_point(x: BoundaryValue) -> tuple[int, int, int]:
    """(P, Q, D) with x = (P + sqrt(D))/Q, all that _position reads, for an exact x
    with parts (a, b, c, d): (a, c, b^2 d), signs turned when b < 0.  inf is
    (1, 0, 0), which the cut rule places above every cut."""
    a, b, c, d = _point(x)
    return (-a, -c, b * b * d) if b < 0 else (a, c, b * b * d)


def _run_roots(dets: tuple, D: int) -> dict:
    """2*isqrt(m*m*D) + 1 for each m in dets, the |det M| of the runs, or 0 for a
    rational (D = 0): all that _run_length needs to know of sqrt(D)."""
    roots = dict.fromkeys(dets, 0)
    if D:
        for m in dets:  # a loop: a comprehension would cost more than the isqrt
            roots[m] = 2 * math.isqrt(m * m * D) + 1
    return roots


def _run_length(M: tuple, P: int, Q: int, N: int, v: int) -> int:
    """ceil(M x) for x = (P + sqrt(D))/Q and an integer M of determinant delta,
    given v = 2*isqrt(delta^2 D) + 1 with the sign of delta (0 for D = 0; see
    _run_roots).

    The form action of M (exact._form_image) gives M x = (u + delta*sqrt(D))/w,
    as for determinant one but with the root scaled by delta.  For w > 0,
    ceil(M x) = ceil((u + e)/w) with e = (v + 1) >> 1: r + 1 for a root term
    between r and r + 1, -r for one between -r - 1 and -r, and 0 for a
    rational.  For w < 0 the root term of (-u - delta*sqrt(D))/(-w) flips
    its sign, and e = (1 - v) >> 1.
    """
    A, B, C, D = M
    x, y = Q * D + P * C, P * D - N * C
    u, w = B * x + A * y, D * x + C * y
    return -((-u - ((v + 1) >> 1)) // w) if w > 0 else -((u - ((1 - v) >> 1)) // -w)


def _arc(rec: BranchRecord, A: int, B: int, C: int, D: int) -> tuple[tuple, tuple]:
    """The ends of rec's section mapped by (A, B, C, D), in increasing order, as pairs
    (n, m), m >= 0, inf (1, 0); inf maps to (A, C), canonical for a GroupElement."""
    n, m = rec.rep_line.numerator, rec.rep_line.denominator
    u, v = A * n + B * m, C * n + D * m
    end = (u, v) if (v, u) > (0, 0) else (-u, -v)
    return ((A, C), end) if rec.rep_dir == 1 else (end, (A, C))


def _span(lo: int, hi: int) -> tuple[int, int]:
    """First and last position of an Approx with ends at positions lo <= hi: ends
    apart span the cuts from the first at or above lo to the last at or below hi."""
    return (lo, hi) if lo == hi else (lo | 1, hi - 1 + hi % 2)


@dataclass(frozen=True)
class BranchTable:
    """Branches of the section map of Gamma_0(p); p = 1 is the modular preset.

    The consecutive branch intervals partition the line at their finite
    ends, the cuts, increasing rationals; _pairs holds them as (n, m).
    Position 2i is the gap just below cuts[i] and 2i + 1 is cuts[i]; _at
    holds the branch index at each position (None on the cuts and in empty
    gaps), and _images the positions of the ends of each branch image (-1
    and len(_at) when unbounded).  _runs maps the label of each parabolic
    branch that follows itself to its (M, N), read off each branch alone
    by _parabolic_run: code_future takes the runs of these letters in one
    step, reading a row (record, key of h^{-1}, run or None, lo, hi) of
    _steps, where a run is (M, N, det M).  F maps the interval onto the
    open image, so the next state lies strictly inside it, beyond the cuts
    before pairs[lo] and below those from pairs[hi]: the next lookup
    bisects only pairs[lo:hi].  _dets holds the distinct |det M| of the
    runs, the multipliers m whose isqrt(m*m*D) a coding over discriminant
    D takes once.  _arcs holds the ends of each branch k's arc F_k(section_k),
    and _pasts caches the past partition of each branch (_past).
    """

    p: int
    branches: tuple[BranchRecord, ...]
    _by_label: dict = field(init=False, repr=False, compare=False)
    _cuts: tuple = field(init=False, repr=False, compare=False)
    _pairs: tuple = field(init=False, repr=False, compare=False)
    _at: tuple = field(init=False, repr=False, compare=False)
    _images: tuple = field(init=False, repr=False, compare=False)
    _arcs: tuple = field(init=False, repr=False, compare=False)
    _pasts: dict = field(init=False, repr=False, compare=False)
    _runs: dict = field(init=False, repr=False, compare=False)
    _steps: tuple = field(init=False, repr=False, compare=False)
    _dets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ivs = [rec.interval for rec in self.branches]
        if any(a.hi is None or b.lo is None or compare(a.hi, b.lo) != EQUAL for a, b in zip(ivs, ivs[1:])):
            raise ValueError("branch intervals must be consecutive")
        below = [ivs[0].lo] if ivs[0].lo is not None else []
        above = [ivs[-1].hi] if ivs[-1].hi is not None else []
        cuts = below + [iv.hi for iv in ivs[:-1]] + above
        pairs = tuple((c.numerator, c.denominator) for c in cuts)
        if any(n * m2 >= n2 * m for (n, m), (n2, m2) in zip(pairs, pairs[1:])):
            raise ValueError("branch intervals must be nonempty")
        at = [None] * (2 * len(cuts) + 1)
        at[::2] = [None] * len(below) + list(range(len(ivs))) + [None] * len(above)
        object.__setattr__(self, "_cuts", tuple(cuts))
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_at", tuple(at))
        # the image ends of a Markov table are cuts, looked up by value; _locate places
        # any other end
        at_cut = {c: 2 * i + 1 for i, c in enumerate(cuts)}
        end = lambda e, unbounded: unbounded if e is None else at_cut.get(e) or self._locate(e)[0]
        images = tuple((end(r.image.lo, -1), end(r.image.hi, len(at))) for r in self.branches)
        object.__setattr__(self, "_images", images)
        object.__setattr__(self, "_arcs", tuple(_arc(rec, *rec.h_inv.key()) for rec in self.branches))
        object.__setattr__(self, "_pasts", {})
        object.__setattr__(self, "_by_label", {rec.label: rec for rec in self.branches})
        runs = {rec.label: run for rec in self.branches if (run := _parabolic_run(rec))}
        object.__setattr__(self, "_runs", runs)
        det = lambda M: M[0] * M[3] - M[1] * M[2]
        object.__setattr__(self, "_dets", tuple(sorted({abs(det(M)) for M, _ in runs.values()})))
        # an image end at position e: the cuts strictly above it start at (e + 1) // 2,
        # and those strictly below it end before e // 2
        run_of = lambda label: None if label not in runs else (*runs[label], det(runs[label][0]))
        steps = tuple((rec, rec.h_inv.key(), run_of(rec.label), (lo + 1) // 2, hi // 2)
                      for rec, (lo, hi) in zip(self.branches, images))
        object.__setattr__(self, "_steps", steps)

    def branch(self, label) -> BranchRecord:
        return self._by_label[label]

    @property
    def name(self) -> str:
        """The table as JSON output names it: modular or gamma0(p)."""
        return group_name(self.p)

    @property
    def labels(self) -> list:
        return [rec.label for rec in self.branches]

    def _locate(self, x: BoundaryValue) -> tuple[int, int]:
        """First and last position of x, inf in the last gap; they differ only for
        an Approx within its error of a cut."""
        if isinstance(x, Approx):
            return _span(self._place(x.lo), self._place(x.hi))
        i = self._place(x)
        return i, i

    def _place(self, x: BoundaryValue) -> int:
        """The position of an exact x among all the cuts."""
        return _position(self._pairs, 0, len(self._pairs), *_cut_point(x))

    def branch_at(self, x: BoundaryValue) -> BranchRecord | None:
        """The branch whose open interval contains x, or None."""
        k = None if isinstance(x, Infinity) else self._at[self._locate(x)[0]]
        return None if k is None else self.branches[k]

    def branch_of(self, x: BoundaryValue) -> BranchRecord:
        """The unique branch whose open interval contains x.

        Raises CuspPointError on the cusp orbit (any rational for the
        Gamma_0(p) tables; the interval endpoints and non-positive
        rationals for the modular preset), PrecisionExhausted when an
        Approx value cannot be placed reliably.
        """
        return self._branch_in(x, self._locate(x)[0])

    def _branch_in(self, x: BoundaryValue, pos: int) -> BranchRecord:
        """branch_of(x) for x at the first position pos that _locate gives it."""
        if isinstance(x, Infinity):
            raise CuspPointError(x, "inf", None)
        if isinstance(x, Rational) and self.p > 1:
            raise CuspPointError(x, *cusp_witness(self.p, x))
        if self._at[pos] is not None:
            return self.branches[self._at[pos]]
        if isinstance(x, Rational):  # the slow map runs on rationals until a branch endpoint
            raise CuspPointError(x, *cusp_witness(self.p, x))
        if not isinstance(x, Approx):
            raise OutsideDomainError(f"{emit_value(x)} is outside the table domain")
        if pos % 2:
            raise PrecisionExhausted(
                f"approx value {x.value!r} within error {x.err!r} of endpoint "
                f"{emit_value(self._cuts[pos // 2])}"
            )
        raise OutsideDomainError(f"approx value {x.value!r} is outside the table domain")

    def inverse_branches(self, x: BoundaryValue) -> list[BranchRecord]:
        """The branches whose open image contains x: the terms of the transfer operator at x."""
        if isinstance(x, Infinity):
            return []
        first, last = self._locate(x)
        if any(first <= e <= last for ends in self._images for e in ends):
            raise ValueError(
                "evaluation point sits on an image-interval boundary; "
                "the characteristic function is undefined there"
            )
        return [rec for rec, (lo, hi) in zip(self.branches, self._images) if lo < first and last < hi]

    def _past(self, j: int) -> tuple[tuple, tuple]:
        """The past partition over branch j, (cuts, at) in the format of (_pairs, _at):
        at gives, by y's position, the branch k that takes (x, y) on the section over j.

        Only a k whose image holds j's gap can take it, and k takes exactly the y
        in its arc F_k(section_k) (_arcs), section_k being the open half-line
        beyond rep_line_k opposite rep_dir_k, with inf as one end.  Chained end
        to start, the arcs must tile section_j in increasing order, or
        AssertionError.  Built on first use, as a table that is not Markov need
        not tile.
        """
        if j in self._pasts:
            return self._pasts[j]
        gap, arcs, rec = self._at.index(j), self._arcs, self.branches[j]
        covering = [k for k, (lo, hi) in enumerate(self._images) if lo < gap < hi]
        chain = {arcs[k][0]: k for k in covering}
        start, stop = _arc(rec, 1, 0, 0, 1)
        point, ks = start, []
        while point != stop and point in chain:
            ks.append(chain.pop(point))
            point = arcs[ks[-1]][1]
        cuts = tuple(c for c in [start] + [arcs[k][1] for k in ks] if c[1])
        # a chain that wraps through inf shows as a cut below its predecessor: an inf
        # inside it would start a second arc at start (left over) or end it at stop
        if (point != stop or len(ks) < len(covering)
                or any(n * m2 >= n2 * m for (n, m), (n2, m2) in zip(cuts, cuts[1:]))):
            raise AssertionError(f"the past arcs over branch {j} do not tile its section")
        at = [None] * (2 * len(cuts) + 1)
        at[1 - rec.rep_dir : len(at) - rec.rep_dir : 2] = ks  # from the gap above rep_line_j for -1
        self._pasts[j] = cuts, tuple(at)
        return self._pasts[j]

    def follows(self, k: int) -> tuple[int, ...]:
        """The Markov transitions: indices of the branches whose interval lies in branch k's image."""
        lo, hi = self._images[k]
        return tuple(j for j in self._at[lo + 1 : hi] if j is not None)

    def check_markov(self) -> bool:
        """Each branch image is an exact union of consecutive x-intervals: its
        ends are cuts (odd positions) and each gap between them holds a branch."""
        return all(
            lo % 2 and hi % 2 and lo < hi and None not in self._at[lo + 1 : hi : 2]
            for lo, hi in self._images
        )

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "table": self.name,
            "branches": [rec.to_json() for rec in self.branches],
        }


def branch_table(p: int) -> BranchTable:
    """The cusp-expansion branch table for Gamma_0(p); letter k in 1..p-1
    takes the element that carries the second precell of cell k."""
    _require_prime(p)
    h_neg = GroupElement(-1, 0, p, -1)
    records = []
    add = lambda *row: records.append(_record(*row))

    add(NEG_INF_LABEL, None, Rational(-1, p), Rational(0), None, h_neg, Fraction(0), -1)
    add(-1, Rational(-1, p), Rational(0), Rational(0), None, h_neg, Fraction(0), -1)
    add(0, Rational(0), Rational(1, p), None, Rational(0), GroupElement(1, 0, p, 1), Fraction(0), +1)
    for k in range(1, p):
        lo = Rational(k, p)
        add(k, lo, Rational(k + 1, p), None, lo, cell(p, k).decomposition[1][0], Fraction(k, p), +1)
    add(p, Rational(1), None, None, Rational(1), GroupElement(1, 1, 0, 1), Fraction(p - 1, p), +1)

    return BranchTable(p=p, branches=tuple(records))


def modular_table() -> BranchTable:
    """Two-branch table of the slow continued-fraction map on R+."""
    zero, one = Rational(0), Rational(1)
    return BranchTable(p=1, branches=(
        _record(0, zero, one, None, zero, GroupElement(1, 0, 1, 1), 0, +1),
        _record(1, one, None, None, zero, GroupElement(1, 1, 0, 1), 0, +1),
    ))


def _inf_witness(num: int, den: int) -> tuple[int, int, int, int]:
    """Determinant-one integer 4-tuple g with g(num/den) = inf, for coprime num
    and den > 0: pole at num/den, i.e. row (c d) = (-den, num); a*num + b*den = 1."""
    a = pow(num, -1, den)
    return (a, (1 - a * num) // den, -den, num)


def cusp_witness(p: int, r: Rational | Fraction) -> tuple[str, GroupElement]:
    """Classify a rational in the cusp orbit and exhibit the witness element.

    For Gamma_0(p), r = num/den is in the orbit of inf iff p | den (the
    witness maps r to inf), otherwise in the orbit of 0 (the witness maps
    r to 0).  For the modular group, p = 1, every rational maps to inf.
    """
    num, den = r.numerator, r.denominator
    if den % p == 0:
        return "inf", GroupElement(*_inf_witness(num, den))
    # witness g with g r = 0: top row (den, -num); solve den*d + num*p*c1 = 1
    c1 = pow(num * p, -1, den)
    return "zero", GroupElement(den, -num, p * c1, (1 - num * p * c1) // den)


def apply_F(table: BranchTable, x: BoundaryValue) -> tuple[BoundaryValue, float | int]:
    """One step of the generating map: (h_label^{-1} x, label)."""
    rec = table.branch_of(x)
    return rec.apply(x), rec.label


@dataclass(frozen=True)
class Termination:
    kind: str  # "periodic" | "cusp" | "step-cap" | "precision-exhausted"
    step: int
    at: BoundaryValue | None = None
    preperiod: int | None = None
    period: int | None = None

    def to_json(self) -> dict:
        out = {"kind": self.kind, "step": self.step}
        if self.at is not None:
            out["at"] = emit_value(self.at)
        if self.preperiod is not None:
            out["preperiod"] = self.preperiod
        if self.period is not None:
            out["period"] = self.period
        return out


@dataclass(frozen=True)
class CodingSequence:
    """Letters over the alphabet, one- or two-sided, stored as their runs.

    runs holds the maximal runs (label, n), n >= 1, with neighbouring
    labels distinct: the coding's own unit, one jump of code_future each
    (for the modular preset the run lengths are the continued fraction
    digits).  letters spells them out, built on first read; as the runs
    are maximal, equal runs mean equal letters.  letters[origin] is the
    letter a_0 of the current state; indices below origin are past
    letters.  For a periodic future coding the letters from the origin
    consist of the preperiod followed by one full period.
    """

    table_kind: str
    runs: tuple
    termination: Termination
    origin: int = 0
    past_termination: Termination | None = None

    @cached_property
    def letters(self) -> tuple:
        return tuple(chain.from_iterable(repeat(label, n) for label, n in self.runs))

    def to_json(self) -> dict:
        out = {
            "schema": 1,
            "table": self.table_kind,
            "letters": [label_to_json(l) for l in self.letters],
            "origin": self.origin,
            "termination": self.termination.to_json(),
        }
        if self.past_termination is not None:
            out["past_termination"] = self.past_termination.to_json()
        return out


def code_future(table: BranchTable, x: BoundaryValue, max_steps: int) -> CodingSequence:
    """Forward runs of x, with exact-state period detection.

    Each step of the loop takes one letter, or in a parabolic branch that
    follows itself the whole run of that letter: its length is one exact
    ceiling and its end one Moebius image (see _parabolic_run).  A step
    appends a run, or extends the last one when it repeats its letter.
    An Approx state runs as far as its shorter end does.  A period is
    reported only when an orbit state repeats exactly; letter-window
    heuristics are never used.  Termination reasons are data, not
    errors.  Only the runs are kept: the orbit state after letters[:k] is
    x replayed through table.branch(label).apply for each of them.

    The state is the binary quadratic form (P, Q, N) of the point x =
    (P + sqrt(D))/Q, D = P^2 + Q*N, or of each of the two rational ends of
    an Approx (exact._form): one discriminant D serves the whole orbit.  A
    rational n/m is the form (n*m, m^2, -n^2) of D = 0, so one formula
    serves every kind.  A step maps the form by exact._form_image, and
    seen is keyed by (P, Q), which only the one value has over D (with the
    upper end's form for an Approx).  The per-call set-up takes
    isqrt(m*m*D) once for each |det M| = m of the runs (table._dets), so
    a step takes no gcd, norm or square root: a cut test is the sign of
    an integer sum, squared when negative (_position), and a run lasts
    the least _run_length of the forms, one floor division.  The first
    step bisects every cut; a later one only the cuts inside the image of
    the branch just taken (see BranchTable).  A value is built only where
    no branch takes the point (inf, a rational of a level p > 1, a state
    at a position with no branch), from (P, Q) and the scale s with D =
    s*s*d, and branch_of raises the cusp, precision-exhausted or
    outside-domain error.

    States are looked up at step starts.  The first repeat there comes
    exactly one period after the earlier state, and the minimal preperiod
    is found by backing off while letters[i-1] == letters[i-1+per], a run
    at a time (_back_off): two equal letters that lead to one state come
    from one state, because each branch is injective.  A period that
    closes by max_steps shows by the first step start at or past it,
    unless the preperiod ends inside a run.  Then it shows one run later,
    and that first start is exactly at max_steps and begins a run of a
    letter that has already run more than once; only then does the loop
    look up a start at or past max_steps, and take one more run.  So the
    last step starts at or before max_steps, and the cut at max_steps
    falls in the last run.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if isinstance(x, Infinity) or table.p > 1 and isinstance(x, Rational):
        return CodingSequence(table.name, (), _stop(table, x, 0))
    approx = isinstance(x, Approx)
    a, b, c, d = _parts(x.lo if approx else x)
    P, Q, N, s = _form(a, b, c, d)
    far = _form(*_parts(x.hi))[:3] if approx else None  # the form of the upper end
    D = s * s * d
    roots = _run_roots(table._dets, D)
    pairs, at, steps = table._pairs, table._at, table._steps
    runs: list = []  # (label, n); run r starts at letter starts[r]
    starts: list = []
    last = None
    seen: dict = {(P, Q, far): 0}
    repeated: set = set()  # letters that have run more than once
    term = None
    pos, lo, hi = 0, 0, len(pairs)
    while True:
        if pos >= max_steps and (pos > max_steps or not repeated):
            break
        i = _position(pairs, lo, hi, P, Q, D)
        if approx:
            i = _span(i, _position(pairs, lo, hi, far[0], far[1], 0))[0]
        k = at[i]
        if pos >= max_steps:
            if k is None or steps[k][0].label not in repeated:
                break
        elif k is None:
            end = _surd(P, s, Q, d)
            term = _stop(table, _approx(end, _surd(far[0], 0, far[1], 0)) if approx else end, pos)
            break
        rec, g, run, lo, hi = steps[k]
        n = 1
        if run is not None:
            M, R, delta = run
            v = roots[delta] if delta > 0 else -roots[-delta]
            n = _run_length(M, P, Q, N, v)
            if approx:
                n = min(n, _run_length(M, *far, v))
            g = (1 + n * R[0], n * R[1], n * R[2], 1 + n * R[3])
            if n > 1:
                repeated.add(rec.label)
        P, Q, N = _form_image(g, P, Q, N)
        if approx:
            far = _form_image(g, *far)
        if rec.label == last:
            runs[-1] = (last, runs[-1][1] + n)
        else:
            last = rec.label
            runs.append((last, n))
            starts.append(pos)
        pos += n
        t = seen.setdefault((P, Q, far), pos)
        if t != pos:
            per = pos - t
            if per <= max_steps:
                pre, r = _back_off(runs, starts, t, per)
                if pre + per <= max_steps:
                    term = Termination("periodic", pre + per, preperiod=pre, period=per)
                    del runs[r + 1 :]
                    runs[r] = (runs[r][0], pre + per - starts[r])
            break
    if term is None:
        if pos > max_steps:
            label, n = runs.pop()
            if n > pos - max_steps:
                runs.append((label, n - pos + max_steps))
            pos = max_steps
        term = Termination("step-cap", pos)
    return CodingSequence(
        table_kind=table.name,
        runs=tuple(runs),
        termination=term,
    )


def _back_off(runs: list, starts: list, t: int, per: int) -> tuple[int, int]:
    """The least pre <= t with letters[i] == letters[i + per] for pre <= i < t, and
    the run holding letter pre + per - 1, for runs that start at starts and
    end at letter t + per: letters pre - 1 and pre - 1 + per sit in runs ra
    and rb, and while their labels agree pre drops to the later run start."""
    pre, ra, rb = t, bisect_right(starts, t - 1) - 1, len(runs) - 1
    while pre and runs[ra][0] == runs[rb][0]:
        pre = max(starts[ra], starts[rb] - per)
        ra -= starts[ra] == pre
        rb -= starts[rb] == pre + per
    return pre, rb


def _stop(table: BranchTable, x: BoundaryValue, pos: int) -> Termination:
    """The termination of a coding at an orbit point x that no branch takes; branch_of says why."""
    try:
        table.branch_of(x)
    except CuspPointError as err:
        return Termination("cusp", pos, at=err.value)
    except PrecisionExhausted:
        return Termination("precision-exhausted", pos, at=x)
    raise AssertionError(f"branch_of placed {emit_value(x)}, which the cut lookup did not")


def on_section(rec: BranchRecord, y: BoundaryValue) -> bool:
    """Whether (x, y), with x in the branch's interval, lies on the reduced cross section.

    The reduced section holds the pairs with a representative line
    crossing: y lies beyond rep_line on the side opposite rep_dir.  For an
    exact y that is _position's cut rule against the one cut rep_line; the
    printed y_interval is the product rectangle that contains it.  An
    Approx y that holds the line raises PrecisionExhausted.
    """
    if isinstance(y, Approx):
        side = compare(y, Rational(rec.rep_line))
        if side == EQUAL:
            raise PrecisionExhausted(f"backward endpoint {emit_value(y)} holds the line {rec.rep_line}")
        return side == -rec.rep_dir
    # below rep_line = n/m (position 0) for rep_dir +1, above it (position 2) for -1; Q = 0 is inf
    P, Q, D = _cut_point(y)
    n, m = rec.rep_line.numerator, rec.rep_line.denominator
    return Q != 0 and _position(((n, m),), 0, 1, P, Q, D) == 1 - rec.rep_dir


def code_two_sided(
    table: BranchTable,
    x: BoundaryValue,
    y: BoundaryValue,
    n_future: int,
    n_past: int,
) -> CodingSequence:
    """Two-sided runs of the pair (x, y) on the reduced section.

    Future runs follow x and past letters y: over branch j, the past
    letter is the k at y's position in BranchTable._past(j), and the next
    y is h_k y, over k.  y steps as its form, an Approx as the forms of its
    two ends (see code_future); x is looked up once, by the section check.
    y on a cut ends the past side: an exact y, then rational, at the cusp,
    an Approx as precision-exhausted.  h_k's pole F_k(inf) is a cut, so an
    Approx in a gap maps end to end.  The past letters are joined, in time
    order, to the future runs.
    """
    if compare(x, y) == EQUAL:
        raise ValueError("geodesic endpoints must be distinct")
    pos = table._locate(x)[0]
    if not on_section(table._branch_in(x, pos), y):
        raise ValueError("(x, y) is not on the reduced cross section")

    future = code_future(table, x, n_future)
    past: list = []  # runs of the past letters, nearest first
    past_term = Termination("step-cap", n_past)
    approx = isinstance(y, Approx)
    a, b, c, d = _parts(y.lo if approx else y)
    P, Q, N, s = _form(a, b, c, d)
    far = _form(*_parts(y.hi))[:3] if approx else None  # the form of the upper end
    D = s * s * d
    k = table._at[pos]
    for step in range(n_past):
        pairs, at = table._past(k)
        i = _position(pairs, 0, len(pairs), P, Q, D)
        if approx:
            i = _span(i, _position(pairs, 0, len(pairs), far[0], far[1], 0))[0]
        k = at[i]
        if k is None:
            kind = "precision-exhausted" if approx else "cusp"
            past_term = Termination(kind, step, at=None if approx else _surd(P, s, Q, d))
            break
        rec = table.branches[k]
        P, Q, N = _form_image(rec.h.key(), P, Q, N)
        if approx:
            far = _form_image(rec.h.key(), *far)
        if past and past[-1][0] == rec.label:
            past[-1] = (rec.label, past[-1][1] + 1)
        else:
            past.append((rec.label, 1))

    runs = future.runs
    if past and runs and past[0][0] == runs[0][0]:
        runs = ((runs[0][0], past[0][1] + runs[0][1]),) + runs[1:]
        del past[0]
    return CodingSequence(
        table_kind=table.name,
        runs=tuple(reversed(past)) + runs,
        termination=future.termination,
        origin=past_term.step,
        past_termination=past_term,
    )


@dataclass(frozen=True)
class CFDigits:
    """Continued fraction digits from run-length acceleration.

    For a terminating orbit the digits are complete and exact.  For a
    periodic orbit digits holds preperiod + one digit period, and the
    (preperiod, period) split is given separately.
    """

    digits: tuple[int, ...]
    complete: bool
    preperiod: tuple[int, ...] | None = None
    period: tuple[int, ...] | None = None

    def expand(self, n: int) -> list[int]:
        """First n digits, unrolling the periodic tail if there is one."""
        if self.period:
            out = list(self.preperiod)
            while len(out) < n:
                out.extend(self.period)
            return out[:n]
        return list(self.digits[:n])

    def to_json(self) -> dict:
        out = {"digits": list(self.digits), "complete": self.complete}
        if self.period is not None:
            out["preperiod"] = list(self.preperiod)
            out["period"] = list(self.period)
        return out


def accelerate_to_cf(seq: CodingSequence, max_digits: int = 64) -> CFDigits:
    """Read the CF digits of a modular future coding off its runs.

    The orbit of x > 1 under the slow map spells 1^(a0) 0^(a1) 1^(a2)...
    where [a0; a1, a2, ...] is the regular continued fraction of x, so the
    digits are the run lengths.  A cusp-terminated orbit always ends
    exactly at the fixed boundary point 1, and [.., a_n, 1] = [.., a_n + 1]
    closes the final digit.  A capped coding may have cut its last run
    short, so that run is dropped.
    """
    if seq.table_kind != "modular":
        raise ValueError("acceleration is defined only for the modular preset")
    if seq.origin != 0:
        raise ValueError("acceleration expects a future-sided coding")
    runs = seq.runs
    if not runs:
        raise ValueError("empty coding sequence")
    if runs[0][0] != 1:
        raise ValueError("acceleration needs x > 1 (leading letter 1)")
    lengths = [n for _, n in runs]

    term = seq.termination
    if term.kind == "cusp":
        if not (isinstance(term.at, Rational) and term.at.fr == 1):
            raise AssertionError("modular cusp hit away from the boundary point 1")
        lengths[-1] += 1
        return CFDigits(tuple(lengths), complete=True)

    if term.kind == "periodic":
        # the runs spell the preperiod and one period; the digits repeat from
        # the first run start i >= pre that is also a run start one period
        # later, where letters[pre:] follow the last run again: pre itself
        # when it starts a run of a letter other than the last run's, else
        # the end of the run r that holds letter pre
        pre, per = term.preperiod, term.period
        r, start = 0, 0
        while start + lengths[r] <= pre:
            start += lengths[r]
            r += 1
        if start == pre and runs[r][0] != runs[-1][0]:
            pre_digits, per_digits = lengths[:r], lengths[r:]
        else:
            # the letters pre..i close the period: their own digit, or the
            # last run's continued
            pre_digits, per_digits = lengths[: r + 1], lengths[r + 1 :]
            head = start + lengths[r] - pre
            if runs[r][0] == runs[-1][0]:
                per_digits[-1] += head
            else:
                per_digits.append(head)
        # the letters alternate runs, so a minimal letter period holds an even
        # number of runs: an odd digit period shows up twice over
        half = len(per_digits) // 2
        if per_digits[:half] == per_digits[half:]:
            per_digits = per_digits[:half]
        pre_digits, per_digits = tuple(pre_digits), tuple(per_digits)
        digits = pre_digits + per_digits
        if len(digits) > max_digits + 1:
            return CFDigits(digits[: max(max_digits, 0)], complete=False)
        return CFDigits(digits, complete=False, preperiod=pre_digits, period=per_digits)

    # step-cap or precision-exhausted: only complete runs are trustworthy
    return CFDigits(tuple(lengths[:-1]), complete=False)
