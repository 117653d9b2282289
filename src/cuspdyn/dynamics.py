"""Branch tables and symbolic dynamics of the cusp-expansion section map.

For Gamma_0(p) the generating map F acts on R minus the cusp orbit
(which is exactly Q) through finitely many inverse branches h_k, one per
letter of the alphabet {-inf, -1, 0, ..., p}.  The modular preset is the
two-branch system x -> x/(1-x) on (0,1), x -> x-1 on (1,inf), whose
run-length acceleration is the ordinary continued fraction algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby

from .exact import (
    EQUAL,
    GREATER,
    INF,
    LESS,
    Approx,
    BoundaryValue,
    Infinity,
    PrecisionExhausted,
    Rational,
    Surd,
    ceil_moebius,
    compare,
    emit_value,
    floor_exact,
)
from .moebius import GroupElement
from .tessellation import _domain, _require_prime, group_name, matrix_literal

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
    "continued_fraction_rational",
    "continued_fraction_surd",
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
    """One letter of the alphabet with its interval, element and geometry.

    target_line / target_dir name the representative vertical line the
    renormalized section point lands on after this letter: direction +1 is
    a left-to-right crossing, -1 right-to-left (only ever on the line at 0).
    """

    label: float | int
    interval: Interval
    y_interval: Interval
    h: GroupElement
    image: Interval
    target_line: Fraction
    target_dir: int
    rep_line: Fraction
    rep_dir: int
    h_inv: GroupElement = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "h_inv", self.h.inv())

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
    """(M, N) when F = h^{-1} is parabolic and fixes one end f of the interval; else None.

    With F taken at trace 2 and N = F - I, N^2 = 0, so F^n = I + nN.  M is
    the Moebius map sending the other end e to 0, f to inf and h(e) to 1,
    so it conjugates F to x -> x - 1.  On a branch that follows itself M
    maps the interval onto (0, inf): the letter repeats exactly ceil(M x)
    times from x, and the run ends at (I + nN) x.  Points are integer
    pairs (v1, v2) for v1/v2, with (1, 0) for an unbounded end.  Exactly
    one end is fixed: h maps the interval into itself, so the fixed point
    lies in its closure; inside it would push one end outward, and two
    fixed ends would make F the identity.
    """
    g, h = rec.h_inv, rec.h
    if abs(g.a + g.d) != 2:
        return None
    s = (g.a + g.d) // 2
    N = (s * g.a - 1, s * g.b, s * g.c, s * g.d - 1)
    ends = [(1, 0) if v is None else (v.numerator, v.denominator) for v in (rec.interval.lo, rec.interval.hi)]
    u, v = ends[0]
    f, e = ends if N[0] * u + N[1] * v == 0 == N[2] * u + N[3] * v else ends[::-1]
    y = (h.a * e[0] + h.b * e[1], h.c * e[0] + h.d * e[1])
    det = lambda u, v: u[0] * v[1] - u[1] * v[0]
    fy, ey = det(f, y), det(e, y)
    return (-e[1] * fy, e[0] * fy, -f[1] * ey, f[0] * ey), N


def _record(label, lo, hi, y_lo, y_hi, h, target_line, target_dir, rep_line, rep_dir) -> BranchRecord:
    """The record of a branch whose image is that of (lo, hi) under h^{-1} (monotone increasing)."""
    hinv = h.inv()
    ends = [hinv.apply_boundary(INF if e is None else e) for e in (lo, hi)]
    return BranchRecord(
        label=label,
        interval=Interval(lo, hi),
        y_interval=Interval(y_lo, y_hi),
        h=h,
        image=Interval(*(None if isinstance(e, Infinity) else e for e in ends)),
        target_line=Fraction(target_line),
        target_dir=target_dir,
        rep_line=Fraction(rep_line),
        rep_dir=rep_dir,
    )


@dataclass(frozen=True)
class BranchTable:
    """Branches of the section map of Gamma_0(p); p = 1 is the modular preset.

    The consecutive branch intervals partition the line at their finite
    ends, the cuts, sorted.  Position 2i is the gap just below cuts[i] and
    2i + 1 is cuts[i]; _at holds the branch index at each position (None
    on the cuts and in empty gaps), _images the positions of the ends of
    each branch image (-1 and len(_at) when unbounded).  _runs maps the
    label of each parabolic branch that follows itself to its (M, N), see
    _parabolic_run: code_future takes the runs of these letters in one step.
    """

    p: int
    branches: tuple[BranchRecord, ...]
    _by_label: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _cuts: tuple = field(init=False, repr=False, compare=False)
    _at: tuple = field(init=False, repr=False, compare=False)
    _images: tuple = field(init=False, repr=False, compare=False)
    _runs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for rec in self.branches:
            self._by_label[rec.label] = rec
        ivs = [rec.interval for rec in self.branches]
        if any(a.hi is None or b.lo is None or compare(a.hi, b.lo) != EQUAL for a, b in zip(ivs, ivs[1:])):
            raise ValueError("branch intervals must be consecutive")
        below = [ivs[0].lo] if ivs[0].lo is not None else []
        above = [ivs[-1].hi] if ivs[-1].hi is not None else []
        cuts = below + [iv.hi for iv in ivs[:-1]] + above
        at = [None] * (2 * len(cuts) + 1)
        at[::2] = [None] * len(below) + list(range(len(ivs))) + [None] * len(above)
        object.__setattr__(self, "_cuts", tuple(cuts))
        object.__setattr__(self, "_at", tuple(at))
        end = lambda e, unbounded: unbounded if e is None else self._locate(e)[0]
        images = tuple((end(r.image.lo, -1), end(r.image.hi, len(at))) for r in self.branches)
        object.__setattr__(self, "_images", images)
        runs = {rec.label: _parabolic_run(rec) for k, rec in enumerate(self.branches) if k in self.follows(k)}
        object.__setattr__(self, "_runs", {label: run for label, run in runs.items() if run})

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
        """First and last position of a finite x, by bisection over the cuts.

        They differ only for an Approx within its error of several cuts.
        """
        cuts, lo, hi = self._cuts, 0, len(self._cuts)
        while lo < hi:
            mid = (lo + hi) // 2
            c = compare(x, cuts[mid])
            if c == LESS:
                hi = mid
            elif c == GREATER:
                lo = mid + 1
            else:
                first = last = mid
                while first > 0 and compare(x, cuts[first - 1]) == EQUAL:
                    first -= 1
                while last + 1 < len(cuts) and compare(x, cuts[last + 1]) == EQUAL:
                    last += 1
                return 2 * first + 1, 2 * last + 1
        return 2 * lo, 2 * lo

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
        if isinstance(x, Infinity):
            raise CuspPointError(x, "inf", None)
        if isinstance(x, Rational) and self.p > 1:
            raise CuspPointError(x, *cusp_witness(self.p, x))
        pos = self._locate(x)[0]
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

    def _covering(self, first: int, last: int) -> list[BranchRecord]:
        """The branches whose open image contains the positions first..last."""
        return [rec for rec, (lo, hi) in zip(self.branches, self._images) if lo < first and last < hi]

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
        return self._covering(first, last)

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
    """The cusp-expansion branch table for Gamma_0(p)."""
    spheres = _domain(_require_prime(p)).spheres  # spheres[k - 1] is |pz - k| = 1
    frac = lambda n, d=1: Rational(Fraction(n, d))
    h_neg = GroupElement(-1, 0, p, -1)
    records = []
    add = lambda *row: records.append(_record(*row))

    add(NEG_INF_LABEL, None, frac(-1, p), frac(0), None, h_neg,
        Fraction(1, p), +1, Fraction(0), -1)
    add(-1, frac(-1, p), frac(0), frac(0), None, h_neg,
        Fraction(0), -1, Fraction(0), -1)
    add(0, frac(0), frac(1, p), None, frac(0), GroupElement(1, 0, p, 1),
        Fraction(0), +1, Fraction(0), +1)
    for k in range(1, p - 1):
        a = (-pow(k + 1, -1, p)) % p
        add(k, frac(k, p), frac(k + 1, p), None, frac(k, p), spheres[a - 1].element,
            Fraction(a + 1, p), +1, Fraction(k, p), +1)
    add(p - 1, frac(p - 1, p), frac(1), None, frac(p - 1, p), spheres[0].element,
        Fraction(0), -1, Fraction(p - 1, p), +1)
    add(p, frac(1), None, None, frac(1), GroupElement(1, 1, 0, 1),
        Fraction(0), +1, Fraction(p - 1, p), +1)

    return BranchTable(p=p, branches=tuple(records))


def modular_table() -> BranchTable:
    """Two-branch table of the slow continued-fraction map on R+."""
    zero, one = Rational(0), Rational(1)
    return BranchTable(p=1, branches=(
        _record(0, zero, one, None, zero, GroupElement(1, 0, 1, 1), 0, +1, 0, +1),
        _record(1, one, None, None, zero, GroupElement(1, 1, 0, 1), 0, +1, 0, +1),
    ))


def cusp_witness(p: int, r: Rational | Fraction) -> tuple[str, GroupElement]:
    """Classify a rational in the cusp orbit and exhibit the witness element.

    For Gamma_0(p), r = num/den is in the orbit of inf iff p | den (the
    witness maps r to inf), otherwise in the orbit of 0 (the witness maps
    r to 0).  For the modular group, p = 1, every rational maps to inf.
    """
    num, den = r.numerator, r.denominator
    if den % p == 0:
        # witness g with g r = inf: pole at r, i.e. row (c d) = (-den, num); solve a*num + b*den = 1
        a = pow(num, -1, den)
        return "inf", GroupElement(a, (1 - a * num) // den, -den, num)
    # witness g with g r = 0: top row (den, -num); solve den*d + num*p*c1 = 1
    c1 = pow(num * p, -1, den)
    return "zero", GroupElement(den, -num, p * c1, (1 - num * p * c1) // den)


def apply_F(table: BranchTable, x: BoundaryValue) -> tuple[BoundaryValue, float | int]:
    """One step of the generating map: (h_label^{-1} x, label)."""
    rec = table.branch_of(x)
    return rec.apply(x), rec.label


@dataclass(frozen=True)
class Termination:
    kind: str  # "periodic" | "cusp" | "step-cap" | "precision-exhausted" | "no-past-branch"
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
    """Letters over the alphabet, one- or two-sided.

    letters[origin] is the letter a_0 of the current state; indices below
    origin are past letters.  For a periodic future coding the letters
    from the origin consist of the preperiod followed by one full period.
    """

    table_kind: str
    letters: tuple
    termination: Termination
    origin: int = 0
    past_termination: Termination | None = None

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
    """Forward letters of x, with exact-state period detection.

    Each step of the loop takes one letter, or in a parabolic branch that
    follows itself the whole run of that letter: its length is one exact
    ceiling and its end one Moebius image (see _parabolic_run).  An Approx
    state runs as far as its shorter end does.  A period is reported only
    when an orbit state repeats exactly; letter-window heuristics are
    never used.  Termination reasons are data, not errors.  Only the
    letters are kept: the orbit state after letters[:k] is x replayed
    through table.branch(label).apply for each of them.

    States are looked up at step starts.  The first repeat there comes
    exactly one period after the earlier state, and the minimal preperiod
    is found by backing off while letters[i-1] == letters[i-1+per]: two
    equal letters that lead to one state come from one state, because
    each branch is injective.  A period that closes by max_steps shows by
    the first step start at or past it, unless the preperiod ends inside
    a run.  Then it shows one run later, and that first start is exactly
    at max_steps and begins a run of a letter that has already run more
    than once; only then does the loop take one more run.  Letters past
    max_steps are kept up to 2 * max_steps, enough to back off from any
    such repeat.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    letters: list = []
    seen: dict = {x: 0}
    repeated: set = set()  # letters that have run more than once
    term = None
    pos, cur = 0, x
    while True:
        if pos < max_steps:
            try:
                rec = table.branch_of(cur)
            except CuspPointError as err:
                term = Termination("cusp", pos, at=err.value)
                break
            except PrecisionExhausted:
                term = Termination("precision-exhausted", pos, at=cur)
                break
        else:
            rec = table.branch_at(cur) if pos == max_steps and repeated else None
            if rec is None or rec.label not in repeated:
                break
        run = table._runs.get(rec.label)
        if run is None:
            n, nxt = 1, rec.apply(cur)
        else:
            M, N = run
            n = ceil_moebius(M, cur)
            nxt = GroupElement(1 + n * N[0], n * N[1], n * N[2], 1 + n * N[3]).apply_boundary(cur)
            if n > 1:
                repeated.add(rec.label)
        letters.extend([rec.label] * min(n, 2 * max_steps - pos))
        pos, cur = pos + n, nxt
        t = seen.setdefault(cur, pos)
        if t != pos:
            per = pos - t
            if len(letters) == pos:
                pre = t
                while pre and letters[pre - 1] == letters[pre - 1 + per]:
                    pre -= 1
                if pre + per <= max_steps:
                    term = Termination("periodic", pre + per, preperiod=pre, period=per)
                    letters = letters[: pre + per]
            break
    if term is None:
        letters = letters[:max_steps]
        term = Termination("step-cap", len(letters))
    return CodingSequence(
        table_kind=table.name,
        letters=tuple(letters),
        termination=term,
    )


def on_section(rec: BranchRecord, y: BoundaryValue) -> bool:
    """Whether (x, y), with x in the branch's interval, lies on the reduced cross section.

    The reduced section holds the pairs with a representative line
    crossing: y lies beyond rep_line on the side opposite rep_dir.  That
    is one compare; the printed y_interval is the product rectangle that
    contains it.  An Approx y that holds the line raises PrecisionExhausted.
    """
    if isinstance(y, Infinity):
        return False
    side = compare(y, Rational(rec.rep_line))
    if side == EQUAL and isinstance(y, Approx):
        raise PrecisionExhausted(f"backward endpoint {emit_value(y)} holds the line {rec.rep_line}")
    return side == -rec.rep_dir


def code_two_sided(
    table: BranchTable,
    x: BoundaryValue,
    y: BoundaryValue,
    n_future: int,
    n_past: int,
) -> CodingSequence:
    """Two-sided letters of the pair (x, y) on the reduced section.

    Future letters follow the first coordinate; past letters are found by
    the unique k with (h_k x, h_k y) on the reduced section over k, among
    the branches whose image contains x.  Finding two such k is an internal
    error; finding none ends the past side (weak section behavior), and
    so does an Approx pair that an h_k maps across its pole or onto a
    representative line.
    """
    if compare(x, y) == EQUAL:
        raise ValueError("geodesic endpoints must be distinct")
    if not on_section(table.branch_of(x), y):
        raise ValueError("(x, y) is not on the reduced cross section")

    future = code_future(table, x, n_future)
    past_letters: list = []
    past_term = None
    cx, cy = x, y
    for step in range(n_past):
        hits = []
        try:
            for rec in table._covering(*table._locate(cx)):
                by = rec.h.apply_boundary(cy)
                if on_section(rec, by):
                    hits.append((rec, rec.h.apply_boundary(cx), by))
        except PrecisionExhausted:
            past_term = Termination("precision-exhausted", step)
            break
        if len(hits) > 1:
            raise AssertionError(
                f"past branch not unique at step {step}: {[h[0].label for h in hits]}"
            )
        if not hits:
            if isinstance(cx, Rational) or isinstance(cy, Rational):
                past_term = Termination("cusp", step, at=cy)
            else:
                past_term = Termination("no-past-branch", step)
            break
        rec, cx, cy = hits[0]
        past_letters.append(rec.label)
    if past_term is None:
        past_term = Termination("step-cap", len(past_letters))

    letters = tuple(reversed(past_letters)) + future.letters
    return CodingSequence(
        table_kind=table.name,
        letters=letters,
        termination=future.termination,
        origin=len(past_letters),
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
    """Run-length encode a modular future coding into CF digits.

    The orbit of x > 1 under the slow map spells 1^(a0) 0^(a1) 1^(a2)...
    where [a0; a1, a2, ...] is the regular continued fraction of x.  A
    cusp-terminated orbit always ends exactly at the fixed boundary point
    1, and [.., a_n, 1] = [.., a_n + 1] closes the final digit.
    """
    if seq.table_kind != "modular":
        raise ValueError("acceleration is defined only for the modular preset")
    if seq.origin != 0:
        raise ValueError("acceleration expects a future-sided coding")
    letters = seq.letters
    if not letters:
        raise ValueError("empty coding sequence")
    if letters[0] != 1:
        raise ValueError("acceleration needs x > 1 (leading letter 1)")

    term = seq.termination
    if term.kind == "cusp":
        if not (isinstance(term.at, Rational) and term.at.fr == 1):
            raise AssertionError("modular cusp hit away from the boundary point 1")
        runs = _rle(letters)
        runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        return CFDigits(tuple(n for _, n in runs), complete=True)

    if term.kind == "periodic":
        # letters spell the preperiod and one period; the digits repeat from
        # the first position i of the period that starts a run both at i and
        # one period later
        pre, per = term.preperiod, term.period
        stream = letters + letters[pre:]
        i = next(
            t
            for t in range(pre, pre + per)
            if (t == 0 or stream[t - 1] != stream[t]) and stream[t + per - 1] != stream[t + per]
        )
        pre_digits = tuple(n for _, n in _rle(letters[:i]))
        per_digits = tuple(n for _, n in _rle(stream[i : i + per]))
        # the letters alternate runs, so a minimal letter period holds an even
        # number of runs: an odd digit period shows up twice over
        half = len(per_digits) // 2
        if per_digits[:half] == per_digits[half:]:
            per_digits = per_digits[:half]
        digits = pre_digits + per_digits
        if len(digits) > max_digits + 1:
            return CFDigits(digits[: max(max_digits, 0)], complete=False)
        return CFDigits(digits, complete=False, preperiod=pre_digits, period=per_digits)

    # step-cap or precision-exhausted: only complete runs are trustworthy
    runs = _rle(letters)
    return CFDigits(tuple(n for _, n in runs[:-1]), complete=False)


def _rle(letters) -> list[tuple[object, int]]:
    return [(label, len(list(run))) for label, run in groupby(letters)]


# --- floor-and-invert oracles ------------------------------------------------


def continued_fraction_rational(r: Fraction) -> list[int]:
    """Terminating CF digits of a rational by floor-and-invert."""
    digits = []
    while True:
        n = r.numerator // r.denominator
        digits.append(n)
        r -= n
        if r == 0:
            return digits
        r = 1 / r


def continued_fraction_surd(x: Surd) -> tuple[list[int], list[int]]:
    """(preperiod, period) CF digits of a quadratic surd, exactly."""
    seen: dict = {}
    digits: list[int] = []
    cur: BoundaryValue = x
    while True:
        if cur in seen:
            i = seen[cur]
            return digits[:i], digits[i:]
        seen[cur] = len(digits)
        n = floor_exact(cur)
        digits.append(n)
        frac_part = cur - Rational(n)
        cur = frac_part.reciprocal()
        if not isinstance(cur, Surd):
            raise AssertionError("surd orbit left the quadratic field")
