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

from .exact import (
    EQUAL,
    INF,
    Approx,
    BoundaryValue,
    Infinity,
    Rational,
    Surd,
    compare,
    emit_value,
)
from .moebius import GroupElement
from .tessellation import _require_prime, g_pair

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


class PrecisionExhausted(ArithmeticError):
    """An Approx value came closer to a branch endpoint than its error bound."""


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

    def is_endpoint(self, x: BoundaryValue) -> bool:
        for e in (self.lo, self.hi):
            if e is not None and compare(x, e) == EQUAL:
                return True
        return False

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
        from .tessellation import matrix_literal

        return {
            "label": label_to_json(self.label),
            "interval": self.interval.to_json(),
            "y_interval": self.y_interval.to_json(),
            "h": matrix_literal(self.h),
            "image": self.image.to_json(),
        }


def label_to_json(label) -> str | int:
    return "-inf" if label == NEG_INF_LABEL else int(label)


def _image_interval(h: GroupElement, iv: Interval) -> Interval:
    """Image of the open interval under h^{-1} (monotone increasing branch)."""
    hinv = h.inv()
    lo = hinv.apply_boundary(iv.lo if iv.lo is not None else INF)
    hi = hinv.apply_boundary(iv.hi if iv.hi is not None else INF)
    return Interval(
        None if isinstance(lo, Infinity) else lo,
        None if isinstance(hi, Infinity) else hi,
    )


@dataclass(frozen=True)
class BranchTable:
    kind: str  # "modular" or "gamma0"
    p: int | None
    branches: tuple[BranchRecord, ...]
    _by_label: dict = field(repr=False, default_factory=dict)
    _letter_lookup: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        for rec in self.branches:
            self._by_label[rec.label] = rec
            self._letter_lookup[(rec.h.key(), rec.target_line, rec.target_dir)] = rec.label

    def branch(self, label) -> BranchRecord:
        return self._by_label[label]

    def letter_for(self, g: GroupElement, line: Fraction, direction: int):
        """Letter whose element and target line match; None if unknown."""
        return self._letter_lookup.get((g.key(), line, direction))

    @property
    def name(self) -> str:
        """The table as JSON output names it: modular or gamma0(p)."""
        return "modular" if self.kind == "modular" else f"gamma0({self.p})"

    @property
    def labels(self) -> list:
        return [rec.label for rec in self.branches]

    def branch_of(self, x: BoundaryValue) -> BranchRecord:
        """The unique branch whose open interval contains x.

        Raises CuspPointError on the cusp orbit (any rational for the
        Gamma_0(p) tables; the interval endpoints and non-positive
        rationals for the modular preset), PrecisionExhausted when an
        Approx value cannot be placed reliably.
        """
        if isinstance(x, Infinity):
            raise CuspPointError(x, "inf", None)
        if isinstance(x, Rational):
            if self.kind == "gamma0":
                orbit, witness = cusp_witness(self.p, x.fr)
                raise CuspPointError(x, orbit, witness)
            for rec in self.branches:
                if rec.interval.contains(x):
                    return rec
            orbit, witness = cusp_witness(None, x.fr)
            raise CuspPointError(x, orbit, witness)
        if isinstance(x, Approx):
            return self._branch_of_approx(x)
        for rec in self.branches:
            if rec.interval.contains(x):
                return rec
        raise OutsideDomainError(f"{emit_value(x)} is outside the table domain")

    def _branch_of_approx(self, x: Approx) -> BranchRecord:
        for rec in self.branches:
            for e in (rec.interval.lo, rec.interval.hi):
                if e is not None and abs(e.to_float() - x.value) <= x.err:
                    raise PrecisionExhausted(
                        f"approx value {x.value!r} within error {x.err!r} of endpoint "
                        f"{emit_value(e)}"
                    )
            if rec.interval.contains(x):
                return rec
        raise OutsideDomainError(f"approx value {x.value!r} is outside the table domain")

    def check_markov(self) -> bool:
        """Each branch image is an exact union of consecutive x-intervals."""
        ivs = [rec.interval for rec in self.branches]

        def same(e1, e2):
            if e1 is None or e2 is None:
                return e1 is None and e2 is None
            return compare(e1, e2) == EQUAL

        for rec in self.branches:
            start = next(
                (i for i, iv in enumerate(ivs) if same(iv.lo, rec.image.lo)), None
            )
            if start is None:
                return False
            i = start
            while True:
                if same(ivs[i].hi, rec.image.hi):
                    break
                if i + 1 >= len(ivs) or not same(ivs[i].hi, ivs[i + 1].lo):
                    return False
                i += 1
        return True

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "table": self.name,
            "branches": [rec.to_json() for rec in self.branches],
        }


def branch_table(p: int) -> BranchTable:
    """The cusp-expansion branch table for Gamma_0(p)."""
    _require_prime(p)
    frac = lambda n, d=1: Rational(Fraction(n, d))
    h_neg = GroupElement(-1, 0, p, -1)
    records = []

    def add(label, lo, hi, y_lo, y_hi, h, target_line, target_dir, rep_line, rep_dir):
        iv = Interval(lo, hi)
        records.append(
            BranchRecord(
                label=label,
                interval=iv,
                y_interval=Interval(y_lo, y_hi),
                h=h,
                image=_image_interval(h, iv),
                target_line=Fraction(target_line),
                target_dir=target_dir,
                rep_line=Fraction(rep_line),
                rep_dir=rep_dir,
            )
        )

    add(NEG_INF_LABEL, None, frac(-1, p), frac(0), None, h_neg,
        Fraction(1, p), +1, Fraction(0), -1)
    add(-1, frac(-1, p), frac(0), frac(0), None, h_neg,
        Fraction(0), -1, Fraction(0), -1)
    add(0, frac(0), frac(1, p), None, frac(0), GroupElement(1, 0, p, 1),
        Fraction(0), +1, Fraction(0), +1)
    for k in range(1, p - 1):
        a = (-pow(k + 1, -1, p)) % p
        add(k, frac(k, p), frac(k + 1, p), None, frac(k, p), g_pair(p, a),
            Fraction(a + 1, p), +1, Fraction(k, p), +1)
    add(p - 1, frac(p - 1, p), frac(1), None, frac(p - 1, p), g_pair(p, 1),
        Fraction(0), -1, Fraction(p - 1, p), +1)
    add(p, frac(1), None, None, frac(1), GroupElement(1, 1, 0, 1),
        Fraction(0), +1, Fraction(p - 1, p), +1)

    return BranchTable(kind="gamma0", p=p, branches=tuple(records))


def modular_table() -> BranchTable:
    """Two-branch table of the slow continued-fraction map on R+."""
    one = Rational(1)
    zero = Rational(0)
    records = (
        BranchRecord(
            label=0,
            interval=Interval(zero, one),
            y_interval=Interval(None, zero),
            h=GroupElement(1, 0, 1, 1),
            image=Interval(zero, None),
            target_line=Fraction(0),
            target_dir=+1,
            rep_line=Fraction(0),
            rep_dir=+1,
        ),
        BranchRecord(
            label=1,
            interval=Interval(one, None),
            y_interval=Interval(None, zero),
            h=GroupElement(1, 1, 0, 1),
            image=Interval(zero, None),
            target_line=Fraction(0),
            target_dir=+1,
            rep_line=Fraction(0),
            rep_dir=+1,
        ),
    )
    return BranchTable(kind="modular", p=None, branches=records)


def cusp_witness(p: int | None, r: Fraction) -> tuple[str, GroupElement]:
    """Classify a rational in the cusp orbit and exhibit the witness element.

    For Gamma_0(p), r = num/den is in the orbit of inf iff p | den (the
    witness maps r to inf), otherwise in the orbit of 0 (the witness maps
    r to 0).  For the modular group every rational maps to inf.
    """
    num, den = r.numerator, r.denominator
    if p is None or den % p == 0:
        # witness g with g r = inf: pole at r, i.e. row (c d) = (-den, num)
        a, b = _bezout(num, den)
        g = GroupElement(a, b, -den, num)
        return "inf", g
    # witness g with g r = 0: top row (den, -num); solve den*d + num*p*c1 = 1
    d, c1 = _bezout(den, num * p)
    g = GroupElement(den, -num, p * c1, d)
    return "zero", g


def _bezout(u: int, v: int) -> tuple[int, int]:
    """(x, y) with u*x + v*y = 1 for coprime u, v.

    Extended Euclid as a loop: the continued fraction of u/v may be
    thousands of terms long (consecutive Fibonacci numbers).
    """
    r0, r1, x0, x1, y0, y1 = u, v, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if r0 == 1:
        return x0, y0
    if r0 == -1:
        return -x0, -y0
    raise ValueError(f"{u} and {v} are not coprime")


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
    states: tuple | None = None

    @property
    def future_letters(self) -> tuple:
        return self.letters[self.origin :]

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
        if self.states is not None:
            out["states"] = [emit_value(s) for s in self.states]
        return out


def code_future(
    table: BranchTable,
    x: BoundaryValue,
    max_steps: int,
    keep_states: bool = False,
) -> CodingSequence:
    """Forward letters of x, with exact-state period detection.

    A period is reported only when the exact orbit state repeats;
    letter-window heuristics are never used.  Termination reasons are
    data, not errors.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    letters: list = []
    states: list = [x]
    seen: dict = {x: 0} if x.is_exact() else {}
    term = None
    cur = x
    for step in range(max_steps):
        try:
            nxt, label = apply_F(table, cur)
        except CuspPointError as err:
            term = Termination("cusp", step, at=err.value)
            break
        except PrecisionExhausted:
            term = Termination("precision-exhausted", step, at=cur)
            break
        letters.append(label)
        states.append(nxt)
        cur = nxt
        if cur.is_exact():
            if cur in seen:
                pre = seen[cur]
                term = Termination(
                    "periodic", step + 1, preperiod=pre, period=step + 1 - pre
                )
                letters = letters[: step + 1]
                break
            seen[cur] = step + 1
    if term is None:
        term = Termination("step-cap", len(letters))
    return CodingSequence(
        table_kind=table.name,
        letters=tuple(letters),
        termination=term,
        states=tuple(states[: len(letters) + 1]) if keep_states else None,
    )


def _in_branch_pair(rec: BranchRecord, x: BoundaryValue, y: BoundaryValue) -> bool:
    """Membership in the branch's product domain, restricted to pairs that
    have a representative line crossing (backward endpoint left of the
    branch's representative line).  On the unrestricted product rectangles
    the backward branch would not be unique; the restriction is exactly
    the image of the reduced cross section."""
    if not (rec.interval.contains(x) and rec.y_interval.contains(y)):
        return False
    if rec.rep_dir == +1 and compare(y, Rational(rec.rep_line)) != -1:
        return False
    return True


def code_two_sided(
    table: BranchTable,
    x: BoundaryValue,
    y: BoundaryValue,
    n_future: int,
    n_past: int,
) -> CodingSequence:
    """Two-sided letters of the pair (x, y) on the reduced section.

    Future letters follow the first coordinate; past letters are found by
    scanning the alphabet for the unique k with (h_k x, h_k y) in the
    k-th product domain.  Finding two such k is an internal error;
    finding none ends the past side (weak section behavior).
    """
    if compare(x, y) == EQUAL:
        raise ValueError("geodesic endpoints must be distinct")
    rec0 = table.branch_of(x)
    if not rec0.y_interval.contains(y):
        raise ValueError("(x, y) is not on the reduced cross section")

    future = code_future(table, x, n_future)
    past_letters: list = []
    past_term = None
    cx, cy = x, y
    for step in range(n_past):
        hits = []
        for rec in table.branches:
            try:
                bx = rec.h.apply_boundary(cx)
                by = rec.h.apply_boundary(cy)
            except ArithmeticError:
                continue
            if _in_branch_pair(rec, bx, by):
                hits.append((rec, bx, by))
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
        pre, per = term.preperiod, term.period
        # stream positions of run starts detect the digit period exactly
        digits: list[int] = []
        run_keys: dict = {}
        pre_digits = None
        per_digits = None
        pos = 0
        run_start = 0
        cur = letters[0]

        def letter_at(i: int):
            return letters[i] if i < pre else letters[pre + (i - pre) % per]

        while len(digits) < max_digits + 2:
            pos += 1
            if letter_at(pos) != cur:
                digits.append(pos - run_start)
                if run_start >= pre:
                    key = ((run_start - pre) % per, cur)
                    if key in run_keys and pre_digits is None:
                        first = run_keys[key]
                        pre_digits = tuple(digits[:first])
                        per_digits = tuple(digits[first : len(digits) - 1])
                        break
                    run_keys.setdefault(key, len(digits) - 1)
                run_start = pos
                cur = letter_at(pos)
        if per_digits:
            return CFDigits(
                pre_digits + per_digits,
                complete=False,
                preperiod=pre_digits,
                period=per_digits,
            )
        return CFDigits(tuple(digits[:max_digits]), complete=False)

    # step-cap or precision-exhausted: only complete runs are trustworthy
    runs = _rle(letters)
    return CFDigits(tuple(n for _, n in runs[:-1]), complete=False)


def _rle(letters) -> list[tuple[object, int]]:
    runs: list[tuple[object, int]] = []
    for l in letters:
        if runs and runs[-1][0] == l:
            runs[-1] = (l, runs[-1][1] + 1)
        else:
            runs.append((l, 1))
    return runs


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
    from .exact import floor_exact

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
