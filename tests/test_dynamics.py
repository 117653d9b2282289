import dataclasses
import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspdyn.dynamics import (
    NEG_INF_LABEL,
    BranchTable,
    CFDigits,
    CodingSequence,
    CuspPointError,
    Interval,
    OutsideDomainError,
    PrecisionExhausted,
    Termination,
    _parabolic_run,
    accelerate_to_cf,
    apply_F,
    branch_table,
    code_future,
    code_two_sided,
    cusp_witness,
    modular_table,
    on_section,
)
from cuspdyn import dynamics, exact
from cuspdyn.cli import main
from cuspdyn.exact import INF, LESS, Approx, Rational, Surd, compare, emit_value, normalize_surd, parse_value
from cuspdyn.moebius import GroupElement
from cuspdyn.sampling import SQUAREFREE, sample_surd_in

from cf_reference import ceil_moebius, continued_fraction_rational, continued_fraction_surd
from past_reference import covering, past_by_scan

PRIMES = (2, 3, 5, 7, 11)


def frac(n, d=1):
    return Rational(Fraction(n, d))


def test_branch_table_p5_rows():
    t = branch_table(5)
    r1 = t.branch(1)
    assert (r1.interval.lo, r1.interval.hi) == (frac(1, 5), frac(2, 5))
    assert r1.h.key() == (2, -1, 5, -2)
    assert (r1.image.lo, r1.image.hi) == (frac(3, 5), None)
    rneg = t.branch(NEG_INF_LABEL)
    assert (rneg.interval.lo, rneg.interval.hi) == (None, frac(-1, 5))
    assert rneg.h.key() == (-1, 0, 5, -1)
    assert (rneg.image.lo, rneg.image.hi) == (frac(1, 5), None)
    r5 = t.branch(5)
    assert (r5.interval.lo, r5.interval.hi) == (frac(1), None)
    assert r5.h.key() == (1, 1, 0, 1)
    assert (r5.image.lo, r5.image.hi) == (frac(0), None)


def test_branch_table_alphabet_and_cover():
    for p in PRIMES:
        t = branch_table(p)
        assert t.labels == [NEG_INF_LABEL] + list(range(-1, p + 1))
        # closures cover R: consecutive endpoints match exactly
        ivs = [r.interval for r in t.branches]
        assert ivs[0].lo is None and ivs[-1].hi is None
        for left, right in zip(ivs, ivs[1:]):
            assert compare(left.hi, right.lo) == 0


def test_branch_table_endpoint_law():
    for p in PRIMES:
        t = branch_table(p)
        for rec in t.branches:
            img = rec.h.apply_boundary(INF)
            ends = [e for e in (rec.interval.lo, rec.interval.hi)]
            if img is INF:
                assert rec.interval.hi is None  # the branch reaching +inf
            else:
                assert any(e is not None and compare(img, e) == 0 for e in ends)


def test_branch_table_markov():
    for p in PRIMES:
        assert branch_table(p).check_markov()
    assert modular_table().check_markov()


def test_branch_duplicate_matrix_not_deduplicated():
    t = branch_table(5)
    assert t.branch(NEG_INF_LABEL).h == t.branch(-1).h
    assert t.branch(3).h == t.branch(4).h
    # but the records and their target lines differ
    assert t.branch(3).target != t.branch(4).target


def test_modular_table():
    t = modular_table()
    assert t.labels == [0, 1]
    assert t.branch(0).h.key() == (1, 0, 1, 1)
    assert t.branch(1).h.key() == (1, 1, 0, 1)
    x, lab = apply_F(t, frac(3, 10))
    assert lab == 0 and x == frac(3, 7)
    x2, lab2 = apply_F(t, frac(5, 2))
    assert lab2 == 1 and x2 == frac(3, 2)
    assert (t.branch(0).image.lo, t.branch(0).image.hi) == (frac(0), None)


def test_apply_F_examples():
    t5 = branch_table(5)
    x = normalize_surd(-1, 1, 1, 2)  # sqrt2 - 1 in D_2
    x1, lab = apply_F(t5, x)
    assert lab == 2 and x1 == Surd(10, 1, 14, 2)
    x2, lab2 = apply_F(t5, normalize_surd(0, -1, 1, 2))  # -sqrt2
    assert lab2 == NEG_INF_LABEL and x2 == Surd(10, 1, 49, 2)
    tm = modular_table()
    phi = Surd(1, 1, 2, 5)
    x3, lab3 = apply_F(tm, phi)
    assert lab3 == 1 and x3 == Surd(-1, 1, 2, 5)  # phi - 1


def test_apply_F_cusp_errors():
    t5 = branch_table(5)
    with pytest.raises(CuspPointError) as err:
        apply_F(t5, frac(3, 7))
    assert err.value.orbit == "zero"  # denominator 7 is prime to 5
    with pytest.raises(CuspPointError) as err2:
        apply_F(t5, frac(2, 5))
    assert err2.value.orbit == "inf"
    tm = modular_table()
    with pytest.raises(CuspPointError):
        apply_F(tm, frac(1))
    with pytest.raises(CuspPointError):
        apply_F(tm, frac(-2, 3))
    with pytest.raises(OutsideDomainError):
        apply_F(tm, normalize_surd(0, -1, 1, 2))
    with pytest.raises(CuspPointError):
        apply_F(t5, INF)


def test_apply_F_approx_budget():
    t5 = branch_table(5)
    x = Approx(0.3, 1e-9)
    x1, lab = apply_F(t5, x)
    assert lab == 1 and isinstance(x1, Approx)
    near = Approx(0.4 + 1e-13, 1e-9)  # within error of the 2/5 endpoint
    with pytest.raises(PrecisionExhausted):
        apply_F(t5, near)


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a, b


def test_cusp_witness_constructive():
    rng = random.Random(13)
    big = lambda: rng.randrange(10**999, 10**1000)
    fib = _fibonacci(28700)  # about 6,000 digits each
    for p in (1, 2, 3, 5, 7, 13):
        rs = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(25)]
        rs += [Fraction(*fib), Fraction(*fib[::-1])]
        # 1,000-digit numerators and denominators in the orbit of inf (p | den) and of 0
        rs += [Fraction(rng.choice((-1, 1)) * big(), p * big()) for _ in range(4)]
        rs += [Fraction(rng.choice((-1, 1)) * big(), p * big() + rng.randint(1, p - 1) if p > 1 else big())
               for _ in range(4)]
        assert {r.denominator % p == 0 for r in rs} == ({True} if p == 1 else {True, False})
        for r in rs:
            orbit, g = cusp_witness(p, r)
            if r.denominator < 100:  # a Rational gives the witness of its Fraction
                assert cusp_witness(p, Rational(r)) == (orbit, g)
            assert g.c % p == 0
            img = g.apply_boundary(Rational(r))
            if orbit == "inf":
                assert r.denominator % p == 0 and img is INF
            else:
                assert r.denominator % p != 0 and img == Rational(0)


def test_code_future_golden_ratio():
    tm = modular_table()
    seq = code_future(tm, Surd(1, 1, 2, 5), 50)
    assert seq.letters == (1, 0)
    assert seq.termination.kind == "periodic"
    assert (seq.termination.preperiod, seq.termination.period) == (0, 2)


def test_code_future_silver_ratio():
    tm = modular_table()
    seq = code_future(tm, Surd(1, 1, 1, 2), 50)  # 1 + sqrt2
    assert seq.letters == (1, 1, 0, 0)
    assert (seq.termination.preperiod, seq.termination.period) == (0, 4)


def test_code_future_rational_cusp():
    t5 = branch_table(5)
    seq = code_future(t5, frac(3, 7), 50)
    assert seq.letters == () and seq.termination.kind == "cusp"
    tm = modular_table()
    seq2 = code_future(tm, frac(7, 3), 50)
    assert seq2.letters == (1, 1, 0, 0)
    assert seq2.termination.kind == "cusp" and seq2.termination.at == frac(1)


def test_code_future_shift_conjugacy():
    rng = random.Random(17)
    for p in PRIMES:
        t = branch_table(p)
        for _ in range(200):
            d = rng.choice(SQUAREFREE)
            x = sample_surd_in(rng, Fraction(-3), Fraction(3), d)
            seq = code_future(t, x, 12)
            if len(seq.letters) < 3:
                continue
            x1, lab = apply_F(t, x)
            seq1 = code_future(t, x1, 11)
            n = min(len(seq.letters) - 1, len(seq1.letters), 8)
            assert seq.letters[0] == lab
            assert seq.letters[1 : n + 1] == seq1.letters[:n]


def test_code_two_sided_golden():
    tm = modular_table()
    phi = Surd(1, 1, 2, 5)
    seq = code_two_sided(tm, phi, Surd(1, -1, 2, 5), 6, 6)
    a0 = seq.letters[seq.origin]
    assert a0 == 1
    # alternating 1,0 in both directions
    for i, l in enumerate(seq.letters):
        assert l == (1 if (i - seq.origin) % 2 == 0 else 0)
    assert seq.past_termination.kind == "step-cap"


def test_code_two_sided_p5():
    t5 = branch_table(5)
    x = normalize_surd(-1, 1, 1, 2)
    y = normalize_surd(0, -1, 1, 2)
    seq = code_two_sided(t5, x, y, 4, 4)
    assert seq.letters[seq.origin] == 2


def _counting_position(monkeypatch):
    calls = []
    position = dynamics._position
    monkeypatch.setattr(dynamics, "_position", lambda *args: calls.append(args) or position(*args))
    return calls


def test_code_future_at_its_cap_looks_up_no_further_start(monkeypatch):
    # one single-letter step: the start at the cap is read only after a run of
    # more than one letter, which could close a period there
    calls = _counting_position(monkeypatch)
    seq = code_future(branch_table(5), normalize_surd(-1, 1, 1, 2), 1)
    assert seq.letters == (2,) and seq.termination == Termination("step-cap", 1)
    assert len(calls) == 1


# past letters of (x, y) for n_past = 6, nearest first, and the first future letter
_TWO_SIDED = [
    (modular_table(), Surd(1, 1, 2, 5), Surd(1, -1, 2, 5), [0, 1, 0, 1, 0, 1], 1),
    (branch_table(2), normalize_surd(-1, 1, 1, 2), normalize_surd(0, -1, 1, 2), [2, 0, 2, 2, 0, 2], 0),
    (branch_table(5), normalize_surd(-1, 1, 1, 2), normalize_surd(0, -1, 1, 2), [5, 5, 1, NEG_INF_LABEL, 4, 2], 2),
    (branch_table(13), normalize_surd(-1, 1, 1, 2), normalize_surd(0, -1, 1, 2), [13, 13, 10, 9, 10, 10], 5),
]


@pytest.mark.parametrize("t, x, y, past, a0", _TWO_SIDED, ids=[row[0].name for row in _TWO_SIDED])
def test_code_two_sided_looks_up_x_once_per_side(t, x, y, past, a0, monkeypatch):
    # the section check's lookup of x serves the first past step, and the
    # future side makes one more; a later past step knows x's gap from the
    # branch it took, and nothing is looked up past either cap.  A lookup
    # bisects the table's cuts; the section tests of y place it against one line
    calls = _counting_position(monkeypatch)
    for n in range(1, 7):
        calls.clear()
        seq = code_two_sided(t, x, y, 1, n)
        assert len([args for args in calls if args[0] is t._pairs]) == 2, n
        assert seq.letters == tuple(reversed(past[:n])) + (a0,) and seq.origin == n
        assert seq.past_termination == Termination("step-cap", n)


def test_code_two_sided_rational_terminates():
    tm = modular_table()
    seq = code_two_sided(tm, frac(3, 2), frac(-1, 2), 10, 10)
    assert seq.termination.kind == "cusp"
    assert seq.past_termination.kind == "cusp"


def test_code_two_sided_rejects_bad_pairs():
    tm = modular_table()
    phi = Surd(1, 1, 2, 5)
    with pytest.raises(ValueError):
        code_two_sided(tm, phi, phi, 4, 4)
    with pytest.raises(ValueError):
        code_two_sided(tm, phi, Surd(0, 1, 1, 2), 4, 4)  # y > 0 not on the section


def test_past_branch_uniqueness_sampled():
    rng = random.Random(23)
    off = 0
    for p in (2, 3, 5):
        t = branch_table(p)
        for _ in range(40):
            d = rng.choice(SQUAREFREE)
            rec = rng.choice(t.branches)
            lo = None if rec.interval.lo is None else rec.interval.lo.fr
            hi = None if rec.interval.hi is None else rec.interval.hi.fr
            x = sample_surd_in(rng, lo, hi, d)
            ylo = None if rec.y_interval.lo is None else rec.y_interval.lo.fr
            yhi = None if rec.y_interval.hi is None else rec.y_interval.hi.fr
            y = sample_surd_in(rng, ylo, yhi, d)
            if rec.rep_dir == +1 and compare(y, Rational(rec.rep_line)) != LESS:
                # in the product rectangle, but with no representative line crossing
                off += 1
                with pytest.raises(ValueError):
                    code_two_sided(t, x, y, 3, 5)
                continue
            # the scan raises AssertionError if a backward step ever has two branches
            seq = code_two_sided(t, x, y, 3, 5)
            letters, term = past_by_scan(t, x, y, 5)
            assert seq.past_termination == term and seq.letters[: seq.origin] == tuple(reversed(letters))
    assert off == 4


def test_accelerate_examples():
    tm = modular_table()
    phi_seq = code_future(tm, Surd(1, 1, 2, 5), 64)
    cf = accelerate_to_cf(phi_seq)
    assert cf.expand(8) == [1] * 8
    silver_seq = code_future(tm, Surd(1, 1, 1, 2), 64)
    cf2 = accelerate_to_cf(silver_seq)
    assert cf2.expand(6) == [2] * 6
    r = code_future(tm, frac(7, 3), 64)
    cf3 = accelerate_to_cf(r)
    assert cf3.complete and list(cf3.digits) == [2, 3]


def test_accelerate_rejects_wrong_table_and_domain():
    t5 = branch_table(5)
    seq = code_future(t5, normalize_surd(0, 1, 1, 2), 10)
    with pytest.raises(ValueError):
        accelerate_to_cf(seq)
    tm = modular_table()
    small = code_future(tm, normalize_surd(0, 1, 3, 2), 10)  # sqrt2/3 < 1
    with pytest.raises(ValueError):
        accelerate_to_cf(small)


def test_cf_oracles():
    assert continued_fraction_rational(Fraction(7, 3)) == [2, 3]
    assert continued_fraction_rational(Fraction(3, 2)) == [1, 2]
    assert continued_fraction_rational(Fraction(4)) == [4]
    pre, per = continued_fraction_surd(Surd(1, 1, 1, 2))
    assert pre == [] and per == [2]
    pre2, per2 = continued_fraction_surd(Surd(0, 1, 1, 3))
    assert pre2 == [1] and per2 == [1, 2]


def test_acceleration_matches_cf_oracle_sampled():
    tm = modular_table()
    rng = random.Random(31)
    for _ in range(40):
        d = rng.choice(SQUAREFREE)
        x = sample_surd_in(rng, Fraction(1), Fraction(30), d, b_max=4, c_range=(5, 40))
        pre, per = continued_fraction_surd(x)
        want = pre + per + per
        seq = code_future(tm, x, 500000)
        assert seq.termination.kind == "periodic"
        cf = accelerate_to_cf(seq, max_digits=2 * len(want) + 16)
        assert cf.expand(len(want)) == want


def test_acceleration_reports_the_minimal_period():
    # an odd digit period spans an even number of letter runs only twice over
    tm = modular_table()
    xs = [normalize_surd(0, 1, 1, d) for d in (2, 5, 10, 13, 41)] + [Surd(1, 1, 2, 5)]
    rng = random.Random(43)
    for _ in range(60):  # (a + sqrt d)/c > 1 with small c, where odd periods are common
        c = rng.choice((1, 2, 3, 5, 7))
        xs.append(normalize_surd(rng.randrange(c, c + 20), 1, c, rng.randrange(2, 300)))
    for x in (x for x in xs if isinstance(x, Surd)):
        pre, per = continued_fraction_surd(x)
        cf = accelerate_to_cf(code_future(tm, x, 500000), max_digits=2 * len(pre + per) + 16)
        assert (list(cf.preperiod), list(cf.period)) == (pre, per), emit_value(x)


def _cf_by_letters(seq, max_digits=64):
    """accelerate_to_cf over the letters: the reference for its reading of the runs."""
    if seq.table_kind != "modular":
        raise ValueError("acceleration is defined only for the modular preset")
    if seq.origin != 0:
        raise ValueError("acceleration expects a future-sided coding")
    letters = seq.letters
    if not letters:
        raise ValueError("empty coding sequence")
    if letters[0] != 1:
        raise ValueError("acceleration needs x > 1 (leading letter 1)")
    rle = lambda letters: [(label, len(list(run))) for label, run in groupby(letters)]
    term = seq.termination
    if term.kind == "cusp":
        runs = rle(letters)
        runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        return CFDigits(tuple(n for _, n in runs), complete=True)
    if term.kind == "periodic":
        # the first position i of the period that starts a run both at i and
        # one period later
        pre, per = term.preperiod, term.period
        stream = letters + letters[pre:]
        i = next(
            t
            for t in range(pre, pre + per)
            if (t == 0 or stream[t - 1] != stream[t]) and stream[t + per - 1] != stream[t + per]
        )
        pre_digits = tuple(n for _, n in rle(letters[:i]))
        per_digits = tuple(n for _, n in rle(stream[i : i + per]))
        half = len(per_digits) // 2
        if per_digits[:half] == per_digits[half:]:
            per_digits = per_digits[:half]
        digits = pre_digits + per_digits
        if len(digits) > max_digits + 1:
            return CFDigits(digits[: max(max_digits, 0)], complete=False)
        return CFDigits(digits, complete=False, preperiod=pre_digits, period=per_digits)
    return CFDigits(tuple(n for _, n in rle(letters)[:-1]), complete=False)


def _period_start(seq):
    """Where the digit period starts among the runs: at the preperiod ("start"), or at
    the next run start, the preperiod starting a run of the last run's letter
    ("same") or ending inside a run ("inside")."""
    pre, start, runs = seq.termination.preperiod, 0, seq.runs
    r = 0
    while start + runs[r][1] <= pre:
        start += runs[r][1]
        r += 1
    if start < pre:
        return "inside"
    return "same" if runs[r][0] == runs[-1][0] else "start"


def test_cf_from_runs_matches_the_letter_reference():
    tm = modular_table()
    rng = random.Random(59)
    xs = [normalize_surd(a, 1, c, d) for a, c, d in ((2, 1, 3), (2, 1, 2), (2, 2, 2), (1, 1, 6), (2, 1, 5))]
    for _ in range(150):  # small c: short periods, odd ones common
        c = rng.choice((1, 2, 3, 5, 7))
        xs.append(normalize_surd(rng.randrange(c, c + 20), 1, c, rng.randrange(2, 300)))
    xs += [sample_surd_in(rng, Fraction(1), Fraction(30), rng.choice(SQUAREFREE), b_max=4, c_range=(5, 40))
           for _ in range(20)]
    xs += [Rational(Fraction(rng.randint(2, 2500), rng.randint(1, 50))) for _ in range(30)]
    xs += [Approx(rng.uniform(0.5, 30), err) for err in (1e-12, 1e-6, 1e-3) for _ in range(10)]
    seen = Counter()
    for x in xs:
        full = code_future(tm, x, 10**5)
        n = len(full.letters)
        for cap in sorted({1, 2, n // 2 or 1, n - 1 or 1, n, 10**5}):
            seq = code_future(tm, x, cap)
            kind = seq.termination.kind
            for max_digits in (0, 1, 2, 5, 64):
                got = _outcome(accelerate_to_cf, seq, max_digits)
                assert got == _outcome(_cf_by_letters, seq, max_digits), (emit_value(x), cap, max_digits)
                seen["truncated"] += kind == "periodic" and not isinstance(got, tuple) and got.period is None
            seen[kind] += 1
            if kind == "periodic":
                seen[_period_start(seq)] += 1
                seen["odd period"] += len(accelerate_to_cf(seq, n).period) % 2
    want = {"start", "same", "inside", "odd period", "truncated", "step-cap", "cusp", "precision-exhausted"}
    assert want <= set(+seen), seen


def test_cusp_orbit_charaterization():
    # reduced r/s is in the inf-orbit iff p | s, else the 0-orbit
    rng = random.Random(37)
    for _ in range(100):
        r = Fraction(rng.randint(-200, 200), rng.randint(1, 60))
        orbit, g = cusp_witness(5, r)
        assert orbit == ("inf" if r.denominator % 5 == 0 else "zero")


# --- the partition against brute-force scans of the branch records --------------


def _scan_branch_of(t, x):
    """Branch lookup by scanning every record's interval in order."""
    if x is INF:
        raise CuspPointError(x, "inf", None)
    if isinstance(x, Rational):
        if t.p == 1:
            for rec in t.branches:
                if rec.interval.contains(x):
                    return rec
        raise CuspPointError(x, *cusp_witness(t.p, x.fr))
    if isinstance(x, Approx):
        for rec in t.branches:
            for e in (rec.interval.lo, rec.interval.hi):
                if e is not None and abs(e.to_float() - x.value) <= x.err:
                    raise PrecisionExhausted(
                        f"approx value {x.value!r} within error {x.err!r} of endpoint {emit_value(e)}"
                    )
            if rec.interval.contains(x):
                return rec
        raise OutsideDomainError(f"approx value {x.value!r} is outside the table domain")
    for rec in t.branches:
        if rec.interval.contains(x):
            return rec
    raise OutsideDomainError(f"{emit_value(x)} is outside the table domain")


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as err:
        extra = (err.orbit, err.witness) if isinstance(err, CuspPointError) else ()
        return type(err), str(err), extra


def _partition_points(t, rng):
    cuts = sorted({e for rec in t.branches for e in (rec.interval.lo, rec.interval.hi) if e is not None},
                  key=lambda e: e.fr)
    points = list(cuts) + [INF]
    for _ in range(60):
        lo = Fraction(rng.randint(-30, 30), rng.randint(1, 40))
        points.append(Rational(lo))
        points.append(sample_surd_in(rng, lo - 1, lo + 1, rng.choice(SQUAREFREE)))
    for c in cuts + [Rational(Fraction(1, 3)), Rational(-2)]:
        for err in (1e-12, 1e-6, 0.3):
            for shift in (-2, -0.5, 0, 0.5, 2):
                points.append(Approx(c.to_float() + shift * err, err))
    for a, b in zip(cuts, cuts[1:]):  # within error of exactly two adjacent cuts
        points.append(Approx((a.to_float() + b.to_float()) / 2, 0.6 * (b.to_float() - a.to_float())))
    return points


TABLES = [modular_table()] + [branch_table(p) for p in (2, 3, 5, 13)]


@pytest.mark.parametrize("t", TABLES, ids=lambda t: t.name)
def test_branch_lookup_matches_interval_scan(t):
    rng = random.Random(41)
    for x in _partition_points(t, rng):
        # positions: 2i for the gap below cut i, 2i + 1 for cut i; a range for an Approx
        on = [2 * i + 1 for i, c in enumerate(t._cuts) if compare(x, c) == 0]
        above = 2 * sum(compare(x, c) == 1 for c in t._cuts)
        assert t._locate(x) == ((on[0], on[-1]) if on else (above, above)), x
        assert _outcome(t.branch_of, x) == _outcome(_scan_branch_of, t, x), x
        want = next((rec for rec in t.branches if rec.interval.contains(x)), None)
        assert t.branch_at(x) is want, x


@pytest.mark.parametrize("t", TABLES, ids=lambda t: t.name)
def test_approx_ends_on_cuts_are_located_as_the_scan_places_them(t):
    # intervals with one or both ends exactly on a cut; cuts with denominator 2^k are floats
    dyadic = [c.to_float() for c in t._cuts if c.denominator & (c.denominator - 1) == 0]
    e = 2.0**-10
    points = [Approx(u + s * e, e) for u in dyadic for s in (-1, 1)]
    points += [Approx((u + v) / 2, (v - u) / 2) for u in dyadic for v in dyadic if u <= v]
    for x in points:
        on = [2 * i + 1 for i, c in enumerate(t._cuts) if compare(x, c) == 0]
        above = 2 * sum(compare(x, c) == 1 for c in t._cuts)
        assert t._locate(x) == ((on[0], on[-1]) if on else (above, above)), x
        assert _outcome(t.branch_of, x) == _outcome(_scan_branch_of, t, x), x


@pytest.mark.parametrize("t", TABLES, ids=lambda t: t.name)
def test_inverse_branches_match_image_scan(t):
    rng = random.Random(43)
    ends = [e for rec in t.branches for e in (rec.image.lo, rec.image.hi) if e is not None]
    assert t.inverse_branches(INF) == []
    for x in _partition_points(t, rng):
        if x is INF:
            continue
        want = [rec for rec in t.branches if rec.image.contains(x)]
        if any(compare(x, e) == 0 for e in ends):
            with pytest.raises(ValueError, match="image-interval boundary"):
                t.inverse_branches(x)
        else:
            assert t.inverse_branches(x) == want, x


@pytest.mark.parametrize("t", TABLES, ids=lambda t: t.name)
def test_on_section_matches_rectangle_and_line(t):
    # the reduced section as the product rectangle cut at the representative line
    def reference(rec, y):
        below = rec.rep_dir != +1 or compare(y, Rational(rec.rep_line)) == LESS
        return rec.y_interval.contains(y) and below

    rng = random.Random(47)
    ys = [y for y in _partition_points(t, rng) if not isinstance(y, Approx)]
    for rec in t.branches:
        line = rec.rep_line
        ys += [Rational(line), sample_surd_in(rng, line - 1, line, 2), sample_surd_in(rng, line, line + 1, 3)]
    for rec in t.branches:
        for y in ys:
            assert on_section(rec, y) == reference(rec, y), (rec.label, y)


@pytest.mark.parametrize("t", TABLES, ids=lambda t: t.name)
def test_on_section_refuses_an_approx_on_the_line(t):
    for rec in t.branches:
        line = float(rec.rep_line)
        with pytest.raises(PrecisionExhausted):
            on_section(rec, Approx(line, 1e-9))
        assert on_section(rec, Approx(line - rec.rep_dir, 1e-9)) is True
        assert on_section(rec, Approx(line + rec.rep_dir, 1e-9)) is False


@pytest.mark.parametrize("t", TABLES, ids=lambda t: t.name)
def test_on_section_parts_agree_with_compare(t):
    # the integer sign rule on the parts of y against the value compare it replaced
    rng = random.Random(53)
    for rec in t.branches:
        line = rec.rep_line
        ys = [Rational(line), Rational(line + Fraction(1, 7)), Rational(line - Fraction(1, 1009))]
        ys += [Rational(Fraction(rng.randint(-400, 400), rng.randint(1, 60))) for _ in range(20)]
        for d in (2, 3, 5, 7, 13, 101, 9998):
            for lo, hi in ((line - 1, line), (line, line + 1), (line - 50, line + 50)):
                ys.append(sample_surd_in(rng, lo, hi, d))
        ys += [Approx(float(line) + s, 1e-9) for s in (-0.5, -1e-6, 1e-6, 0.5)]
        for y in ys:
            side = compare(y, Rational(line))
            assert side != 0 or not isinstance(y, Approx)
            assert on_section(rec, y) == (side == -rec.rep_dir), (rec.label, y)
        for err in (1e-12, 1e-3):
            with pytest.raises(PrecisionExhausted):
                on_section(rec, Approx(float(line), err))
        assert on_section(rec, INF) is False


def _contained(inner, outer):
    lo_ok = outer.lo is None or (inner.lo is not None and compare(outer.lo, inner.lo) != 1)
    hi_ok = outer.hi is None or (inner.hi is not None and compare(inner.hi, outer.hi) != 1)
    return lo_ok and hi_ok


@pytest.mark.parametrize("t", TABLES, ids=lambda t: t.name)
def test_follows_is_image_containment(t):
    for k, rec in enumerate(t.branches):
        want = tuple(j for j, rj in enumerate(t.branches) if _contained(rj.interval, rec.image))
        assert t.follows(k) == want


def test_markov_check_fails_off_the_partition():
    tm = modular_table()
    r0, r1 = tm.branches
    half = Rational(Fraction(1, 2))
    # image ends that are not cuts
    off_cut = BranchTable(p=1, branches=(dataclasses.replace(r0, image=Interval(half, None)), r1))
    assert not off_cut.check_markov()
    assert off_cut.follows(0) == (1,)
    off_cut_hi = BranchTable(p=1, branches=(dataclasses.replace(r0, image=Interval(Rational(0), half)), r1))
    assert not off_cut_hi.check_markov()
    assert off_cut_hi.follows(0) == ()
    # an image that covers the gap below 0, where no branch lies
    over_gap = BranchTable(p=1, branches=(dataclasses.replace(r0, image=Interval(None, None)), r1))
    assert not over_gap.check_markov()
    assert tm.check_markov()
    with pytest.raises(ValueError, match="consecutive"):
        BranchTable(p=1, branches=(r1, r0))


def test_tables_refuse_an_empty_branch():
    r0, r1 = modular_table().branches
    empty = dataclasses.replace(r0, interval=Interval(Rational(1), Rational(1)))
    with pytest.raises(ValueError, match="nonempty"):
        BranchTable(p=1, branches=(r0, empty, r1))


def test_image_ends_are_placed_as_bisection_places_them():
    r0, r1 = modular_table().branches
    half = Rational(Fraction(1, 2))
    off_cut = BranchTable(p=1, branches=(dataclasses.replace(r0, image=Interval(half, Rational(1))), r1))
    assert not off_cut.check_markov()
    tables = [modular_table(), off_cut] + [branch_table(p) for p in (2, 3, 5, 13, 211)]
    for t in tables:
        end = lambda e, unbounded: unbounded if e is None else t._locate(e)[0]
        assert t._images == tuple((end(r.image.lo, -1), end(r.image.hi, len(t._at))) for r in t.branches)


# --- jump coding against the letter-by-letter loop --------------------------------


def _code_future_by_letter(t, x, max_steps, keep_states=False):
    """The coding with one apply_F per letter: the reference for code_future's run jumps.

    With keep_states it returns the coding and its orbit states, x first.
    """
    letters, states, term = [], [x], None
    seen = {x: 0} if x.is_exact() else {}
    for step in range(max_steps):
        try:
            nxt, label = apply_F(t, states[-1])
        except CuspPointError as err:
            term = Termination("cusp", step, at=err.value)
            break
        except PrecisionExhausted:
            term = Termination("precision-exhausted", step, at=states[-1])
            break
        letters.append(label)
        states.append(nxt)
        if nxt.is_exact():
            if nxt in seen:
                pre = seen[nxt]
                term = Termination("periodic", step + 1, preperiod=pre, period=step + 1 - pre)
                break
            seen[nxt] = step + 1
    if term is None:
        term = Termination("step-cap", len(letters))
    seq = CodingSequence(t.name, tuple((label, len(list(run))) for label, run in groupby(letters)), term)
    return (seq, states) if keep_states else seq


def _jump_inputs(t, rng):
    lo, hi = (Fraction(0), Fraction(12)) if t.p == 1 else (Fraction(-3), Fraction(3))
    xs = [sample_surd_in(rng, lo, hi, rng.choice(SQUAREFREE), b_max=3, c_range=(5, 20)) for _ in range(14)]
    xs += [Rational(Fraction(rng.randint(1, 400), rng.randint(1, 30))) for _ in range(6)]
    xs += [Approx(rng.uniform(float(lo), float(hi)), err) for err in (1e-12, 1e-9, 1e-6) for _ in range(2)]
    return xs + [normalize_surd(0, -1, 1, 2), INF]


@pytest.mark.parametrize("t", TABLES, ids=lambda t: t.name)
def test_jump_coding_matches_letter_loop(t):
    rng = random.Random(53)
    for x in _jump_inputs(t, rng):
        full = _outcome(_code_future_by_letter, t, x, 601)
        if isinstance(full, tuple):  # outside the modular domain
            assert _outcome(code_future, t, x, 1) == full
            continue
        n, pre, per = len(full.letters), full.termination.preperiod or 0, full.termination.period or 0
        if n > 600:  # keep the letter loop's share of the suite small
            continue
        caps = {1, 2, 3, pre, pre + 1, pre + per - 1, pre + per, pre + per + 1, n - 1, n, n + 1,
                rng.randint(1, n + 2)}
        for cap in sorted(c for c in caps if c >= 1):
            seq, want = code_future(t, x, cap), _code_future_by_letter(t, x, cap)
            assert seq == want, (x, cap)
            assert _maximal(seq.runs) and seq.letters == want.letters, (x, cap)


def _maximal(runs):
    """Whether runs are maximal (label, n): n >= 1 and neighbouring labels differ."""
    return all(n >= 1 for _, n in runs) and all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))


@pytest.mark.parametrize("t", TABLES, ids=lambda t: t.name)
def test_code_trace_prints_the_letter_loop_states(t, capsys, monkeypatch):
    monkeypatch.delenv("CUSPDYN_APPROX_ERR", raising=False)
    level = ["--modular"] if t.p == 1 else ["--p", str(t.p)]
    surd = "surd:(0+1*sqrt(101))/1"  # starts with a run of 10 letters at every level
    letters = _code_future_by_letter(t, parse_value(surd), 40).letters
    inside = [n for n in range(1, len(letters)) if letters[n - 1] == letters[n]]
    starts = [n for n in range(1, len(letters)) if letters[n - 1] != letters[n]]
    assert inside and starts
    cases = [("rat:1000001/2", 7), ("approx:10.04987562112089", 100), (surd, inside[len(inside) // 2]), (surd, starts[0]),
             (surd, starts[-1]), (surd, inside[-1])]
    for value, cap in cases:
        assert main(["code", *level, "--x", value, "--steps", str(cap), "--trace"]) == 0
        data = json.loads(capsys.readouterr().out)
        seq, states = _code_future_by_letter(t, parse_value(value, 1e-12), cap, keep_states=True)
        assert data == {**seq.to_json(), "states": [emit_value(s) for s in states]}, (value, cap)


@pytest.mark.parametrize("t", TABLES + [branch_table(p) for p in (7, 11, 17, 101, 211)], ids=lambda t: t.name)
def test_run_letters_are_the_parabolic_ones_that_follow_themselves(t):
    # hyperbolic branches that follow themselves (trace 3 for p = 5 and 11) take single steps
    assert set(t._runs) == ({0, 1} if t.p == 1 else {-1, 0, t.p})
    for k, rec in enumerate(t.branches):
        g = rec.h_inv
        assert (rec.label in t._runs) == (abs(g.a + g.d) == 2 and k in t.follows(k)), rec.label
    for label, (_, (a, b, c, d)) in t._runs.items():
        g = t.branch(label).h_inv
        assert g * g * g == GroupElement(1 + 3 * a, 3 * b, 3 * c, 1 + 3 * d)


@pytest.mark.parametrize("p", (2, 3, 5, 13))
def test_parabolic_run_needs_a_fixed_end(p):
    # F of the -inf branch is parabolic and fixes 0, which is not an end of (-inf, -1/p)
    rec = branch_table(p).branch(NEG_INF_LABEL)
    g = rec.h_inv
    assert abs(g.a + g.d) == 2 and g.apply_boundary(Rational(0)) == Rational(0)
    assert _parabolic_run(rec) is None


def test_tables_build_without_transitions(monkeypatch):
    def refuse(self, k):
        raise AssertionError("a table build asked for the transitions")

    monkeypatch.setattr(BranchTable, "follows", refuse)
    for t in (modular_table(), branch_table(2), branch_table(13)):
        assert set(t._runs) == ({0, 1} if t.p == 1 else {-1, 0, t.p})


def test_period_closing_at_the_cap_inside_a_run():
    # 2 + sqrt3 = [3; 1, 2, 1, 2, ...] codes 1 1 1 0 (1 1 0)...: the period
    # starts inside the first run, so at cap 4 = preperiod + period the
    # repeat is seen only at the second step start past the cap
    tm = modular_table()
    x = Surd(2, 1, 1, 3)
    seq = code_future(tm, x, 4)
    assert seq.letters == (1, 1, 1, 0)
    assert seq.termination == Termination("periodic", 4, preperiod=1, period=3)
    assert code_future(tm, x, 3).termination == Termination("step-cap", 3)


def test_a_long_run_is_kept_as_one_pair():
    # 10000001/2 runs 5000000 letters 1, then one letter 0 to the cusp 1, and
    # the coding holds two runs; letters spells them out only when read
    seq = code_future(modular_table(), Rational(Fraction(10000001, 2)), 10000001)
    assert seq.runs == ((1, 5000000), (0, 1)) and "letters" not in vars(seq)
    assert seq.termination == Termination("cusp", 5000001, at=Rational(1))
    assert accelerate_to_cf(seq).digits == (5000000, 2) and "letters" not in vars(seq)


def test_jump_coding_applies_one_element_per_run(monkeypatch):
    tm = modular_table()
    calls = []
    image = dynamics._form_image
    monkeypatch.setattr(dynamics, "_form_image", lambda g, *form: calls.append(g) or image(g, *form))
    seq = code_future(tm, Rational(Fraction(1000001, 2)), 10**6)
    # 1000001/2 runs 500000 letters 1 to 1/2, one letter 0 to the cusp 1
    assert seq.letters == (1,) * 500000 + (0,)
    assert seq.termination == Termination("cusp", 500001, at=Rational(1))
    assert len(calls) == 2


def test_coding_builds_no_values_on_long_periods(monkeypatch):
    # the run-heavy orbits of the coding benchmark step on integer parts alone
    cases = [(modular_table(), "surd:(564+147*sqrt(10))/25", 4, 47360),
             (branch_table(5), "surd:(157+4*sqrt(26))/200", 0, 1312)]
    want = [code_future(t, parse_value(x), 10**6) for t, x, _, _ in cases]

    def refuse(*args):
        raise AssertionError("the coding loop went through the value layer")

    monkeypatch.setattr(GroupElement, "apply_boundary", refuse)
    monkeypatch.setattr(exact, "compare", refuse)
    monkeypatch.setattr(dynamics, "compare", refuse)
    for (t, x, pre, per), seq in zip(cases, want):
        assert seq.termination == Termination("periodic", pre + per, preperiod=pre, period=per)
        assert code_future(t, parse_value(x), 10**6) == seq


def test_coding_takes_its_square_roots_and_gcd_once_per_call(monkeypatch):
    # one gcd scales the form and one isqrt per run determinant sets the run
    # lengths up; the steps take none, however many there are
    cases = [(modular_table(), "surd:(564+147*sqrt(10))/25", 4, 47360),
             (branch_table(5), "surd:(157+4*sqrt(26))/200", 0, 1312)]
    calls = Counter()
    isqrt, gcd = math.isqrt, math.gcd
    monkeypatch.setattr(math, "isqrt", lambda n: calls.update(["isqrt"]) or isqrt(n))
    monkeypatch.setattr(math, "gcd", lambda *args: calls.update(["gcd"]) or gcd(*args))
    for t, x, pre, per in cases:
        x = parse_value(x)
        for cap in (1, 2, 100, pre + per - 1, 10**6):
            calls.clear()
            seq = code_future(t, x, cap)
            assert calls == Counter(isqrt=len(t._dets), gcd=1), (t.name, cap)
        assert seq.termination == Termination("periodic", pre + per, preperiod=pre, period=per)


_PRIMES = [q for q in range(2, 100) if all(q % f for f in range(2, q))]


def _squarefree(rng):
    """A squarefree radicand up to exact.MAX_RADICAND: the prime 999999999989 or a
    product of distinct primes below 100."""
    if rng.random() < 0.25:
        return 999999999989
    d = 1
    for q in rng.sample(_PRIMES, rng.randint(1, 12)):
        if d * q <= exact.MAX_RADICAND:
            d *= q
    return d


def _form_inputs(t, rng):
    """Values whose forms exercise the scaling: (1 +- sqrt 2)/7 and (5 - sqrt 2)/7 need
    their discriminant scaled (7 does not divide b^2 d - a^2), random surds of
    either sign of b with radicands up to MAX_RADICAND and c up to 10^9, then
    rationals and Approx values."""
    lo, hi = (0, 12) if t.p == 1 else (-3, 3)
    xs = [normalize_surd(1, 1, 7, 2), normalize_surd(1, -1, 7, 2), normalize_surd(5, -1, 7, 2)]
    for _ in range(9):
        d = _squarefree(rng)
        c = rng.choice((rng.randint(1, 60), rng.randint(1, 10**9)))
        b = rng.choice((-1, 1)) * rng.randint(1, 40)
        root = math.isqrt(b * b * d)  # about |b| sqrt(d)
        xs.append(exact._surd(int(c * rng.uniform(lo, hi)) - (root if b > 0 else -root), b, c, d))
    xs += [Rational(Fraction(rng.randint(1, 400), rng.randint(1, 30))) for _ in range(3)]
    return xs + [Approx(rng.uniform(lo, hi), err) for err in (1e-12, 1e-6)]


@pytest.mark.parametrize("t", TABLES, ids=lambda t: t.name)
def test_form_coding_matches_letter_loop(t):
    rng = random.Random(61)
    xs = _form_inputs(t, rng)
    surds = [x for x in xs if isinstance(x, Surd)]
    scale = [exact._form(x.a, x.b, x.c, x.d)[3] // abs(x.b) for x in surds]
    assert max(scale) > 1 and min(x.b for x in surds) < 0
    assert max(x.d for x in surds) > 10**11 and max(x.c for x in surds) > 10**8
    for x in xs:
        full = _outcome(_code_future_by_letter, t, x, 401)
        if isinstance(full, tuple):  # outside the modular domain
            assert _outcome(code_future, t, x, 1) == full
            continue
        term = full.termination
        caps = {1, 2, rng.randint(1, len(full.letters) + 2)}
        if term.kind == "periodic":
            pre, per = term.preperiod, term.period
            caps |= {pre, pre + per, pre + per + 1}
        for cap in sorted(c for c in caps if c >= 1):
            assert code_future(t, x, cap) == _code_future_by_letter(t, x, cap), (x, cap)


def test_a_modular_value_at_most_zero_is_refused_by_its_value():
    tm = modular_table()
    for x in (normalize_surd(1, -1, 7, 2), normalize_surd(0, -1, 1, 2), normalize_surd(-3, 1, 1, 5),
              exact._surd(-3 * 10**6, 3, 10**9 + 7, 999999999989)):
        with pytest.raises(OutsideDomainError) as err:
            code_future(tm, x, 5)
        assert str(err.value) == f"{emit_value(x)} is outside the table domain"


@pytest.mark.parametrize("t", TABLES, ids=lambda t: t.name)
def test_run_length_is_the_ceiling_of_the_run_matrix(t):
    # surds of either sign of b (so of Q) and rationals, some at integers of M x,
    # against the reference ceil_moebius
    rng = random.Random(67)
    xs = [sample_surd_in(rng, Fraction(-6), Fraction(6), rng.choice(SQUAREFREE)) for _ in range(40)]
    xs += [-x for x in xs] + [Rational(Fraction(rng.randint(-60, 60), rng.randint(1, 12))) for _ in range(40)]
    for M, _, det in {row[2] for row in t._steps if row[2]}:
        for x in xs:
            if x.is_exact() and isinstance(x, Rational) and M[2] * x.numerator + M[3] * x.denominator == 0:
                continue  # x on the pole of M
            a, b, c, d = exact._parts(x)
            P, Q, N, s = exact._form(a, b, c, d)
            roots = dynamics._run_roots(t._dets, s * s * d)
            v = roots[det] if det > 0 else -roots[-det]
            assert dynamics._run_length(M, P, Q, N, v) == ceil_moebius(M, x), (M, x)


# --- the past side of an exact y steps on its quadratic form --------------------

_PHI = normalize_surd(1, 1, 2, 5)
_Y_SCALED = normalize_surd(-5, -1, 3, 2)  # b < 0, and its form is scaled by 3
# table, y, whether x is Approx(phi) rather than phi, letters, termination and past
# termination of code_two_sided(table, x, y, 6, 8); y = -(q+1)/q steps to -1/q,
# the pole of branch 0's element.  Computed when the past side still mapped y by
# GroupElement.apply_boundary
_PINNED_TWO_SIDED = [
    (TABLES[0], _Y_SCALED, False, [0, 0, 0, 0, 0, 0, 1, 1, 1, 0],
     Termination("periodic", 2, preperiod=0, period=2), Termination("step-cap", 8)),
    (TABLES[0], _Y_SCALED, True, [0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 0],
     Termination("step-cap", 6), Termination("step-cap", 8)),
    (TABLES[0], Rational(-2, 1), False, [1, 1, 0],
     Termination("periodic", 2, preperiod=0, period=2), Termination("cusp", 1, at=Rational(-1, 1))),
    (TABLES[0], Rational(-2, 1), True, [1, 1, 0, 1, 0, 1, 0],
     Termination("step-cap", 6), Termination("cusp", 1, at=Rational(-1, 1))),
    (TABLES[1], _Y_SCALED, False, [-1, NEG_INF_LABEL, 2, 0, 0, 0, 2, 2, 2, 1, NEG_INF_LABEL, 1, NEG_INF_LABEL, 2],
     Termination("periodic", 6, preperiod=0, period=6), Termination("step-cap", 8)),
    (TABLES[1], _Y_SCALED, True, [-1, NEG_INF_LABEL, 2, 0, 0, 0, 2, 2, 2, 1, NEG_INF_LABEL, 1, NEG_INF_LABEL, 2],
     Termination("step-cap", 6), Termination("step-cap", 8)),
    (TABLES[1], Rational(-3, 2), False, [2, 2, 1, NEG_INF_LABEL, 1, NEG_INF_LABEL, 2],
     Termination("periodic", 6, preperiod=0, period=6), Termination("cusp", 1, at=Rational(-1, 2))),
    (TABLES[1], Rational(-3, 2), True, [2, 2, 1, NEG_INF_LABEL, 1, NEG_INF_LABEL, 2],
     Termination("step-cap", 6), Termination("cusp", 1, at=Rational(-1, 2))),
    (TABLES[2], _Y_SCALED, False, [0, 2, NEG_INF_LABEL, 3, 0, 0, 3, 3, 3, 1, 3],
     Termination("periodic", 3, preperiod=0, period=3), Termination("step-cap", 8)),
    (TABLES[2], _Y_SCALED, True, [0, 2, NEG_INF_LABEL, 3, 0, 0, 3, 3, 3, 1, 3, 3, 1, 3],
     Termination("step-cap", 6), Termination("step-cap", 8)),
    (TABLES[2], Rational(-4, 3), False, [3, 3, 1, 3],
     Termination("periodic", 3, preperiod=0, period=3), Termination("cusp", 1, at=Rational(-1, 3))),
    (TABLES[2], Rational(-4, 3), True, [3, 3, 1, 3, 3, 1, 3],
     Termination("step-cap", 6), Termination("cusp", 1, at=Rational(-1, 3))),
    (TABLES[3], _Y_SCALED, False, [2, 4, NEG_INF_LABEL, 1, 5, 0, 5, 5, 5, 3, 2, 4, NEG_INF_LABEL, 1],
     Termination("step-cap", 6), Termination("step-cap", 8)),
    (TABLES[3], _Y_SCALED, True, [2, 4, NEG_INF_LABEL, 1, 5, 0, 5, 5, 5, 3, 2, 4, NEG_INF_LABEL, 1],
     Termination("step-cap", 6), Termination("step-cap", 8)),
    (TABLES[3], Rational(-6, 5), False, [5, 5, 3, 2, 4, NEG_INF_LABEL, 1],
     Termination("step-cap", 6), Termination("cusp", 1, at=Rational(-1, 5))),
    (TABLES[3], Rational(-6, 5), True, [5, 5, 3, 2, 4, NEG_INF_LABEL, 1],
     Termination("step-cap", 6), Termination("cusp", 1, at=Rational(-1, 5))),
    (TABLES[4], _Y_SCALED, False, [10, 8, 13, 5, 6, 13, 13, 13, 13, 8, 11, 2, 5, 3],
     Termination("step-cap", 6), Termination("step-cap", 8)),
    (TABLES[4], _Y_SCALED, True, [10, 8, 13, 5, 6, 13, 13, 13, 13, 8, 11, 2, 5, 3],
     Termination("step-cap", 6), Termination("step-cap", 8)),
    (TABLES[4], Rational(-14, 13), False, [13, 13, 8, 11, 2, 5, 3],
     Termination("step-cap", 6), Termination("cusp", 1, at=Rational(-1, 13))),
    (TABLES[4], Rational(-14, 13), True, [13, 13, 8, 11, 2, 5, 3],
     Termination("step-cap", 6), Termination("cusp", 1, at=Rational(-1, 13))),
]


@pytest.mark.parametrize(
    "t, y, approx, letters, term, past_term", _PINNED_TWO_SIDED,
    ids=[f"{r[0].name}-{emit_value(r[1])}-{'approx' if r[2] else 'exact'}" for r in _PINNED_TWO_SIDED],
)
def test_an_exact_y_steps_without_moebius_values(t, y, approx, letters, term, past_term, monkeypatch):
    # an exact y takes the form path whatever x is, an Approx x included, so no
    # value is mapped on either side
    def refuse(self, v):
        raise AssertionError(f"apply_boundary({emit_value(v)}) called")

    x = Approx(_PHI.to_float()) if approx else _PHI
    monkeypatch.setattr(GroupElement, "apply_boundary", refuse)
    seq = code_two_sided(t, x, y, 6, 8)
    assert list(seq.letters) == letters and seq.origin == past_term.step
    assert (seq.termination, seq.past_termination) == (term, past_term)


@pytest.mark.parametrize("t", TABLES, ids=lambda t: t.name)
def test_a_pole_image_of_y_takes_no_past_branch(t):
    # the past side reaches y = -1/q, which branch 0's element, one of those whose
    # image holds x, sends to inf; inf lies beyond no representative line, so that
    # branch does not take y, no other does, and the past side ends at the cusp
    q, y = t.p, Rational(-1, t.p)
    poles = [rec for rec in t.inverse_branches(_PHI) if rec.h.apply_boundary(y) is INF]
    assert [rec.label for rec in poles] == [0]
    P, Q, N, _ = exact._form(*exact._parts(y))
    assert exact._form_image(poles[0].h.key(), P, Q, N)[1] == 0
    assert not any(on_section(rec, INF) for rec in t.branches)
    seq = code_two_sided(t, _PHI, Rational(-(q + 1), q), 6, 8)
    assert seq.past_termination == Termination("cusp", 1, at=y)


# --- Approx intervals: every reported letter is that of every point ------------

_OFFSET = Surd(0, 1, 10**60, 2)  # 10^-60 sqrt(2): exact points just inside an interval's ends


def _letters_at_both_ends(t, x, n):
    """Letter-by-letter codings of n letters of the exact points lo + 10^-60 sqrt2 and hi - 10^-60 sqrt2."""
    return [_code_future_by_letter(t, e, n).letters for e in (x.lo + _OFFSET, x.hi - _OFFSET)]


@given(st.sampled_from(TABLES), st.floats(0, 1), st.sampled_from((1e-12, 1e-6, 1e-3)))
@settings(max_examples=200, deadline=None)
def test_approx_letters_hold_for_the_whole_interval(t, u, err):
    lo, hi = (0, 12) if t.p == 1 else (-3, 3)
    x = Approx(lo + (hi - lo) * u, err)
    letters = code_future(t, x, 200).letters
    if letters:
        assert _letters_at_both_ends(t, x, len(letters)) == [letters, letters]


@pytest.mark.parametrize("t, v, err, n", [
    (branch_table(2), 2.1113077514094725, 1e-12, 70),
    (branch_table(2), -2.420509706659658, 1e-6, 19),
    (modular_table(), 2.20747578431883, 1e-3, 11),
], ids=["p2-1e-12", "p2-1e-6", "modular-1e-3"])
def test_approx_coding_stops_before_the_ends_disagree(t, v, err, n):
    # the two ends of the interval first disagree at letter n
    x = Approx(v, err)
    seq = code_future(t, x, 100)
    assert seq.termination.kind == "precision-exhausted" and len(seq.letters) < n
    ends = _letters_at_both_ends(t, x, n)
    assert ends[0][: n - 1] == ends[1][: n - 1] and ends[0][n - 1] != ends[1][n - 1]
    assert ends[0][: len(seq.letters)] == seq.letters


def test_approx_run_jump_takes_the_shorter_end():
    # [1/2^20 - e, 1/2^20 + e] runs letter 0 of the modular table ceil(1/x - 1) times from either end
    tm = modular_table()
    x = Approx(2.0**-20, 2.0**-40)
    seq = code_future(tm, x, 10**7)
    n = min(-(-(xe.denominator - xe.numerator) // xe.numerator) for xe in (x.lo, x.hi))
    assert seq.letters == (0,) * n
    assert (seq.termination.kind, seq.termination.step) == ("precision-exhausted", n)


# --- the past side: per-branch partitions against the covering scan ----------

PAST_TABLES = TABLES + [branch_table(p) for p in (7, 31)]


@pytest.mark.parametrize("p", (1, 2, 3, 5, 7, 13, 31, 211))
def test_past_partitions_tile_every_section(p):
    # each branch's past partition has increasing cuts, None on them, and one gap per
    # branch whose image holds the branch's gap
    t = modular_table() if p == 1 else branch_table(p)
    for j in range(len(t.branches)):
        cuts, at = t._past(j)
        assert all(n * m2 < n2 * m and m > 0 < m2 for (n, m), (n2, m2) in zip(cuts, cuts[1:])), j
        assert len(at) == 2 * len(cuts) + 1 and not any(at[1::2]), j
        gap = t._at.index(j)
        want = [k for k, (lo, hi) in enumerate(t._images) if lo < gap < hi]
        assert sorted(k for k in at if k is not None) == want, j
        assert t._past(j) is t._past(j)


@pytest.mark.parametrize("p, label, line", [
    (1, 0, Fraction(1, 2)), (1, 0, Fraction(-1)), (5, 2, Fraction(3, 10)), (13, 13, Fraction(1)),
    (13, -1, Fraction(-1, 26)),
])
def test_a_past_partition_that_does_not_tile_raises(p, label, line):
    # a representative line moved off its place: the arcs into that branch's
    # section no longer tile it, so the past side raises rather than take a
    # letter.  At -1, the modular branch 0 ends its chain at a cut of the old
    # partition, and its own arc is left over
    t = modular_table() if p == 1 else branch_table(p)
    k = t.labels.index(label)
    moved = t.branches[k]
    branches = t.branches[:k] + (dataclasses.replace(moved, rep_line=line),) + t.branches[k + 1 :]
    bad = BranchTable(p=t.p, branches=branches)
    with pytest.raises(AssertionError, match="do not tile"):
        bad._past(k)
    lo, hi = (None if e is None else e.fr for e in (moved.interval.lo, moved.interval.hi))
    x = sample_surd_in(random.Random(5), lo, hi, 2)
    y = Rational(line - 1000 * moved.rep_dir)
    with pytest.raises(AssertionError, match="do not tile"):
        code_two_sided(bad, x, y, 1, 1)


def test_a_past_chain_that_wraps_through_inf_raises():
    # the modular branch 0's section (-inf, 0) is tiled by the arcs (-inf, -1) of
    # branch 1 and (-1, 0) of branch 0; arcs inf -> 1 -> 0 chain from start to
    # stop and use both, but the second passes through inf
    t = modular_table()
    assert t._past(0) == (((-1, 1), (0, 1)), (1, None, 0, None, None))
    wrapped = modular_table()
    object.__setattr__(wrapped, "_arcs", (((1, 1), (0, 1)), ((1, 0), (1, 1))))
    with pytest.raises(AssertionError, match="do not tile"):
        wrapped._past(0)


def _past_pair(t, rng, x_kind, y_kind, err):
    """(x, y) over a random branch, x in its interval and y beyond its line, or None
    where the section check refuses the pair (an Approx within err of a cut or line)."""
    rec = rng.choice(t.branches)
    lo, hi = (None if e is None else e.fr for e in (rec.interval.lo, rec.interval.hi))
    x = sample_surd_in(rng, lo, hi, rng.choice(SQUAREFREE))
    if x_kind == "approx":
        x = Approx(x.to_float(), err)
    elif x_kind == "rational" and t.p == 1:
        x = Rational(Fraction(x.to_float()).limit_denominator(1000))
    line, u = rec.rep_line, Fraction(rng.randint(1, 3000), rng.randint(1, 300))
    if y_kind == "surd":
        ends = (None, line) if rec.rep_dir == 1 else (line, None)
        y = sample_surd_in(rng, *ends, rng.choice(SQUAREFREE))
    else:
        y = Rational(line - rec.rep_dir * u)
        y = Approx(y.to_float(), err) if y_kind == "approx" else y
    try:
        return (x, y) if on_section(t.branch_of(x), y) else None
    except (ValueError, ArithmeticError):
        return None


@given(st.sampled_from(PAST_TABLES), st.randoms(use_true_random=False),
       st.sampled_from(("surd", "approx", "rational")), st.sampled_from(("surd", "rational", "approx")),
       st.sampled_from((0.0, 1e-12, 1e-9, 1e-6, 1e-3)))
@settings(max_examples=300, deadline=None)
def test_past_letters_match_the_covering_scan(t, rng, x_kind, y_kind, err):
    pair = _past_pair(t, rng, x_kind, y_kind, err)
    if pair is None:
        return
    seq = code_two_sided(t, *pair, 1, 40)
    letters, term = past_by_scan(t, *pair, 40)
    assert seq.past_termination == term
    assert seq.letters[: seq.origin] == tuple(reversed(letters))


@given(st.sampled_from(PAST_TABLES), st.randoms(use_true_random=False), st.integers(0, 4),
       st.sampled_from((0.0, 1e-12, 1e-9, 1e-6)))
@settings(max_examples=200, deadline=None)
def test_an_approx_y_on_a_pole_or_line_preimage_ends_where_the_scan_does(t, rng, s, err):
    # z is h_k's pole F_k(inf) or the preimage F_k(rep_line_k) of a branch k that
    # holds the section point after s past steps of an exact pair; the Approx
    # around the value that steps to z in s steps cannot pass it
    pair = _past_pair(t, rng, "surd", "surd", err)
    if pair is None:
        return
    x, y0 = pair
    letters, _ = past_by_scan(t, x, y0, s)
    if len(letters) < s:
        return
    over = t.branch(letters[-1]) if s else t.branch_of(x)
    ends = [rec.h_inv.apply_boundary(e) for rec in covering(t, x, letters[-1] if s else None)
            for e in (INF, Rational(rec.rep_line))]
    z = rng.choice([e for e in ends if e is not INF and on_section(over, e)])
    v = z
    for label in reversed(letters):
        v = t.branch(label).h_inv.apply_boundary(v)
    y = Approx(v.to_float(), err)
    if compare(y, v) != 0 or _past_pair_refused(t, x, y):
        return
    seq = code_two_sided(t, x, y, 1, 10)
    scan = past_by_scan(t, x, y, 10)
    assert seq.past_termination == scan[1] and seq.letters[: seq.origin] == tuple(reversed(scan[0]))
    assert scan[1].kind == "precision-exhausted" and scan[1].step <= s


def _past_pair_refused(t, x, y):
    try:
        return not on_section(t.branch_of(x), y)
    except PrecisionExhausted:
        return True
