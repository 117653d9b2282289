import dataclasses
import functools
import itertools
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspdyn import dynamics, exact, flow_oracle, moebius, tessellation
from cuspdyn.dynamics import NEG_INF_LABEL, Termination, apply_F, branch_table, code_two_sided, modular_table, on_section
from cuspdyn.exact import INF, Approx, PrecisionExhausted, Rational, Surd, compare, normalize_surd
from cuspdyn.flow_oracle import (
    CrossingPoint,
    Geodesic,
    ReturnRecord,
    SectionPoint,
    canonical_section_point,
    classify,
    first_return_geometric,
    previous_exterior_geometric,
)
from cuspdyn.moebius import GroupElement
from cuspdyn.sampling import (
    SQUAREFREE,
    conjugacy_check,
    sample_section_pair,
    sample_surd_in,
    sample_unit_surd,
)
from section_reference import geodesic_check, on_section_by_compare, section_point_check

PHI = Surd(1, 1, 2, 5)
ONE_MINUS_PHI = Surd(1, -1, 2, 5)


def test_intersect_vertical_examples():
    g = Geodesic(forward=PHI, backward=ONE_MINUS_PHI)
    for a in (Fraction(0), Fraction(1)):  # the points i and 1 + i
        pt = SectionPoint(g, a, +1).crossing()
        assert pt.re == Rational(a) and pt.height2 == Rational(1)


def test_geodesic_circle_data():
    g = Geodesic(forward=PHI, backward=ONE_MINUS_PHI)
    c = (PHI + ONE_MINUS_PHI) / Rational(2)
    half = (PHI - ONE_MINUS_PHI) / Rational(2)
    r2 = half * half
    assert c == Rational(Fraction(1, 2)) and r2 == Rational(Fraction(5, 4))
    for a in (Fraction(0), Fraction(1)):
        pt = SectionPoint(g, a, +1).crossing()
        # crossing heights agree with the circle equation: r^2 - (a - c)^2
        assert pt.height2 == r2 - (Rational(a) - c) * (Rational(a) - c)


@pytest.mark.parametrize("d", [1, 4, 9])
def test_sampling_refuses_a_square_radicand(d):
    with pytest.raises(ValueError, match="perfect square"):
        sample_unit_surd(random.Random(0), d)
    with pytest.raises(ValueError, match="perfect square"):
        sample_surd_in(random.Random(0), Fraction(0), Fraction(1), d)


def test_sampling_reduces_the_radicand():
    rng = random.Random(0)
    assert sample_unit_surd(rng, 12).d == 3 and sample_surd_in(rng, Fraction(0), Fraction(1), 12).d == 3


def test_classify():
    t5 = branch_table(5)
    rec = classify(Geodesic(normalize_surd(0, 1, 1, 2), normalize_surd(0, -1, 1, 3)), t5)
    assert rec["intersects"] and rec["inf_future"] and rec["inf_past"]
    rec2 = classify(Geodesic(Rational(Fraction(3, 7)), normalize_surd(0, -1, 1, 3)), t5)
    assert rec2["inf_future"] is False and rec2["inf_past"] is True
    rec3 = classify(Geodesic(INF, Rational(0)), t5)
    assert rec3["intersects"] is False  # the geodesic lies inside the boundary family
    rec4 = classify(Geodesic(Rational(Fraction(1, 5)), Rational(Fraction(2, 5))), t5)
    assert rec4["intersects"] is False  # a cell side
    rec5 = classify(Geodesic(Rational(Fraction(1, 3)), Rational(Fraction(17, 7))), t5)
    assert rec5["intersects"] is True


def test_first_return_golden_ratio_chain():
    tm = modular_table()
    sp = canonical_section_point(tm, PHI, ONE_MINUS_PHI)
    ret = first_return_geometric(sp, tm)
    assert ret.letter == 1
    assert ret.translate == GroupElement(1, 1, 0, 1)
    assert ret.crossing.re == Rational(1) and ret.crossing.height2 == Rational(1)
    assert ret.renormalized.geodesic.forward == Surd(-1, 1, 2, 5)  # phi - 1
    assert ret.renormalized.geodesic.backward == Surd(-1, -1, 2, 5)  # -phi
    assert not ret.interior_first

    ret2 = first_return_geometric(ret.renormalized, tm)
    assert ret2.letter == 0
    assert ret2.renormalized.geodesic.forward == PHI
    assert ret2.renormalized.geodesic.backward == ONE_MINUS_PHI


def test_first_return_matches_map_p5():
    t5 = branch_table(5)
    x = normalize_surd(-1, 1, 1, 2)
    y = normalize_surd(0, -1, 1, 2)
    sp = canonical_section_point(t5, x, y)
    ret = first_return_geometric(sp, t5)
    x1, lab = apply_F(t5, x)
    assert ret.letter == lab == 2
    assert ret.renormalized.geodesic.forward == x1
    assert ret.translate == t5.branch(2).h


def test_first_return_rejects_cusp_forward():
    tm = modular_table()
    sp = SectionPoint(Geodesic(Rational(Fraction(3, 2)), Rational(Fraction(-1, 2))), Fraction(0), +1)
    with pytest.raises(ValueError):
        first_return_geometric(sp, tm)


@pytest.mark.parametrize("forward, backward, direction", [(INF, ONE_MINUS_PHI, +1), (ONE_MINUS_PHI, INF, -1)],
                         ids=["forward", "backward"])
@pytest.mark.parametrize("search", [first_return_geometric, previous_exterior_geometric])
def test_oracle_rejects_an_infinite_endpoint_once(search, forward, backward, direction):
    # the field check in _search is the one place that rejects inf
    sp = SectionPoint(Geodesic(forward, backward), Fraction(0), direction)
    with pytest.raises(ValueError, match="^oracle geodesics need exact finite endpoints, got inf$"):
        search(sp, branch_table(5))


def test_previous_none_at_singular_backward():
    t5 = branch_table(5)
    geod = Geodesic(normalize_surd(0, 1, 1, 2), Rational(Fraction(1, 5)))
    sp = SectionPoint(geod, Fraction(2, 5), +1)
    assert previous_exterior_geometric(sp, t5) is None


def test_previous_row_examples_p5():
    t5 = branch_table(5)
    T = GroupElement(1, 1, 0, 1)
    # backward in (-inf, -1/5), forward in (0, inf): previous on T^{-1} . line 4/5
    geod = Geodesic(normalize_surd(0, 1, 1, 2), normalize_surd(-2, -1, 2, 2))
    sp = canonical_section_point(t5, geod.forward, geod.backward)
    prev = previous_exterior_geometric(sp, t5)
    assert prev.translate == T.inv()
    assert prev.line == Fraction(4, 5) and prev.direction == +1
    assert prev.letter == 5
    # backward in (-1/5, 0), forward in (0, inf): previous on h_{0,0}^{-1} . line 0
    geod2 = Geodesic(normalize_surd(0, 1, 1, 2), normalize_surd(-1, -1, 20, 2))
    sp2 = canonical_section_point(t5, geod2.forward, geod2.backward)
    prev2 = previous_exterior_geometric(sp2, t5)
    assert prev2.translate == GroupElement(1, 0, 5, 1).inv()
    assert prev2.line == Fraction(0)
    assert prev2.letter == 0


def _point_image_re(g, re, h2):
    # real part of the Moebius image of the point re + i*sqrt(h2)
    a, b, c, d = (Rational(v) for v in g.key())
    num = (a * re + b) * (c * re + d) + a * c * h2
    den = (c * re + d) * (c * re + d) + c * c * h2
    return num / den


def test_time_symmetry():
    rng = random.Random(19)
    for table in (modular_table(), branch_table(2), branch_table(5)):
        for _ in range(20):
            x, y = sample_section_pair(table, rng)
            sp = canonical_section_point(table, x, y)
            ret = first_return_geometric(sp, table)
            back = previous_exterior_geometric(ret.renormalized, table)
            assert back is not None
            # the previous crossing is the image of the starting one
            cr = sp.crossing()
            want_re = _point_image_re(ret.translate.inv(), cr.re, cr.height2)
            assert back.crossing.re == want_re
            assert back.letter == ret.letter
            # renormalizing the previous crossing recovers the original pair
            assert back.renormalized.geodesic.forward == sp.geodesic.forward
            assert back.renormalized.geodesic.backward == sp.geodesic.backward
            assert back.line == sp.line and back.direction == sp.direction


def test_interior_absence_modular():
    rng = random.Random(29)
    tm = modular_table()
    for _ in range(40):
        x, y = sample_section_pair(tm, rng)
        sp = canonical_section_point(tm, x, y)
        ret = first_return_geometric(sp, tm)
        assert not ret.interior_first


def test_interior_crossings_share_geodesic():
    # when an interior crossing precedes, the endpoint pair is unchanged by it
    t5 = branch_table(5)
    rng = random.Random(41)
    seen_interior = 0
    for _ in range(40):
        x, y = sample_section_pair(t5, rng)
        # start from the line-0 crossing when one exists to force interior hits
        if compare(y, Rational(0)) == -1 and compare(Rational(0), x) == -1:
            sp = SectionPoint(Geodesic(x, y), Fraction(0), +1)
        else:
            sp = canonical_section_point(t5, x, y)
        ret = first_return_geometric(sp, t5)
        if ret.interior_first:
            seen_interior += 1
            for c in ret.interior_crossings:
                assert compare(c.height2, Rational(0)) == 1
    assert seen_interior > 0


def test_first_return_independent_of_representative():
    # the next exterior crossing does not depend on which representative
    # line crossing the scan starts from; earlier ones see interior hits
    rng = random.Random(101)
    from fractions import Fraction as F

    for p in (2, 3, 5):
        t = branch_table(p)
        for _ in range(25):
            x, y = sample_section_pair(t, rng)
            canon = canonical_section_point(t, x, y)
            ret_c = first_return_geometric(canon, t)
            for j in range(p):
                line = F(j, p)
                if line == canon.line and canon.direction == +1:
                    continue
                try:
                    sp = SectionPoint(Geodesic(x, y), line, +1)
                except ValueError:
                    continue
                ret = first_return_geometric(sp, t)
                assert ret.letter == ret_c.letter
                assert ret.translate == ret_c.translate
                assert ret.crossing.re == ret_c.crossing.re
                assert ret.interior_first


def test_conjugacy_check_small():
    for table in (modular_table(), branch_table(2), branch_table(3)):
        rep = conjugacy_check(table, 40, seed=5)
        assert rep["matches"] == rep["samples"] == 40
        assert rep["mismatches"] == []


def test_oracle_rejects_mixed_fields():
    t5 = branch_table(5)
    x = normalize_surd(-1, 1, 1, 2)
    y = normalize_surd(0, -1, 1, 3)
    sp = canonical_section_point(t5, x, y)
    with pytest.raises(ValueError):
        first_return_geometric(sp, t5)


def test_classify_exact_beyond_small_entries():
    # g = [[1,3],[100,301]] is in Gamma_0(5) and maps the line 0 onto (3/301, 1/100)
    t5 = branch_table(5)
    rec = classify(Geodesic(Rational(Fraction(3, 301)), Rational(Fraction(1, 100))), t5)
    assert rec == {"intersects": False, "inf_future": False, "inf_past": False, "confidence": "exact"}
    rec2 = classify(Geodesic(Rational(Fraction(1, 3)), Rational(Fraction(17, 7))), t5)
    assert rec2["intersects"] is True and rec2["confidence"] == "exact"
    # both ends in the cusp orbit of inf, yet no side: the solved base is off the grid
    assert classify(Geodesic(Rational(Fraction(1, 5)), Rational(Fraction(3, 5))), t5)["intersects"]
    tm = modular_table()
    assert classify(Geodesic(Rational(0), Rational(Fraction(2, 3))), tm)["intersects"]
    assert not classify(Geodesic(Rational(Fraction(1, 2)), Rational(Fraction(2, 3))), tm)["intersects"]


def _rep_starts(table):
    q = table.p
    starts = [(Fraction(j, q), +1) for j in range(q)]
    return starts + ([(Fraction(0), -1)] if table.p > 1 else [])


def _section_points(table, x, y):
    out = []
    for line, direction in _rep_starts(table):
        try:
            out.append(SectionPoint(Geodesic(x, y), line, direction))
        except ValueError:
            pass
    return out


def test_previous_none_exactly_at_singular_cusps():
    pos, neg = normalize_surd(0, 1, 1, 2), normalize_surd(0, -1, 1, 2)
    for table in (modular_table(), branch_table(2), branch_table(5), branch_table(13)):
        p = table.p
        if p == 1:
            cases = [(pos, [Fraction(0), Fraction(-1)])]
        else:
            cases = [(pos, [Fraction(k, p) for k in range(-1, p - 1)]), (neg, [Fraction(1, p)])]
        checked = 0
        for x, singular in cases:
            for y in singular:
                for sp in _section_points(table, x, Rational(y)):
                    assert previous_exterior_geometric(sp, table) is None, (p, y, sp.line)
                    checked += 1
        assert checked >= len(cases)
        # one grid step further out the previous crossing is the line beyond
        q = p
        for x, y, line in ((pos, Fraction(-2, q), Fraction(-1, q)), (neg, Fraction(2, q), Fraction(1, q))):
            for sp in _section_points(table, x, Rational(y)):
                rec = previous_exterior_geometric(sp, table)
                assert rec is not None and rec.crossing.re == Rational(line)
    # off the grid a rational backward endpoint is left through a bottom arc
    t5 = branch_table(5)
    sp = SectionPoint(Geodesic(pos, Rational(Fraction(1, 3))), Fraction(2, 5), +1)
    rec = previous_exterior_geometric(sp, t5)
    assert rec is not None and not rec.interior_first
    assert Rational(Fraction(1, 3)) < rec.crossing.re < Rational(Fraction(2, 5))


def test_non_representative_start_rejected():
    t5 = branch_table(5)
    x, y = normalize_surd(0, 1, 4, 2), normalize_surd(0, 1, 2, 2)  # sqrt2/4 < 2/5 < sqrt2/2
    sp = SectionPoint(Geodesic(x, y), Fraction(2, 5), -1)
    with pytest.raises(ValueError):
        first_return_geometric(sp, t5)
    with pytest.raises(ValueError):
        previous_exterior_geometric(sp, t5)
    tm = modular_table()
    sp_m = SectionPoint(Geodesic(normalize_surd(0, -1, 1, 2), PHI), Fraction(0), -1)
    with pytest.raises(ValueError):
        first_return_geometric(sp_m, tm)
    sp_off = SectionPoint(Geodesic(PHI, ONE_MINUS_PHI), Fraction(1, 3), +1)
    with pytest.raises(ValueError):
        first_return_geometric(sp_off, t5)


# --- third witness: exact brute force over bounded translates --------------

# 13 rather than 12: for p = 13 the smallest nonzero lower-left entry is 13,
# and with c = 0 alone the family would hold vertical lines only.
_BRUTE_BOUND = 13


def _brute_sides(table):
    """Endpoint pairs of g.(line j/q) for g in the group with entries <= _BRUTE_BOUND."""
    q = table.p
    n = _BRUTE_BOUND
    sides = set()
    for a, b, c, d in itertools.product(range(-n, n + 1), range(-n, n + 1), range(0, n + 1, q), range(-n, n + 1)):
        if a * d - b * c == 1:
            g = GroupElement(a, b, c, d)
            for j in range(q):
                sides.add(frozenset((g.apply_boundary(Rational(Fraction(j, q))), g.apply_boundary(INF))))
    return [tuple(s) for s in sides]


def _brute_scan(table, sides, sp, forward):
    """(exterior side, exterior position, interior positions) after sp, by brute force."""
    q = table.p
    x, y = sp.geodesic.forward, sp.geodesic.backward
    lo, hi = (y, x) if sp.direction == +1 else (x, y)
    ahead = 1 if forward == (sp.direction == +1) else -1  # scan direction along Re

    def strictly_inside(e):
        return e is not INF and lo < e < hi

    hits = []
    for u, v in sides:
        if v is INF or u is INF:
            w = u if v is INF else v
            if not strictly_inside(w):
                continue
            pos = w
        else:
            if strictly_inside(u) == strictly_inside(v) or any(compare(e, t) == 0 for e in (u, v) for t in (lo, hi)):
                continue
            pos = (u * v - x * y) / ((u + v) - (x + y))
        if compare(pos, Rational(sp.line)) == ahead:
            hits.append((pos, (u, v)))
    hits.sort(key=functools.cmp_to_key(lambda s, t: ahead * compare(s[0], t[0])))
    interiors = []
    for pos, (u, v) in hits:
        vertical = INF in (u, v)
        m = (u if v is INF else v) * Rational(q) if vertical else None
        if (
            vertical
            and m.denominator == 1
            and 0 <= m.numerator < q
            and (sp.direction == +1 or (table.p > 1 and m.numerator == 0))
        ):
            interiors.append(pos)
        else:
            return {u, v}, pos, interiors
    return None, None, interiors


def test_walk_matches_brute_force_translates():
    rng = random.Random(23)
    for table in (modular_table(), branch_table(2), branch_table(3), branch_table(5), branch_table(13)):
        sides = _brute_sides(table)
        for _ in range(30):
            x, y = sample_section_pair(table, rng)
            # the canonical start, and any representative one (forward interior hits)
            for sp in (canonical_section_point(table, x, y), rng.choice(_section_points(table, x, y))):
                for forward, rec in (
                    (True, first_return_geometric(sp, table)),
                    (False, previous_exterior_geometric(sp, table)),
                ):
                    side, pos, interiors = _brute_scan(table, sides, sp, forward)
                    assert side is not None and rec is not None
                    g = rec.translate
                    assert {g.apply_boundary(Rational(rec.line)), g.apply_boundary(INF)} == side
                    assert rec.crossing.re == pos
                    assert [c.re for c in rec.interior_crossings] == interiors


def _formula_crossing(rec, x, y):
    """The crossing re and height2 from the side g.(line) named by the record's translate."""
    g = rec.translate
    u, v = g.apply_boundary(Rational(rec.line)), g.apply_boundary(INF)
    if INF in (u, v):
        pos = u if v is INF else v
    else:
        pos = (u * v - x * y) / ((u + v) - (x + y))
    return pos, (pos - y) * (x - pos)


def _formula_interiors(table, sp, forward, pos):
    """The representative lines m/q strictly between the start line and pos, in scan order."""
    q = table.p
    step = sp.direction if forward else -sp.direction
    out = []
    m = sp.line * q + step
    while compare(Rational(Fraction(m, q)), pos) == (1 if step < 0 else -1):
        out.append(Rational(Fraction(m, q)))
        m += step
    return out


def test_return_crossings_match_formula():
    rng = random.Random(61)
    seen_interior = seen_integer_end = 0
    semicircle_kinds = set()  # (x rational, y rational) of pairs that meet a side with two finite ends
    for table in (modular_table(), branch_table(2), branch_table(3), branch_table(5), branch_table(13)):
        q = table.p
        for _ in range(12):
            x, y = sample_section_pair(table, rng)
            # rational endpoints near x and y, still on the section: the b = 0 walk
            # and a crossing whose radicand comes from the other end only
            x_rat, y_rat = (Rational(Fraction(e.to_float()).limit_denominator(997)) for e in (x, y))
            ys = [y] + ([y_rat] if q % y_rat.denominator else [])  # off the grid
            for xx, yy in itertools.product((x, x_rat), ys):
                try:
                    starts = _section_points(table, xx, yy)
                except ValueError:
                    continue
                searches = ((True, first_return_geometric), (False, previous_exterior_geometric))
                for sp in starts:
                    # a rational forward endpoint is a cusp: there is no next exterior crossing
                    for forward, search in searches[isinstance(xx, Rational):]:
                        rec = search(sp, table)
                        assert rec is not None
                        assert rec == search(SectionPoint(Geodesic(xx, yy), sp.line, sp.direction), table)
                        pos, height2 = _formula_crossing(rec, xx, yy)
                        assert rec.crossing.re == pos and rec.crossing.height2 == height2
                        want = _formula_interiors(table, sp, forward, pos)
                        assert [c.re for c in rec.interior_crossings] == want
                        assert [c.height2 for c in rec.interior_crossings] == [(c - yy) * (xx - c) for c in want]
                        assert rec.interior_first == bool(want)
                        seen_interior += bool(want)
                        g = rec.translate
                        ends = (g.apply_boundary(Rational(rec.line)), g.apply_boundary(INF))
                        if INF not in ends:
                            semicircle_kinds.add((isinstance(xx, Rational), isinstance(yy, Rational)))
                        # a side end m/q with q | m: the walk's pair (m, q) is not reduced
                        seen_integer_end += q > 1 and any(
                            isinstance(e, Rational) and e.denominator == 1 for e in ends
                        )
        # a backward endpoint on the grid is a cusp the walk runs into: no record
        sp = _section_points(table, normalize_surd(0, 1, 1, 2), Rational(Fraction(-1, q)))[0]
        assert previous_exterior_geometric(sp, table) is None
    assert seen_interior > 0 and seen_integer_end > 0
    assert semicircle_kinds == {(False, False), (False, True), (True, False), (True, True)}


# --- section points by the cut rule -----------------------------------------

# 0 and (p - 1)/p for p = 2, 5, 13 among the lines, and an end on the line itself
_LINES = st.one_of(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(4, 5), Fraction(12, 13)]),
                   st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)))


@st.composite
def _end(draw, line):
    """A boundary value of any kind: rational, surd with b of either sign, inf, or an
    Approx, also one that holds the line; or the line itself."""
    near = float(line) + draw(st.floats(-0.25, 0.25))
    return draw(st.one_of(
        st.builds(Rational, st.integers(-40, 40), st.integers(1, 40)),
        st.just(Rational(line)),
        st.builds(normalize_surd, st.integers(-30, 30), st.integers(-9, 9).filter(bool),
                  st.integers(1, 30), st.sampled_from((2, 3, 5, 13, 999999999989))),
        st.just(INF),
        st.builds(Approx, st.floats(-5, 5), st.sampled_from((0.0, 1e-12, 1e-3))),
        st.builds(lambda err: Approx(near, err), st.floats(0.25, 0.5)),  # holds the line
    ))


def _raised(build):
    """(type, message) of the ValueError or PrecisionExhausted build raises, else None."""
    try:
        build()
    except (ValueError, PrecisionExhausted) as err:
        return type(err), str(err)
    return None


@given(data=st.data(), line=_LINES, direction=st.sampled_from((1, -1, 1, -1, 0)), same=st.booleans())
@settings(max_examples=600, deadline=None)
def test_section_point_checks_match_the_compare_reference(data, line, direction, same):
    x = data.draw(_end(line))
    y = x if same else data.draw(_end(line))
    geodesic = _raised(lambda: Geodesic(x, y))
    assert geodesic == _raised(lambda: geodesic_check(x, y))
    assert _raised(lambda: SectionPoint(Geodesic(x, y), line, direction)) == _raised(
        lambda: section_point_check(x, y, line, direction))
    if geodesic is not None:  # code_two_sided decides distinct ends by the same rule
        assert _raised(lambda: code_two_sided(modular_table(), x, y, 1, 1)) == geodesic
    if direction:
        rec = types.SimpleNamespace(rep_line=line, rep_dir=direction)
        got = _raised(lambda: on_section(rec, y))
        assert got == _raised(lambda: on_section_by_compare(rec, y))
        if got is None:
            assert on_section(rec, y) == on_section_by_compare(rec, y)


def _counting_compare(monkeypatch) -> list:
    """Count every compare call made through any module of the library."""
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return compare(x, y)

    for mod in (exact, moebius, tessellation, dynamics, flow_oracle):
        monkeypatch.setattr(mod, "compare", counted, raising=False)
    return calls


def test_oracle_op_on_exact_ends_makes_no_compare(monkeypatch):
    rng = random.Random(11)
    tables = [modular_table()] + [branch_table(p) for p in (2, 3, 5, 13)]
    pairs = [(t, *sample_section_pair(t, rng, label)) for t in tables for label in t.labels for _ in range(2)]
    calls = _counting_compare(monkeypatch)
    for table, x, y in pairs:  # the conjugacy workload's op, oracle and coding parts
        sp = canonical_section_point(table, x, y)
        first_return_geometric(sp, table)
        previous_exterior_geometric(sp, table)
        code_two_sided(table, x, y, 1, 1)
    assert calls == []
    # an Approx end still goes through compare
    table, x, y = pairs[0]
    code_two_sided(table, x, Approx(y.to_float(), 1e-9), 1, 1)
    assert calls


def _section_point():
    return SectionPoint(Geodesic(PHI, ONE_MINUS_PHI), Fraction(0), +1)


# each converted record: a fresh build, its field names in order, and one field changed
_RECORDS = {
    Termination: (lambda: Termination("periodic", 7, preperiod=2, period=5),
                    ("kind", "step", "at", "preperiod", "period"), {"step": 8}),
    Geodesic: (lambda: Geodesic(PHI, ONE_MINUS_PHI), ("forward", "backward"), {"backward": Rational(-1)}),
    SectionPoint: (_section_point, ("geodesic", "line", "direction"), {"line": Fraction(1)}),
    CrossingPoint: (lambda: _section_point().crossing(), ("re", "height2"), {"re": Rational(1)}),
    ReturnRecord: (lambda: first_return_geometric(_section_point(), branch_table(5)),
                     ("letter", "translate", "line", "direction", "crossing", "renormalized",
                      "interior_first", "interior_crossings"), {"letter": None}),
}


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda cls: cls.__name__)
def test_records_keep_their_dataclass_behaviour(cls):
    build, names, change = _RECORDS[cls]
    a, b = build(), build()
    assert type(a) is cls and a == b and a is not b
    values = tuple(getattr(a, n) for n in names)
    assert hash(a) == hash(b) == hash(values)
    assert [f.name for f in dataclasses.fields(a)] == list(names)
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    for attr in (names[0], "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, attr, values[0])
    assert dataclasses.replace(a) == a and cls._make(*values) == a
    changed = dataclasses.replace(a, **change)
    assert changed != a and all(getattr(changed, n) == change.get(n, v) for n, v in zip(names, values))


def test_replace_runs_the_section_point_checks():
    sp = _section_point()
    with pytest.raises(ValueError, match="^geodesic does not cross the line transversally in that direction$"):
        dataclasses.replace(sp, direction=-1)
    with pytest.raises(ValueError, match=r"^direction must be \+1 or -1, got 0$"):
        dataclasses.replace(sp, direction=0)
    with pytest.raises(ValueError, match="^geodesic endpoints must be distinct$"):
        dataclasses.replace(sp.geodesic, backward=PHI)


def test_search_checks_the_renormalized_forward_end():
    # a section point built without its check, whose x lies behind the line 0 as y does
    x, y = normalize_surd(-1, -3, 6, 3), normalize_surd(-16, 2, 5, 3)
    sp = SectionPoint._make(Geodesic._make(x, y), Fraction(0), +1)
    with pytest.raises(ValueError, match="^geodesic does not cross the line transversally in that direction$"):
        previous_exterior_geometric(sp, modular_table())
