"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are pinned here.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from cuspdyn.dynamics import (
    NEG_INF_LABEL,
    accelerate_to_cf,
    apply_F,
    branch_table,
    code_future,
    modular_table,
)
from cuspdyn.exact import INF, Rational, Surd, compare, normalize_surd
from cuspdyn.flow_oracle import (
    Geodesic,
    canonical_section_point,
    previous_exterior_geometric,
)
from cuspdyn.moebius import GroupElement, HPoint
from cuspdyn.sampling import SQUAREFREE, conjugacy_check, sample_surd_in
from cuspdyn.tessellation import build_domain, cell, g_pair, locate_cell, reduce_point_detailed
from cuspdyn.transfer import (
    DensityFunction,
    apply_transfer,
    collocation_matrix,
    transfer_two_step_pointwise,
)

from cf_reference import continued_fraction_rational, continued_fraction_surd

PRIMES_CELLS = (2, 3, 5, 7, 11, 13)


def _frac(n, d=1):
    return Rational(Fraction(n, d))


def test_criterion_1_cell_side_identities():
    t0 = time.time()
    for p in PRIMES_CELLS:
        for k in range(p):
            c = cell(p, k)
            assert (c.left, c.right) == (Fraction(k, p), Fraction(k + 1, p))
            if k == 0:
                (g,) = [g for g, _ in c.decomposition if not g.is_identity()]
                assert g == g_pair(p, p - 1)
                assert g.apply_boundary(_frac(1)) == _frac(0)
                assert g.apply_boundary(INF) == _frac(1, p)
            elif k == p - 1:
                (g,) = [g for g, _ in c.decomposition if not g.is_identity()]
                assert g == g_pair(p, 1)
                assert g.apply_boundary(INF) == _frac(p - 1, p)
                assert g.apply_boundary(_frac(0)) == _frac(1)
            else:
                rest = [(g, i) for g, i in c.decomposition if not g.is_identity()]
                assert len(rest) == 2
                a = (-pow(k + 1, -1, p)) % p
                b = (-pow(k, -1, p) - 1) % p
                matched = {"a": False, "b": False}
                for g, idx in rest:
                    if g.apply_boundary(INF) == _frac(k + 1, p):
                        assert idx == a
                        assert g.apply_boundary(_frac(a + 1, p)) == _frac(k, p)
                        matched["a"] = True
                    else:
                        assert idx == b
                        assert g.apply_boundary(INF) == _frac(k, p)
                        assert g.apply_boundary(_frac(b, p)) == _frac(k + 1, p)
                        matched["b"] = True
                assert all(matched.values())
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"cell identities took {elapsed:.2f}s (limit 1s)"
    print(f"ACCEPTANCE 1: cell decompositions and side identities exact for "
          f"p in {PRIMES_CELLS} ({elapsed * 1000:.0f} ms) -- PASS")


def test_criterion_2_branch_table_laws():
    for p in PRIMES_CELLS:
        t = branch_table(p)
        assert t.labels == [NEG_INF_LABEL] + list(range(-1, p + 1))
        ivs = [r.interval for r in t.branches]
        assert ivs[0].lo is None and ivs[-1].hi is None
        for left, right in zip(ivs, ivs[1:]):
            assert compare(left.hi, right.lo) == 0  # closures cover R exactly
        for rec in t.branches:
            img = rec.h.apply_boundary(INF)
            if img is INF:
                assert rec.interval.hi is None
            else:
                assert any(
                    e is not None and compare(img, e) == 0
                    for e in (rec.interval.lo, rec.interval.hi)
                )
        assert t.check_markov()
    print(f"ACCEPTANCE 2: alphabet/cover/endpoint/Markov laws exact for "
          f"p in {PRIMES_CELLS} -- PASS")


def test_criterion_3_conjugacy_500_samples():
    t0 = time.time()
    for p in (2, 3, 5):
        table = branch_table(p)
        report = conjugacy_check(table, 500, seed=1234 + p)
        assert report["matches"] == 500, report["mismatches"][:3]
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"conjugacy run took {elapsed:.1f}s (limit 120s)"
    print(f"ACCEPTANCE 3: 500/500 oracle-vs-map matches for p in (2,3,5) "
          f"with the exact cell walk ({elapsed:.1f} s) -- PASS")


def _prev_rows(p):
    """(y-interval, x-interval, expected translate, line, direction) rows."""
    T = GroupElement(1, 1, 0, 1)
    h00 = GroupElement(1, 0, p, 1)
    hm1 = GroupElement(-1, 0, p, -1)
    rows = [
        ((None, Fraction(-1, p)), (Fraction(0), Fraction(4)), T.inv(), Fraction(p - 1, p), +1),
        ((Fraction(-1, p), Fraction(0)), (Fraction(0), Fraction(4)), h00.inv(), Fraction(0), +1),
        ((Fraction(0), Fraction(1, p)), (Fraction(1, p), Fraction(4)), hm1.inv(), Fraction(0), -1),
        ((Fraction(0), Fraction(1, p)), (Fraction(-4), Fraction(0)), hm1.inv(), Fraction(0), -1),
        ((Fraction(1, p), Fraction(4)), (Fraction(-4), Fraction(0)), g_pair(p, 1).inv(), Fraction(p - 1, p), +1),
    ]
    for k in range(1, p - 1):
        b = (-pow(k, -1, p) - 1) % p
        rows.append(
            (
                (Fraction(k, p), Fraction(k + 1, p)),
                (Fraction(k + 1, p), Fraction(k + 1, p) + 3),
                g_pair(p, k).inv(),
                Fraction(b, p),
                +1,
            )
        )
    return rows


def test_criterion_4_previous_exterior_rows():
    p = 5
    table = branch_table(p)
    rng = random.Random(777)
    rows = _prev_rows(p)
    for row_i, (yiv, xiv, g_exp, line_exp, dir_exp) in enumerate(rows):
        for _ in range(20):
            d = rng.choice(SQUAREFREE)
            y = sample_surd_in(rng, yiv[0], yiv[1], d)
            x = sample_surd_in(rng, xiv[0], xiv[1], d)
            sp = canonical_section_point(table, x, y)
            prev = previous_exterior_geometric(sp, table)
            assert prev is not None, (row_i, x, y)
            assert prev.translate == g_exp, (row_i, prev.translate.key(), g_exp.key())
            assert prev.line == line_exp and prev.direction == dir_exp, row_i
    print(f"ACCEPTANCE 4: previous-exterior translate family verified, "
          f"{len(rows)} rows x 20 seeded geodesics (p=5) -- PASS")


def test_criterion_5_modular_fixed_density():
    tm = modular_table()
    invx = DensityFunction.reciprocal()
    rng = random.Random(55)
    exact_checked = 0
    for _ in range(50):
        d = rng.choice(SQUAREFREE)
        x = sample_surd_in(rng, Fraction(0), Fraction(20), d)
        assert apply_transfer(tm, 1, invx, x) == x.reciprocal()
        exact_checked += 1
    float_checked = 0
    worst = 0.0
    for _ in range(50):
        xf = rng.uniform(1e-3, 20.0)
        got = apply_transfer(tm, 1.0, invx, xf)
        rel = abs(got - 1.0 / xf) * xf
        worst = max(worst, rel)
        float_checked += 1
    assert worst <= 1e-12
    print(f"ACCEPTANCE 5: L_1(1/x) = 1/x at {exact_checked} surds (exact) and "
          f"{float_checked} decimals (max rel {worst:.2e} <= 1e-12) -- PASS")


def test_criterion_6_cf_acceleration():
    tm = modular_table()
    rng = random.Random(66)
    for _ in range(100):
        d = rng.choice(SQUAREFREE)
        x = sample_surd_in(rng, Fraction(1), Fraction(50), d, b_max=4, c_range=(5, 40))
        pre, per = continued_fraction_surd(x)
        want = pre + per
        seq = code_future(tm, x, 1000000)
        assert seq.termination.kind == "periodic"
        cf = accelerate_to_cf(seq, max_digits=2 * len(want) + 16)
        assert cf.expand(len(want)) == want
    for _ in range(100):
        r = Fraction(rng.randint(2, 2500), rng.randint(1, 50))
        while not (1 < r < 50):
            r = Fraction(rng.randint(2, 2500), rng.randint(1, 50))
        seq = code_future(tm, Rational(r), 100000)
        cf = accelerate_to_cf(seq)
        assert cf.complete and list(cf.digits) == continued_fraction_rational(r)
    print("ACCEPTANCE 6: run-length digits equal floor-and-invert continued "
          "fractions for 100 surds (preperiod+period) and 100 rationals -- PASS")


def test_criterion_7_golden_ratio_codings():
    tm = modular_table()
    seq = code_future(tm, Surd(1, 1, 2, 5), 64)
    assert seq.letters == (1, 0)
    assert seq.termination.kind == "periodic"
    assert (seq.termination.preperiod, seq.termination.period) == (0, 2)
    seq2 = code_future(tm, Surd(1, 1, 1, 2), 64)
    assert seq2.letters == (1, 1, 0, 0)
    assert (seq2.termination.preperiod, seq2.termination.period) == (0, 4)
    print("ACCEPTANCE 7: golden-ratio word (1,0) period 2; 1+sqrt(2) word "
          "(1,1,0,0) -- PASS")


def test_criterion_8_tiling_and_reduction():
    p = 5
    rng = random.Random(88)
    dom = build_domain(p)
    max_steps = 0
    boundary_count = 0
    for _ in range(10**4):
        zx = Fraction(rng.randint(-5000, 15000), 10**4)
        zy = Fraction(rng.randint(1, 2 * 10**4), 10**4)
        z = HPoint(zx, zy * zy)
        g, w, steps = reduce_point_detailed(p, z)
        max_steps = max(max_steps, steps)
        assert steps < 1000
        assert 0 <= w.x <= 1
        for q in range(1, p):
            assert (p * w.x - q) ** 2 + p * p * w.y2 >= 1
        gc, k, boundary = locate_cell(p, z)
        if boundary:
            boundary_count += 1
            assert cell(p, k).contains(gc.inv().apply_hpoint(z))
        else:
            assert cell(p, k).contains(gc.inv().apply_hpoint(z), strict=True)
    print(f"ACCEPTANCE 8: 10^4 reductions (max {max_steps} rounds < 1000), "
          f"closure inequalities exact, {boundary_count} boundary flags -- PASS")


def test_criterion_9_transfer_consistency():
    one = DensityFunction.one()
    worst = 0.0
    for p in (2, 5):
        t = branch_table(p)
        rng = random.Random(90 + p)
        for beta in (0, 1, 1.5):
            checked = 0
            while checked < 50:
                x = rng.uniform(-4, 4)
                try:
                    inner = DensityFunction(lambda q, b=beta: apply_transfer(t, b, one, q))
                    double = apply_transfer(t, beta, inner, x)
                    explicit = transfer_two_step_pointwise(t, beta, one, x)
                except ValueError:
                    continue
                checked += 1
                worst = max(worst, abs(double - explicit))
    assert worst <= 1e-10
    tm = modular_table()
    invx = DensityFunction.reciprocal()
    errs = {}
    for n in (32, 64):
        op = collocation_matrix(tm, 1.0, n)
        got = op.apply_to_function(invx)
        want = np.array([1.0 / x for x in op.node_x])
        errs[n] = float((np.abs(got - want) / np.abs(want)).max())
    assert errs[32] <= 1e-8
    assert errs[64] <= 1e-8  # refining does not worsen past the tolerance
    print(f"ACCEPTANCE 9: two-step deviation {worst:.2e} <= 1e-10; collocation "
          f"1/x error {errs[32]:.2e} (32 nodes), {errs[64]:.2e} (64 nodes) -- PASS")


def test_criterion_10_deterministic_cli():
    cmd = [
        sys.executable, "-m", "cuspdyn.cli",
        "conjugacy-check", "--p", "3", "--samples", "40", "--seed", "42",
    ]
    r1 = subprocess.run(cmd, capture_output=True, check=True)
    r2 = subprocess.run(cmd, capture_output=True, check=True)
    assert r1.stdout == r2.stdout and r1.stdout
    data = json.loads(r1.stdout)
    assert data["matches"] == data["samples"] == 40
    print("ACCEPTANCE 10: conjugacy-check --seed 42 twice byte-identical -- PASS")
