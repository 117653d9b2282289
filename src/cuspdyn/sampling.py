"""Deterministic sampling of quadratic surds and section data for checks."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .dynamics import BranchTable, apply_F
from .exact import BoundaryValue, Rational, Surd, emit_value, normalize_surd
from .flow_oracle import canonical_section_point, first_return_geometric

__all__ = [
    "SQUAREFREE",
    "sample_unit_surd",
    "sample_surd_in",
    "sample_section_pair",
    "conjugacy_check",
]

SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26)


def sample_unit_surd(rng: random.Random, d: int, b_max: int = 9, c_range=(40, 400)) -> Surd:
    """A canonical surd strictly inside (0, 1) over the field sqrt(d)."""
    if math.isqrt(d) ** 2 == d:
        raise ValueError(f"radicand {d} is a perfect square, so sqrt({d}) is rational")
    while True:
        b = rng.choice((-1, 1)) * rng.randint(1, b_max)
        c = rng.randint(*c_range)
        # floor(b sqrt d) is exact because b sqrt d is irrational
        root = math.isqrt(b * b * d)
        fl = root if b > 0 else -(root + 1)
        a_lo, a_hi = -fl, c - fl - 1  # -b sqrt d < a < c - b sqrt d
        if a_lo > a_hi:
            continue
        a = rng.randint(a_lo, a_hi)
        v = normalize_surd(a, b, c, d)
        if isinstance(v, Surd) and Rational(0) < v < Rational(1):
            return v


def sample_surd_in(
    rng: random.Random,
    lo: Fraction | None,
    hi: Fraction | None,
    d: int,
    b_max: int = 9,
    c_range=(40, 400),
) -> Surd:
    """A surd over sqrt(d) strictly inside the interval (affine/Moebius image)."""
    u = sample_unit_surd(rng, d, b_max=b_max, c_range=c_range)
    if lo is not None and hi is not None:
        return Rational(lo) + u * Rational(hi - lo)
    if lo is not None:  # (lo, +inf): lo + u/(1-u)
        return Rational(lo) + u / (Rational(1) - u)
    if hi is not None:  # (-inf, hi): hi - u/(1-u)
        return Rational(hi) - u / (Rational(1) - u)
    raise ValueError("interval must be bounded on at least one side")


def sample_section_pair(
    table: BranchTable, rng: random.Random, label=None
) -> tuple[BoundaryValue, BoundaryValue]:
    """(x, y) on the reduced section with same-field surd endpoints."""
    recs = table.branches
    rec = table.branch(label) if label is not None else rng.choice(recs)
    d = rng.choice(SQUAREFREE)
    x_lo = None if rec.interval.lo is None else rec.interval.lo.fr
    x_hi = None if rec.interval.hi is None else rec.interval.hi.fr
    x = sample_surd_in(rng, x_lo, x_hi, d)
    # the reduced section over rec: y beyond rep_line, opposite rep_dir (dynamics.on_section)
    y_lo, y_hi = (None, rec.rep_line) if rec.rep_dir == +1 else (rec.rep_line, None)
    y = sample_surd_in(rng, y_lo, y_hi, d)
    return x, y


def conjugacy_check(table: BranchTable, samples: int, seed: int) -> dict:
    """Compare the geometric first-return oracle against the generating map.

    For each sampled pair the oracle letter, translate and exactly
    renormalized endpoints must coincide with the branch data of apply_F.
    """
    if samples < 0:
        raise ValueError(f"sample count must be >= 0, got {samples}")
    rng = random.Random(seed)
    labels = list(table.labels)
    mismatches = []
    interior_skips = 0
    for i in range(samples):
        label = labels[i % len(labels)]
        x, y = sample_section_pair(table, rng, label=label)
        sp = canonical_section_point(table, x, y)
        ret = first_return_geometric(sp, table)
        x_dyn, letter_dyn = apply_F(table, x)
        rec = table.branch(letter_dyn)
        y_dyn = rec.apply(y)
        ok = (
            ret.letter == letter_dyn
            and ret.translate == rec.h
            and ret.renormalized.geodesic.forward == x_dyn
            and ret.renormalized.geodesic.backward == y_dyn
        )
        if ret.interior_first:
            interior_skips += 1
        if not ok:
            mismatches.append(
                {
                    "index": i,
                    "x": emit_value(x),
                    "y": emit_value(y),
                    "oracle_letter": str(ret.letter),
                    "map_letter": str(letter_dyn),
                }
            )
    return {
        "schema": 1,
        "table": table.name,
        "samples": samples,
        "seed": seed,
        "matches": samples - len(mismatches),
        "interior_first_count": interior_skips,
        "mismatches": mismatches,
    }
