"""The past side of two-sided coding by a scan over the branches, the reference
that the past partitions of code_two_sided are checked against.

Each past step takes the unique k among the branches whose image holds x
such that h_k y lies beyond rep_line_k (dynamics.on_section), with y mapped
as a value by GroupElement.apply_boundary.  h_k maps the image of branch k
onto its interval, so after a step by k the branches that hold x are those
whose image holds k's interval; x itself is never mapped.
"""

from cuspdyn.dynamics import Termination, on_section
from cuspdyn.exact import PrecisionExhausted, Rational, compare


def _holds(outer, inner) -> bool:
    """Whether the open interval outer holds the open interval inner (None ends unbounded)."""
    lo_ok = outer.lo is None or (inner.lo is not None and compare(outer.lo, inner.lo) != 1)
    hi_ok = outer.hi is None or (inner.hi is not None and compare(inner.hi, outer.hi) != 1)
    return lo_ok and hi_ok


def covering(table, x, label=None) -> list:
    """The branches whose image holds x, or, given a label, that branch's interval."""
    if label is None:
        return [rec for rec in table.branches if rec.image.contains(x)]
    return [rec for rec in table.branches if _holds(rec.image, table.branch(label).interval)]


def past_by_scan(table, x, y, n_past) -> tuple[list, Termination]:
    """The past letters of (x, y) on the section, nearest first, and the past termination.

    An Approx y that some covering h_k maps across its pole, or onto
    rep_line_k, ends as precision-exhausted; a rational y that no branch
    takes ends at the cusp.  Two branches taking y, or none taking an
    irrational y, raise AssertionError.
    """
    letters, label = [], None
    for step in range(n_past):
        recs = covering(table, x, label)
        try:
            hits = [(rec, v) for rec in recs if on_section(rec, v := rec.h.apply_boundary(y))]
        except PrecisionExhausted:
            return letters, Termination("precision-exhausted", step)
        if not hits and isinstance(y, Rational):
            return letters, Termination("cusp", step, at=y)
        if len(hits) != 1:
            raise AssertionError(f"past branch not unique at step {step}: {[rec.label for rec, _ in hits]}")
        (rec, y), = hits
        label = rec.label
        letters.append(label)
    return letters, Termination("step-cap", n_past)
