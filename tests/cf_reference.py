"""Floor-and-invert continued fractions: the reference that the run-length
digits of modular codings are checked against."""

from fractions import Fraction

from cuspdyn.exact import BoundaryValue, Rational, Surd, floor_exact


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
