"""Floor-and-invert continued fractions, the reference that the run-length
digits of modular codings are checked against, and ceil_moebius, the
reference for the run lengths themselves."""

from fractions import Fraction

from cuspdyn.exact import BoundaryValue, Rational, Surd, _floor_root, _parts, floor_exact


def ceil_moebius(matrix: tuple[int, int, int, int], x: BoundaryValue) -> int:
    """Exact ceiling of (a*x + b)/(c*x + d) for matrix = (a, b, c, d).

    The integer matrix may have any nonzero determinant; x is a rational
    or a surd off its pole.  For a surd the quotient is rationalised by
    the conjugate of its denominator, so one isqrt decides it.
    """
    A, B, C, D = matrix
    a, b, c, d = _parts(x)
    if b == 0:
        return -(-(A * a + B * c) // (C * a + D * c))
    n0, n1 = A * a + B * c, A * b
    m0, m1 = C * a + D * c, C * b
    num0, num1, den = n0 * m0 - n1 * m1 * d, n1 * m0 - n0 * m1, m0 * m0 - m1 * m1 * d
    if den < 0:
        num0, num1, den = -num0, -num1, -den
    return -_floor_root(-num0, -num1, den, d)


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
