"""Integer-only reference computations that the benchmark checks results against.

Everything here is written from the mathematics, not from the library's
code paths: quadratic surds are integer triples over a fixed sqrt(d),
comparisons are exact sign rules, and continued fractions come from the
classical (P, Q) recurrence.  Only the branch data of a table (interval
endpoints, letter, element) is read from the library, because that data
is the definition of the map being coded.
"""

from __future__ import annotations

import math
from fractions import Fraction

# A state is ("rat", Fraction) or ("surd", a, b, c, d) meaning (a + b*sqrt(d))/c
# with c > 0 and gcd(a, b, c) = 1, so equal values have equal states.


def state_of(value) -> tuple:
    """Reference state of a library Rational or Surd."""
    if hasattr(value, "b"):
        return ("surd", value.a, value.b, value.c, value.d)
    return ("rat", Fraction(value.numerator, value.denominator))


def _sign_surd_minus_rational(state: tuple, r: Fraction) -> int:
    """Sign of (a + b*sqrt(d))/c - r for an irrational state."""
    _, a, b, c, d = state
    # c > 0 and r.denominator > 0: sign of (a*m - n*c) + b*m*sqrt(d)
    A = a * r.denominator - r.numerator * c
    B = b * r.denominator
    if A >= 0 and B > 0:
        return 1
    if A <= 0 and B < 0:
        return -1
    t = A * A - B * B * d  # never 0: sqrt(d) is irrational
    return (1 if t > 0 else -1) if A > 0 else (1 if t < 0 else -1)


def _sign_minus(state: tuple, r: Fraction) -> int:
    if state[0] == "rat":
        q = state[1]
        return (q > r) - (q < r)
    return _sign_surd_minus_rational(state, r)


def _apply(m: tuple[int, int, int, int], state: tuple) -> tuple | None:
    """Image of a state under (al be; ga de); None for the point at infinity."""
    al, be, ga, de = m
    if state[0] == "rat":
        q = state[1]
        num = al * q.numerator + be * q.denominator
        den = ga * q.numerator + de * q.denominator
        return None if den == 0 else ("rat", Fraction(num, den))
    _, a, b, c, d = state
    n1, n2 = al * a + be * c, al * b
    m1, m2 = ga * a + de * c, ga * b
    a2 = n1 * m1 - n2 * m2 * d
    b2 = n2 * m1 - n1 * m2
    c2 = m1 * m1 - m2 * m2 * d
    if c2 < 0:
        a2, b2, c2 = -a2, -b2, -c2
    g = math.gcd(a2, b2, c2)
    return ("surd", a2 // g, b2 // g, c2 // g, d)


def branch_rows(table) -> list[tuple]:
    """(label, lo, hi, inverse element) per branch; None marks an infinite end."""
    rows = []
    for rec in table.branches:
        ends = [
            None if e is None else Fraction(e.numerator, e.denominator)
            for e in (rec.interval.lo, rec.interval.hi)
        ]
        h = rec.h
        rows.append((rec.label, ends[0], ends[1], (h.d, -h.b, -h.c, h.a)))
    return rows


def slow_map_coding(rows: list[tuple], modular: bool, x, max_steps: int) -> dict:
    """Letters and termination of x under the map given by branch rows.

    Mirrors the coding contract: rationals are cusp points (for Gamma_0(p)
    every rational; for the modular preset those in no open interval), and
    a period is reported when an exact state repeats.
    """
    cur = state_of(x)
    seen = {cur: 0}
    letters = []
    for step in range(max_steps):
        row = None
        if modular or cur[0] == "surd":
            for r in rows:
                if (r[1] is None or _sign_minus(cur, r[1]) > 0) and (
                    r[2] is None or _sign_minus(cur, r[2]) < 0
                ):
                    row = r
                    break
        if row is None:
            return {"letters": letters, "kind": "cusp", "step": step, "at": cur}
        letters.append(row[0])
        cur = _apply(row[3], cur)
        if cur in seen:
            pre = seen[cur]
            return {"letters": letters, "kind": "periodic", "step": step + 1,
                    "preperiod": pre, "period": step + 1 - pre}
        seen[cur] = step + 1
    return {"letters": letters, "kind": "step-cap", "step": len(letters)}


def cf_rational(r: Fraction) -> list[int]:
    """Terminating continued fraction digits by the Euclidean algorithm."""
    n, m = r.numerator, r.denominator
    digits = []
    while m:
        q = n // m
        digits.append(q)
        n, m = m, n - q * m
    return digits


def cf_surd(a: int, b: int, c: int, d: int) -> tuple[list[int], list[int]]:
    """(preperiod, period) of (a + b*sqrt(d))/c by the (P, Q) recurrence."""
    P0, Q0 = (a, c) if b > 0 else (-a, -c)
    D = b * b * d * Q0 * Q0
    P, Q = P0 * abs(Q0), Q0 * abs(Q0)  # now Q divides D - P^2
    s = math.isqrt(D)
    seen: dict = {}
    digits: list[int] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(digits)
        q = (P + s) // Q if Q > 0 else (-P - s - 1) // -Q
        digits.append(q)
        P = q * Q - P
        Q = (D - P * P) // Q
    i = seen[(P, Q)]
    return digits[:i], digits[i:]


def apply_hpoint(m: tuple[int, int, int, int], x: Fraction, y2: Fraction) -> tuple[Fraction, Fraction]:
    """(Re, Im^2) of m(z) for z = x + i*sqrt(y2)."""
    a, b, c, d = m
    den = (c * x + d) ** 2 + c * c * y2
    return ((a * x + b) * (c * x + d) + a * c * y2) / den, y2 / (den * den)
