"""Transfer operator of the cusp-expansion generating map.

Pointwise evaluation sums branch weights F_k'(x)^beta = (c_k x + d_k)^(-2 beta)
over the branches whose image interval contains x; the derivative of a
determinant-one branch is a square, so weights are positive for real beta
and no branch cuts appear.  Integer beta with exact arguments is
evaluated in exact arithmetic.

The collocation discretization places Chebyshev nodes in a Moebius chart
of each branch interval and represents a density phi by the samples of
phi(x) * W(x), where W = x * dt/dx is polynomial in the chart coordinate;
with this weight both a constant density and the reciprocal density are
low-degree polynomials per chart, so the reference checks are resolved at
machine precision.  The chart choice is a pragmatic one and spectra
should be read as chart-dependent.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .exact import BoundaryValue, Infinity, Rational, _coerce
from .dynamics import BranchTable, Interval

# An exact weight (c x + d)^(-2 beta) has about beta times the digits of
# (c x + d)^(-2), exactly that many for a rational x; larger ones are
# refused rather than computed.  The bound is Python's own default for
# converting an int to text.
MAX_WEIGHT_DIGITS = 4300

__all__ = [
    "DensityFunction",
    "CollocationOperator",
    "apply_transfer",
    "transfer_two_step_pointwise",
    "functional_equation_residual",
    "collocation_matrix",
]


class DensityFunction:
    """Density given by a float rule and an optional exact rule, or by samples."""

    def __init__(
        self,
        float_rule: Callable[[float], float],
        exact_rule: Callable[[BoundaryValue], BoundaryValue] | None = None,
    ):
        self.float_rule = float_rule
        self.exact_rule = exact_rule

    @classmethod
    def one(cls) -> "DensityFunction":
        return cls(lambda x: 1.0, lambda v: Rational(1))

    @classmethod
    def reciprocal(cls) -> "DensityFunction":
        return cls(lambda x: 1.0 / x, lambda v: v.reciprocal())

    @classmethod
    def from_samples(cls, nodes, values) -> "DensityFunction":
        """Piecewise-linear interpolation of finite samples (values[i] at nodes[i])."""
        try:
            nodes, values = np.asarray(nodes), np.asarray(values)
        except ValueError:  # ragged nesting
            raise ValueError("samples need matching 1-d nodes and values") from None
        if nodes.dtype.kind not in "iuf" or values.dtype.kind not in "iuf":
            raise ValueError("samples must be numbers")
        nodes, values = nodes.astype(float), values.astype(float)
        if nodes.ndim != 1 or nodes.shape != values.shape or len(nodes) < 2:
            raise ValueError("samples need matching 1-d nodes and values")
        if not (np.isfinite(nodes).all() and np.isfinite(values).all()):
            raise ValueError("samples must be finite")
        order = np.argsort(nodes)
        nodes, values = nodes[order], values[order]
        return cls(lambda x: float(np.interp(x, nodes, values)))

    def __call__(self, x: float) -> float:
        return self.float_rule(x)


def _as_density(phi) -> DensityFunction:
    if isinstance(phi, DensityFunction):
        return phi
    if callable(phi):
        return DensityFunction(phi)
    raise TypeError(f"cannot interpret {phi!r} as a density")


def _to_value(x) -> BoundaryValue:
    # floats are exact binary rationals
    return Rational(Fraction(x)) if isinstance(x, float) else _coerce(x)


def apply_transfer(table: BranchTable, beta, phi, x):
    """(L_beta phi)(x) = sum over contributing branches of F_k'(x)^beta phi(h_k x).

    Returns an exact BoundaryValue when x is exact, beta a nonnegative
    integer and phi carries an exact rule; otherwise a float (complex for
    complex beta).
    """
    phi = _as_density(phi)
    xv = _to_value(x)
    if isinstance(xv, Infinity):
        raise ValueError("transfer operator is evaluated on the real line only")
    exact_mode = (
        xv.is_exact()
        and isinstance(beta, int)
        and beta >= 0
        and phi.exact_rule is not None
        and not isinstance(x, float)
    )
    recs = table.inverse_branches(xv)
    if exact_mode:
        total: BoundaryValue = Rational(0)
        for rec in recs:
            h = rec.h
            t = xv * h.c + Rational(h.d)
            fprime = (t * t).reciprocal()
            digits = beta * _digits(fprime)
            if digits >= MAX_WEIGHT_DIGITS:
                raise ValueError(
                    f"the exact weight at beta = {beta} has about {int(digits) + 1} digits, "
                    f"over the bound of {MAX_WEIGHT_DIGITS}"
                )
            total = total + _exact_power(fprime, beta) * phi.exact_rule(h.apply_boundary(xv))
        return total
    xf = xv.to_float()
    total = 0.0
    for rec in recs:
        h = rec.h
        den = h.c * xf + h.d
        fprime = 1.0 / (den * den)
        if not 0.0 < fprime < math.inf:
            raise ValueError(f"branch weight at x = {xf!r} is out of float range")
        w = _power(fprime, beta)
        q = (h.a * xf + h.b) / (h.c * xf + h.d)
        total = total + w * phi(q)
    return total


def _digits(v: BoundaryValue) -> float:
    """log10 of the largest integer in a rational or surd."""
    ints = (v.numerator, v.denominator) if isinstance(v, Rational) else (v.a, v.b, v.c)
    return math.log10(max(abs(i) for i in ints))


def _exact_power(v: BoundaryValue, n: int) -> BoundaryValue:
    """v**n for n >= 0, by repeated squaring."""
    out: BoundaryValue = Rational(1)
    while n:
        if n & 1:
            out = out * v
        n >>= 1
        if n:
            v = v * v
    return out


def _power(fprime: float, beta):
    if isinstance(beta, complex):
        return cmath.exp(beta * math.log(fprime))
    return fprime**beta


def transfer_two_step_pointwise(table: BranchTable, beta, phi, x) -> float | complex:
    """Explicit two-letter sum for (L_beta^2 phi)(x), Markov-admissible pairs only."""
    phi = _as_density(phi)
    xv = _to_value(x)
    xf = xv.to_float()
    total = 0.0
    for rec_k in table.inverse_branches(xv):
        hk = rec_k.h
        qf = (hk.a * xf + hk.b) / (hk.c * xf + hk.d)
        wk = _power(1.0 / (hk.c * xf + hk.d) ** 2, beta)
        qv = hk.apply_boundary(xv)
        for rec_j in table.inverse_branches(qv):
            hj = rec_j.h
            wj = _power(1.0 / (hj.c * qf + hj.d) ** 2, beta)
            q2 = (hj.a * qf + hj.b) / (hj.c * qf + hj.d)
            total = total + wk * wj * phi(q2)
    return total


def functional_equation_residual(beta, phi, xs) -> list:
    """Residuals phi(x) - phi(x+1) - (x+1)^(-2 beta) phi(x/(x+1)) on R+."""
    phi = _as_density(phi)
    out = []
    for x in xs:
        xf = float(x)
        if xf <= 0:
            raise ValueError("the functional equation is evaluated on positive reals")
        w = _power(1.0 / (xf + 1.0) ** 2, beta)
        out.append(phi(xf) - phi(xf + 1.0) - w * phi(xf / (xf + 1.0)))
    return out


# --- collocation ---------------------------------------------------------------


def _chart(iv: Interval):
    """Moebius chart (0,1) -> branch interval: the maps x(t), t(x) and the weight W = x * dt/dx."""
    lo = None if iv.lo is None else iv.lo.to_float()
    hi = None if iv.hi is None else iv.hi.to_float()
    if lo is not None and hi is not None:
        return (lambda t: lo + (hi - lo) * t,
                lambda x: (x - lo) / (hi - lo),
                lambda x: x / (hi - lo))
    if lo is not None:
        return (lambda t: lo + t / (1.0 - t),
                lambda x: (x - lo) / (x - lo + 1.0),
                lambda x: x / (x - lo + 1.0) ** 2)
    if hi is not None:
        return (lambda t: hi - (1.0 - t) / t,
                lambda x: 1.0 / (hi - x + 1.0),
                lambda x: x / (hi - x + 1.0) ** 2)
    raise ValueError("branch interval unbounded on both sides")


def _cheb_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    j = np.arange(n)
    theta = (2 * j + 1) * math.pi / (2 * n)
    t = (1.0 + np.cos(theta)) / 2.0  # descending in (0,1)
    lam = (-1.0) ** j * np.sin(theta)
    return t, lam


def _bary_coeffs(t: float, tj: np.ndarray, lam: np.ndarray) -> np.ndarray:
    diff = t - tj
    hit = np.nonzero(diff == 0.0)[0]
    out = np.zeros_like(tj)
    if len(hit):
        out[hit[0]] = 1.0
        return out
    terms = lam / diff
    return terms / terms.sum()


class CollocationOperator:
    """Dense collocation matrix of L_beta in the weighted chart representation."""

    def __init__(self, table: BranchTable, beta, nodes_per_interval: int):
        if nodes_per_interval < 4:
            raise ValueError("need at least 4 nodes per interval")
        n = nodes_per_interval
        charts = [_chart(rec.interval) for rec in table.branches]
        t, lam = _cheb_nodes(n)
        xs = [np.array([x_of(tt) for tt in t]) for x_of, _, _ in charts]
        self.node_x = np.concatenate(xs)
        self.node_weight = np.concatenate(
            [np.array([W(x) for x in xc]) for xc, (_, _, W) in zip(xs, charts)]
        )
        size = len(self.node_x)
        M = np.zeros((size, size), dtype=complex if isinstance(beta, complex) else float)
        # each row of interval m gets one block per branch k whose image contains m;
        # every block is written once, so the loop order does not change a bit
        for k, (_, t_of, W) in enumerate(charts):
            h = table.branches[k].h
            for m in table.follows(k):
                for row in range(m * n, (m + 1) * n):
                    x = self.node_x[row]
                    w = _power(1.0 / (h.c * x + h.d) ** 2, beta)
                    q = (h.a * x + h.b) / (h.c * x + h.d)
                    tq = t_of(q)
                    if not 0.0 < tq < 1.0:
                        raise AssertionError("branch image point escaped its chart")
                    coeffs = _bary_coeffs(tq, t, lam)
                    M[row, k * n : (k + 1) * n] += w * (self.node_weight[row] / W(q)) * coeffs
        self.matrix = M

    # --- application and spectra -------------------------------------------

    def phi_to_m(self, phi) -> np.ndarray:
        phi = _as_density(phi)
        return np.array([phi(x) for x in self.node_x]) * self.node_weight

    def apply_to_function(self, phi) -> np.ndarray:
        """(L_beta phi) evaluated at all nodes, through the matrix."""
        return (self.matrix @ self.phi_to_m(phi)) / self.node_weight

    def eigenvalues(self, k: int | None = None) -> list[complex]:
        """The k eigenvalues of largest modulus (all when k is None)."""
        if k is not None and k < 0:
            raise ValueError(f"eigenvalue count must be >= 0, got {k}")
        vals = np.linalg.eigvals(self.matrix)
        vals = sorted(vals, key=lambda z: (-abs(z), -z.real, -z.imag))
        return vals[:k]


def collocation_matrix(table: BranchTable, beta, nodes_per_interval: int) -> CollocationOperator:
    return CollocationOperator(table, beta, nodes_per_interval)

