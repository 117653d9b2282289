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
should be read as chart-dependent.  The matrix is built one nonzero
(branch k, follower m in follows(k)) block at a time, in array operations.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .exact import BoundaryValue, Infinity, Rational, _coerce, _parts
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
        """Piecewise-linear interpolation of finite samples (values[i] at distinct nodes[i])."""
        samples = (nodes, values)
        try:
            nodes, values = np.asarray(nodes), np.asarray(values)
        except ValueError:  # ragged nesting
            raise ValueError("samples need matching 1-d nodes and values") from None
        if nodes.dtype.kind not in "iuf" or values.dtype.kind not in "iuf":
            raise ValueError("samples must be numbers")
        nodes, values = nodes.astype(float), values.astype(float)
        if nodes.ndim != 1 or nodes.shape != values.shape or len(nodes) < 2:
            raise ValueError("samples need matching 1-d nodes and values")
        # numpy reads a boolean among numbers as 0 or 1
        if any(isinstance(v, bool) for s in samples for v in s):
            raise ValueError("samples must be numbers, not booleans")
        if not (np.isfinite(nodes).all() and np.isfinite(values).all()):
            raise ValueError("samples must be finite")
        order = np.argsort(nodes)
        nodes, values = nodes[order], values[order]
        if (np.diff(nodes) == 0).any():
            raise ValueError("sample nodes must be distinct")
        return cls(lambda x: float(np.interp(x, nodes, values)))

    def __call__(self, x: float) -> float:
        return self.float_rule(x)


def _to_value(x) -> BoundaryValue:
    # floats are exact binary rationals
    return Rational(Fraction(x)) if isinstance(x, float) else _coerce(x)


def apply_transfer(table: BranchTable, beta, phi, x):
    """(L_beta phi)(x) = sum over contributing branches of F_k'(x)^beta phi(h_k x).

    Returns an exact BoundaryValue when x is exact, beta a nonnegative
    integer and phi carries an exact rule; otherwise a float (complex for
    complex beta).
    """
    xv = _to_value(x)
    if isinstance(xv, Infinity):
        raise ValueError("transfer operator is evaluated on the real line only")
    exact_mode = (
        xv.is_exact()
        and isinstance(beta, int)
        and beta >= 0
        and isinstance(phi, DensityFunction)
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
        w, q = _float_step(rec.h, xf, beta)
        total = total + w * phi(q)
    return total


def _float_step(h, x: float, beta):
    """Float weight F'(x)^beta = (c x + d)^(-2 beta) and image h x of one branch."""
    den = h.c * x + h.d
    fprime = 1.0 / (den * den)
    if not 0.0 < fprime < math.inf:
        raise ValueError(f"branch weight at x = {x!r} is out of float range")
    return _power(fprime, beta), (h.a * x + h.b) / den


def _digits(v: BoundaryValue) -> float:
    """log10 of the largest integer in a rational or surd."""
    a, b, c, _ = _parts(v)
    return math.log10(max(abs(a), abs(b), c))


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


def _powers(base: np.ndarray, beta) -> np.ndarray:
    # _power per element: numpy's a ** 2, np.power(a, 1.5) and np.log differ from C's
    # scalar pow and log in the last bit (182, 10,728 and 48 of 200,000 uniform samples
    # in (0.01, 100)), and one ulp in one weight moved 360 of 512 printed eigenvalues
    return np.array([_power(b, beta) for b in base.tolist()])


def transfer_two_step_pointwise(table: BranchTable, beta, phi, x) -> float | complex:
    """Explicit two-letter sum for (L_beta^2 phi)(x), Markov-admissible pairs only."""
    xv = _to_value(x)
    xf = xv.to_float()
    total = 0.0
    for rec_k in table.inverse_branches(xv):
        wk, qf = _float_step(rec_k.h, xf, beta)
        for rec_j in table.inverse_branches(rec_k.h.apply_boundary(xv)):
            wj, q2 = _float_step(rec_j.h, qf, beta)
            total = total + wk * wj * phi(q2)
    return total


# --- collocation ---------------------------------------------------------------


def _chart(iv: Interval):
    """Moebius chart (0,1) -> branch interval: array maps x(t), t(x) and the weight W = x * dt/dx."""
    lo = None if iv.lo is None else iv.lo.to_float()
    hi = None if iv.hi is None else iv.hi.to_float()
    if lo is not None and hi is not None:
        return (lambda t: lo + (hi - lo) * t,
                lambda x: (x - lo) / (hi - lo),
                lambda x: x / (hi - lo))
    if lo is not None:
        return (lambda t: lo + t / (1.0 - t),
                lambda x: (x - lo) / (x - lo + 1.0),
                lambda x: x / _powers(x - lo + 1.0, 2))
    if hi is not None:
        return (lambda t: hi - (1.0 - t) / t,
                lambda x: 1.0 / (hi - x + 1.0),
                lambda x: x / _powers(hi - x + 1.0, 2))
    raise ValueError("branch interval unbounded on both sides")


def _cheb_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    j = np.arange(n)
    theta = (2 * j + 1) * math.pi / (2 * n)
    t = (1.0 + np.cos(theta)) / 2.0  # descending in (0,1)
    lam = (-1.0) ** j * np.sin(theta)
    return t, lam


def _bary_rows(tq: np.ndarray, t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Barycentric weights over the nodes t, a row per tq; a tq on a node gets its unit row."""
    diff = tq[:, None] - t
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = lam / diff
        rows = terms / terms.sum(axis=1, keepdims=True)
    on_node = (diff == 0.0).any(axis=1)
    rows[on_node] = diff[on_node] == 0.0
    return rows


class CollocationOperator:
    """Dense collocation matrix of L_beta in the weighted chart representation."""

    def __init__(self, table: BranchTable, beta, nodes_per_interval: int):
        if nodes_per_interval < 4:
            raise ValueError("need at least 4 nodes per interval")
        n = nodes_per_interval
        charts = [_chart(rec.interval) for rec in table.branches]
        # the matrix first: numpy refuses one beyond memory at once, before the
        # node arrays (each of n floats) are built
        size = len(charts) * n
        M = np.zeros((size, size), dtype=complex if isinstance(beta, complex) else float)
        t, lam = _cheb_nodes(n)
        xs = [x_of(t) for x_of, _, _ in charts]
        self.node_x = np.concatenate(xs)
        self.node_weight = np.concatenate([W(xc) for xc, (_, _, W) in zip(xs, charts)])
        # the rows of every interval m that follows branch k get one block in the
        # columns of k, filled at once; each block is written once
        for k, (_, t_of, W) in enumerate(charts):
            rows = (n * np.array(table.follows(k), dtype=int)[:, None] + np.arange(n)).ravel()
            h = table.branches[k].h
            x = self.node_x[rows]
            den = h.c * x + h.d
            q = (h.a * x + h.b) / den
            tq = t_of(q)
            if not ((0.0 < tq) & (tq < 1.0)).all():
                raise AssertionError("branch image point escaped its chart")
            w = _powers(1.0 / _powers(den, 2), beta) * (self.node_weight[rows] / W(q))
            M[rows, k * n : (k + 1) * n] += w[:, None] * _bary_rows(tq, t, lam)
        self.matrix = M

    # --- application and spectra -------------------------------------------

    def phi_to_m(self, phi) -> np.ndarray:
        return np.array([phi(x) for x in self.node_x]) * self.node_weight

    def apply_to_function(self, phi) -> np.ndarray:
        """(L_beta phi) evaluated at all nodes, through the matrix."""
        return (self.matrix @ self.phi_to_m(phi)) / self.node_weight

    def eigenvalues(self, k: int | None = None) -> list[complex]:
        """The k eigenvalues of largest modulus (all when k is None)."""
        if k is not None and k < 0:
            raise ValueError(f"eigenvalue count must be >= 0, got {k}")
        vals = np.linalg.eigvals(self.matrix)
        # scalar abs, not np.abs: the two differ in 80 of the 256 moduli of p = 13 at
        # 16 nodes and beta = 1, so sorting on np.abs could reorder near-ties
        vals = sorted(vals, key=lambda z: (-abs(z), -z.real, -z.imag))
        return vals[:k]


def collocation_matrix(table: BranchTable, beta, nodes_per_interval: int) -> CollocationOperator:
    return CollocationOperator(table, beta, nodes_per_interval)

