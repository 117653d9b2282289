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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .exact import BoundaryValue, Infinity, Rational, compare
from .dynamics import BranchRecord, BranchTable, Interval

__all__ = [
    "DensityFunction",
    "CollocationOperator",
    "apply_transfer",
    "transfer_two_step_pointwise",
    "functional_equation_residual",
    "collocation_matrix",
    "collocation_matrix_two_step",
]


class DensityFunction:
    """Density given by a float rule, an optional exact rule, or samples."""

    def __init__(
        self,
        float_rule: Callable[[float], float] | None = None,
        exact_rule: Callable[[BoundaryValue], BoundaryValue] | None = None,
        name: str = "density",
    ):
        self.float_rule = float_rule
        self.exact_rule = exact_rule
        self.name = name

    @classmethod
    def one(cls) -> "DensityFunction":
        return cls(lambda x: 1.0, lambda v: Rational(1), name="one")

    @classmethod
    def reciprocal(cls) -> "DensityFunction":
        return cls(lambda x: 1.0 / x, lambda v: v.reciprocal(), name="invx")

    @classmethod
    def from_samples(cls, nodes, values, name: str = "samples") -> "DensityFunction":
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape or len(nodes) < 2:
            raise ValueError("samples need matching 1-d nodes and values")
        order = np.argsort(nodes)
        nodes, values = nodes[order], values[order]

        def rule(x: float) -> float:
            return float(np.interp(x, nodes, values))

        return cls(rule, None, name=name)

    def __call__(self, x: float) -> float:
        if self.float_rule is None:
            raise ValueError(f"{self.name} has no float rule")
        return self.float_rule(x)

    def exact(self, v: BoundaryValue) -> BoundaryValue:
        if self.exact_rule is None:
            raise ValueError(f"{self.name} has no exact rule")
        return self.exact_rule(v)


def _as_density(phi) -> DensityFunction:
    if isinstance(phi, DensityFunction):
        return phi
    if callable(phi):
        return DensityFunction(phi)
    raise TypeError(f"cannot interpret {phi!r} as a density")


def _to_value(x) -> BoundaryValue:
    if isinstance(x, BoundaryValue):
        return x
    if isinstance(x, (int, Fraction)):
        return Rational(x)
    if isinstance(x, float):
        return Rational(Fraction(x))  # floats are exact binary rationals
    raise TypeError(f"cannot interpret {x!r} as an evaluation point")


def _contributing(table: BranchTable, x: BoundaryValue) -> list[BranchRecord]:
    recs = []
    for rec in table.branches:
        if rec.image.is_endpoint(x):
            raise ValueError(
                "evaluation point sits on an image-interval boundary; "
                "the characteristic function is undefined there"
            )
        if rec.image.contains(x):
            recs.append(rec)
    return recs


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
    recs = _contributing(table, xv)
    if exact_mode:
        total: BoundaryValue = Rational(0)
        for rec in recs:
            h = rec.h
            t = xv * h.c + Rational(h.d)
            fprime = (t * t).reciprocal()
            w: BoundaryValue = Rational(1)
            for _ in range(beta):
                w = w * fprime
            total = total + w * phi.exact(h.apply_boundary(xv))
        return total
    xf = xv.to_float()
    total = 0.0
    for rec in recs:
        h = rec.h
        den = h.c * xf + h.d
        fprime = 1.0 / (den * den)
        if fprime <= 0:
            raise AssertionError("branch derivative is a square and must be positive")
        w = _power(fprime, beta)
        q = (h.a * xf + h.b) / (h.c * xf + h.d)
        total = total + w * phi(q)
    return total


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
    for rec_k in _contributing(table, xv):
        hk = rec_k.h
        qf = (hk.a * xf + hk.b) / (hk.c * xf + hk.d)
        wk = _power(1.0 / (hk.c * xf + hk.d) ** 2, beta)
        qv = hk.apply_boundary(xv)
        for rec_j in _contributing(table, qv):
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


@dataclass(frozen=True)
class _Chart:
    """Moebius chart (0,1) -> branch interval, with weight W = x * dt/dx."""

    kind: str  # "finite" | "upper" | "lower"
    u: float
    v: float

    def x_of_t(self, t: float) -> float:
        if self.kind == "finite":
            return self.u + (self.v - self.u) * t
        if self.kind == "upper":
            return self.u + t / (1.0 - t)
        return self.v - (1.0 - t) / t

    def t_of_x(self, x: float) -> float:
        if self.kind == "finite":
            return (x - self.u) / (self.v - self.u)
        if self.kind == "upper":
            return (x - self.u) / (x - self.u + 1.0)
        return 1.0 / (self.v - x + 1.0)

    def weight(self, x: float) -> float:
        if self.kind == "finite":
            return x / (self.v - self.u)
        if self.kind == "upper":
            return x / (x - self.u + 1.0) ** 2
        return x / (self.v - x + 1.0) ** 2


def _chart_for(iv: Interval) -> _Chart:
    lo = None if iv.lo is None else iv.lo.to_float()
    hi = None if iv.hi is None else iv.hi.to_float()
    if lo is not None and hi is not None:
        return _Chart("finite", lo, hi)
    if lo is not None:
        return _Chart("upper", lo, math.nan)
    if hi is not None:
        return _Chart("lower", math.nan, hi)
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


def _interval_contained(inner: Interval, outer: Interval) -> bool:
    lo_ok = outer.lo is None or (inner.lo is not None and compare(outer.lo, inner.lo) != 1)
    hi_ok = outer.hi is None or (inner.hi is not None and compare(inner.hi, outer.hi) != 1)
    return lo_ok and hi_ok


class CollocationOperator:
    """Dense collocation matrix of L_beta in the weighted chart representation."""

    def __init__(self, table: BranchTable, beta, nodes_per_interval: int, two_step: bool = False):
        if nodes_per_interval < 4:
            raise ValueError("need at least 4 nodes per interval")
        self.table = table
        self.beta = beta
        self.n = nodes_per_interval
        self.two_step = two_step
        branches = table.branches
        self.charts = [_chart_for(rec.interval) for rec in branches]
        t, lam = _cheb_nodes(nodes_per_interval)
        self._t, self._lam = t, lam
        self.node_x = np.concatenate(
            [np.array([c.x_of_t(tt) for tt in t]) for c in self.charts]
        )
        self.node_branch = np.concatenate(
            [np.full(nodes_per_interval, bi) for bi in range(len(branches))]
        )
        self.node_weight = np.concatenate(
            [np.array([c.weight(x) for x in self.node_x[bi * self.n : (bi + 1) * self.n]])
             for bi, c in enumerate(self.charts)]
        )
        complex_beta = isinstance(beta, complex)
        size = len(self.node_x)
        M = np.zeros((size, size), dtype=complex if complex_beta else float)

        contained = {
            m: [k for k, rk in enumerate(branches) if _interval_contained(branches[m].interval, rk.image)]
            for m in range(len(branches))
        }
        steps: list[tuple[int, ...]] = []
        for i in range(size):
            m = int(self.node_branch[i])
            xi = self.node_x[i]
            Wi = self.node_weight[i]
            for k in contained[m]:
                if not two_step:
                    self._accumulate(M, i, xi, Wi, k, 1.0)
                else:
                    hk = branches[k].h
                    qf = (hk.a * xi + hk.b) / (hk.c * xi + hk.d)
                    wk = _power(1.0 / (hk.c * xi + hk.d) ** 2, beta)
                    for j in contained[k]:
                        self._accumulate(M, i, qf, Wi, j, wk)
        self.matrix = M

    def _accumulate(self, M, row: int, x: float, W_row: float, k: int, prefactor):
        rec = self.table.branches[k]
        h = rec.h
        w = _power(1.0 / (h.c * x + h.d) ** 2, self.beta) * prefactor
        q = (h.a * x + h.b) / (h.c * x + h.d)
        chart = self.charts[k]
        tq = chart.t_of_x(q)
        if not 0.0 < tq < 1.0:
            raise AssertionError("branch image point escaped its chart")
        coeffs = _bary_coeffs(tq, self._t, self._lam)
        Wq = chart.weight(q)
        M[row, k * self.n : (k + 1) * self.n] += w * (W_row / Wq) * coeffs

    # --- application and spectra -------------------------------------------

    def phi_to_m(self, phi) -> np.ndarray:
        phi = _as_density(phi)
        return np.array([phi(x) for x in self.node_x]) * self.node_weight

    def m_to_phi(self, m: np.ndarray) -> np.ndarray:
        return m / self.node_weight

    def apply_to_function(self, phi) -> np.ndarray:
        """(L_beta phi) evaluated at all nodes, through the matrix."""
        return self.m_to_phi(self.matrix @ self.phi_to_m(phi))

    def eigenvalues(self, k: int | None = None) -> list[complex]:
        """The k eigenvalues of largest modulus (all when k is None)."""
        if k is not None and k < 0:
            raise ValueError(f"eigenvalue count must be >= 0, got {k}")
        vals = np.linalg.eigvals(self.matrix)
        vals = sorted(vals, key=lambda z: (-abs(z), -z.real, -z.imag))
        return vals[:k]

    def power_iteration(self, iters: int = 200, seed: int = 0) -> tuple[complex, np.ndarray]:
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(len(self.node_x))
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = self.matrix @ v
            nw = np.linalg.norm(w)
            if nw == 0:
                return 0.0, v
            v = w / nw
            lam = v @ (self.matrix @ v)
        return lam, v


def collocation_matrix(table: BranchTable, beta, nodes_per_interval: int) -> CollocationOperator:
    return CollocationOperator(table, beta, nodes_per_interval)


def collocation_matrix_two_step(table: BranchTable, beta, nodes_per_interval: int) -> CollocationOperator:
    return CollocationOperator(table, beta, nodes_per_interval, two_step=True)
