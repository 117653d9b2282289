import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cuspdyn import transfer
from cuspdyn.dynamics import branch_table, modular_table
from cuspdyn.exact import Rational, Surd, normalize_surd
from cuspdyn.sampling import SQUAREFREE, sample_surd_in
from cuspdyn.transfer import (
    DensityFunction,
    _bary_rows,
    _cheb_nodes,
    _power,
    apply_transfer,
    collocation_matrix,
    transfer_two_step_pointwise,
)


def test_apply_transfer_modular_exact_identity():
    tm = modular_table()
    invx = DensityFunction.reciprocal()
    s2 = normalize_surd(0, 1, 1, 2)
    assert apply_transfer(tm, 1, invx, s2) == s2.reciprocal()


def test_apply_transfer_p5_example():
    t5 = branch_table(5)
    one = DensityFunction.one()
    v = apply_transfer(t5, 1, one, 0.3)
    assert math.isclose(v, 5.16, rel_tol=0, abs_tol=1e-12)


def test_apply_transfer_beta0_counts_branches():
    t5 = branch_table(5)
    tm = modular_table()
    one = DensityFunction.one()
    assert apply_transfer(t5, 0, one, 0.3) == 3.0
    assert apply_transfer(tm, 0, one, 0.77) == 2.0
    assert apply_transfer(t5, 0, one, -3.2) == 2.0  # only branches -1 and p-1 map there


def test_apply_transfer_boundary_error():
    t5 = branch_table(5)
    with pytest.raises(ValueError):
        apply_transfer(t5, 1, DensityFunction.one(), Rational(Fraction(3, 5)))


def test_positivity_and_linearity():
    t5 = branch_table(5)
    rng = random.Random(3)
    f = DensityFunction(lambda t: 1.0 + math.sin(t) ** 2)
    g = DensityFunction(lambda t: math.exp(-abs(t)))
    for _ in range(20):
        x = rng.uniform(-2, 2)
        try:
            vf = apply_transfer(t5, 1.0, f, x)
            vg = apply_transfer(t5, 1.0, g, x)
            combo = apply_transfer(
                t5, 1.0, DensityFunction(lambda t: 2.0 * (1.0 + math.sin(t) ** 2) - 3.0 * math.exp(-abs(t))), x
            )
        except ValueError:
            continue
        assert vf >= 0 and vg >= 0
        assert math.isclose(combo, 2.0 * vf - 3.0 * vg, rel_tol=1e-12, abs_tol=1e-12)
        # a plain callable is a density too
        assert apply_transfer(t5, 1.0, lambda t: math.exp(-abs(t)), x) == vg


def test_functional_equation_examples():
    # phi(x) - (L_beta phi)(x) = phi(x) - phi(x + 1) - (x + 1)^(-2 beta) phi(x/(x + 1)) on R+
    tm = modular_table()
    residual = lambda beta, phi, x: phi(x) - apply_transfer(tm, beta, phi, x)
    invx = DensityFunction.reciprocal()
    assert max(abs(residual(1, invx, x)) for x in (0.31, 1.7, 9.9, 0.02)) < 1e-12
    assert math.isclose(residual(1, DensityFunction.one(), 1.0), -0.25, abs_tol=1e-15)
    assert math.isclose(residual(0, DensityFunction(lambda t: t), 2.0), -5.0 / 3.0, abs_tol=1e-14)


def test_functional_equation_exact_identity_at_surds():
    tm = modular_table()
    invx = DensityFunction.reciprocal()
    rng = random.Random(8)
    for _ in range(25):
        d = rng.choice(SQUAREFREE)
        x = sample_surd_in(rng, Fraction(0), Fraction(10), d)
        lhs = apply_transfer(tm, 1, invx, x)
        assert lhs == x.reciprocal()


def test_two_step_pointwise_vs_double_application():
    one = DensityFunction.one()
    for p in (2, 5):
        t = branch_table(p)
        rng = random.Random(p)
        for beta in (0, 1, 1.5):
            for _ in range(15):
                x = rng.uniform(-3, 3)
                try:
                    inner = DensityFunction(lambda q, b=beta: apply_transfer(t, b, one, q))
                    double = apply_transfer(t, beta, inner, x)
                    explicit = transfer_two_step_pointwise(t, beta, one, x)
                except ValueError:
                    continue
                assert abs(double - explicit) <= 1e-10 * max(1.0, abs(explicit))


def test_collocation_reproduces_reciprocal_modular():
    tm = modular_table()
    invx = DensityFunction.reciprocal()
    op = collocation_matrix(tm, 1.0, 32)
    got = op.apply_to_function(invx)
    want = np.array([1.0 / x for x in op.node_x])
    rel = np.abs(got - want) / np.abs(want)
    assert rel.max() <= 1e-8
    op64 = collocation_matrix(tm, 1.0, 64)
    got64 = op64.apply_to_function(invx)
    want64 = np.array([1.0 / x for x in op64.node_x])
    assert (np.abs(got64 - want64) / np.abs(want64)).max() <= 1e-8


def test_collocation_beta0_constant():
    tm = modular_table()
    op = collocation_matrix(tm, 0.0, 16)
    got = op.apply_to_function(DensityFunction.one())
    assert np.abs(got - 2.0).max() <= 1e-10


def test_collocation_matches_pointwise_row_sums():
    tm = modular_table()
    one = DensityFunction.one()
    op = collocation_matrix(tm, 1.0, 24)
    got = op.apply_to_function(one)
    want = np.array([apply_transfer(tm, 1.0, one, float(x)) for x in op.node_x])
    assert np.abs(got - want).max() <= 1e-10


def test_collocation_semigroup():
    # M (M m) against the two-letter operator sum itself, in the weighted representation
    tm = modular_table()
    cases = (
        (tm, 1.0, DensityFunction.reciprocal(), 32),
        (tm, 0.0, DensityFunction.one(), 32),
        (branch_table(2), 0.0, DensityFunction.one(), 16),
    )
    for table, beta, phi, n in cases:
        op = collocation_matrix(table, beta, n)
        m = op.phi_to_m(phi)
        want = np.array([transfer_two_step_pointwise(table, beta, phi, float(x)) for x in op.node_x])
        assert np.abs(op.matrix @ (op.matrix @ m) - want * op.node_weight).max() <= 1e-8


def test_collocation_rejects_tiny_node_count():
    with pytest.raises(ValueError):
        collocation_matrix(modular_table(), 1.0, 3)


# --- the per-row collocation build, kept as the reference of the block build ----


def _scalar_chart(iv):
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
    return (lambda t: hi - (1.0 - t) / t,
            lambda x: 1.0 / (hi - x + 1.0),
            lambda x: x / (hi - x + 1.0) ** 2)


def _bary_coeffs(t, tj, lam):
    diff = t - tj
    hit = np.nonzero(diff == 0.0)[0]
    out = np.zeros_like(tj)
    if len(hit):
        out[hit[0]] = 1.0
        return out
    terms = lam / diff
    return terms / terms.sum()


def _collocation_by_row(table, beta, n):
    """(matrix, node_x, node_weight), one row and branch at a time in numpy scalars."""
    charts = [_scalar_chart(rec.interval) for rec in table.branches]
    t, lam = _cheb_nodes(n)
    xs = [np.array([x_of(tt) for tt in t]) for x_of, _, _ in charts]
    node_x = np.concatenate(xs)
    node_weight = np.concatenate([np.array([W(x) for x in xc]) for xc, (_, _, W) in zip(xs, charts)])
    M = np.zeros((len(node_x), len(node_x)), dtype=complex if isinstance(beta, complex) else float)
    for k, (_, t_of, W) in enumerate(charts):
        h = table.branches[k].h
        for m in table.follows(k):
            for row in range(m * n, (m + 1) * n):
                x = node_x[row]
                w = _power(1.0 / (h.c * x + h.d) ** 2, beta)
                q = (h.a * x + h.b) / (h.c * x + h.d)
                tq = t_of(q)
                assert 0.0 < tq < 1.0
                coeffs = _bary_coeffs(tq, t, lam)
                M[row, k * n : (k + 1) * n] += w * (node_weight[row] / W(q)) * coeffs
    return M, node_x, node_weight


@pytest.mark.parametrize("level", ["modular", 2, 3, 5, 13])
def test_block_build_is_bit_identical_to_the_row_loop(level):
    table = modular_table() if level == "modular" else branch_table(level)
    for beta in (0.0, 1.0, 1.5, 1 + 0.5j):
        for n in (4, 5, 16, 33, 64):
            op = collocation_matrix(table, beta, n)
            for got, want in zip((op.matrix, op.node_x, op.node_weight), _collocation_by_row(table, beta, n)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert got.tobytes() == want.tobytes()  # signed zeros too


def test_block_build_refuses_an_image_outside_its_chart(monkeypatch):
    chart = transfer._chart

    def shifted(iv):
        x_of, t_of, W = chart(iv)
        return x_of, lambda q: t_of(q) + 1.0, W

    monkeypatch.setattr(transfer, "_chart", shifted)
    with pytest.raises(AssertionError, match="branch image point escaped its chart"):
        collocation_matrix(modular_table(), 1.0, 8)


def test_bary_rows_match_the_row_coefficients_and_node_hits():
    for n in (4, 5, 16):
        t, lam = _cheb_nodes(n)
        tq = np.concatenate([t[[0, n // 2, n - 1]], [0.5 * (t[0] + t[1]), 1e-3, 0.999, 0.5]])
        rows = _bary_rows(tq, t, lam)
        for got, point in zip(rows, tq):
            assert np.array_equal(got, _bary_coeffs(point, t, lam))
        for i, j in enumerate((0, n // 2, n - 1)):
            assert np.array_equal(rows[i], np.eye(n)[j])


def test_complex_beta():
    tm = modular_table()
    one = DensityFunction.one()
    v = apply_transfer(tm, 1 + 0.5j, one, 2.3)
    assert isinstance(v, complex)
    op = collocation_matrix(tm, 1 + 0.5j, 8)
    assert op.matrix.dtype == complex
    vals = op.eigenvalues(3)
    assert len(vals) == 3


def test_eigenvalues_sorted():
    tm = modular_table()
    op = collocation_matrix(tm, 1.0, 16)
    vals = op.eigenvalues()
    mags = [abs(v) for v in vals]
    assert mags == sorted(mags, reverse=True)


def test_density_from_samples():
    nodes = np.linspace(0.1, 10, 200)
    phi = DensityFunction.from_samples(nodes, 1.0 / nodes)
    assert math.isclose(phi(1.0), 1.0, rel_tol=1e-3)
    with pytest.raises(ValueError):
        DensityFunction.from_samples([1.0], [1.0])
