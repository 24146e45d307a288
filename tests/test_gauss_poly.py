"""Tests for the polynomial-times-Gaussian algebra.

Expected values come from independent oracles: a naive re-implementation of
term evaluation, scipy quadrature for low-dimensional integrals, and closed
determinant formulas for the pure-Gaussian case.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from sqbell import gauss_poly as gp
from sqbell.errors import (
    DegreeCapError,
    DimensionMismatchError,
    DivergentIntegralError,
    UnsupportedEvaluationError,
)

RNG = np.random.default_rng(20240811)


def random_spd(n, rng, scale=1.0):
    M = rng.normal(size=(n, n))
    return scale * (M @ M.T + n * np.eye(n))


def random_polygauss(n_vars, n_terms, rng, max_degree=3):
    terms = []
    for _ in range(n_terms):
        coeffs = {}
        for _ in range(rng.integers(1, 4)):
            mono = tuple(int(v) for v in rng.integers(0, max_degree + 1, n_vars))
            if sum(mono) > max_degree:
                mono = (0,) * n_vars
            coeffs[mono] = complex(rng.normal(), rng.normal())
        A = random_spd(n_vars, rng, scale=0.5)
        b = rng.normal(size=n_vars) + 1j * rng.normal(size=n_vars)
        terms.append(gp.GaussPolyTerm(
            complex(rng.normal(), rng.normal()),
            gp.Polynomial(n_vars, coeffs), A, 0.3 * b))
    return gp.PolyGaussFunction(n_vars, terms)


def naive_value(f, x):
    """Independent evaluator, written directly from the term definition."""
    total = 0.0 + 0.0j
    for t in f.terms:
        poly = sum(c * np.prod([x[i] ** e for i, e in enumerate(mono)])
                   for mono, c in t.poly.coeffs.items())
        total += t.coeff * poly * np.exp(-0.5 * x @ t.quad @ x + t.lin @ x)
    return total


# ---------------------------------------------------------------------------
# multiply
# ---------------------------------------------------------------------------


def test_multiply_adds_exponents():
    f = gp.PolyGaussFunction(2, [gp.GaussPolyTerm(
        1.0, gp.Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0}),
        np.diag([1.0, 0.0]), np.zeros(2))])
    g = gp.PolyGaussFunction.gaussian(np.diag([1.0, 0.0]))
    h = gp.multiply(f, g)
    assert len(h.terms) == 1
    assert np.allclose(h.terms[0].quad, np.diag([2.0, 0.0]))
    x = np.array([0.8, -0.4])
    assert gp.evaluate(h, x) == pytest.approx((1 - 0.64) * np.exp(-0.64))


def test_multiply_by_one_is_identity():
    f = random_polygauss(4, 3, np.random.default_rng(1))
    one = gp.PolyGaussFunction.constant(4, 1.0)
    h = gp.multiply(f, one)
    for _ in range(20):
        x = RNG.normal(size=4)
        assert gp.evaluate(h, x) == pytest.approx(gp.evaluate(f, x), abs=1e-12)


def test_multiply_gaussians_pointwise_oracle():
    rng = np.random.default_rng(7)
    A1, A2 = random_spd(4, rng), random_spd(4, rng)
    f, g = gp.PolyGaussFunction.gaussian(A1), gp.PolyGaussFunction.gaussian(A2)
    h = gp.multiply(f, g)
    assert np.allclose(h.terms[0].quad, A1 + A2)
    for _ in range(100):
        x = rng.normal(size=4) * 0.7
        direct = np.exp(-0.5 * x @ A1 @ x) * np.exp(-0.5 * x @ A2 @ x)
        assert gp.evaluate(h, x) == pytest.approx(direct, rel=1e-12)


def test_multiply_commutes_and_associates_pointwise():
    rng = np.random.default_rng(3)
    f = random_polygauss(2, 2, rng)
    g = random_polygauss(2, 2, rng)
    h = random_polygauss(2, 1, rng)
    fg, gf = gp.multiply(f, g), gp.multiply(g, f)
    fg_h = gp.multiply(fg, h)
    f_gh = gp.multiply(f, gp.multiply(g, h))
    for _ in range(100):
        x = rng.normal(size=2) * 0.8
        assert gp.evaluate(fg, x) == pytest.approx(gp.evaluate(gf, x), rel=1e-10)
        assert gp.evaluate(fg, x) == pytest.approx(
            gp.evaluate(f, x) * gp.evaluate(g, x), rel=1e-10, abs=1e-12)
        assert gp.evaluate(fg_h, x) == pytest.approx(
            gp.evaluate(f_gh, x), rel=1e-9, abs=1e-12)


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        gp.multiply(gp.PolyGaussFunction.constant(2),
                    gp.PolyGaussFunction.constant(4))


def test_multiply_delta_collision_rejected():
    d = gp.PolyGaussFunction.point_mass(2, 0)
    with pytest.raises(UnsupportedEvaluationError):
        gp.multiply(d, d)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_vacuum_at_origin():
    chi = gp.PolyGaussFunction.gaussian(np.eye(2))
    assert gp.evaluate(chi, [0.0, 0.0]) == pytest.approx(1.0)


def test_evaluate_single_mode_gaussian():
    chi = gp.PolyGaussFunction.gaussian(np.eye(2))
    assert gp.evaluate_at_betas(chi, [1.0 + 0.0j]) == pytest.approx(np.exp(-0.5))


def test_evaluate_matches_naive_oracle():
    f = random_polygauss(4, 4, np.random.default_rng(11))
    for _ in range(50):
        x = RNG.normal(size=4)
        assert gp.evaluate(f, x) == pytest.approx(naive_value(f, x), rel=1e-12,
                                                  abs=1e-12)


def test_evaluate_batch_matches_naive_oracle():
    # an (N, n_vars) array evaluates every row; complex amplitudes pack row-wise
    f = random_polygauss(4, 4, np.random.default_rng(12), max_degree=4)
    x = RNG.normal(size=(30, 4))
    values = gp.evaluate(f, x)
    assert values.shape == (30,)
    for k in range(30):
        assert values[k] == pytest.approx(naive_value(f, x[k]), rel=1e-12, abs=1e-12)
    betas = x[:, 0::2] + 1j * x[:, 1::2]
    assert np.array_equal(gp.evaluate_at_betas(f, betas), values)
    assert gp.evaluate(f, x[:1]).shape == (1,)
    assert isinstance(gp.evaluate(f, x[0]), complex)


def test_evaluate_rejects_point_mass():
    with pytest.raises(UnsupportedEvaluationError):
        gp.evaluate(gp.PolyGaussFunction.point_mass(2, 0), [0.0, 0.0])


def test_evaluate_rejects_wrong_length():
    with pytest.raises(DimensionMismatchError):
        gp.evaluate(gp.PolyGaussFunction.constant(4), [0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        gp.evaluate(gp.PolyGaussFunction.constant(4), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def test_integrate_standard_gaussian():
    f = gp.PolyGaussFunction.gaussian(np.array([[1.0]]))
    assert gp.integrate_real(f, [0]).constant_value() == pytest.approx(
        np.sqrt(2 * np.pi))


def test_integrate_second_moment():
    f = gp.PolyGaussFunction(1, [gp.GaussPolyTerm(
        1.0, gp.Polynomial(1, {(2,): 1.0}), np.array([[1.0]]), np.zeros(1))])
    assert gp.integrate_real(f, [0]).constant_value() == pytest.approx(
        np.sqrt(2 * np.pi))


def test_integrate_detector_kernel_vanishes():
    # (1 - |b|^2) exp(-|b|^2) integrates to pi (1 - 1) = 0
    f = gp.PolyGaussFunction(2, [gp.GaussPolyTerm(
        1.0, gp.Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0}),
        2.0 * np.eye(2), np.zeros(2))])
    closed = gp.integrate_out(f, [0]).constant_value()
    quad, _ = integrate.dblquad(
        lambda y, x: (1 - x * x - y * y) * np.exp(-(x * x + y * y)),
        -9, 9, -9, 9, epsabs=1e-12)
    assert closed == pytest.approx(quad, abs=1e-10)
    assert closed == pytest.approx(0.0, abs=1e-10)


def test_integrate_split_property():
    rng = np.random.default_rng(23)
    f = random_polygauss(6, 2, rng, max_degree=2)
    both = gp.integrate_out(f, {0, 1})
    seq = gp.integrate_out(gp.integrate_out(f, {0}), {0})  # var 1 shifts to 0
    for _ in range(25):
        x = rng.normal(size=2)
        assert gp.evaluate(both, x) == pytest.approx(gp.evaluate(seq, x),
                                                     rel=1e-9, abs=1e-12)


def test_pure_gaussian_determinant_formula():
    rng = np.random.default_rng(5)
    A = random_spd(6, rng)
    b = 0.4 * (rng.normal(size=6) + 1j * rng.normal(size=6))
    f = gp.PolyGaussFunction.gaussian(A, b)
    reduced = gp.integrate_real(f, [0, 1, 2])
    I, K = [0, 1, 2], [3, 4, 5]
    A_II, A_IK = A[np.ix_(I, I)], A[np.ix_(I, K)]
    schur = A[np.ix_(K, K)] - A_IK.T @ np.linalg.inv(A_II) @ A_IK
    b_tilde = b[K] - A_IK.T @ np.linalg.inv(A_II) @ b[I]
    expected_coeff = ((2 * np.pi) ** 1.5 / np.sqrt(np.linalg.det(A_II))
                      * np.exp(0.5 * b[I] @ np.linalg.inv(A_II) @ b[I]))
    term = reduced.terms[0]
    value = term.coeff * term.poly.coeffs[(0, 0, 0)]
    assert value == pytest.approx(expected_coeff, rel=1e-12)
    assert np.allclose(term.quad, schur, atol=1e-12)
    assert np.allclose(term.lin, b_tilde, atol=1e-12)


def monomial_integral(A, b, exponents):
    """Int x^exponents exp(-1/2 x^T A x + b^T x) dx through integrate_real."""
    n = len(exponents)
    f = gp.PolyGaussFunction(n, [gp.GaussPolyTerm(
        1.0, gp.Polynomial(n, {tuple(exponents): 1.0}), A, b)])
    return gp.integrate_real(f, range(n)).constant_value()


@pytest.mark.parametrize("exponents", [(2, 0), (1, 1), (4, 2), (3, 5), (0, 8)])
def test_wick_moments_vs_quadrature_degree8(exponents):
    A = np.array([[1.7, 0.45], [0.45, 1.1]])
    b = np.array([0.3 + 0.2j, -0.5 + 0.1j])
    closed = monomial_integral(A, b, exponents)
    p, q = exponents

    def kern(yy, xx, part):
        w = xx ** p * yy ** q * np.exp(-0.5 * (A[0, 0] * xx * xx
                                               + 2 * A[0, 1] * xx * yy
                                               + A[1, 1] * yy * yy))
        phase = np.exp(b[0].real * xx + b[1].real * yy) * part(
            b[0].imag * xx + b[1].imag * yy)
        return w * phase

    re, _ = integrate.dblquad(lambda y, x: kern(y, x, np.cos), -10, 10, -10, 10,
                              epsabs=1e-11)
    im, _ = integrate.dblquad(lambda y, x: kern(y, x, np.sin), -10, 10, -10, 10,
                              epsabs=1e-11)
    assert closed.real == pytest.approx(re, rel=1e-8, abs=1e-9)
    assert closed.imag == pytest.approx(im, rel=1e-8, abs=1e-9)


def test_gaussian_moment_basics():
    assert monomial_integral(np.eye(1), np.zeros(1), [0]) == pytest.approx(
        np.sqrt(2 * np.pi))
    assert monomial_integral(np.eye(1), np.zeros(1), [1]) == pytest.approx(0.0)


def test_integrate_divergent_block_reports_term():
    f = gp.PolyGaussFunction.gaussian(np.diag([-1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(DivergentIntegralError) as err:
        gp.integrate_out(f, [0])
    assert err.value.term_index == 0


def test_point_mass_resolution():
    d = gp.PolyGaussFunction.point_mass(4, 0)
    g = gp.PolyGaussFunction.gaussian(2.0 * np.eye(4))
    r = gp.integrate_out(gp.multiply(d, g), [0])
    x = np.array([0.5, 0.1])
    assert gp.evaluate(r, x) == pytest.approx(
        np.pi * np.exp(-(0.25 + 0.01)), rel=1e-12)


def test_point_mass_survives_other_integration():
    d = gp.PolyGaussFunction.point_mass(4, 1)
    g = gp.PolyGaussFunction.gaussian(2.0 * np.eye(4))
    r = gp.integrate_out(gp.multiply(d, g), [0])
    assert r.point_masses == ((0, np.pi),)


def test_degree_cap():
    p = gp.Polynomial(1, {(9,): 1.0})
    with pytest.raises(DegreeCapError):
        _ = p * p  # degree 18 > 16


def test_canonicalize_merges_identical_shapes():
    A = np.eye(2)
    t1 = gp.GaussPolyTerm(2.0, gp.Polynomial.constant(2), A, np.zeros(2))
    t2 = gp.GaussPolyTerm(3.0, gp.Polynomial(2, {(1, 0): 1.0}), A, np.zeros(2))
    f = gp.canonicalize(gp.PolyGaussFunction(2, [t1, t2]))
    assert len(f.terms) == 1
    x = np.array([0.3, -0.7])
    assert gp.evaluate(f, x) == pytest.approx((2.0 + 3.0 * 0.3) * np.exp(-0.5 * x @ x))


def test_substitute_collapses_variables():
    # g(z) = f(Mz) checked pointwise against direct evaluation
    rng = np.random.default_rng(17)
    f = random_polygauss(4, 2, rng, max_degree=2)
    M = rng.normal(size=(4, 2))
    g = gp.substitute(f, M)
    for _ in range(25):
        z = rng.normal(size=2)
        assert gp.evaluate(g, z) == pytest.approx(gp.evaluate(f, M @ z),
                                                  rel=1e-10, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_product_evaluation_property(nt1, nt2, seed):
    rng = np.random.default_rng(seed)
    f = random_polygauss(2, nt1, rng, max_degree=2)
    g = random_polygauss(2, nt2, rng, max_degree=2)
    h = gp.multiply(f, g)
    x = rng.normal(size=2)
    lhs = gp.evaluate(h, x)
    rhs = gp.evaluate(f, x) * gp.evaluate(g, x)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_disjoint_integration_order_property(seed):
    rng = np.random.default_rng(seed)
    f = random_polygauss(4, 2, rng, max_degree=2)
    ab = gp.integrate_out(f, {0, 1}).constant_value()
    a_then_b = gp.integrate_out(gp.integrate_out(f, {0}), {0}).constant_value()
    b_then_a = gp.integrate_out(gp.integrate_out(f, {1}), {0}).constant_value()
    assert ab == pytest.approx(a_then_b, rel=1e-9, abs=1e-9)
    assert ab == pytest.approx(b_then_a, rel=1e-9, abs=1e-9)
