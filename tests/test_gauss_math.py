"""Gaussian utilities against closed forms, quadrature exactness, FD properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothie_rl.gauss_math import gh_quadrature, hermite_rule, kl_terms

SQRT_PI = math.sqrt(math.pi)


# ------------------------------------------------------------------------- KL


def _kl_reference(mp, lp, mq, lq):
    """KL(p || q) from the general multivariate normal formula, with full matrices."""
    cov_p, cov_q = np.diag(np.exp(lp)), np.diag(np.exp(lq))
    prec_q = np.linalg.inv(cov_q)
    d = mq - mp
    log_det_ratio = np.log(np.linalg.det(cov_q) / np.linalg.det(cov_p))
    return 0.5 * (np.trace(prec_q @ cov_p) + d @ prec_q @ d - mp.shape[0] + log_det_ratio)


def test_kl_standard_cases():
    zero, one = np.zeros(1), np.ones(1)
    # mean shift of 1 at unit variance: KL = 1/2
    assert kl_terms(zero, zero, one, zero) == pytest.approx(0.5, abs=1e-12)
    # variance e vs 1: KL = (e - 2) / 2
    assert kl_terms(zero, one, zero, zero) == pytest.approx((math.e - 2.0) / 2.0, abs=1e-12)
    assert kl_terms(zero, zero, zero, zero) == pytest.approx(0.0, abs=1e-15)


def test_kl_additive_over_dimensions():
    mp, lp = np.array([0.0, 1.0]), np.array([0.0, 0.5])
    mq, lq = np.array([1.0, 1.0]), np.array([0.3, 0.0])
    total = sum(kl_terms(mp[i : i + 1], lp[i : i + 1], mq[i : i + 1], lq[i : i + 1]) for i in range(2))
    assert kl_terms(mp, lp, mq, lq) == pytest.approx(total, rel=1e-12)


def test_kl_terms_matches_kl_divergence():
    rng = np.random.default_rng(3)
    means_p = rng.normal(size=(6, 2))
    mean_q = rng.normal(size=2)
    lv_p = rng.uniform(-1.0, 1.0, size=2)
    lv_q = rng.uniform(-1.0, 1.0, size=2)
    rows = kl_terms(means_p, lv_p, mean_q, lv_q)
    for k in range(6):
        assert rows[k] == pytest.approx(_kl_reference(means_p[k], lv_p, mean_q, lv_q), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    mp=st.floats(-3, 3), mq=st.floats(-3, 3),
    lp=st.floats(-2, 2), lq=st.floats(-2, 2),
)
def test_kl_nonnegative_and_zero_iff_equal(mp, mq, lp, lq):
    kl = float(kl_terms(np.array([mp]), np.array([lp]), np.array([mq]), np.array([lq])))
    assert kl >= -1e-12
    if mp == mq and lp == lq:
        assert kl == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------- quadrature


def test_hermite_rule_weights_sum_to_sqrt_pi():
    for order in (1, 4, 16, 64):
        rule = hermite_rule(order)
        assert rule.weights.sum() == pytest.approx(SQRT_PI, abs=1e-12)
        assert rule.nodes.shape == (order,)


def test_hermite_rule_rejects_bad_order():
    with pytest.raises(ValueError):
        hermite_rule(0)


def test_gh_quadrature_gaussian_moments():
    # E[x^2] = mu^2 + v and E[x^4] = 3 for N(0, 1); order 4 integrates both exactly
    assert gh_quadrature(lambda x: x**2, 0.5, 2.0, order=4) == pytest.approx(0.25 + 2.0, rel=1e-12)
    assert gh_quadrature(lambda x: x**4, 0.0, 1.0, order=4) == pytest.approx(3.0, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    order=st.integers(1, 12),
    coeffs=st.lists(st.floats(-2, 2), min_size=1, max_size=8),
    center=st.floats(-1, 1),
    v=st.floats(0.1, 2.0),
)
def test_gh_quadrature_polynomial_exactness(order, coeffs, center, v):
    """Degree <= 2*order - 1 polynomials integrate exactly."""
    deg = min(len(coeffs) - 1, 2 * order - 1)
    coeffs = coeffs[: deg + 1]

    def poly(x):
        return sum(c * x**k for k, c in enumerate(coeffs))

    got = gh_quadrature(poly, center, v, order)
    # reference through the known central moments of a Gaussian
    want = 0.0
    sd = math.sqrt(v)
    for k, c in enumerate(coeffs):
        m = sum(
            math.comb(k, j) * center ** (k - j) * (sd**j) * _std_normal_moment(j)
            for j in range(k + 1)
        )
        want += c * m
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def _std_normal_moment(j: int) -> float:
    if j % 2 == 1:
        return 0.0
    return float(np.prod(np.arange(j - 1, 0, -2))) if j else 1.0


def test_gh_quadrature_smoothing_against_closed_form():
    # Gaussian bump convolved with a Gaussian has the closed form
    # h w / sqrt(w^2 + v) exp(-(a - m)^2 / (2 (w^2 + v)))
    h, m, w = 0.7, 0.4, 0.35
    f = lambda x: h * np.exp(-((x - m) ** 2) / (2.0 * w * w))
    for a in (-1.0, 0.0, 0.9):
        for v in (0.05, 0.3, 0.6):
            want = h * w / math.sqrt(w * w + v) * math.exp(-((a - m) ** 2) / (2.0 * (w * w + v)))
            assert gh_quadrature(f, a, v, order=64) == pytest.approx(want, abs=1e-9)


def test_gh_quadrature_rejects_bad_variance():
    with pytest.raises(ValueError):
        gh_quadrature(lambda x: x, 0.0, 0.0)
    with pytest.raises(ValueError):
        gh_quadrature(lambda x: x, 0.0, -1.0)


def test_gh_quadrature_rejects_non_finite_integrand():
    with pytest.raises(FloatingPointError):
        gh_quadrature(lambda x: np.where(x > 0, np.inf, 0.0), 0.0, 1.0)


def test_gh_quadrature_surfaces_integrand_errors():
    # the integrand is called once on the node array: its own errors and a
    # result without one value per node both reach the caller
    def scalar_only(x):
        if np.ndim(x):
            raise TypeError("scalar only")
        return x * x

    with pytest.raises(TypeError, match="scalar only"):
        gh_quadrature(scalar_only, 0.0, 1.0, order=8)
    with pytest.raises(ValueError, match="shape"):
        gh_quadrature(lambda x: np.sum(x * x), 0.0, 1.0, order=8)
    with pytest.raises(ValueError, match="shape"):
        gh_quadrature(lambda x: np.stack([x, x], axis=1), 0.0, 1.0, order=8)


def test_density_derivative_integrates_to_smoothing_gradient():
    """Integrating f against the location derivative of N(x | a, v), which is
    N(x | a, v) (x - a) / v, equals the location gradient of E[f]."""
    f = lambda x: np.sin(1.3 * x)
    a, v = 0.4, 0.5
    # E_N(a,v)[f(x) (x-a)/v] computed by quadrature equals d/da E[f]
    rhs = gh_quadrature(lambda x: f(x) * (x - a) / v, a, v, order=64)
    h = 1e-5
    lhs = (gh_quadrature(f, a + h, v, 64) - gh_quadrature(f, a - h, v, 64)) / (2.0 * h)
    assert rhs == pytest.approx(lhs, abs=1e-8)
