"""Gaussian utilities against closed forms, quadrature exactness, FD properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothie_rl.gauss_math import (
    DiagGaussian,
    density,
    density_derivative,
    gh_quadrature,
    hermite_rule,
    kl_divergence,
    kl_terms,
    log_density,
    sample,
)

SQRT_PI = math.sqrt(math.pi)


# ------------------------------------------------------------------ densities


def test_standard_normal_density_values():
    g = DiagGaussian(np.zeros(1), np.zeros(1))
    assert density(g, np.zeros(1)) == pytest.approx(0.3989422804014327, rel=1e-12)
    assert density(g, np.ones(1)) == pytest.approx(0.24197072451914337, rel=1e-12)
    g2 = DiagGaussian(np.zeros(1), np.log(np.array([4.0])))
    # N(0 | 0, 4) = 1 / (2 sqrt(2 pi))
    assert density(g2, np.zeros(1)) == pytest.approx(0.15915494309189535 / 0.7978845608, rel=1e-6)


def test_log_density_matches_density():
    g = DiagGaussian(np.array([0.3, -0.7]), np.array([0.2, -0.4]))
    x = np.array([0.1, 0.5])
    assert math.exp(log_density(g, x)) == pytest.approx(density(g, x), rel=1e-12)


def test_density_factorizes_over_dimensions():
    g = DiagGaussian(np.array([0.5, -1.0]), np.array([0.1, -0.3]))
    x = np.array([0.2, 0.4])
    parts = 1.0
    for i in range(2):
        gi = DiagGaussian(g.mean[i : i + 1], g.log_var[i : i + 1])
        parts *= density(gi, x[i : i + 1])
    assert density(g, x) == pytest.approx(parts, rel=1e-12)


def test_diag_gaussian_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        DiagGaussian(np.zeros(2), np.zeros(3))
    g = DiagGaussian(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        log_density(g, np.zeros(3))


def test_sample_moments():
    g = DiagGaussian(np.array([1.0, -2.0]), np.log(np.array([0.25, 4.0])))
    rng = np.random.default_rng(7)
    draws = np.stack([sample(g, rng) for _ in range(20000)])
    se_mean = g.std / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - g.mean) < 4.0 * se_mean)
    assert np.all(np.abs(draws.std(axis=0) - g.std) < 0.05 * g.std)


# ------------------------------------------------------------------------- KL


def test_kl_standard_cases():
    p = DiagGaussian(np.zeros(1), np.zeros(1))
    q = DiagGaussian(np.ones(1), np.zeros(1))
    # mean shift of 1 at unit variance: KL = 1/2
    assert kl_divergence(p, q) == pytest.approx(0.5, abs=1e-12)
    r = DiagGaussian(np.zeros(1), np.log(np.array([math.e])))
    # variance e vs 1: KL = (e - 2) / 2
    assert kl_divergence(r, p) == pytest.approx((math.e - 2.0) / 2.0, abs=1e-12)
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)


def test_kl_additive_over_dimensions():
    p = DiagGaussian(np.array([0.0, 1.0]), np.array([0.0, 0.5]))
    q = DiagGaussian(np.array([1.0, 1.0]), np.array([0.3, 0.0]))
    total = 0.0
    for i in range(2):
        total += kl_divergence(
            DiagGaussian(p.mean[i : i + 1], p.log_var[i : i + 1]),
            DiagGaussian(q.mean[i : i + 1], q.log_var[i : i + 1]),
        )
    assert kl_divergence(p, q) == pytest.approx(total, rel=1e-12)


def test_kl_terms_matches_kl_divergence():
    rng = np.random.default_rng(3)
    means_p = rng.normal(size=(6, 2))
    mean_q = rng.normal(size=2)
    lv_p = rng.uniform(-1.0, 1.0, size=2)
    lv_q = rng.uniform(-1.0, 1.0, size=2)
    rows = kl_terms(means_p, lv_p, mean_q, lv_q)
    for k in range(6):
        want = kl_divergence(DiagGaussian(means_p[k], lv_p), DiagGaussian(mean_q, lv_q))
        assert rows[k] == pytest.approx(want, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    mp=st.floats(-3, 3), mq=st.floats(-3, 3),
    lp=st.floats(-2, 2), lq=st.floats(-2, 2),
)
def test_kl_nonnegative_and_zero_iff_equal(mp, mq, lp, lq):
    p = DiagGaussian(np.array([mp]), np.array([lp]))
    q = DiagGaussian(np.array([mq]), np.array([lq]))
    kl = kl_divergence(p, q)
    assert kl >= -1e-12
    if mp == mq and lp == lq:
        assert kl == pytest.approx(0.0, abs=1e-12)


def test_kl_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        kl_divergence(DiagGaussian(np.zeros(1), np.zeros(1)), DiagGaussian(np.zeros(2), np.zeros(2)))


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


# -------------------------------------------------------- density derivatives


def test_density_derivative_center_values():
    x = np.zeros(1)
    a = np.zeros(1)
    v = np.ones(1)
    assert density_derivative(0, x, a, v) == pytest.approx(0.3989422804014327, rel=1e-12)
    assert np.allclose(density_derivative(1, x, a, v), np.zeros(1))
    # at the center the Hessian w.r.t. location is -N/v
    h = density_derivative(2, x, a, v)
    assert h[0, 0] == pytest.approx(-0.3989422804014327, rel=1e-12)


def test_density_derivative_offset_value():
    # d/da N(x | a, 1) at x - a = 1 equals N * (x - a) / v = 0.24197 * 1
    g1 = density_derivative(1, np.ones(1), np.zeros(1), np.ones(1))
    assert g1[0] == pytest.approx(0.24197072451914337, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(-2, 2), a=st.floats(-2, 2), v=st.floats(0.2, 3.0),
)
def test_density_derivative_fd_consistency(x, a, v):
    """k=1 and k=2 match central differences of k=0 and k=1 in the location."""
    xs, vs = np.array([x]), np.array([v])
    h = 1e-5 * max(abs(a), 1.0)

    def d0(loc):
        return density_derivative(0, xs, np.array([loc]), vs)

    def d1(loc):
        return density_derivative(1, xs, np.array([loc]), vs)[0]

    fd1 = (d0(a + h) - d0(a - h)) / (2.0 * h)
    an1 = density_derivative(1, xs, np.array([a]), vs)[0]
    assert an1 == pytest.approx(fd1, rel=1e-5, abs=1e-8)

    fd2 = (d1(a + h) - d1(a - h)) / (2.0 * h)
    an2 = density_derivative(2, xs, np.array([a]), vs)[0, 0]
    assert an2 == pytest.approx(fd2, rel=1e-5, abs=1e-8)


def test_density_derivative_broadcasts_scalar_variance():
    out = density_derivative(0, np.array([0.1, 0.2]), np.zeros(2), np.array([0.5]))
    assert np.isscalar(out) or out.ndim == 0 or isinstance(out, float)


def test_density_derivative_rejects_bad_order():
    with pytest.raises(ValueError):
        density_derivative(3, np.zeros(1), np.zeros(1), np.ones(1))


def test_density_derivative_integrates_to_smoothing_gradient():
    """Integrating f against the k=1 kernel equals the location gradient of E[f]."""
    f = lambda x: np.sin(1.3 * x)
    a, v = 0.4, 0.5

    def weighted(x):
        x = np.atleast_1d(x)
        return np.array(
            [f(xi) * density_derivative(1, np.array([xi]), np.array([a]), np.array([v]))[0]
             / density_derivative(0, np.array([xi]), np.array([a]), np.array([v]))
             for xi in x]
        )

    # E_N(a,v)[f(x) (x-a)/v] computed by quadrature equals d/da E[f]
    rhs = gh_quadrature(weighted, a, v, order=64)
    h = 1e-5
    lhs = (gh_quadrature(f, a + h, v, 64) - gh_quadrature(f, a - h, v, 64)) / (2.0 * h)
    assert rhs == pytest.approx(lhs, abs=1e-8)
