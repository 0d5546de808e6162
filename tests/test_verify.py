"""Oracle suite: identity checks pass on healthy inputs, reject bad ones,
and the chain oracles agree with independent brute-force evaluation."""

import numpy as np
import pytest

from smoothie_rl.deriv_net import critic_net, actor_net
from smoothie_rl.envs import BumpsBandit
from smoothie_rl.verify import (
    OracleReport,
    TwoStateChain,
    chain_expected_q_oracle,
    chain_smoothed_q_oracle,
    check_grad_hessian_fd,
    check_theorem1,
    compatible_critic_check,
    compatible_stationarity_check,
    default_suite,
    derivative_bellman_report,
    derivative_bellman_residual,
    escape_precondition_report,
    quadrature_convergence_report,
    smoothed_landscape,
    theorem1_report,
)


def test_report_row_format():
    row = OracleReport("x", 0.1, 0.2, 0.3, True, 5).format_row()
    assert row == "x,0.1,0.2,0.3,true"
    row = OracleReport("y", 1.23456789123e-5, 0.0, 1e-4, False, 1).format_row()
    assert row == "y,1.23456789e-05,0,0.0001,false"


# ----------------------------------------------------------- identity checks


def test_theorem1_sweep_passes():
    report = theorem1_report(seed=0)
    assert report.passed
    assert report.max_abs < 1e-4
    assert report.samples == 50


def test_theorem1_rejects_bad_variance():
    with pytest.raises(ValueError):
        check_theorem1(BumpsBandit().reward_fn, 0.0, -0.1)


def test_grad_hessian_fd_passes_on_default_critic():
    net = critic_net(4, 2, (64, 64), np.random.default_rng(0))
    jac, hess = check_grad_hessian_fd(net, n_trials=20, seed=0)
    assert jac.passed and hess.passed
    assert jac.max_rel < 1e-5
    assert hess.max_rel < 1e-4


def test_derivative_bellman_residuals_pass():
    reports = derivative_bellman_report()
    assert [r.name for r in reports] == ["deriv_bellman_k0", "deriv_bellman_k1", "deriv_bellman_k2"]
    for r in reports:
        assert r.passed
        assert r.max_abs < 1e-5


def test_derivative_bellman_rejects_bad_order():
    with pytest.raises(ValueError):
        derivative_bellman_residual(3, lambda a: a, lambda a: a, 0.0, 0.1)
    with pytest.raises(ValueError):
        derivative_bellman_residual(1, lambda a: a, lambda a: a, 0.0, -0.1)


def test_compatible_checks_pass():
    rng = np.random.default_rng(0)
    mean_net = actor_net(3, 2, (16, 16), rng)
    states = rng.uniform(-1, 1, size=(5, 3))
    w_mean = rng.standard_normal(mean_net.n_params)
    w_cov = rng.standard_normal(2)
    g_rep, h_rep = compatible_critic_check(mean_net, np.array([-1.0, -0.5]), states, 0.3, w_mean, w_cov)
    assert g_rep.passed and g_rep.max_abs < 1e-12
    assert h_rep.passed and h_rep.max_abs < 1e-12
    stat = compatible_stationarity_check(mean_net, states, rng.standard_normal((5, 2)))
    assert stat.passed


def test_quadrature_convergence_and_escape_precondition():
    assert quadrature_convergence_report().passed
    escape = escape_precondition_report()
    assert escape.passed
    assert escape.max_abs == 0.0  # no slope deficit at sigma = 1


def test_smoothed_landscape_matches_closed_form():
    env = BumpsBandit()
    sigma = 1.0
    grid = np.linspace(-2.0, 2.0, 7)
    got = smoothed_landscape(env.reward_fn, sigma, grid)
    want = np.zeros_like(grid)
    for m, h, w in zip(env.centers, env.heights, env.widths):
        s2 = w * w + sigma * sigma
        want += h * w / np.sqrt(s2) * np.exp(-((grid - m) ** 2) / (2.0 * s2))
    # order-64 nodes resolve the 0.35-wide bumps to ~1e-7 at this sigma
    np.testing.assert_allclose(got, want, atol=1e-6)
    with pytest.raises(ValueError):
        smoothed_landscape(env.reward_fn, 0.0, grid)


# -------------------------------------------------------------- chain oracle


def test_chain_env_mechanics():
    env = TwoStateChain()
    assert env.reward_fn(0, 0.5) == pytest.approx(1.0)
    assert env.reward_fn(1, -0.5) == pytest.approx(0.8)
    np.testing.assert_allclose(env.reward_fn(1, np.array([-0.5, 0.5])),
                               0.8 * np.exp(-np.array([0.0, 2.0])))
    assert env.crosses(0, 0.7) and not env.crosses(0, -0.7) and not env.crosses(0, 0.0)
    assert env.crosses(1, -0.3) and not env.crosses(1, 0.3) and not env.crosses(1, 0.0)


def test_smoothed_chain_oracle_self_consistent():
    mu = np.array([0.3, -0.4])
    var, gamma = 0.25, 0.8
    q = chain_smoothed_q_oracle(mu, var, gamma)
    c = q.constants
    # the defining property: c_s = q(s, mu_s)
    assert q(0, 0.3) == pytest.approx(c[0], abs=1e-12)
    assert q(1, -0.4) == pytest.approx(c[1], abs=1e-12)


def test_smoothed_chain_oracle_matches_monte_carlo():
    """Brute-force check through an entirely different route: roll the chain
    with the stochastic policy and average discounted returns.

    The first executed action is drawn around the probe point, later ones
    around the per-state policy means, which is exactly the smoothed value
    being certified.  4e5 episodes put the standard error near 2.4e-3.
    """
    mu = np.array([0.3, -0.4])
    var, gamma = 0.25, 0.8
    sd = np.sqrt(var)
    q = chain_smoothed_q_oracle(mu, var, gamma)
    rng = np.random.default_rng(0)
    n, horizon = 400_000, 70

    def reward_vec(states, actions):
        r0 = np.exp(-((actions - 0.5) ** 2) / 0.5)
        r1 = 0.8 * np.exp(-((actions + 0.5) ** 2) / 0.5)
        return np.where(states == 0, r0, r1)

    for s0, a0 in ((0, 0.2), (1, -0.9), (0, -1.0)):
        states = np.full(n, s0)
        total = np.zeros(n)
        disc = 1.0
        for t in range(horizon):
            if t == 0:
                actions = a0 + sd * rng.standard_normal(n)
            else:
                actions = np.where(states == 0, mu[0], mu[1]) + sd * rng.standard_normal(n)
            total += disc * reward_vec(states, actions)
            disc *= gamma
            crossed = np.where(states == 0, actions > 0.0, actions < 0.0)
            states = np.where(crossed, 1 - states, states)
        mc = float(np.mean(total))
        assert mc == pytest.approx(q(s0, a0), abs=0.012)


def test_expected_chain_oracle_matches_rollout():
    mu = np.array([0.4, -0.6])
    gamma = 0.9
    q = chain_expected_q_oracle(mu, gamma)
    env = TwoStateChain()

    def rollout(s0, a0, steps=400):
        total, disc, s, a = 0.0, 1.0, s0, a0
        for _ in range(steps):
            total += disc * float(env.reward_fn(s, a))
            if env.crosses(s, a):
                s = 1 - s
            a = float(mu[s])
            disc *= gamma
        return total

    for s0, a0 in ((0, 0.4), (0, -0.2), (1, 1.3)):
        # gamma^400 ~ 5e-19 so the truncated rollout is exact to double precision
        assert q(s0, a0) == pytest.approx(rollout(s0, a0), abs=1e-12)


# ------------------------------------------------------------- default suite


def test_default_suite_all_pass():
    reports = default_suite(seed=0)
    assert len(reports) == 11
    names = [r.name for r in reports]
    assert names[0] == "theorem1_two_bump"
    assert "escape_precondition" in names
    for r in reports:
        assert r.passed, r.format_row()
