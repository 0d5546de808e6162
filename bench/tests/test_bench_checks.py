"""Each benchmark check passes on right outputs and fails on a known-wrong one.

Run with ``python3 -m pytest -q bench/tests``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from smoothie_rl.deriv_net import critic_net  # noqa: E402
from smoothie_rl.verify import chain_expected_q_oracle, chain_smoothed_q_oracle  # noqa: E402

MU, VAR, GAMMA = (0.5, -0.5), 0.25, 0.4


# ------------------------------------------------------------- bumps


def test_bump_modes_found_by_grid_search():
    worse, better = checks.bump_modes()
    assert abs(worse + 1.0) < 1e-4 and abs(better - 1.0) < 1e-4


def test_bumps_escape_check_rejects_mean_left_at_worse_mode():
    assert checks.check_bumps_escape(0.99).ok
    assert not checks.check_bumps_escape(-1.0).ok


def test_bumps_seed_checks_pass_at_either_mode_and_reject_the_valley():
    sigma = [1.0, 1.1, 0.05]
    assert all(c.ok for c in checks.check_bumps_seed(0.99, sigma, -0.98))
    assert all(c.ok for c in checks.check_bumps_seed(-0.95, sigma, -0.98))
    failed = [c.name for c in checks.check_bumps_seed(0.0, sigma, -0.98) if not c.ok]
    assert failed == ["smoothie_mean_at_a_mode"]


def test_bumps_check_rejects_wide_final_sigma_and_escaped_baseline():
    failed = [c.name for c in checks.check_bumps_seed(0.99, [1.0, 0.3], 0.9) if not c.ok]
    assert failed == ["smoothie_sigma_ends_low", "ddpg_mean_at_worse_mode"]


# --------------------------------------------------- derivative checks


@pytest.fixture
def critic_batch():
    rng = np.random.default_rng(0)
    net = critic_net(4, 2, (32, 32), rng)
    S = rng.uniform(-1.0, 1.0, size=(64, 4))
    A = rng.uniform(-1.0, 1.0, size=(64, 2))
    trip = net.forward_with_action_derivs(S, A)
    g = trip.jacobian[:, 0, :]
    h = np.diagonal(trip.hessian[:, 0], axis1=1, axis2=2)
    g_fd, h_fd = checks.fd_action_derivs(lambda s, a: net.forward(s, a)[:, 0], S, A)
    return g, h, g_fd, h_fd


def test_action_derivs_match_fd_and_reject_scaled_hessian(critic_batch):
    g, h, g_fd, h_fd = critic_batch
    assert all(c.ok for c in checks.check_action_derivs(g, h, g_fd, h_fd))
    failed = [c.name for c in checks.check_action_derivs(g, 1.1 * h, g_fd, h_fd) if not c.ok]
    assert failed == ["critic_hessian_diag_vs_fd"]
    failed = [c.name for c in checks.check_action_derivs(1.1 * g, h, g_fd, h_fd) if not c.ok]
    assert failed == ["critic_action_gradient_vs_fd"]


def test_phi_direction_rejects_scaled_hessian(critic_batch):
    _, h, _, h_fd = critic_batch
    log_var, log_var_t, lam = np.array([-1.0, -0.7]), np.array([-1.1, -0.6]), 3e-2
    right = 0.5 * np.mean(h, axis=0) * np.exp(log_var) - lam * 0.5 * (np.exp(log_var - log_var_t) - 1.0)
    wrong = 0.5 * np.mean(1.1 * h, axis=0) * np.exp(log_var) - lam * 0.5 * (np.exp(log_var - log_var_t) - 1.0)
    assert checks.check_phi_direction(right, h_fd, log_var, log_var_t, lam).ok
    assert not checks.check_phi_direction(wrong, h_fd, log_var, log_var_t, lam).ok


def test_theta_direction_matches_gradient_and_rejects_a_wrong_one():
    rng = np.random.default_rng(1)
    W = rng.standard_normal((2, 3))
    S = rng.standard_normal((16, 3))
    mu_t, log_var, log_var_t, lam = rng.standard_normal((16, 2)), np.zeros(2), np.full(2, -0.5), 0.3

    def q(s, a):
        return -np.sum((a - 0.2) ** 2, axis=1)

    def objective_at(theta):
        Wt = theta.reshape(2, 3)
        return checks.penalized_objective(q, lambda s: s @ Wt.T, S, log_var, mu_t, log_var_t, lam)

    mu = S @ W.T
    cot = -2.0 * (mu - 0.2) - lam * (mu - mu_t) / np.exp(log_var_t)
    grad = (cot.T @ S / S.shape[0]).ravel()
    v = rng.standard_normal(6)
    assert checks.check_theta_direction(grad, objective_at, W.ravel(), v).ok
    no_kl = (-2.0 * (mu - 0.2)).T @ S / S.shape[0]
    assert not checks.check_theta_direction(no_kl.ravel(), objective_at, W.ravel(), v).ok


def test_kl_column_rejects_negative_and_nonfinite():
    assert checks.check_kl_column([0.0, 1e-3, 0.2]).ok
    assert not checks.check_kl_column([0.0, -1e-6]).ok
    assert not checks.check_kl_column([0.0, float("nan")]).ok
    assert not checks.check_kl_column([]).ok


# ------------------------------------------------------------- chain


def test_chain_closed_form_agrees_with_package_oracle():
    rng = np.random.default_rng(2)
    for mu, var, gamma in ((MU, VAR, GAMMA), ((0.3, -0.8), 0.1, 0.9), ((1.0, 0.2), 0.6, 0.5)):
        mine = checks.chain_smoothed_q(mu, var, gamma)
        ref = chain_smoothed_q_oracle(np.array(mu), var, gamma)
        for s in (0, 1):
            for a in rng.uniform(-2.0, 2.0, 25):
                assert abs(mine(s, float(a)) - ref(s, float(a))) < 1e-9


def test_chain_unsmoothed_closed_form_agrees_with_package_oracle():
    mine = checks.chain_plain_q(MU, GAMMA)
    ref = chain_expected_q_oracle(np.array(MU), GAMMA)
    assert max(abs(mine(s, a) - ref(s, a)) for s, a in checks.CHAIN_PROBES) < 1e-12


def test_chain_check_rejects_output_bias_shifted_by_0_05():
    q = checks.chain_smoothed_q(MU, VAR, GAMMA)
    assert checks.check_chain_critic(lambda s, a: q(s, a) + 0.005, MU, VAR, GAMMA).ok
    assert not checks.check_chain_critic(lambda s, a: q(s, a) + 0.05, MU, VAR, GAMMA).ok


def test_chain_fixed_point_check_rejects_the_unsmoothed_values():
    qs, qp = checks.chain_smoothed_q(MU, VAR, GAMMA), checks.chain_plain_q(MU, GAMMA)
    assert checks.check_chain_fixed_point(lambda s, a: qs(s, a) + 0.02, MU, VAR, GAMMA).ok
    assert not checks.check_chain_fixed_point(qp, MU, VAR, GAMMA).ok
