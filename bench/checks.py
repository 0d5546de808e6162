"""Reference values and correctness checks, computed apart from smoothie_rl.

Nothing here imports the package.  Each check takes the program's outputs as
plain arrays or callables and compares them with a value made here from first
principles: a grid search of the reward formula, a closed-form smoothed value,
or central differences of plain forward evaluations.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


# ------------------------------------------------------------- two bumps

# The default two-bump bandit: r(a) = sum_j h_j exp(-(a - c_j)^2 / (2 w^2)).
BUMP_CENTERS = (-1.0, 1.0)
BUMP_HEIGHTS = (0.6, 1.0)
BUMP_WIDTH = 0.35


def bump_reward(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return sum(h * np.exp(-((a - c) ** 2) / (2.0 * BUMP_WIDTH**2))
               for c, h in zip(BUMP_CENTERS, BUMP_HEIGHTS))


def bump_modes(lo: float = -3.0, hi: float = 3.0, points: int = 600_001) -> tuple[float, float]:
    """(worse, better) local maxima of the reward, by grid search."""
    grid = np.linspace(lo, hi, points)
    r = bump_reward(grid)
    peaks = np.flatnonzero((r[1:-1] > r[:-2]) & (r[1:-1] >= r[2:])) + 1
    if peaks.size != 2:
        raise ValueError(f"expected two reward peaks, found {peaks.size}")
    worse, better = sorted(peaks, key=lambda i: r[i])
    return float(grid[worse]), float(grid[better])


def check_bumps_seed(smoothie_mean: float, sigma_trace, ddpg_mean: float) -> list[Check]:
    """Per-seed two-bump criteria that hold on every seed tried.

    The smoothed learner's mean ends within 0.1 of a reward mode with sigma
    below 0.2; the deterministic baseline's mean stays within 0.2 of the worse
    mode it started on.
    """
    modes = bump_modes()
    nearest = min(modes, key=lambda m: abs(smoothie_mean - m))
    sigma_end = float(sigma_trace[-1])
    return [
        Check("smoothie_mean_at_a_mode", abs(smoothie_mean - nearest) < 0.1,
              f"mean {smoothie_mean:.4f}, nearest mode {nearest:.4f}"),
        Check("smoothie_sigma_ends_low", sigma_end < 0.2, f"final sigma {sigma_end:.4f}"),
        Check("ddpg_mean_at_worse_mode", abs(ddpg_mean - modes[0]) < 0.2,
              f"mean {ddpg_mean:.4f}, worse mode {modes[0]:.4f}"),
    ]


def check_bumps_escape(smoothie_mean: float) -> Check:
    """The smoothed learner's mean ends within 0.1 of the better mode."""
    better = bump_modes()[1]
    return Check("smoothie_mean_at_better_mode", abs(smoothie_mean - better) < 0.1,
                 f"mean {smoothie_mean:.4f}, better mode {better:.4f}")


# --------------------------------------------------- derivative identities


def fd_action_derivs(q: Callable, S: np.ndarray, A: np.ndarray,
                     step1: float = 1e-4, step2: float = 3e-3):
    """Central differences of a batched scalar q(S, A) -> (B,) in each action coordinate.

    Returns (gradient, Hessian diagonal), both (B, action_dim).  The gradient
    takes the three-point stencil, the Hessian diagonal the five-point one,
    whose O(h^4) error stays far below the check's tolerance on sharply curved
    critics.  Steps scale with max(|a|, 1) per entry.
    """
    A = np.asarray(A, dtype=float)
    f0 = q(S, A)
    grad = np.empty_like(A)
    hdiag = np.empty_like(A)
    for i in range(A.shape[1]):
        scale = np.maximum(np.abs(A[:, i]), 1.0)
        e = np.zeros_like(A)
        e[:, i] = step1 * scale
        grad[:, i] = (q(S, A + e) - q(S, A - e)) / (2.0 * e[:, i])
        e[:, i] = step2 * scale
        near = q(S, A + e) + q(S, A - e)
        far = q(S, A + 2.0 * e) + q(S, A - 2.0 * e)
        hdiag[:, i] = (16.0 * near - far - 30.0 * f0) / (12.0 * e[:, i] ** 2)
    return grad, hdiag


def _rel_err(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-12))


def check_action_derivs(grad, hdiag, grad_fd, hdiag_fd, rtol: float = 1e-3) -> list[Check]:
    """Analytic action gradient and Hessian diagonal against central differences."""
    eg, eh = _rel_err(grad, grad_fd), _rel_err(hdiag, hdiag_fd)
    return [
        Check("critic_action_gradient_vs_fd", eg <= rtol, f"max rel err {eg:.3g}"),
        Check("critic_hessian_diag_vs_fd", eh <= rtol, f"max rel err {eh:.3g}"),
    ]


def gaussian_kl_rows(mu, log_var, mu_t, log_var_t) -> np.ndarray:
    """KL(N(mu, e^log_var) || N(mu_t, e^log_var_t)) per row, diagonal covariances."""
    per_dim = (np.exp(log_var - log_var_t) + (mu - mu_t) ** 2 / np.exp(log_var_t)
               - 1.0 + log_var_t - log_var)
    return 0.5 * np.sum(per_dim, axis=-1)


def expected_phi_direction(hdiag_fd, log_var, log_var_t, kl_coeff: float):
    """1/2 mean(H_diag) sigma^2 - lambda 1/2 (e^(phi - phi_t) - 1), and the sum of
    the two terms' magnitudes, the scale its error is measured against."""
    curvature = 0.5 * np.mean(hdiag_fd, axis=0) * np.exp(log_var)
    pull = kl_coeff * 0.5 * (np.exp(log_var - log_var_t) - 1.0)
    return curvature - pull, np.abs(curvature) + np.abs(pull)


def check_phi_direction(dir_phi, hdiag_fd, log_var, log_var_t, kl_coeff: float,
                        rtol: float = 1e-3) -> Check:
    want, scale = expected_phi_direction(hdiag_fd, log_var, log_var_t, kl_coeff)
    err = float(np.max(np.abs(np.asarray(dir_phi) - want) / np.maximum(scale, 1e-12)))
    return Check("phi_direction", err <= rtol, f"max rel err {err:.3g}")


def penalized_objective(q: Callable, mean_fn: Callable, S, log_var, mu_t, log_var_t,
                        kl_coeff: float) -> float:
    """mean_k Q(s_k, mu(s_k)) - lambda mean_k KL(pi(s_k) || pi_target(s_k))."""
    mu = mean_fn(S)
    kl = gaussian_kl_rows(mu, log_var, mu_t, log_var_t)
    return float(np.mean(q(S, mu)) - kl_coeff * np.mean(kl))


def check_theta_direction(dir_theta, objective_at: Callable, theta, direction,
                          eps: float = 1e-5, rtol: float = 1e-3) -> Check:
    """dir_theta . v against a central difference of the objective along v."""
    fd = (objective_at(theta + eps * direction) - objective_at(theta - eps * direction)) / (2.0 * eps)
    got = float(np.dot(dir_theta, direction))
    err = abs(got - fd) / max(abs(fd), 1e-12)
    return Check("theta_direction", err <= rtol, f"v.dir {got:.6g}, fd {fd:.6g}, rel err {err:.3g}")


def check_kl_column(kl) -> Check:
    kl = np.asarray(kl, dtype=float)
    if kl.size == 0:
        return Check("logged_kl_finite_nonnegative", False, "no rows")
    ok = bool(np.all(np.isfinite(kl)) and np.all(kl >= 0.0))
    return Check("logged_kl_finite_nonnegative", ok, f"{kl.size} rows, min {np.min(kl):.3g}")


# ------------------------------------------------------- two-state chain

# Per-state reward bumps (height, center) of the chain, each of variance 0.25.
CHAIN_BUMPS = ((1.0, 0.5), (0.8, -0.5))
CHAIN_BUMP_VAR = 0.25


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def chain_smoothed_q(mu, variance: float, gamma: float) -> Callable[[int, float], float]:
    """Exact smoothed Q of the two-state chain under N(mu_s, variance) in closed form.

    The reward bump convolved with the Gaussian is again a Gaussian bump; a
    state switches when the executed action crosses zero (up from state 0, down
    from state 1), with normal-CDF probability; the values at the policy means
    solve a 2x2 linear system.
    """
    sd = math.sqrt(variance)

    def r_smooth(s: int, a: float) -> float:
        h, c = CHAIN_BUMPS[s]
        v = CHAIN_BUMP_VAR + variance
        return h * math.sqrt(CHAIN_BUMP_VAR / v) * math.exp(-((a - c) ** 2) / (2.0 * v))

    def p_cross(s: int, a: float) -> float:
        return _normal_cdf(a / sd) if s == 0 else _normal_cdf(-a / sd)

    p0, p1 = p_cross(0, float(mu[0])), p_cross(1, float(mu[1]))
    # c_s = r_smooth(s, mu_s) + gamma ((1 - p_s) c_s + p_s c_{1-s}), by Cramer's rule
    a11, a12 = 1.0 - gamma * (1.0 - p0), -gamma * p0
    a21, a22 = -gamma * p1, 1.0 - gamma * (1.0 - p1)
    b1, b2 = r_smooth(0, float(mu[0])), r_smooth(1, float(mu[1]))
    det = a11 * a22 - a12 * a21
    c = ((b1 * a22 - a12 * b2) / det, (a11 * b2 - a21 * b1) / det)

    def q(s: int, a: float) -> float:
        p = p_cross(s, a)
        return r_smooth(s, a) + gamma * ((1.0 - p) * c[s] + p * c[1 - s])

    return q


def chain_plain_q(mu, gamma: float) -> Callable[[int, float], float]:
    """Unsmoothed Q of the chain under the deterministic policy mu_s, in closed form.

    It is the fixed point a critic reaches when it regresses on the stored
    actions alone, without phantom actions.
    """
    def r(s: int, a: float) -> float:
        h, c = CHAIN_BUMPS[s]
        return h * math.exp(-((a - c) ** 2) / (2.0 * CHAIN_BUMP_VAR))

    def nxt(s: int, a: float) -> int:
        return 1 - s if (a > 0.0 if s == 0 else a < 0.0) else s

    # c_s - gamma c_next(s, mu_s) = r(s, mu_s), by Cramer's rule
    m = [[1.0, 0.0], [0.0, 1.0]]
    b = [r(s, float(mu[s])) for s in (0, 1)]
    for s in (0, 1):
        m[s][nxt(s, float(mu[s]))] -= gamma
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    c = ((b[0] * m[1][1] - m[0][1] * b[1]) / det, (m[0][0] * b[1] - m[1][0] * b[0]) / det)

    def q(s: int, a: float) -> float:
        return r(s, a) + gamma * c[nxt(s, a)]

    return q


CHAIN_PROBES = tuple((s, float(a)) for s in (0, 1) for a in np.linspace(-1.5, 1.5, 10))


def check_chain_critic(critic_at: Callable[[int, float], float], mu, variance: float,
                       gamma: float, tol: float = 1e-2) -> Check:
    """The critic within ``tol`` of the exact smoothed Q at every probe."""
    q = chain_smoothed_q(mu, variance, gamma)
    worst = max(abs(critic_at(s, a) - q(s, a)) for s, a in CHAIN_PROBES)
    return Check("critic_vs_exact_smoothed_q", worst < tol,
                 f"worst {worst:.4f} at {len(CHAIN_PROBES)} probes, tolerance {tol:g}")


def check_chain_fixed_point(critic_at: Callable[[int, float], float], mu, variance: float,
                            gamma: float) -> Check:
    """The critic sits on the smoothed side: its worst error against the smoothed Q
    is below half the largest gap between the smoothed and the unsmoothed Q."""
    qs, qp = chain_smoothed_q(mu, variance, gamma), chain_plain_q(mu, gamma)
    worst = max(abs(critic_at(s, a) - qs(s, a)) for s, a in CHAIN_PROBES)
    gap = max(abs(qs(s, a) - qp(s, a)) for s, a in CHAIN_PROBES)
    return Check("critic_learns_smoothed_fixed_point", worst < 0.5 * gap,
                 f"worst {worst:.4f} against smoothed Q, half gap to unsmoothed Q {0.5 * gap:.4f}")
