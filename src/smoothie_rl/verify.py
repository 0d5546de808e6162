"""Numerical oracles certifying the identities the trainers rely on.

Every check here recomputes its reference quantity through an independent
route (quadrature, finite differences, closed-form dynamic programming) and
never through the code path being tested.  Finite differences are always
applied to plain ``forward`` evaluations, not to the analytic derivative
propagation they are meant to certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deriv_net import DerivNet, critic_net, actor_net
from .envs import BumpsBandit
from .gauss_math import gh_quadrature

FD_STEP = 1e-4  # first derivatives
FD_STEP2 = 3e-3  # second derivatives


@dataclass(frozen=True)
class OracleReport:
    name: str
    max_abs: float
    max_rel: float
    tol: float
    passed: bool
    samples: int

    def format_row(self) -> str:
        return (
            f"{self.name},{self.max_abs:.9g},{self.max_rel:.9g},"
            f"{self.tol:.9g},{str(self.passed).lower()}"
        )


def _report(name: str, max_abs: float, max_rel: float, tol: float, samples: int,
            on_abs: bool = True) -> OracleReport:
    err = max_abs if on_abs else max_rel
    return OracleReport(name, float(max_abs), float(max_rel), float(tol),
                        bool(err <= tol), samples)


# ------------------------------------------------------------------ landscape


def smoothed_landscape(reward_fn, sigma: float, grid: np.ndarray, order: int = 64) -> np.ndarray:
    """Pointwise Gaussian smoothing of a scalar reward over a grid; sigma is a stddev."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    grid = np.asarray(grid, dtype=float)
    return np.array([gh_quadrature(reward_fn, a, sigma * sigma, order) for a in grid])


# ------------------------------------------- covariance-gradient identity


def check_theorem1(reward_fn, a: float, variance: float, order: int = 64) -> float:
    """|d Qtilde / d variance - 0.5 d^2 Qtilde / d a^2| at one point.

    Qtilde(a, v) is the quadrature smoothing of the reward.  Both sides are
    taken by central finite differences of the smoothed value.
    """
    if variance <= 0.0:
        raise ValueError(f"variance must be positive, got {variance}")

    def qt(aa, vv):
        return gh_quadrature(reward_fn, aa, vv, order)

    hv = FD_STEP * max(abs(variance), 1.0)
    hv = min(hv, 0.5 * variance)  # keep the perturbed variance positive
    d_var = (qt(a, variance + hv) - qt(a, variance - hv)) / (2.0 * hv)
    ha = FD_STEP2 * max(abs(a), 1.0)
    d2_a = (qt(a + ha, variance) - 2.0 * qt(a, variance) + qt(a - ha, variance)) / (ha * ha)
    return abs(d_var - 0.5 * d2_a)


def theorem1_report(
    reward_fn=None,
    n_samples: int = 50,
    tol: float = 1e-4,
    seed: int = 0,
    order: int = 64,
) -> OracleReport:
    """Randomized sweep of the covariance-gradient identity on a two-bump reward.

    Variances are sampled in [0.05, 0.6]: order-64 quadrature resolves the
    0.35-wide bumps to better than 1e-9 there (checked against the closed
    form), so the second difference, which divides quadrature error by the
    squared step, stays truncation-limited and under the tolerance.
    """
    if reward_fn is None:
        reward_fn = BumpsBandit().reward_fn
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        a = rng.uniform(-2.0, 2.0)
        v = rng.uniform(0.05, 0.6)
        worst = max(worst, check_theorem1(reward_fn, a, v, order))
    return _report("theorem1_two_bump", worst, worst, tol, n_samples)


# ------------------------------------------- derivative propagation vs FD


def fd_jacobian(net: DerivNet, state: np.ndarray, action: np.ndarray) -> np.ndarray:
    """Central differences of net.forward in the action coordinates."""
    da = net.action_dim
    out = np.zeros((net.out_dim, da))
    for i in range(da):
        h = FD_STEP * max(abs(action[i]), 1.0)
        ap = action.copy(); ap[i] += h
        am = action.copy(); am[i] -= h
        out[:, i] = (net.forward(state, ap) - net.forward(state, am)) / (2.0 * h)
    return out


def fd_hessian(net: DerivNet, state: np.ndarray, action: np.ndarray) -> np.ndarray:
    """Central second differences of net.forward (scalar output assumed first)."""
    da = net.action_dim
    out = np.zeros((net.out_dim, da, da))
    f0 = net.forward(state, action)
    steps = [FD_STEP2 * max(abs(action[i]), 1.0) for i in range(da)]
    for i in range(da):
        h = steps[i]
        ap = action.copy(); ap[i] += h
        am = action.copy(); am[i] -= h
        out[:, i, i] = (net.forward(state, ap) - 2.0 * f0 + net.forward(state, am)) / (h * h)
    for i in range(da):
        for j in range(i + 1, da):
            hi, hj = steps[i], steps[j]
            app = action.copy(); app[i] += hi; app[j] += hj
            apm = action.copy(); apm[i] += hi; apm[j] -= hj
            amp = action.copy(); amp[i] -= hi; amp[j] += hj
            amm = action.copy(); amm[i] -= hi; amm[j] -= hj
            cross = (net.forward(state, app) - net.forward(state, apm)
                     - net.forward(state, amp) + net.forward(state, amm)) / (4.0 * hi * hj)
            out[:, i, j] = cross
            out[:, j, i] = cross
    return out


def check_grad_hessian_fd(
    net: DerivNet,
    n_trials: int = 100,
    seed: int = 0,
    jac_tol: float = 1e-5,
    hess_tol: float = 1e-4,
) -> tuple[OracleReport, OracleReport]:
    """Analytic action derivatives against finite differences of plain forward."""
    rng = np.random.default_rng(seed)
    worst_j_rel = worst_j_abs = 0.0
    worst_h_rel = worst_h_abs = 0.0
    for _ in range(n_trials):
        s = rng.uniform(-1.0, 1.0, size=net.state_dim)
        a = rng.uniform(-1.0, 1.0, size=net.action_dim)
        trip = net.forward_with_action_derivs(s, a)
        jf = fd_jacobian(net, s, a)
        hf = fd_hessian(net, s, a)
        dj = float(np.max(np.abs(trip.jacobian - jf)))
        dh = float(np.max(np.abs(trip.hessian - hf)))
        worst_j_abs = max(worst_j_abs, dj)
        worst_h_abs = max(worst_h_abs, dh)
        worst_j_rel = max(worst_j_rel, dj / max(float(np.max(np.abs(jf))), 1e-12))
        worst_h_rel = max(worst_h_rel, dh / max(float(np.max(np.abs(hf))), 1e-12))
    return (
        _report("jacobian_vs_fd", worst_j_abs, worst_j_rel, jac_tol, n_trials, on_abs=False),
        _report("hessian_vs_fd", worst_h_abs, worst_h_rel, hess_tol, n_trials, on_abs=False),
    )


# -------------------------------------------- derivative Bellman residuals


def derivative_bellman_residual(
    k: int,
    target_fn,
    q_smoothed,
    a: float,
    variance: float,
    order: int = 64,
) -> float:
    """Residual of the k-th derivative Bellman identity at one action.

    ``target_fn(atilde)`` is the expected one-step backup value as a function
    of the executed action, ``q_smoothed(a)`` the candidate smoothed value.
    The right-hand side integrates the k-th location derivative of the
    Gaussian kernel against the backup; the left-hand side differentiates
    the candidate by central differences.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"unsupported derivative order k={k}")
    if variance <= 0.0:
        raise ValueError(f"variance must be positive, got {variance}")

    def weighted(atilde):
        atilde = np.asarray(atilde, dtype=float)
        base = np.asarray(target_fn(atilde), dtype=float)
        if k == 0:
            return base
        u = (atilde - a) / variance
        if k == 1:
            return base * u
        return base * (u * u - 1.0 / variance)

    rhs = gh_quadrature(weighted, a, variance, order)
    if k == 0:
        lhs = float(q_smoothed(a))
    elif k == 1:
        h = FD_STEP * max(abs(a), 1.0)
        lhs = (float(q_smoothed(a + h)) - float(q_smoothed(a - h))) / (2.0 * h)
    else:
        h = FD_STEP2 * max(abs(a), 1.0)
        lhs = (float(q_smoothed(a + h)) - 2.0 * float(q_smoothed(a)) + float(q_smoothed(a - h))) / (h * h)
    return abs(lhs - rhs)


def derivative_bellman_report(
    variance: float = 0.36,
    n_points: int = 7,
    tol: float = 1e-5,
    order: int = 64,
) -> list[OracleReport]:
    """One-step bandit where the exact smoothed value is available by quadrature."""
    env = BumpsBandit()
    reward = env.reward_fn

    def q_smoothed(aa):
        return gh_quadrature(reward, float(aa), variance, order)

    points = np.linspace(-1.5, 1.5, n_points)
    reports = []
    for k in (0, 1, 2):
        worst = 0.0
        for a in points:
            worst = max(
                worst,
                derivative_bellman_residual(k, reward, q_smoothed, float(a), variance, order),
            )
        reports.append(_report(f"deriv_bellman_k{k}", worst, worst, tol, n_points))
    return reports


# ------------------------------------------------- compatible critic check


def compatible_critic_check(
    mean_net: DerivNet,
    log_var: np.ndarray,
    states: np.ndarray,
    w_value: float,
    w_mean: np.ndarray,
    w_cov: np.ndarray,
    tol: float = 1e-12,
) -> tuple[OracleReport, OracleReport]:
    """Verify the compatible quadratic critic reproduces its own coefficients.

    The critic is V + (a - mu)^T J^T w_mean + (a - mu)^T diag(e^phi w_cov) (a - mu)
    with J the parameter Jacobian of the mean net.  Condition 1: the action
    gradient at a = mu equals J^T w_mean; its Hessian analogue: the action
    Hessian equals twice the diagonal coefficient matrix.  Both sides are
    evaluated by central differences of the assembled critic, which are exact
    for quadratics, against the algebraic coefficients.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    var = np.exp(np.asarray(log_var, dtype=float))
    da = mean_net.out_dim
    coeff = var * np.asarray(w_cov, dtype=float)  # diagonal of the quadratic form
    worst_g = 0.0
    worst_h = 0.0
    h = 0.1  # central differences are exact for quadratics at any step
    for s in states:
        out, vjp = mean_net.param_vjp(s, None)
        mu = out[0]
        jac_t_w = np.array([float(np.dot(vjp(e[None, :]), w_mean)) for e in np.eye(da)])

        def qc(a):
            d = a - mu
            return w_value + float(np.dot(d, jac_t_w)) + float(np.dot(d * coeff, d))

        grad_fd = np.zeros(da)
        hess_fd = np.zeros((da, da))
        for i in range(da):
            e = np.zeros(da); e[i] = h
            grad_fd[i] = (qc(mu + e) - qc(mu - e)) / (2.0 * h)
            hess_fd[i, i] = (qc(mu + e) - 2.0 * qc(mu) + qc(mu - e)) / (h * h)
        for i in range(da):
            for j in range(i + 1, da):
                ei = np.zeros(da); ei[i] = h
                ej = np.zeros(da); ej[j] = h
                cross = (qc(mu + ei + ej) - qc(mu + ei - ej)
                         - qc(mu - ei + ej) + qc(mu - ei - ej)) / (4.0 * h * h)
                hess_fd[i, j] = cross
                hess_fd[j, i] = cross
        worst_g = max(worst_g, float(np.max(np.abs(grad_fd - jac_t_w))))
        worst_h = max(worst_h, float(np.max(np.abs(hess_fd - 2.0 * np.diag(coeff)))))
    n = states.shape[0]
    return (
        _report("compatible_grad", worst_g, worst_g, tol, n),
        _report("compatible_hessian", worst_h, worst_h, tol, n),
    )


def compatible_stationarity_check(
    mean_net: DerivNet,
    states: np.ndarray,
    true_grads: np.ndarray,
    tol: float = 1e-8,
) -> OracleReport:
    """Least-squares fit of w_mean to a gradient field is first-order stationary.

    Solving min_w sum_s ||J(s)^T w - g(s)||^2 and checking that the residual
    is orthogonal to the features, i.e. sum_s J(s) (J(s)^T w - g(s)) = 0,
    which is also the statement that the fitted critic and the true gradients
    produce the same mean update.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    true_grads = np.atleast_2d(np.asarray(true_grads, dtype=float))
    da = mean_net.out_dim
    rows = []
    for s in states:
        _, vjp = mean_net.param_vjp(s, None)
        rows.extend(vjp(e[None, :]) for e in np.eye(da))
    X = np.stack(rows)  # (n_states * da, n_params)
    y = true_grads.reshape(-1)
    w, *_ = np.linalg.lstsq(X, y, rcond=None)
    stationarity = X.T @ (X @ w - y)
    scale = max(float(np.max(np.abs(X.T @ y))), 1.0)
    worst = float(np.max(np.abs(stationarity))) / scale
    return _report("compatible_stationarity", worst, worst, tol, states.shape[0])


# ------------------------------------------------------ two-state chain MDP


class TwoStateChain:
    """Reward and transition rule of a continuing two-state chain MDP.

    From state 0 a positive executed action crosses to state 1, and from
    state 1 a negative one crosses back.  Each state's reward is a single
    Gaussian bump in the action.  Both rules are exactly integrable, which
    makes the chain the reference MDP for checking trained critics against
    closed-form fixed points: the chain oracles below and acceptance test C3
    read ``reward_fn`` and ``crosses``, and C3 builds its transitions from
    them without stepping an environment.
    """

    @staticmethod
    def reward_fn(state: int, a):
        a = np.asarray(a, dtype=float)
        if state == 0:
            return np.exp(-((a - 0.5) ** 2) / (2.0 * 0.25))
        return 0.8 * np.exp(-((a + 0.5) ** 2) / (2.0 * 0.25))

    @staticmethod
    def crosses(state: int, a: float) -> bool:
        return a > 0.0 if state == 0 else a < 0.0


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def chain_smoothed_q_oracle(mu: np.ndarray, variance: float, gamma: float, order: int = 64):
    """Exact smoothed state-action values of the chain under a fixed Gaussian policy.

    Returns a function q(state, a).  The two constants c_s = q(s, mu_s) solve
    a linear system whose coefficients are Gaussian orthant probabilities.
    """
    env = TwoStateChain()
    sd = math.sqrt(variance)

    def r_smooth(s: int, a: float) -> float:
        return gh_quadrature(lambda x: env.reward_fn(s, x), a, variance, order)

    def p_cross(s: int, a: float) -> float:
        # probability that the executed action switches state
        return _phi(a / sd) if s == 0 else _phi(-a / sd)

    # c_s = r_smooth(s, mu_s) + gamma [ (1 - p) c_s + p c_{1-s} ]
    p0 = p_cross(0, float(mu[0]))
    p1 = p_cross(1, float(mu[1]))
    A = np.array(
        [
            [1.0 - gamma * (1.0 - p0), -gamma * p0],
            [-gamma * p1, 1.0 - gamma * (1.0 - p1)],
        ]
    )
    b = np.array([r_smooth(0, float(mu[0])), r_smooth(1, float(mu[1]))])
    c = np.linalg.solve(A, b)

    def q(state: int, a: float) -> float:
        p = p_cross(state, a)
        return r_smooth(state, a) + gamma * ((1.0 - p) * c[state] + p * c[1 - state])

    q.constants = c  # type: ignore[attr-defined]
    return q


def chain_expected_q_oracle(mu: np.ndarray, gamma: float):
    """Exact deterministic-policy state-action values of the chain.

    Returns q(state, a) for the policy that always plays mu_s; transitions
    and rewards are deterministic given the executed action.
    """
    env = TwoStateChain()

    def next_state(s: int, a: float) -> int:
        return 1 - s if env.crosses(s, a) else s

    # c_s = r(s, mu_s) + gamma c_{next(s, mu_s)}
    A = np.eye(2)
    b = np.zeros(2)
    for s in (0, 1):
        ns = next_state(s, float(mu[s]))
        A[s, ns] -= gamma
        b[s] = float(env.reward_fn(s, float(mu[s])))
    c = np.linalg.solve(A, b)

    def q(state: int, a: float) -> float:
        return float(env.reward_fn(state, a)) + gamma * c[next_state(state, a)]

    q.constants = c  # type: ignore[attr-defined]
    return q


# -------------------------------------------------------------- default suite


def quadrature_convergence_report(tol: float = 1e-8) -> OracleReport:
    """Doubling the order beyond 32 moves the smoothed two-bump values by < 1e-8.

    Held below variance 0.3, where the 0.35-wide bumps stay resolved by the
    order-32 node spacing.
    """
    reward = BumpsBandit().reward_fn
    worst = 0.0
    for a in (-1.0, 0.0, 0.7):
        for v in (0.1, 0.25):
            worst = max(worst, abs(gh_quadrature(reward, a, v, 64) - gh_quadrature(reward, a, v, 32)))
    return _report("quadrature_convergence", worst, worst, tol, 6)


def escape_precondition_report() -> OracleReport:
    """At sigma = 1 the smoothed two-bump landscape climbs away from the worse mode.

    Finite-difference slope at m1 on a grid running toward m2; a positive
    slope is what lets the mean update leave the local optimum.
    """
    env = BumpsBandit()
    grid = np.linspace(env.centers[0], env.centers[1], 41)
    smooth = smoothed_landscape(env.reward_fn, 1.0, grid)
    slope_at_m1 = float((smooth[1] - smooth[0]) / (grid[1] - grid[0]))
    # encode "slope must be positive": residual is the slope deficit
    deficit = max(0.0, -slope_at_m1)
    return OracleReport("escape_precondition", deficit, deficit, 0.0, slope_at_m1 > 0.0, len(grid))


def default_suite(seed: int = 0) -> list[OracleReport]:
    """The standard verification battery run by the CLI."""
    reports: list[OracleReport] = []
    reports.append(theorem1_report(seed=seed))
    net = critic_net(4, 2, (64, 64), np.random.default_rng(seed))
    reports.extend(check_grad_hessian_fd(net, n_trials=100, seed=seed))
    reports.extend(derivative_bellman_report())
    rng = np.random.default_rng(seed)
    mean_net = actor_net(3, 2, (16, 16), rng)
    states = rng.uniform(-1.0, 1.0, size=(5, 3))
    w_mean = rng.standard_normal(mean_net.n_params)
    w_cov = rng.standard_normal(2)
    g_rep, h_rep = compatible_critic_check(
        mean_net, np.array([-1.0, -0.5]), states, 0.3, w_mean, w_cov
    )
    reports.extend([g_rep, h_rep])
    true_grads = rng.standard_normal((5, 2))
    reports.append(compatible_stationarity_check(mean_net, states, true_grads))
    reports.append(quadrature_convergence_report())
    reports.append(escape_precondition_report())
    return reports
