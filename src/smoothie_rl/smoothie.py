"""Gaussian-policy actor-critic driven by a smoothed action-value critic.

The critic is trained toward a smoothed Bellman target using phantom
actions resampled around the stored ones.  The policy mean ascends the
critic's action gradient evaluated at the mean, and the policy covariance
ascends half the critic's action Hessian, which equals the covariance
gradient of the smoothed value.  An optional KL penalty with coefficient
``kl_coeff`` pulls each update toward the slowly moving target policy.
The collection loop, ``Trainer.train``, is shared with the DDPG baseline.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

from .deriv_net import (
    AdamState,
    DerivNet,
    DivergenceError,
    actor_net,
    adam_step,
    clip_global_norm,
    critic_net,
    huber,
    polyak_update,
)
from .gauss_math import kl_terms
from .replay import Batch, ReplayBuffer, Transition, phantom_actions

LOG_2PI = float(np.log(2.0 * np.pi))

# Variance clamp, wide enough that it never binds in ordinary runs.
VAR_MIN = 1e-8
VAR_MAX = 1e4

TRAIN_LOG_COLUMNS = ("step", "return_mean", "sigma_min", "sigma_mean", "sigma_max", "kl", "td_loss", "ms")


# Allowed range of each bounded TrainerConfig field: (test, what it must be).
# TrainerConfig.validate applies it, and harness.parse_config applies it per
# line so that an error names the offending line.
CONFIG_RANGES = {
    "gamma": (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    "tau": (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    "actor_lr": (lambda v: v > 0.0, "must be positive"),
    "phi_lr": (lambda v: v is None or v > 0.0, "must be positive or none"),
    "phi_optimizer": (lambda v: v in ("adam", "sgd"), "must be adam or sgd"),
    "critic_lr": (lambda v: v > 0.0, "must be positive"),
    "reward_scale": (lambda v: v > 0.0, "must be positive"),
    "huber_clip": (lambda v: v > 0.0, "must be positive"),
    "q_grad_clip": (lambda v: v > 0.0, "must be positive"),
    "kl_coeff": (lambda v: v >= 0.0, "must be nonnegative"),
    "batch_size": (lambda v: v >= 1, "must be >= 1"),
    "total_steps": (lambda v: v >= 1, "must be >= 1"),
    "warmup_steps": (lambda v: v >= 0, "must be >= 0"),
    "buffer_capacity": (lambda v: v >= 1, "must be >= 1"),
    "record_interval": (lambda v: v >= 1, "must be >= 1"),
    "eval_interval": (lambda v: v >= 1, "must be >= 1"),
    "ou_damping": (lambda v: v > 0.0, "must be positive"),
    "ou_stddev": (lambda v: v > 0.0, "must be positive"),
    "hidden": (lambda v: len(v) >= 2 and all(w >= 1 for w in v),
               "needs at least two positive widths"),
}


@dataclass
class TrainerConfig:
    """Shared configuration for the trainers.

    ``ou_damping``/``ou_stddev`` only matter for DDPG, ``kl_coeff`` and the
    phi fields only for the smoothed-critic trainer.
    """

    actor_lr: float = 1e-4
    phi_lr: float | None = None  # log-variance step size; defaults to actor_lr
    phi_optimizer: str = "adam"  # "adam" or "sgd"; plain ascent keeps the Hessian's magnitude
    critic_lr: float = 1e-3
    gamma: float = 0.995
    tau: float = 0.01
    kl_coeff: float = 0.0
    batch_size: int = 128
    total_steps: int = 5000
    warmup_steps: int = 0  # critic-only steps before policy updates begin
    reward_scale: float = 0.1
    q_grad_clip: float = 4.0
    huber_clip: float = 1.0
    phi_init: float = -1.0
    hidden: tuple[int, ...] = (64, 64)
    buffer_capacity: int = 100_000
    record_interval: int = 100
    eval_interval: int = 1000
    ou_damping: float = 3.162e-4
    ou_stddev: float = 0.0316
    track_behavior_density: bool = False
    freeze_sigma: bool = False
    mu_init: float | None = None
    wallclock: bool = False
    seed: int = 0

    def validate(self) -> None:
        for name, (ok, msg) in CONFIG_RANGES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} {msg}, got {value!r}")


class TrainLog:
    """Recorded training telemetry with deterministic CSV formatting."""

    columns = TRAIN_LOG_COLUMNS

    def __init__(self):
        self.rows: list[tuple] = []

    def append(self, step, return_mean, sigma_min, sigma_mean, sigma_max, kl, td_loss, ms) -> None:
        if self.rows and step <= self.rows[-1][0]:
            raise ValueError("steps must be strictly increasing")
        row = (int(step), float(return_mean), float(sigma_min), float(sigma_mean),
               float(sigma_max), float(kl), float(td_loss), float(ms))
        if not all(np.isfinite(v) for v in row):
            raise ValueError("non-finite value in log row")
        self.rows.append(row)

    def column(self, name: str) -> list[float]:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    def write(self, fh: io.TextIOBase) -> None:
        fh.write(",".join(self.columns) + "\n")
        for r in self.rows:
            fh.write(f"{r[0]}," + ",".join(f"{v:.9g}" for v in r[1:]) + "\n")

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            self.write(fh)

    def to_string(self) -> str:
        buf = io.StringIO()
        self.write(buf)
        return buf.getvalue()


class SmoothiePolicy:
    """Gaussian policy: network mean, state-independent diagonal log variance."""

    def __init__(self, mean_net: DerivNet, action_dim: int, phi_init: float = -1.0):
        if mean_net.out_dim != action_dim:
            raise ValueError("mean net output width must equal the action dimension")
        self.mean_net = mean_net
        self.log_var = np.full(action_dim, float(phi_init))
        self.target_mean_net = mean_net.clone()
        self.target_log_var = self.log_var.copy()
        self.action_dim = action_dim

    @property
    def variance(self) -> np.ndarray:
        return np.exp(self.log_var)

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(0.5 * self.log_var)

    def mean(self, states) -> np.ndarray:
        return self.mean_net.forward(states)

    def target_mean(self, states) -> np.ndarray:
        return self.target_mean_net.forward(states)

    def act(self, state, rng: np.random.Generator):
        """Sample an action; returns (action, log density under the policy)."""
        mu = self.mean_net.forward(state)
        std = np.exp(0.5 * self.log_var)
        a = mu + std * rng.standard_normal(self.action_dim)
        logp = float(-0.5 * np.sum(LOG_2PI + self.log_var + (a - mu) ** 2 / self.variance))
        return a, logp

    def clamp_variance(self) -> None:
        self.log_var = np.clip(self.log_var, np.log(VAR_MIN), np.log(VAR_MAX))

    def polyak_targets(self, tau: float) -> None:
        self.target_mean_net.set_params(
            polyak_update(self.target_mean_net.get_params(), self.mean_net.get_params(), tau)
        )
        self.target_log_var = polyak_update(self.target_log_var, self.log_var, tau)


def shift_output_bias(net: DerivNet, reference_state: np.ndarray, target_output: np.ndarray) -> None:
    """Adjust the final bias so the net maps ``reference_state`` to ``target_output``."""
    current = net.forward(reference_state)
    net.layers[-1].bias += np.atleast_1d(target_output) - current


# ------------------------------------------------------------------- updates


def critic_targets(critic_target: DerivNet, policy: SmoothiePolicy, batch: Batch, cfg: TrainerConfig) -> np.ndarray:
    """Bootstrapped regression targets r + gamma (1 - done) Q(s', mu_target(s'))."""
    mu2 = policy.target_mean(batch.S2)
    q2 = critic_target.forward(batch.S2, mu2)[:, 0]
    return batch.R + cfg.gamma * (1.0 - batch.D) * q2


def _importance_weights(logq, cfg: TrainerConfig) -> np.ndarray:
    """Per-sample loss weights correcting for the replay action distribution.

    The phantom sampling itself supplies the Gaussian kernel around the
    stored action, so the implemented weight is 1/q, which restores the
    smoothed Bellman fixed point for any full-support behavior density.
    Weights are normalized to mean one per batch; the minimizer is invariant
    to the overall scale and normalization keeps step sizes comparable.
    The default leaves weights at one, treating the buffer as near-uniform.
    """
    n = logq.shape[0]
    if not cfg.track_behavior_density:
        return np.ones(n)
    if np.any(np.isnan(logq)):
        raise ValueError("track_behavior_density set but stored log densities are missing")
    w = np.exp(np.min(logq) - logq)
    return w * (n / np.sum(w))


def critic_update(
    critic: DerivNet,
    critic_target: DerivNet,
    policy: SmoothiePolicy,
    batch: Batch,
    cfg: TrainerConfig,
    opt: AdamState,
    rng: np.random.Generator,
) -> float:
    """One step on the phantom-action Bellman loss; returns the pre-step loss."""
    y = critic_targets(critic_target, policy, batch, cfg)
    phantoms = phantom_actions(batch, policy.variance, rng)
    weights = _importance_weights(batch.logq, cfg)
    q, vjp = critic.param_vjp(batch.S, phantoms)
    resid = q[:, 0] - y
    hval, hder = huber(resid, cfg.huber_clip)
    loss = float(np.mean(weights * hval))
    if not np.isfinite(loss):
        raise DivergenceError("non-finite critic loss")
    grad = vjp((weights * hder / batch.S.shape[0])[:, None])
    grad = clip_global_norm(grad, cfg.q_grad_clip)
    critic.set_params(adam_step(critic.get_params(), grad, cfg.critic_lr, opt))
    return loss


def policy_ascent_directions(policy: SmoothiePolicy, critic: DerivNet, states, cfg: TrainerConfig):
    """Ascent directions for the mean parameters and the log variance.

    Returns (theta direction, phi direction, action gradients, Hessian
    diagonals, batch-mean KL against the target policy).
    """
    S = np.asarray(states, dtype=float)
    B = S.shape[0]
    mu, mean_vjp = policy.mean_net.param_vjp(S, None)
    trip = critic.forward_with_action_derivs(S, mu)
    g = trip.jacobian[:, 0, :]
    h_diag = np.diagonal(trip.hessian[:, 0, :, :], axis1=1, axis2=2)
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h_diag))):
        raise DivergenceError("non-finite critic derivatives in policy update")
    mu_t = policy.target_mean(S)
    kl_k = kl_terms(mu, policy.log_var, mu_t, policy.target_log_var)
    kl_mean = float(np.mean(kl_k))
    lam = cfg.kl_coeff
    # d KL / d mu = (mu - mu_target) / var_target, chained through the mean net.
    cot = g - lam * (mu - mu_t) / np.exp(policy.target_log_var)
    dir_theta = mean_vjp(cot / B)
    dkl_dphi = 0.5 * (np.exp(policy.log_var - policy.target_log_var) - 1.0)
    dir_phi = 0.5 * np.mean(h_diag, axis=0) * policy.variance - lam * dkl_dphi
    return dir_theta, dir_phi, g, h_diag, kl_mean


def policy_update(
    policy: SmoothiePolicy,
    critic: DerivNet,
    batch: Batch,
    cfg: TrainerConfig,
    opt_theta: AdamState,
    opt_phi: AdamState,
) -> tuple[float, dict]:
    """Ascend mean and covariance; returns (batch-mean KL, gradient norms)."""
    dir_theta, dir_phi, g, h_diag, kl_mean = policy_ascent_directions(policy, critic, batch.S, cfg)
    params = policy.mean_net.get_params()
    policy.mean_net.set_params(adam_step(params, -dir_theta, cfg.actor_lr, opt_theta))
    if not cfg.freeze_sigma:
        phi_lr = cfg.actor_lr if cfg.phi_lr is None else cfg.phi_lr
        if cfg.phi_optimizer == "sgd":
            policy.log_var = policy.log_var + phi_lr * dir_phi
        else:
            policy.log_var = adam_step(policy.log_var, -dir_phi, phi_lr, opt_phi)
        policy.clamp_variance()
    norms = {
        "theta": float(np.linalg.norm(dir_theta)),
        "phi": float(np.linalg.norm(dir_phi)),
        "g": float(np.linalg.norm(g)),
        "h": float(np.linalg.norm(h_diag)),
    }
    return kl_mean, norms


# ------------------------------------------------------------------- trainer


def _seed_streams(seed: int):
    ss = np.random.SeedSequence(seed)
    names = ("init", "env", "act", "replay", "phantom", "eval")
    return dict(zip(names, (np.random.default_rng(c) for c in ss.spawn(len(names)))))


class Trainer:
    """One collection loop shared by the smoothed-critic and DDPG trainers.

    Each step acts, steps the environment, stores the transition, runs the
    subclass's per-step update and, every ``record_interval`` steps, appends
    a TrainLog row.  The base builds what both trainers share: the actor
    (the smoothed trainer's mean net) shifted by ``mu_init``, the critic, its
    target and Adam state, and the replay buffer.  Subclasses supply
    ``_act``, ``_update`` and ``_record_stats``.
    """

    def __init__(self, env, cfg: TrainerConfig):
        cfg.validate()
        self.env = env
        self.cfg = cfg
        self.rngs = _seed_streams(cfg.seed)
        d_s, d_a = env.spec.obs_dim, env.spec.action_dim
        self.actor = actor_net(d_s, d_a, cfg.hidden, self.rngs["init"])
        if cfg.mu_init is not None:
            ref = env.reset(np.random.default_rng(0))
            shift_output_bias(self.actor, ref, np.full(d_a, cfg.mu_init))
        self.critic = critic_net(d_s, d_a, cfg.hidden, self.rngs["init"])
        self.critic_target = self.critic.clone()
        self.buffer = ReplayBuffer(cfg.buffer_capacity)
        self.opt_critic = AdamState.for_params(self.critic.n_params)
        self.episode_returns: list[float] = []
        self.log = TrainLog()

    def _act(self, obs):
        """The exploratory action at ``obs`` and its log density to store, or None."""
        raise NotImplementedError

    def _update(self, step: int) -> float | None:
        """The updates after collecting ``step``; returns the critic's TD loss if it stepped.

        A returned loss also moves the critic target toward the critic.
        """
        raise NotImplementedError

    def _record_stats(self) -> tuple[float, float, float, float]:
        """(sigma_min, sigma_mean, sigma_max, kl) for the next log row."""
        raise NotImplementedError

    def train(self) -> TrainLog:
        cfg = self.cfg
        env, rngs = self.env, self.rngs
        obs = env.reset(rngs["env"])
        ep_return = 0.0
        window: list[float] = []
        last_return = 0.0
        last_td = 0.0
        t0 = time.perf_counter()
        try:
            for step in range(1, cfg.total_steps + 1):
                action, logp = self._act(obs)
                sr = env.step(action, rngs["env"])
                self.buffer.push(
                    Transition(
                        state=obs,
                        action=action,
                        reward=cfg.reward_scale * sr.reward,
                        next_state=sr.next_observation,
                        done=sr.done,
                        behavior_log_density=logp,
                    )
                )
                ep_return += sr.reward
                if sr.done:
                    window.append(ep_return)
                    self.episode_returns.append(ep_return)
                    ep_return = 0.0
                    obs = env.reset(rngs["env"])
                else:
                    obs = sr.next_observation
                td = self._update(step)
                if td is not None:
                    last_td = td
                    self.critic_target.set_params(
                        polyak_update(
                            self.critic_target.get_params(), self.critic.get_params(), cfg.tau
                        )
                    )
                if step % cfg.record_interval == 0:
                    if window:
                        last_return = float(np.mean(window))
                        window.clear()
                    ms = (time.perf_counter() - t0) * 1e3 if cfg.wallclock else 0.0
                    row = (last_return, *self._record_stats(), last_td, ms)
                    if not all(np.isfinite(v) for v in row):
                        raise DivergenceError(f"non-finite value in log row at step {step}")
                    self.log.append(step, *row)
        except DivergenceError as err:
            err.partial_log = self.log  # type: ignore[attr-defined]
            raise
        return self.log


class SmoothieTrainer(Trainer):
    """Interleaves collection with one policy and one critic update per step."""

    def __init__(self, env, cfg: TrainerConfig):
        super().__init__(env, cfg)
        d_a = env.spec.action_dim
        self.policy = SmoothiePolicy(self.actor, d_a, cfg.phi_init)
        self.opt_theta = AdamState.for_params(self.actor.n_params)
        self.opt_phi = AdamState.for_params(d_a)
        self.last_kl = 0.0

    def _act(self, obs):
        action, logp = self.policy.act(obs, self.rngs["act"])
        return action, (logp if self.cfg.track_behavior_density else None)

    def _update(self, step: int) -> float | None:
        cfg, rngs = self.cfg, self.rngs
        if len(self.buffer) < cfg.batch_size:
            return None
        if step > cfg.warmup_steps:
            batch = self.buffer.sample(cfg.batch_size, rngs["replay"])
            self.last_kl, _ = policy_update(
                self.policy, self.critic, batch, cfg, self.opt_theta, self.opt_phi
            )
        batch = self.buffer.sample(cfg.batch_size, rngs["replay"])
        td = critic_update(
            self.critic, self.critic_target, self.policy, batch, cfg, self.opt_critic, rngs["phantom"]
        )
        self.policy.polyak_targets(cfg.tau)
        return td

    def _record_stats(self):
        s = self.policy.sigma
        return float(s.min()), float(s.mean()), float(s.max()), self.last_kl
