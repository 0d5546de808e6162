"""Gaussian-policy actor-critic driven by a smoothed action-value critic.

The critic is trained toward a smoothed Bellman target using phantom
actions resampled around the stored ones.  Its step, ``bellman_step``, is
shared with the DDPG baseline, which takes it on the stored actions: the
smoothed regression at zero covariance.  The policy mean ascends the
critic's action gradient evaluated at the mean, and the policy covariance
ascends half the critic's action Hessian, which equals the covariance
gradient of the smoothed value.  An optional KL penalty with
coefficient ``kl_coeff`` pulls each update toward the slowly moving target
policy.  The collection loop and the per-step update schedule, ``Trainer``,
are shared with the DDPG baseline.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .deriv_net import (
    AdamState,
    DerivNet,
    DivergenceError,
    actor_net,
    adam_step,
    as_float64,
    clip_global_norm,
    critic_net,
    huber,
    polyak_update,
)
from .gauss_math import kl_terms
from .replay import Batch, ReplayBuffer, Transition, phantom_actions

# Variance clamp, wide enough that it never binds in ordinary runs.
VAR_MIN = 1e-8
VAR_MAX = 1e4
_LOG_VAR_MIN = float(np.log(VAR_MIN))
_LOG_VAR_MAX = float(np.log(VAR_MAX))

TRAIN_LOG_COLUMNS = ("step", "return_mean", "sigma_min", "sigma_mean", "sigma_max", "kl", "td_loss")


# Allowed range of each bounded TrainerConfig field: (test, what it must be).
# TrainerConfig.validate applies it, and harness.parse_config applies it per
# line so that an error names the offending line.
CONFIG_RANGES = {
    "gamma": (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    "tau": (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    "actor_lr": (lambda v: v > 0.0, "must be positive"),
    "phi_lr": (lambda v: v is None or v > 0.0, "must be positive or none"),
    "critic_lr": (lambda v: v > 0.0, "must be positive"),
    "reward_scale": (lambda v: v > 0.0, "must be positive"),
    "huber_clip": (lambda v: v > 0.0, "must be positive"),
    "q_grad_clip": (lambda v: v > 0.0, "must be positive"),
    "kl_coeff": (lambda v: v >= 0.0, "must be nonnegative"),
    "phi_init": (lambda v: np.isfinite(v), "must be finite"),
    "mu_init": (lambda v: v is None or np.isfinite(v), "must be finite or none"),
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
    freeze_sigma: bool = False
    mu_init: float | None = None
    seed: int = 0

    def validate(self) -> None:
        for name, (ok, msg) in CONFIG_RANGES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} {msg}, got {value!r}")
        if self.batch_size > self.buffer_capacity:
            raise ValueError(f"batch_size {self.batch_size} exceeds buffer_capacity "
                             f"{self.buffer_capacity}, so no batch could ever be sampled")


def csv_row(values) -> str:
    """One line of every CSV the package writes: floats as ``.9g``, anything else with ``str``."""
    return ",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in values) + "\n"


class TrainLog:
    """Recorded training telemetry with deterministic CSV formatting.

    ``columns`` is the only declaration of a row; ``append`` checks each row
    against it and for finiteness.
    """

    columns = TRAIN_LOG_COLUMNS

    def __init__(self):
        self.rows: list[tuple] = []

    def append(self, step, *values) -> None:
        """Add the row at ``step``: one value per column after ``step``, in order."""
        width = len(self.columns) - 1
        if len(values) != width:
            raise ValueError(f"log row takes {width} values after step, got {len(values)}")
        if self.rows and step <= self.rows[-1][0]:
            raise ValueError("steps must be strictly increasing")
        row = (int(step), *(float(v) for v in values))
        if not all(np.isfinite(row)):
            raise DivergenceError(f"non-finite value in log row at step {step}")
        self.rows.append(row)

    def column(self, name: str) -> list[float]:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    def write(self, fh: io.TextIOBase) -> None:
        fh.write(csv_row(self.columns))
        for r in self.rows:
            fh.write(csv_row(r))

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

    def act(self, state, rng: np.random.Generator) -> np.ndarray:
        """Sample an action from the policy at ``state``."""
        mu = self.mean_net.forward(state)
        return mu + np.exp(0.5 * self.log_var) * rng.standard_normal(self.action_dim)

    def clamp_variance(self) -> None:
        # np.clip's result, without its wrapper's dispatch.
        self.log_var = np.minimum(np.maximum(self.log_var, _LOG_VAR_MIN), _LOG_VAR_MAX)

    def polyak_targets(self, tau: float) -> None:
        polyak_update(self.target_mean_net.params, self.mean_net.params, tau)
        polyak_update(self.target_log_var, self.log_var, tau)


def shift_output_bias(net: DerivNet, reference_state: np.ndarray, target_output: np.ndarray) -> None:
    """Adjust the final bias so the net maps ``reference_state`` to ``target_output``."""
    current = net.forward(reference_state)
    net.layers[-1].bias += np.atleast_1d(target_output) - current


# ------------------------------------------------------------------- updates


def critic_targets(critic_target: DerivNet, target_actor: DerivNet, batch: Batch, cfg: TrainerConfig) -> np.ndarray:
    """Bootstrapped regression targets r + gamma (1 - done) Q(s', mu_target(s')).

    ``target_actor`` is the target mean net: the smoothed trainer's target
    policy mean, or DDPG's target actor.  Terminal rows are not
    bootstrapped: their target is the reward alone.  So when every row of the
    batch is terminal, as on a horizon-1 task, the target nets are not run
    and ``batch.R`` is the target.
    """
    if batch.D.all():
        return batch.R
    mu2 = target_actor.forward(batch.S2)
    q2 = critic_target.forward(batch.S2, mu2)[:, 0]
    return batch.R + cfg.gamma * (1.0 - batch.D) * q2


def bellman_step(
    critic: DerivNet,
    critic_target: DerivNet,
    target_actor: DerivNet,
    batch: Batch,
    actions: np.ndarray,
    cfg: TrainerConfig,
    opt: AdamState,
) -> float:
    """One Adam step on the Huber regression of Q(s, actions) on the Bellman
    targets; returns the pre-step loss.

    Both trainers' critics step here: the smoothed trainer at phantom
    actions, DDPG at the stored actions (the smoothed regression at zero
    covariance).
    """
    y = critic_targets(critic_target, target_actor, batch, cfg)
    q, vjp = critic.param_vjp(batch.S, actions)
    B = batch.S.shape[0]
    hval, hder = huber(q[:, 0] - y, cfg.huber_clip)
    loss = float(np.add.reduce(hval) / B)  # np.mean's sum and division
    if not math.isfinite(loss):
        raise DivergenceError("non-finite critic loss")
    grad = vjp((hder / B)[:, None])
    adam_step(critic.params, clip_global_norm(grad, cfg.q_grad_clip), cfg.critic_lr, opt)
    return loss


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
    phantoms = phantom_actions(batch, policy.variance, rng)
    return bellman_step(critic, critic_target, policy.target_mean_net, batch, phantoms, cfg, opt)


def policy_ascent_directions(
    policy: SmoothiePolicy, critic: DerivNet, states, cfg: TrainerConfig, want_kl: bool = True
):
    """Ascent directions for the mean parameters and the log variance.

    Returns (theta direction, phi direction, action gradients, Hessian
    diagonals, batch-mean KL against the target policy).  The KL is computed
    only when ``want_kl`` is set, and comes back as None otherwise; the
    target mean it compares with is computed when the KL or the penalty
    (``cfg.kl_coeff`` positive) needs it.
    """
    S = as_float64(states)
    B = S.shape[0]
    mu, mean_vjp = policy.mean_net.param_vjp(S, None)
    trip = critic.forward_with_action_derivs(S, mu)
    g = trip.jacobian[:, 0, :]
    h_diag = trip.hessian[:, 0].diagonal(axis1=1, axis2=2)
    if not (np.isfinite(g).all() and np.isfinite(h_diag).all()):
        raise DivergenceError("non-finite critic derivatives in policy update")
    lam = cfg.kl_coeff
    kl_mean = None
    if lam > 0.0 or want_kl:
        mu_t = policy.target_mean(S)
    if want_kl:
        kl_mean = float(np.mean(kl_terms(mu, policy.log_var, mu_t, policy.target_log_var)))
    cot = g
    # np.mean's sum and division, without its wrapper's dispatch.
    dir_phi = 0.5 * (np.add.reduce(h_diag, axis=0) / B) * policy.variance
    if lam > 0.0:
        # d KL / d mu = (mu - mu_target) / var_target, chained through the mean net.
        cot = g - lam * (mu - mu_t) / np.exp(policy.target_log_var)
        dkl_dphi = 0.5 * (np.exp(policy.log_var - policy.target_log_var) - 1.0)
        dir_phi = dir_phi - lam * dkl_dphi
    dir_theta = mean_vjp(cot / B)
    return dir_theta, dir_phi, g, h_diag, kl_mean


def policy_update(
    policy: SmoothiePolicy,
    critic: DerivNet,
    batch: Batch,
    cfg: TrainerConfig,
    opt_theta: AdamState,
    opt_phi: AdamState,
    want_kl: bool = True,
) -> float | None:
    """Ascend mean and covariance; returns the batch-mean KL against the target
    policy, or None when ``want_kl`` is not set.
    """
    dir_theta, dir_phi, _, _, kl_mean = policy_ascent_directions(
        policy, critic, batch.S, cfg, want_kl
    )
    adam_step(policy.mean_net.params, -dir_theta, cfg.actor_lr, opt_theta)
    if not cfg.freeze_sigma:
        phi_lr = cfg.actor_lr if cfg.phi_lr is None else cfg.phi_lr
        adam_step(policy.log_var, -dir_phi, phi_lr, opt_phi)
        policy.clamp_variance()
    return kl_mean


# ------------------------------------------------------------------- trainer


def _seed_streams(seed: int):
    ss = np.random.SeedSequence(seed)
    names = ("init", "env", "act", "replay", "phantom", "eval")
    return dict(zip(names, (np.random.default_rng(c) for c in ss.spawn(len(names)))))


class Trainer:
    """One collection loop and update schedule shared by the smoothed-critic and DDPG trainers.

    Each step acts, steps the environment, stores the transition, runs the
    updates of ``_update`` and, every ``record_interval`` steps, appends a
    TrainLog row.  The base builds what both trainers share: the actor (the
    smoothed trainer's mean net) shifted by ``mu_init``, the critic, its
    target and Adam state, and the replay buffer.  Subclasses supply the
    exploratory action ``_act(obs)``, one actor update ``_actor_step(batch,
    step)``, one critic update ``_critic_step(batch)`` that returns its TD
    loss, ``_average_actor_targets()`` that moves the actor's targets toward
    it, and ``_record_stats()``: (sigma_min, sigma_mean, sigma_max, kl) for
    the next log row.
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
        self.log = TrainLog()
        self.last_td = 0.0

    def _update(self, step: int) -> None:
        """The updates after collecting ``step``.

        Once the buffer holds a batch: past the warmup an actor step on one
        replay batch, then a critic step on a second batch and Polyak
        averaging of the critic target, then averaging of the actor's targets
        if the actor moved.
        """
        cfg, rng = self.cfg, self.rngs["replay"]
        if len(self.buffer) < cfg.batch_size:
            return
        actor_moves = step > cfg.warmup_steps
        if actor_moves:
            self._actor_step(self.buffer.sample(cfg.batch_size, rng), step)
        self.last_td = self._critic_step(self.buffer.sample(cfg.batch_size, rng))
        polyak_update(self.critic_target.params, self.critic.params, cfg.tau)
        # Averaging toward a frozen actor would only move its targets by rounding.
        if actor_moves:
            self._average_actor_targets()

    def train(self) -> TrainLog:
        cfg = self.cfg
        env, rngs = self.env, self.rngs
        obs = env.reset(rngs["env"])
        ep_return = 0.0
        window: list[float] = []
        last_return = 0.0
        try:
            for step in range(1, cfg.total_steps + 1):
                action = self._act(obs)
                sr = env.step(action, rngs["env"])
                self.buffer.push(
                    Transition(
                        state=obs,
                        action=action,
                        reward=cfg.reward_scale * sr.reward,
                        next_state=sr.next_observation,
                        done=sr.done,
                    )
                )
                ep_return += sr.reward
                if sr.done:
                    window.append(ep_return)
                    ep_return = 0.0
                    obs = env.reset(rngs["env"])
                else:
                    obs = sr.next_observation
                self._update(step)
                if step % cfg.record_interval == 0:
                    if window:
                        last_return = float(np.mean(window))
                        window.clear()
                    self.log.append(step, last_return, *self._record_stats(), self.last_td)
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
        return self.policy.act(obs, self.rngs["act"])

    def _actor_step(self, batch, step):
        # The KL value feeds only the log row, so it is computed only on the
        # steps that write one; the penalty's gradient does not need it.
        kl = policy_update(self.policy, self.critic, batch, self.cfg, self.opt_theta,
                           self.opt_phi, want_kl=step % self.cfg.record_interval == 0)
        if kl is not None:
            self.last_kl = kl

    def _critic_step(self, batch):
        return critic_update(self.critic, self.critic_target, self.policy, batch, self.cfg,
                             self.opt_critic, self.rngs["phantom"])

    def _average_actor_targets(self):
        self.policy.polyak_targets(self.cfg.tau)

    def _record_stats(self):
        s = self.policy.sigma
        return float(s.min()), float(s.mean()), float(s.max()), self.last_kl
