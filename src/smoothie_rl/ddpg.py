"""Deterministic-policy-gradient baseline with Ornstein-Uhlenbeck exploration.

The critic regresses on stored actions (no phantom resampling) and the actor
ascends the critic's action gradient at the deterministic action.  With the
policy covariance of the smoothed trainer frozen at a negligible value the
two mean updates coincide; this baseline keeps its own code path so that
equivalence stays a real check.
"""

from __future__ import annotations

import copy

import numpy as np

from .deriv_net import (
    AdamState,
    DerivNet,
    DivergenceError,
    adam_step,
    clip_global_norm,
    huber,
    polyak_update,
)
from .replay import Batch
from .smoothie import Trainer, TrainerConfig


class OuNoise:
    """Discrete Ornstein-Uhlenbeck process x += -damping * x + stddev * noise."""

    def __init__(self, dim: int, damping: float, stddev: float):
        if damping <= 0.0 or stddev < 0.0:
            raise ValueError("bad OU parameters")
        self.dim = dim
        self.damping = float(damping)
        self.stddev = float(stddev)
        self.x = np.zeros(dim)

    def reset(self) -> None:
        self.x = np.zeros(self.dim)

    def step(self, rng: np.random.Generator) -> np.ndarray:
        self.x = self.x - self.damping * self.x + self.stddev * rng.standard_normal(self.dim)
        return self.x.copy()

    def stationary_std(self) -> float:
        return self.stddev / np.sqrt(self.damping * (2.0 - self.damping))


def ddpg_critic_update(
    critic: DerivNet,
    critic_target: DerivNet,
    actor_target: DerivNet,
    batch: Batch,
    cfg: TrainerConfig,
    opt: AdamState,
) -> float:
    """Huber Bellman regression on stored actions; returns the pre-step loss."""
    S, A, R, S2, D, _ = batch
    mu2 = actor_target.forward(S2)
    q2 = critic_target.forward(S2, mu2)[:, 0]
    y = R + cfg.gamma * (1.0 - D) * q2
    q, vjp = critic.param_vjp(S, A)
    resid = q[:, 0] - y
    hval, hder = huber(resid, cfg.huber_clip)
    loss = float(np.mean(hval))
    if not np.isfinite(loss):
        raise DivergenceError("non-finite critic loss")
    grad = vjp((hder / S.shape[0])[:, None])
    grad = clip_global_norm(grad, cfg.q_grad_clip)
    critic.set_params(adam_step(critic.get_params(), grad, cfg.critic_lr, opt))
    return loss


def actor_ascent_direction(actor: DerivNet, critic: DerivNet, states) -> np.ndarray:
    """(1/B) sum_k dmu/dtheta^T dQ/da at a = mu(s_k)."""
    S = np.asarray(states, dtype=float)
    mu, vjp = actor.param_vjp(S, None)
    trip = critic.forward_with_action_derivs(S, mu)
    g = trip.jacobian[:, 0, :]
    if not np.all(np.isfinite(g)):
        raise DivergenceError("non-finite action gradient in actor update")
    return vjp(g / S.shape[0])


def ddpg_actor_update(
    actor: DerivNet, critic: DerivNet, batch: Batch, cfg: TrainerConfig, opt: AdamState
) -> float:
    direction = actor_ascent_direction(actor, critic, batch.S)
    actor.set_params(adam_step(actor.get_params(), -direction, cfg.actor_lr, opt))
    return float(np.linalg.norm(direction))


class DdpgTrainer(Trainer):
    """Collection with OU exploration, one critic and one actor update per step."""

    def __init__(self, env, cfg: TrainerConfig):
        super().__init__(env, cfg)
        self.actor_target = self.actor.clone()
        self.noise = OuNoise(env.spec.action_dim, cfg.ou_damping, cfg.ou_stddev)
        self.opt_actor = AdamState.for_params(self.actor.n_params)
        self.eval_returns: list[tuple[int, float]] = []

    def _eval_episode(self) -> float:
        env = copy.deepcopy(self.env)
        rng = self.rngs["eval"]
        obs = env.reset(rng)
        total = 0.0
        for _ in range(env.spec.horizon):
            sr = env.step(self.actor.forward(obs), rng)
            total += sr.reward
            if sr.done:
                break
            obs = sr.next_observation
        return total

    def _act(self, obs):
        return self.actor.forward(obs) + self.noise.step(self.rngs["act"]), None

    def _update(self, step: int) -> float | None:
        cfg, rngs = self.cfg, self.rngs
        td = None
        if len(self.buffer) >= cfg.batch_size:
            batch = self.buffer.sample(cfg.batch_size, rngs["replay"])
            ddpg_actor_update(self.actor, self.critic, batch, cfg, self.opt_actor)
            batch = self.buffer.sample(cfg.batch_size, rngs["replay"])
            td = ddpg_critic_update(
                self.critic, self.critic_target, self.actor_target, batch, cfg, self.opt_critic
            )
            self.actor_target.set_params(
                polyak_update(self.actor_target.get_params(), self.actor.get_params(), cfg.tau)
            )
        if step % cfg.eval_interval == 0:
            self.eval_returns.append((step, self._eval_episode()))
        return td

    def _record_stats(self):
        sigma = self.cfg.ou_stddev
        return sigma, sigma, sigma, 0.0
