"""Deterministic-policy-gradient baseline with Ornstein-Uhlenbeck exploration.

The critic step is the smoothed trainer's ``bellman_step`` on the stored
actions, which is the smoothed Bellman regression at zero covariance.  The
actor ascends the critic's action gradient at the deterministic action.
With the policy covariance of the smoothed trainer frozen at a negligible
value the two mean updates coincide; the actor keeps its own code path so
that this equivalence (C6) stays a real check.
"""

from __future__ import annotations

import copy

import numpy as np

from .deriv_net import AdamState, DerivNet, DivergenceError, adam_step, as_float64, polyak_update
from .replay import Batch
from .smoothie import Trainer, TrainerConfig, bellman_step


class OuNoise:
    """Discrete Ornstein-Uhlenbeck process x += -damping * x + stddev * noise."""

    def __init__(self, dim: int, damping: float, stddev: float):
        if damping <= 0.0 or stddev < 0.0:
            raise ValueError("bad OU parameters")
        self.dim = dim
        self.damping = float(damping)
        self.stddev = float(stddev)
        self.x = np.zeros(dim)

    def step(self, rng: np.random.Generator) -> np.ndarray:
        self.x = self.x - self.damping * self.x + self.stddev * rng.standard_normal(self.dim)
        return self.x.copy()


def ddpg_critic_update(
    critic: DerivNet,
    critic_target: DerivNet,
    actor_target: DerivNet,
    batch: Batch,
    cfg: TrainerConfig,
    opt: AdamState,
) -> float:
    """The shared Bellman step on the stored actions; returns the pre-step loss."""
    return bellman_step(critic, critic_target, actor_target, batch, batch.A, cfg, opt)


def actor_ascent_direction(actor: DerivNet, critic: DerivNet, states) -> np.ndarray:
    """(1/B) sum_k dmu/dtheta^T dQ/da at a = mu(s_k)."""
    S = as_float64(states)
    mu, vjp = actor.param_vjp(S, None)
    g = critic.forward_with_action_derivs(S, mu, hessian=False).jacobian[:, 0, :]
    if not np.isfinite(g).all():
        raise DivergenceError("non-finite action gradient in actor update")
    return vjp(g / S.shape[0])


def ddpg_actor_update(
    actor: DerivNet, critic: DerivNet, batch: Batch, cfg: TrainerConfig, opt: AdamState
) -> None:
    direction = actor_ascent_direction(actor, critic, batch.S)
    adam_step(actor.params, -direction, cfg.actor_lr, opt)


class DdpgTrainer(Trainer):
    """OU-noise collection, the deterministic actor step, and a greedy evaluation episode
    every ``eval_interval`` steps."""

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
        return self.actor.forward(obs) + self.noise.step(self.rngs["act"])

    def _actor_step(self, batch, step):
        ddpg_actor_update(self.actor, self.critic, batch, self.cfg, self.opt_actor)

    def _critic_step(self, batch):
        return ddpg_critic_update(self.critic, self.critic_target, self.actor_target, batch,
                                  self.cfg, self.opt_critic)

    def _average_actor_targets(self):
        polyak_update(self.actor_target.params, self.actor.params, self.cfg.tau)

    def _update(self, step):
        super()._update(step)
        if step % self.cfg.eval_interval == 0:
            self.eval_returns.append((step, self._eval_episode()))

    def _record_stats(self):
        sigma = self.cfg.ou_stddev
        return sigma, sigma, sigma, 0.0
