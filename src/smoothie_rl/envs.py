"""Self-contained toy environments with explicit reward formulas.

Both tasks keep all randomness in reset; step is deterministic given the
action, and actions outside the bounds are clipped before being applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EnvSpec:
    obs_dim: int
    action_dim: int
    action_low: np.ndarray
    action_high: np.ndarray
    horizon: int


@dataclass(frozen=True)
class StepResult:
    reward: float
    next_observation: np.ndarray
    done: bool


def _check_action(action, dim: int) -> np.ndarray:
    a = np.atleast_1d(np.asarray(action, dtype=float))
    if a.shape != (dim,):
        raise ValueError(f"action shape {a.shape} != ({dim},)")
    if not np.isfinite(a).all():
        raise ValueError("non-finite action")
    return a


def _clip(a: np.ndarray, spec: EnvSpec) -> np.ndarray:
    """np.clip of a finite action to the bounds, without its wrapper's dispatch."""
    return np.minimum(np.maximum(a, spec.action_low), spec.action_high)


class BumpsBandit:
    """One-step bandit whose reward is a mixture of two Gaussian bumps.

    The lower bump sits at ``centers[0]``; a policy mean initialized there
    must climb through the valley between the modes to reach the better one
    at ``centers[1]``.
    """

    def __init__(
        self,
        centers: tuple[float, float] = (-1.0, 1.0),
        heights: tuple[float, float] = (0.6, 1.0),
        widths: tuple[float, float] = (0.35, 0.35),
    ):
        if heights[0] >= heights[1]:
            raise ValueError("first bump must be the worse mode")
        if min(widths) <= 0.0:
            raise ValueError("widths must be positive")
        self.centers = tuple(float(c) for c in centers)
        self.heights = tuple(float(h) for h in heights)
        self.widths = tuple(float(w) for w in widths)
        self.spec = EnvSpec(
            obs_dim=1,
            action_dim=1,
            action_low=np.array([-3.0]),
            action_high=np.array([3.0]),
            horizon=1,
        )

    def reward_fn(self, a):
        """Vectorized mixture-of-bumps reward."""
        a = np.asarray(a, dtype=float)
        total = np.zeros_like(a)
        for m, h, w in zip(self.centers, self.heights, self.widths):
            total = total + h * np.exp(-((a - m) ** 2) / (2.0 * w * w))
        return total

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(1)

    def step(self, action, rng: np.random.Generator) -> StepResult:
        a = _clip(_check_action(action, 1), self.spec)
        r = float(self.reward_fn(a[0]))
        return StepResult(reward=r, next_observation=np.zeros(1), done=True)


class PointMass:
    """2-D point mass pushed toward a fixed goal against linear drag.

    Observation is [position, velocity]; reward is the negative squared
    distance to the goal minus a small action cost.
    """

    def __init__(
        self,
        goal: tuple[float, float] = (0.7, 0.7),
        dt: float = 0.05,
        drag: float = 0.5,
        horizon: int = 100,
    ):
        if dt <= 0.0 or drag < 0.0 or horizon < 1:
            raise ValueError("bad dynamics parameters")
        self.goal = np.asarray(goal, dtype=float)
        self.dt = float(dt)
        self.drag = float(drag)
        self.horizon = int(horizon)
        self.spec = EnvSpec(
            obs_dim=4,
            action_dim=2,
            action_low=np.array([-1.0, -1.0]),
            action_high=np.array([1.0, 1.0]),
            horizon=self.horizon,
        )
        self._pos = np.zeros(2)
        self._vel = np.zeros(2)
        self._t = 0

    def _obs(self) -> np.ndarray:
        return np.concatenate([self._pos, self._vel])

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self._pos = rng.uniform(-1.0, 1.0, size=2)
        self._vel = np.zeros(2)
        self._t = 0
        return self._obs()

    def step(self, action, rng: np.random.Generator) -> StepResult:
        a = _clip(_check_action(action, 2), self.spec)
        self._pos = self._pos + self._vel * self.dt
        self._vel = self._vel + (a - self.drag * self._vel) * self.dt
        dist2 = float(np.add.reduce((self._pos - self.goal) ** 2))
        reward = -dist2 - 0.01 * float(np.add.reduce(a * a))
        self._t += 1
        done = self._t >= self.horizon
        return StepResult(reward=reward, next_observation=self._obs(), done=done)
