"""Actor-critic training of Gaussian policies from a smoothed action-value critic.

The policy mean follows the action gradient of the critic and the policy
covariance follows half the action Hessian, with an optional KL-proximal
penalty toward the slowly moving target policy.  A DDPG baseline, replay
machinery, toy environments, numerical verification oracles and a small
experiment harness round out the package.
"""

from .gauss_math import QuadratureRule, gh_quadrature
from .deriv_net import DerivNet, ForwardTriple, AdamState, DivergenceError
from .envs import BumpsBandit, PointMass, EnvSpec, StepResult
from .replay import Batch, ReplayBuffer, Transition, NotReadyError
from .smoothie import TrainerConfig, TrainLog, SmoothiePolicy, SmoothieTrainer
from .ddpg import OuNoise, DdpgTrainer
from .harness import RunConfig, ConfigError, parse_config, dump_config

__version__ = "0.1.0"

__all__ = [
    "QuadratureRule",
    "gh_quadrature",
    "DerivNet",
    "ForwardTriple",
    "AdamState",
    "DivergenceError",
    "BumpsBandit",
    "PointMass",
    "EnvSpec",
    "StepResult",
    "Batch",
    "ReplayBuffer",
    "Transition",
    "NotReadyError",
    "TrainerConfig",
    "TrainLog",
    "SmoothiePolicy",
    "SmoothieTrainer",
    "OuNoise",
    "DdpgTrainer",
    "RunConfig",
    "ConfigError",
    "parse_config",
    "dump_config",
]
