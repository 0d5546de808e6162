#!/usr/bin/env python
"""Fingerprints of the default training runs, to show two builds train bit for bit alike.

    python scripts/fingerprint.py --seeds 0,1,2 [--algorithms smoothie,ddpg] [--steps N]

Trains each default (algorithm, environment) pair at each seed in memory and
prints one line per run: the pair, the seed, then ``name=hash`` for the
training-log CSV text and for the final bytes of every learned array (the
critic and its target, the actor and its target, and the smoothed trainer's
log variance and its target; DDPG's evaluation returns stand in for the log
variances), after the run's status, ``ok`` or ``diverged``.  Each hash is the
first 16 hex digits of a sha1.  A last line hashes all the lines above it.  ``--steps`` overrides ``total_steps`` and
caps ``warmup_steps`` at half of it, so that a short run still moves the
actor.  Nothing is written to disk.
"""

import argparse
import hashlib
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from smoothie_rl import cli  # noqa: E402
from smoothie_rl.deriv_net import DivergenceError  # noqa: E402
from smoothie_rl.harness import (  # noqa: E402
    ALGORITHMS,
    ENVIRONMENTS,
    TRAINERS,
    ConfigError,
    default_run_config,
    make_env,
    parse_algorithms,
    parse_seeds,
)
from smoothie_rl.smoothie import SmoothieTrainer  # noqa: E402


def _sha1(blob: bytes) -> str:
    return hashlib.sha1(blob).hexdigest()[:16]


def learned_arrays(trainer):
    """(name, array) of every array the trainer learns, online and target."""
    arrays = [("critic", trainer.critic.params), ("critic_target", trainer.critic_target.params),
              ("actor", trainer.actor.params)]
    if isinstance(trainer, SmoothieTrainer):
        policy = trainer.policy
        return arrays + [("actor_target", policy.target_mean_net.params),
                         ("log_var", policy.log_var), ("target_log_var", policy.target_log_var)]
    return arrays + [("actor_target", trainer.actor_target.params)]


def fingerprint(algorithm: str, environment: str, seed: int, steps: int | None = None) -> str:
    """One line: the run's name, then the hash of its log and of each learned array."""
    cfg = replace(default_run_config(algorithm, environment).trainer, seed=seed)
    if steps is not None:
        cfg = replace(cfg, total_steps=steps, warmup_steps=min(cfg.warmup_steps, steps // 2))
    trainer = TRAINERS[algorithm](make_env(environment), cfg)
    status = "ok"
    try:
        trainer.train()
    except DivergenceError:
        status = "diverged"
    parts = [status, f"log={_sha1(trainer.log.to_string().encode())}"]
    parts += [f"{name}={_sha1(a.tobytes())}" for name, a in learned_arrays(trainer)]
    if not isinstance(trainer, SmoothieTrainer):
        evals = "".join(f"{s},{v:.17g}\n" for s, v in trainer.eval_returns)
        parts.append(f"evals={_sha1(evals.encode())}")
    return f"{algorithm}/{environment} seed={seed} " + " ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    parser.add_argument("--algorithms", default=",".join(ALGORITHMS),
                        help=f"comma-separated subset of {','.join(ALGORITHMS)}")
    parser.add_argument("--steps", type=int, default=None,
                        help="total_steps of every run (default: each pair's own)")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds, "--seeds")
        algorithms = parse_algorithms(args.algorithms, "--algorithms")
        if args.steps is not None and args.steps < 1:
            raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return cli.EXIT_CONFIG

    lines = []
    for algorithm in algorithms:
        for environment in ENVIRONMENTS:
            for seed in seeds:
                lines.append(fingerprint(algorithm, environment, seed, args.steps))
                print(lines[-1], flush=True)
    digest = _sha1("".join(line + "\n" for line in lines).encode())
    print(f"all={digest}")
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
