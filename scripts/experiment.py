#!/usr/bin/env python
"""Seeded experiment on one environment: train each algorithm, report final returns.

    python scripts/experiment.py {bumps,pointmass} [--seeds 0,1,2] [--algorithms a,b] [--out DIR]

Prints, per algorithm, each seed's final training return (the ``return_mean``
of its last log row: the mean return of the exploring training episodes that
ended in the last logging window; no separate evaluation is run), final sigma
and status, then the final return's mean and standard deviation over seeds.
By default bumps trains the smoothed-critic learner and the deterministic
baseline from the mean on the short bump, after writing the raw and smoothed
reward landscape; pointmass trains the learner with and without the KL penalty.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from smoothie_rl import cli  # noqa: E402
from smoothie_rl.harness import (  # noqa: E402
    ENVIRONMENTS,
    ConfigError,
    default_run_config,
    parse_algorithms,
    parse_seeds,
    run,
)

DEFAULT_ALGORITHMS = {"bumps": "smoothie,ddpg", "pointmass": "smoothie,smoothie_kl"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("environment", choices=ENVIRONMENTS)
    parser.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    parser.add_argument("--out", help="output directory (default runs/<environment>)")
    parser.add_argument("--algorithms", help="comma-separated subset of smoothie,smoothie_kl,ddpg "
                                             "(default per environment)")
    args = parser.parse_args(argv)
    env = args.environment
    out = os.path.join("runs", env) if args.out is None else args.out
    try:
        seeds = parse_seeds(args.seeds, "--seeds")
        algorithms = parse_algorithms(
            DEFAULT_ALGORITHMS[env] if args.algorithms is None else args.algorithms, "--algorithms")
        if not out:
            raise ConfigError("--out must not be empty")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return cli.EXIT_CONFIG

    if env == "bumps":
        code = cli.main(["landscape", "--sigma", "1.0", "--out", out])
        if code != cli.EXIT_OK:
            return code

    worst_exit = 0
    finals = {}
    for algorithm in algorithms:
        cfg = replace(default_run_config(algorithm, env), seeds=seeds,
                      out_dir=os.path.join(out, algorithm))
        result = run(cfg)
        worst_exit = max(worst_exit, result.exit_code)
        finals[algorithm] = [o.final_return for o in result.outcomes]
        print(f"\n{algorithm} on {env} ({len(seeds)} seeds):")
        print("  seed  final_return  final_sigma  status")
        for o in result.outcomes:
            print(f"  {o.seed:>4}  {o.final_return:>12.4f}  {o.final_sigma_mean:>11.4f}  {o.status}")
        print(f"  logs: {result.out_dir}/")

    print("\nacross-seed summary (final training return, return_mean of the last log row):")
    print("  algorithm             mean           std")
    for algorithm, returns in finals.items():
        print(f"  {algorithm:<12}  {np.mean(returns):>12.4f}  {np.std(returns):>12.4f}")
    return worst_exit


if __name__ == "__main__":
    sys.exit(main())
