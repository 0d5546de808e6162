#!/usr/bin/env python
"""Point-mass regulation experiment.

Trains the smoothed-critic learner with and without the KL trust-region
penalty (and optionally the deterministic baseline) across several seeds,
then prints per-algorithm across-seed statistics of the final training
return: the `return_mean` of each seed's last log row, the mean return of the
exploring training episodes that ended in the last logging window.  No
separate evaluation is run.  The KL variant should show a visibly smaller
seed spread.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from smoothie_rl import cli  # noqa: E402
from smoothie_rl.harness import (  # noqa: E402
    ConfigError,
    default_run_config,
    parse_algorithms,
    parse_seeds,
    run,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    parser.add_argument("--out", default="runs/pointmass", help="output directory")
    parser.add_argument("--algorithms", default="smoothie,smoothie_kl",
                        help="comma-separated subset of smoothie,smoothie_kl,ddpg")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds, "--seeds")
        algorithms = parse_algorithms(args.algorithms, "--algorithms")
        if not args.out:
            raise ConfigError("--out must not be empty")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return cli.EXIT_CONFIG

    worst_exit = 0
    rows = []
    for algorithm in algorithms:
        cfg = default_run_config(algorithm, "pointmass")
        cfg = replace(cfg, seeds=seeds, out_dir=os.path.join(args.out, algorithm))
        result = run(cfg)
        worst_exit = max(worst_exit, result.exit_code)
        finals = np.array([o.final_return for o in result.outcomes])
        rows.append((algorithm, finals))
        print(f"\n{algorithm} on pointmass ({len(seeds)} seeds):")
        print("  seed  final_return  status")
        for o in result.outcomes:
            print(f"  {o.seed:>4}  {o.final_return:>12.2f}  {o.status}")
        print(f"  logs: {result.out_dir}/")

    print("\nacross-seed summary (final training return, return_mean of the last log row):")
    print("  algorithm     mean        std")
    for algorithm, finals in rows:
        print(f"  {algorithm:<12}  {np.mean(finals):>8.2f}  {np.std(finals):>9.2f}")
    return worst_exit


if __name__ == "__main__":
    sys.exit(main())
