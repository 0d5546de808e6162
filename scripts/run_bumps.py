#!/usr/bin/env python
"""Two-bump bandit escape experiment.

Trains the smoothed-critic learner and the deterministic baseline from the
same poor initialization (mean on the short bump) across several seeds, then
prints a per-seed table of where each run ended up.  Also writes the raw and
smoothed reward landscape for plotting against the training traces.
"""

import argparse
import os
import sys
from dataclasses import replace

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
    parser.add_argument("--out", default="runs/bumps", help="output directory")
    parser.add_argument("--algorithms", default="smoothie,ddpg",
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

    code = cli.main(["landscape", "--sigma", "1.0", "--out", args.out])
    if code != cli.EXIT_OK:
        return code

    worst_exit = 0
    for algorithm in algorithms:
        cfg = default_run_config(algorithm, "bumps")
        cfg = replace(cfg, seeds=seeds, out_dir=os.path.join(args.out, algorithm))
        result = run(cfg)
        worst_exit = max(worst_exit, result.exit_code)
        print(f"\n{algorithm} on bumps ({len(seeds)} seeds):")
        print("  seed  final_return  final_sigma  status")
        for o in result.outcomes:
            print(f"  {o.seed:>4}  {o.final_return:>12.4f}  {o.final_sigma_mean:>11.4f}  {o.status}")
        print(f"  logs: {result.out_dir}/")
    return worst_exit


if __name__ == "__main__":
    sys.exit(main())
