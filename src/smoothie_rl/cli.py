"""Command-line front end.

Subcommands: ``train`` (seeded runs from a config file), ``verify`` (the
numerical oracle suite), ``search`` (random hyperparameter search around a
config), and ``landscape`` (raw and smoothed two-bump reward curves as CSV).
Exit codes: 0 success, 2 config error, 3 training divergence, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .envs import BumpsBandit
from .harness import ConfigError, parse_config, parse_seeds, random_search, run
from .smoothie import csv_row
from .verify import default_suite, smoothed_landscape

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4


def _load_config(path: str | None, seed_arg: str | None, out_arg: str | None):
    if path is None:
        raise ConfigError("a config file is required (--config <path>)")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    cfg = parse_config(text)
    if seed_arg is not None:
        cfg.seeds = parse_seeds(seed_arg, "--seed")
    if out_arg is not None:
        cfg.out_dir = out_arg
    cfg.validate()
    return cfg


def _cmd_train(args) -> int:
    cfg = _load_config(args.config, args.seed, args.out)
    result = run(cfg)
    for outcome in result.outcomes:
        print(
            f"seed {outcome.seed}: status={outcome.status} "
            f"final_return={outcome.final_return:.9g} best_return={outcome.best_return:.9g}"
        )
    print(f"wrote {len(result.csv_paths)} log(s) and {result.summary_path}")
    return EXIT_DIVERGED if result.exit_code != 0 else EXIT_OK


def _cmd_verify(args) -> int:
    reports = default_suite(seed=args.seed_value)
    ok = True
    for r in reports:
        print(r.format_row())
        ok = ok and r.passed
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_search(args) -> int:
    cfg = _load_config(args.config, args.seed, args.out)
    ranked = random_search(cfg, args.trials, np.random.default_rng(args.search_seed))
    best = ranked[0]
    print(f"ran {len(ranked)} trial(s); best trial {best['trial']} score {best['score']:.9g}")
    print(f"wrote {os.path.join(cfg.out_dir, 'search.csv')}")
    if all(t["status"] != "ok" for t in ranked):
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_landscape(args) -> int:
    env = BumpsBandit()
    if args.sigma <= 0.0:
        print("landscape: --sigma must be positive", file=sys.stderr)
        return EXIT_CONFIG
    if args.points < 1:
        print("landscape: --points must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    if not args.out:
        print("landscape: --out must not be empty", file=sys.stderr)
        return EXIT_CONFIG
    lo, hi = float(env.spec.action_low[0]), float(env.spec.action_high[0])
    grid = np.linspace(lo, hi, args.points)
    raw = env.reward_fn(grid)
    smooth = smoothed_landscape(env.reward_fn, args.sigma, grid)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "landscape.csv")
    with open(path, "w") as fh:
        fh.write(csv_row(("a", "reward", "smoothed")))
        for row in zip(grid, raw, smooth):
            fh.write(csv_row(row))
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothie-rl",
        description="Train and verify a smoothed-critic Gaussian actor-critic on toy tasks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run training for each seed and write CSV logs")
    p_train.add_argument("--config", help="path to a key = value config file")
    p_train.add_argument("--seed", help="comma-separated seeds overriding the config")
    p_train.add_argument("--out", help="output directory overriding the config")
    p_train.set_defaults(func=_cmd_train)

    p_verify = sub.add_parser("verify", help="run the numerical oracle suite")
    p_verify.add_argument("--seed", dest="seed_value", type=int, default=0,
                          help="rng seed for randomized checks")
    p_verify.set_defaults(func=_cmd_verify)

    p_search = sub.add_parser("search", help="random hyperparameter search around a config")
    p_search.add_argument("--config", help="path to the base config file")
    p_search.add_argument("--seed", help="comma-separated seeds overriding the config")
    p_search.add_argument("--out", help="output directory overriding the config")
    p_search.add_argument("--trials", type=int, default=100, help="number of sampled trials")
    p_search.add_argument("--search-seed", type=int, default=0,
                          help="rng seed for hyperparameter sampling")
    p_search.set_defaults(func=_cmd_search)

    p_land = sub.add_parser("landscape", help="emit raw and smoothed reward curves as CSV")
    p_land.add_argument("--sigma", type=float, default=1.0, help="smoothing stddev")
    p_land.add_argument("--points", type=int, default=241, help="grid resolution")
    p_land.add_argument("--out", default="runs", help="output directory (default runs/)")
    p_land.set_defaults(func=_cmd_landscape)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
