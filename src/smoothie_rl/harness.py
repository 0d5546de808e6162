"""Experiment orchestration: config files, seeded runs, random search.

Config files are flat ``key = value`` text with ``#`` comments.  The
``algorithm`` and ``environment`` keys are required and select a tuned
per-pair baseline; every other key overrides one field of that baseline.
Unknown keys, duplicates, and out-of-range values are rejected with the
offending line number.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import get_type_hints

import numpy as np

from .ddpg import DdpgTrainer
from .deriv_net import DivergenceError
from .envs import BumpsBandit, PointMass
from .smoothie import CONFIG_RANGES, SmoothieTrainer, TrainerConfig, TrainLog, csv_row

TRAINERS = {"smoothie": SmoothieTrainer, "smoothie_kl": SmoothieTrainer, "ddpg": DdpgTrainer}

_DDPG_NOISE = dict(actor_lr=1e-4, ou_damping=0.15, ou_stddev=0.2)
_SMOOTHIE_BUMPS = dict(
    total_steps=12000, warmup_steps=6000, actor_lr=1.5e-4, phi_lr=1.5e-3, phi_init=0.0
)

# The tuned desk-scale baseline of each environment: its constructor, the
# TrainerConfig overrides every algorithm shares, and each algorithm's own
# overrides on top of those (an algorithm left out takes the shared ones).
ENV_TABLE = {
    # The policy starts at the worse mode with unit sigma (phi_init 0).  A
    # critic-only warmup lets the value network resolve the smoothed
    # landscape before the mean moves; the mean then climbs the smoothed ramp
    # to the better mode while sigma grows in the convex mid-region and
    # collapses once the mean parks on the optimum.  Unit rewards
    # (reward_scale 1) keep the curvature signal above the critic's noise
    # floor at this scale.
    "bumps": (
        BumpsBandit,
        dict(hidden=(32, 32), batch_size=64, critic_lr=1e-3, mu_init=-1.0, reward_scale=1.0),
        {
            "smoothie": _SMOOTHIE_BUMPS,
            "smoothie_kl": {**_SMOOTHIE_BUMPS, "kl_coeff": 1e-2},
            "ddpg": dict(total_steps=6000, **_DDPG_NOISE),
        },
    ),
    "pointmass": (
        PointMass,
        dict(hidden=(32, 32), batch_size=128, total_steps=6000, critic_lr=1e-3, actor_lr=1e-3,
             gamma=0.99),
        {"smoothie_kl": dict(kl_coeff=3e-2), "ddpg": _DDPG_NOISE},
    ),
}

ALGORITHMS = tuple(TRAINERS)
ENVIRONMENTS = tuple(ENV_TABLE)

# The random search around a base config, one entry per TrainerConfig field
# it sets.  A ("log", low, high, algorithms) entry draws the field
# log-uniformly in [low, high] for the listed algorithms; a ("fixed", value)
# entry sets it for every algorithm.  Draws follow the table's order, and
# search.csv records the log entries' fields in that order.
SEARCH_TABLE = {
    "actor_lr": ("log", 1e-6, 1e-3, ALGORITHMS),
    "critic_lr": ("log", 1e-6, 1e-3, ALGORITHMS),
    "reward_scale": ("log", 0.01, 0.3, ALGORITHMS),
    "ou_damping": ("log", 1e-4, 1e-3, ("ddpg",)),
    "ou_stddev": ("log", 1e-3, 1.0, ("ddpg",)),
    "kl_coeff": ("log", 1e-6, 4e-2, ("smoothie_kl",)),
    "gamma": ("fixed", 0.995),
    "tau": ("fixed", 0.01),
    "batch_size": ("fixed", 128),
    "q_grad_clip": ("fixed", 4.0),
    "huber_clip": ("fixed", 1.0),
}

SUMMARY_COLUMNS = ("seed", "final_return", "best_return", "final_sigma_mean", "status")


class ConfigError(ValueError):
    pass


def _known(kind: str, name: str, where: str = "") -> None:
    """Reject an algorithm or environment name that no table row declares."""
    names = {"algorithm": ALGORITHMS, "environment": ENVIRONMENTS}[kind]
    if name not in names:
        raise ConfigError(f"{where}unknown {kind} {name!r}, expected one of {names}")


@dataclass
class RunConfig:
    algorithm: str
    environment: str
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "runs"
    trainer: TrainerConfig = field(default_factory=TrainerConfig)

    def validate(self) -> None:
        _known("algorithm", self.algorithm)
        _known("environment", self.environment)
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if not self.out_dir:
            raise ConfigError("out_dir must not be empty")
        self.trainer.validate()
        # A run writes a log row every record_interval steps; a shorter one
        # would write a header-only log and a summary of nan returns.
        if self.trainer.total_steps < self.trainer.record_interval:
            raise ConfigError(
                f"total_steps {self.trainer.total_steps} is below record_interval "
                f"{self.trainer.record_interval}, so the run would never log a row"
            )


def make_env(name: str):
    _known("environment", name)
    return ENV_TABLE[name][0]()


def default_run_config(algorithm: str, environment: str) -> RunConfig:
    """Tuned desk-scale baseline for each algorithm/environment pair, from ENV_TABLE."""
    _known("algorithm", algorithm)
    _known("environment", environment)
    _, shared, own = ENV_TABLE[environment]
    trainer = TrainerConfig(**{**shared, **own.get(algorithm, {})})
    return RunConfig(algorithm, environment, trainer=trainer)


# --------------------------------------------------------------- config text


# Declared type of each TrainerConfig field a config file sets, in field
# order.  The trainer's ``seed`` comes from the run's ``seeds`` instead.
_FIELD_TYPES = {name: hint for name, hint in get_type_hints(TrainerConfig).items() if name != "seed"}


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low not in ("true", "false"):
        raise ValueError(f"not a bool: {raw!r}")
    return low == "true"


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _parse_optional_float(raw: str) -> float | None:
    return None if raw.lower() == "none" else float(raw)


# Parser for each declared field type, with what it accepts for error
# messages.  The keywords true, false and none match in any case.
_PARSERS = {
    bool: (_parse_bool, "true or false"),
    int: (int, "an integer"),
    float: (float, "a number"),
    float | None: (_parse_optional_float, "a number or none"),
    tuple[int, ...]: (_parse_ints, "comma-separated integers"),
}


def _parse(hint, raw: str, where: str):
    parse, expected = _PARSERS[hint]
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"{where} expects {expected}, got {raw!r}")


def parse_seeds(raw: str, where: str) -> tuple[int, ...]:
    """Distinct seeds from comma-separated text; ``where`` names the source in errors.

    A repeated seed would train twice into the same log file.
    """
    seeds = _parse(tuple[int, ...], raw, where)
    if not seeds:
        raise ConfigError(f"{where} needs at least one integer")
    for k, seed in enumerate(seeds):
        if seed in seeds[:k]:
            raise ConfigError(f"{where} repeats seed {seed}")
    return seeds


def parse_algorithms(raw: str, where: str) -> tuple[str, ...]:
    """Algorithm names from comma-separated text; ``where`` names the source in errors."""
    names = tuple(part.strip() for part in raw.split(","))
    for name in names:
        _known("algorithm", name, f"{where}: ")
    return names


def _scan_pairs(text: str) -> list[tuple[int, str, str]]:
    pairs = []
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key before '='")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        pairs.append((lineno, key, raw))
    return pairs


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig; see the module docstring for the format."""
    pairs = _scan_pairs(text)
    by_key = {key: (lineno, raw) for lineno, key, raw in pairs}

    for required in ("algorithm", "environment"):
        if required not in by_key:
            raise ConfigError(f"missing required key {required!r}")
    for kind in ("algorithm", "environment"):
        lineno, name = by_key[kind]
        _known(kind, name, f"line {lineno}: ")

    cfg = default_run_config(by_key["algorithm"][1], by_key["environment"][1])
    for lineno, key, raw in pairs:
        if key in ("algorithm", "environment"):
            continue
        if key == "seeds":
            cfg.seeds = parse_seeds(raw, f"line {lineno}: seeds")
            continue
        if key == "out_dir":
            if not raw:
                raise ConfigError(f"line {lineno}: out_dir must not be empty")
            cfg.out_dir = raw
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        value = _parse(_FIELD_TYPES[key], raw, f"line {lineno}: {key}")
        if key in CONFIG_RANGES:
            ok, msg = CONFIG_RANGES[key]
            if not ok(value):
                raise ConfigError(f"line {lineno}: {key} {msg}, got {raw}")
        setattr(cfg.trainer, key, value)
    cfg.validate()
    return cfg


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(dump_config(cfg)) reproduces cfg."""
    lines = [
        f"algorithm = {cfg.algorithm}",
        f"environment = {cfg.environment}",
        f"seeds = {_format_value(cfg.seeds)}",
        f"out_dir = {cfg.out_dir}",
    ]
    for name in _FIELD_TYPES:
        lines.append(f"{name} = {_format_value(getattr(cfg.trainer, name))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- runs


@dataclass
class SeedOutcome:
    seed: int
    status: str  # "ok" or "diverged"
    log: TrainLog
    trainer: object
    final_return: float
    best_return: float
    final_sigma_mean: float


@dataclass
class RunResult:
    exit_code: int
    outcomes: list[SeedOutcome]
    out_dir: str
    csv_paths: list[str]
    summary_path: str


def _build_trainer(cfg: RunConfig, seed: int):
    return TRAINERS[cfg.algorithm](make_env(cfg.environment), replace(cfg.trainer, seed=seed))


def _run_one_seed(cfg: RunConfig, seed: int) -> SeedOutcome:
    trainer = _build_trainer(cfg, seed)
    status = "ok"
    try:
        log = trainer.train()
    except DivergenceError as err:
        log = getattr(err, "partial_log", TrainLog())
        status = "diverged"
    returns = log.column("return_mean") if log.rows else [float("nan")]
    sigma = log.column("sigma_mean") if log.rows else [float("nan")]
    return SeedOutcome(
        seed=seed,
        status=status,
        log=log,
        trainer=trainer,
        final_return=returns[-1],
        best_return=max(returns),
        final_sigma_mean=sigma[-1],
    )


def run(cfg: RunConfig) -> RunResult:
    """Train each seed, writing one TrainLog CSV per seed plus summary.csv.

    Returns exit code 0 when all seeds finish, 3 when any seed diverges
    (partial artifacts are still written).
    """
    cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)
    outcomes = []
    csv_paths = []
    for seed in cfg.seeds:
        outcome = _run_one_seed(cfg, seed)
        path = os.path.join(cfg.out_dir, f"{cfg.algorithm}_{cfg.environment}_seed{seed}.csv")
        outcome.log.to_csv(path)
        csv_paths.append(path)
        outcomes.append(outcome)
    summary_path = os.path.join(cfg.out_dir, "summary.csv")
    with open(summary_path, "w") as fh:
        fh.write(csv_row(SUMMARY_COLUMNS))
        for o in outcomes:
            fh.write(csv_row(getattr(o, name) for name in SUMMARY_COLUMNS))
    exit_code = 3 if any(o.status != "ok" for o in outcomes) else 0
    return RunResult(exit_code, outcomes, cfg.out_dir, csv_paths, summary_path)


# -------------------------------------------------------------------- search


def _trial_score(log: TrainLog) -> float:
    """Mean of the final ten recorded return_mean values (fewer if the log is short)."""
    returns = log.column("return_mean")
    if not returns:
        return float("nan")
    return float(np.mean(returns[-10:]))


def random_search(base: RunConfig, trials: int, rng: np.random.Generator) -> list[dict]:
    """Sample, train, and rank ``trials`` configurations around ``base``.

    Each SEARCH_TABLE field is set in table order: a log entry that lists
    the base algorithm is drawn log-uniformly, a fixed entry takes its value.
    Trials run on the base seeds; the score is the across-seed mean of
    _trial_score.  Diverging trials score nan and sort last.  Writes
    ``search.csv`` under base.out_dir and returns the ranked trial dicts.
    Each trial records the value of every log entry's field, in table order;
    fields the base algorithm does not sample keep the base value.
    """
    if trials < 1:
        raise ConfigError(f"trial count must be >= 1, got {trials}")
    base.validate()
    recorded = [name for name, entry in SEARCH_TABLE.items() if entry[0] == "log"]
    results = []
    for index in range(trials):
        tcfg = replace(base.trainer)
        for name, entry in SEARCH_TABLE.items():
            if entry[0] == "fixed":
                setattr(tcfg, name, entry[1])
            elif base.algorithm in entry[3]:
                low, high = entry[1:3]
                setattr(tcfg, name, float(np.exp(rng.uniform(np.log(low), np.log(high)))))
        status = "ok"
        scores = []
        for seed in base.seeds:
            trial_cfg = RunConfig(base.algorithm, base.environment, (seed,), base.out_dir, replace(tcfg))
            outcome = _run_one_seed(trial_cfg, seed)
            if outcome.status != "ok":
                status = "diverged"
            scores.append(_trial_score(outcome.log))
        results.append(
            {
                "trial": index,
                **{name: getattr(tcfg, name) for name in recorded},
                "score": float("nan") if status != "ok" else float(np.mean(scores)),
                "status": status,
            }
        )
    ranked = sorted(
        results,
        key=lambda t: (math.isnan(t["score"]), -t["score"] if not math.isnan(t["score"]) else 0.0),
    )
    os.makedirs(base.out_dir, exist_ok=True)
    path = os.path.join(base.out_dir, "search.csv")
    with open(path, "w") as fh:
        fh.write(csv_row(("rank", "trial", *recorded, "score", "status")))
        for rank, t in enumerate(ranked):
            fh.write(csv_row((rank, *t.values())))
    return ranked
