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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .ddpg import DdpgTrainer
from .deriv_net import DivergenceError
from .envs import BumpsBandit, PointMass
from .smoothie import CONFIG_RANGES, SmoothieTrainer, TrainerConfig, TrainLog

ALGORITHMS = ("smoothie", "smoothie_kl", "ddpg")
ENVIRONMENTS = ("bumps", "pointmass")

SUMMARY_COLUMNS = ("seed", "final_return", "best_return", "final_sigma_mean", "ms", "status")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    algorithm: str
    environment: str
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "runs"
    trainer: TrainerConfig = field(default_factory=TrainerConfig)

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        if self.environment not in ENVIRONMENTS:
            raise ConfigError(
                f"unknown environment {self.environment!r}, expected one of {ENVIRONMENTS}"
            )
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        self.trainer.validate()


def make_env(name: str):
    if name == "bumps":
        return BumpsBandit()
    if name == "pointmass":
        return PointMass()
    raise ConfigError(f"unknown environment {name!r}, expected one of {ENVIRONMENTS}")


def default_run_config(algorithm: str, environment: str) -> RunConfig:
    """Tuned desk-scale baseline for each algorithm/environment pair.

    The two-bump bandit runs start the policy at the worse mode with unit
    sigma (phi_init 0).  A critic-only warmup phase lets the value network
    resolve the smoothed landscape before the mean starts moving; the mean
    then climbs the smoothed ramp to the better mode while sigma grows in
    the convex mid-region and collapses once the mean parks on the optimum.
    Unit rewards (reward_scale 1) keep the curvature signal above the
    critic's noise floor at this scale.
    """
    cfg = RunConfig(algorithm=algorithm, environment=environment)
    cfg.validate()
    t = cfg.trainer
    if environment == "bumps":
        t.hidden = (32, 32)
        t.batch_size = 64
        t.critic_lr = 1e-3
        t.mu_init = -1.0
        t.reward_scale = 1.0
        if algorithm == "ddpg":
            t.total_steps = 6000
            t.actor_lr = 1e-4
            t.ou_damping = 0.15
            t.ou_stddev = 0.2
        else:
            t.total_steps = 12000
            t.warmup_steps = 6000
            t.actor_lr = 1.5e-4
            t.phi_lr = 1.5e-3
            t.phi_init = 0.0
    else:
        t.hidden = (32, 32)
        t.batch_size = 128
        t.total_steps = 6000
        t.critic_lr = 1e-3
        t.actor_lr = 1e-3
        t.gamma = 0.99
        if algorithm == "ddpg":
            t.actor_lr = 1e-4
            t.ou_damping = 0.15
            t.ou_stddev = 0.2
    if algorithm == "smoothie_kl":
        t.kl_coeff = 3e-2 if environment == "pointmass" else 1e-2
    return cfg


# --------------------------------------------------------------- config text


_TRAINER_FIELDS = {f.name: f for f in fields(TrainerConfig) if f.name != "seed"}

def _parse_bool(raw: str, key: str, lineno: int) -> bool:
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ConfigError(f"line {lineno}: {key} expects true or false, got {raw!r}")


def _parse_int_tuple(raw: str, key: str, lineno: int) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects comma-separated integers, got {raw!r}")


_OPTIONAL_FLOAT_KEYS = ("mu_init", "phi_lr")


def _coerce(key: str, raw: str, lineno: int):
    if key == "hidden":
        return _parse_int_tuple(raw, key, lineno)
    if key == "phi_optimizer":
        return raw.lower()
    if key in _OPTIONAL_FLOAT_KEYS:
        if raw.lower() == "none":
            return None
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} expects a number or none, got {raw!r}")
    f = _TRAINER_FIELDS[key]
    if f.type in ("bool", bool):
        return _parse_bool(raw, key, lineno)
    if f.type in ("int", int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} expects an integer, got {raw!r}")
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects a number, got {raw!r}")


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
    algorithm = by_key["algorithm"][1]
    environment = by_key["environment"][1]
    if algorithm not in ALGORITHMS:
        raise ConfigError(
            f"line {by_key['algorithm'][0]}: unknown algorithm {algorithm!r}, "
            f"expected one of {ALGORITHMS}"
        )
    if environment not in ENVIRONMENTS:
        raise ConfigError(
            f"line {by_key['environment'][0]}: unknown environment {environment!r}, "
            f"expected one of {ENVIRONMENTS}"
        )

    cfg = default_run_config(algorithm, environment)
    for lineno, key, raw in pairs:
        if key in ("algorithm", "environment"):
            continue
        if key == "seeds":
            seeds = _parse_int_tuple(raw, key, lineno)
            if not seeds:
                raise ConfigError(f"line {lineno}: seeds needs at least one integer")
            cfg.seeds = seeds
            continue
        if key == "out_dir":
            if not raw:
                raise ConfigError(f"line {lineno}: out_dir must not be empty")
            cfg.out_dir = raw
            continue
        if key not in _TRAINER_FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        value = _coerce(key, raw, lineno)
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
        f"seeds = {','.join(str(s) for s in cfg.seeds)}",
        f"out_dir = {cfg.out_dir}",
    ]
    for name in _TRAINER_FIELDS:
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
    ms: float


@dataclass
class RunResult:
    exit_code: int
    outcomes: list[SeedOutcome]
    out_dir: str
    csv_paths: list[str]
    summary_path: str


def _build_trainer(cfg: RunConfig, seed: int):
    tcfg = replace(cfg.trainer, seed=seed)
    if cfg.algorithm == "ddpg":
        return DdpgTrainer(make_env(cfg.environment), tcfg)
    return SmoothieTrainer(make_env(cfg.environment), tcfg)


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
    ms = log.column("ms")[-1] if log.rows else 0.0
    return SeedOutcome(
        seed=seed,
        status=status,
        log=log,
        trainer=trainer,
        final_return=returns[-1],
        best_return=max(returns),
        final_sigma_mean=sigma[-1],
        ms=ms,
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
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for o in outcomes:
            fh.write(
                f"{o.seed},{o.final_return:.9g},{o.best_return:.9g},"
                f"{o.final_sigma_mean:.9g},{o.ms:.9g},{o.status}\n"
            )
    exit_code = 3 if any(o.status != "ok" for o in outcomes) else 0
    return RunResult(exit_code, outcomes, cfg.out_dir, csv_paths, summary_path)


# -------------------------------------------------------------------- search


@dataclass(frozen=True)
class SearchRow:
    name: str
    sampling: str  # "log" or "fixed"
    low: float = 0.0
    high: float = 0.0
    value: float = 0.0
    applies_to: tuple[str, ...] = ALGORITHMS

    def __post_init__(self):
        if self.sampling not in ("log", "fixed"):
            raise ValueError(f"sampling must be log or fixed, got {self.sampling!r}")
        if self.sampling == "log" and not 0.0 < self.low <= self.high:
            raise ValueError(f"log-sampled range for {self.name} must be positive and ordered")


@dataclass(frozen=True)
class SearchSpec:
    rows: tuple[SearchRow, ...]
    trials: int = 100

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")


def default_search_spec(trials: int = 100) -> SearchSpec:
    """Hyperparameter search procedure: log-uniform rows plus fixed values."""
    rows = (
        SearchRow("actor_lr", "log", 1e-6, 1e-3),
        SearchRow("critic_lr", "log", 1e-6, 1e-3),
        SearchRow("reward_scale", "log", 0.01, 0.3),
        SearchRow("ou_damping", "log", 1e-4, 1e-3, applies_to=("ddpg",)),
        SearchRow("ou_stddev", "log", 1e-3, 1.0, applies_to=("ddpg",)),
        SearchRow("kl_coeff", "log", 1e-6, 4e-2, applies_to=("smoothie_kl",)),
        SearchRow("gamma", "fixed", value=0.995),
        SearchRow("tau", "fixed", value=0.01),
        SearchRow("batch_size", "fixed", value=128),
        SearchRow("q_grad_clip", "fixed", value=4.0),
        SearchRow("huber_clip", "fixed", value=1.0),
    )
    return SearchSpec(rows=rows, trials=trials)


SEARCH_COLUMNS = (
    "rank", "trial", "actor_lr", "critic_lr", "reward_scale",
    "ou_damping", "ou_stddev", "kl_coeff", "score", "status",
)


def _trial_score(log: TrainLog) -> float:
    """Mean of the final ten recorded return_mean values (fewer if the log is short)."""
    returns = log.column("return_mean")
    if not returns:
        return float("nan")
    return float(np.mean(returns[-10:]))


def random_search(spec: SearchSpec, base: RunConfig, rng: np.random.Generator) -> list[dict]:
    """Sample, train, and rank `spec.trials` configurations around `base`.

    Each sampled row applicable to the base algorithm is drawn log-uniformly;
    fixed rows are pinned to their stated values.  Trials run on the base
    seeds; the score is the across-seed mean of _trial_score.  Diverging
    trials score nan and sort last.  Writes `search.csv` under base.out_dir
    and returns the ranked trial dicts.
    """
    base.validate()
    trials = []
    for index in range(spec.trials):
        tcfg = replace(base.trainer)
        for row in spec.rows:
            if row.sampling == "fixed":
                current = getattr(tcfg, row.name)
                value = type(current)(row.value)
            elif base.algorithm in row.applies_to:
                value = float(np.exp(rng.uniform(np.log(row.low), np.log(row.high))))
            else:
                continue
            setattr(tcfg, row.name, value)
        status = "ok"
        scores = []
        for seed in base.seeds:
            trial_cfg = RunConfig(base.algorithm, base.environment, (seed,), base.out_dir, replace(tcfg))
            outcome = _run_one_seed(trial_cfg, seed)
            if outcome.status != "ok":
                status = "diverged"
            scores.append(_trial_score(outcome.log))
        trials.append(
            {
                "trial": index,
                "actor_lr": tcfg.actor_lr,
                "critic_lr": tcfg.critic_lr,
                "reward_scale": tcfg.reward_scale,
                "ou_damping": tcfg.ou_damping,
                "ou_stddev": tcfg.ou_stddev,
                "kl_coeff": tcfg.kl_coeff,
                "score": float("nan") if status != "ok" else float(np.mean(scores)),
                "status": status,
            }
        )
    ranked = sorted(
        trials,
        key=lambda t: (math.isnan(t["score"]), -t["score"] if not math.isnan(t["score"]) else 0.0),
    )
    os.makedirs(base.out_dir, exist_ok=True)
    path = os.path.join(base.out_dir, "search.csv")
    with open(path, "w") as fh:
        fh.write(",".join(SEARCH_COLUMNS) + "\n")
        for rank, t in enumerate(ranked):
            fh.write(
                f"{rank},{t['trial']},{t['actor_lr']:.9g},{t['critic_lr']:.9g},"
                f"{t['reward_scale']:.9g},{t['ou_damping']:.9g},{t['ou_stddev']:.9g},"
                f"{t['kl_coeff']:.9g},{t['score']:.9g},{t['status']}\n"
            )
    return ranked
