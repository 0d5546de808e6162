"""Config parsing, seeded runs and their artifacts, random search, CLI codes."""

import csv
import os
from dataclasses import replace
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothie_rl import cli
from smoothie_rl import harness
from smoothie_rl.deriv_net import DivergenceError
from smoothie_rl.harness import (
    ALGORITHMS,
    SEARCH_TABLE,
    SUMMARY_COLUMNS,
    ConfigError,
    RunConfig,
    default_run_config,
    dump_config,
    make_env,
    parse_config,
    random_search,
    run,
)
from smoothie_rl.smoothie import TrainerConfig, TrainLog

MINIMAL = "algorithm = smoothie\nenvironment = bumps\n"


def _tiny_config(tmp_path, algorithm="smoothie", **overrides):
    cfg = default_run_config(algorithm, "bumps")
    cfg.out_dir = str(tmp_path / "out")
    cfg.seeds = (0,)
    cfg.trainer.total_steps = 150
    cfg.trainer.warmup_steps = 0
    cfg.trainer.batch_size = 32
    cfg.trainer.record_interval = 50
    for k, v in overrides.items():
        setattr(cfg.trainer, k, v)
    return cfg


# ------------------------------------------------------------------- parsing


def test_parse_minimal_applies_tuned_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.algorithm == "smoothie"
    assert cfg.environment == "bumps"
    assert cfg.seeds == (0,)
    ref = default_run_config("smoothie", "bumps")
    assert cfg.trainer == ref.trainer


def test_parse_comments_blanks_and_overrides():
    text = (
        "# experiment\n"
        "algorithm = smoothie_kl\n"
        "\n"
        "environment = pointmass\n"
        "kl_coeff = 0.004  # stronger pull\n"
        "seeds = 0, 1, 2\n"
        "hidden = 16,16\n"
        "mu_init = none\n"
    )
    cfg = parse_config(text)
    assert cfg.trainer.kl_coeff == pytest.approx(4e-3)
    assert cfg.seeds == (0, 1, 2)
    assert cfg.trainer.hidden == (16, 16)
    assert cfg.trainer.mu_init is None


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("environment = bumps\n", "algorithm"),
        ("algorithm = smoothie\n", "environment"),
        ("algorithm = sac\nenvironment = bumps\n", "unknown algorithm"),
        ("algorithm = smoothie\nenvironment = cartpole\n", "unknown environment"),
        (MINIMAL + "gamma = 1.5\n", "line 3"),
        (MINIMAL + "lr = 0.1\n", "unknown key"),
        (MINIMAL + "gamma = 0.9\ngamma = 0.8\n", "duplicate key"),
        (MINIMAL + "just a line\n", "key = value"),
        (MINIMAL + "batch_size = 12.5\n", "integer"),
        (MINIMAL + "hidden = 64\n", "two positive widths"),
        (MINIMAL + "phi_optimizer = adam\n", "line 3: unknown key"),
        (MINIMAL + "track_behavior_density = false\n", "line 3: unknown key"),
        (MINIMAL + "wallclock = true\n", "line 3: unknown key"),
        (MINIMAL + "q_grad_clip = 4.0\n", "line 3: unknown key"),
        (MINIMAL + "buffer_capacity = 100000\n", "line 3: unknown key"),
        (MINIMAL + "batch_size = 100001\n", "line 3: batch_size must lie in [1, 100000]"),
        (MINIMAL + "seeds = \n", "at least one"),
        (MINIMAL + "seeds = 1, 1\n", "line 3: seeds repeats seed 1"),
        (MINIMAL + "out_dir = \n", "empty"),
        (MINIMAL + "phi_lr = -1\n", "positive"),
        (MINIMAL + "phi_init = nan\n", "line 3"),
        (MINIMAL + "mu_init = inf\n", "line 3"),
    ],
)
def test_parse_errors_carry_context(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_duplicate_error_names_both_lines():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "gamma = 0.9\ngamma = 0.8\n")
    msg = str(err.value)
    assert "line 4" in msg and "line 3" in msg


def test_optional_floats_parse_none_and_values():
    cfg = parse_config(MINIMAL + "phi_lr = none\nmu_init = -1.0\n")
    assert cfg.trainer.phi_lr is None
    assert cfg.trainer.mu_init == -1.0


def test_dump_parse_round_trip():
    cfg = default_run_config("smoothie_kl", "pointmass")
    cfg.seeds = (3, 4)
    cfg.out_dir = "elsewhere"
    text = dump_config(cfg)
    again = parse_config(text)
    assert again.algorithm == cfg.algorithm
    assert again.environment == cfg.environment
    assert again.seeds == cfg.seeds
    assert again.out_dir == cfg.out_dir
    assert again.trainer == cfg.trainer


@settings(max_examples=25, deadline=None)
@given(
    gamma=st.floats(0.0, 0.99),
    actor_lr=st.floats(1e-8, 1.0),
    hidden=st.lists(st.integers(1, 128), min_size=2, max_size=4),
    mu_init=st.one_of(st.none(), st.floats(-5, 5, allow_nan=False)),
    phi_lr=st.one_of(st.none(), st.floats(1e-8, 1.0)),
)
def test_round_trip_randomized(gamma, actor_lr, hidden, mu_init, phi_lr):
    cfg = default_run_config("smoothie", "bumps")
    cfg.trainer.gamma = gamma
    cfg.trainer.actor_lr = actor_lr
    cfg.trainer.hidden = tuple(hidden)
    cfg.trainer.mu_init = mu_init
    cfg.trainer.phi_lr = phi_lr
    again = parse_config(dump_config(cfg))
    assert again.trainer == cfg.trainer


def _other_value(value, hint):
    """A valid value of a field of type ``hint`` that differs from ``value``."""
    if hint is bool:
        return not value
    if hint is int:
        return value + 1
    if hint is float:
        return value / 2 if value else 0.5
    if hint == float | None:
        return 0.25 if value is None else None
    if hint == tuple[int, ...]:
        return value + (7,)
    raise AssertionError(f"no test value for field type {hint}")


def test_every_field_type_parses_and_round_trips():
    """Each field's declared type has a parser and each parser a field type, and
    a value differing from the tuned baseline survives dump_config/parse_config
    (``seed`` comes from seeds)."""
    hints = get_type_hints(TrainerConfig)
    assert set(hints.values()) == set(harness._PARSERS)
    cfg = default_run_config("smoothie", "bumps")
    for name, hint in hints.items():
        if name != "seed":
            setattr(cfg.trainer, name, _other_value(getattr(cfg.trainer, name), hint))
    again = parse_config(dump_config(cfg))
    for name in hints:
        assert getattr(again.trainer, name) == getattr(cfg.trainer, name), name


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig("sac", "bumps").validate()
    with pytest.raises(ConfigError):
        RunConfig("smoothie", "mujoco").validate()
    with pytest.raises(ConfigError):
        RunConfig("smoothie", "bumps", seeds=()).validate()
    with pytest.raises(ConfigError):
        make_env("cartpole")


# ---------------------------------------------------------------------- runs


def test_run_writes_artifacts(tmp_path):
    cfg = _tiny_config(tmp_path)
    cfg.seeds = (0, 1)
    result = run(cfg)
    assert result.exit_code == 0
    assert [os.path.basename(p) for p in result.csv_paths] == [
        "smoothie_bumps_seed0.csv",
        "smoothie_bumps_seed1.csv",
    ]
    for p in result.csv_paths:
        with open(p) as fh:
            header = fh.readline().strip()
        assert header == "step,return_mean,sigma_min,sigma_mean,sigma_max,kl,td_loss"
    with open(result.summary_path) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    assert len(lines) == 3
    assert lines[1].startswith("0,") and lines[2].startswith("1,")
    assert all(line.endswith(",ok") for line in lines[1:])
    assert result.outcomes[0].final_return == pytest.approx(
        result.outcomes[0].log.column("return_mean")[-1]
    )


def test_run_byte_identical_across_repeats(tmp_path):
    blobs = []
    for name in ("a", "b"):
        cfg = _tiny_config(tmp_path)
        cfg.out_dir = str(tmp_path / name)
        result = run(cfg)
        with open(result.csv_paths[0], "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


class _FakeDivergingTrainer:
    def __init__(self):
        self.log = TrainLog()

    def train(self):
        self.log.append(100, 0.5, 0.3, 0.3, 0.3, 0.0, 0.1)
        err = DivergenceError("synthetic blowup")
        err.partial_log = self.log
        raise err


def test_run_reports_divergence(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_build_trainer", lambda cfg, seed: _FakeDivergingTrainer())
    cfg = _tiny_config(tmp_path)
    result = run(cfg)
    assert result.exit_code == 3
    assert result.outcomes[0].status == "diverged"
    with open(result.summary_path) as fh:
        assert fh.read().strip().endswith("diverged")
    # the partial log still lands on disk
    with open(result.csv_paths[0]) as fh:
        assert len(fh.read().strip().split("\n")) == 2


# -------------------------------------------------------------------- search


def _search_table_problems(table):
    """Each way an entry of a search table fails to fit TrainerConfig's
    declared fields or the algorithm table, as one message per fault."""
    problems = []
    for name, entry in table.items():
        hint = harness._FIELD_TYPES.get(name)
        if hint is None:
            problems.append(f"{name!r} names no TrainerConfig field that a config file sets")
            continue
        types_ = get_args(hint) if isinstance(hint, UnionType) else (get_origin(hint) or hint,)
        takes = harness._PARSERS[hint][1]
        if entry[0] == "log":
            _, low, high, algorithms = entry
            if float not in types_:
                problems.append(f"{name!r} is sampled as a float, but {name} takes {takes}")
            if not 0.0 < low <= high:
                problems.append(f"{name!r} has log range [{low}, {high}], not positive and ordered")
            problems.extend(f"{name!r} lists unknown algorithm {a!r}"
                            for a in algorithms if a not in ALGORITHMS)
        elif entry[0] == "fixed":
            if type(entry[1]) not in types_:
                problems.append(f"{name!r} fixes {entry[1]!r}, but {name} takes {takes}")
        else:
            problems.append(f"{name!r} has kind {entry[0]!r}, not log or fixed")
    return problems


def test_search_spec_validation():
    """Every SEARCH_TABLE entry names a config field; log entries are float
    fields with 0 < low <= high and known algorithms; fixed values have their
    field's declared type."""
    assert _search_table_problems(SEARCH_TABLE) == []


@pytest.mark.parametrize(
    "entry,fragment",
    [
        pytest.param({"no_such_field": ("log", 1e-3, 1e-2, ALGORITHMS)},
                     "names no TrainerConfig field", id="log-no_such_field"),
        pytest.param({"seed": ("fixed", 1)}, "names no TrainerConfig field", id="fixed-seed"),
        pytest.param({"batch_size": ("log", 1e-3, 1e-2, ALGORITHMS)}, "takes an integer",
                     id="log-batch_size"),
        pytest.param({"actor_lr": ("log", 0.0, 1e-3, ALGORITHMS)}, "not positive and ordered",
                     id="log-zero-low"),
        pytest.param({"actor_lr": ("log", 1e-3, 1e-4, ALGORITHMS)}, "not positive and ordered",
                     id="log-reversed"),
        pytest.param({"kl_coeff": ("log", 1e-6, 1e-2, ("sac",))}, "unknown algorithm 'sac'",
                     id="log-unknown-algorithm"),
        pytest.param({"freeze_sigma": ("fixed", 1.0)}, "takes true or false", id="fixed-freeze_sigma"),
        pytest.param({"hidden": ("fixed", 1.0)}, "takes comma-separated integers", id="fixed-hidden"),
        pytest.param({"batch_size": ("fixed", 128.0)}, "takes an integer", id="fixed-float-batch_size"),
        pytest.param({"gamma": ("fixed", True)}, "takes a number", id="fixed-bool-gamma"),
        pytest.param({"actor_lr": ("grid", 1e-3)}, "not log or fixed", id="grid"),
    ],
)
def test_search_table_check_flags_bad_entries(entry, fragment):
    """The table check above finds each kind of bad entry, once."""
    problems = _search_table_problems(entry)
    assert len(problems) == 1 and fragment in problems[0]
    assert repr(next(iter(entry))) in problems[0]


def test_default_search_spec_contents():
    assert SEARCH_TABLE["kl_coeff"] == ("log", 1e-6, 4e-2, ("smoothie_kl",))
    assert SEARCH_TABLE["ou_stddev"][3] == ("ddpg",)
    assert SEARCH_TABLE["actor_lr"] == ("log", 1e-6, 1e-3, ALGORITHMS)
    assert SEARCH_TABLE["gamma"] == ("fixed", 0.995)
    assert SEARCH_TABLE["batch_size"] == ("fixed", 128)


_SEARCH_COLUMNS = "actor_lr,critic_lr,reward_scale,ou_damping,ou_stddev,kl_coeff"


def test_random_search_ranks_and_writes(tmp_path):
    base = _tiny_config(tmp_path)
    ranked = random_search(base, 3, np.random.default_rng(0))
    assert len(ranked) == 3
    scores = [t["score"] for t in ranked]
    assert scores == sorted(scores, reverse=True)
    assert all(1e-6 <= t["actor_lr"] <= 1e-3 for t in ranked)
    path = os.path.join(base.out_dir, "search.csv")
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == f"rank,trial,{_SEARCH_COLUMNS},score,status"
    assert len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
    assert all(line.endswith(",ok") for line in lines[1:])


def test_random_search_records_every_log_row(tmp_path):
    """search.csv holds every log entry's field in table order: the sampled
    ones as drawn, the ones the algorithm does not sample at the base value."""
    base = _tiny_config(tmp_path, "smoothie_kl")
    ranked = random_search(base, 2, np.random.default_rng(0))
    with open(os.path.join(base.out_dir, "search.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["rank", "trial", *_SEARCH_COLUMNS.split(","), "score", "status"]
    for name in _SEARCH_COLUMNS.split(","):
        values = [float(r[name]) for r in rows]
        assert values == [float(f"{t[name]:.9g}") for t in ranked]
        _, low, high, algorithms = SEARCH_TABLE[name]
        if "smoothie_kl" in algorithms:
            assert all(low <= v <= high for v in values) and values[0] != values[1]
        else:
            assert values == [getattr(base.trainer, name)] * 2


def test_random_search_fixed_rows_convert_by_field_type(tmp_path, monkeypatch):
    """A trial takes each fixed entry's value as it is, of its field's type."""
    seen = []

    def record(cfg, seed):
        seen.append(cfg.trainer)
        return _FakeDivergingTrainer()

    monkeypatch.setattr(harness, "_build_trainer", record)
    base = default_run_config("smoothie", "pointmass")
    base.out_dir, base.seeds = str(tmp_path / "out"), (0,)
    random_search(base, 1, np.random.default_rng(0))
    fixed = {name: entry[1] for name, entry in SEARCH_TABLE.items() if entry[0] == "fixed"}
    assert {name: getattr(seen[0], name) for name in fixed} == fixed
    assert type(seen[0].batch_size) is int and seen[0].phi_lr is None


def test_random_search_nan_scores_sort_last(tmp_path, monkeypatch):
    calls = {"n": 0}
    real_build = harness._build_trainer

    def sometimes_diverge(cfg, seed):
        calls["n"] += 1
        if calls["n"] == 1:
            return _FakeDivergingTrainer()
        return real_build(cfg, seed)

    monkeypatch.setattr(harness, "_build_trainer", sometimes_diverge)
    base = _tiny_config(tmp_path)
    ranked = random_search(base, 2, np.random.default_rng(1))
    assert ranked[-1]["status"] == "diverged"
    assert np.isnan(ranked[-1]["score"])
    assert ranked[0]["status"] == "ok"


# ----------------------------------------------------------------------- CLI


def _write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_cli_train_ok(tmp_path, capsys):
    path = _write_config(
        tmp_path,
        MINIMAL + "total_steps = 150\nwarmup_steps = 0\nbatch_size = 32\nrecord_interval = 50\n",
    )
    code = cli.main(["train", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "seed 0: status=ok" in out
    assert (tmp_path / "out" / "smoothie_bumps_seed0.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()


def test_cli_train_seed_override(tmp_path):
    path = _write_config(
        tmp_path,
        MINIMAL + "total_steps = 150\nwarmup_steps = 0\nbatch_size = 32\nrecord_interval = 50\n",
    )
    code = cli.main(["train", "--config", path, "--seed", "7", "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "smoothie_bumps_seed7.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train"],  # no config at all
        ["train", "--config", "/nonexistent/path.cfg"],
    ],
)
def test_cli_train_config_errors(argv, tmp_path):
    assert cli.main(argv) == cli.EXIT_CONFIG


def test_cli_train_bad_seed_and_bad_content(tmp_path):
    path = _write_config(tmp_path, MINIMAL + "gamma = 2.0\n")
    assert cli.main(["train", "--config", path]) == cli.EXIT_CONFIG
    good = _write_config(tmp_path, MINIMAL)
    assert cli.main(["train", "--config", good, "--seed", "x,y"]) == cli.EXIT_CONFIG
    for command in ("train", "search"):
        assert cli.main([command, "--config", good, "--out", ""]) == cli.EXIT_CONFIG
    oversized = _write_config(tmp_path, MINIMAL + "batch_size = 100001\n")
    out = str(tmp_path / "out")
    for command in ("train", "search"):
        assert cli.main([command, "--config", oversized, "--out", out]) == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "search"])
def test_cli_rejects_a_run_that_can_never_log_a_row(command, tmp_path, capsys):
    """total_steps below record_interval would write a header-only log and nan returns."""
    path = _write_config(tmp_path, MINIMAL + "total_steps = 50\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "total_steps 50 is below record_interval 100" in capsys.readouterr().err
    assert not out.exists()
    cfg = default_run_config("smoothie", "bumps")
    cfg.trainer.total_steps, cfg.trainer.record_interval = 99, 100
    with pytest.raises(ConfigError, match="would never log a row"):
        cfg.validate()
    cfg.trainer.total_steps = 100
    cfg.validate()


def test_cli_train_divergence_exit(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_build_trainer", lambda cfg, seed: _FakeDivergingTrainer())
    path = _write_config(tmp_path, MINIMAL + "total_steps = 150\nbatch_size = 32\n")
    code = cli.main(["train", "--config", path, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DIVERGED


def test_cli_verify_exit_codes(monkeypatch, capsys):
    from smoothie_rl.verify import OracleReport

    passing = [OracleReport("alpha", 0.0, 0.0, 1e-4, True, 1)]
    monkeypatch.setattr(cli, "default_suite", lambda seed: passing)
    assert cli.main(["verify"]) == cli.EXIT_OK
    assert "alpha,0,0,0.0001,true" in capsys.readouterr().out

    failing = passing + [OracleReport("beta", 1.0, 1.0, 1e-4, False, 1)]
    monkeypatch.setattr(cli, "default_suite", lambda seed: failing)
    assert cli.main(["verify"]) == cli.EXIT_VERIFY


def test_cli_search_ok(tmp_path, monkeypatch):
    path = _write_config(
        tmp_path,
        MINIMAL + "total_steps = 120\nwarmup_steps = 0\nbatch_size = 32\nrecord_interval = 40\n",
    )
    code = cli.main(["search", "--config", path, "--trials", "2", "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "search.csv").exists()


def test_cli_search_rejects_zero_trials(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "_build_trainer", lambda cfg, seed: _FakeDivergingTrainer())
    path = _write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert cli.main(["search", "--config", path, "--trials", "0", "--out", str(out)]) == cli.EXIT_CONFIG
    assert "trial count must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "search"])
def test_cli_rejects_a_repeated_seed(command, tmp_path, monkeypatch, capsys):
    """A repeated --seed would train one seed twice into the same log file."""
    monkeypatch.setattr(harness, "_build_trainer", lambda cfg, seed: _FakeDivergingTrainer())
    path = _write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert cli.main([command, "--config", path, "--seed", "1,2,1", "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: --seed repeats seed 1\n"
    assert not out.exists()


@pytest.mark.parametrize("call", [run, lambda cfg: random_search(cfg, 1, np.random.default_rng(0))],
                         ids=["run", "random_search"])
def test_repeated_seed_rejected_before_any_write(call, tmp_path, monkeypatch):
    """A RunConfig built in code gets the same repeated-seed check as parsed seeds."""
    monkeypatch.setattr(harness, "_build_trainer", lambda cfg, seed: _FakeDivergingTrainer())
    cfg = replace(default_run_config("smoothie", "bumps"), seeds=(0, 1, 0),
                  out_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="^seeds repeats seed 0$"):
        call(cfg)
    assert not (tmp_path / "out").exists()


def test_cli_landscape(tmp_path, monkeypatch, capsys):
    code = cli.main(["landscape", "--out", str(tmp_path), "--points", "41", "--sigma", "1.0"])
    assert code == 0
    with open(tmp_path / "landscape.csv") as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "a,reward,smoothed"
    assert len(lines) == 42
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    for bad, err in ((["--sigma", "-1"], "--sigma must be positive"),
                     (["--out", ""], "--out must not be empty"),
                     (["--points", "0"], "--points must be at least 1")):
        assert cli.main(["landscape", *bad]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {err}\n"
    assert not (tmp_path / "runs").exists()
