"""Config parsing, seeded runs and their artifacts, random search, CLI codes."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothie_rl import cli
from smoothie_rl import harness
from smoothie_rl.deriv_net import DivergenceError
from smoothie_rl.harness import (
    SEARCH_COLUMNS,
    SUMMARY_COLUMNS,
    ConfigError,
    RunConfig,
    SearchRow,
    SearchSpec,
    default_run_config,
    dump_config,
    parse_config,
    random_search,
    run,
    default_search_spec,
)
from smoothie_rl.smoothie import TrainLog

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
        "track_behavior_density = true\n"
    )
    cfg = parse_config(text)
    assert cfg.trainer.kl_coeff == pytest.approx(4e-3)
    assert cfg.seeds == (0, 1, 2)
    assert cfg.trainer.hidden == (16, 16)
    assert cfg.trainer.mu_init is None
    assert cfg.trainer.track_behavior_density is True


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
        (MINIMAL + "phi_optimizer = rmsprop\n", "adam or sgd"),
        (MINIMAL + "track_behavior_density = yes\n", "true or false"),
        (MINIMAL + "seeds = \n", "at least one"),
        (MINIMAL + "out_dir = \n", "empty"),
        (MINIMAL + "phi_lr = -1\n", "positive"),
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
    track=st.booleans(),
    mu_init=st.one_of(st.none(), st.floats(-5, 5, allow_nan=False)),
    phi_lr=st.one_of(st.none(), st.floats(1e-8, 1.0)),
)
def test_round_trip_randomized(gamma, actor_lr, hidden, track, mu_init, phi_lr):
    cfg = default_run_config("smoothie", "bumps")
    cfg.trainer.gamma = gamma
    cfg.trainer.actor_lr = actor_lr
    cfg.trainer.hidden = tuple(hidden)
    cfg.trainer.track_behavior_density = track
    cfg.trainer.mu_init = mu_init
    cfg.trainer.phi_lr = phi_lr
    again = parse_config(dump_config(cfg))
    assert again.trainer == cfg.trainer


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig("sac", "bumps").validate()
    with pytest.raises(ConfigError):
        RunConfig("smoothie", "mujoco").validate()
    with pytest.raises(ConfigError):
        RunConfig("smoothie", "bumps", seeds=()).validate()


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
        assert header == "step,return_mean,sigma_min,sigma_mean,sigma_max,kl,td_loss,ms"
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
        self.log.append(100, 0.5, 0.3, 0.3, 0.3, 0.0, 0.1, 0.0)
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


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchRow("actor_lr", "grid")
    with pytest.raises(ValueError):
        SearchRow("actor_lr", "log", 0.0, 1e-3)
    with pytest.raises(ValueError):
        SearchSpec(rows=(), trials=0)


def test_default_search_spec_contents():
    spec = default_search_spec(trials=7)
    assert spec.trials == 7
    by_name = {r.name: r for r in spec.rows}
    assert by_name["kl_coeff"].applies_to == ("smoothie_kl",)
    assert by_name["ou_stddev"].applies_to == ("ddpg",)
    assert by_name["gamma"].sampling == "fixed"
    assert by_name["gamma"].value == 0.995
    assert by_name["actor_lr"].low == 1e-6 and by_name["actor_lr"].high == 1e-3


def test_random_search_ranks_and_writes(tmp_path):
    base = _tiny_config(tmp_path)
    spec = SearchSpec(
        rows=(
            SearchRow("actor_lr", "log", 1e-5, 1e-4),
            SearchRow("gamma", "fixed", value=0.9),
        ),
        trials=3,
    )
    ranked = random_search(spec, base, np.random.default_rng(0))
    assert len(ranked) == 3
    scores = [t["score"] for t in ranked]
    assert scores == sorted(scores, reverse=True)
    assert all(1e-5 <= t["actor_lr"] <= 1e-4 for t in ranked)
    path = os.path.join(base.out_dir, "search.csv")
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == ",".join(SEARCH_COLUMNS)
    assert len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
    assert all(line.endswith(",ok") for line in lines[1:])


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
    spec = SearchSpec(rows=(SearchRow("actor_lr", "log", 1e-5, 1e-4),), trials=2)
    ranked = random_search(spec, base, np.random.default_rng(1))
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


def test_cli_landscape(tmp_path):
    code = cli.main(["landscape", "--out", str(tmp_path), "--points", "41", "--sigma", "1.0"])
    assert code == 0
    with open(tmp_path / "landscape.csv") as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "a,reward,smoothed"
    assert len(lines) == 42
    assert cli.main(["landscape", "--sigma", "-1"]) == cli.EXIT_CONFIG
