"""The experiment script under scripts/ rejects bad input the way the CLI does
and reports each environment's runs; the fingerprint script prints one line
per run."""

import importlib.util
import re
from pathlib import Path

import pytest

from smoothie_rl import cli, harness
from smoothie_rl.smoothie import TrainLog

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# One case per environment, named after the run on it: run_bumps, run_pointmass.
ENV_CASES = [pytest.param(env, id=f"run_{env}") for env in harness.ENVIRONMENTS]


@pytest.mark.parametrize("env", ENV_CASES)
@pytest.mark.parametrize("seeds", ["x", "0,y", "", "0,1,0"])
def test_bad_seeds_give_config_error(env, seeds, tmp_path, capsys):
    code = _load("experiment").main([env, "--seeds", seeds, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --seeds ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("env", ENV_CASES)
@pytest.mark.parametrize("algorithms", ["sac", "smoothie,sac", ""])
def test_unknown_algorithms_give_config_error(env, algorithms, tmp_path, capsys):
    code = _load("experiment").main([env, "--algorithms", algorithms, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --algorithms: unknown algorithm ")
    assert not (tmp_path / "out").exists()


def _no_training(cfg):
    raise AssertionError(f"trained into {cfg.out_dir!r}")


@pytest.mark.parametrize("env", ENV_CASES)
def test_empty_out_gives_config_error(env, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "run", _no_training)
    assert _load("experiment").main([env, "--out", "", "--seeds", "0"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --out must not be empty")
    assert not any(tmp_path.iterdir())


def test_unknown_environment_gives_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "run", _no_training)
    with pytest.raises(SystemExit) as exit_:
        _load("experiment").main(["cartpole", "--seeds", "0"])
    assert exit_.value.code == cli.EXIT_CONFIG
    assert "invalid choice: 'cartpole'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_run_bumps_stops_when_the_landscape_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "run", _no_training)
    monkeypatch.setattr(cli, "main", lambda argv: cli.EXIT_CONFIG)
    assert _load("experiment").main(["bumps", "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG


# Fixed (final_return, final_sigma_mean, status) of seeds 3 and 8, per algorithm.
_OUTCOMES = {"smoothie": [(1.0, 0.5, "ok"), (-2.0, 0.25, "ok")],
             "smoothie_kl": [(-10.0, 1.5, "ok"), (-30.0, 2.0, "diverged")],
             "ddpg": [(0.75, 0.0, "ok"), (0.25, 0.0, "ok")]}


@pytest.mark.parametrize("env,algorithms", [("bumps", ("smoothie", "ddpg")),
                                            ("pointmass", ("smoothie", "smoothie_kl"))])
def test_report_lists_each_seed_then_the_across_seed_summary(env, algorithms, tmp_path,
                                                             monkeypatch, capsys):
    """Per algorithm a row per seed, then the mean and std of the final return over seeds."""
    configs = []

    def fixed_run(cfg):
        configs.append(cfg)
        outcomes = [harness.SeedOutcome(seed, status, TrainLog(), None, ret, ret, sigma)
                    for seed, (ret, sigma, status) in zip(cfg.seeds, _OUTCOMES[cfg.algorithm])]
        code = 3 if any(o.status != "ok" for o in outcomes) else 0
        return harness.RunResult(code, outcomes, cfg.out_dir, [], "")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "run", fixed_run)
    code = _load("experiment").main([env, "--seeds", "3,8"])
    assert code == (3 if "smoothie_kl" in algorithms else 0)
    assert [(c.algorithm, c.environment, c.seeds, c.out_dir) for c in configs] == [
        (a, env, (3, 8), str(Path("runs", env, a))) for a in algorithms]
    assert (tmp_path / "runs" / env / "landscape.csv").exists() == (env == "bumps")

    lines = capsys.readouterr().out.splitlines()
    for a in algorithms:
        at = lines.index(f"{a} on {env} (2 seeds):")
        assert lines[at + 1].split() == ["seed", "final_return", "final_sigma", "status"]
        rows = [line.split() for line in lines[at + 2:at + 4]]
        assert rows == [[str(seed), f"{ret:.4f}", f"{sigma:.4f}", status]
                        for seed, (ret, sigma, status) in zip((3, 8), _OUTCOMES[a])]
        assert lines[at + 4] == f"  logs: {Path('runs', env, a)}/"
    at = lines.index("across-seed summary (final training return, return_mean of the last log row):")
    summary = [line.split() for line in lines[at + 1:]]
    want = {"smoothie": ["-0.5000", "1.5000"], "smoothie_kl": ["-20.0000", "10.0000"],
            "ddpg": ["0.5000", "0.2500"]}
    assert summary == [["algorithm", "mean", "std"], *([a, *want[a]] for a in algorithms)]


def test_fingerprint_prints_one_line_per_run(capsys):
    """Each line names its run, its status and the hash of its log and of each
    learned array; a second run of the same builds prints the same text."""
    fingerprint = _load("fingerprint")
    argv = ["--seeds", "0,1", "--algorithms", "smoothie_kl,ddpg", "--steps", "150"]
    assert fingerprint.main(argv) == cli.EXIT_OK
    first = capsys.readouterr().out
    assert fingerprint.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    runs = [f"{a}/{e} seed={s}" for a in ("smoothie_kl", "ddpg") for e in harness.ENVIRONMENTS
            for s in (0, 1)]
    assert [line.split(" ok ")[0] for line in lines[:-1]] == runs
    names = {"smoothie_kl": ["log", "critic", "critic_target", "actor", "actor_target",
                             "log_var", "target_log_var"],
             "ddpg": ["log", "critic", "critic_target", "actor", "actor_target", "evals"]}
    for line in lines[:-1]:
        fields = [f.split("=") for f in line.split(" ok ")[1].split()]
        assert [name for name, _ in fields] == names[line.split("/")[0]]
        assert all(re.fullmatch(r"[0-9a-f]{16}", value) for _, value in fields)
    assert len({line.split(" ok ")[1] for line in lines[:-1]}) == len(runs)
    assert re.fullmatch(r"all=[0-9a-f]{16}", lines[-1])


@pytest.mark.parametrize("argv,err", [
    (["--steps", "0"], "config error: --steps must be >= 1"),
    (["--seeds", "x"], "config error: --seeds "),
    (["--algorithms", "sac"], "config error: --algorithms: unknown algorithm "),
    (["--seeds", "2,2"], "config error: --seeds repeats seed 2"),
])
def test_fingerprint_rejects_bad_input(argv, err, capsys):
    assert _load("fingerprint").main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(err) and captured.out == ""
