"""The experiment scripts under scripts/ reject bad input the way the CLI does,
and the fingerprint script prints one line per run."""

import importlib.util
import re
from pathlib import Path

import pytest

from smoothie_rl import cli, harness

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script", ["run_bumps", "run_pointmass"])
@pytest.mark.parametrize("seeds", ["x", "0,y", "", "0,1,0"])
def test_bad_seeds_give_config_error(script, seeds, tmp_path, capsys):
    code = _load(script).main(["--seeds", seeds, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --seeds ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("script", ["run_bumps", "run_pointmass"])
@pytest.mark.parametrize("algorithms", ["sac", "smoothie,sac", ""])
def test_unknown_algorithms_give_config_error(script, algorithms, tmp_path, capsys):
    code = _load(script).main(["--algorithms", algorithms, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --algorithms: unknown algorithm ")
    assert not (tmp_path / "out").exists()


def _no_training(cfg):
    raise AssertionError(f"trained into {cfg.out_dir!r}")


@pytest.mark.parametrize("script", ["run_bumps", "run_pointmass"])
def test_empty_out_gives_config_error(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "run", _no_training)
    assert _load(script).main(["--out", "", "--seeds", "0"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --out must not be empty")
    assert not any(tmp_path.iterdir())


def test_run_bumps_stops_when_the_landscape_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "run", _no_training)
    monkeypatch.setattr(cli, "main", lambda argv: cli.EXIT_CONFIG)
    assert _load("run_bumps").main(["--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG


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
