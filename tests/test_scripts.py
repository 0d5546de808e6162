"""The experiment scripts under scripts/ reject bad input the way the CLI does."""

import importlib.util
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
@pytest.mark.parametrize("seeds", ["x", "0,y", ""])
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
