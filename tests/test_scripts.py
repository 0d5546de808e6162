"""The experiment scripts under scripts/ reject bad input the way the CLI does."""

import importlib.util
from pathlib import Path

import pytest

from smoothie_rl import cli

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
