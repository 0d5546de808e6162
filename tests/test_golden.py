"""Golden artifacts: short training runs and the oracle rows, pinned by sha1.

The hashes were captured with numpy 2.4.6 and OpenBLAS 0.3.31.  A refactor
that claims to keep behaviour must keep every hash; a change that alters a
trajectory on purpose re-captures them and says so.  C9 only compares
repeats of one build, so it cannot see drift from one version to the next.
The DDPG eval-return and `verify` hashes were re-captured when the action
derivative pass moved from einsum to matrix products, which reorders float
sums: two eval returns moved in the 16th digit and one printed `verify`
value in its 9th.
"""

import hashlib
from dataclasses import replace

import pytest

from smoothie_rl import verify
from smoothie_rl.ddpg import DdpgTrainer
from smoothie_rl.harness import default_run_config, make_env
from smoothie_rl.smoothie import SmoothieTrainer


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def _trained(algorithm, environment, **overrides):
    cfg = replace(default_run_config(algorithm, environment).trainer, seed=0, **overrides)
    cls = DdpgTrainer if algorithm == "ddpg" else SmoothieTrainer
    trainer = cls(make_env(environment), cfg)
    trainer.train()
    return trainer


@pytest.mark.parametrize(
    "algorithm,environment,overrides,want",
    [
        ("smoothie", "bumps",
         dict(total_steps=600, warmup_steps=200, batch_size=32, record_interval=50),
         "9bba084b97864ac4ee604f0b3f46a4e92a280db1"),
        ("smoothie_kl", "pointmass",
         dict(total_steps=400, batch_size=32, record_interval=50),
         "93dd8dfb5de79f224d35137e133016dcd0fb12f1"),
    ],
)
def test_smoothie_log_golden(algorithm, environment, overrides, want):
    assert _sha1(_trained(algorithm, environment, **overrides).log.to_string()) == want


def test_ddpg_log_and_eval_returns_golden():
    trainer = _trained("ddpg", "bumps", total_steps=600, batch_size=32, record_interval=50,
                       eval_interval=100)
    assert _sha1(trainer.log.to_string()) == "edbe4635157c69a7399c2e2ff239521a2439a309"
    evals = "".join(f"{s},{v:.17g}\n" for s, v in trainer.eval_returns)
    assert _sha1(evals) == "79723e165a331ba3d54c06113138b764a10f7c4b"


def test_verify_rows_golden():
    rows = "".join(r.format_row() + "\n" for r in verify.default_suite(seed=0))
    assert _sha1(rows) == "5ae6b1ff19a58beea134cce577274e4ab0be1314"
