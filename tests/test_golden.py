"""Golden artifacts: short training runs and the oracle rows, pinned by sha1.

The hashes were captured with numpy 2.4.6 and OpenBLAS 0.3.31.  A refactor
that claims to keep behaviour must keep every hash; a change that alters a
trajectory on purpose re-captures them and says so.  C9 only compares
repeats of one build, so it cannot see drift from one version to the next.
The DDPG eval-return and `verify` hashes were re-captured when the action
derivative pass moved from einsum to matrix products, which reorders float
sums: two eval returns moved in the 16th digit and one printed `verify`
value in its 9th.  The eval-return hash was re-captured again when the
critic's linear output layer was folded into the derivative pass of the
tanh layer where the action enters (G and H of the output are now two
matrix products over that layer's width, another reordering of float sums):
the step-300 eval return moved from 0.32285277852179506 to
0.32285277852179528.  No other hash moved.  The summary.csv, search.csv and `dump_config` hashes were
captured before the experiment layer came to derive its columns and value
parsers from declarations.  The `dump_config` hash was re-captured when the
`phi_optimizer` and `track_behavior_density` fields were deleted: the new
text is the old text minus the lines that set those two keys, six of each.
The three log hashes, both summary.csv hashes and the `dump_config` hash
were re-captured when the `wallclock` field and its always-zero `ms`
columns were deleted.  Each new text is the old one with the `ms` field
dropped from the header and from every row (the log's last field, the
summary's fifth), or, for `dump_config`, minus its six `wallclock = false`
lines; a script that applies that transformation to the old output
reproduces the new bytes exactly.  No value in any row moved.  The
`dump_config` hash was re-captured once more when the `q_grad_clip` and
`buffer_capacity` fields, which every config set to 4.0 and 100000, became
the constants `smoothie.Q_GRAD_CLIP` and `replay.CAPACITY`: the new text is
the old text minus its `q_grad_clip = 4.0` and `buffer_capacity = 100000`
lines, six of each.

The smoothie_kl/pointmass case at the default batch of 128 (the other log
cases run at 32) also pins the final critic and mean-net parameter bytes,
since a change of rounding can move the parameters and still leave a short
log's nine printed digits alone.  It was captured at commit 1f807fd.

Each parametrized case carries a fixed id, so that re-capturing a hash does
not rename the test.  The ids of the log and summary.csv cases keep the
hashes those cases were first captured with; the hash a case checks is its
`want`.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from smoothie_rl import verify
from smoothie_rl.harness import (
    ALGORITHMS,
    ENVIRONMENTS,
    TRAINERS,
    default_run_config,
    dump_config,
    make_env,
    random_search,
    run,
)


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def _sha1_bytes(array: np.ndarray) -> str:
    return hashlib.sha1(array.tobytes()).hexdigest()


def _trained(algorithm, environment, **overrides):
    cfg = replace(default_run_config(algorithm, environment).trainer, seed=0, **overrides)
    trainer = TRAINERS[algorithm](make_env(environment), cfg)
    trainer.train()
    return trainer


@pytest.mark.parametrize(
    "algorithm,environment,overrides,want",
    [
        pytest.param(
            "smoothie", "bumps",
            dict(total_steps=600, warmup_steps=200, batch_size=32, record_interval=50),
            "ed0f9bedaeea19f3de7724b8a34e469559d15442",
            id="smoothie-bumps-overrides0-9bba084b97864ac4ee604f0b3f46a4e92a280db1"),
        pytest.param(
            "smoothie_kl", "pointmass",
            dict(total_steps=400, batch_size=32, record_interval=50),
            "ec6e40f10649fadc4fb66d22fc1a1f24fda8a0c3",
            id="smoothie_kl-pointmass-overrides1-93dd8dfb5de79f224d35137e133016dcd0fb12f1"),
    ],
)
def test_smoothie_log_golden(algorithm, environment, overrides, want):
    assert _sha1(_trained(algorithm, environment, **overrides).log.to_string()) == want


def test_smoothie_kl_pointmass_golden_at_workload_batch():
    """At its default batch of 128, also the final critic and mean-net parameter bytes."""
    trainer = _trained("smoothie_kl", "pointmass", total_steps=300, record_interval=50)
    assert trainer.cfg.batch_size == 128
    assert _sha1(trainer.log.to_string()) == "e78f4b14aae1c66ca435b0e67f90d2ded71b7e62"
    assert _sha1_bytes(trainer.critic.params) == "5c861c3a2a55fba36dc3527ea431f2b4f125d7cb"
    assert _sha1_bytes(trainer.policy.mean_net.params) == "86778aca22c1bfe9b6d982aa7011457dd8cd78ed"


def test_ddpg_log_and_eval_returns_golden():
    trainer = _trained("ddpg", "bumps", total_steps=600, batch_size=32, record_interval=50,
                       eval_interval=100)
    assert _sha1(trainer.log.to_string()) == "10243168fa73cd12ec80b2dd6032a90bcea4087b"
    evals = "".join(f"{s},{v:.17g}\n" for s, v in trainer.eval_returns)
    assert _sha1(evals) == "f38162b18b3808332527b0e5344d16c4d87a1984"


def test_verify_rows_golden():
    rows = "".join(r.format_row() + "\n" for r in verify.default_suite(seed=0))
    assert _sha1(rows) == "5ae6b1ff19a58beea134cce577274e4ab0be1314"


def _tiny_bumps(algorithm, out_dir, seeds):
    cfg = default_run_config(algorithm, "bumps")
    cfg.trainer = replace(cfg.trainer, total_steps=150, warmup_steps=0, batch_size=32,
                          record_interval=50)
    return replace(cfg, seeds=seeds, out_dir=str(out_dir))


@pytest.mark.parametrize(
    "algorithm,want",
    [pytest.param("smoothie", "b058df6a9320122e094f3edacfb14f9facf493dc",
                  id="smoothie-809d734e141d63f7354b5b3eb45c3438032b510e"),
     pytest.param("ddpg", "1557fad95f7129c96e81ae7eb51e8742ae23a2dc",
                  id="ddpg-225d39b321eb61cca7ee2e52d7ad4509fb5b5445")],
)
def test_run_summary_golden(tmp_path, algorithm, want):
    result = run(_tiny_bumps(algorithm, tmp_path, (0, 1)))
    with open(result.summary_path) as fh:
        assert _sha1(fh.read()) == want


@pytest.mark.parametrize(
    "algorithm,want",
    [pytest.param("smoothie", "d42c507e4dfafbceeb947104b33463664ce28d4d",
                  id="smoothie-d42c507e4dfafbceeb947104b33463664ce28d4d"),
     pytest.param("ddpg", "65eb85fb1f3212a0e3f47fb9b52e5696a8b8ee05",
                  id="ddpg-65eb85fb1f3212a0e3f47fb9b52e5696a8b8ee05")],
)
def test_search_csv_golden(tmp_path, algorithm, want):
    base = _tiny_bumps(algorithm, tmp_path, (0,))
    random_search(base, 2, np.random.default_rng(0))
    with open(tmp_path / "search.csv") as fh:
        assert _sha1(fh.read()) == want


def test_dump_config_golden():
    text = "".join(dump_config(default_run_config(a, e)) for a in ALGORITHMS for e in ENVIRONMENTS)
    assert _sha1(text) == "731bc651e30488f460248aaea6056b6d530f7533"
