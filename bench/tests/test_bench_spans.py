"""The tracer sees every layer a training run calls and leaves its artifacts unchanged.

Run with ``python3 -m pytest -q bench/tests``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

CONFIG = """algorithm = {alg}
environment = {env}
seeds = 3
out_dir = {out}
total_steps = 300
warmup_steps = 100
batch_size = 32
record_interval = 50
eval_interval = 100
"""


@pytest.fixture
def restore_package():
    """fresh_import replaces the package's modules; put the originals back."""
    saved = {k: v for k, v in sys.modules.items() if k.startswith(workloads.PACKAGE)}
    yield
    for k in [k for k in sys.modules if k.startswith(workloads.PACKAGE)]:
        del sys.modules[k]
    sys.modules.update(saved)


def _train(tmp_path, tracer, alg, env):
    ctx = workloads.Context(seed=0, out_dir=tmp_path, tracer=tracer)
    ctx.trace(True)
    pkg = ctx.fresh_import()
    out = tmp_path / f"{alg}-{env}-{'traced' if tracer else 'plain'}"
    result = pkg.harness.run(pkg.harness.parse_config(CONFIG.format(alg=alg, env=env, out=out)))
    ctx.trace(False)
    return [Path(p).read_bytes() for p in (*result.csv_paths, result.summary_path)], ctx


@pytest.mark.parametrize("alg,env,idle", [
    ("smoothie_kl", "pointmass", {"ddpg.critic_update", "ddpg.actor_update", "ddpg.train"}),
    ("ddpg", "bumps", {"smoothie.act", "smoothie.critic_update", "smoothie.policy_update",
                       "smoothie.train", "replay.phantom_actions", "gauss_math.kl_terms"}),
])
def test_traced_run_writes_identical_csvs_and_counts_every_layer(tmp_path, restore_package,
                                                                 alg, env, idle):
    plain, _ = _train(tmp_path, None, alg, env)
    tracer = spans.Tracer()
    traced, ctx = _train(tmp_path, tracer, alg, env)
    assert traced == plain
    assert ctx.timers["train"] > 0.0 and ctx.timers["init"] > 0.0
    metrics = tracer.round_metrics()
    assert [m for m, _ in spans.metric_names()] == list(metrics)
    called = {layer for layer in spans.LAYERS if metrics[f"{layer}.calls"] > 0}
    assert called == set(spans.LAYERS) - idle
    assert metrics["harness.write.calls"] == 2  # the seed's CSV and summary.csv


def test_self_time_is_span_minus_child_spans(tmp_path, restore_package):
    tracer = spans.Tracer()
    _train(tmp_path, tracer, "smoothie", "bumps")
    out = tmp_path / "spans.npz"
    tracer.save(str(out))
    data = np.load(out)
    dur = data["end"] - data["start"]
    assert np.all(dur >= 0.0)
    train = list(data["layers"]).index("smoothie.train")
    (i,) = np.flatnonzero(data["layer"] == train)
    assert data["parent"][i] == -1
    children = dur[data["parent"] == i].sum()
    self_s = tracer.round_metrics()["smoothie.train.self_s"]
    assert 0.0 < self_s < dur[i]
    assert abs(dur[i] - children - self_s) < 1e-9
