"""Benchmark of smoothie-rl training, end to end and layer by layer.

    python3 bench/run.py --workload bumps-escape --seed 0 --seconds 45 --trace 0

Runs whole rounds of one workload (or ``all`` three in turn) until the next
round would end past ``--seconds``, checks every round's outputs, prints each
metric with its unit and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from spans around each layer's public
functions.  Artifacts and spans go under ``.bench_out/`` at the repository
root.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One thread in all: the hot path is Python overhead on 32- and 64-wide
# layers, far below the sizes at which BLAS would split work across threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (numpy must load after the thread limits above)
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = (("setup_s", "s"), ("train_steps_per_s", "steps/s"), ("run_s", "s"),
              ("peak_rss_mb", "MB"))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("bumps-escape", "pointmass-kl", "chain-critic", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _manifest(rounds, out_dir: Path, run_s: float) -> dict:
    files = {}
    for k, r in enumerate(rounds):
        for path in r.artifacts:
            files[f"round{k}/{path.relative_to(out_dir / f'round{k}').as_posix()}"] = workloads.sha1(path)
    return {"run_s": run_s, "files": files}


def _compare_with_other_mode(run_dir: Path, trace: int, mine: dict) -> list:
    """Compare artifacts and run_s with the same workload and seed in the other trace mode."""
    other_path = run_dir / f"trace{1 - trace}.json"
    (run_dir / f"trace{trace}.json").write_text(json.dumps(mine, indent=1))
    if not other_path.is_file():
        return []
    other = json.loads(other_path.read_text())
    common = sorted(set(mine["files"]) & set(other["files"]))
    differ = [f for f in common if mine["files"][f] != other["files"][f]]
    print(f"traced and untraced artifacts: {len(common) - len(differ)}/{len(common)} files identical")
    traced, plain = (mine, other) if trace else (other, mine)
    overhead = traced["run_s"] - plain["run_s"]
    print(f"tracing overhead: run_s {traced['run_s']:.3f} s traced vs {plain['run_s']:.3f} s "
          f"untraced, {overhead:+.3f} s ({100.0 * overhead / plain['run_s']:+.1f}%)")
    return [checks.Check("artifacts_identical_traced_and_untraced", bool(common) and not differ,
                         f"{len(common) - len(differ)}/{len(common)} files identical")]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    run_dir = OUT / name / f"seed{seed}"
    out_dir = run_dir / f"trace{trace}"
    tracer = spans.Tracer() if trace else None
    ctx = workloads.Context(seed=seed, out_dir=out_dir, tracer=tracer)
    round_fn = workloads.WORKLOADS[name]
    rounds = []
    t_start = perf_counter()
    while True:
        gc.collect()  # free the previous round's modules and trainers before measuring
        t = perf_counter()
        r = round_fn(ctx, len(rounds))
        rounds.append(r)
        failed = [op for op in r.ops if not op.ok]
        print(f"{name} round {len(rounds) - 1}: setup {statistics.median(r.setup_s):.4f} s, {r.steps} steps in "
              f"{r.train_s:.3f} s, run {r.run_s:.3f} s, {len(r.ops) - len(failed)}/{len(r.ops)} ops ok")
        for op in r.ops:
            print(f"  {'ok' if op.ok else 'FAILED'} {op.name}: {op.detail}")
        for note in r.notes:
            print(f"  {note}")
        if perf_counter() - t_start + (perf_counter() - t) > seconds:
            break

    run_s = statistics.median(r.run_s for r in rounds)
    ops = [op for r in rounds for op in r.ops]
    ops += _compare_with_other_mode(run_dir, trace, _manifest(rounds, out_dir, run_s))
    if trace:
        values = tracer.round_metrics()
        units = dict(spans.metric_names())
        tracer.save(str(run_dir / "spans.npz"))
    else:
        values = {
            "setup_s": statistics.median(t for r in rounds for t in r.setup_s),
            "train_steps_per_s": statistics.median(r.steps / r.train_s for r in rounds),
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for k, m in metrics.items():
        print(f"{name} {k} = {m['value']:.6g} {m['unit']}")
    n_failed = sum(not op.ok for op in ops)
    print(f"{name}: {len(rounds)} rounds, {len(ops)} operations attempted, {n_failed} failed")
    return {"correct": n_failed == 0, "attempted": len(ops), "failed": n_failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "smoothie_rl" / "__init__.py").is_file():
        print(f"bench: no smoothie_rl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = (("bumps-escape", "pointmass-kl", "chain-critic") if args.workload == "all"
             else (args.workload,))
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(results[name]))
    if len(names) > 1:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
