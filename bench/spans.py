"""Spans around the public functions of each smoothie_rl layer.

The tracer wraps functions from outside the package.  The trainers import
helpers such as ``adam_step`` by name, so a wrapped function is rebound under
every name any loaded ``smoothie_rl`` module holds it by, not only in its home
module; methods are wrapped on their class.  Spans (name, parent, start, end)
are kept in flat in-memory columns and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (layer metric, module, attribute): module-level functions.
FUNCTIONS = (
    ("replay.phantom_actions", "replay", "phantom_actions"),
    ("deriv_net.adam_step", "deriv_net", "adam_step"),
    ("deriv_net.params", "deriv_net", "polyak_update"),
    ("deriv_net.huber", "deriv_net", "huber"),
    ("gauss_math.kl_terms", "gauss_math", "kl_terms"),
    ("smoothie.critic_update", "smoothie", "critic_update"),
    ("smoothie.policy_update", "smoothie", "policy_update"),
    ("ddpg.critic_update", "ddpg", "ddpg_critic_update"),
    ("ddpg.actor_update", "ddpg", "ddpg_actor_update"),
    ("harness.parse_config", "harness", "parse_config"),
)

# (layer metric, module, class, method).
METHODS = (
    ("envs.step", "envs", "BumpsBandit", "step"),
    ("envs.step", "envs", "PointMass", "step"),
    ("replay.push", "replay", "ReplayBuffer", "push"),
    ("replay.sample", "replay", "ReplayBuffer", "sample"),
    ("deriv_net.forward", "deriv_net", "DerivNet", "forward"),
    ("deriv_net.forward_with_action_derivs", "deriv_net", "DerivNet", "forward_with_action_derivs"),
    ("deriv_net.params", "deriv_net", "DerivNet", "get_params"),
    ("deriv_net.params", "deriv_net", "DerivNet", "set_params"),
    ("smoothie.act", "smoothie", "SmoothiePolicy", "act"),
    ("smoothie.train", "smoothie", "SmoothieTrainer", "train"),
    ("ddpg.train", "ddpg", "DdpgTrainer", "train"),
    ("harness.write", "smoothie", "TrainLog", "to_csv"),
)

# The closure param_vjp returns, and the summary.csv that harness.run writes.
VJP = "deriv_net.vjp"
PARAM_VJP = "deriv_net.param_vjp"
WRITE = "harness.write"

# Layers that call other traced layers report self time (span minus child spans).
SELF_TIMED = frozenset({
    "smoothie.act", "smoothie.critic_update", "smoothie.policy_update", "smoothie.train",
    "ddpg.critic_update", "ddpg.actor_update", "ddpg.train",
})

LAYERS = (
    "envs.step", "replay.push", "replay.sample", "replay.phantom_actions",
    "deriv_net.forward", "deriv_net.forward_with_action_derivs", PARAM_VJP, VJP,
    "deriv_net.adam_step", "deriv_net.params", "deriv_net.huber",
    "smoothie.act", "smoothie.critic_update", "smoothie.policy_update", "smoothie.train",
    "ddpg.critic_update", "ddpg.actor_update", "ddpg.train",
    "gauss_math.kl_terms", "harness.parse_config", WRITE,
)


def metric_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count"))
        out.append((f"{layer}.self_s" if layer in SELF_TIMED else f"{layer}.s", "s"))
    return out


class Tracer:
    """In-memory span recorder with per-round call counts, busy and self time."""

    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.on = False
        self.rounds: list[list[list[float]]] = []
        self._acc = None  # per layer: [calls, busy, self]
        self._stack: list[list] = []  # [span index, child time]

    # ---------------------------------------------------------- recording

    def begin_round(self) -> None:
        self._acc = [[0, 0.0, 0.0] for _ in LAYERS]
        self.on = True

    def end_round(self) -> None:
        self.on = False
        self.rounds.append(self._acc)

    def _open(self, lid: int) -> None:
        i = len(self.start)
        self.layer.append(lid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([i, 0.0])
        self.start.append(perf_counter())

    def _close(self, lid: int) -> None:
        t = perf_counter()
        i, child = self._stack.pop()
        self.end[i] = t
        dur = t - self.start[i]
        acc = self._acc[lid]
        acc[0] += 1
        acc[1] += dur
        acc[2] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, layer: str, fn):
        lid = self.layer_ids[layer]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            self._open(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(lid)

        return traced

    # -------------------------------------------------------- installing

    def install(self, package: str = "smoothie_rl") -> None:
        """Wrap every traced function of the freshly imported package."""
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == package or name.startswith(package + "."))}

        def module(short):
            return mods[f"{package}.{short}"]

        for layer, mod, attr in FUNCTIONS:
            fn = getattr(module(mod), attr)
            wrapped = self.wrap(layer, fn)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
        for layer, mod, cls_name, meth in METHODS:
            cls = getattr(module(mod), cls_name)
            setattr(cls, meth, self.wrap(layer, getattr(cls, meth)))

        net_cls = module("deriv_net").DerivNet
        param_vjp = net_cls.param_vjp
        vjp_id = self.layer_ids[VJP]

        def param_vjp_traced(net, state, action):
            out, vjp = param_vjp(net, state, action)

            def vjp_traced(cotangent):
                if not self.on:
                    return vjp(cotangent)
                self._open(vjp_id)
                try:
                    return vjp(cotangent)
                finally:
                    self._close(vjp_id)

            return out, vjp_traced

        net_cls.param_vjp = self.wrap(PARAM_VJP, param_vjp_traced)
        module("harness").open = self._span_open(self.layer_ids[WRITE])

    def _span_open(self, lid: int):
        tracer = self

        class SpanFile:
            """A file opened for writing whose span runs from open to close."""

            def __init__(self, *args, **kwargs):
                self._traced = tracer.on
                if self._traced:
                    tracer._open(lid)
                try:
                    self._fh = open(*args, **kwargs)
                except BaseException:
                    if self._traced:
                        tracer._close(lid)
                    raise

            def write(self, text):
                return self._fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()
                if self._traced:
                    tracer._close(lid)

        return SpanFile

    # ------------------------------------------------------------ output

    def round_metrics(self) -> dict[str, float]:
        """Median over rounds of each layer's calls and busy or self time."""
        acc = np.median(np.array(self.rounds, dtype=float), axis=0)
        out = {}
        for layer, row in zip(LAYERS, acc):
            out[f"{layer}.calls"] = float(row[0])
            if layer in SELF_TIMED:
                out[f"{layer}.self_s"] = float(row[2])
            else:
                out[f"{layer}.s"] = float(row[1])
        return out

    def save(self, path: str) -> None:
        """Write the spans: layer names, and per span its layer, parent, start and end."""
        n = len(self.layer)
        np.savez(
            path,
            layers=np.array(LAYERS),
            layer=np.frombuffer(self.layer, dtype=np.int32)[:n],
            parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
            start=np.frombuffer(self.start, dtype=np.float64)[:n],
            end=np.frombuffer(self.end, dtype=np.float64)[:n],
        )
