"""The benchmark's workloads, each run as rounds of set-up, training and checks.

A round imports smoothie_rl afresh (numpy stays loaded), as a new process
would, so every round pays the package's import and set-up.  It then trains
through the package's public functions, writes its artifacts and checks the
program's outputs with ``checks``.  Round ``k`` of a run with ``--seed n``
trains seed ``1000 n + k``, so the seed fixes every input of the run.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import importlib
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from checks import Check

PACKAGE = "smoothie_rl"


@dataclass
class Round:
    """What one round measured: times in seconds, ops are seeds trained and checks."""

    setup_s: list[float]
    train_s: float
    steps: int
    run_s: float
    ops: list[Check]
    artifacts: list[Path]
    notes: list[str] = field(default_factory=list)


@dataclass
class Context:
    seed: int
    out_dir: Path
    tracer: object = None  # spans.Tracer in a traced run
    timers: dict = field(default_factory=dict)

    def training_seed(self, k: int) -> int:
        return 1000 * self.seed + k

    def seeds(self, k: int, n: int) -> list[np.random.SeedSequence]:
        return np.random.SeedSequence([self.seed, k]).spawn(n)

    def fresh_import(self, *extra: str):
        """Import the package afresh, then wrap it with the tracer and the timers."""
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        pkg = importlib.import_module(PACKAGE)
        for name in extra:
            importlib.import_module(f"{PACKAGE}.{name}")
        if self.tracer is not None:
            self.tracer.install(PACKAGE)
        self.timers = {"init": 0.0, "train": 0.0}
        for cls in (pkg.SmoothieTrainer, pkg.DdpgTrainer):
            self._time(cls, "__init__", "init")
            self._time(cls, "train", "train")
        return pkg

    def _time(self, cls, method: str, label: str) -> None:
        fn = getattr(cls, method)
        timers = self.timers

        def timed(*args, **kwargs):
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[label] += perf_counter() - t

        setattr(cls, method, timed)

    def trace(self, on: bool) -> None:
        """Record spans of the workload's own calls, never of the checks."""
        if self.tracer is not None:
            if on:
                self.tracer.begin_round()
            else:
                self.tracer.end_round()


def _config_text(algorithm: str, environment: str, seed: int, out_dir: Path) -> str:
    return (f"algorithm = {algorithm}\nenvironment = {environment}\n"
            f"seeds = {seed}\nout_dir = {out_dir}\n")


def _csv_column(path: Path, name: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def _trained(result, label: str) -> list[Check]:
    return [Check(f"train {label} seed {o.seed}", o.status == "ok", o.status) for o in result.outcomes]


# Each round sets up this many times and trains from the last set-up; the
# others rehearse it, so that set-up time is a median of several samples.
SETUPS_PER_ROUND = 4


def _harness_round(ctx: Context, k: int, environment: str, algorithms: tuple[str, ...]):
    """Parse each algorithm's generated config and run it through harness.run."""
    seed = ctx.training_seed(k)
    out = ctx.out_dir / f"round{k}"
    setups = []
    for i in range(SETUPS_PER_ROUND):
        last = i == SETUPS_PER_ROUND - 1
        gc.collect()  # the previous set-up's modules are cyclic garbage
        t0 = perf_counter()
        if last:
            ctx.trace(True)
        pkg = ctx.fresh_import()
        cfgs = [pkg.harness.parse_config(_config_text(alg, environment, seed, out / alg))
                for alg in algorithms]
        t_parsed = perf_counter()
        if last:
            results = [pkg.harness.run(cfg) for cfg in cfgs]
        else:
            for cfg in cfgs:
                trainer = pkg.DdpgTrainer if cfg.algorithm == "ddpg" else pkg.SmoothieTrainer
                trainer(pkg.harness.make_env(cfg.environment), replace(cfg.trainer, seed=seed))
        t_end = perf_counter()
        setups.append(t_parsed - t0 + ctx.timers["init"])
    ctx.trace(False)
    artifacts = [Path(p) for r in results for p in (*r.csv_paths, r.summary_path)]
    timing = dict(setup_s=setups, train_s=ctx.timers["train"],
                  steps=sum(cfg.trainer.total_steps * len(cfg.seeds) for cfg in cfgs),
                  run_s=t_end - t0, artifacts=artifacts)
    return pkg, cfgs, results, timing


def bumps_escape(ctx: Context, k: int) -> Round:
    """smoothie and ddpg on the two-bump bandit from the worse mode, default configs."""
    pkg, cfgs, (smooth, ddpg), timing = _harness_round(ctx, k, "bumps", ("smoothie", "ddpg"))
    ops = _trained(smooth, "smoothie") + _trained(ddpg, "ddpg")
    if not all(op.ok for op in ops):
        return Round(ops=ops, **timing)
    obs = np.zeros(1)
    sigma = _csv_column(Path(smooth.csv_paths[0]), "sigma_mean")
    mean = float(smooth.outcomes[0].trainer.policy.mean(obs)[0])
    ops += checks.check_bumps_seed(mean, sigma, float(ddpg.outcomes[0].trainer.actor.forward(obs)[0]))
    # Escape and sigma's rise hold on most seeds but not all, so they are reported, not gated.
    escape = checks.check_bumps_escape(mean)
    sigma0 = math.exp(0.5 * cfgs[0].trainer.phi_init)
    notes = [f"smoothie {'escaped' if escape.ok else 'did not escape'} to the better mode "
             f"({escape.detail}); not gated",
             f"smoothie sigma {'rose' if max(sigma) > sigma0 else 'did not rise'} above its "
             f"initial {sigma0:g} (peak {max(sigma):.4f}); not gated"]
    return Round(ops=ops, notes=notes, **timing)


def pointmass_kl(ctx: Context, k: int) -> Round:
    """smoothie_kl on PointMass; derivative identities checked on a replay batch."""
    pkg, (cfg,), (result,), timing = _harness_round(ctx, k, "pointmass", ("smoothie_kl",))
    ops = _trained(result, "smoothie_kl")
    if not ops[0].ok:
        return Round(ops=ops, **timing)
    trainer, tcfg = result.outcomes[0].trainer, cfg.trainer
    batch_rng, dir_rng = (np.random.default_rng(ss) for ss in ctx.seeds(k, 2))
    S = trainer.buffer.sample(tcfg.batch_size, batch_rng).S
    policy, critic = trainer.policy, trainer.critic

    def q(states, actions):
        return critic.forward(states, actions)[:, 0]

    mu = policy.mean(S)
    trip = critic.forward_with_action_derivs(S, mu)
    g_fd, h_fd = checks.fd_action_derivs(q, S, mu)
    ops += checks.check_action_derivs(
        trip.jacobian[:, 0, :], np.diagonal(trip.hessian[:, 0], axis1=1, axis2=2), g_fd, h_fd)

    dir_theta, dir_phi, *_ = pkg.smoothie.policy_ascent_directions(policy, critic, S, tcfg)
    ops.append(checks.check_phi_direction(dir_phi, h_fd, policy.log_var, policy.target_log_var,
                                          tcfg.kl_coeff))
    net = policy.mean_net.clone()
    mu_t = policy.target_mean(S)

    def objective_at(theta):
        net.set_params(theta)
        return checks.penalized_objective(q, net.forward, S, policy.log_var, mu_t,
                                          policy.target_log_var, tcfg.kl_coeff)

    v = dir_rng.standard_normal(net.n_params)
    ops.append(checks.check_theta_direction(dir_theta, objective_at, net.get_params(),
                                            v / np.linalg.norm(v)))
    ops.append(checks.check_kl_column(_csv_column(Path(result.csv_paths[0]), "kl")))
    return Round(ops=ops, **timing)


# C3's smoothed-policy evaluation on the two-state chain: (learning rate, steps,
# batch, averaged) stages, a step-down ladder with tail parameter averaging.
CHAIN_GAMMA, CHAIN_VAR, CHAIN_TAU = 0.4, 0.25, 0.01
CHAIN_STAGES = ((1e-3, 5000, 128, False), (2e-4, 4000, 128, False),
                (5e-5, 3000, 256, True), (2e-5, 2000, 256, True))
CHAIN_MEANS = (0.5, -0.5)  # the policy means sit on the per-state reward peaks


def _chain_setup(ctx: Context, init_seed):
    """Import, then build the pinned policy, the 20 000-row buffer, the critic,
    its target copy and its Adam state."""
    pkg = ctx.fresh_import("verify")
    dn, smoothie, replay = pkg.deriv_net, pkg.smoothie, pkg.replay
    env = pkg.verify.TwoStateChain()
    phi = math.log(CHAIN_VAR)
    cfg = smoothie.TrainerConfig(batch_size=128, critic_lr=1e-3, gamma=CHAIN_GAMMA,
                                 reward_scale=1.0, hidden=(64, 64), huber_clip=10.0,
                                 tau=CHAIN_TAU, phi_init=phi)
    # mu(s) = 0.5 - s
    mean_net = dn.DerivNet(1, 0, [dn.Layer(np.array([[-1.0]]), np.array([0.5]), "identity")])
    policy = smoothie.SmoothiePolicy(mean_net, 1, phi_init=phi)
    buf = replay.ReplayBuffer(20_000)
    for s in (0, 1):
        for a in np.linspace(-3.0, 3.0, 10_000):
            s2 = (1 - s) if env.crosses(s, float(a)) else s
            buf.push(replay.Transition(np.array([float(s)]), np.array([float(a)]),
                                       float(env.reward_fn(s, a)), np.array([float(s2)]), False))
    critic = dn.critic_net(1, 1, cfg.hidden, np.random.default_rng(init_seed))
    return pkg, cfg, policy, buf, critic, critic.clone(), dn.AdamState.for_params(critic.n_params)


def chain_critic(ctx: Context, k: int) -> Round:
    """Critic-only smoothed-Bellman regression on a fixed buffer of exact chain transitions."""
    out = ctx.out_dir / f"round{k}"
    out.mkdir(parents=True, exist_ok=True)
    init_seed, sample_seed, phantom_seed = ctx.seeds(k, 3)
    setups = []
    for i in range(SETUPS_PER_ROUND):
        gc.collect()
        t0 = perf_counter()
        if i == SETUPS_PER_ROUND - 1:
            ctx.trace(True)
        pkg, cfg, policy, buf, critic, target, opt = _chain_setup(ctx, init_seed)
        setups.append(perf_counter() - t0)
    dn = pkg.deriv_net
    sample_rng, phantom_rng = np.random.default_rng(sample_seed), np.random.default_rng(phantom_seed)
    t_train = perf_counter()
    trained = Check("train chain critic", True, "ok")
    avg, n_avg = None, 0
    try:
        for lr, steps, batch_size, in_tail in CHAIN_STAGES:
            stage_cfg = replace(cfg, critic_lr=lr)
            for step in range(steps):
                batch = buf.sample(batch_size, sample_rng)
                pkg.smoothie.critic_update(critic, target, policy, batch, stage_cfg, opt, phantom_rng)
                target.set_params(dn.polyak_update(target.get_params(), critic.get_params(), CHAIN_TAU))
                if in_tail and step % 5 == 0:
                    p = critic.get_params()
                    avg = p if avg is None else avg + p
                    n_avg += 1
    except dn.DivergenceError as err:
        trained = Check("train chain critic", False, str(err))
    t_trained = perf_counter()
    if trained.ok:
        critic.set_params(avg / n_avg)
    path = out / "critic.params"
    dn.save_params(critic, path)
    t_end = perf_counter()
    ctx.trace(False)
    timing = dict(setup_s=setups, train_s=t_trained - t_train,
                  steps=sum(stage[1] for stage in CHAIN_STAGES), run_s=t_end - t0, artifacts=[path])
    if not trained.ok:
        return Round(ops=[trained], **timing)

    def critic_at(s, a):
        return float(critic.forward(np.array([float(s)]), np.array([a]))[0])

    ops = [trained, checks.check_chain_fixed_point(critic_at, CHAIN_MEANS, CHAIN_VAR, CHAIN_GAMMA)]
    c3 = checks.check_chain_critic(critic_at, CHAIN_MEANS, CHAIN_VAR, CHAIN_GAMMA)
    note = f"{c3.name}: {'within' if c3.ok else 'outside'} tolerance, {c3.detail}; not gated"
    return Round(ops=ops, notes=[note], **timing)


WORKLOADS = {
    "bumps-escape": bumps_escape,
    "pointmass-kl": pointmass_kl,
    "chain-critic": chain_critic,
}


def sha1(path: Path) -> str:
    return hashlib.sha1(path.read_bytes()).hexdigest()
