"""End-to-end acceptance battery.

One test per claim, executed at full strength; each prints a single
PASS/FAIL verdict line with its measured numbers (run with ``-s`` or
``-rA`` to see them on success) and enforces its own wall-clock budget.
The battery is deterministic: fixed seeds everywhere, no wallclock
telemetry in compared artifacts.
"""

import copy
import time
from dataclasses import replace

import numpy as np

from smoothie_rl.ddpg import DdpgTrainer, actor_ascent_direction
from smoothie_rl.deriv_net import AdamState, DerivNet, Layer, actor_net, adam_step, critic_net
from smoothie_rl.envs import BumpsBandit
from smoothie_rl.gauss_math import kl_terms
from smoothie_rl.harness import default_run_config, make_env, run
from smoothie_rl.replay import ReplayBuffer, Transition
from smoothie_rl.smoothie import (
    SmoothiePolicy,
    SmoothieTrainer,
    TrainerConfig,
    critic_update,
    policy_ascent_directions,
    policy_update,
)
from smoothie_rl.verify import (
    TwoStateChain,
    chain_smoothed_q_oracle,
    check_grad_hessian_fd,
    compatible_critic_check,
    derivative_bellman_report,
    theorem1_report,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ------------------------------------------------------------- criterion 1


def test_c1_covariance_gradient_identity():
    t0 = time.perf_counter()
    report = theorem1_report(n_samples=50, tol=1e-4, seed=0, order=64)
    elapsed = time.perf_counter() - t0
    ok = report.passed and report.max_abs < 1e-4 and elapsed < 5.0
    _verdict("C1 covariance-gradient identity",
             ok, f"worst {report.max_abs:.3g} over 50 pairs, {elapsed:.1f}s")


# ------------------------------------------------------------- criterion 2


def test_c2_derivative_propagation():
    t0 = time.perf_counter()
    net = critic_net(4, 2, (64, 64), np.random.default_rng(0))
    jac, hess = check_grad_hessian_fd(net, n_trials=100, seed=0, jac_tol=1e-5, hess_tol=1e-4)
    elapsed = time.perf_counter() - t0
    ok = jac.passed and hess.passed and elapsed < 10.0
    _verdict("C2 derivative propagation vs FD",
             ok, f"jac rel {jac.max_rel:.3g}, hess rel {hess.max_rel:.3g}, {elapsed:.1f}s")


# ------------------------------------------------------------- criterion 3


def _train_chain_critic():
    """Smoothed-Bellman evaluation study on the two-state chain.

    Exact dynamics: the behavior data is a dense uniform action grid with
    rewards and transitions computed exactly.  The policy means sit on the
    per-state reward peaks; the learned-variance machinery is exercised
    through the same critic_update used in training, on a step-down
    learning-rate ladder with tail parameter averaging over the low-rate
    stages to kill the residual optimization noise.
    """
    gamma, var = 0.4, 0.25
    env = TwoStateChain()
    cfg = TrainerConfig(batch_size=128, critic_lr=1e-3, gamma=gamma, reward_scale=1.0,
                        hidden=(64, 64), huber_clip=10.0, tau=0.01,
                        phi_init=float(np.log(var)))
    # linear mean net pinned to the reward peaks: mu(s) = 0.5 - s
    mean_net = DerivNet(1, 0, [Layer(np.array([[-1.0]]), np.array([0.5]), "identity")])
    policy = SmoothiePolicy(mean_net, 1, phi_init=float(np.log(var)))
    buf = ReplayBuffer(20_000)
    grid = np.linspace(-3.0, 3.0, 10_000)
    for s in (0, 1):
        for a in grid:
            s2 = (1 - s) if env.crosses(s, float(a)) else s
            buf.push(Transition(np.array([float(s)]), np.array([float(a)]),
                                float(env.reward_fn(s, a)), np.array([float(s2)]), False))
    critic = critic_net(1, 1, (64, 64), np.random.default_rng(21))
    target = critic.clone()
    opt = AdamState.for_params(critic.n_params)
    prng = np.random.default_rng(22)
    srng = np.random.default_rng(23)
    stages = ((1e-3, 5000, 128, False), (2e-4, 4000, 128, False),
              (5e-5, 3000, 256, True), (2e-5, 2000, 256, True))
    avg, n_avg = None, 0
    for lr, steps, B, in_tail in stages:
        stage_cfg = replace(cfg, critic_lr=lr)
        for step in range(steps):
            batch = buf.sample(B, srng)
            critic_update(critic, target, policy, batch, stage_cfg, opt, prng)
            target.set_params((1 - cfg.tau) * target.get_params() + cfg.tau * critic.get_params())
            if in_tail and step % 5 == 0:
                p = critic.get_params()
                avg = p.copy() if avg is None else avg + p
                n_avg += 1
    critic.set_params(avg / n_avg)
    return critic, np.array([0.5, -0.5]), var, gamma


def test_c3_smoothed_bellman_fixed_point():
    t0 = time.perf_counter()
    critic, mu, var, gamma = _train_chain_critic()
    oracle = chain_smoothed_q_oracle(mu, var, gamma)
    worst = 0.0
    for s in (0, 1):
        for a in np.linspace(-1.5, 1.5, 10):
            got = float(critic.forward(np.array([float(s)]), np.array([a]))[0])
            worst = max(worst, abs(got - oracle(s, float(a))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-2 and elapsed < 60.0
    _verdict("C3 smoothed Bellman fixed point",
             ok, f"worst {worst:.4f} at 20 probes, {elapsed:.0f}s")


# ------------------------------------------------------------- criterion 4


def test_c4_derivative_bellman_residuals():
    t0 = time.perf_counter()
    reports = derivative_bellman_report(variance=0.36, n_points=7, tol=1e-5)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_abs for r in reports)
    ok = all(r.passed for r in reports) and elapsed < 5.0
    _verdict("C4 derivative Bellman residuals k=0,1,2",
             ok, f"worst {worst:.2g}, {elapsed:.1f}s")


# ------------------------------------------------------------- criterion 5


def test_c5_two_bump_escape_vs_baseline():
    t0 = time.perf_counter()
    ref_obs = np.zeros(1)

    smoothie_cfg = default_run_config("smoothie", "bumps").trainer
    sigma0 = float(np.exp(0.5 * smoothie_cfg.phi_init))
    mu_hits = 0
    sigma_rises = 0
    sigma_ends_low = 0
    for seed in range(5):
        trainer = SmoothieTrainer(BumpsBandit(), replace(smoothie_cfg, seed=seed))
        log = trainer.train()
        final_mu = float(trainer.policy.mean(ref_obs)[0])
        trace = log.column("sigma_mean")
        if abs(final_mu - 1.0) < 0.1:
            mu_hits += 1
        if max(trace) > sigma0:
            sigma_rises += 1
        if trace[-1] < 0.2:
            sigma_ends_low += 1

    ddpg_cfg = default_run_config("ddpg", "bumps").trainer
    ddpg_stuck = 0
    for seed in range(5):
        trainer = DdpgTrainer(BumpsBandit(), replace(ddpg_cfg, seed=seed))
        trainer.train()
        final_mu = float(trainer.actor.forward(ref_obs)[0])
        if abs(final_mu - (-1.0)) < 0.2:
            ddpg_stuck += 1

    elapsed = time.perf_counter() - t0
    ok = (mu_hits >= 4 and sigma_rises >= 3 and sigma_ends_low == 5
          and ddpg_stuck >= 4 and elapsed < 120.0)
    _verdict(
        "C5 two-bump escape vs baseline",
        ok,
        f"mean at better mode {mu_hits}/5, sigma rise {sigma_rises}/5, "
        f"sigma ends <0.2 {sigma_ends_low}/5, baseline stuck {ddpg_stuck}/5, {elapsed:.0f}s",
    )


# ------------------------------------------------------------- criterion 6


def test_c6_deterministic_limit_equivalence():
    rng = np.random.default_rng(7)
    critic = critic_net(1, 1, (32, 32), rng)
    batch = [
        Transition(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1),
                   float(rng.uniform(-1, 1)), rng.uniform(-1, 1, 1), False)
        for _ in range(128)
    ]
    S = np.stack([t.state for t in batch])
    layers = [
        Layer(rng.normal(scale=0.5, size=(16, 1)), rng.normal(scale=0.1, size=16), "tanh"),
        Layer(rng.normal(scale=0.5, size=(1, 16)), rng.normal(scale=0.1, size=1), "identity"),
    ]
    base = DerivNet(1, 0, layers)

    policy = SmoothiePolicy(base.clone(), 1, phi_init=-40.0)
    cfg = TrainerConfig(actor_lr=1e-4, kl_coeff=0.0, freeze_sigma=True)
    dir_theta, _, _, _, _ = policy_ascent_directions(policy, critic, S, cfg)
    dir_ddpg = actor_ascent_direction(base.clone(), critic, S)

    stepped_smoothie = adam_step(policy.mean_net.get_params(), -dir_theta, cfg.actor_lr,
                                 AdamState.for_params(base.n_params))
    stepped_ddpg = adam_step(base.get_params(), -dir_ddpg, cfg.actor_lr,
                             AdamState.for_params(base.n_params))
    denom = max(float(np.max(np.abs(stepped_ddpg))), 1e-300)
    rel = float(np.max(np.abs(stepped_smoothie - stepped_ddpg))) / denom
    dir_denom = max(float(np.max(np.abs(dir_ddpg))), 1e-300)
    dir_rel = float(np.max(np.abs(dir_theta - dir_ddpg))) / dir_denom
    ok = rel < 1e-6 and dir_rel < 1e-6
    _verdict("C6 deterministic-limit equivalence",
             ok, f"direction rel {dir_rel:.2g}, stepped-params rel {rel:.2g}")


# ------------------------------------------------------------- criterion 7


def test_c7a_kl_penalty_monotone_on_fixed_batches():
    cfg = replace(default_run_config("smoothie", "bumps").trainer,
                  warmup_steps=0, total_steps=800, seed=0)
    trainer = SmoothieTrainer(BumpsBandit(), cfg)
    trainer.train()
    rng = np.random.default_rng(123)
    worst_jump = -np.inf
    for _ in range(3):
        batch = trainer.buffer.sample(cfg.batch_size, rng)
        S = batch.S
        kls = []
        for lam in (0.0, 1e-4, 1e-2):
            policy = copy.deepcopy(trainer.policy)
            lam_cfg = replace(cfg, kl_coeff=lam)
            policy_update(policy, trainer.critic, batch, lam_cfg,
                          AdamState.for_params(policy.mean_net.n_params), AdamState.for_params(1))
            kls.append(float(np.mean(kl_terms(policy.mean(S), policy.log_var,
                                              policy.target_mean(S), policy.target_log_var))))
        worst_jump = max(worst_jump, kls[1] - kls[0], kls[2] - kls[1])
    ok = worst_jump <= 1e-12
    _verdict("C7a post-update KL non-increasing in coefficient",
             ok, f"largest increase {worst_jump:.3g}")


def test_c7b_kl_penalty_shrinks_seed_variance():
    t0 = time.perf_counter()
    finals = {}
    for algorithm in ("smoothie", "smoothie_kl"):
        cfg = default_run_config(algorithm, "pointmass")
        vals = []
        for seed in range(5):
            trainer = SmoothieTrainer(make_env("pointmass"), replace(cfg.trainer, seed=seed))
            log = trainer.train()
            vals.append(log.column("return_mean")[-1])
        finals[algorithm] = np.array(vals)
    var_plain = float(np.var(finals["smoothie"]))
    var_kl = float(np.var(finals["smoothie_kl"]))
    elapsed = time.perf_counter() - t0
    ok = var_kl <= var_plain
    _verdict("C7b KL penalty shrinks across-seed variance",
             ok, f"var {var_kl:.3g} (kl) vs {var_plain:.3g} (plain), {elapsed:.0f}s")


# ------------------------------------------------------------- criterion 8


def test_c8_compatibility_conditions():
    rng = np.random.default_rng(0)
    mean_net = actor_net(3, 2, (16, 16), rng)
    states = rng.uniform(-1.0, 1.0, size=(5, 3))
    w_mean = rng.standard_normal(mean_net.n_params)
    w_cov = rng.standard_normal(2)
    g_rep, h_rep = compatible_critic_check(
        mean_net, np.array([-1.0, -0.5]), states, 0.3, w_mean, w_cov, tol=1e-12
    )
    ok = g_rep.passed and g_rep.max_abs < 1e-12 and h_rep.passed
    _verdict("C8 compatible-parameterization conditions",
             ok, f"grad residual {g_rep.max_abs:.2g}, hessian residual {h_rep.max_abs:.2g}")


# ------------------------------------------------------------- criterion 9


def test_c9_train_determinism(tmp_path):
    t0 = time.perf_counter()
    identical = True
    for algorithm, environment in (("smoothie", "bumps"), ("ddpg", "bumps"),
                                   ("smoothie_kl", "pointmass")):
        blobs = []
        for attempt in ("a", "b"):
            cfg = default_run_config(algorithm, environment)
            cfg.trainer.total_steps = 300
            cfg.trainer.warmup_steps = min(cfg.trainer.warmup_steps, 100)
            cfg.trainer.batch_size = 32
            cfg.trainer.record_interval = 50
            cfg.seeds = (0,)
            cfg.out_dir = str(tmp_path / f"{algorithm}_{environment}_{attempt}")
            result = run(cfg)
            parts = []
            for path in list(result.csv_paths) + [result.summary_path]:
                with open(path, "rb") as fh:
                    parts.append(fh.read())
            blobs.append(b"".join(parts))
        identical = identical and blobs[0] == blobs[1]
    elapsed = time.perf_counter() - t0
    _verdict("C9 byte-identical training artifacts",
             identical, f"3 algorithm/environment pairs, {elapsed:.0f}s")
