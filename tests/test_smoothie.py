"""Trainer internals: config validation, telemetry, policy updates, and the
phantom-regression fixed point on a one-step task."""

import ast
import copy
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import smoothie_rl
from smoothie_rl import harness
from smoothie_rl.deriv_net import AdamState, DerivNet, DivergenceError, Layer, critic_net
from smoothie_rl.envs import BumpsBandit, StepResult
from smoothie_rl.gauss_math import gh_quadrature, kl_terms
from smoothie_rl.replay import CAPACITY, ReplayBuffer, Transition
from smoothie_rl.smoothie import (
    VAR_MAX,
    SmoothiePolicy,
    SmoothieTrainer,
    Trainer,
    TrainLog,
    TrainerConfig,
    critic_targets,
    critic_update,
    policy_ascent_directions,
    policy_update,
    shift_output_bias,
)


def _policy(seed=0, phi_init=-1.0, state_dim=1, action_dim=1):
    rng = np.random.default_rng(seed)
    layers = [
        Layer(rng.normal(scale=0.5, size=(8, state_dim)), rng.normal(scale=0.1, size=8), "tanh"),
        Layer(rng.normal(scale=0.5, size=(action_dim, 8)), rng.normal(scale=0.1, size=action_dim), "identity"),
    ]
    return SmoothiePolicy(DerivNet(state_dim, 0, layers), action_dim, phi_init=phi_init)


def _batch(rng, n=16, state_dim=1, action_dim=1, done=False):
    """A Batch of n random transitions; every row shares ``done``."""
    buf = ReplayBuffer(n)
    for _ in range(n):
        buf.push(
            Transition(
                state=rng.uniform(-1, 1, state_dim),
                action=rng.uniform(-1, 1, action_dim),
                reward=float(rng.uniform(-1, 1)),
                next_state=rng.uniform(-1, 1, state_dim),
                done=done,
            )
        )
    return buf.gather(np.arange(n))


# ------------------------------------------------------------------- config


@pytest.mark.parametrize(
    "overrides",
    [
        {"gamma": 1.0},
        {"gamma": -0.1},
        {"tau": 0.0},
        {"tau": 1.5},
        {"actor_lr": 0.0},
        {"critic_lr": -1.0},
        {"reward_scale": 0.0},
        {"huber_clip": 0.0},
        {"phi_lr": 0.0},
        {"batch_size": 0},
        {"total_steps": 0},
        {"kl_coeff": float("nan")},
        {"record_interval": 0},
        {"eval_interval": 0},
        {"ou_stddev": 0.0},
        {"kl_coeff": -1e-6},
        {"warmup_steps": -1},
        {"gamma": float("nan")},
        {"actor_lr": float("nan")},
        {"ou_damping": 0.0},
        {"hidden": (8,)},
        {"hidden": (0, 4)},
        {"phi_init": float("nan")},
        {"mu_init": float("inf")},
        {"batch_size": 100_001},  # more than the replay ring holds
    ],
)
def test_config_rejects_bad_values(overrides):
    cfg = TrainerConfig(**overrides)
    with pytest.raises(ValueError):
        cfg.validate()


def test_config_defaults_validate():
    TrainerConfig().validate()
    TrainerConfig(phi_lr=None, mu_init=None).validate()
    TrainerConfig(batch_size=CAPACITY).validate()


def test_every_config_field_is_read():
    """A field that only the config itself reads is an option that changes nothing."""
    src = Path(smoothie_rl.__file__).parent
    read = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        config_class = [n for n in ast.walk(tree)
                        if isinstance(n, ast.ClassDef) and n.name == "TrainerConfig"]
        inside = {id(n) for c in config_class for n in ast.walk(c)}
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                 and id(n) not in inside}
    unread = [f.name for f in fields(TrainerConfig) if f.name not in read]
    assert unread == []


# ----------------------------------------------------------------- train log


def test_log_rejects_nonmonotonic_steps():
    log = TrainLog()
    log.append(100, 1, 0.5, 0.5, 0.5, 0, 0.1)
    with pytest.raises(ValueError):
        log.append(100, 1, 0.5, 0.5, 0.5, 0, 0.1)
    with pytest.raises(ValueError):
        log.append(50, 1, 0.5, 0.5, 0.5, 0, 0.1)
    # one value per column after step, no fewer and no more
    with pytest.raises(ValueError, match="takes 6 values"):
        log.append(200, 1, 0.5, 0.5, 0.5, 0)
    with pytest.raises(ValueError, match="takes 6 values"):
        log.append(200, 1, 0.5, 0.5, 0.5, 0, 0.1, 0)
    assert len(log.rows) == 1


def test_log_rejects_nonfinite():
    log = TrainLog()
    with pytest.raises(DivergenceError, match="at step 1$"):
        log.append(1, np.nan, 0.5, 0.5, 0.5, 0, 0.1)
    with pytest.raises(DivergenceError, match="at step 1$"):
        log.append(1, 1.0, 0.5, 0.5, 0.5, 0, np.inf)
    assert log.rows == []


def test_log_format_and_columns():
    log = TrainLog()
    log.append(100, 0.123456789123, 0.5, 0.6, 0.7, 0.0, 0.25)
    log.append(200, 1.0, 0.5, 0.6, 0.7, 1e-12, 0.25)
    text = log.to_string()
    lines = text.strip().split("\n")
    assert lines[0] == "step,return_mean,sigma_min,sigma_mean,sigma_max,kl,td_loss"
    # %.9g trims trailing zeros and caps significant digits
    assert lines[1] == "100,0.123456789,0.5,0.6,0.7,0,0.25"
    assert lines[2] == "200,1,0.5,0.6,0.7,1e-12,0.25"
    assert log.column("sigma_mean") == [0.6, 0.6]
    assert log.column("step") == [100, 200]


# -------------------------------------------------------------------- policy


def test_act_is_mean_plus_sigma_times_normal_draw():
    policy = _policy(seed=1, phi_init=-0.7, state_dim=2, action_dim=3)
    state = np.array([0.3, -0.4])
    a = policy.act(state, np.random.default_rng(5))
    z = np.random.default_rng(5).standard_normal(3)
    np.testing.assert_array_equal(a, policy.mean_net.forward(state) + policy.sigma * z)


def test_sigma_variance_consistency():
    policy = _policy(phi_init=-0.5)
    assert policy.variance == pytest.approx(np.exp(-0.5))
    assert policy.sigma == pytest.approx(np.exp(-0.25))


def test_policy_rejects_width_mismatch():
    rng = np.random.default_rng(0)
    layers = [Layer(rng.normal(size=(2, 1)), np.zeros(2), "identity")]
    with pytest.raises(ValueError):
        SmoothiePolicy(DerivNet(1, 0, layers), action_dim=1)


def test_variance_clamp():
    policy = _policy()
    policy.log_var = np.array([50.0])
    policy.clamp_variance()
    assert policy.log_var[0] == pytest.approx(np.log(VAR_MAX))


def test_polyak_targets_blend():
    policy = _policy(seed=2)
    old_target = policy.target_mean_net.get_params().copy()
    new_online = old_target + 1.0
    policy.mean_net.set_params(new_online)
    policy.log_var = policy.target_log_var + 2.0
    policy.polyak_targets(0.25)
    np.testing.assert_allclose(
        policy.target_mean_net.get_params(), 0.75 * old_target + 0.25 * new_online, atol=1e-13
    )
    np.testing.assert_allclose(policy.target_log_var, policy.log_var - 1.5, atol=1e-13)


def test_shift_output_bias_hits_target():
    policy = _policy(seed=3)
    ref = np.array([0.2])
    shift_output_bias(policy.mean_net, ref, np.array([-1.0]))
    assert policy.mean_net.forward(ref)[0] == pytest.approx(-1.0, abs=1e-12)


# ------------------------------------------------------------ critic targets


def test_critic_targets_masking_and_discount():
    rng = np.random.default_rng(7)
    policy = _policy(seed=7)
    critic_t = critic_net(1, 1, (8, 8), rng)
    cfg = TrainerConfig(gamma=0.9)
    batch = _batch(rng, n=6)
    batch.D[[2, 5]] = 1.0
    y = critic_targets(critic_t, policy.target_mean_net, batch, cfg)
    _, _, R, S2, D = batch
    mu2 = policy.target_mean(S2)
    q2 = critic_t.forward(S2, mu2)[:, 0]
    np.testing.assert_allclose(y, R + 0.9 * (1.0 - D) * q2, atol=1e-14)
    assert y[2] == pytest.approx(R[2])
    assert y[5] == pytest.approx(R[5])


def _no_forward(*args, **kwargs):
    raise AssertionError("a target net ran on an all-terminal batch")


def test_critic_targets_all_terminal_batch_is_the_reward():
    rng = np.random.default_rng(8)
    policy = _policy(seed=8)
    critic_t = critic_net(1, 1, (8, 8), rng)
    batch = _batch(rng, n=6, done=True)
    policy.target_mean_net.forward = _no_forward
    critic_t.forward = _no_forward
    y = critic_targets(critic_t, policy.target_mean_net, batch, TrainerConfig(gamma=0.9))
    np.testing.assert_array_equal(y, batch.R)


# --------------------------------------------------------------- critic step


def test_critic_update_moves_params():
    rng = np.random.default_rng(11)
    policy = _policy(seed=11)
    critic = critic_net(1, 1, (8, 8), rng)
    target = critic.clone()
    opt = AdamState.for_params(critic.n_params)
    batch = _batch(rng, n=32)
    before = critic.get_params().copy()
    loss = critic_update(critic, target, policy, batch, TrainerConfig(), opt, rng)
    assert np.isfinite(loss) and loss > 0.0
    assert np.any(critic.get_params() != before)
    # target net untouched by the online step
    np.testing.assert_array_equal(target.get_params(), before)


def test_phantom_regression_learns_smoothed_reward():
    """One-step task: the phantom-resampled regression converges to the
    Gaussian-smoothed reward, not the raw one.

    Uniform behavior actions make the phantom posterior a clean Gaussian
    around the query point, so the learned surface should track quadrature
    smoothing at the policy variance.  Tolerance reflects the SGD noise
    floor plus boundary truncation at this budget.
    """
    env = BumpsBandit()
    var = 0.36
    rng = np.random.default_rng(0)
    policy = _policy(seed=0, phi_init=float(np.log(var)))
    pool = ReplayBuffer(4000)
    for a in rng.uniform(-2.0, 2.0, size=4000):
        pool.push(
            Transition(
                state=np.zeros(1),
                action=np.array([a]),
                reward=float(env.reward_fn(a)),
                next_state=np.zeros(1),
                done=True,
            )
        )
    cfg = TrainerConfig(critic_lr=2e-3, batch_size=64, hidden=(32, 32), huber_clip=10.0)
    critic = critic_net(1, 1, (32, 32), np.random.default_rng(1))
    target = critic.clone()
    opt = AdamState.for_params(critic.n_params)
    srng = np.random.default_rng(2)
    for _ in range(3000):
        idx = srng.integers(0, len(pool), size=64)
        critic_update(critic, target, policy, pool.gather(idx), cfg, opt, srng)
    probes = np.linspace(-1.2, 1.2, 9)
    worst = 0.0
    for a in probes:
        got = float(critic.forward(np.zeros(1), np.array([a]))[0])
        want = gh_quadrature(env.reward_fn, float(a), var, 64)
        worst = max(worst, abs(got - want))
    assert worst < 0.12
    # at the valley midpoint the smoothed and raw targets are far apart;
    # the fit must side with the smoothed one
    mid = float(critic.forward(np.zeros(1), np.zeros(1))[0])
    smoothed_mid = gh_quadrature(env.reward_fn, 0.0, var, 64)
    raw_mid = float(env.reward_fn(0.0))
    assert abs(mid - smoothed_mid) < abs(mid - raw_mid)


# ------------------------------------------------------------- policy update


def test_phi_direction_is_half_hessian_times_variance():
    rng = np.random.default_rng(13)
    policy = _policy(seed=13, phi_init=-0.3)
    critic = critic_net(1, 1, (8, 8), rng)
    S = rng.uniform(-1, 1, size=(12, 1))
    _, dir_phi, _, h_diag, kl_mean = policy_ascent_directions(
        policy, critic, S, TrainerConfig(kl_coeff=0.0)
    )
    trip = critic.forward_with_action_derivs(S, policy.mean(S))
    h_ref = np.diagonal(trip.hessian[:, 0, :, :], axis1=1, axis2=2)
    np.testing.assert_allclose(dir_phi, 0.5 * np.mean(h_ref, axis=0) * policy.variance, atol=1e-14)
    ref_kl = float(np.mean(kl_terms(policy.mean(S), policy.log_var,
                                    policy.target_mean(S), policy.target_log_var)))
    assert kl_mean == pytest.approx(ref_kl, abs=1e-14)


def test_theta_direction_matches_fd_of_mean_objective():
    """dir_theta is the parameter gradient of (1/B) sum_b Q(s_b, mu(s_b))."""
    rng = np.random.default_rng(17)
    policy = _policy(seed=17)
    critic = critic_net(1, 1, (8, 8), rng)
    S = rng.uniform(-1, 1, size=(6, 1))
    dir_theta, _, _, _, _ = policy_ascent_directions(policy, critic, S, TrainerConfig())

    def objective(flat):
        net = policy.mean_net.clone()
        net.set_params(flat)
        mu = net.forward(S)
        return float(np.mean(critic.forward(S, mu)[:, 0]))

    theta = policy.mean_net.get_params()
    for i in rng.choice(theta.size, size=10, replace=False):
        h = 1e-6 * max(1.0, abs(theta[i]))
        tp = theta.copy(); tp[i] += h
        tm = theta.copy(); tm[i] -= h
        fd = (objective(tp) - objective(tm)) / (2.0 * h)
        assert dir_theta[i] == pytest.approx(fd, abs=1e-6 + 1e-4 * abs(fd))


def test_kl_pull_vanishes_at_target():
    """With the online policy equal to its target, the penalty gradient is
    zero and the directions are independent of the coefficient."""
    rng = np.random.default_rng(19)
    policy = _policy(seed=19)
    critic = critic_net(1, 1, (8, 8), rng)
    S = rng.uniform(-1, 1, size=(10, 1))
    d0_theta, d0_phi, _, _, kl0 = policy_ascent_directions(policy, critic, S, TrainerConfig(kl_coeff=0.0))
    d1_theta, d1_phi, _, _, _ = policy_ascent_directions(policy, critic, S, TrainerConfig(kl_coeff=10.0))
    np.testing.assert_allclose(d0_theta, d1_theta, atol=1e-14)
    np.testing.assert_allclose(d0_phi, d1_phi, atol=1e-14)
    assert kl0 == pytest.approx(0.0, abs=1e-14)


def test_post_update_kl_nonincreasing_in_coefficient():
    rng = np.random.default_rng(23)
    base = _policy(seed=23, phi_init=-0.6)
    # push the online policy away from its target so the penalty has a job
    base.mean_net.set_params(base.mean_net.get_params() + 0.05 * rng.standard_normal(base.mean_net.n_params))
    base.log_var = base.log_var + 0.4
    critic = critic_net(1, 1, (8, 8), rng)
    batch = _batch(rng, n=32)
    S = batch.S
    kls = []
    for lam in (0.0, 1e-4, 1e-2):
        policy = copy.deepcopy(base)
        cfg = TrainerConfig(kl_coeff=lam, actor_lr=1e-2, phi_lr=1e-2)
        policy_update(policy, critic, batch, cfg,
                      AdamState.for_params(policy.mean_net.n_params), AdamState.for_params(1))
        kls.append(float(np.mean(kl_terms(policy.mean(S), policy.log_var,
                                          policy.target_mean(S), policy.target_log_var))))
    assert kls[1] <= kls[0] + 1e-9
    assert kls[2] <= kls[1] + 1e-9


@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_policy_update_without_the_kl_value_steps_the_same(lam):
    """want_kl=False skips only the logged KL value: with or without the penalty,
    the mean parameters and log variance step bit for bit as with want_kl=True."""
    rng = np.random.default_rng(37)
    base = _policy(seed=37, phi_init=-0.6, state_dim=2, action_dim=2)
    base.mean_net.set_params(base.mean_net.get_params() + 0.05 * rng.standard_normal(base.mean_net.n_params))
    base.log_var = base.log_var + np.array([0.3, -0.2])
    critic = critic_net(2, 2, (8, 8), rng)
    batch = _batch(rng, n=16, state_dim=2, action_dim=2)
    cfg = TrainerConfig(kl_coeff=lam, actor_lr=1e-2, phi_lr=1e-2)
    results = []
    for want_kl in (True, False):
        policy = copy.deepcopy(base)
        kl = policy_update(policy, critic, batch, cfg, AdamState.for_params(policy.mean_net.n_params),
                           AdamState.for_params(2), want_kl=want_kl)
        results.append((kl, policy.mean_net.params.tobytes(), policy.log_var.tobytes()))
    (kl_on, theta_on, phi_on), (kl_off, theta_off, phi_off) = results
    assert kl_off is None and kl_on > 0.0
    assert theta_off == theta_on and phi_off == phi_on
    assert theta_on != base.mean_net.params.tobytes()


def test_freeze_sigma_keeps_log_var():
    rng = np.random.default_rng(31)
    policy = _policy(seed=31)
    critic = critic_net(1, 1, (8, 8), rng)
    batch = _batch(rng, n=16)
    old_phi = policy.log_var.copy()
    old_theta = policy.mean_net.get_params().copy()
    policy_update(policy, critic, batch, TrainerConfig(freeze_sigma=True),
                  AdamState.for_params(policy.mean_net.n_params), AdamState.for_params(1))
    np.testing.assert_array_equal(policy.log_var, old_phi)
    assert np.any(policy.mean_net.get_params() != old_theta)


# -------------------------------------------------------------- trainer loop


def test_no_updates_until_buffer_fills():
    cfg = TrainerConfig(total_steps=5, batch_size=64, record_interval=1, seed=0)
    trainer = SmoothieTrainer(BumpsBandit(), cfg)
    theta0 = trainer.policy.mean_net.get_params().copy()
    critic0 = trainer.critic.get_params().copy()
    log = trainer.train()
    np.testing.assert_array_equal(trainer.policy.mean_net.get_params(), theta0)
    np.testing.assert_array_equal(trainer.critic.get_params(), critic0)
    assert len(log.rows) == 5
    assert all(v == 0.0 for v in log.column("td_loss"))


def test_warmup_trains_critic_only():
    cfg = TrainerConfig(total_steps=60, warmup_steps=60, batch_size=8,
                        record_interval=20, seed=1)
    trainer = SmoothieTrainer(BumpsBandit(), cfg)
    theta0 = trainer.policy.mean_net.get_params().copy()
    phi0 = trainer.policy.log_var.copy()
    critic0 = trainer.critic.get_params().copy()
    trainer.train()
    np.testing.assert_array_equal(trainer.policy.mean_net.get_params(), theta0)
    np.testing.assert_array_equal(trainer.policy.log_var, phi0)
    # The targets average only toward a policy that moved, so they stay exact copies.
    np.testing.assert_array_equal(trainer.policy.target_mean_net.get_params(), theta0)
    np.testing.assert_array_equal(trainer.policy.target_log_var, phi0)
    assert np.any(trainer.critic.get_params() != critic0)


class _RecordingTrainer(Trainer):
    """Records each update hook with its step.  Each critic step moves the
    critic by one and returns ten times the step as its TD loss."""

    def __init__(self, env, cfg):
        super().__init__(env, cfg)
        self.calls = []
        self.target_moved = []

    def _act(self, obs):
        return np.zeros(1)

    def _update(self, step):
        self.step = step
        before = self.critic_target.params.copy()
        super()._update(step)
        if not np.array_equal(before, self.critic_target.params):
            self.target_moved.append(step)

    def _actor_step(self, batch, step):
        assert step == self.step and batch.S.shape[0] == self.cfg.batch_size
        self.calls.append(("actor", step))

    def _critic_step(self, batch):
        assert batch.S.shape[0] == self.cfg.batch_size
        self.calls.append(("critic", self.step))
        self.critic.params[:] += 1.0
        return 10.0 * self.step

    def _average_actor_targets(self):
        self.calls.append(("targets", self.step))

    def _record_stats(self):
        return 1.0, 1.0, 1.0, 0.0


def test_update_schedule():
    """Nothing updates before the buffer holds a batch; from then on each step
    takes an actor step past the warmup, then a critic step that moves the
    critic target, then averages the actor's targets if the actor moved."""
    cfg = TrainerConfig(total_steps=9, batch_size=3, warmup_steps=5, record_interval=1)
    trainer = _RecordingTrainer(BumpsBandit(), cfg)
    log = trainer.train()
    want = []
    for step in range(3, 10):
        if step > 5:
            want.append(("actor", step))
        want.append(("critic", step))
        if step > 5:
            want.append(("targets", step))
    assert trainer.calls == want
    assert trainer.target_moved == list(range(3, 10))
    assert log.column("td_loss") == [0.0, 0.0] + [10.0 * step for step in range(3, 10)]


def test_plain_smoothie_computes_the_kl_only_on_logged_steps(monkeypatch):
    """Without a penalty the KL feeds only the log row, so a policy step that
    writes none runs neither kl_terms nor the target mean net."""

    def forbidden(*args, **kwargs):
        raise AssertionError("KL computed on a step that writes no log row")

    def trainer(kl_coeff):
        cfg = TrainerConfig(total_steps=40, batch_size=8, record_interval=50,
                            kl_coeff=kl_coeff, seed=0)
        t = SmoothieTrainer(BumpsBandit(), cfg)
        monkeypatch.setattr(t.policy.target_mean_net, "forward", forbidden)
        return t

    monkeypatch.setattr("smoothie_rl.smoothie.kl_terms", forbidden)
    plain = trainer(0.0)
    theta0 = plain.policy.mean_net.get_params()
    plain.train()  # 33 policy steps, none of them logged
    assert np.any(plain.policy.mean_net.get_params() != theta0)
    with pytest.raises(AssertionError, match="no log row"):
        trainer(0.1).train()


def test_train_deterministic_given_seed():
    def one(seed):
        cfg = TrainerConfig(total_steps=300, batch_size=32, record_interval=50, seed=seed)
        return SmoothieTrainer(BumpsBandit(), cfg).train().to_string()

    assert one(3) == one(3)
    assert one(3) != one(4)


def test_mu_init_shifts_policy_mean():
    cfg = TrainerConfig(total_steps=1, batch_size=64, mu_init=-1.0, seed=0)
    trainer = SmoothieTrainer(BumpsBandit(), cfg)
    obs = BumpsBandit().reset(np.random.default_rng(0))
    assert trainer.policy.mean(obs)[0] == pytest.approx(-1.0, abs=1e-9)


def test_bandit_episode_bookkeeping():
    cfg = TrainerConfig(total_steps=400, batch_size=32, warmup_steps=100,
                        record_interval=100, seed=2)
    trainer = SmoothieTrainer(BumpsBandit(), cfg)
    log = trainer.train()
    # horizon-one task: every step closes an episode
    assert len(trainer.buffer) == 400
    assert np.all(trainer.buffer.gather(np.arange(400)).D == 1.0)
    assert len(log.rows) == 4
    smin = np.array(log.column("sigma_min"))
    smean = np.array(log.column("sigma_mean"))
    smax = np.array(log.column("sigma_max"))
    assert np.all(smin <= smean) and np.all(smean <= smax)
    assert np.all(np.isfinite(log.column("td_loss")))


class _ExplodingBandit(BumpsBandit):
    """Emits NaN rewards after a fuse; NaN pierces the Huber clamp."""

    def __init__(self, fuse=150):
        super().__init__()
        self.fuse = fuse
        self.calls = 0

    def step(self, action, rng):
        self.calls += 1
        if self.calls > self.fuse:
            return StepResult(reward=float("nan"), next_observation=np.zeros(1), done=True)
        return super().step(action, rng)


def test_divergence_carries_partial_log():
    cfg = TrainerConfig(total_steps=1000, batch_size=32, record_interval=50, seed=0)
    trainer = SmoothieTrainer(_ExplodingBandit(fuse=150), cfg)
    with pytest.raises(DivergenceError) as err:
        trainer.train()
    partial = err.value.partial_log
    assert isinstance(partial, TrainLog)
    assert len(partial.rows) >= 2


def test_nonfinite_log_row_before_any_update_is_divergence(tmp_path, monkeypatch):
    # NaN rewards from step 6 reach the step-10 log row while the buffer is
    # still below one batch, so no critic update sees them first.
    cfg = TrainerConfig(total_steps=100, batch_size=64, record_interval=10, seed=0)
    trainer = SmoothieTrainer(_ExplodingBandit(fuse=5), cfg)
    with pytest.raises(DivergenceError, match="log row at step 10") as err:
        trainer.train()
    assert isinstance(err.value.partial_log, TrainLog)
    assert err.value.partial_log.rows == []
    # harness.run reports it as a diverged seed, which the CLI maps to exit 3
    monkeypatch.setattr(harness, "make_env", lambda name: _ExplodingBandit(fuse=5))
    run_cfg = harness.RunConfig("smoothie", "bumps", seeds=(0,), out_dir=str(tmp_path), trainer=cfg)
    result = harness.run(run_cfg)
    assert result.exit_code == 3
    assert result.outcomes[0].status == "diverged"
