"""OU noise, the deterministic-gradient baseline, and its equivalence with
the smoothed trainer's mean update at vanishing policy variance."""

import numpy as np
import pytest

from smoothie_rl.ddpg import (
    DdpgTrainer,
    OuNoise,
    actor_ascent_direction,
    ddpg_critic_update,
)
from smoothie_rl.deriv_net import AdamState, DerivNet, Layer, adam_step, critic_net
from smoothie_rl.envs import BumpsBandit
from smoothie_rl.replay import ReplayBuffer, Transition
from smoothie_rl.smoothie import (
    SmoothiePolicy,
    TrainerConfig,
    critic_update,
    policy_ascent_directions,
)


def _tanh_actor(seed=0, state_dim=1, action_dim=1):
    rng = np.random.default_rng(seed)
    layers = [
        Layer(rng.normal(scale=0.5, size=(8, state_dim)), rng.normal(scale=0.1, size=8), "tanh"),
        Layer(rng.normal(scale=0.5, size=(action_dim, 8)), rng.normal(scale=0.1, size=action_dim), "identity"),
    ]
    return DerivNet(state_dim, 0, layers)


def _batch(rng, n=16, done=False):
    buf = ReplayBuffer(n)
    for _ in range(n):
        buf.push(Transition(
            state=rng.uniform(-1, 1, 1),
            action=rng.uniform(-1, 1, 1),
            reward=float(rng.uniform(-1, 1)),
            next_state=rng.uniform(-1, 1, 1),
            done=done,
        ))
    return buf.gather(np.arange(n))


# ------------------------------------------------------------------ OU noise


def test_ou_rejects_bad_params():
    with pytest.raises(ValueError):
        OuNoise(1, damping=0.0, stddev=0.1)
    with pytest.raises(ValueError):
        OuNoise(1, damping=0.1, stddev=-0.1)


def test_ou_step_formula():
    noise = OuNoise(2, damping=0.2, stddev=0.5)
    rng = np.random.default_rng(0)
    ref_rng = np.random.default_rng(0)
    x = np.zeros(2)
    for _ in range(5):
        got = noise.step(rng)
        x = x - 0.2 * x + 0.5 * ref_rng.standard_normal(2)
        np.testing.assert_allclose(got, x, atol=1e-15)


def test_ou_stationary_std_matches_empirical():
    noise = OuNoise(1, damping=0.1, stddev=0.2)
    rng = np.random.default_rng(1)
    xs = np.array([noise.step(rng)[0] for _ in range(200_000)])
    assert np.std(xs[1000:]) == pytest.approx(0.2 / np.sqrt(0.1 * 1.9), rel=0.05)


# ------------------------------------------------------------------- updates


def test_ddpg_critic_update_moves_online_only():
    rng = np.random.default_rng(3)
    critic = critic_net(1, 1, (8, 8), rng)
    critic_t = critic.clone()
    actor_t = _tanh_actor(seed=3)
    opt = AdamState.for_params(critic.n_params)
    batch = _batch(rng, n=32)
    before = critic.get_params().copy()
    loss = ddpg_critic_update(critic, critic_t, actor_t, batch, TrainerConfig(), opt)
    assert np.isfinite(loss) and loss > 0.0
    assert np.any(critic.get_params() != before)
    np.testing.assert_array_equal(critic_t.get_params(), before)


def test_ddpg_critic_update_all_terminal_regresses_on_rewards():
    rng = np.random.default_rng(4)
    critic = critic_net(1, 1, (8, 8), rng)
    critic_t = critic.clone()
    actor_t = _tanh_actor(seed=4)
    batch = _batch(rng, n=32, done=True)
    cfg = TrainerConfig(huber_clip=0.5)
    r = critic.forward(batch.S, batch.A)[:, 0] - batch.R
    want = np.mean(np.where(np.abs(r) <= 0.5, 0.5 * r**2, 0.5 * (np.abs(r) - 0.25)))

    def no_forward(*args, **kwargs):
        raise AssertionError("a target net ran on an all-terminal batch")

    critic_t.forward = actor_t.forward = no_forward
    loss = ddpg_critic_update(critic, critic_t, actor_t, batch, cfg, AdamState.for_params(critic.n_params))
    assert loss == pytest.approx(want, rel=1e-12)


def test_actor_direction_matches_fd():
    rng = np.random.default_rng(5)
    actor = _tanh_actor(seed=5)
    critic = critic_net(1, 1, (8, 8), rng)
    S = rng.uniform(-1, 1, size=(6, 1))
    direction = actor_ascent_direction(actor, critic, S)

    def objective(flat):
        net = actor.clone()
        net.set_params(flat)
        return float(np.mean(critic.forward(S, net.forward(S))[:, 0]))

    theta = actor.get_params()
    for i in rng.choice(theta.size, size=10, replace=False):
        h = 1e-6 * max(1.0, abs(theta[i]))
        tp = theta.copy(); tp[i] += h
        tm = theta.copy(); tm[i] -= h
        fd = (objective(tp) - objective(tm)) / (2.0 * h)
        assert direction[i] == pytest.approx(fd, abs=1e-6 + 1e-4 * abs(fd))


# -------------------------------------------- degenerate-variance equivalence


def test_actor_direction_takes_a_jacobian_only_pass():
    """The actor reads only the action gradient, so its critic pass forms no Hessian;
    the direction equals the vjp of the full pass's gradient bit for bit."""
    rng = np.random.default_rng(11)
    actor = _tanh_actor(seed=11)
    critic = critic_net(1, 1, (8, 8), rng)
    S = rng.uniform(-1, 1, size=(10, 1))
    passes = []
    full_pass = critic.forward_with_action_derivs

    def recording_pass(*args, **kwargs):
        passes.append(full_pass(*args, **kwargs))
        return passes[-1]

    critic.forward_with_action_derivs = recording_pass
    direction = actor_ascent_direction(actor, critic, S)
    assert len(passes) == 1 and passes[0].hessian is None
    mu, vjp = actor.param_vjp(S, None)
    g = full_pass(S, mu).jacobian[:, 0, :]
    assert direction.tobytes() == vjp(g / len(S)).tobytes()


def test_mean_update_equals_ddpg_at_frozen_tiny_variance():
    """With log variance frozen at -40 the smoothed trainer's mean ascent
    direction and the resulting optimizer step coincide with the
    deterministic baseline's actor update on a shared batch and critic."""
    rng = np.random.default_rng(7)
    critic = critic_net(1, 1, (16, 16), rng)
    S = _batch(rng, n=64).S

    base = _tanh_actor(seed=7)
    policy = SmoothiePolicy(base.clone(), 1, phi_init=-40.0)
    actor = base.clone()

    cfg = TrainerConfig(actor_lr=1e-4, kl_coeff=0.0, freeze_sigma=True)
    dir_theta, _, _, _, _ = policy_ascent_directions(policy, critic, S, cfg)
    dir_ddpg = actor_ascent_direction(actor, critic, S)
    ref = max(float(np.max(np.abs(dir_ddpg))), 1e-300)
    assert float(np.max(np.abs(dir_theta - dir_ddpg))) / ref < 1e-6

    stepped_smoothie = adam_step(policy.mean_net.get_params(), -dir_theta, cfg.actor_lr,
                                 AdamState.for_params(base.n_params))
    stepped_ddpg = adam_step(actor.get_params(), -dir_ddpg, cfg.actor_lr,
                             AdamState.for_params(base.n_params))
    scale = max(float(np.max(np.abs(stepped_ddpg))), 1e-300)
    assert float(np.max(np.abs(stepped_smoothie - stepped_ddpg))) / scale < 1e-6


def test_critic_update_equals_ddpg_at_underflowed_variance():
    """At log variance -1000 the policy variance underflows to 0.0, so the
    phantom actions are the stored ones, and the smoothed critic step is
    DDPG's, bit for bit."""
    rng = np.random.default_rng(9)
    critic = critic_net(1, 1, (8, 8), rng)
    critic_t = critic.clone()
    base = _tanh_actor(seed=9)
    policy = SmoothiePolicy(base.clone(), 1, phi_init=-1000.0)
    assert policy.variance[0] == 0.0
    batch = _batch(rng, n=32)
    cfg = TrainerConfig()

    smooth, ddpg = critic.clone(), critic.clone()
    loss_smooth = critic_update(smooth, critic_t, policy, batch, cfg,
                                AdamState.for_params(critic.n_params), rng)
    loss_ddpg = ddpg_critic_update(ddpg, critic_t, base.clone(), batch, cfg,
                                   AdamState.for_params(critic.n_params))
    assert loss_smooth == loss_ddpg
    np.testing.assert_array_equal(smooth.get_params(), ddpg.get_params())
    assert np.any(smooth.get_params() != critic.get_params())


# ------------------------------------------------------------------- trainer


def test_ddpg_warmup_trains_critic_only():
    cfg = TrainerConfig(total_steps=60, warmup_steps=60, batch_size=8,
                        record_interval=20, seed=1)
    trainer = DdpgTrainer(BumpsBandit(), cfg)
    actor0 = trainer.actor.get_params().copy()
    critic0 = trainer.critic.get_params().copy()
    trainer.train()
    np.testing.assert_array_equal(trainer.actor.get_params(), actor0)
    # actor_target averages only toward an actor that moved, so it stays an exact copy.
    np.testing.assert_array_equal(trainer.actor_target.get_params(), actor0)
    assert np.any(trainer.critic.get_params() != critic0)


def test_ddpg_trainer_smoke_and_determinism():
    def one(seed):
        cfg = TrainerConfig(total_steps=300, batch_size=32, record_interval=50,
                            eval_interval=100, seed=seed)
        trainer = DdpgTrainer(BumpsBandit(), cfg)
        log = trainer.train()
        return trainer, log

    t1, log1 = one(0)
    t2, log2 = one(0)
    assert log1.to_string() == log2.to_string()
    _, log3 = one(1)
    assert log1.to_string() != log3.to_string()
    assert len(log1.rows) == 6
    # sigma columns report the (constant) exploration stddev
    assert set(log1.column("sigma_mean")) == {TrainerConfig().ou_stddev}
    assert [s for s, _ in t1.eval_returns] == [100, 200, 300]
