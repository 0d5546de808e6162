"""Derivative-propagating networks against closed forms and finite differences."""

import math

import numpy as np
import pytest

from smoothie_rl.deriv_net import (
    AdamState,
    DerivNet,
    DivergenceError,
    Layer,
    _init_layer,
    actor_net,
    adam_step,
    clip_global_norm,
    critic_net,
    huber,
    load_params,
    polyak_update,
    save_params,
)
from smoothie_rl.verify import fd_hessian, fd_jacobian


def _single_tanh_net():
    """One tanh unit on [state, action]: y = tanh(ws s + wa a + b)."""
    w = np.array([[0.7, -1.3]])
    b = np.array([0.2])
    return DerivNet(1, 1, [Layer(weight=w, bias=b, activation="tanh")], action_layer=0)


def test_single_tanh_closed_form_derivatives():
    net = _single_tanh_net()
    s = np.array([0.5])
    a = np.array([-0.3])
    z = 0.7 * 0.5 - 1.3 * (-0.3) + 0.2
    t = math.tanh(z)
    trip = net.forward_with_action_derivs(s, a)
    assert trip.value[0] == pytest.approx(t, rel=1e-14)
    # dy/da = (1 - t^2) wa, d2y/da2 = -2 t (1 - t^2) wa^2
    assert trip.jacobian[0, 0] == pytest.approx((1 - t * t) * (-1.3), rel=1e-13)
    assert trip.hessian[0, 0, 0] == pytest.approx(-2 * t * (1 - t * t) * 1.3 * 1.3, rel=1e-12)


def test_forward_consistency_with_derivative_path():
    rng = np.random.default_rng(0)
    net = critic_net(4, 2, (16, 16), rng)
    s = rng.uniform(-1, 1, size=4)
    a = rng.uniform(-1, 1, size=2)
    plain = net.forward(s, a)
    trip = net.forward_with_action_derivs(s, a)
    assert np.array_equal(plain, trip.value)


def test_jacobian_hessian_vs_finite_differences():
    rng = np.random.default_rng(1)
    net = critic_net(3, 2, (12, 10), rng)
    worst_j = worst_h = 0.0
    for _ in range(10):
        s = rng.uniform(-1, 1, size=3)
        a = rng.uniform(-1, 1, size=2)
        trip = net.forward_with_action_derivs(s, a)
        jf = fd_jacobian(net, s, a)
        hf = fd_hessian(net, s, a)
        worst_j = max(worst_j, float(np.max(np.abs(trip.jacobian - jf))))
        worst_h = max(worst_h, float(np.max(np.abs(trip.hessian - hf))))
    assert worst_j < 1e-7
    assert worst_h < 1e-5


def test_hessian_symmetry():
    rng = np.random.default_rng(2)
    net = critic_net(2, 3, (10, 10), rng)
    s = rng.uniform(-1, 1, size=2)
    a = rng.uniform(-1, 1, size=3)
    H = net.forward_with_action_derivs(s, a).hessian[0]
    assert np.allclose(H, H.T, atol=1e-12)


def test_batched_forward_matches_loop():
    rng = np.random.default_rng(3)
    net = critic_net(3, 1, (8, 8), rng)
    S = rng.uniform(-1, 1, size=(5, 3))
    A = rng.uniform(-1, 1, size=(5, 1))
    batched = net.forward(S, A)
    for k in range(5):
        assert np.allclose(batched[k], net.forward(S[k], A[k]), atol=1e-14)
    trip = net.forward_with_action_derivs(S, A)
    for k in range(5):
        tk = net.forward_with_action_derivs(S[k], A[k])
        assert np.allclose(trip.jacobian[k], tk.jacobian, atol=1e-14)
        assert np.allclose(trip.hessian[k], tk.hessian, atol=1e-14)


def _deep_critic_batch():
    """Three hidden layers, so a tanh layer after the injection sees a non-zero H."""
    rng = np.random.default_rng(4)
    net = critic_net(3, 3, (12, 10, 8), rng)
    S = rng.uniform(-1, 1, size=(6, 3))
    A = rng.uniform(-1, 1, size=(6, 3))
    return net, S, A


def test_deep_critic_jacobian_hessian_vs_finite_differences():
    net, S, A = _deep_critic_batch()
    trip = net.forward_with_action_derivs(S, A)
    assert trip.jacobian.shape == (6, 1, 3) and trip.hessian.shape == (6, 1, 3, 3)
    for k in range(len(S)):
        assert np.max(np.abs(trip.jacobian[k] - fd_jacobian(net, S[k], A[k]))) < 1e-7
        assert np.max(np.abs(trip.hessian[k] - fd_hessian(net, S[k], A[k]))) < 1e-5


def test_deep_critic_hessian_symmetry():
    net, S, A = _deep_critic_batch()
    H = net.forward_with_action_derivs(S, A).hessian[:, 0]
    assert np.allclose(H, np.swapaxes(H, 1, 2), atol=1e-12)


def test_deep_critic_batch_rows_match_single_calls():
    net, S, A = _deep_critic_batch()
    trip = net.forward_with_action_derivs(S, A)
    for k in range(len(S)):
        tk = net.forward_with_action_derivs(S[k], A[k])
        assert np.allclose(trip.value[k], tk.value, atol=1e-14)
        assert np.allclose(trip.jacobian[k], tk.jacobian, atol=1e-14)
        assert np.allclose(trip.hessian[k], tk.hessian, atol=1e-14)


def test_identity_layers_on_action_path_vs_finite_differences():
    # identity at the injection layer and between tanh layers
    rng = np.random.default_rng(5)
    shapes = [(6, 2, "tanh"), (5, 8, "identity"), (4, 5, "tanh"), (4, 4, "identity"), (2, 4, "tanh")]
    layers = [_init_layer(n_in, n_out, act, rng) for n_out, n_in, act in shapes]
    net = DerivNet(2, 2, layers, action_layer=1)
    S = rng.uniform(-1, 1, size=(4, 2))
    A = rng.uniform(-1, 1, size=(4, 2))
    trip = net.forward_with_action_derivs(S, A)
    assert trip.jacobian.shape == (4, 2, 2) and trip.hessian.shape == (4, 2, 2, 2)
    for k in range(len(S)):
        assert np.max(np.abs(trip.jacobian[k] - fd_jacobian(net, S[k], A[k]))) < 1e-7
        assert np.max(np.abs(trip.hessian[k] - fd_hessian(net, S[k], A[k]))) < 1e-5


def test_param_gradient_vs_finite_differences():
    rng = np.random.default_rng(4)
    net = critic_net(2, 1, (6, 6), rng)
    s = rng.uniform(-1, 1, size=2)
    a = rng.uniform(-1, 1, size=1)
    cot = np.array([1.0])
    grad = net.param_gradient(s, a, cot)
    flat = net.get_params()
    h = 1e-6
    for idx in rng.choice(net.n_params, size=25, replace=False):
        bump = flat.copy()
        bump[idx] += h
        net.set_params(bump)
        up = float(net.forward(s, a)[0])
        bump[idx] -= 2 * h
        net.set_params(bump)
        dn = float(net.forward(s, a)[0])
        net.set_params(flat)
        assert grad[idx] == pytest.approx((up - dn) / (2 * h), rel=2e-4, abs=1e-8)


def test_param_gradient_batch_sums_rows():
    rng = np.random.default_rng(5)
    net = actor_net(3, 2, (8, 8), rng)
    S = rng.uniform(-1, 1, size=(4, 3))
    cot = rng.normal(size=(4, 2))
    total = net.param_gradient(S, None, cot)
    rows = sum(net.param_gradient(S[k], None, cot[k]) for k in range(4))
    assert np.allclose(total, rows, atol=1e-12)


def test_actor_relu_masks_param_gradient():
    # a relu unit that is off must contribute zero gradient to its weights
    w1 = np.array([[1.0], [-1.0]])
    b1 = np.zeros(2)
    w2 = np.array([[1.0, 1.0]])
    b2 = np.zeros(1)
    net = DerivNet(
        1, 0,
        [Layer(w1, b1, "relu"), Layer(w2, b2, "identity")],
    )
    g = net.param_gradient(np.array([2.0]), None, np.array([1.0]))
    # layout: w1 (2 values), b1 (2), w2 (2), b2 (1); second w1 row is off
    assert g[0] == pytest.approx(2.0)
    assert g[1] == 0.0
    assert g[3] == 0.0


def test_relu_rejected_on_action_path():
    with pytest.raises(ValueError, match="relu"):
        DerivNet(
            1, 1,
            [Layer(np.zeros((4, 2)), np.zeros(4), "relu"),
             Layer(np.zeros((1, 4)), np.zeros(1), "identity")],
            action_layer=0,
        )


def test_critic_net_rejects_single_hidden_layer():
    with pytest.raises(ValueError):
        critic_net(2, 1, (8,))


def test_layer_width_mismatch_rejected():
    with pytest.raises(ValueError, match="width"):
        DerivNet(2, 1, [Layer(np.zeros((3, 2)), np.zeros(3), "tanh")], action_layer=0)


def test_get_set_params_round_trip():
    rng = np.random.default_rng(6)
    net = critic_net(2, 2, (5, 5), rng)
    flat = net.get_params()
    other = critic_net(2, 2, (5, 5), np.random.default_rng(99))
    other.set_params(flat)
    assert np.array_equal(other.get_params(), flat)
    s, a = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    assert np.array_equal(net.forward(s, a), other.forward(s, a))
    with pytest.raises(ValueError):
        net.set_params(flat[:-1])


def test_clone_is_independent():
    net = critic_net(2, 1, (5, 5), np.random.default_rng(7))
    twin = net.clone()
    twin.layers[0].weight[:] += 1.0
    assert not np.array_equal(net.layers[0].weight, twin.layers[0].weight)


def test_layers_stay_views_of_flat_params():
    """On a net and on its clone, set_params reaches the layers and in-place
    layer edits reach get_params."""
    net = critic_net(2, 1, (5, 5), np.random.default_rng(10))
    for m in (net, net.clone()):
        flat = m.get_params() + 0.25
        m.set_params(flat)
        w0 = m.layers[0].weight
        assert np.array_equal(w0.ravel(), flat[: w0.size])
        m.layers[-1].bias += 1.0
        assert m.get_params()[-1] == flat[-1] + 1.0


# ------------------------------------------------------------------ optimizer


def test_adam_first_step_size_is_lr():
    # with fresh moments the bias-corrected first step has magnitude lr
    state = AdamState.for_params(3)
    params = np.zeros(3)
    g = np.array([0.5, -2.0, 1e-3])
    out = adam_step(params, g, 0.1, state)
    assert np.allclose(np.abs(out), 0.1 * np.ones(3), atol=1e-6)
    assert np.sign(out[1]) == 1.0  # descends against the gradient


def test_adam_in_place_matches_textbook_formula_bitwise():
    rng = np.random.default_rng(6)
    n = 50
    state = AdamState.for_params(n)
    m_obj, v_obj = state.m, state.v
    params = rng.normal(size=n)
    ref, m, v = params.copy(), np.zeros(n), np.zeros(n)
    b1, b2, eps, lr = state.beta1, state.beta2, state.eps, 3e-3
    for t in range(1, 301):
        # magnitudes from 1e-9 to 1e4 within one gradient, with exact zeros
        g = rng.normal(size=n) * 10.0 ** rng.uniform(-9, 4, size=n)
        g[rng.random(n) < 0.1] = 0.0
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        mhat = m / (1.0 - b1**t)
        vhat = v / (1.0 - b2**t)
        ref = ref - lr * mhat / (np.sqrt(vhat) + eps)
        params = adam_step(params, g, lr, state)
        assert np.array_equal(params, ref) and np.array_equal(state.m, m) and np.array_equal(state.v, v)
    assert state.t == 300 and state.m is m_obj and state.v is v_obj


def test_adam_rejects_non_finite_gradient():
    state = AdamState.for_params(1)
    with pytest.raises(DivergenceError):
        adam_step(np.zeros(1), np.array([np.nan]), 0.1, state)


def test_adam_shape_mismatch():
    state = AdamState.for_params(2)
    with pytest.raises(ValueError):
        adam_step(np.zeros(2), np.zeros(3), 0.1, state)


def test_polyak_update_blend():
    t = np.zeros(4)
    o = np.ones(4)
    assert np.allclose(polyak_update(t, o, 0.25), 0.25 * np.ones(4))
    assert np.allclose(polyak_update(t, o, 1.0), o)
    with pytest.raises(ValueError):
        polyak_update(t, o, 1.5)


def test_huber_values_and_derivative():
    v, d = huber(np.array([0.5, 2.0, -2.0]), 1.0)
    assert v[0] == pytest.approx(0.125)
    assert v[1] == pytest.approx(1.5)  # 1 * (2 - 0.5)
    assert d[1] == 1.0 and d[2] == -1.0
    assert d[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        huber(np.zeros(1), 0.0)


def test_huber_continuous_at_clip():
    v_in, d_in = huber(np.array([1.0 - 1e-9]), 1.0)
    v_out, d_out = huber(np.array([1.0 + 1e-9]), 1.0)
    assert v_out[0] == pytest.approx(v_in[0], abs=1e-8)
    assert d_out[0] == pytest.approx(d_in[0], abs=1e-8)


def test_clip_global_norm():
    g = np.array([3.0, 4.0])
    clipped = clip_global_norm(g, 1.0)
    assert np.linalg.norm(clipped) == pytest.approx(1.0)
    assert np.allclose(clip_global_norm(g, 10.0), g)


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    net = critic_net(3, 2, (6, 6), rng)
    path = tmp_path / "net.ckpt"
    save_params(net, path)
    other = critic_net(3, 2, (6, 6), np.random.default_rng(1234))
    load_params(other, path)
    assert np.array_equal(net.get_params(), other.get_params())


def test_checkpoint_dims_mismatch_rejected(tmp_path):
    net = critic_net(3, 2, (6, 6), np.random.default_rng(9))
    path = tmp_path / "net.ckpt"
    save_params(net, path)
    wrong = critic_net(3, 2, (7, 6), np.random.default_rng(9))
    with pytest.raises(ValueError, match="dims"):
        load_params(wrong, path)


def test_checkpoint_truncated_rejected(tmp_path):
    net = critic_net(2, 1, (5, 5), np.random.default_rng(10))
    path = tmp_path / "net.ckpt"
    save_params(net, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="values"):
        load_params(net, path)
