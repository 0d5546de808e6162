"""Derivative-propagating networks against closed forms and finite differences."""

import copy
import math
import pickle

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
from smoothie_rl.smoothie import shift_output_bias
from smoothie_rl.verify import fd_hessian, fd_jacobian


def _single_tanh_net():
    """One tanh unit on [state, action] read by a unit identity output: y = tanh(ws s + wa a + b)."""
    w = np.array([[0.7, -1.3]])
    b = np.array([0.2])
    out = Layer(weight=np.ones((1, 1)), bias=np.zeros(1), activation="identity")
    return DerivNet(1, 1, [Layer(weight=w, bias=b, activation="tanh"), out])


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


def _two_hidden_closed_form(net, S, A):
    """Value, Jacobian and Hessian of tanh(W1 s + b1) -> tanh(W2 [h; a] + b2) -> Wo t + bo."""
    (W1, b1), (W2, b2), (Wo, bo) = ((l.weight, l.bias) for l in net.layers)
    h = np.tanh(S @ W1.T + b1)
    t = np.tanh(np.concatenate([h, A], axis=1) @ W2.T + b2)
    Wa = W2[:, h.shape[1]:]  # (width, d_a)
    d1 = 1.0 - t**2  # tanh'
    d2 = -2.0 * t * d1  # tanh''
    value = t @ Wo.T + bo
    jac = np.einsum("ok,bk,ki->boi", Wo, d1, Wa)
    hess = np.einsum("ok,bk,ki,kj->boij", Wo, d2, Wa, Wa)
    return value, jac, hess


@pytest.mark.parametrize("net_kind", ["critic_net", "two_wide_output"])
def test_two_hidden_critic_derivatives_match_closed_form(net_kind):
    """The action enters at the last tanh layer and a linear output follows,
    so G and H of the output are formed straight from that layer."""
    rng = np.random.default_rng(41)
    d_s, d_a, B = 2, 3, 7
    if net_kind == "critic_net":
        net = critic_net(d_s, d_a, (9, 6), rng)
    else:
        shapes = [(9, d_s, "tanh"), (6, 9 + d_a, "tanh"), (2, 6, "identity")]
        net = DerivNet(d_s, d_a, [_init_layer(n_in, n_out, act, rng) for n_out, n_in, act in shapes])
    S = rng.uniform(-1, 1, size=(B, d_s))
    A = rng.uniform(-1, 1, size=(B, d_a))
    trip = net.forward_with_action_derivs(S, A)
    value, jac, hess = _two_hidden_closed_form(net, S, A)
    assert trip.jacobian.shape == jac.shape and trip.hessian.shape == hess.shape
    np.testing.assert_allclose(trip.value, value, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trip.jacobian, jac, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trip.hessian, hess, rtol=0, atol=1e-12)
    assert np.array_equal(trip.hessian, np.swapaxes(trip.hessian, 2, 3))
    assert np.array_equal(net.forward(S, A), trip.value)


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


@pytest.mark.parametrize("single", [False, True], ids=["batch", "row"])
def test_jacobian_only_pass_matches_the_full_pass(single):
    """hessian=False returns the full pass's value and Jacobian bit for bit, and no Hessian."""
    rng = np.random.default_rng(5)
    net = critic_net(3, 2, (9, 7), rng)
    S = rng.uniform(-1, 1, size=(6, 3))
    A = rng.uniform(-1, 1, size=(6, 2))
    if single:
        S, A = S[0], A[0]
    full = net.forward_with_action_derivs(S, A)
    fast = net.forward_with_action_derivs(S, A, hessian=False)
    assert fast.hessian is None
    assert fast.jacobian.tobytes() == full.jacobian.tobytes()
    assert fast.value.tobytes() == full.value.tobytes()
    actor = actor_net(3, 2, (8,), rng)
    with pytest.raises(ValueError, match="no action derivatives"):
        actor.forward_with_action_derivs(S, None, hessian=False)


def test_public_entry_points_promote_other_inputs_to_the_float64_bytes():
    """Lists, 1-D rows and float32 arrays give the bytes of the float64 array they convert to."""
    rng = np.random.default_rng(6)
    net = critic_net(3, 2, (9, 7), rng)
    S = rng.uniform(-1, 1, size=(5, 3)).astype(np.float32).astype(float)
    A = rng.uniform(-1, 1, size=(5, 2)).astype(np.float32).astype(float)
    want = net.forward(S, A).tobytes()
    assert net.forward(S.tolist(), A.tolist()).tobytes() == want
    assert net.forward(S.astype(np.float32), A.astype(np.float32)).tobytes() == want
    assert net.forward(S[2], A[2]).tobytes() == net.forward(S[2:3], A[2:3])[0].tobytes()
    trip = net.forward_with_action_derivs(S.astype(np.float32), A.tolist())
    assert trip.hessian.tobytes() == net.forward_with_action_derivs(S, A).hessian.tobytes()
    out, vjp = net.param_vjp(S.tolist(), A.astype(np.float32))
    assert out.tobytes() == want
    cot = rng.standard_normal((5, 1))
    assert vjp(cot.tolist()).tobytes() == net.param_vjp(S, A)[1](cot).tobytes()
    grad = rng.standard_normal(net.n_params)
    p_list, p_arr = net.get_params(), net.get_params()
    adam_step(p_list, grad.tolist(), 1e-3, AdamState.for_params(net.n_params))
    adam_step(p_arr, grad, 1e-3, AdamState.for_params(net.n_params))
    assert p_list.tobytes() == p_arr.tobytes()


def test_bad_widths_raise_their_errors():
    rng = np.random.default_rng(7)
    net = critic_net(3, 2, (9, 7), rng)
    S, A = np.zeros((4, 3)), np.zeros((4, 2))
    with pytest.raises(ValueError, match=r"^state width 2 != 3$"):
        net.forward(np.zeros((4, 2)), A)
    with pytest.raises(ValueError, match=r"^state width 2 != 3$"):
        net.forward_with_action_derivs([0.0, 0.0], [0.0, 0.0], hessian=False)
    with pytest.raises(ValueError, match=r"^action required$"):
        net.forward(S)
    with pytest.raises(ValueError, match=r"^action shape \(4, 3\) incompatible with \(4, 2\)$"):
        net.param_vjp(S, np.zeros((4, 3)))
    with pytest.raises(ValueError, match=r"^action shape \(1, 2\) incompatible with \(4, 2\)$"):
        net.forward(S, np.zeros(2, dtype=np.float32))
    _, vjp = net.param_vjp(S, A)
    with pytest.raises(ValueError, match=r"^cotangent shape \(4,\) != \(4, 1\)$"):
        vjp(np.zeros(4))
    with pytest.raises(ValueError, match=r"^cotangent shape \(4, 2\) != \(4, 1\)$"):
        vjp([[0.0, 0.0]] * 4)
    with pytest.raises(ValueError, match=r"^gradient shape \(3,\) != params shape \(2,\)$"):
        adam_step(np.zeros(2), [0.0, 0.0, 0.0], 0.1, AdamState.for_params(2))


def _deep_critic_batch():
    """Three hidden layers: two state layers, then the action joins the last one."""
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


def test_param_vjp_vs_finite_differences():
    rng = np.random.default_rng(4)
    net = critic_net(2, 1, (6, 6), rng)
    s = rng.uniform(-1, 1, size=2)
    a = rng.uniform(-1, 1, size=1)
    _, vjp = net.param_vjp(s, a)
    grad = vjp(np.array([[1.0]]))
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


def test_param_vjp_batch_sums_rows():
    rng = np.random.default_rng(5)
    net = actor_net(3, 2, (8, 8), rng)
    S = rng.uniform(-1, 1, size=(4, 3))
    cot = rng.normal(size=(4, 2))
    total = net.param_vjp(S, None)[1](cot)
    rows = sum(net.param_vjp(S[k], None)[1](cot[k : k + 1]) for k in range(4))
    assert np.allclose(total, rows, atol=1e-12)


def test_actor_relu_masks_param_vjp():
    # a relu unit that is off must contribute zero gradient to its weights
    w1 = np.array([[1.0], [-1.0]])
    b1 = np.zeros(2)
    w2 = np.array([[1.0, 1.0]])
    b2 = np.zeros(1)
    net = DerivNet(
        1, 0,
        [Layer(w1, b1, "relu"), Layer(w2, b2, "identity")],
    )
    _, vjp = net.param_vjp(np.array([2.0]), None)
    g = vjp(np.array([[1.0]]))
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
        )


@pytest.mark.parametrize("shapes", [
    [(4, 3, "tanh"), (1, 4, "tanh")],  # output layer not identity
    [(4, 3, "identity"), (1, 4, "identity")],  # action layer not tanh
    [(1, 3, "tanh")],  # no output layer after the action layer
])
def test_action_net_of_another_layout_rejected(shapes):
    layers = [Layer(np.zeros((n_out, n_in)), np.zeros(n_out), act) for n_out, n_in, act in shapes]
    with pytest.raises(ValueError, match="last hidden layer"):
        DerivNet(2, 1, layers)


def test_critic_net_feeds_the_action_into_its_last_hidden_layer():
    net = critic_net(3, 3, (12, 10, 8))
    assert [l.in_width for l in net.layers] == [3, 12, 10 + 3, 8]
    assert [l.activation for l in net.layers] == ["tanh", "tanh", "tanh", "identity"]


def test_critic_net_rejects_single_hidden_layer():
    with pytest.raises(ValueError):
        critic_net(2, 1, (8,))


def test_layer_width_mismatch_rejected():
    # the action layer takes 2 state and 1 action inputs, but is 2 wide
    with pytest.raises(ValueError, match="width"):
        DerivNet(2, 1, [Layer(np.zeros((3, 2)), np.zeros(3), "tanh"),
                        Layer(np.zeros((1, 3)), np.zeros(1), "identity")])


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


def _rebuilt(net):
    """A new net whose layers are sliced from ``net.get_params()``."""
    flat, layers, i = net.get_params(), [], 0
    for l in net.layers:
        n_out, n_in = l.weight.shape
        w = flat[i : i + n_out * n_in].reshape(n_out, n_in)
        i += n_out * n_in
        layers.append(Layer(w, flat[i : i + n_out], l.activation))
        i += n_out
    return DerivNet(net.state_dim, net.action_dim, layers)


def _assert_passes_follow_params(net, S, A):
    ref = _rebuilt(net)
    assert np.array_equal(net.forward(S, A), ref.forward(S, A))
    if net.action_dim == 0:  # no action derivatives; the actor's other pass is its vjp
        cot = np.ones((S.shape[0], net.out_dim))
        assert np.array_equal(net.param_vjp(S, A)[1](cot), ref.param_vjp(S, A)[1](cot))
        return
    got, want = net.forward_with_action_derivs(S, A), ref.forward_with_action_derivs(S, A)
    for a, b in ((got.value, want.value), (got.jacobian, want.jacobian), (got.hessian, want.hessian)):
        assert np.array_equal(a, b)


def test_layers_stay_views_of_flat_params(tmp_path):
    """On a net and on its copies, set_params reaches the layers, in-place
    layer edits reach get_params, and ``params`` is the array they share.
    The layer plan reads those live arrays: after a copy or any in-place
    write, both passes equal those of a net built afresh from get_params()."""
    rng = np.random.default_rng(10)
    S = rng.uniform(-1, 1, size=(6, 2))
    for build, A in ((critic_net, rng.uniform(-1, 1, size=(6, 2))), (actor_net, None)):
        net = build(2, 2, (5, 4), rng)
        donor = build(2, 2, (5, 4), np.random.default_rng(12))
        save_params(donor, tmp_path / "donor.ckpt")
        copies = (net.clone(), copy.deepcopy(net), pickle.loads(pickle.dumps(net)))
        for m in (net,) + copies:
            _assert_passes_follow_params(m, S, A)
            flat = m.get_params() + 0.25
            m.set_params(flat)
            _assert_passes_follow_params(m, S, A)
            w0 = m.layers[0].weight
            assert np.array_equal(w0.ravel(), flat[: w0.size])
            m.layers[-1].bias += 1.0
            assert m.get_params()[-1] == flat[-1] + 1.0
            m.params[0] -= 2.0
            assert w0[0, 0] == flat[0] - 2.0
            assert all(np.shares_memory(m.params, a) for l in m.layers for a in (l.weight, l.bias))
            assert np.array_equal(m.params, m.get_params())
            _assert_passes_follow_params(m, S, A)
            adam_step(m.params, rng.normal(size=m.n_params), 0.05, AdamState.for_params(m.n_params))
            _assert_passes_follow_params(m, S, A)
            if A is None:  # shift_output_bias evaluates the net on a state alone
                shift_output_bias(m, S[0], np.array([0.3, -0.2]))
                np.testing.assert_allclose(m.forward(S[0]), [0.3, -0.2], rtol=0, atol=1e-12)
                _assert_passes_follow_params(m, S, A)
            load_params(m, tmp_path / "donor.ckpt")
            _assert_passes_follow_params(m, S, A)
            assert np.array_equal(m.forward(S, A), donor.forward(S, A))
        for c in copies:
            assert not np.shares_memory(net.params, c.params)
        _assert_passes_follow_params(net.clone(), S, A)


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
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 3e-3
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


def test_adam_step_and_polyak_update_write_into_their_first_argument():
    g = np.array([0.5, -2.0, 1e-3])
    params = np.array([0.1, 0.2, 0.3])
    want = params - 0.1 * g / (np.abs(g) + 1e-8)  # the first step is lr * g / (|g| + eps)
    assert adam_step(params, g, 0.1, AdamState.for_params(3)) is params
    np.testing.assert_allclose(params, want, rtol=1e-12)
    stepped = params.copy()
    with pytest.raises(DivergenceError):
        adam_step(params, np.array([np.nan, 0.0, 0.0]), 0.1, AdamState.for_params(3))
    np.testing.assert_array_equal(params, stepped)

    target, online = np.zeros(4), np.ones(4)
    assert polyak_update(target, online, 0.25) is target
    np.testing.assert_array_equal(target, np.full(4, 0.25))
    np.testing.assert_array_equal(online, np.ones(4))
    with pytest.raises(ValueError):
        polyak_update(target, online, -0.1)
    np.testing.assert_array_equal(target, np.full(4, 0.25))


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


def test_checkpoint_partial_value_rejected(tmp_path):
    """A blob that is not a whole number of float64 values is a damaged checkpoint."""
    net = critic_net(2, 1, (5, 5), np.random.default_rng(10))
    path = tmp_path / "net.ckpt"
    save_params(net, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError, match=r"^bad checkpoint: .* not a whole number of float64"):
        load_params(net, path)


def test_checkpoint_non_ascii_header_rejected(tmp_path):
    net = critic_net(2, 1, (5, 5), np.random.default_rng(10))
    path = tmp_path / "net.ckpt"
    save_params(net, path)
    path.write_bytes(b"dims=\xff\xfe\n" + path.read_bytes().split(b"\n", 1)[1])
    with pytest.raises(ValueError, match=r"^bad checkpoint header .* not ASCII"):
        load_params(net, path)
