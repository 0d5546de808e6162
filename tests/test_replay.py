"""Replay buffer FIFO semantics, sampling distribution, phantom resampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from smoothie_rl.replay import (
    Batch,
    NotReadyError,
    ReplayBuffer,
    Transition,
    phantom_actions,
)


def _t(i: float) -> Transition:
    return Transition(
        state=np.array([i]),
        action=np.array([i]),
        reward=float(i),
        next_state=np.array([i + 1.0]),
        done=False,
    )


def _as_batch(transitions) -> Batch:
    """The transitions as a Batch, through the buffer path that training uses."""
    buf = ReplayBuffer(len(transitions))
    for t in transitions:
        buf.push(t)
    return buf.gather(np.arange(len(transitions)))


def test_capacity_validation():
    with pytest.raises(ValueError):
        ReplayBuffer(0)


def test_empty_buffer_raises_not_ready():
    buf = ReplayBuffer(4)
    with pytest.raises(NotReadyError):
        buf.sample(1, np.random.default_rng(0))
    buf.push(_t(0))
    # a single element is enough: sampling draws with replacement
    batch = buf.sample(3, np.random.default_rng(0))
    assert all(col.shape[0] == 3 for col in batch)


def test_sample_rejects_bad_batch_size():
    buf = ReplayBuffer(4)
    buf.push(_t(0))
    with pytest.raises(ValueError):
        buf.sample(0, np.random.default_rng(0))


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 8),
    values=st.lists(st.integers(0, 100), min_size=0, max_size=40),
)
def test_fifo_eviction_matches_deque_model(capacity, values):
    from collections import deque

    buf = ReplayBuffer(capacity)
    model = deque(maxlen=capacity)
    for v in values:
        buf.push(_t(float(v)))
        model.append(float(v))
    held = sorted(buf.gather(np.arange(len(buf))).R) if len(buf) else []
    assert held == sorted(model)
    assert len(buf) == len(model)


def test_sampling_is_uniform():
    buf = ReplayBuffer(16)
    for i in range(16):
        buf.push(_t(float(i)))
    rng = np.random.default_rng(5)
    counts = np.zeros(16)
    draws = 16000
    batch = buf.sample(draws, rng)
    for r in batch.R:
        counts[int(r)] += 1
    chi2 = float(np.sum((counts - draws / 16) ** 2 / (draws / 16)))
    # 15 dof; 0.999 quantile ~ 37.7
    assert chi2 < stats.chi2.ppf(0.999, df=15)


def test_sampling_deterministic_given_rng():
    buf = ReplayBuffer(8)
    for i in range(8):
        buf.push(_t(float(i)))
    a = list(buf.sample(5, np.random.default_rng(42)).R)
    b = list(buf.sample(5, np.random.default_rng(42)).R)
    assert a == b


def test_push_gather_columns():
    batch = [
        Transition(np.array([1.0, 2.0]), np.array([0.1]), 3.0, np.array([4.0, 5.0]), True),
        Transition(np.array([6.0, 7.0]), np.array([0.2]), 8.0, np.array([9.0, 10.0]), False),
    ]
    S, A, R, S2, D = _as_batch(batch)
    assert S.shape == (2, 2) and A.shape == (2, 1) and S2.shape == (2, 2)
    assert np.array_equal(R, np.array([3.0, 8.0]))
    assert np.array_equal(D, np.array([1.0, 0.0]))


def test_phantom_actions_center_and_spread():
    batch = _as_batch([_t(0.0) for _ in range(4000)])
    var = np.array([0.25])
    draws = phantom_actions(batch, var, np.random.default_rng(0))
    assert draws.shape == (4000, 1)
    assert abs(float(draws.mean())) < 4.0 * 0.5 / np.sqrt(4000)
    assert float(draws.std()) == pytest.approx(0.5, rel=0.05)


def test_phantom_actions_zero_variance_returns_stored():
    batch = _as_batch([_t(float(i)) for i in range(5)])
    draws = phantom_actions(batch, np.array([0.0]), np.random.default_rng(1))
    assert np.array_equal(draws[:, 0], np.arange(5.0))


def test_phantom_actions_rejects_negative_variance():
    with pytest.raises(ValueError):
        phantom_actions(_as_batch([_t(0.0)]), np.array([-1.0]), np.random.default_rng(0))
