"""FIFO replay buffer and phantom-action resampling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class NotReadyError(RuntimeError):
    """Raised when sampling from an empty buffer."""


@dataclass
class Transition:
    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    done: bool


class Batch(NamedTuple):
    """Columns of a transition batch, one row per transition.

    ``D`` holds 1.0 for terminal rows.  The batch size is ``S.shape[0]``.
    """

    S: np.ndarray
    A: np.ndarray
    R: np.ndarray
    S2: np.ndarray
    D: np.ndarray


class ReplayBuffer:
    """Fixed-capacity ring of column arrays; oldest transitions are evicted first.

    The columns are allocated on the first push, shaped after its state and
    action, and left unfilled: only slots a push has written are read, and
    zero-filling would touch every page of a column that reuses freed heap
    memory, though a short run writes only a small part of it.
    """

    def __init__(self, capacity: int = 100_000):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._cols: Batch | None = None
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def push(self, t: Transition) -> None:
        cols = self._cols
        if cols is None:
            cap = self.capacity
            cols = self._cols = Batch(
                S=np.empty((cap,) + np.shape(t.state)),
                A=np.empty((cap,) + np.shape(t.action)),
                R=np.empty(cap),
                S2=np.empty((cap,) + np.shape(t.next_state)),
                D=np.empty(cap),
            )
        for col, value in ((cols.S, t.state), (cols.A, t.action), (cols.S2, t.next_state)):
            if np.shape(value) != col.shape[1:]:
                raise ValueError(f"transition field of shape {np.shape(value)}, buffer holds {col.shape[1:]}")
        i = self._cursor
        cols.S[i] = t.state
        cols.A[i] = t.action
        cols.R[i] = t.reward
        cols.S2[i] = t.next_state
        cols.D[i] = 1.0 if t.done else 0.0
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def gather(self, idx) -> Batch:
        """The held transitions at slot indices ``idx`` (each below ``len(self)``)."""
        cols = self._cols
        return Batch(cols.S.take(idx, axis=0), cols.A.take(idx, axis=0), cols.R[idx],
                     cols.S2.take(idx, axis=0), cols.D[idx])

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        """Uniform sampling with replacement."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not self._size:
            raise NotReadyError("replay buffer is empty")
        return self.gather(rng.integers(0, self._size, size=batch_size))


def phantom_actions(batch: Batch, variance, rng: np.random.Generator) -> np.ndarray:
    """Resample each stored action from a Gaussian centred on it.

    ``variance`` is the per-dimension variance vector shared by every row.
    """
    var = np.asarray(variance, dtype=float)
    if (var < 0.0).any() or not np.isfinite(var).all():
        raise ValueError("phantom variances must be finite and nonnegative")
    A = batch.A
    return A + np.sqrt(var) * rng.standard_normal(A.shape)
