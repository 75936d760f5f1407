"""Adam optimizer and the validation-accuracy schedules used in training."""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .layers import Param


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam with bias correction; updates parameter values in place. The
    moments are held in lists aligned with ``params``, so parameters that
    share a name (a network rebuilt from a checkpoint) keep their own."""

    def __init__(self, params: list[Param], learning_rate: float = 0.001):
        self.params = params
        self.learning_rate = learning_rate
        self.step_count = 0
        self._m = [np.zeros_like(p.value) for p in params]
        self._v = [np.zeros_like(p.value) for p in params]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            if not np.all(np.isfinite(p.grad)):
                raise NumericError(f"non-finite gradient for parameter {p.name!r}")
            m *= BETA1
            m += (1 - BETA1) * p.grad
            v *= BETA2
            v += (1 - BETA2) * np.square(p.grad)
            m_hat = m / (1 - BETA1**t)
            v_hat = v / (1 - BETA2**t)
            p.value -= (self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)).astype(
                p.value.dtype
            )


def plateau_lr(history: list[float], initial_lr: float, window: int = 5) -> float:
    """Learning rate after replaying the halving rule over an accuracy history.

    The rate is halved once each time the best value fails to improve for
    ``window`` consecutive epochs; the stall counter then restarts, so a
    stall of 2 * window epochs halves twice.
    """
    lr = initial_lr
    best = -np.inf
    stalled = 0
    for acc in history:
        if acc > best:
            best = acc
            stalled = 0
        else:
            stalled += 1
            if stalled == window:
                lr /= 2.0
                stalled = 0
    return lr


def should_stop(history: list[float], patience: int = 15) -> bool:
    """True once the best accuracy has not improved for ``patience`` epochs."""
    best = -np.inf
    stalled = 0
    for acc in history:
        if acc > best:
            best = acc
            stalled = 0
        else:
            stalled += 1
    return stalled >= patience
