"""Adam optimizer."""

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

