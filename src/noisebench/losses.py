"""Noise-robust classification losses and selective application by origin.

All functions operate on batches: ``probs`` is a (B, K) array of predicted
class probabilities (rows approximately on the simplex; entries are clamped
to [1e-7, 1] before any log or power) and ``targets`` is the matching (B, K)
one-hot array. Each returns per-sample losses and the gradient with respect
to ``probs``.

Four families are provided:

* ``cce``: plain categorical cross-entropy, -log(p_true).
* ``soft``: bootstrapped cross-entropy whose target is a convex combination
  (weight ``beta``) of the given label and the current prediction.
* ``lq``: (1 - p_true**q) / q, interpolating between cross-entropy (q -> 0)
  and an error-rate-like loss (q = 1) whose gradient weighs all samples
  equally.
* ``mask_max`` / ``mask_stat``: cross-entropy with per-batch masking that
  discards samples whose loss exceeds m * max(L) or median(L) + l * std(L).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .datasets import Origin
from .errors import ConfigError

P_MIN = 1e-7


class LossFamily(str, enum.Enum):
    CCE = "cce"
    SOFT = "soft"
    LQ = "lq"
    MASK_MAX = "mask_max"
    MASK_STAT = "mask_stat"


# Each robust family's one hyperparameter and its default. cce reads no
# field but ``family``; a robust family reads its parameter and ``selective``.
_PARAMETER = {LossFamily.SOFT: ("beta", 0.3), LossFamily.LQ: ("q", 0.7),
              LossFamily.MASK_MAX: ("m", 0.5), LossFamily.MASK_STAT: ("l", 1.9)}


def check_parameter(name: str, value: float) -> None:
    """Reject a robust loss hyperparameter outside its range."""
    if name == "q":
        if value == 0:
            raise ConfigError("q = 0 is the cross-entropy limit; use the cce family")
        ok, bounds = 0.0 < value <= 1.0, "in (0, 1]"
    elif name == "l":
        ok, bounds = value >= 0.0, ">= 0"
    else:  # beta, m
        ok, bounds = 0.0 <= value <= 1.0, "in [0, 1]"
    if not ok:
        raise ConfigError(f"{name} must be {bounds}, got {value}")


@dataclass(frozen=True)
class LossConfig:
    """Loss family selector with its hyperparameter.

    A family holds only the fields it reads: ``beta`` for soft
    bootstrapping, ``q`` for the lq loss, ``m`` for max-relative masking,
    ``l`` for statistics-based masking, each with ``selective``; cce holds
    none of them. A field left None takes the family's default (False for
    ``selective``), and one the family does not read must stay None. With
    ``selective`` set, clean-origin samples always contribute plain
    cross-entropy and only noisy-origin samples get the robust treatment
    (or are eligible for discarding).
    """

    family: LossFamily = LossFamily.CCE
    beta: float | None = None
    q: float | None = None
    m: float | None = None
    l: float | None = None
    selective: bool | None = None

    def __post_init__(self):
        family = LossFamily(self.family)
        object.__setattr__(self, "family", family)
        name, default = _PARAMETER.get(family, (None, None))
        own = {name: default, "selective": False} if name else {}
        for key in ("beta", "q", "m", "l", "selective"):
            value = getattr(self, key)
            if value is None and key in own:
                object.__setattr__(self, key, own[key])
            elif value is not None and key not in own:
                raise ConfigError(f"the {family.value} family reads no key {key!r}")
        if name:
            check_parameter(name, getattr(self, name))

    def label(self) -> str:
        """Short name for file names and report rows, e.g. ``lq_q0.7_sel``.
        The parameter is printed with ``:g`` when that reads back as the
        same value, and in full otherwise, so distinct values get distinct
        names."""
        name, _ = _PARAMETER.get(self.family, (None, None))
        suffix = ""
        if name:
            value = getattr(self, name)
            short = f"{value:g}"
            suffix = f"_{name[0]}{short if float(short) == value else repr(float(value))}"
        return self.family.value + suffix + ("_sel" if self.selective else "")


def one_hot(labels, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _clamped(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs)
    if probs.ndim != 2:
        raise ValueError(f"probs must be 2-d (batch, classes), got shape {probs.shape}")
    return np.clip(probs, P_MIN, 1.0)


def cce(probs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy -sum_k y_k log(p_k) per sample, with its gradient."""
    p = _clamped(probs)
    losses = -(targets * np.log(p)).sum(axis=1)
    grads = -targets / p
    return losses, grads


def soft_bootstrap(probs: np.ndarray, targets: np.ndarray,
                   beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Bootstrapped cross-entropy -sum_k (beta y_k + (1-beta) p_k) log(p_k).

    The gradient differentiates through both occurrences of the prediction.
    """
    check_parameter("beta", beta)
    p = _clamped(probs)
    log_p = np.log(p)
    losses = -((beta * targets + (1 - beta) * p) * log_p).sum(axis=1)
    grads = -beta * targets / p - (1 - beta) * (log_p + 1.0)
    return losses, grads


def lq_loss(probs: np.ndarray, targets: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """(1 - p_true**q) / q per sample; gradient -p_true**(q-1) on the true class.

    Unlike cross-entropy, whose gradient magnitude 1/p_true blows up on
    confidently-missed samples, q = 1 weighs every sample equally.
    """
    check_parameter("q", q)
    p = _clamped(probs)
    p_true = (targets * p).sum(axis=1)
    losses = (1.0 - p_true**q) / q
    grads = -targets * (p_true ** (q - 1.0))[:, None]
    return losses, grads


def _threshold(losses: np.ndarray, cfg: LossConfig) -> float:
    if cfg.family is LossFamily.MASK_MAX:
        return cfg.m * float(losses.max())
    if cfg.family is LossFamily.MASK_STAT:
        if losses.size < 2:
            raise ValueError("statistics-based masking needs at least 2 samples")
        return float(np.median(losses)) + cfg.l * float(losses.std())
    raise ConfigError(f"{cfg.family.value} is not a masking family")


def mask_threshold(losses: np.ndarray, cfg: LossConfig,
                   keep: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Kept sample indices and the threshold for a masking loss config.

    ``mask_max`` uses t = m * max(L); ``mask_stat`` uses t = median(L) +
    l * std(L) with the population standard deviation, both over the whole
    batch. Samples with loss strictly greater than t are discarded, unless
    the bool mask ``keep`` marks them as never discarded. If that would
    discard everything (an all-equal batch with m < 1, say), all samples
    are kept instead.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or losses.size == 0:
        raise ValueError("losses must be a non-empty 1-d array")
    t = _threshold(losses, cfg)
    within = losses <= t
    kept = np.flatnonzero(within if keep is None else keep | within)
    if kept.size == 0:
        kept = np.arange(losses.size)
    return kept, t


def _clean_mask(origins, batch_size: int) -> np.ndarray:
    mask = np.empty(batch_size, dtype=bool)
    for i, origin in enumerate(origins):
        try:
            mask[i] = Origin(origin) is Origin.CLEAN
        except ValueError:
            raise ValueError(f"unknown origin flag {origin!r} at position {i}") from None
    return mask


def selective_batch_loss(
    probs: np.ndarray,
    targets: np.ndarray,
    origins,
    cfg: LossConfig,
) -> tuple[float, np.ndarray]:
    """Total batch loss and per-sample gradients of that total.

    The total is the arithmetic mean over contributing samples; samples
    discarded by masking (``mask_threshold``) contribute zero loss and zero
    gradient. With ``selective`` set, clean-origin samples always contribute
    plain cross-entropy and are never discarded.
    """
    probs = np.asarray(probs)
    targets = np.asarray(targets)
    if probs.shape != targets.shape or probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError(f"bad batch shapes: probs {probs.shape}, targets {targets.shape}")
    batch = probs.shape[0]
    if len(origins) != batch:
        raise ValueError(f"{len(origins)} origin flags for batch of {batch}")
    clean = _clean_mask(origins, batch)

    family = cfg.family
    if family is LossFamily.SOFT:
        losses, grads = soft_bootstrap(probs, targets, cfg.beta)
    elif family is LossFamily.LQ:
        losses, grads = lq_loss(probs, targets, cfg.q)
    else:
        losses, grads = cce(probs, targets)
    if family in (LossFamily.SOFT, LossFamily.LQ) and cfg.selective and clean.any():
        cce_losses, cce_grads = cce(probs, targets)
        losses = np.where(clean, cce_losses, losses)
        grads = np.where(clean[:, None], cce_grads, grads)
    if family in (LossFamily.MASK_MAX, LossFamily.MASK_STAT):
        kept, _ = mask_threshold(losses, cfg, keep=clean if cfg.selective else None)
    else:
        kept = np.arange(batch)

    total = float(losses[kept].mean())
    out_grads = np.zeros_like(grads)
    out_grads[kept] = grads[kept] / kept.size
    return total, out_grads
