"""Noise schedule and the closed-form noising and reverse-step algebra.

All arrays are precomputed once at construction in float64 and never
recomputed per step. Step indices are 1-based at the API boundary
(t in {1, ..., T}); storage is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variance schedule and its derived quantities.

    beta[t-1] is the forward variance at step t, alpha = 1 - beta,
    alpha_bar the running product of alpha, and beta_tilde the posterior
    variance of the reverse conditional (beta_tilde[0] = beta[0]).
    """

    T: int
    beta: np.ndarray
    alpha: np.ndarray = field(repr=False)
    alpha_bar: np.ndarray = field(repr=False)
    beta_tilde: np.ndarray = field(repr=False)
    beta_start: float = 0.0
    beta_end: float = 0.0

    def _check_t(self, t) -> np.ndarray:
        t = np.asarray(t)
        if t.size == 0 or np.any(t < 1) or np.any(t > self.T):
            raise ValueError(f"step index out of range [1, {self.T}]: {t}")
        return t


def linear_beta_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linearly spaced beta in [beta_start, beta_end] over T steps."""
    if T < 1:
        raise ValueError("schedule needs at least one step")
    if not (0.0 < beta_start < 1.0 and 0.0 < beta_end < 1.0):
        raise ValueError("beta bounds must lie in (0, 1)")
    if T > 1 and not beta_start < beta_end:
        raise ValueError("beta_start must be strictly below beta_end")

    beta = np.linspace(beta_start, beta_end, T, dtype=np.float64)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    if not (np.all(np.diff(beta) > 0) and np.all(np.diff(alpha_bar, prepend=1.0) < 0)):
        raise ValueError("beta bounds too close or too small for a strictly monotone "
                         "float64 schedule")
    alpha_bar_prev = np.concatenate(([1.0], alpha_bar[:-1]))
    beta_tilde = (1.0 - alpha_bar_prev) / (1.0 - alpha_bar) * beta
    beta_tilde[0] = beta[0]

    for arr in (beta, alpha, alpha_bar, beta_tilde):
        arr.setflags(write=False)
    return NoiseSchedule(T=T, beta=beta, alpha=alpha, alpha_bar=alpha_bar,
                         beta_tilde=beta_tilde, beta_start=beta_start, beta_end=beta_end)


def _bcast(coef: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Expand per-batch-element scalars to broadcast against [B, ...] data."""
    coef = np.asarray(coef)
    if coef.ndim == 0:
        return coef
    return coef.reshape(coef.shape + (1,) * (like.ndim - coef.ndim))


def q_sample(x0: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Closed-form noising: sqrt(abar_t) * x0 + sqrt(1 - abar_t) * eps.

    t may be a scalar or a per-batch-element array of 1-based steps.
    """
    x0 = np.asarray(x0)
    eps = np.asarray(eps)
    if x0.shape != eps.shape:
        raise ValueError(f"q_sample shape mismatch: {x0.shape} vs {eps.shape}")
    t = sched._check_t(t)
    ab = sched.alpha_bar[t - 1]
    a = _bcast(np.sqrt(ab), x0)
    b = _bcast(np.sqrt(1.0 - ab), x0)
    return (a * x0 + b * eps).astype(x0.dtype, copy=False)


def predict_x0_from_eps(xt: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Invert the closed-form noising: x0 = (x_t - sqrt(1 - abar_t) * eps) / sqrt(abar_t)."""
    xt = np.asarray(xt)
    eps = np.asarray(eps)
    t = sched._check_t(t)
    ab = sched.alpha_bar[t - 1]
    a = _bcast(np.sqrt(ab), xt)
    b = _bcast(np.sqrt(1.0 - ab), xt)
    return ((xt - b * eps) / a).astype(xt.dtype, copy=False)


def mu_from_eps(xt: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Direct reverse-step mean: (x_t - (1 - alpha_t)/sqrt(1 - abar_t) * eps) / sqrt(alpha_t)."""
    xt = np.asarray(xt)
    t = sched._check_t(t)
    alpha_t = sched.alpha[t - 1]
    ab = sched.alpha_bar[t - 1]
    c = (1.0 - alpha_t) / np.sqrt(1.0 - ab)
    mean = (xt - _bcast(c, xt) * eps) / _bcast(np.sqrt(alpha_t), xt)
    return mean.astype(xt.dtype, copy=False)
