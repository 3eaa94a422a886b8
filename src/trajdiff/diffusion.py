"""Training objective, skip-step DDIM sampling, and classifier-free guidance.

Ancestral DDPM sampling is the eta = 1, S = T case of the DDIM update, so the
sampler has a single reverse-chain loop.

Sampling randomness is keyed per trajectory index (see trajdiff.rng), and
work is partitioned into fixed micro-batches by index, so generated output
is bit-identical for any worker count. Training is single-writer on the
parameter set.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .errors import NumericError
from .rng import stream
from .schedule import NoiseSchedule, mu_from_eps, predict_x0_from_eps, q_sample
from .tensor import Tensor
from .trajdata import ConditionBatch

# Clamp the clean-sample estimate to this many normalized units during
# sampling; keeps the reverse chain contractive for imperfect models and is
# inert for a perfect denoiser (data lives in [-1, 1]).
CLIP_X0 = 1.5


@dataclass
class TrainConfig:
    steps: int = 3000
    batch_size: int = 64
    learning_rate: float = 2e-4
    cond_dropout_prob: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.cond_dropout_prob <= 1.0:
            raise ValueError("condition dropout probability must lie in [0, 1]")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


def skip_subsequence(T: int, S: int) -> np.ndarray:
    """Uniform-stride step subsequence: stride ceil(T/S), ending exactly at T."""
    if not 1 <= S <= T:
        raise ValueError(f"sample steps must lie in [1, {T}]")
    stride = math.ceil(T / S)
    tau = np.arange(T, 0, -stride)[::-1].copy()
    assert tau[-1] == T and np.all(np.diff(tau) > 0)
    return tau


@dataclass
class SamplerConfig:
    total_steps: int = 100
    sample_steps: int = 20
    eta: float = 0.0
    guidance_scale: float = 3.0
    seed: int = 0
    tau: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be non-negative")
        self.tau = skip_subsequence(self.total_steps, self.sample_steps)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adaptive moment estimation over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 2e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self._m[k]
            v = self._v[k]
            m += (1.0 - self.b1) * (g - m)
            v += (1.0 - self.b2) * (g * g - v)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def training_loss(model, x0_batch: np.ndarray, cond_batch: ConditionBatch | None,
                  sched: NoiseSchedule, rng: np.random.Generator,
                  cond_dropout_prob: float = 0.0) -> Tensor:
    """Noise-prediction objective: per-element squared error summed over the
    trajectory dims, averaged over the batch.

    Draws one uniform step and one standard-normal noise field per batch
    element from rng (in that order, then the dropout mask), so a fixed rng
    state fully determines the loss.
    """
    x0_batch = np.asarray(x0_batch, dtype=np.float32)
    B = x0_batch.shape[0]
    if B == 0:
        raise ValueError("empty training batch")
    t = rng.integers(1, sched.T + 1, size=B)
    eps = rng.standard_normal(x0_batch.shape).astype(np.float32)
    if cond_batch is not None and cond_dropout_prob > 0.0:
        cond_batch = cond_batch.with_dropout(rng, cond_dropout_prob)
    x_t = q_sample(x0_batch, t, eps, sched)
    eps_hat = model(x_t, t, cond_batch)
    # the mean over all B * C * L elements, rescaled to a mean over the batch
    return tz.mul(tz.mse(eps_hat, Tensor(eps)), float(eps[0].size))


def train(model, x0_data: np.ndarray, cond_data: ConditionBatch | None,
          cfg: TrainConfig, sched: NoiseSchedule) -> np.ndarray:
    """Optimize the model in place; returns the per-step loss history.

    Aborts with NumericError if the loss goes non-finite.
    """
    x0_data = np.asarray(x0_data, dtype=np.float32)
    n = x0_data.shape[0]
    if n == 0:
        raise ValueError("empty training dataset")
    if cond_data is not None and len(cond_data) != n:
        raise ValueError("condition count does not match dataset size")
    rng = stream(cfg.seed)
    opt = Adam(model.params, lr=cfg.learning_rate)
    history = np.empty(cfg.steps, dtype=np.float64)
    for step_i in range(cfg.steps):
        idx = rng.integers(0, n, size=cfg.batch_size)
        x0 = x0_data[idx]
        cond = cond_data.take(idx) if cond_data is not None else None
        opt.zero_grad()
        tz.reset_tape()
        loss = training_loss(model, x0, cond, sched, rng,
                             cond_dropout_prob=cfg.cond_dropout_prob)
        val = loss.item()
        if not math.isfinite(val):
            raise NumericError(f"training diverged at step {step_i}: loss={val}")
        tz.backward(loss)
        opt.step()
        history[step_i] = val
    return history


# ---------------------------------------------------------------------------
# guidance and sampler steps
# ---------------------------------------------------------------------------

def guided_eps(model, x_t: np.ndarray, t: np.ndarray, cond: ConditionBatch | None,
               omega: float) -> np.ndarray:
    """Classifier-free guided noise: (1+w) * conditional - w * unconditional.

    At w == 0, or without conditions (both branches unconditional), this is
    exactly the conditional prediction from a single model pass.
    """
    with tz.no_grad():
        eps_c = model(x_t, t, cond).data
        if omega == 0.0 or cond is None:
            return eps_c
        eps_u = model(x_t, t, None).data
    return (1.0 + omega) * eps_c - omega * eps_u


def _clip_eps(x_t: np.ndarray, t: int, eps_hat: np.ndarray, sched: NoiseSchedule,
              clip_x0: float) -> np.ndarray:
    """Re-derive the noise prediction after clamping the implied clean sample.

    Inert whenever the implied x0 already lies within the clamp range.
    """
    x0_hat = predict_x0_from_eps(x_t, t, eps_hat, sched)
    clipped = np.clip(x0_hat, -clip_x0, clip_x0)
    if np.array_equal(clipped, x0_hat):
        return eps_hat
    ab = sched.alpha_bar[t - 1]
    return ((x_t - np.sqrt(ab) * clipped) / np.sqrt(1.0 - ab)).astype(eps_hat.dtype, copy=False)


def ddpm_step(model, x_t: np.ndarray, t: int, cond: ConditionBatch | None,
              omega: float, sched: NoiseSchedule,
              z: np.ndarray | None, clip_x0: float | None = None) -> np.ndarray:
    """One ancestral reverse step; adds no noise at the terminal step t == 1.

    z is the pre-drawn standard-normal field, unused (may be None) at t == 1.
    No production path calls this: the DDIM step at eta = 1, t_prev = t - 1 is
    the same transition. It stays as the ancestral reference that
    test_full_chain_eta1_tracks_ddpm compares the DDIM chain against, and
    perfbench/tracing.py wraps it by name.
    """
    if not 1 <= t <= sched.T:
        raise ValueError(f"step index out of range [1, {sched.T}]")
    eps_hat = guided_eps(model, x_t, np.full(x_t.shape[0], t), cond, omega)
    if clip_x0 is not None:
        eps_hat = _clip_eps(x_t, t, eps_hat, sched, clip_x0)
    mean = mu_from_eps(x_t, t, eps_hat, sched)
    if t == 1:
        return mean.astype(np.float32, copy=False)
    out = mean + np.sqrt(sched.beta_tilde[t - 1]) * z
    return out.astype(np.float32, copy=False)


def ddim_transition(x_t: np.ndarray, t: int, t_prev: int, eps_hat: np.ndarray,
                    eta: float, sched: NoiseSchedule) -> tuple[np.ndarray, float]:
    """Deterministic part of the skip-step update: returns (mean, variance).

    mean = sqrt(abar_prev) * x0_hat + sqrt(1 - abar_prev - sigma^2) * eps_hat
    with sigma^2 = eta * beta_tilde at the current step; t_prev == 0 lands on
    the clean sample exactly (terminal step, variance forced to zero).
    """
    if not (0 <= t_prev < t <= sched.T):
        raise ValueError(f"need 0 <= t_prev < t <= {sched.T}, got {t_prev}, {t}")
    x0_hat = predict_x0_from_eps(x_t, t, eps_hat, sched)
    if t_prev == 0:
        return x0_hat, 0.0
    sigma2 = eta * sched.beta_tilde[t - 1]
    ab_prev = sched.alpha_bar[t_prev - 1]
    radicand = 1.0 - ab_prev - sigma2
    if radicand < 0:
        raise NumericError(f"infeasible (eta, tau) combination at t={t}: "
                           f"1 - abar_{t_prev} - sigma^2 = {radicand:.3e} < 0")
    mean = np.sqrt(ab_prev) * x0_hat + np.sqrt(radicand) * eps_hat
    return mean, float(sigma2)


def ddim_step(model, x_t: np.ndarray, t: int, t_prev: int, cond: ConditionBatch | None,
              omega: float, eta: float, sched: NoiseSchedule,
              z: np.ndarray | None, clip_x0: float | None = None) -> np.ndarray:
    """One skip-step reverse transition from step t to step t_prev (< t).

    z is the pre-drawn standard-normal field, unused (may be None) when the
    step's variance is zero: at eta == 0 or t_prev == 0.
    """
    eps_hat = guided_eps(model, x_t, np.full(x_t.shape[0], t), cond, omega)
    if clip_x0 is not None:
        eps_hat = _clip_eps(x_t, t, eps_hat, sched, clip_x0)
    mean, sigma2 = ddim_transition(x_t, t, t_prev, eps_hat, eta, sched)
    if sigma2 == 0.0:
        return mean.astype(np.float32, copy=False)
    return (mean + math.sqrt(sigma2) * z).astype(np.float32, copy=False)


# ---------------------------------------------------------------------------
# batch sampling
# ---------------------------------------------------------------------------

def _sample_micro_batch(model, cond: ConditionBatch | None, cfg: SamplerConfig,
                        sched: NoiseSchedule, indices: np.ndarray,
                        length: int, channels: int) -> np.ndarray:
    """Run the reverse chain for one fixed micro-batch of trajectory indices."""
    gens = [stream(cfg.seed, int(i)) for i in indices]
    shape = (channels, length)
    x = np.stack([g.standard_normal(shape) for g in gens]).astype(np.float32)

    tau = cfg.tau
    for k in range(len(tau) - 1, -1, -1):
        t = int(tau[k])
        t_prev = int(tau[k - 1]) if k > 0 else 0
        z = None
        if cfg.eta > 0.0 and t_prev > 0:
            z = np.stack([g.standard_normal(shape) for g in gens]).astype(np.float32)
        x = ddim_step(model, x, t, t_prev, cond, cfg.guidance_scale, cfg.eta, sched, z,
                      clip_x0=CLIP_X0)
    return x


def sample(model, cond_batch: ConditionBatch | None, cfg: SamplerConfig,
           sched: NoiseSchedule, n: int | None = None, workers: int = 1,
           micro_batch: int = 128) -> tuple[np.ndarray, dict]:
    """Generate trajectories in normalized coordinates.

    Returns (batch [n, C, L], stats). Trajectory i's randomness comes from
    stream (seed, i); micro-batch boundaries depend only on the index, so any
    worker count yields identical bytes.

    When min(workers, micro-batches) > 1 the micro-batches run on a thread
    pool of that size. The pool is then the parallelism, so OpenBLAS runs
    single-threaded inside it and gets the caller's thread count back after
    it, whether the pool returns or raises. One worker leaves BLAS alone.
    """
    if sched.T != cfg.total_steps:
        raise ValueError("sampler and schedule disagree on the step count")
    if micro_batch < 1:
        raise ValueError(f"micro-batch size must be at least 1, got {micro_batch}")
    if n is None:
        if cond_batch is None:
            raise ValueError("need either conditions or an explicit count")
        n = len(cond_batch)
    if cond_batch is not None and len(cond_batch) != n:
        raise ValueError("condition count does not match requested sample count")
    length = model.config.length
    channels = model.config.in_channels
    out = np.empty((n, channels, length), dtype=np.float32)
    bounds = [(s, min(s + micro_batch, n)) for s in range(0, n, micro_batch)]

    def run(b):
        lo, hi = b
        idx = np.arange(lo, hi)
        cond = cond_batch.take(idx) if cond_batch is not None else None
        out[lo:hi] = _sample_micro_batch(model, cond, cfg, sched, idx, length, channels)

    pool_size = max(1, min(workers, len(bounds)))
    if pool_size == 1:
        blas = tz.blas_threads()
        for b in bounds:
            run(b)
    else:
        with tz.single_threaded_blas() as blas, ThreadPoolExecutor(max_workers=pool_size) as pool:
            list(pool.map(run, bounds))

    guided = cfg.guidance_scale != 0.0 and cond_batch is not None
    evals_per_traj = len(cfg.tau) * (2 if guided else 1)
    stats = {
        "n": n,
        "steps": len(cfg.tau),
        "model_evals": n * evals_per_traj,
        "eta": cfg.eta,
        "guidance_scale": cfg.guidance_scale,
        "seed": cfg.seed,
        "workers": pool_size,
        "blas_threads": blas,
    }
    return out, stats
