"""Training objective, skip-step DDIM sampling, and classifier-free guidance.

Ancestral DDPM sampling is the eta = 1, S = T case of the DDIM update, so the
sampler has a single reverse-chain loop, and ddpm_step is ddim_step at eta = 1
between adjacent steps.

Sampling randomness is keyed per trajectory index (see trajdiff.rng), and
work is partitioned into fixed micro-batches by index, so generated output
is bit-identical for any worker count. More than one worker means a pool of
forked processes, each running its micro-batches with OpenBLAS at one
thread (see sample). Training is single-writer on the parameter set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .errors import NumericError
from .rng import stream
# mu_from_eps is not called here; perfbench/tracing.py wraps it under this
# module's name
from .schedule import NoiseSchedule, mu_from_eps, predict_x0_from_eps, q_sample
from .tensor import Tensor
from .trajdata import ConditionBatch, is_finite

# Clamp the clean-sample estimate to this many normalized units during
# sampling; keeps the reverse chain contractive for imperfect models and is
# inert for a perfect denoiser (data lives in [-1, 1]).
CLIP_X0 = 1.5

# Trajectories per sampling micro-batch; `trajdiff generate --batch` defaults to it.
MICRO_BATCH = 128


@dataclass
class TrainConfig:
    """The desk training recipe; `trajdiff train` takes its defaults from here."""
    steps: int = 3000
    batch_size: int = 64
    learning_rate: float = 1e-3
    cond_dropout_prob: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.cond_dropout_prob <= 1.0:
            raise ValueError("condition dropout probability must lie in [0, 1]")
        if not (is_finite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning rate must be finite and positive")


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
        if not (is_finite(self.eta) and self.eta >= 0 and is_finite(self.guidance_scale)):
            raise ValueError(f"need a finite eta >= 0 and a finite guidance scale, "
                             f"got eta={self.eta}, guidance_scale={self.guidance_scale}")
        self.tau = skip_subsequence(self.total_steps, self.sample_steps)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adaptive moment estimation over a named parameter dict (Kingma & Ba's b1, b2, eps)."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
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

    Aborts with NumericError if an op's output, the loss included, goes
    non-finite; the message names the step, counted from 0.
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
        try:
            loss = training_loss(model, x0, cond, sched, rng,
                                 cond_dropout_prob=cfg.cond_dropout_prob)
        except NumericError as e:
            raise NumericError(f"step {step_i}: {e}") from e
        tz.backward(loss)
        opt.step()
        history[step_i] = loss.item()
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


def _clip_eps(x_t: np.ndarray, t: int, eps_hat: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Re-derive the noise prediction after clamping the implied x0 to +-CLIP_X0.

    Inert whenever the implied x0 already lies within the clamp range.
    """
    x0_hat = predict_x0_from_eps(x_t, t, eps_hat, sched)
    clipped = np.clip(x0_hat, -CLIP_X0, CLIP_X0)
    if np.array_equal(clipped, x0_hat):
        return eps_hat
    ab = sched.alpha_bar[t - 1]
    return ((x_t - np.sqrt(ab) * clipped) / np.sqrt(1.0 - ab)).astype(eps_hat.dtype, copy=False)


def ddpm_step(model, x_t: np.ndarray, t: int, cond: ConditionBatch | None,
              omega: float, sched: NoiseSchedule,
              z: np.ndarray | None) -> np.ndarray:
    """One ancestral DDPM step: ddim_step from t to t - 1 at eta = 1.

    No production path calls this; it stays because perfbench/tracing.py
    wraps it by name. tests/test_diffusion.py keeps the ancestral posterior
    step (mu_from_eps plus sqrt(beta_tilde_t) * z) as the oracle of this
    equivalence.
    """
    return ddim_step(model, x_t, t, t - 1, cond, omega, 1.0, sched, z)


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
              z: np.ndarray | None) -> np.ndarray:
    """One skip-step reverse transition from step t to t_prev (< t), x0 clamped to +-CLIP_X0.

    z is the pre-drawn standard-normal field, unused (may be None) when the
    step's variance is zero: at eta == 0 or t_prev == 0.
    """
    eps_hat = guided_eps(model, x_t, np.full(x_t.shape[0], t), cond, omega)
    eps_hat = _clip_eps(x_t, t, eps_hat, sched)
    mean, sigma2 = ddim_transition(x_t, t, t_prev, eps_hat, eta, sched)
    if sigma2 == 0.0:
        return mean.astype(np.float32, copy=False)
    return (mean + math.sqrt(sigma2) * z).astype(np.float32, copy=False)


# ---------------------------------------------------------------------------
# batch sampling
# ---------------------------------------------------------------------------

def _sample_micro_batch(model, cond_batch: ConditionBatch | None, cfg: SamplerConfig,
                        sched: NoiseSchedule, lo: int, hi: int) -> np.ndarray:
    """Run the reverse chain for one fixed micro-batch, trajectories lo..hi-1."""
    cond = cond_batch.take(np.arange(lo, hi)) if cond_batch is not None else None
    gens = [stream(cfg.seed, i) for i in range(lo, hi)]
    shape = (model.config.in_channels, model.config.length)
    x = np.stack([g.standard_normal(shape) for g in gens]).astype(np.float32)

    tau = cfg.tau
    for k in range(len(tau) - 1, -1, -1):
        t = int(tau[k])
        t_prev = int(tau[k - 1]) if k > 0 else 0
        z = None
        if cfg.eta > 0.0 and t_prev > 0:
            z = np.stack([g.standard_normal(shape) for g in gens]).astype(np.float32)
        x = ddim_step(model, x, t, t_prev, cond, cfg.guidance_scale, cfg.eta, sched, z)
    return x


# (model, cond_batch, cfg, sched) of the pool this process works for; set by
# _start_worker and only ever inside a pool worker process
_worker_job = None


def _start_worker(model, cond_batch, cfg, sched) -> None:
    """Pool initializer: keep the sampling job and run OpenBLAS at one thread."""
    global _worker_job
    _worker_job = (model, cond_batch, cfg, sched)
    tz.set_blas_threads(1)


def _sample_in_worker(lo: int, hi: int) -> np.ndarray:
    return _sample_micro_batch(*_worker_job, lo, hi)


def _sample_pooled(model, cond_batch: ConditionBatch | None, cfg: SamplerConfig,
                   sched: NoiseSchedule, bounds: list[tuple[int, int]], pool_size: int,
                   out: np.ndarray) -> None:
    """Run the micro-batches on pool_size forked worker processes, into out."""
    # imported here: multiprocessing adds about 20 ms to the start-up of every
    # process, and runs with one worker never need it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    # fork hands the job to the workers as the caller's memory: nothing is pickled
    with ProcessPoolExecutor(pool_size, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker,
                             initargs=(model, cond_batch, cfg, sched)) as pool:
        futures = {pool.submit(_sample_in_worker, lo, hi): (lo, hi) for lo, hi in bounds}
        try:
            for f in as_completed(futures):
                lo, hi = futures[f]
                out[lo:hi] = f.result()
        except BaseException:
            # the first failure drops the micro-batches not yet started; leaving
            # the block then waits for the running ones, so no worker outlives it
            pool.shutdown(cancel_futures=True)
            raise


def sample(model, cond_batch: ConditionBatch | None, cfg: SamplerConfig,
           sched: NoiseSchedule, n: int | None = None, workers: int = 1,
           micro_batch: int = MICRO_BATCH) -> tuple[np.ndarray, dict]:
    """Generate trajectories in normalized coordinates.

    Returns (batch [n, C, L], stats). Trajectory i's randomness comes from
    stream (seed, i); micro-batch boundaries depend only on the index, so any
    worker count yields identical bytes.

    When min(workers, micro-batches) > 1 the micro-batches run on a pool of
    that many worker processes, forked from the caller, so they run free of
    the interpreter lock and see the model, conditions and schedule without
    pickling them. Each worker runs OpenBLAS at one thread, since the pool is
    then the parallelism; the caller's own count is never changed. The first
    micro-batch to fail cancels those not yet started, and its error, such as
    a NumericError, reaches the caller once every worker has exited. One
    worker runs everything in this process and leaves BLAS alone.
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
    out = np.empty((n, model.config.in_channels, model.config.length), dtype=np.float32)
    bounds = [(s, min(s + micro_batch, n)) for s in range(0, n, micro_batch)]

    pool_size = max(1, min(workers, len(bounds)))
    blas = tz.blas_threads()
    if pool_size == 1:
        for lo, hi in bounds:
            out[lo:hi] = _sample_micro_batch(model, cond_batch, cfg, sched, lo, hi)
    else:
        _sample_pooled(model, cond_batch, cfg, sched, bounds, pool_size, out)
        blas = None if blas is None else 1  # what each worker set

    guided = cfg.guidance_scale != 0.0 and cond_batch is not None
    evals_per_traj = len(cfg.tau) * (2 if guided else 1)
    stats = {
        "n": n,
        "steps": len(cfg.tau),
        "model_evals": n * evals_per_traj,
        "workers": pool_size,
        "blas_threads": blas,
    }
    return out, stats
