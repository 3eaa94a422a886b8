"""Training objective, skip-step DDIM sampling, and classifier-free guidance.

Ancestral DDPM sampling is the eta = 1, S = T case of the DDIM update, so the
sampler has a single reverse-chain loop, and ddpm_step is ddim_step at eta = 1
between adjacent steps.

Sampling randomness is keyed per trajectory index (see trajdiff.rng), and
work is partitioned into fixed micro-batches by index, so generated output
is bit-identical for any worker count. Training works the same way: each
batch splits into TRAIN_SHARDS fixed row ranges whose gradients are summed
in shard order, so the trained bytes never depend on the worker count.

Both run their fixed units (micro-batches, shards) through one fork helper,
_forked: the caller runs the first contiguous block of units and one forked
worker runs each other block, every process at one OpenBLAS thread. Workers
report b".", b"N" (a NumericError) or b"E" (any other error) through a pipe
and write their results into an anonymous shared mmap: sampled rows (see
sample), or shard gradients that every process sums and applies to its own
copy of the parameters (see train). No worker outlives the call.
"""

from __future__ import annotations

import contextlib
import functools
import math
import mmap
import os
import select
import signal
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .errors import NumericError, WorkerError
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

# Fixed row ranges each training batch splits into; a step's gradient is the
# sum of theirs in this order, so training bytes depend on this count and
# never on how many processes run the shards.
TRAIN_SHARDS = 2


@dataclass
class TrainConfig:
    """The desk training recipe; `trajdiff train` takes its defaults from here."""
    steps: int = 3000
    batch_size: int = 64
    learning_rate: float = 1e-3
    cond_dropout_prob: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be at least 0, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
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
    sample_steps: int | None = None  # None: max(1, total_steps // 5)
    eta: float = 0.0
    guidance_scale: float = 3.0
    seed: int = 0
    tau: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (is_finite(self.eta) and self.eta >= 0 and is_finite(self.guidance_scale)):
            raise ValueError(f"need a finite eta >= 0 and a finite guidance scale, "
                             f"got eta={self.eta}, guidance_scale={self.guidance_scale}")
        if self.sample_steps is None:
            self.sample_steps = max(1, self.total_steps // 5)
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
                  cond_dropout_prob: float = 0.0,
                  rows: tuple[int, int] | None = None) -> Tensor:
    """Noise-prediction objective: per-element squared error summed over the
    trajectory dims, averaged over the batch.

    Draws one uniform step and one standard-normal noise field per batch
    element from rng (in that order, then the dropout mask), so a fixed rng
    state fully determines the loss. rows = (lo, hi) runs the model on batch
    rows lo..hi-1 only, after the same draws for the whole batch, and returns
    that shard's share of the batch loss; None means every row.
    """
    x0_batch = np.asarray(x0_batch, dtype=np.float32)
    B = x0_batch.shape[0]
    if B == 0:
        raise ValueError("empty training batch")
    lo, hi = (0, B) if rows is None else rows
    if not 0 <= lo < hi <= B:
        raise ValueError(f"shard rows {lo}..{hi} do not lie in a batch of {B}")
    t = rng.integers(1, sched.T + 1, size=B)
    eps = rng.standard_normal(x0_batch.shape).astype(np.float32)
    if cond_batch is not None and cond_dropout_prob > 0.0:
        cond_batch = cond_batch.with_dropout(rng, cond_dropout_prob)
    t, eps = t[lo:hi], eps[lo:hi]
    if cond_batch is not None:
        cond_batch = cond_batch.take(slice(lo, hi))
    x_t = q_sample(x0_batch[lo:hi], t, eps, sched)
    eps_hat = model(x_t, t, cond_batch)
    # the mean over the shard's rows * C * L elements, rescaled to its share
    # of a mean over the batch
    return tz.mul(tz.mse(eps_hat, Tensor(eps)), float(eps[0].size * (hi - lo) / B))


def train_workers(batch_size: int, cap: int | None = None) -> int:
    """How many processes train runs by default: one per shard of a batch of
    batch_size, at most one per usable core and at most cap."""
    workers = min(TRAIN_SHARDS, batch_size, len(os.sched_getaffinity(0)))
    return workers if cap is None else min(workers, cap)


def train(model, x0_data: np.ndarray, cond_data: ConditionBatch | None,
          cfg: TrainConfig, sched: NoiseSchedule, workers: int | None = None) -> np.ndarray:
    """Optimize the model in place; returns the per-step loss history.

    Each step's batch splits into min(TRAIN_SHARDS, batch_size) fixed row
    ranges. Each shard's gradient is computed on its own and the step's
    gradient is their sum in shard order, so the bytes depend on the shard
    count only, never on workers. workers processes run the shards (None:
    train_workers); more than one means this process and forked workers, all
    at one BLAS thread, that trade gradients through shared memory once a
    step (see _run_shards).

    Aborts with NumericError if an op's output, the loss included, goes
    non-finite; the message names the step, counted from 0. When several
    shards fail, the lowest one's error is raised.
    """
    x0_data = np.asarray(x0_data, dtype=np.float32)
    n = x0_data.shape[0]
    if n == 0:
        raise ValueError("empty training dataset")
    if cond_data is not None and len(cond_data) != n:
        raise ValueError("condition count does not match dataset size")
    job = _TrainJob(model, x0_data, cond_data, cfg, sched)
    history = np.empty(cfg.steps, dtype=np.float64)
    shards = len(job.rows)
    workers = train_workers(cfg.batch_size) if workers is None else max(1, min(workers, shards))
    _run_shards(job, workers, history)
    return history


class _TrainJob:
    """One training run's state, and its step as fixed shards of the batch.

    Each shard's gradient goes into its own row of one flat float32 buffer
    (grads[parity, shard]), with its loss and which parameters it reached;
    apply sums the rows in shard order, whichever process wrote them, and
    steps Adam. Shared by several processes, the buffers hold one copy per
    step parity, so that a process may write step k + 1's rows while
    another still reads step k's.
    """

    def __init__(self, model, x0_data, cond_data, cfg: TrainConfig, sched: NoiseSchedule):
        self.model, self.x0_data, self.cond_data = model, x0_data, cond_data
        self.cfg, self.sched = cfg, sched
        self.rng = stream(cfg.seed)
        self.opt = Adam(model.params, lr=cfg.learning_rate)
        self.params = list(model.params.values())
        self.offsets = np.cumsum([0] + [p.data.size for p in self.params])
        shards = min(TRAIN_SHARDS, cfg.batch_size)
        B = cfg.batch_size
        self.rows = [(B * s // shards, B * (s + 1) // shards) for s in range(shards)]
        self.losses = self.grads = self.reached = None  # set by lay_out_buffers

    def lay_out_buffers(self, parities: int, alloc) -> None:
        """Lay out losses [parities, shards] float64, grads [parities, shards,
        values] float32 and reached [parities, shards, params] bool, in that
        order (each part stays aligned), in alloc(total bytes): a bytearray,
        or a shared mmap."""
        shards, values, params = len(self.rows), int(self.offsets[-1]), len(self.params)
        parts = [((parities, shards), np.float64), ((parities, shards, values), np.float32),
                 ((parities, shards, params), np.bool_)]
        sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in parts]
        buf = alloc(sum(sizes))
        out, offset = [], 0
        for (shape, dtype), size in zip(parts, sizes):
            out.append(np.frombuffer(buf, dtype, math.prod(shape), offset).reshape(shape))
            offset += size
        self.losses, self.grads, self.reached = out

    def draw_batch(self) -> tuple[np.ndarray, ConditionBatch | None]:
        idx = self.rng.integers(0, self.x0_data.shape[0], size=self.cfg.batch_size)
        return self.x0_data[idx], (self.cond_data.take(idx) if self.cond_data is not None
                                   else None)

    def backward(self, x0, cond, step_i: int, rows) -> float:
        """Forward and backward of one shard, rows = (lo, hi); its gradient is
        left in each reached parameter's .grad, its loss returned."""
        self.opt.zero_grad()
        tz.reset_tape()
        try:
            loss = training_loss(self.model, x0, cond, self.sched, self.rng,
                                 cond_dropout_prob=self.cfg.cond_dropout_prob, rows=rows)
        except NumericError as e:
            raise NumericError(f"step {step_i}: {e}") from e
        tz.backward(loss)
        return loss.item()

    def compute(self, step_i: int, shards) -> None:
        """Draw step step_i's batch and run the given shards, each into its row.
        Each shard draws from the same stream state, so the stream ends where
        one whole-batch draw leaves it."""
        parity = step_i % self.grads.shape[0]
        x0, cond = self.draw_batch()
        state = self.rng.bit_generator.state
        for k, s in enumerate(shards):
            if k:
                self.rng.bit_generator.state = state
            self.losses[parity, s] = self.backward(x0, cond, step_i, self.rows[s])
            row, reached = self.grads[parity, s], self.reached[parity, s]
            for j, p in enumerate(self.params):
                reached[j] = p.grad is not None
                row[self.offsets[j]:self.offsets[j + 1]] = 0 if p.grad is None else p.grad.ravel()

    def apply(self, step_i: int) -> float:
        """Set each parameter's .grad to the sum of step step_i's rows, in
        shard order (None where no shard reached it), step Adam and return
        the step's loss, the sum of the shard losses in shard order."""
        parity = step_i % self.grads.shape[0]
        grads, losses = self.grads[parity], self.losses[parity]
        total = grads[0].copy()
        loss = losses[0]
        for s in range(1, len(self.rows)):
            total += grads[s]
            loss += losses[s]
        reached = self.reached[parity].any(axis=0)
        for j, p in enumerate(self.params):
            p.grad = (total[self.offsets[j]:self.offsets[j + 1]].reshape(p.data.shape)
                      if reached[j] else None)
        self.opt.step()
        return float(loss)


def _run_shards(job: _TrainJob, workers: int, history: np.ndarray) -> None:
    """Run job's steps on this process and workers - 1 forked ones (see
    _forked), each on a contiguous block of shards: the caller's come first,
    so the lowest failing shard is the first failure seen.

    With one worker, this process runs every shard, with its buffers in a
    bytearray. With more, the buffers are one anonymous shared mmap, made
    before the fork, with a copy per step parity. Each step every process
    draws from its own copy of the stream, writes its shards' rows, and the
    caller waits for one byte from each worker, then sends one back once
    every row is in. Each process then sums the rows and steps Adam itself:
    Adam is deterministic, so the parameter copies stay identical and no
    parameter crosses a process boundary.
    """
    if workers == 1:
        job.lay_out_buffers(1, bytearray)
    else:
        job.lay_out_buffers(2, lambda size: mmap.mmap(-1, size))
    serve = functools.partial(_serve_shards, job)
    with _forked(len(job.rows), workers, serve, "training") as (own, procs):
        for step_i in range(job.cfg.steps):
            job.compute(step_i, own)
            for _, report_r, _ in procs:
                _read_report(report_r, f"step {step_i}: a training worker ended without a report")
            for _, _, go_w in procs:
                os.write(go_w, b".")
            history[step_i] = job.apply(step_i)


def _serve_shards(job: _TrainJob, block: range, report_w: int, go_r: int):
    """A training worker's work (see _forked): each step, run its block of
    shards, send the caller b".", wait for b"." back, then sum the rows and
    step Adam as the caller does. Yields each step's label before the step."""
    for step_i in range(job.cfg.steps):
        yield f"step {step_i}"
        job.compute(step_i, block)
        os.write(report_w, b".")
        if os.read(go_r, 1) != b".":
            return  # the caller stopped
        job.apply(step_i)


# ---------------------------------------------------------------------------
# forked workers
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _forked(units: int, workers: int, serve, what: str):
    """Split units 0..units-1 into workers contiguous blocks, the caller's
    first, and fork one worker for each other block.

    Yields (the caller's block, [(block, report_r, go_w) per worker]). Each
    worker runs serve(block, report_w, go_r), a generator that yields the
    label of each piece of work before doing it (see _worker_life), and
    reports to the caller through its pipes; its results go into shared
    memory that the caller mapped before this call. With one worker nothing
    is forked and BLAS is left alone. With more, every process runs BLAS at
    one thread (set before the fork, so the workers inherit it) and the
    caller's count is restored on return or raise. No worker outlives the
    block: one still running at its end is killed, and every one is reaped.
    """
    blocks = [range(units * p // workers, units * (p + 1) // workers) for p in range(workers)]
    if workers == 1:
        yield blocks[0], []
        return
    blas = tz.blas_threads()
    tz.set_blas_threads(1)
    procs = []  # [pid, report_r, go_w] per worker, pid None until forked
    try:
        for block in blocks[1:]:
            report_r, report_w = os.pipe()
            go_r, go_w = os.pipe()
            procs.append([None, report_r, go_w])
            try:
                pid = os.fork()
                if pid == 0:
                    _worker_life(serve, block, report_w, go_r, what,
                                 [fd for _, r, w in procs for fd in (r, w)])
                procs[-1][0] = pid
            finally:  # only the caller gets here: a worker never returns
                os.close(report_w)
                os.close(go_r)
        yield blocks[0], [(block, r, w) for block, (_, r, w) in zip(blocks[1:], procs)]
    finally:
        for pid, report_r, go_w in procs:
            os.close(report_r)
            os.close(go_w)
            if pid is not None and os.waitpid(pid, os.WNOHANG)[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if blas is not None:
            tz.set_blas_threads(blas)


def _worker_life(serve, block: range, report_w: int, go_r: int, what: str,
                 inherited: list[int]) -> None:
    """A forked worker's life, after it closes the caller's pipe ends it
    inherited: run serve(block, report_w, go_r) to its end. Any error is
    reported through report_w instead (b"N" and a NumericError's text; b"E"
    and, for any other, "<label>: <what> worker failed with <type>: <text>",
    where label is the last one serve yielded), and the worker leaves by
    os._exit, so no exit handler of the caller's process (atexit, a test
    runner's) runs twice. Never returns.
    """
    where, code = "", 0
    try:
        for fd in inherited:
            os.close(fd)
        for where in serve(block, report_w, go_r):
            pass
    except BaseException as e:  # every error goes to the caller
        code = 1
        if isinstance(e, NumericError):
            report = b"N" + str(e).encode()
        else:
            report = b"E" + f"{where}: {what} worker failed with {type(e).__name__}: {e}".encode()
        try:
            os.write(report_w, report[:4096])  # at most PIPE_BUF bytes: one atomic write
        except OSError:
            pass
    finally:
        os._exit(code)


def _read_report(report_r: int, lost: str) -> None:
    """Return once a worker reports b"."; raise the error it reports instead
    (NumericError as it was, any other as a WorkerError), or WorkerError(lost)
    when it ended without a report."""
    head = os.read(report_r, 1)
    if head == b".":
        return
    if not head:
        raise WorkerError(lost)
    text = b"".join(iter(lambda: os.read(report_r, 4096), b"")).decode(errors="replace")
    raise (NumericError if head == b"N" else WorkerError)(text)


# ---------------------------------------------------------------------------
# guidance and sampler steps
# ---------------------------------------------------------------------------

def guided_eps(model, x_t: np.ndarray, t: np.ndarray, cond: ConditionBatch | None,
               omega: float) -> np.ndarray:
    """Classifier-free guided noise: (1+w) * conditional - w * unconditional.

    At w == 0, or without conditions (both branches unconditional), this is
    exactly the conditional prediction from a single model pass. A
    combination that overflows raises NumericError naming the step and w.
    """
    with tz.no_grad():
        eps_c = model(x_t, t, cond).data
        if omega == 0.0 or cond is None:
            return eps_c
        eps_u = model(x_t, t, None).data
    with np.errstate(over="ignore", invalid="ignore"):
        eps = (1.0 + omega) * eps_c - omega * eps_u
    if not np.isfinite(eps).all():
        raise NumericError(f"guidance at t={int(t[0])} with omega={omega:g} produced "
                           f"non-finite noise")
    return eps


def _clip_eps(x_t: np.ndarray, t: int, eps_hat: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Re-derive the noise prediction after clamping the implied x0 to +-CLIP_X0.

    Inert whenever the implied x0 already lies within the clamp range. An x0
    beyond float32's range (a huge but finite eps) is clamped like any other.
    """
    with np.errstate(over="ignore"):
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


def _step_terms(t: int, t_prev: int, eta: float, sched: NoiseSchedule) -> tuple[float, float]:
    """(sigma^2, 1 - abar_prev - sigma^2) of the step from t to t_prev, with
    sigma^2 = eta * beta_tilde at step t; (0, 0) for the terminal step
    t_prev == 0. It needs only eta, the steps and the schedule, so a sampler
    checks its whole plan with it before any model pass.

    Raises ValueError unless 0 <= t_prev < t <= T, and NumericError when the
    second term is negative: that (eta, tau) pair has no real update.
    """
    if not (0 <= t_prev < t <= sched.T):
        raise ValueError(f"need 0 <= t_prev < t <= {sched.T}, got {t_prev}, {t}")
    if t_prev == 0:
        return 0.0, 0.0
    sigma2 = eta * sched.beta_tilde[t - 1]
    radicand = 1.0 - sched.alpha_bar[t_prev - 1] - sigma2
    if radicand < 0:
        raise NumericError(f"infeasible (eta, tau) combination at t={t}: "
                           f"1 - abar_{t_prev} - sigma^2 = {radicand:.3e} < 0")
    return float(sigma2), radicand


def ddim_transition(x_t: np.ndarray, t: int, t_prev: int, eps_hat: np.ndarray,
                    eta: float, sched: NoiseSchedule) -> tuple[np.ndarray, float]:
    """Deterministic part of the skip-step update: returns (mean, variance).

    mean = sqrt(abar_prev) * x0_hat + sqrt(1 - abar_prev - sigma^2) * eps_hat
    with sigma^2 = eta * beta_tilde at the current step; t_prev == 0 lands on
    the clean sample exactly (terminal step, variance forced to zero).
    """
    sigma2, radicand = _step_terms(t, t_prev, eta, sched)
    x0_hat = predict_x0_from_eps(x_t, t, eps_hat, sched)
    if t_prev == 0:
        return x0_hat, 0.0
    mean = np.sqrt(sched.alpha_bar[t_prev - 1]) * x0_hat + np.sqrt(radicand) * eps_hat
    return mean, sigma2


def ddim_step(model, x_t: np.ndarray, t: int, t_prev: int, cond: ConditionBatch | None,
              omega: float, eta: float, sched: NoiseSchedule,
              z: np.ndarray | None) -> np.ndarray:
    """One skip-step reverse transition from step t to t_prev (< t), x0 clamped to +-CLIP_X0.

    z is the pre-drawn standard-normal field, unused (may be None) when the
    step's variance is zero: at eta == 0 or t_prev == 0. The step is checked
    before the model runs.
    """
    _step_terms(t, t_prev, eta, sched)
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


def sample(model, cond_batch: ConditionBatch | None, cfg: SamplerConfig,
           sched: NoiseSchedule, n: int | None = None, workers: int = 1,
           micro_batch: int = MICRO_BATCH) -> tuple[np.ndarray, dict]:
    """Generate trajectories in normalized coordinates.

    Returns (batch [n, C, L], stats). Trajectory i's randomness comes from
    stream (seed, i); micro-batch boundaries depend only on the index, so any
    worker count yields identical bytes.

    min(workers, micro-batches) processes run the micro-batches, each a
    contiguous block of them by index (see _forked): this process runs the
    first block, and forked workers run the rest, free of the interpreter
    lock and seeing the model, conditions and schedule without pickling
    them. With more than one, every process runs OpenBLAS at one thread and
    the caller's count is restored on return or raise; the output array is
    then an anonymous shared mapping that every process writes its rows
    into. Between its own micro-batches the caller polls the workers, so the
    first failure it sees stops the rest: a worker's NumericError keeps its
    text, and a worker that fails otherwise, or ends without a report, is a
    WorkerError naming its trajectories. One worker runs everything in this
    process and leaves BLAS alone. An infeasible (eta, tau) step plan raises
    NumericError before any model pass or fork.
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
    for t_prev, t in zip([0, *cfg.tau[:-1]], cfg.tau):
        _step_terms(int(t), int(t_prev), cfg.eta, sched)
    bounds = [(s, min(s + micro_batch, n)) for s in range(0, n, micro_batch)]
    workers = max(1, min(workers, len(bounds)))
    shape = (n, model.config.in_channels, model.config.length)
    if workers == 1:
        out = np.empty(shape, dtype=np.float32)
    else:
        out = np.frombuffer(mmap.mmap(-1, 4 * math.prod(shape)), np.float32).reshape(shape)

    def run(i: int) -> None:
        lo, hi = bounds[i]
        out[lo:hi] = _sample_micro_batch(model, cond_batch, cfg, sched, lo, hi)

    def serve(block: range, report_w: int, go_r: int):
        for i in block:
            yield f"trajectories {bounds[i][0]}..{bounds[i][1] - 1}"
            run(i)
        os.write(report_w, b".")

    blas = tz.blas_threads()
    with _forked(len(bounds), workers, serve, "sampling") as (own, procs):
        pending = {report_r: f"trajectories {bounds[block[0]][0]}..{bounds[block[-1]][1] - 1}: "
                             f"a sampling worker ended without a report"
                   for block, report_r, _ in procs}
        for i in own:
            for report_r in select.select(list(pending), [], [], 0)[0]:
                _read_report(report_r, pending.pop(report_r))
            run(i)
        for report_r, lost in pending.items():
            _read_report(report_r, lost)
    if workers > 1 and blas is not None:
        blas = 1  # what every process ran at

    guided = cfg.guidance_scale != 0.0 and cond_batch is not None
    evals_per_traj = len(cfg.tau) * (2 if guided else 1)
    stats = {
        "n": n,
        "steps": len(cfg.tau),
        "model_evals": n * evals_per_traj,
        "workers": workers,
        "blas_threads": blas,
    }
    return out, stats
