"""The three benchmark workloads.

Each workload has a set-up (input synthesis, checkpoint load), a timed phase
made of a fixed amount of work, and output checks. All inputs come from the
workload seed; the program sees only the generated inputs. The amount of
work is fixed by ``--seconds`` through the nominal rate of the seed code on a
2-core x86 machine, so runs of one commit do the same work and a faster
commit simply finishes sooner.

Every call into trajdiff goes through a module attribute (``diffusion.sample``,
``trajdata.load_dataset``, ...) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trajdiff import checkpoint, diffusion, metrics, schedule, trajdata, unet
from trajdiff.errors import NumericError
from trajdiff.rng import stream

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "desk.ckpt"
CHECKPOINT_SHA256 = HERE / "desk.ckpt.sha256"

LN2 = math.log(2.0)
LENGTH = 64
# the training data of the desk checkpoint is synth_city(seed=0); held-out
# splits use seeds offset from it so they never coincide
HELDOUT_SEED_OFFSET = 1_000_003
COND_STREAM = 7  # stream id for drawing sampling conditions from the held-out split


@dataclass
class Measured:
    """What the timed phase produced, plus the output checks."""
    attempted: int
    failed: int
    op_s: list[float]           # latency of each timed operation
    units: float                # work units (steps, trajectories) of the timed phase
    quality: float
    named: dict = field(default_factory=dict)    # workload-specific named metrics
    digests: list[str] = field(default_factory=list)


def _report_ok(report) -> bool:
    """Every JSD error lies in [0, ln 2] (with evaluate's own tolerance), the F1 in [0, 1]."""
    errors = (report.density_error, report.trip_error, report.length_error)
    return all(0.0 <= e <= LN2 + 1e-12 for e in errors) and 0.0 <= report.pattern_score <= 1.0


def _ops(seconds: float, nominal_op_s: float, minimum: int = 1) -> int:
    return max(minimum, round(seconds / nominal_op_s))


# ---------------------------------------------------------------------------
# train_desk
# ---------------------------------------------------------------------------

class TrainDesk:
    workers = 0
    NOMINAL_STEP_S = 0.17
    LOSS_TAIL = 50

    def __init__(self, seconds: float, tiny: bool):
        self.n_traj = 200 if tiny else 2000
        self.steps = 3 if tiny else _ops(seconds, self.NOMINAL_STEP_S, minimum=self.LOSS_TAIL + 10)

    def setup(self, seed: int) -> dict:
        trajs = trajdata.synth_city(seed, self.n_traj)
        norm = trajdata.NormStats.fit(trajs)
        grid = norm.grid()
        batch = trajdata.make_batch(trajs, LENGTH, norm)
        conds = trajdata.extract_condition_batch(trajs, grid, norm)
        model = unet.TrajUNet(unet.TrajUNetConfig(length=LENGTH, base_channels=16), rng=stream(seed))
        sched = schedule.linear_beta_schedule(100, 1e-4, 0.15)
        cfg = diffusion.TrainConfig(steps=self.steps, batch_size=64, learning_rate=1e-3,
                                    cond_dropout_prob=0.1, seed=seed)
        return {"x0": batch.data, "conds": conds, "model": model, "sched": sched, "cfg": cfg}

    def measure(self, ctx: dict) -> Measured:
        # one timestamp per optimizer step gives per-step latency without tracing
        stamps = []
        adam_step = diffusion.Adam.step

        def step_and_stamp(opt):
            adam_step(opt)
            stamps.append(time.perf_counter())

        diffusion.Adam.step = step_and_stamp
        start = time.perf_counter()
        try:
            history = diffusion.train(ctx["model"], ctx["x0"], ctx["conds"], ctx["cfg"], ctx["sched"])
        except NumericError:
            history = np.full(self.steps, np.nan)
        finally:
            diffusion.Adam.step = adam_step
        step_s = np.diff([start] + stamps).tolist()
        failed = int(np.sum(~np.isfinite(history)))
        tail = float(np.mean(history[-self.LOSS_TAIL:]))
        named = {
            "train_steps_per_s": (len(stamps) / sum(step_s), "1/s"),
            "train_step_ms_p50": (statistics.median(step_s) * 1e3, "ms"),
            "train_step_ms_p95": (float(np.percentile(step_s, 95)) * 1e3, "ms"),
            "train_loss_tail": (tail, "loss"),
        }
        return Measured(attempted=self.steps, failed=failed, op_s=step_s, units=len(stamps),
                        quality=tail, named=named)



# ---------------------------------------------------------------------------
# sample_guided / sample_pooled
# ---------------------------------------------------------------------------

def load_desk_checkpoint():
    """Verify the stored hash of the desk checkpoint, then load it."""
    blob = CHECKPOINT.read_bytes()
    want = CHECKPOINT_SHA256.read_text().split()[0]
    got = hashlib.sha256(blob).hexdigest()
    if got != want:
        raise RuntimeError(f"{CHECKPOINT.name}: sha256 {got} does not match the recorded {want}")
    return checkpoint.load_checkpoint(CHECKPOINT)


class Sample:
    N = 256

    def __init__(self, seconds: float, tiny: bool, workdir: Path, guided: bool, eta: float,
                 omega: float, micro_batch: int, workers: int, nominal_op_s: float):
        self.heldout_path = workdir / "heldout.jsonl"
        self.guided = guided
        self.eta = eta
        self.omega = omega
        self.micro_batch = micro_batch
        self.workers = workers
        self.n = 8 if tiny else self.N
        self.sample_steps = 2 if tiny else 20
        self.n_heldout = 100 if tiny else 2000
        self.ops = 1 if tiny else _ops(seconds, nominal_op_s)

    def setup(self, seed: int) -> dict:
        model, sched, norm, grid, _ = load_desk_checkpoint()
        heldout_seed = HELDOUT_SEED_OFFSET + seed
        heldout = trajdata.synth_city(heldout_seed, self.n_heldout)
        # the scoring reads the held-out split back from disk, as `trajdiff eval` does
        self.heldout_path.parent.mkdir(parents=True, exist_ok=True)
        trajdata.save_dataset(self.heldout_path, heldout,
                              meta={"generator": "synth_city", "seed": heldout_seed})
        ctx = {"model": model, "sched": sched, "norm": norm, "grid": grid,
               "seed": seed, "conds": []}
        if self.guided:
            pool = trajdata.extract_condition_batch(heldout, grid, norm)
            draw = stream(seed, COND_STREAM)
            ctx["conds"] = [pool.take(draw.integers(0, len(pool), size=self.n))
                            for _ in range(self.ops)]
        return ctx

    def measure(self, ctx: dict) -> Measured:
        op_s, digests, points = [], [], []
        failed = 0
        model, sched, norm = ctx["model"], ctx["sched"], ctx["norm"]
        for k in range(self.ops):
            cfg = diffusion.SamplerConfig(total_steps=sched.T, sample_steps=self.sample_steps,
                                          eta=self.eta, guidance_scale=self.omega,
                                          seed=ctx["seed"] * 1000 + k)
            cond = ctx["conds"][k] if self.guided else None
            t0 = time.perf_counter()
            try:
                batch, _ = diffusion.sample(model, cond, cfg, sched, n=self.n,
                                            workers=self.workers, micro_batch=self.micro_batch)
                pts = trajdata.batch_to_points(batch, norm)
            except NumericError:
                op_s.append(time.perf_counter() - t0)
                failed += self.n
                continue
            op_s.append(time.perf_counter() - t0)
            if batch.shape != (self.n, 2, model.config.length) or len(pts) != self.n:
                failed += self.n
                continue
            ok = np.isfinite(batch).all(axis=(1, 2))
            failed += int(np.sum(~ok))
            digests.append(hashlib.sha256(batch.tobytes()).hexdigest())
            points.extend(p for p, good in zip(pts, ok) if good)
        # score everything generated, as `trajdiff eval --length 64` against the held-out split
        t0 = time.perf_counter()
        loaded = trajdata.load_dataset(self.heldout_path, min_points=2)
        real = [trajdata.resample(t.points, LENGTH) for t in loaded]
        report = metrics.evaluate(points, real, ctx["grid"], top_n=10) if points else None
        score_s = time.perf_counter() - t0
        if len(real) != self.n_heldout or report is None or not _report_ok(report):
            failed = self.n * self.ops
        quality = report.density_error if report is not None else float("nan")
        named = {"gen_traj_per_s": (self.n * self.ops / sum(op_s), "1/s"),
                 "gen_density_error": (quality, "nats"),
                 "eval_traj_per_s": ((len(points) + len(real)) / score_s, "1/s")}
        return Measured(attempted=self.n * self.ops, failed=failed, op_s=op_s,
                        units=self.n * self.ops, quality=quality, named=named, digests=digests)


def make(name: str, seconds: float, tiny: bool, workdir: Path):
    if name == "train_desk":
        return TrainDesk(seconds, tiny)
    if name == "sample_guided":
        # CLI generate defaults: S=20, eta=0, omega=3, micro-batch 128, one worker
        return Sample(seconds, tiny, workdir, guided=True, eta=0.0, omega=3.0,
                      micro_batch=128, workers=1, nominal_op_s=10.8)
    if name == "sample_pooled":
        # fresh noise every step, one pass per step, a pool as wide as the cores
        return Sample(seconds, tiny, workdir, guided=False, eta=1.0, omega=0.0,
                      micro_batch=64, workers=2, nominal_op_s=6.0)
    raise KeyError(name)
