"""Pass-through span timers around the public functions of each trajdiff layer.

The program carries no tracing hook of its own, so the benchmark wraps module
and class attributes from outside (``tensor.conv1d``, ``unet.resnet_block``,
``diffusion.guided_eps``, ``GridSpec.cell_indices``, ...). Each wrapper calls
the original unchanged and records one span: id, name, start, end, parent id,
thread id and benchmark phase. Spans stay in memory until the run ends.

A span opened on a thread with no open span of its own (a sampling pool
worker) takes the innermost open span of the thread that created the tracer
as its parent, which is the call that handed the work to the pool.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import types
from collections import defaultdict

TENSOR_OPS = ("conv1d", "group_norm", "silu", "linear", "bmm", "softmax_lastdim", "add",
              "mul", "concat_channels", "maxpool1d_k2", "upsample_nearest_2x", "embedding",
              "transpose_last2")
# traced for coverage but not reported op by op
TENSOR_OPS_UNREPORTED = ("sub", "reshape", "sum_all", "mse")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (sid, name, start, end, parent, thread_id, phase, n)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._main_stack = self._stack()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def count(self, key: str, n: float) -> None:
        with self._lock:
            self.counts[(self.phase, key)] += n

    def wrap(self, owner, attr: str, name, size=None) -> None:
        """Replace owner.attr by a timer. name is a string or a function of
        the call's arguments; size(args, kwargs, out) gives the span's work
        count (rows, points, lines) or None."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def timed(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
            stack.append(sid)
            out = None
            start = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name if isinstance(name, str) else name(args, kwargs)
                n = size(args, kwargs, out) if size is not None and out is not None else 0
                tracer.spans.append((sid, label, start, end, parent, threading.get_ident(),
                                     tracer.phase, n))

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, timed)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def write(self, path) -> None:
        """One JSON array per line: sid, name, start_s, end_s, parent, thread, phase, n."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def _arg(args, kwargs, i: int, key: str):
    return args[i] if len(args) > i else kwargs[key]


def _resnet_group(args, kwargs) -> str:
    prefix = _arg(args, kwargs, 3, "prefix")
    return "unet." + prefix.split(".")[0].rstrip("0123456789")


def _conv1d_work(tracer: Tracer):
    """Span size for conv1d: forward flop 2*B*L*Cout*Cin*K from shapes. Also
    counts computed bytes: input, im2col buffer written and read, weight, GEMM
    output and its transposed copy written and read (float32)."""

    def size(args, kwargs, out):
        B, Cin, L = _arg(args, kwargs, 0, "x").data.shape
        Cout, _, K = _arg(args, kwargs, 1, "w").data.shape
        tracer.count("conv1d.bytes", 4.0 * (B * Cin * L + 2 * B * L * Cin * K
                                            + Cout * Cin * K + 3 * B * Cout * L))
        return 2.0 * B * L * Cout * Cin * K

    return size


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the trajdiff layers."""
    from trajdiff import checkpoint, diffusion, metrics, trajdata, unet
    from trajdiff import tensor as tz

    for op in TENSOR_OPS + TENSOR_OPS_UNREPORTED:
        tracer.wrap(tz, op, f"tensor.{op}", size=_conv1d_work(tracer) if op == "conv1d" else None)
    tracer.wrap(tz, "backward", "tensor.backward")

    rows = lambda a, k, out: _arg(a, k, 1, "x_t").shape[0]  # noqa: E731
    tracer.wrap(unet.TrajUNet, "__call__", "unet.forward", size=rows)
    tracer.wrap(unet.TrajUNet, "forward", "unet.forward", size=rows)
    tracer.wrap(unet, "time_mlp", "unet.time_mlp")
    tracer.wrap(unet, "wide_deep_embed", "unet.wide_deep_embed")
    tracer.wrap(unet, "resnet_block", _resnet_group)
    tracer.wrap(unet, "attention", "unet.attention")

    tracer.wrap(diffusion, "train", "diffusion.train")
    tracer.wrap(diffusion, "training_loss", "diffusion.training_loss")
    tracer.wrap(diffusion.Adam, "step", "diffusion.adam")
    tracer.wrap(diffusion, "sample", "diffusion.sample")
    tracer.wrap(diffusion, "ddim_step", "diffusion.step")
    tracer.wrap(diffusion, "ddpm_step", "diffusion.step")
    tracer.wrap(diffusion, "guided_eps", "diffusion.guided_eps")
    for fn in ("q_sample", "predict_x0_from_eps", "mu_from_eps"):
        tracer.wrap(diffusion, fn, f"schedule.{fn}")

    tracer.wrap(checkpoint, "load_checkpoint", "checkpoint.load")

    tracer.wrap(trajdata, "load_dataset", "trajdata.load_dataset",
                size=lambda a, k, out: len(out) + out.dropped_short + out.skipped_bad)
    for fn in ("resample", "make_batch", "extract_condition_batch", "batch_to_points"):
        tracer.wrap(trajdata, fn, f"trajdata.{fn}")
    tracer.wrap(trajdata.GridSpec, "cell_indices", "metrics.cell_indices",
                size=lambda a, k, out: out[0].size)

    for fn in ("evaluate", "density_error", "trip_error", "length_error", "pattern_score"):
        tracer.wrap(metrics, fn, f"metrics.{fn}")


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    out = {}
    for s in spans:
        kids = [(max(lo, s[2]), min(hi, s[3])) for lo, hi in children.get(s[0], ())]
        out[s[0]] = (s[3] - s[2]) - _union(k for k in kids if k[1] > k[0])
    return out


def layer_metrics(tracer: Tracer, timed_wall_s: float, workers: int,
                  span_cost_s: float) -> tuple[dict, dict]:
    """Per-layer metrics (name -> value) and a self-time summary by layer.

    Metrics about set-up come from the traced set-up; all others from the
    timed phase. Times are in ms, summed over the phase.
    """
    timed = [s for s in tracer.spans if s[6] == "timed"]
    setup = [s for s in tracer.spans if s[6] == "setup"]
    by_id = {s[0]: s for s in timed}
    selft = self_times(timed)
    dur = defaultdict(float)
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(float)
    for s in timed:
        dur[s[1]] += (s[3] - s[2]) * 1e3
        self_ms[s[1]] += selft[s[0]] * 1e3
        calls[s[1]] += 1
        work[s[1]] += s[7]
    layers = defaultdict(float)
    for name, v in self_ms.items():
        layers[name.split(".")[0]] += v
    setup_ms = defaultdict(float)
    for s in setup:
        setup_ms[s[1]] += (s[3] - s[2]) * 1e3

    m = {}
    for op in TENSOR_OPS:
        m[f"tensor.{op}.fwd_ms"] = dur[f"tensor.{op}"]
        m[f"tensor.{op}.calls"] = calls[f"tensor.{op}"]
    m["tensor.conv1d.gflop"] = work["tensor.conv1d"] / 1e9
    m["tensor.conv1d.mbytes"] = tracer.counts[("timed", "conv1d.bytes")] / 1e6
    m["tensor.backward_ms"] = dur["tensor.backward"]

    m["unet.forward_ms"] = dur["unet.forward"]
    m["unet.forward.calls"] = calls["unet.forward"]
    m["unet.forward.rows"] = work["unet.forward"]
    m["unet.embed_ms"] = dur["unet.time_mlp"] + dur["unet.wide_deep_embed"]
    # a level's time is its resnet blocks' time with the tensor ops inside them,
    # so a kernel change shows at the level it helps
    for level in ("down", "mid", "up"):
        m[f"unet.{level}.ms"] = dur[f"unet.{level}"]
    m["unet.attention_ms"] = dur["unet.attention"]
    m["unet.attention.self_ms"] = self_ms["unet.attention"]

    m["diffusion.training_loss_ms"] = dur["diffusion.training_loss"]
    m["diffusion.adam_ms"] = dur["diffusion.adam"]
    m["diffusion.train.self_ms"] = self_ms["diffusion.train"]
    m["diffusion.guided_eps_ms"] = dur["diffusion.guided_eps"]
    m["diffusion.step.self_ms"] = self_ms["diffusion.step"]
    m["diffusion.sample.self_ms"] = self_ms["diffusion.sample"]
    m["diffusion.model_evals"] = sum(
        s[7] for s in timed
        if s[1] == "unet.forward" and s[4] in by_id and by_id[s[4]][1] == "diffusion.guided_eps")
    sample_wall = dur["diffusion.sample"]
    m["diffusion.pool_busy_frac"] = (dur["diffusion.step"] / (workers * sample_wall)
                                     if workers and sample_wall else 0.0)

    m["schedule.ms"] = sum(v for k, v in dur.items() if k.startswith("schedule."))
    m["checkpoint.load_ms"] = setup_ms["checkpoint.load"]

    m["trajdata.load_dataset_ms"] = dur["trajdata.load_dataset"]
    m["trajdata.load_dataset.lines"] = work["trajdata.load_dataset"]
    m["trajdata.resample_ms"] = dur["trajdata.resample"]
    m["trajdata.make_batch_ms"] = setup_ms["trajdata.make_batch"]
    m["trajdata.extract_condition_batch_ms"] = setup_ms["trajdata.extract_condition_batch"]
    m["trajdata.batch_to_points_ms"] = dur["trajdata.batch_to_points"]

    for fn in ("density_error", "trip_error", "length_error", "pattern_score"):
        m[f"metrics.{fn}_ms"] = dur[f"metrics.{fn}"]
    m["metrics.cell_indices.calls"] = calls["metrics.cell_indices"]
    m["metrics.cell_indices.points"] = work["metrics.cell_indices"]

    wall_ms = timed_wall_s * 1e3
    roots = [(s[2], s[3]) for s in timed if s[4] is None]
    tensor_ms = sum(dur[f"tensor.{op}"] for op in TENSOR_OPS + TENSOR_OPS_UNREPORTED)
    m["trace.coverage_frac"] = _union(roots) * 1e3 / wall_ms
    m["trace.tensor_frac"] = (tensor_ms + dur["tensor.backward"]) / wall_ms
    m["trace.spans"] = len(tracer.spans)
    m["trace.overhead_est_frac"] = len(timed) * span_cost_s * 1e3 / wall_ms

    summary = {"timed_wall_ms": wall_ms,
               "layer_self_ms": dict(sorted(layers.items())),
               "layer_self_share": {k: v / wall_ms for k, v in sorted(layers.items())},
               "span_coverage_frac": m["trace.coverage_frac"]}
    return m, summary


def span_cost_s(repeats: int = 20000) -> float:
    """Measured cost of one traced call beyond the call itself, in seconds."""
    probe = types.SimpleNamespace(noop=lambda: None)
    plain = probe.noop
    t0 = time.perf_counter()
    for _ in range(repeats):
        plain()
    base = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(probe, "noop", "probe")
    wrapped = probe.noop
    t0 = time.perf_counter()
    for _ in range(repeats):
        wrapped()
    return max(0.0, (time.perf_counter() - t0 - base) / repeats)
