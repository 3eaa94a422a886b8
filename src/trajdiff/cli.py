"""Command-line front end: synth | train | generate | eval | plot.

synth, train, generate and eval each declare their settings once, as a table
of name -> Setting(type, minimum, default, help, maximum) that yields the
flags, the --config keys, the defaults and the checks. Settings resolve as
flags > --config JSON > defaults; every resolved value, and TRAJDIFF_THREADS,
is checked before any input is read. Every subcommand writes its outputs and
returns (settings, inputs, outputs, extra); main then drops one run manifest
(resolved settings, seed, input hashes, wall time, output paths, the
environment block, then extra) next to the primary output, the first of
outputs.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 numeric failure, 4 internal
error (any other exception; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import resource
import sys
import time
import traceback
from typing import NamedTuple

import numpy as np

from . import __version__
from . import tensor as tz
from .checkpoint import load_checkpoint, save_checkpoint
from .diffusion import (MICRO_BATCH, SamplerConfig, TrainConfig, sample, train,
                        train_workers)
from .errors import DataError, NumericError, UsageError
from .metrics import evaluate
from .rng import stream
from .schedule import linear_beta_schedule
from .svgplot import plot_heatmap, plot_lines
from .trajdata import (GRID_SIDE, SLOT_SECONDS, CitySpec, ConditionBatch, GridSpec, NormStats,
                       RawTrajectory, batch_to_points, box_problem, dataset_grid,
                       extract_condition_batch, extent, is_finite, load_dataset, make_batch,
                       resample, save_dataset, synth_city)
from .unet import MAX_LENGTH, TrajUNet, TrajUNetConfig

log = logging.getLogger(__name__)

_COND_STREAM_ID = 0x636F6E64  # reserved stream for condition resampling

# Caps on sizes that are allocated at once: a 1000x1000 eval or plot grid
# (the paper's is 16x16), 10 000 length-histogram bins (its default is 50), a
# million trajectories per synth or generate call, ten million training steps
# (the loss history) and a training batch of 100 000 (the paper's is 1024).
# A synth or generate call holds all its points at once, so their count has a
# cap too: a million trajectories of the default 200 points (synth's
# max_points, the paper's length). sample runs min(workers, micro-batches)
# processes, so --workers has a cap too.
MAX_GRID_CELLS = 1_000_000
MAX_BINS = 10_000
MAX_TRAJECTORIES = 1_000_000
MAX_POINTS = 200_000_000
MAX_TRAIN_STEPS = 10_000_000
MAX_BATCH = 100_000
MAX_WORKERS = 256


class Setting(NamedTuple):
    """A settings-table row. kind: int, float (finite; ints admitted, bools
    not), str or a tuple of choices. A low or high of None means no minimum
    or maximum; a default of None means unset, and only such a setting may be
    null in --config."""
    kind: type | tuple
    low: float | None
    default: object
    help: str | None = None
    high: int | None = None


SYNTH_SETTINGS = {"n": Setting(int, 0, 2000, high=MAX_TRAJECTORIES),
                  "seed": Setting(int, None, 0)}

# The recipe's defaults come from TrainConfig and TrajUNetConfig; only the
# schedule's are set here. Paper scale: T=500, length=200, batch=1024,
# base_channels=64, beta_end=0.05, lr=2e-4. The desk beta_end=0.15 keeps the
# terminal signal at 2% (with 0.05 at T=100 the forward process stops 28% short
# of the sampling prior); lr=1e-3 converges ~3x faster at desk batch size.
TRAIN_SETTINGS = {
    "steps": Setting(int, 0, TrainConfig.steps, high=MAX_TRAIN_STEPS),
    "batch": Setting(int, 1, TrainConfig.batch_size, high=MAX_BATCH),
    "T": Setting(int, 1, 100), "length": Setting(int, 1, TrajUNetConfig.length),
    "base_channels": Setting(int, 1, TrajUNetConfig.base_channels),
    "beta_start": Setting(float, None, 1e-4), "beta_end": Setting(float, None, 0.15),
    "lr": Setting(float, None, TrainConfig.learning_rate),
    "cond_dropout": Setting(float, None, TrainConfig.cond_dropout_prob),
    "seed": Setting(int, None, TrainConfig.seed),
}
TRAIN_DEFAULTS = {k: s.default for k, s in TRAIN_SETTINGS.items()}

GENERATE_SETTINGS = {
    "n": Setting(int, 0, None, high=MAX_TRAJECTORIES),
    "steps": Setting(int, 1, None, "sample steps S (default: SamplerConfig's max(1, T // 5))"),
    "eta": Setting(float, 0.0, SamplerConfig.eta),
    "omega": Setting(float, None, SamplerConfig.guidance_scale),
    "seed": Setting(int, None, SamplerConfig.seed),
    "workers": Setting(int, 1, None, "worker processes (default: one per usable core)",
                       high=MAX_WORKERS),
    "batch": Setting(int, 1, MICRO_BATCH, "sampling micro-batch size"),
}
THREADS_CAP = Setting(int, 1, None)  # TRAJDIFF_THREADS, a cap on train's and generate's processes

EVAL_SETTINGS = {
    "grid": Setting(str, None, f"{GRID_SIDE}x{GRID_SIDE}"), "topn": Setting(int, 1, 10),
    "bins": Setting(int, 1, 50, high=MAX_BINS),
    "metric": Setting(("haversine", "euclidean"), None, "haversine"),
    "length": Setting(int, 2, None, "resample both sets to this length before scoring",
                      high=MAX_LENGTH),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(_cut(message))


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _resolve(args: argparse.Namespace, table: dict) -> dict:
    """flags > config file > defaults; every resolved value is checked
    against its row before any input is read."""
    cfg = {k: s.default for k, s in table.items()}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, RecursionError, ValueError) as e:
            raise DataError(f"cannot read config {args.config}: {e}") from e
        if not isinstance(file_cfg, dict):
            raise DataError(f"config {args.config} is not a JSON object")
        unknown = set(file_cfg) - set(table)
        if unknown:
            raise UsageError(f"unknown config keys: {_shown(sorted(unknown))}")
        cfg.update(file_cfg)
    for k, s in table.items():
        if (flag := getattr(args, k)) is not None:
            cfg[k] = flag
        _check("--" + k.replace("_", "-"), s, cfg[k])
    return cfg


def _check(name: str, s: Setting, v) -> None:
    """Usage error that names the input as name unless v fits its row (None
    fits a row whose default is None)."""
    if v is None and s.default is None:
        return
    if isinstance(s.kind, tuple):
        ok, what = v in s.kind, "one of " + ", ".join(s.kind)
    elif s.kind is float:
        ok, what = type(v) in (int, float) and is_finite(v), "a finite number"
    else:
        ok, what = type(v) is s.kind, {int: "an integer", str: "a string"}[s.kind]
    if not ok or (s.low is not None and v < s.low) or (s.high is not None and v > s.high):
        bound = f" of at least {s.low}" if s.low is not None else ""
        if s.high is not None:
            bound += f" and at most {s.high}"
        raise UsageError(f"{name} must be {what}{bound}, got {_shown(v)}")


def _cut(text: str) -> str:
    """text for an error message: its first 80 characters and its length
    when it is longer than 100."""
    return text if len(text) <= 100 else f"{text[:80]}... ({len(text)} characters)"


def _shown(value) -> str:
    """repr of value for an error message, cut as _cut cuts text."""
    return _cut(repr(value))


def _write_manifest(command: str, t_start: float, settings: dict, inputs: list,
                    outputs: list, extra: dict) -> None:
    """The run manifest, next to outputs[0]; a key of extra overrides the
    environment block's."""
    manifest = {
        "command": command,
        "settings": settings,
        "seed": settings.get("seed"),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_time_s": round(time.time() - t_start, 3),
        "version": __version__,
        **_environment(),
        **extra,
    }
    with open(str(outputs[0]) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _environment() -> dict:
    """The manifest's environment block: what explains a run's timing and memory."""
    return {"cores": len(os.sched_getaffinity(0)),
            "blas_threads": tz.blas_threads(),
            "malloc_thresholds": tz.malloc_thresholds(),
            "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
            "numpy": np.__version__,
            "blas": _blas_build()}


def _blas_build() -> dict | None:
    """Name and version of the BLAS numpy was built with, or None where numpy
    cannot report them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas["name"], "version": blas["version"]}
    except (AttributeError, KeyError, TypeError):  # numpy 1.24 takes no mode
        return None


def _process_record(workers: int, blas: int | None) -> dict:
    """The manifest keys of a command that ran workers processes: BLAS at
    one thread in each when there are several (None stays None: BLAS cannot
    be controlled), and the largest forked worker's peak RSS."""
    several = workers > 1
    return {"workers": workers, "blas_threads": 1 if several and blas is not None else blas,
            "workers_peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN) if several else None}


def _peak_rss_mb(who) -> float:
    """Peak resident set size in MB of who, a resource.RUSAGE_* constant."""
    return round(resource.getrusage(who).ru_maxrss / 1024, 1)  # ru_maxrss is in KiB on Linux


def _threads_cap() -> int | None:
    """TRAJDIFF_THREADS, the cap on the processes train and generate run, or
    None when it is unset; usage error unless it is an integer of at least 1."""
    cap = os.environ.get("TRAJDIFF_THREADS")
    if cap is None:
        return None
    try:
        cap = int(cap)
    except ValueError:
        pass  # _check names the text as not an integer
    _check("TRAJDIFF_THREADS", THREADS_CAP, cap)
    return cap


def _check_out_path(path) -> None:
    """Data error unless path can be written as a file, checked before the
    work whose result goes there."""
    if os.path.isdir(path):
        raise DataError(f"{path}: is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise DataError(f"{path}: directory {parent} does not exist")
    if not os.access(parent, os.W_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise DataError(f"{path}: permission denied")


def _check_points(n: int, per: int, what: str) -> None:
    """Usage error unless n trajectories of per points each (what names per)
    stay within MAX_POINTS."""
    if n * per > MAX_POINTS:
        raise UsageError(f"--n {n} times {what} {per} is {n * per} points, "
                         f"above the cap of {MAX_POINTS}")


def _grid_shape(text: str) -> tuple[int, int]:
    """(rows, cols) of a ROWSxCOLS grid flag; both must be positive, with at
    most MAX_GRID_CELLS cells."""
    try:
        rows, cols = (int(x) for x in text.lower().split("x"))
    except (AttributeError, ValueError) as e:
        raise UsageError(f"bad grid spec {_shown(text)}, expected ROWSxCOLS") from e
    if rows < 1 or cols < 1:
        raise UsageError(f"grid spec {_shown(text)} needs at least one row and one column")
    if rows * cols > MAX_GRID_CELLS:
        raise UsageError(f"grid spec {_shown(text)} has more than {MAX_GRID_CELLS} cells")
    return rows, cols


def _bbox(text: str) -> tuple[float, float, float, float]:
    """The usable bounding box of a LNGMIN,LNGMAX,LATMIN,LATMAX flag."""
    try:
        bbox = tuple(float(x) for x in text.split(","))
    except ValueError:
        bbox = ()
    why = box_problem(*bbox) if len(bbox) == 4 else "expected LNGMIN,LNGMAX,LATMIN,LATMAX"
    if why:
        raise UsageError(f"bad --bbox {_shown(text)}: {why}")
    return bbox


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> tuple:
    cfg = _resolve(args, SYNTH_SETTINGS)
    spec = CitySpec()
    inputs = []
    if args.city_spec:
        with open(args.city_spec, "r", encoding="utf-8") as fh:
            try:
                spec = CitySpec.from_dict(json.load(fh))
            except (RecursionError, TypeError, ValueError, UsageError) as e:
                raise UsageError(f"bad city spec {args.city_spec}: {_cut(str(e))}") from e
        inputs.append(args.city_spec)
    _check_points(cfg["n"], spec.max_points, "the city spec's max_points")
    trajs = synth_city(seed=cfg["seed"], n_trajectories=cfg["n"], spec=spec)
    save_dataset(args.out, trajs, meta={"generator": "synth_city", "seed": cfg["seed"],
                                        "n": cfg["n"], "city": spec.to_dict(),
                                        "version": __version__})
    print(f"wrote {len(trajs)} trajectories to {args.out}")
    return cfg, inputs, [args.out], {}


def cmd_train(args) -> tuple:
    cfg = _resolve(args, TRAIN_SETTINGS)
    try:
        model_cfg = TrajUNetConfig(length=cfg["length"], base_channels=cfg["base_channels"])
        sched = linear_beta_schedule(cfg["T"], cfg["beta_start"], cfg["beta_end"])
        train_cfg = TrainConfig(steps=cfg["steps"], batch_size=cfg["batch"],
                                learning_rate=cfg["lr"], cond_dropout_prob=cfg["cond_dropout"],
                                seed=cfg["seed"])
    except ValueError as e:
        raise UsageError(str(e)) from e
    workers = train_workers(cfg["batch"], _threads_cap())
    _check_out_path(args.out)

    result = load_dataset(args.data)
    trajs = result.trajectories
    norm = NormStats.fit(trajs)
    grid = dataset_grid(args.data, result)
    batch = make_batch(trajs, cfg["length"], norm)
    conds = extract_condition_batch(trajs, grid, norm)

    model = TrajUNet(model_cfg, rng=stream(cfg["seed"]))
    blas = tz.blas_threads()
    t_train = time.perf_counter()
    history = train(model, batch.data, conds, train_cfg, sched, workers=workers)
    train_s = time.perf_counter() - t_train

    save_checkpoint(args.out, model, sched, norm, grid, train_steps=cfg["steps"],
                    seed=cfg["seed"])
    loss_path = str(args.out) + ".loss.csv"
    with open(loss_path, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for i, v in enumerate(history):
            fh.write(f"{i},{v:.6f}\n")
    print(f"trained {cfg['steps']} steps on {len(trajs)} trajectories -> {args.out}")
    # as in generate: blas_threads is the count the shard processes ran at,
    # and the forked worker's peak is apart from peak_rss_mb
    return cfg, [args.data], [args.out, loss_path], {
        "n_trajectories": len(trajs),
        "final_loss": float(history[-1]) if len(history) else None,
        "step_ms_mean": round(train_s * 1e3 / len(history), 3) if len(history) else None,
        **_process_record(workers, blas)}


def _load_conditions(path, norm: NormStats, grid: GridSpec, n: int, seed: int) -> ConditionBatch:
    conds = extract_condition_batch(load_dataset(path, min_points=2).trajectories, grid, norm)
    idx = stream(seed, _COND_STREAM_ID).integers(0, len(conds), size=n)
    return conds.take(idx)


def cmd_generate(args) -> tuple:
    cfg = _resolve(args, GENERATE_SETTINGS)
    if bool(args.cond_file) == bool(args.uncond):
        raise UsageError("pass exactly one of --cond-file or --uncond")
    n = cfg["n"]
    if n is None:
        raise UsageError("--n is required")
    cap = _threads_cap()
    # as train: one process per usable core, at most cap; sample runs at most
    # one per micro-batch
    workers = len(os.sched_getaffinity(0)) if cfg["workers"] is None else cfg["workers"]
    workers = workers if cap is None else min(workers, cap)
    _check_out_path(args.out)
    model, sched, norm, grid, header = load_checkpoint(args.ckpt)
    _check_points(n, model.config.length, "the checkpoint's length")
    if cfg["steps"] is not None and cfg["steps"] > sched.T:
        raise UsageError(f"--steps {_shown(cfg['steps'])} exceeds the checkpoint's T={sched.T}")

    inputs = [args.ckpt]
    if args.cond_file:
        conds = _load_conditions(args.cond_file, norm, grid, n, cfg["seed"])
        inputs.append(args.cond_file)
    else:
        conds = None

    sampler = SamplerConfig(total_steps=sched.T, sample_steps=cfg["steps"], eta=cfg["eta"],
                            guidance_scale=cfg["omega"], seed=cfg["seed"])
    batch, stats = sample(model, conds, sampler, sched, n=n, workers=workers,
                          micro_batch=cfg["batch"])

    point_lists = batch_to_points(batch, norm)
    _bbox_soft_check(point_lists, norm)
    out_trajs = []
    for i, pts in enumerate(point_lists):
        slot = int(conds.slot[i]) if conds is not None else 0
        out_trajs.append(RawTrajectory(id=f"gen-{i:05d}", points=pts, t0=float(slot * SLOT_SECONDS)))
    save_dataset(args.out, out_trajs, meta={"generator": "diffusion", "seed": cfg["seed"],
                                            "checkpoint_sha256": _sha256(args.ckpt),
                                            "sampler": {"steps": stats["steps"], "eta": cfg["eta"],
                                                        "omega": cfg["omega"]},
                                            "version": __version__})
    print(f"generated {n} trajectories with {stats['steps']} steps "
          f"({stats['model_evals']} model evals) -> {args.out}")
    # blas_threads is the count the samplers ran at; forked workers are child
    # processes, so their activations are not in peak_rss_mb
    return cfg, inputs, [args.out], {
        "model_evals": stats["model_evals"], "sample_steps": stats["steps"],
        **_process_record(stats["workers"], stats["blas_threads"])}


def _bbox_soft_check(point_lists, norm: NormStats) -> None:
    dlng = 0.05 * (norm.lng_max - norm.lng_min)
    dlat = 0.05 * (norm.lat_max - norm.lat_min)
    box = GridSpec(norm.lng_min - dlng, norm.lng_max + dlng,
                   norm.lat_min - dlat, norm.lat_max + dlat, 1, 1)
    counts, outside = box.cell_counts(point_lists)
    if outside:
        log.warning("%.2f%% of generated points fall outside the training bounding box "
                    "(plus 5%% margin)", 100.0 * (outside / counts.sum()))


def cmd_eval(args) -> tuple:
    cfg = _resolve(args, EVAL_SETTINGS)
    rows, cols = _grid_shape(cfg["grid"])
    if cfg["topn"] > rows * cols:
        raise UsageError(f"--topn {cfg['topn']} exceeds the {rows * cols} cells of a "
                         f"{rows}x{cols} grid")
    bbox = _bbox(args.bbox) if args.bbox else None
    _check_out_path(args.out)
    gen = load_dataset(args.gen, min_points=2).trajectories
    real_result = load_dataset(args.real, min_points=2)
    real = real_result.trajectories
    grid = GridSpec(*bbox, rows, cols) if bbox else dataset_grid(args.real, real_result, rows, cols)
    if cfg["length"] is not None:
        gen = [resample(t.points, cfg["length"]) for t in gen]
        real = [resample(t.points, cfg["length"]) for t in real]
    try:
        report = evaluate(gen, real, grid, top_n=cfg["topn"], length_bins=cfg["bins"],
                          distance_metric=cfg["metric"])
    except ValueError as e:
        raise DataError(str(e)) from e
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    print(f"{'metric':<16}{'value':>10}")
    for name in ("density_error", "trip_error", "length_error", "pattern_score"):
        print(f"{name:<16}{getattr(report, name):>10.4f}")
    return cfg, [args.gen, args.real], [args.out], {}


def cmd_plot(args) -> tuple:
    shape = _grid_shape(args.grid)
    _check_out_path(args.out)
    points = [t.points for t in load_dataset(args.data, min_points=2)]
    if args.mode == "lines":
        svg = plot_lines(points)
    else:
        svg = plot_heatmap(points, GridSpec(*extent(points), *shape))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg + "\n")
    print(f"wrote {args.mode} plot -> {args.out}")
    return {"mode": args.mode, "grid": args.grid, "seed": None}, [args.data], [args.out], {}


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _add_settings(parser: argparse.ArgumentParser, table: dict) -> None:
    """One flag per setting (its name with "_" -> "-"), then --config."""
    for name, s in table.items():
        kind = {"choices": s.kind} if isinstance(s.kind, tuple) else {"type": s.kind}
        parser.add_argument("--" + name.replace("_", "-"), dest=name, help=s.help, **kind)
    parser.add_argument("--config")


def build_parser() -> _Parser:
    p = _Parser(prog="trajdiff", description="trajectory diffusion toolkit")
    p.add_argument("--version", action="version", version=f"trajdiff {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic street-lattice dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--city-spec", dest="city_spec", help="JSON city spec file")
    _add_settings(sp, SYNTH_SETTINGS)
    sp.set_defaults(fn=cmd_synth)

    tp = sub.add_parser("train", help="train a denoiser on a dataset")
    tp.add_argument("--data", required=True)
    tp.add_argument("--out", required=True, help="checkpoint path")
    _add_settings(tp, TRAIN_SETTINGS)
    tp.set_defaults(fn=cmd_train)

    gp = sub.add_parser("generate", help="sample trajectories from a checkpoint")
    gp.add_argument("--ckpt", required=True)
    gp.add_argument("--out", required=True)
    gp.add_argument("--cond-file", dest="cond_file")
    gp.add_argument("--uncond", action="store_true")
    _add_settings(gp, GENERATE_SETTINGS)
    gp.set_defaults(fn=cmd_generate)

    ep = sub.add_parser("eval", help="score a generated set against a reference set")
    ep.add_argument("--gen", required=True)
    ep.add_argument("--real", required=True)
    ep.add_argument("--out", required=True, help="metric report JSON path")
    ep.add_argument("--bbox", help="grid frame LNGMIN,LNGMAX,LATMIN,LATMAX "
                    "(default: the real set's city header or data extent)")
    _add_settings(ep, EVAL_SETTINGS)
    ep.set_defaults(fn=cmd_eval)

    pp = sub.add_parser("plot", help="render a dataset to SVG")
    pp.add_argument("--data", required=True)
    pp.add_argument("--out", required=True)
    pp.add_argument("--mode", choices=["lines", "heatmap"], default="lines")
    pp.add_argument("--grid", default=f"{GRID_SIDE}x{GRID_SIDE}")
    pp.set_defaults(fn=cmd_plot)
    return p


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        t0 = time.time()
        _write_manifest(args.command, t0, *args.fn(args))
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
