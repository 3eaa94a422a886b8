"""Command-line front end: synth | train | generate | eval | plot.

Every subcommand resolves its settings as flags > --config JSON > built-in
defaults, writes its outputs, and drops a run manifest (resolved settings,
seed, input hashes, wall time, output paths) next to the primary output.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 numeric failure, 4 internal
error (any other exception; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

from . import __version__
from . import tensor as tz
from .checkpoint import load_checkpoint, save_checkpoint
from .diffusion import SamplerConfig, TrainConfig, sample, train
from .errors import DataError, NumericError, UsageError
from .metrics import evaluate
from .rng import stream
from .schedule import linear_beta_schedule
from .svgplot import plot_heatmap, plot_lines
from .trajdata import (SLOT_SECONDS, CitySpec, ConditionBatch, GridSpec, NormStats,
                       RawTrajectory, batch_to_points, extract_condition_batch,
                       load_dataset, make_batch, resample, save_dataset, synth_city)
from .unet import TrajUNet, TrajUNetConfig

log = logging.getLogger(__name__)

_COND_STREAM_ID = 0x636F6E64  # reserved stream for condition resampling

TRAIN_DEFAULTS = {
    "steps": 3000, "batch": 64, "T": 100, "length": 64, "base_channels": 16,
    "beta_start": 1e-4, "beta_end": 0.15, "lr": 1e-3, "cond_dropout": 0.1,
    "seed": 0,
}
# paper-scale reference: T=500, length=200, batch=1024, base_channels=64,
# beta_end=0.05, lr=2e-4. The desk default beta_end=0.15 keeps the terminal
# signal at 2% (with 0.05 at T=100 the forward process stops 28% short of
# the sampling prior); lr=1e-3 converges ~3x faster at desk batch size.

GENERATE_DEFAULTS = {
    "n": None, "steps": None, "eta": 0.0, "omega": 3.0, "seed": 0,
    "workers": 1, "batch": 128,
}

SYNTH_DEFAULTS = {"n": 2000, "seed": 0}

EVAL_DEFAULTS = {"grid": "16x16", "topn": 10, "bins": 50, "metric": "haversine",
                 "length": None}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """flags > config file > defaults."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise DataError(f"cannot read config {args.config}: {e}") from e
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for k in defaults:
        v = getattr(args, k, None)
        if v is not None:
            cfg[k] = v
    return cfg


def _check_values(cfg: dict, ints: dict, floats: dict | None = None) -> None:
    """Usage error unless each key of ints is an integer and each key of floats
    a finite real number (bools are neither), at least the minimum it maps to.

    A minimum of None means no bound; a value of None is a default left unset.
    """
    checks = [(k, low, (int,)) for k, low in ints.items()]
    checks += [(k, low, (int, float)) for k, low in (floats or {}).items()]
    for key, low, types in checks:
        v = cfg[key]
        if v is None:
            continue
        kind = "an integer" if types == (int,) else "a finite number"
        if (type(v) not in types or (type(v) is float and not math.isfinite(v))
                or (low is not None and v < low)):
            bound = f" of at least {low}" if low is not None else ""
            raise UsageError(f"--{key.replace('_', '-')} must be {kind}{bound}, got {v!r}")


def _write_manifest(out_path, command: str, resolved: dict, inputs: list,
                    outputs: list, t_start: float, extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "settings": {k: v for k, v in resolved.items()},
        "seed": resolved.get("seed"),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_time_s": round(time.time() - t_start, 3),
        "version": __version__,
    }
    if extra:
        manifest.update(extra)
    path = str(out_path) + ".manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _environment(blas_threads: int | None) -> dict:
    """The manifest's environment block: what explains a run's timing."""
    return {"cores": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


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


def _grid_shape(text: str) -> tuple[int, int]:
    """(rows, cols) of a ROWSxCOLS grid flag; both must be positive."""
    try:
        rows, cols = (int(x) for x in text.lower().split("x"))
    except (AttributeError, ValueError) as e:
        raise UsageError(f"bad grid spec {text!r}, expected ROWSxCOLS") from e
    if rows < 1 or cols < 1:
        raise UsageError(f"grid spec {text!r} needs at least one row and one column")
    return rows, cols


def _meta_grid(meta) -> GridSpec | None:
    """Grid over the city bounding box recorded in a dataset header, if any."""
    if not meta or "city" not in meta:
        return None
    c = meta["city"]
    try:
        return GridSpec(c["lng_min"], c["lng_max"], c["lat_min"], c["lat_max"])
    except (KeyError, TypeError):
        return None


def _dataset_bbox(trajs) -> tuple[float, float, float, float]:
    allp = np.concatenate([t.points for t in trajs])
    lng_min, lng_max = float(allp[:, 0].min()), float(allp[:, 0].max())
    lat_min, lat_max = float(allp[:, 1].min()), float(allp[:, 1].max())
    # pad zero-extent axes so point-like datasets still define a grid
    if lng_max <= lng_min:
        lng_max = lng_min + 1e-9
    if lat_max <= lat_min:
        lat_max = lat_min + 1e-9
    return lng_min, lng_max, lat_min, lat_max


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    t0 = time.time()
    cfg = _resolve(args, SYNTH_DEFAULTS)
    _check_values(cfg, {"n": 0, "seed": None})
    spec = CitySpec()
    inputs = []
    if args.city_spec:
        with open(args.city_spec, "r", encoding="utf-8") as fh:
            try:
                spec = CitySpec.from_dict(json.load(fh))
            except (TypeError, ValueError) as e:
                raise UsageError(f"bad city spec {args.city_spec}: {e}") from e
        inputs.append(args.city_spec)
    trajs = synth_city(seed=cfg["seed"], n_trajectories=cfg["n"], spec=spec)
    save_dataset(args.out, trajs, meta={"generator": "synth_city", "seed": cfg["seed"],
                                        "n": cfg["n"], "city": spec.to_dict(),
                                        "version": __version__})
    _write_manifest(args.out, "synth", cfg, inputs, [args.out], t0)
    print(f"wrote {len(trajs)} trajectories to {args.out}")
    return 0


def cmd_train(args) -> int:
    t0 = time.time()
    cfg = _resolve(args, TRAIN_DEFAULTS)
    _check_values(cfg, {"steps": 0, "batch": 1, "T": 1, "length": 1, "base_channels": 1,
                        "seed": None},
                  {"beta_start": None, "beta_end": None, "lr": None, "cond_dropout": None})
    try:
        model_cfg = TrajUNetConfig(length=cfg["length"], base_channels=cfg["base_channels"])
        sched = linear_beta_schedule(cfg["T"], cfg["beta_start"], cfg["beta_end"])
        train_cfg = TrainConfig(steps=cfg["steps"], batch_size=cfg["batch"],
                                learning_rate=cfg["lr"], cond_dropout_prob=cfg["cond_dropout"],
                                seed=cfg["seed"])
    except ValueError as e:
        raise UsageError(str(e)) from e
    _check_out_path(args.out)

    result = load_dataset(args.data)
    trajs = result.trajectories
    if not trajs:
        raise DataError(f"{args.data}: no trainable trajectories")

    norm = NormStats.fit(trajs)
    grid = _meta_grid(result.meta) or norm.grid()
    batch = make_batch(trajs, cfg["length"], norm)
    conds = extract_condition_batch(trajs, grid, norm)

    model = TrajUNet(model_cfg, rng=stream(cfg["seed"]))
    t_train = time.perf_counter()
    history = train(model, batch.data, conds, train_cfg, sched)
    train_s = time.perf_counter() - t_train

    save_checkpoint(args.out, model, sched, norm, grid, train_steps=cfg["steps"],
                    seed=cfg["seed"])
    loss_path = str(args.out) + ".loss.csv"
    with open(loss_path, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for i, v in enumerate(history):
            fh.write(f"{i},{v:.6f}\n")
    _write_manifest(args.out, "train", cfg, [args.data], [args.out, loss_path], t0,
                    extra={"n_trajectories": len(trajs),
                           "final_loss": float(history[-1]) if len(history) else None,
                           "step_ms_mean": (round(train_s * 1e3 / len(history), 3)
                                            if len(history) else None),
                           **_environment(tz.blas_threads())})
    print(f"trained {cfg['steps']} steps on {len(trajs)} trajectories -> {args.out}")
    return 0


def _load_conditions(path, norm: NormStats, grid: GridSpec, n: int, seed: int) -> ConditionBatch:
    result = load_dataset(path, min_points=2)
    if not result.trajectories:
        raise DataError(f"{path}: no usable condition trajectories")
    conds = extract_condition_batch(result.trajectories, grid, norm)
    idx = stream(seed, _COND_STREAM_ID).integers(0, len(conds), size=n)
    return conds.take(idx)


def cmd_generate(args) -> int:
    t0 = time.time()
    cfg = _resolve(args, GENERATE_DEFAULTS)
    _check_values(cfg, {"n": 0, "steps": 1, "seed": None, "workers": 1, "batch": 1},
                  {"eta": 0.0, "omega": None})
    if bool(args.cond_file) == bool(args.uncond):
        raise UsageError("pass exactly one of --cond-file or --uncond")
    n = cfg["n"]
    if n is None:
        raise UsageError("--n is required")
    _check_out_path(args.out)
    model, sched, norm, grid, header = load_checkpoint(args.ckpt)

    steps = cfg["steps"] if cfg["steps"] is not None else max(1, sched.T // 5)
    if steps > sched.T:
        raise UsageError(f"--steps {steps} exceeds the checkpoint's T={sched.T}")

    inputs = [args.ckpt]
    if args.cond_file:
        conds = _load_conditions(args.cond_file, norm, grid, n, cfg["seed"])
        inputs.append(args.cond_file)
    else:
        conds = None

    env_cap = os.environ.get("TRAJDIFF_THREADS")
    workers = cfg["workers"]
    if env_cap is not None:
        try:
            workers = max(1, min(workers, int(env_cap)))
        except ValueError as e:
            raise UsageError(f"TRAJDIFF_THREADS must be an integer, got {env_cap!r}") from e

    sampler = SamplerConfig(total_steps=sched.T, sample_steps=steps, eta=cfg["eta"],
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
                                            "checkpoint": str(args.ckpt),
                                            "sampler": {"steps": stats["steps"], "eta": cfg["eta"],
                                                        "omega": cfg["omega"]},
                                            "version": __version__})
    _write_manifest(args.out, "generate", cfg, inputs, [args.out], t0,
                    extra={"model_evals": stats["model_evals"], "sample_steps": stats["steps"],
                           "workers": stats["workers"], **_environment(stats["blas_threads"])})
    print(f"generated {n} trajectories with {stats['steps']} steps "
          f"({stats['model_evals']} model evals) -> {args.out}")
    return 0


def _bbox_soft_check(point_lists, norm: NormStats) -> None:
    margin_lng = 0.05 * (norm.lng_max - norm.lng_min)
    margin_lat = 0.05 * (norm.lat_max - norm.lat_min)
    allp = np.concatenate(point_lists) if point_lists else np.zeros((0, 2))
    if allp.size == 0:
        return
    outside = ((allp[:, 0] < norm.lng_min - margin_lng) | (allp[:, 0] > norm.lng_max + margin_lng)
               | (allp[:, 1] < norm.lat_min - margin_lat) | (allp[:, 1] > norm.lat_max + margin_lat))
    if outside.any():
        log.warning("%.2f%% of generated points fall outside the training bounding box "
                    "(plus 5%% margin)", 100.0 * outside.mean())


def cmd_eval(args) -> int:
    t0 = time.time()
    cfg = _resolve(args, EVAL_DEFAULTS)
    _check_values(cfg, {"topn": 1, "bins": 1, "length": 2})
    rows, cols = _grid_shape(cfg["grid"])
    _check_out_path(args.out)
    gen = load_dataset(args.gen, min_points=2).trajectories
    real_result = load_dataset(args.real, min_points=2)
    real = real_result.trajectories
    if not gen or not real:
        raise DataError("both --gen and --real must contain trajectories")
    if args.bbox:
        try:
            bbox = tuple(float(x) for x in args.bbox.split(","))
            assert len(bbox) == 4
        except (ValueError, AssertionError) as e:
            raise UsageError(f"bad --bbox {args.bbox!r}, expected LNGMIN,LNGMAX,LATMIN,LATMAX") from e
    else:
        meta_grid = _meta_grid(real_result.meta)
        bbox = ((meta_grid.lng_min, meta_grid.lng_max, meta_grid.lat_min, meta_grid.lat_max)
                if meta_grid else _dataset_bbox(real))
    grid = GridSpec(*bbox, rows, cols)
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
    _write_manifest(args.out, "eval", cfg, [args.gen, args.real], [args.out], t0)
    print(f"{'metric':<16}{'value':>10}")
    for name in ("density_error", "trip_error", "length_error", "pattern_score"):
        print(f"{name:<16}{getattr(report, name):>10.4f}")
    return 0


def cmd_plot(args) -> int:
    t0 = time.time()
    trajs = load_dataset(args.data, min_points=2).trajectories
    if not trajs:
        raise DataError(f"{args.data}: nothing to plot")
    points = [t.points for t in trajs]
    if args.mode == "lines":
        svg = plot_lines(points)
    else:
        grid = GridSpec(*_dataset_bbox(trajs), *_grid_shape(args.grid))
        svg = plot_heatmap(points, grid)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg + "\n")
    _write_manifest(args.out, "plot", {"mode": args.mode, "grid": args.grid, "seed": None},
                    [args.data], [args.out], t0)
    print(f"wrote {args.mode} plot -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="trajdiff", description="trajectory diffusion toolkit")
    p.add_argument("--version", action="version", version=f"trajdiff {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic street-lattice dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--city-spec", dest="city_spec", help="JSON city spec file")
    sp.add_argument("--config")
    sp.set_defaults(fn=cmd_synth)

    tp = sub.add_parser("train", help="train a denoiser on a dataset")
    tp.add_argument("--data", required=True)
    tp.add_argument("--out", required=True, help="checkpoint path")
    tp.add_argument("--steps", type=int)
    tp.add_argument("--batch", type=int)
    tp.add_argument("--T", type=int, dest="T")
    tp.add_argument("--length", type=int)
    tp.add_argument("--base-channels", type=int, dest="base_channels")
    tp.add_argument("--beta-start", type=float, dest="beta_start")
    tp.add_argument("--beta-end", type=float, dest="beta_end")
    tp.add_argument("--lr", type=float)
    tp.add_argument("--cond-dropout", type=float, dest="cond_dropout")
    tp.add_argument("--seed", type=int)
    tp.add_argument("--config")
    tp.set_defaults(fn=cmd_train)

    gp = sub.add_parser("generate", help="sample trajectories from a checkpoint")
    gp.add_argument("--ckpt", required=True)
    gp.add_argument("--out", required=True)
    gp.add_argument("--n", type=int)
    gp.add_argument("--steps", type=int, help="sample steps S (default: T / 5)")
    gp.add_argument("--eta", type=float)
    gp.add_argument("--omega", type=float)
    gp.add_argument("--cond-file", dest="cond_file")
    gp.add_argument("--uncond", action="store_true")
    gp.add_argument("--seed", type=int)
    gp.add_argument("--workers", type=int)
    gp.add_argument("--batch", type=int, help="sampling micro-batch size")
    gp.add_argument("--config")
    gp.set_defaults(fn=cmd_generate)

    ep = sub.add_parser("eval", help="score a generated set against a reference set")
    ep.add_argument("--gen", required=True)
    ep.add_argument("--real", required=True)
    ep.add_argument("--out", required=True, help="metric report JSON path")
    ep.add_argument("--grid")
    ep.add_argument("--topn", type=int)
    ep.add_argument("--bins", type=int)
    ep.add_argument("--metric", choices=["haversine", "euclidean"])
    ep.add_argument("--length", type=int,
                    help="resample both sets to this length before scoring")
    ep.add_argument("--bbox", help="grid frame LNGMIN,LNGMAX,LATMIN,LATMAX "
                    "(default: the real set's city header or data extent)")
    ep.add_argument("--config")
    ep.set_defaults(fn=cmd_eval)

    pp = sub.add_parser("plot", help="render a dataset to SVG")
    pp.add_argument("--data", required=True)
    pp.add_argument("--out", required=True)
    pp.add_argument("--mode", choices=["lines", "heatmap"], default="lines")
    pp.add_argument("--grid", default="16x16")
    pp.set_defaults(fn=cmd_plot)
    return p


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
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
