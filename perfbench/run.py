"""trajdiff benchmark: train, sample and score workloads, end to end and per layer.

One workload per process:

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 25 --trace 0

prints one row of named metrics, then as its last line a JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
The full result, with the environment block, is written to
.bench_results/<workload>-seed<n>-trace<t>.json (and the spans of a traced
run to the matching .spans.jsonl).

All workloads, each in a fresh process, one after another:

    python3 perfbench/run.py --workload all --seed 1 --seconds 25 [--trace 1]

prints one row per workload (and with --trace 1 a traced run per workload
plus its layer summary and tracing overhead), and exits non-zero when an
output check fails. See perfbench/README.md for the metrics.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RESULTS = ROOT / ".bench_results"
SETUP_REPS = 8  # half before the timed phase, half after it


def benchmark() -> dict:
    """BENCHMARK.json: the workload names and every metric's name and unit."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment() -> dict:
    """What explains a timing: cores, interpreter, BLAS build, thread settings."""
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": deps.get("blas", {}),
        "lapack": deps.get("lapack", {}),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "TRAJDIFF_THREADS": os.environ.get("TRAJDIFF_THREADS"),
        "git_commit": git_commit(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


# what a fresh process imports before its first set-up: the benchmark and the program
IMPORT_PROBE = (f"import sys; sys.path[:0] = {[str(ROOT / 'src'), str(HERE)]!r}; "
                "import tracing, workloads")


def metric_block(values: dict, listed: list[dict]) -> dict:
    """The metrics in BENCHMARK.json's order, each with its unit from there."""
    names = [m["name"] for m in listed]
    if sorted(values) != sorted(names):
        raise KeyError(f"computed metrics differ from BENCHMARK.json: "
                       f"{sorted(set(values) ^ set(names))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import trajdiff  # noqa: F401
        import tracing
        import workloads
    except ImportError as e:
        print(f"cannot import the program under {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T_START
    env = environment()
    bench = benchmark()

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RESULTS / f"work-{os.getpid()}"
    wl = workloads.make(args.workload, args.seconds, args.size == "tiny", workdir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_s = []

        def set_up():
            """One set-up as a fresh process sees it: a new interpreter imports
            the program, then the workload makes its inputs."""
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                           check=True, timeout=120)
            ctx = wl.setup(args.seed)
            setup_s.append(time.perf_counter() - t0)
            return ctx

        # half the set-ups run before the timed phase and half after it, so their
        # median spans the shared machine's state over the whole run
        for rep in range(SETUP_REPS // 2):
            if tracer is not None and rep == SETUP_REPS // 2 - 1:
                tracing.install(tracer)  # trace the set-up the timed phase uses
            ctx = set_up()
        if tracer is not None:
            tracer.phase = "timed"
        t0 = time.perf_counter()
        m = wl.measure(ctx)
        timed_wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        del ctx
        for _ in range(SETUP_REPS - SETUP_REPS // 2):
            set_up()
    finally:
        if workdir.exists():
            shutil.rmtree(workdir)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "throughput_per_s": m.units / timed_wall_s,
        "quality_error": m.quality,
    }
    end_to_end = metric_block(e2e, bench["end_to_end"])
    # the row: every end-to-end metric, then the workload's own names
    named = {**{k: (v["value"], v["unit"]) for k, v in end_to_end.items()},
             "failed_frac": (m.failed / m.attempted, "frac"), **m.named}
    correct = m.failed == 0 and all(numpy.isfinite(v) for v in e2e.values())

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": env,
        "correct": correct, "attempted": m.attempted, "failed": m.failed,
        "end_to_end": end_to_end,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "import_s": import_s, "setup_reps_s": setup_s, "timed_wall_s": timed_wall_s,
        "ops": len(m.op_s), "op_s": m.op_s, "output_sha256": m.digests,
    }
    if tracer is not None:
        layer, summary = tracing.layer_metrics(tracer, timed_wall_s, wl.workers,
                                               tracing.span_cost_s())
        result["per_layer"] = metric_block(layer, bench["per_layer"])
        result["trace_summary"] = summary
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    env["loadavg_1m_end"] = os.getloadavg()[0]
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    row = "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in named.items())
    print(f"{args.workload:<14} {'traced' if args.trace else 'untraced'}  {row}")
    metrics = result["per_layer"] if tracer is not None else result["end_to_end"]
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0 if correct else 3


def run_all(args) -> int:
    """Each workload in a fresh process, one after another; traced runs follow
    their untraced twin so the overhead compares equal work."""
    status = 0
    for wl in (w["name"] for w in benchmark()["workloads"]):
        walls = {}
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if len(lines) >= 2:
                print(lines[-2])
            if proc.returncode != 0:
                print(f"{wl:<14} FAILED (exit {proc.returncode}) {proc.stderr.strip()}")
                status = 1
                continue
            path = RESULTS / f"{wl}-seed{args.seed}-trace{trace}.json"
            with open(path, encoding="utf-8") as fh:
                res = json.load(fh)
            walls[trace] = res["timed_wall_s"]
            if trace:
                s = res["trace_summary"]
                shares = "  ".join(f"{k}={v:.3f}" for k, v in s["layer_self_share"].items())
                pl = res["per_layer"]
                print(f"{'':<14} layer self-time share of timed wall: {shares}")
                measured = (f"{walls[1] / walls[0] - 1:+.4f} (traced {walls[1]:.3f} s vs "
                            f"untraced {walls[0]:.3f} s)" if 0 in walls else "n/a")
                print(f"{'':<14} span coverage={s['span_coverage_frac']:.4f}  "
                      f"tensor fwd+bwd share={pl['trace.tensor_frac']['value']:.4f}  "
                      f"overhead measured={measured}  "
                      f"estimated={pl['trace.overhead_est_frac']['value']:.4f}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or all of them")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="sets the work per run: about this long at the seed code's rate")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    names = [w["name"] for w in benchmark()["workloads"]]
    if args.workload not in names + ["all"]:
        ap.error(f"--workload must be one of {', '.join(names)} or all")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
