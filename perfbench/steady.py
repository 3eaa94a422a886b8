"""Steadiness check for the end-to-end metrics.

    python3 perfbench/steady.py --seeds 1-10 --sets 2 [--workloads train_desk,sample_pooled]

Runs each workload of BENCHMARK.json (or the ones named) once per seed (a fresh process each, one after another)
and, per end-to-end metric, prints the quartiles of the values and their
spread: (q3 - q1) / median, with statistics.quantiles(values, n=4). A spread
must stay within the metric's bound in BENCHMARK.json, and below a third of
it to count as steady. With --sets 2 the seeds are run again, each set's
median is compared with the first set's by the bound, and every seed must
reproduce its output sha256 digests exactly (the determinism contract).
Results go to .bench_results/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import RESULTS, ROOT

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    with open(RESULTS / f"{workload}-seed{seed}-trace0.json", encoding="utf-8") as fh:
        return {**json.load(fh), "process_wall_s": wall_s}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worse_is_higher = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}

    report, ok = {}, True
    for wl in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = {seed: run(wl, seed, bench["run_seconds"]) for seed in args.seeds}
            sets.append(runs)
            walls = [r["process_wall_s"] for r in runs.values()]
            print(f"{wl} set {s + 1}: process wall s min {min(walls):.1f} mean "
                  f"{statistics.mean(walls):.1f} max {max(walls):.1f}; 1-min loadavg at start "
                  f"{[round(r['environment']['loadavg_1m_start'], 2) for r in runs.values()]}")
        report[wl] = {}
        for name, bound in bounds.items():
            rows = []
            for runs in sets:
                vals = [r["end_to_end"][name]["value"] for r in runs.values()]
                q1, med, q3, sp = spread(vals)
                rows.append({"values": vals, "q1": q1, "median": med, "q3": q3, "spread": sp})
            drift = max((r["median"] - rows[0]["median"]) / rows[0]["median"]
                        * (1 if worse_is_higher[name] else -1) for r in rows)
            steady = all(r["spread"] <= bound for r in rows)
            verdict = "ok" if steady and drift <= bound else "FAIL"
            ok &= verdict == "ok"
            report[wl][name] = {"bound": bound, "sets": rows, "worst_drift": drift}
            spreads = " ".join(f"{r['spread']:.4f}" for r in rows)
            print(f"  {name:<16} median {rows[0]['median']:<12.6g} q1 {rows[0]['q1']:<12.6g} "
                  f"q3 {rows[0]['q3']:<12.6g} spread {spreads} (bound {bound}, third "
                  f"{bound / 3:.4f}) drift {drift:+.4f} {verdict}")
        for seed in args.seeds:
            digests = [runs[seed]["output_sha256"] for runs in sets]
            if any(d != digests[0] for d in digests):
                print(f"  seed {seed}: output sha256 differs between sets: FAIL")
                ok = False
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "steady.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
