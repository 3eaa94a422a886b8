#!/usr/bin/env python3
"""Desk-scale end-to-end experiment, driven through the CLI.

Synthesizes a lattice city, trains the desk model, generates with skip-step
sampling, and scores the output against a held-out split next to the
Gaussian-perturbation (GP), random-perturbation (RP) and uniform-noise
baselines. Artifacts land in the working directory given by --workdir.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


def run(*argv):
    cmd = [sys.executable, "-m", "trajdiff.cli", *map(str, argv)]
    print("+", " ".join(cmd[2:]))
    t0 = time.time()
    subprocess.run(cmd, check=True)
    return time.time() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", default="desk_run")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--steps", type=int, default=3000)
    ap.add_argument("--gen-n", type=int, default=1000)
    ap.add_argument("--sample-steps", type=int, default=20)
    args = ap.parse_args()

    wd = Path(args.workdir)
    wd.mkdir(parents=True, exist_ok=True)
    city = wd / "city.jsonl"
    train_file = wd / "train.jsonl"
    heldout_file = wd / "heldout.jsonl"
    ckpt = wd / "desk.ckpt"
    gen = wd / "gen.jsonl"

    run("synth", "--out", city, "--seed", args.seed, "--n", args.n)

    # 80/20 split by line (the first line is the meta header)
    lines = city.read_text().strip().split("\n")
    header, records = lines[0], lines[1:]
    cut = int(0.8 * len(records))
    train_file.write_text("\n".join([header] + records[:cut]) + "\n")
    heldout_file.write_text("\n".join([header] + records[cut:]) + "\n")

    t_train = run("train", "--data", train_file, "--out", ckpt,
                  "--steps", args.steps, "--batch", 128, "--seed", args.seed)
    print(f"training took {t_train:.0f}s")

    run("generate", "--ckpt", ckpt, "--out", gen, "--n", args.gen_n,
        "--steps", args.sample_steps, "--eta", 0, "--omega", 0,
        "--cond-file", train_file, "--seed", args.seed, "--workers", 4)

    # baselines: gaussian- and uniformly perturbed training data and uniform
    # noise, all at the model length
    from trajdiff.rng import stream
    from trajdiff.trajdata import (RawTrajectory, load_dataset, perturb_gaussian,
                                   perturb_random, resample, save_dataset)

    train_trajs = load_dataset(train_file).trajectories
    rng = stream(args.seed, 0xBA5E)
    idx = rng.integers(0, len(train_trajs), size=args.gen_n)

    def drawn_training_trajs(prefix):
        return [RawTrajectory(id=f"{prefix}-{k:05d}", points=resample(train_trajs[i].points, 64),
                              t0=train_trajs[i].t0) for k, i in enumerate(idx)]

    gp = [perturb_gaussian(t, 0.01, rng) for t in drawn_training_trajs("gp")]
    gp_file = wd / "baseline_gp.jsonl"
    save_dataset(gp_file, gp)

    allp = np.concatenate([t.points for t in train_trajs])
    lo, hi = allp.min(axis=0), allp.max(axis=0)
    uni = [RawTrajectory(id=f"uni-{i:05d}",
                         points=np.stack([rng.uniform(lo[0], hi[0], 64),
                                          rng.uniform(lo[1], hi[1], 64)], axis=1),
                         t0=0.0) for i in range(args.gen_n)]
    uni_file = wd / "baseline_uniform.jsonl"
    save_dataset(uni_file, uni)

    rp = [perturb_random(t, 0.01, rng) for t in drawn_training_trajs("rp")]
    rp_file = wd / "baseline_rp.jsonl"
    save_dataset(rp_file, rp)

    results = {}
    for name, path in (("model", gen), ("gp", gp_file), ("rp", rp_file), ("uniform", uni_file)):
        report = wd / f"report_{name}.json"
        run("eval", "--gen", path, "--real", heldout_file, "--out", report,
            "--length", 64)
        results[name] = json.loads(report.read_text())

    run("plot", "--data", gen, "--out", wd / "gen_lines.svg", "--mode", "lines")
    run("plot", "--data", gen, "--out", wd / "gen_heat.svg", "--mode", "heatmap")
    run("plot", "--data", heldout_file, "--out", wd / "real_lines.svg", "--mode", "lines")

    print(f"\n{'set':<10}{'density':>9}{'trip':>9}{'length':>9}{'pattern':>9}")
    for name, rep in results.items():
        print(f"{name:<10}{rep['density_error']:>9.4f}{rep['trip_error']:>9.4f}"
              f"{rep['length_error']:>9.4f}{rep['pattern_score']:>9.4f}")


if __name__ == "__main__":
    main()
