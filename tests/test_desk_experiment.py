"""scripts/desk_experiment.py end to end at a tiny scale: every stage runs,
and the uniform baseline spans the train file's header city box."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import trajdiff
from trajdiff.trajdata import extent, load_dataset

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "desk_experiment.py"
SETS = ("model", "gp", "rp", "uniform")


def test_tiny_run_writes_every_artifact(tmp_path):
    src = str(Path(trajdiff.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(SCRIPT), "--workdir", str(tmp_path), "--n", "300",
                          "--steps", "2", "--gen-n", "20", "--sample-steps", "2"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]

    table = out.stdout.splitlines()[-len(SETS):]
    assert [row.split()[0] for row in table] == list(SETS)
    assert all(len(row.split()) == 5 for row in table)
    for name in SETS:
        report = json.loads((tmp_path / f"report_{name}.json").read_text())
        assert 0 <= report["density_error"] <= np.log(2)
    for svg in ("gen_lines.svg", "gen_heat.svg", "real_lines.svg"):
        assert (tmp_path / svg).read_text().startswith("<svg")

    train = load_dataset(tmp_path / "train.jsonl")
    city = train.meta["city"]
    pts = np.concatenate([t.points for t in load_dataset(tmp_path / "baseline_uniform.jsonl",
                                                         min_points=2)])
    assert len(pts) == 20 * 64
    assert (pts[:, 0] >= city["lng_min"]).all() and (pts[:, 0] <= city["lng_max"]).all()
    assert (pts[:, 1] >= city["lat_min"]).all() and (pts[:, 1] <= city["lat_max"]).all()
    # the city box is wider than the training points' extent, and the
    # baseline covers it
    lng_min, lng_max, lat_min, lat_max = extent([t.points for t in train])
    assert (pts[:, 0] < lng_min).any() and (pts[:, 0] > lng_max).any()
    assert (pts[:, 1] < lat_min).any() and (pts[:, 1] > lat_max).any()
