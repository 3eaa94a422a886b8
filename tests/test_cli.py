import json
import re

import jsonschema
import numpy as np
import pytest

from trajdiff.cli import main
from trajdiff.metrics import REPORT_SCHEMA, grid_density
from trajdiff.trajdata import GridSpec, load_dataset, save_dataset, synth_city

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "city.jsonl"
    assert run("synth", "--out", path, "--seed", 3, "--n", 60) == 0
    return path


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory, city):
    path = tmp_path_factory.mktemp("model") / "m.ckpt"
    assert run("train", "--data", city, "--out", path, "--steps", 2, "--batch", 8,
               "--T", 20, "--length", 16, "--base-channels", 4) == 0
    return path


class TestSynth:
    def test_zero_trajectories_valid_file(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        assert run("synth", "--out", out, "--n", 0, "--seed", 1) == 0
        res = load_dataset(out)
        assert len(res) == 0
        assert res.meta["n"] == 0

    def test_fixed_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run("synth", "--out", a, "--seed", 9, "--n", 25) == 0
        assert run("synth", "--out", b, "--seed", 9, "--n", 25) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_trajectories_long_enough(self, tmp_path):
        out = tmp_path / "c.jsonl"
        assert run("synth", "--out", out, "--seed", 2, "--n", 40) == 0
        res = load_dataset(out)  # default loader enforces the 120-point floor
        assert len(res) == 40
        assert res.dropped_short == 0

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert run("synth", "--out", out, "--seed", 5, "--n", 3) == 0
        manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 5
        assert str(out) in manifest["outputs"]


class TestTrain:
    def test_zero_steps_checkpoint_reloadable(self, city, tmp_path):
        out = tmp_path / "init.ckpt"
        assert run("train", "--data", city, "--out", out, "--steps", 0, "--T", 20,
                   "--length", 16, "--base-channels", 4) == 0
        from trajdiff.checkpoint import load_checkpoint

        model, sched, norm, grid, header = load_checkpoint(out)
        assert header["train_steps"] == 0
        assert sched.T == 20

    def test_loss_csv_written(self, city, tmp_path):
        out = tmp_path / "t.ckpt"
        assert run("train", "--data", city, "--out", out, "--steps", 2, "--batch", 4,
                   "--T", 20, "--length", 16, "--base-channels", 4) == 0
        lines = (tmp_path / "t.ckpt.loss.csv").read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 3

    def test_config_file_precedence(self, city, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 1, "T": 20, "length": 16, "base_channels": 4}))
        out = tmp_path / "c.ckpt"
        # flag overrides config file: steps 2 wins over 1
        assert run("train", "--data", city, "--out", out, "--steps", 2,
                   "--config", cfg, "--batch", 4) == 0
        manifest = json.loads((tmp_path / "c.ckpt.manifest.json").read_text())
        assert manifest["settings"]["steps"] == 2
        assert manifest["settings"]["T"] == 20

    def test_unknown_config_key_usage_error(self, city, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        assert run("train", "--data", city, "--out", tmp_path / "x.ckpt",
                   "--config", cfg) == 1

    def test_missing_data_file_exit_2(self, tmp_path):
        assert run("train", "--data", tmp_path / "nope.jsonl", "--out", tmp_path / "x.ckpt") == 2


class TestGenerate:
    def test_deterministic_at_eta_zero(self, ckpt, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run("generate", "--ckpt", ckpt, "--out", out, "--n", 6, "--steps", 4,
                       "--eta", 0, "--uncond", "--seed", 11) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_guidance_changes_output(self, ckpt, city, tmp_path):
        a, b = tmp_path / "w0.jsonl", tmp_path / "w3.jsonl"
        assert run("generate", "--ckpt", ckpt, "--out", a, "--n", 4, "--steps", 4,
                   "--cond-file", city, "--omega", 0, "--seed", 1) == 0
        assert run("generate", "--ckpt", ckpt, "--out", b, "--n", 4, "--steps", 4,
                   "--cond-file", city, "--omega", 3, "--seed", 1) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_eval_count_in_manifest(self, ckpt, city, tmp_path):
        out = tmp_path / "g.jsonl"
        assert run("generate", "--ckpt", ckpt, "--out", out, "--n", 5, "--steps", 4,
                   "--uncond", "--omega", 0, "--seed", 2) == 0
        manifest = json.loads((tmp_path / "g.jsonl.manifest.json").read_text())
        assert manifest["model_evals"] == 5 * 4

        assert run("generate", "--ckpt", ckpt, "--out", out, "--n", 5, "--steps", 4,
                   "--cond-file", city, "--omega", 3, "--seed", 2) == 0
        manifest = json.loads((tmp_path / "g.jsonl.manifest.json").read_text())
        assert manifest["model_evals"] == 5 * 2 * 4

    def test_steps_exceeding_t_usage_error(self, ckpt, tmp_path):
        assert run("generate", "--ckpt", ckpt, "--out", tmp_path / "x.jsonl", "--n", 1,
                   "--steps", 21, "--uncond") == 1

    def test_bad_thread_cap_usage_error(self, ckpt, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TRAJDIFF_THREADS", "abc")
        assert run("generate", "--ckpt", ckpt, "--out", tmp_path / "x.jsonl", "--n", 1,
                   "--steps", 1, "--uncond") == 1
        assert "TRAJDIFF_THREADS" in capsys.readouterr().err

    def test_condition_flags_required(self, ckpt, tmp_path):
        assert run("generate", "--ckpt", ckpt, "--out", tmp_path / "x.jsonl", "--n", 1) == 1

    def test_corrupt_checkpoint_exit_2(self, ckpt, tmp_path):
        bad = tmp_path / "bad.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[:5] = b"NOPE!"
        bad.write_bytes(bytes(blob))
        assert run("generate", "--ckpt", bad, "--out", tmp_path / "x.jsonl", "--n", 1,
                   "--uncond") == 2


class TestEval:
    def test_self_comparison_scores_perfectly(self, city, tmp_path):
        out = tmp_path / "r.json"
        assert run("eval", "--gen", city, "--real", city, "--out", out) == 0
        rep = json.loads(out.read_text())
        jsonschema.validate(rep, REPORT_SCHEMA)
        assert rep["density_error"] == 0.0
        assert rep["trip_error"] == 0.0
        assert rep["length_error"] == 0.0
        assert rep["pattern_score"] == 1.0

    def test_perturbed_scores_worse_than_identity(self, city, tmp_path):
        from trajdiff.rng import stream
        from trajdiff.trajdata import perturb_random

        trajs = load_dataset(city).trajectories
        rng = stream(21)
        pert_path = tmp_path / "rp.jsonl"
        save_dataset(pert_path, [perturb_random(t, 0.01, rng) for t in trajs])
        out = tmp_path / "r2.json"
        assert run("eval", "--gen", pert_path, "--real", city, "--out", out) == 0
        rep = json.loads(out.read_text())
        for key in ("density_error", "trip_error", "length_error"):
            assert rep[key] > 0.0

    @pytest.mark.parametrize("field", ["points", "t0"])
    def test_bad_value_exit_2_with_line_number(self, city, tmp_path, capsys, field):
        # line 1 is the meta header; line 3 gets a NaN coordinate or a null t0
        lines = city.read_text().splitlines()[:3]
        rec = json.loads(lines[2])
        if field == "points":
            rec["points"][1][0] = float("nan")
        else:
            rec["t0"] = None
        gen = tmp_path / "bad.jsonl"
        gen.write_text("\n".join(lines[:2] + [json.dumps(rec)]) + "\n")
        assert run("eval", "--gen", gen, "--real", city, "--out", tmp_path / "r.json") == 2
        assert "line 3" in capsys.readouterr().err

    def test_empty_gen_exit_2(self, city, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("eval", "--gen", empty, "--real", city, "--out", tmp_path / "r.json") == 2


class TestPlot:
    def test_single_trajectory_single_polyline(self, tmp_path):
        data = tmp_path / "one.jsonl"
        data.write_text(json.dumps({
            "id": "a", "points": [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]], "t0": 0.0}) + "\n")
        out = tmp_path / "one.svg"
        assert run("plot", "--data", data, "--out", out, "--mode", "lines") == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 1
        assert svg.startswith("<svg")

    def test_heatmap_single_cell_full_opacity(self, tmp_path):
        data = tmp_path / "cell.jsonl"
        pts = [[0.031, 0.032]] * 5
        data.write_text(json.dumps({"id": "a", "points": pts, "t0": 0.0}) + "\n")
        out = tmp_path / "cell.svg"
        assert run("plot", "--data", data, "--out", out, "--mode", "heatmap") == 0
        svg = out.read_text()
        rects = re.findall(r'<rect [^>]*fill-opacity="([0-9.]+)"', svg)
        assert len(rects) == 1
        assert float(rects[0]) == 1.0

    def test_heatmap_opacity_tracks_density(self, city, tmp_path):
        out = tmp_path / "heat.svg"
        assert run("plot", "--data", city, "--out", out, "--mode", "heatmap",
                   "--grid", "16x16") == 0
        svg = out.read_text()
        opacities = [float(x) for x in re.findall(r'fill-opacity="([0-9.]+)"', svg)]

        trajs = load_dataset(city, min_points=2).trajectories
        allp = np.concatenate([t.points for t in trajs])
        grid = GridSpec(allp[:, 0].min(), allp[:, 0].max(), allp[:, 1].min(), allp[:, 1].max())
        probs = grid_density([t.points for t in trajs], grid).probs
        expect = probs[probs > 0] / probs.max()
        got = np.sort(opacities)
        want = np.sort(expect)
        assert len(got) == len(want)
        assert np.abs(got - want).max() <= 1.0 / 255 + 1e-9

    def test_empty_dataset_exit_2(self, tmp_path):
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        assert run("plot", "--data", empty, "--out", tmp_path / "x.svg") == 1 or True
        assert run("plot", "--data", empty, "--out", tmp_path / "x.svg") == 2


class TestExitCodes:
    def test_unknown_flag_usage_error(self):
        assert run("synth", "--wat", 1) == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            run("--version")
        assert e.value.code == 0
