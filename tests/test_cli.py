import argparse
import dataclasses
import json
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import REPORT_SCHEMA
from trajdiff import cli
from trajdiff import tensor as tz
from trajdiff.cli import main
from trajdiff.errors import DataError, NumericError, UsageError
from trajdiff.metrics import grid_density
from trajdiff.trajdata import (CHUNK_TRAJECTORIES, MAX_CITY_POINTS, CitySpec, GridSpec,
                               NormStats, load_dataset, save_dataset, synth_city)


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


def edited_header(city, out, edit):
    """A copy of city with its header's meta object passed through edit(meta)."""
    header, *rest = city.read_text().splitlines()
    head = json.loads(header)
    edit(head["meta"])
    out.write_text("\n".join([json.dumps(head)] + rest) + "\n")
    return out


def edited_checkpoint(ckpt, out, edit):
    """A copy of ckpt with its JSON header passed through edit(header)."""
    blob = ckpt.read_bytes()
    head_end = 9 + int.from_bytes(blob[5:9], "little")
    header = json.loads(blob[9:head_end])
    edit(header)
    head = json.dumps(header).encode("utf-8")
    out.write_bytes(blob[:5] + len(head).to_bytes(4, "little") + head + blob[head_end:])
    return out


# finite bounds whose width overflows float64
OVERFLOWING_BOX = {"lng_min": -1e308, "lng_max": 1e308}

# well-formed JSON nested past the decoder's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


SPEC_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
                         st.floats(), st.sampled_from([1e308, -1e308]), st.text(max_size=8))
SPEC_VALUES = st.one_of(SPEC_SCALARS, st.lists(SPEC_SCALARS, max_size=3))
# point counts stay within a few MB of trajectory even without the cap, or
# overflow int64 outright
POINT_COUNTS = st.one_of(st.integers(-10, MAX_CITY_POINTS + 10), st.integers(2**64, 2**70))
OTHER_CITY_KEYS = [f.name for f in dataclasses.fields(CitySpec)
                   if not f.name.endswith("_points")] + ["bogus", ""]
CITY_SPECS = st.one_of(
    st.builds(lambda counts, rest: {**rest, **counts},
              st.fixed_dictionaries({}, optional={"min_points": POINT_COUNTS,
                                                  "max_points": POINT_COUNTS}),
              st.dictionaries(st.sampled_from(OTHER_CITY_KEYS), SPEC_VALUES, max_size=2)),
    SPEC_VALUES)


class TestSynth:
    def test_zero_trajectories_valid_file(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        assert run("synth", "--out", out, "--n", 0, "--seed", 1) == 0
        with pytest.raises(DataError, match="no usable trajectory"):
            load_dataset(out)
        header, = out.read_text().splitlines()
        assert json.loads(header)["meta"]["n"] == 0

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

    @pytest.mark.parametrize("text", ['{"bogus": 2}', '{"street_fractions": 5}',
                                      '{"jitter_sigma": "wide"}', "not json",
                                      '{"lng_max": Infinity}', '{"point_interval_s": Infinity}',
                                      '{"street_popularity": [1, Infinity, 1]}',
                                      '{"street_popularity": [1e308, 1e308, 1e308]}',
                                      '{"max_points": 100000000000000000000000000000}',
                                      f'{{"max_points": {MAX_CITY_POINTS + 1}}}',
                                      '{"lng_min": -1e308, "lng_max": 1e308}',
                                      '{"jitter_sigma": 1e308}', '{"jitter_sigma": 1%s}' % ("0" * 400)],
                             ids=lambda text: text[:60])
    def test_bad_city_spec_usage_error(self, tmp_path, capsys, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        assert run("synth", "--out", tmp_path / "c.jsonl", "--n", 2, "--city-spec", spec) == 1
        assert "city spec" in capsys.readouterr().err

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=CITY_SPECS)
    def test_any_city_spec_exits_typed(self, tmp_path, capsys, doc):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        code = run("synth", "--out", tmp_path / "c.jsonl", "--n", 2, "--city-spec", spec)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("settings", [{"n": "3"}, {"n": -1}, {"seed": 1.5}], ids=json.dumps)
    def test_bad_config_value_usage_error(self, tmp_path, capsys, settings):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(settings))
        assert run("synth", "--out", tmp_path / "c.jsonl", "--config", cfg) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_oversized_n_usage_error_before_allocating(self, tmp_path, capsys, monkeypatch, via):
        monkeypatch.setattr(cli, "synth_city",
                            lambda *a, **k: pytest.fail("synthesized a refused count"))
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"n": cli.MAX_TRAJECTORIES + 1}))
        extra = ("--n", cli.MAX_TRAJECTORIES + 1) if via == "flag" else ("--config", cfg)
        assert run("synth", "--out", tmp_path / "c.jsonl", *extra) == 1
        err = capsys.readouterr().err
        assert f"--n must be an integer of at least 0 and at most {cli.MAX_TRAJECTORIES}" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["synth.json"]

    def test_points_above_cap_usage_error_before_drawing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "synth_city",
                            lambda *a, **k: pytest.fail("synthesized a refused point count"))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"max_points": MAX_CITY_POINTS}))
        n = cli.MAX_POINTS // MAX_CITY_POINTS + 1
        assert run("synth", "--out", tmp_path / "c.jsonl", "--n", n, "--city-spec", spec) == 1
        err = capsys.readouterr().err
        assert len(err) < 1024 and "Traceback" not in err
        assert (f"--n {n} times the city spec's max_points {MAX_CITY_POINTS} is "
                f"{n * MAX_CITY_POINTS} points, above the cap of {cli.MAX_POINTS}") in err
        assert not (tmp_path / "c.jsonl").exists()

    def test_default_spec_keeps_every_count_under_the_point_cap(self, tmp_path, monkeypatch):
        assert cli.MAX_TRAJECTORIES * CitySpec().max_points <= cli.MAX_POINTS
        monkeypatch.setattr(cli, "synth_city", lambda *a, **k: [])
        assert run("synth", "--out", tmp_path / "c.jsonl", "--n", cli.MAX_TRAJECTORIES) == 0

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

    @pytest.mark.parametrize("settings", [{"steps": "3"}, {"steps": -1}, {"batch": 0}, {"T": 0},
                                          {"lr": True}, {"lr": -1}, {"beta_end": "0.1"},
                                          {"beta_start": 0.5, "beta_end": 0.1},
                                          {"cond_dropout": 2}, {"length": 10}, {"T": None},
                                          {"beta_start": 1e-20, "beta_end": 2e-20},
                                          pytest.param({"lr": 10**400}, id="lr-10**400"),
                                          pytest.param({"beta_end": -10**400}, id="beta_end--10**400")],
                             ids=json.dumps)
    def test_bad_config_value_usage_error(self, tmp_path, capsys, settings):
        # the data file does not exist: the settings are checked before it is read
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(settings))
        assert run("train", "--data", tmp_path / "nope.jsonl", "--out", tmp_path / "x.ckpt",
                   "--config", cfg) == 1
        assert "usage error" in capsys.readouterr().err

    def test_non_finite_flag_usage_error(self, tmp_path):
        assert run("train", "--data", tmp_path / "nope.jsonl", "--out", tmp_path / "x.ckpt",
                   "--lr", "nan") == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--T", 10**12, "schedule allows at most 10000 steps"),
        ("--length", 2**40, "exceeds the cap of 4096"),
        ("--steps", 10**15, "--steps must be an integer of at least 0 and at most 10000000"),
        ("--batch", 10**15, "--batch must be an integer of at least 1 and at most 100000"),
        ("--base-channels", 10**12, "base_channels 1000000000000 exceeds the cap of 256")])
    def test_oversized_flag_usage_error_before_allocating(self, tmp_path, capsys, flag, value,
                                                          message):
        # the data file does not exist: the size is refused before it is read
        assert run("train", "--data", tmp_path / "nope.jsonl", "--out", tmp_path / "x.ckpt",
                   flag, value) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_data_directory_exit_2(self, tmp_path, capsys):
        assert run("train", "--data", tmp_path, "--out", tmp_path / "x.ckpt") == 2
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err

    def test_out_directory_exit_2_before_training(self, city, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("trained before checking --out"))
        assert run("train", "--data", city, "--out", tmp_path, "--steps", 1) == 2
        assert "is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["city"].update(OVERFLOWING_BOX), "grid bounding box extent must be finite"),
        (lambda m: m["city"].update(lng_min="108.9"), "TypeError"),
        (lambda m: m["city"].pop("lat_max"), "KeyError('lat_max')"),
        (lambda m: m.update(city=5), "TypeError"),
    ], ids=["overflow", "string bound", "missing bound", "not an object"])
    def test_bad_header_city_exit_2(self, city, tmp_path, capsys, edit, message):
        data = edited_header(city, tmp_path / "bad.jsonl", edit)
        assert run("train", "--data", data, "--out", tmp_path / "x.ckpt", "--steps", 1) == 2
        err = capsys.readouterr().err
        assert "bad.jsonl: header city: " in err and message in err
        assert not (tmp_path / "x.ckpt").exists()

    def test_non_object_header_frames_by_data(self, city, tmp_path):
        data = tmp_path / "plain.jsonl"
        data.write_text('{"meta": 5}\n' + city.read_text().split("\n", 1)[1])
        assert run("train", "--data", data, "--out", tmp_path / "x.ckpt", "--steps", 0,
                   "--T", 20, "--length", 16, "--base-channels", 4) == 0


def ref_bbox_soft_check(point_lists, norm):
    """generate's soft check in its one-pass form over every point at once."""
    lo = np.array([norm.lng_min, norm.lat_min], float)
    hi = np.array([norm.lng_max, norm.lat_max], float)
    margin = 0.05 * (hi - lo)
    allp = np.concatenate(point_lists) if point_lists else np.zeros((0, 2))
    if allp.size == 0:
        return
    outside = ((allp < lo - margin) | (allp > hi + margin)).any(axis=1)
    if outside.any():
        cli.log.warning("%.2f%% of generated points fall outside the training bounding box "
                        "(plus 5%% margin)", 100.0 * outside.mean())


def soft_check_cases():
    norm = NormStats(108.90, 109.06, 34.18, 34.34)
    rng = np.random.default_rng(6)
    c = CHUNK_TRAJECTORIES
    dlng, dlat = 0.05 * (norm.lng_max - norm.lng_min), 0.05 * (norm.lat_max - norm.lat_min)
    edges = np.array([[norm.lng_min - dlng, norm.lat_min - dlat],
                      [norm.lng_max + dlng, norm.lat_max + dlat]])
    inside = np.column_stack([rng.uniform(108.9, 109.06, 64), rng.uniform(34.18, 34.34, 64)])
    sets = {"empty": [], "inside": [inside], "margin edges": [edges],
            "far off": [np.array([[1e308, 34.2], [108.95, -1e17]])]}
    for n in (1, c - 1, c, c + 1, 2000):
        lng = rng.uniform(108.85, 109.11, (n, 64))
        lat = rng.uniform(34.13, 34.39, (n, 64))
        sets[f"{n} arrays"] = list(np.stack([lng, lat], axis=2))
    return norm, sets


class TestGenerate:
    def test_soft_check_warning_matches_reference(self, caplog):
        norm, sets = soft_check_cases()
        for name, point_lists in sets.items():
            logged = []
            for check in (cli._bbox_soft_check, ref_bbox_soft_check):
                caplog.clear()
                with caplog.at_level("WARNING", logger="trajdiff.cli"):
                    check(point_lists, norm)
                logged.append([(r.getMessage(), r.args) for r in caplog.records])
            assert logged[0] == logged[1], name
            assert bool(logged[0]) == (name not in ("empty", "inside", "margin edges")), name

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
        assert manifest["workers_peak_rss_mb"] is None  # one worker samples in-process

        assert run("generate", "--ckpt", ckpt, "--out", out, "--n", 5, "--steps", 4,
                   "--cond-file", city, "--omega", 3, "--seed", 2) == 0
        manifest = json.loads((tmp_path / "g.jsonl.manifest.json").read_text())
        assert manifest["model_evals"] == 5 * 2 * 4

    def test_output_independent_of_checkpoint_path(self, ckpt, city, tmp_path):
        # the header records the checkpoint's hash, not the path it was named by
        outs = []
        for name in ("a/m.ckpt", "b/other.ckpt"):
            copy = tmp_path / name
            copy.parent.mkdir()
            copy.write_bytes(ckpt.read_bytes())
            out = copy.parent / "gen.jsonl"
            assert run("generate", "--ckpt", copy, "--out", out, "--n", 3, "--steps", 2,
                       "--cond-file", city, "--seed", 4) == 0
            outs.append(out.read_bytes())
            manifest = json.loads((copy.parent / "gen.jsonl.manifest.json").read_text())
            meta = json.loads(outs[-1].splitlines()[0])["meta"]
            assert meta["checkpoint_sha256"] == manifest["inputs"][str(copy)]
        assert outs[0] == outs[1]

    def test_steps_exceeding_t_usage_error(self, ckpt, tmp_path):
        assert run("generate", "--ckpt", ckpt, "--out", tmp_path / "x.jsonl", "--n", 1,
                   "--steps", 21, "--uncond") == 1

    def test_bad_thread_cap_usage_error(self, ckpt, tmp_path, monkeypatch, capsys):
        for cap in ("abc", "0", "-3"):
            monkeypatch.setenv("TRAJDIFF_THREADS", cap)
            assert run("generate", "--ckpt", ckpt, "--out", tmp_path / "x.jsonl", "--n", 1,
                       "--steps", 1, "--uncond") == 1
            assert "TRAJDIFF_THREADS must be an integer of at least 1" in capsys.readouterr().err

    def test_thread_settings_in_manifest(self, ckpt, tmp_path):
        out = tmp_path / "p.jsonl"
        assert run("generate", "--ckpt", ckpt, "--out", out, "--n", 6, "--steps", 2,
                   "--uncond", "--workers", 8, "--batch", 2) == 0
        manifest = json.loads((tmp_path / "p.jsonl.manifest.json").read_text())
        assert manifest["workers"] == 3  # three micro-batches bound the pool
        assert manifest["blas_threads"] in (1, None)
        assert manifest["cores"] >= 1
        assert manifest["peak_rss_mb"] > 0
        # the workers are child processes: their peak shows apart from the caller's
        assert manifest["workers_peak_rss_mb"] > 0

    @pytest.mark.parametrize("flag, value", [("--batch", 0), ("--n", -1), ("--eta", -1),
                                             ("--eta", "nan"), ("--omega", "inf"),
                                             ("--workers", 0), ("--steps", 0)])
    def test_bad_flag_value_usage_error(self, tmp_path, capsys, flag, value):
        # the checkpoint does not exist: the flags are checked before it is read
        assert run("generate", "--ckpt", tmp_path / "nope.ckpt", "--out", tmp_path / "x.jsonl",
                   "--n", 4, "--uncond", flag, value) == 1
        assert "usage error" in capsys.readouterr().err

    def test_oversized_flag_usage_error_before_allocating(self, tmp_path, capsys, monkeypatch):
        # the checkpoint does not exist: the count is refused before it is read
        monkeypatch.setattr(cli, "sample", lambda *a, **k: pytest.fail("sampled a refused count"))
        assert run("generate", "--ckpt", tmp_path / "nope.ckpt", "--out", tmp_path / "x.jsonl",
                   "--n", 10**15, "--uncond") == 1
        err = capsys.readouterr().err
        assert "--n must be an integer of at least 0 and at most 1000000" in err
        assert "Traceback" not in err

    def test_points_above_cap_usage_error_before_conditions(self, ckpt, city, tmp_path, capsys,
                                                             monkeypatch):
        # the header edit loads: no parameter shape depends on the length
        monkeypatch.setattr(cli, "sample", lambda *a, **k: pytest.fail("sampled a refused size"))
        monkeypatch.setattr(cli, "load_dataset", lambda *a, **k: pytest.fail("read conditions"))
        long = edited_checkpoint(ckpt, tmp_path / "long.ckpt",
                                 lambda h: h["config"].update(length=4096))
        n = cli.MAX_POINTS // 4096 + 1
        assert run("generate", "--ckpt", long, "--out", tmp_path / "x.jsonl", "--n", n,
                   "--cond-file", city) == 1
        err = capsys.readouterr().err
        assert len(err) < 1024 and "Traceback" not in err
        assert (f"--n {n} times the checkpoint's length 4096 is {n * 4096} points, "
                f"above the cap of {cli.MAX_POINTS}") in err
        assert not (tmp_path / "x.jsonl").exists()

    def test_paper_length_keeps_every_count_under_the_point_cap(self, ckpt, tmp_path, monkeypatch,
                                                                 capsys):
        def reached(*a, **k):
            raise DataError("reached sampling")
        monkeypatch.setattr(cli, "sample", reached)
        paper = edited_checkpoint(ckpt, tmp_path / "paper.ckpt",
                                  lambda h: h["config"].update(length=200))
        assert run("generate", "--ckpt", paper, "--out", tmp_path / "x.jsonl",
                   "--n", cli.MAX_TRAJECTORIES, "--uncond") == 2
        assert "reached sampling" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_workers_above_cap_usage_error(self, tmp_path, capsys, monkeypatch, via):
        # refused from the settings alone: no pool is forked and the
        # checkpoint, which does not exist, is never read
        monkeypatch.setattr(cli, "sample", lambda *a, **k: pytest.fail("sampled a refused pool"))
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"workers": cli.MAX_WORKERS + 1}))
        extra = ("--workers", cli.MAX_WORKERS + 1) if via == "flag" else ("--config", cfg)
        assert run("generate", "--ckpt", tmp_path / "nope.ckpt", "--out", tmp_path / "x.jsonl",
                   "--n", 4, "--uncond", *extra) == 1
        err = capsys.readouterr().err
        assert f"--workers must be an integer of at least 1 and at most {cli.MAX_WORKERS}" in err

    @pytest.mark.parametrize("settings", ['{"workers": "2"}', '{"batch": true}', '{"eta": "0"}',
                                          '{"omega": NaN}', '{"steps": 2.0}',
                                          pytest.param('{"omega": 1%s}' % ("0" * 400), id="omega-10**400"),
                                          pytest.param('{"eta": 1%s}' % ("0" * 400), id="eta-10**400")])
    def test_bad_config_value_usage_error(self, tmp_path, capsys, settings):
        cfg = tmp_path / "gen.json"
        cfg.write_text(settings)
        assert run("generate", "--ckpt", tmp_path / "nope.ckpt", "--out", tmp_path / "x.jsonl",
                   "--n", 4, "--uncond", "--config", cfg) == 1
        assert "usage error" in capsys.readouterr().err

    def test_out_directory_exit_2_before_sampling(self, ckpt, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sample", lambda *a, **k: pytest.fail("sampled before checking --out"))
        assert run("generate", "--ckpt", ckpt, "--out", tmp_path, "--n", 2, "--uncond") == 2
        assert "is a directory" in capsys.readouterr().err

    def test_condition_flags_required(self, ckpt, tmp_path):
        assert run("generate", "--ckpt", ckpt, "--out", tmp_path / "x.jsonl", "--n", 1) == 1

    def test_corrupt_checkpoint_exit_2(self, ckpt, tmp_path):
        bad = tmp_path / "bad.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[:5] = b"NOPE!"
        bad.write_bytes(bytes(blob))
        assert run("generate", "--ckpt", bad, "--out", tmp_path / "x.jsonl", "--n", 1,
                   "--uncond") == 2

    def test_overflowing_header_number_exit_2(self, ckpt, tmp_path, capsys):
        # a 400-digit integer parses as JSON but overflows float64 in the norm stats
        bad = edited_checkpoint(ckpt, tmp_path / "big.ckpt",
                                lambda h: h["norm"].update(attr_mean=[10**400, 0.0, 0.0, 0.0]))
        assert run("generate", "--ckpt", bad, "--out", tmp_path / "x.jsonl", "--n", 1,
                   "--uncond") == 2
        assert "invalid checkpoint header: OverflowError" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, message", [
        ("schedule", "T", 10**12, "at most 10000 steps"),
        ("config", "length", 2**40, "exceeds the cap of 4096")])
    def test_oversized_header_size_exit_2(self, ckpt, tmp_path, capsys, monkeypatch, section, key,
                                          value, message):
        monkeypatch.setattr(cli, "sample", lambda *a, **k: pytest.fail("sampled a refused size"))
        bad = edited_checkpoint(ckpt, tmp_path / "big.ckpt",
                                lambda h: h[section].update({key: value}))
        assert run("generate", "--ckpt", bad, "--out", tmp_path / "x.jsonl", "--n", 1,
                   "--uncond") == 2
        err = capsys.readouterr().err
        assert "invalid checkpoint header" in err and message in err and "Traceback" not in err


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

    @pytest.mark.parametrize("flag, value", [("--bins", 0), ("--topn", 0), ("--grid", "0x16"),
                                             ("--grid", "16"), ("--length", 1)])
    def test_bad_flag_value_usage_error(self, city, tmp_path, capsys, flag, value):
        assert run("eval", "--gen", city, "--real", city, "--out", tmp_path / "r.json",
                   flag, value) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--grid", "100000x100000", "more than 1000000 cells"),
        ("--bins", 10**10, "--bins must be an integer of at least 1 and at most 10000"),
        ("--length", 10**10, "--length must be an integer of at least 2 and at most 4096")])
    def test_oversized_flag_usage_error_before_reading(self, city, tmp_path, capsys, monkeypatch,
                                                       flag, value, message):
        monkeypatch.setattr(cli, "load_dataset", lambda *a, **k: pytest.fail("read data before the cap"))
        assert run("eval", "--gen", city, "--real", city, "--out", tmp_path / "r.json",
                   flag, value) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("bbox", ["108.9,inf,34.18,34.34", "nan,109.1,34.18,34.34",
                                      "108.9,109.1,34.18", "109.1,108.9,34.18,34.34", "a,b,c,d",
                                      "-1e308,1e308,34.18,34.34"])
    def test_bad_bbox_usage_error(self, city, tmp_path, capsys, monkeypatch, bbox):
        monkeypatch.setattr(cli, "load_dataset", lambda *a, **k: pytest.fail("read data before --bbox"))
        out = tmp_path / "r.json"
        # one token, so argparse reads a leading minus as part of the value
        assert run("eval", "--gen", city, "--real", city, "--out", out, f"--bbox={bbox}") == 1
        assert "usage error" in capsys.readouterr().err and not out.exists()

    def test_topn_above_grid_cells_usage_error_before_reading(self, city, tmp_path, capsys):
        # --gen does not exist: the count is refused from the flags alone
        assert run("eval", "--gen", tmp_path / "nope.jsonl", "--real", city,
                   "--out", tmp_path / "r.json", "--grid", "2x2", "--topn", 5) == 1
        assert "--topn 5 exceeds the 4 cells of a 2x2 grid" in capsys.readouterr().err

    def test_topn_above_nonempty_cells_data_error(self, city, tmp_path, capsys):
        # a count within the grid's cells can only be refused once the data is binned
        assert run("eval", "--gen", city, "--real", city, "--out", tmp_path / "r.json",
                   "--topn", 256) == 2
        assert re.search(r"top-n 256 exceeds the \d+ nonempty cells", capsys.readouterr().err)

    def test_header_box_overflow_exit_2(self, city, tmp_path, capsys):
        real = edited_header(city, tmp_path / "wide.jsonl", lambda m: m["city"].update(OVERFLOWING_BOX))
        assert run("eval", "--gen", city, "--real", real, "--out", tmp_path / "r.json") == 2
        assert "wide.jsonl: header city: DataError('grid bounding box extent must be finite" \
            in capsys.readouterr().err

    def test_bbox_sets_grid_frame(self, city, tmp_path):
        out = tmp_path / "r.json"
        assert run("eval", "--gen", city, "--real", city, "--out", out,
                   "--bbox", "108.9,109.1,34.18,34.34") == 0
        grid = json.loads(out.read_text())["grid"]
        assert [grid[k] for k in ("lng_min", "lng_max", "lat_min", "lat_max")] == [108.9, 109.1, 34.18, 34.34]

    @pytest.mark.parametrize("settings", [{"bins": 0}, {"topn": -3}, {"topn": "10"},
                                          {"grid": "16x0"}, {"grid": 16}, {"length": 1},
                                          {"bins": 10**10}, {"length": 10**10},
                                          {"grid": "100000x100000"}],
                             ids=json.dumps)
    def test_bad_config_value_usage_error(self, city, tmp_path, settings):
        cfg = tmp_path / "eval.json"
        cfg.write_text(json.dumps(settings))
        assert run("eval", "--gen", city, "--real", city, "--out", tmp_path / "r.json",
                   "--config", cfg) == 1

    def test_empty_gen_exit_2(self, city, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("eval", "--gen", empty, "--real", city, "--out", tmp_path / "r.json") == 2

    def test_out_directory_exit_2_before_scoring(self, city, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "evaluate", lambda *a, **k: pytest.fail("scored before checking --out"))
        assert run("eval", "--gen", city, "--real", city, "--out", tmp_path) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_out_in_missing_directory_exit_2(self, city, tmp_path, capsys):
        assert run("eval", "--gen", city, "--real", city, "--out", tmp_path / "no" / "r.json") == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [IsADirectoryError, PermissionError])
    def test_unreadable_input_exit_2(self, city, tmp_path, capsys, monkeypatch, error):
        def refuse(path, *a, **k):
            raise error(21, "cannot open", str(path))

        monkeypatch.setattr(cli, "load_dataset", refuse)
        assert run("eval", "--gen", city, "--real", city, "--out", tmp_path / "r.json") == 2
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err


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

    @pytest.mark.parametrize("mode, grid", [("heatmap", "0x3"), ("lines", "bogus"),
                                            ("heatmap", "100000x100000")])
    def test_bad_grid_usage_error_before_reading(self, tmp_path, capsys, mode, grid):
        assert run("plot", "--data", tmp_path / "nope.jsonl", "--out", tmp_path / "x.svg",
                   "--mode", mode, "--grid", grid) == 1
        assert "grid spec" in capsys.readouterr().err

    def test_out_directory_exit_2_before_reading(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_dataset", lambda *a, **k: pytest.fail("read data before --out"))
        assert run("plot", "--data", tmp_path / "nope.jsonl", "--out", tmp_path) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_empty_dataset_exit_2(self, tmp_path):
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        assert run("plot", "--data", empty, "--out", tmp_path / "x.svg") == 2


def subparsers(parser) -> dict:
    """Subcommand name -> its parser, as build_parser() wires them."""
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


SUBCOMMANDS = sorted(subparsers(cli.build_parser()))

# one successful run of each subcommand; --out names its primary output
RUNS = {
    "synth": lambda d, city, ckpt: ["--out", d / "c.jsonl", "--n", 3],
    "train": lambda d, city, ckpt: ["--data", city, "--out", d / "m.ckpt", "--steps", 2,
                                    "--batch", 4, "--T", 10, "--length", 16,
                                    "--base-channels", 4],
    "generate": lambda d, city, ckpt: ["--ckpt", ckpt, "--out", d / "g.jsonl", "--n", 2,
                                       "--steps", 2, "--cond-file", city],
    "eval": lambda d, city, ckpt: ["--gen", city, "--real", city, "--out", d / "r.json"],
    "plot": lambda d, city, ckpt: ["--data", city, "--out", d / "p.svg"],
}
ENVIRONMENT = {"cores", "blas_threads", "malloc_thresholds", "peak_rss_mb", "numpy", "blas"}
# keys these manifests had before every manifest carried the environment block
EARLIER_KEYS = {
    "train": {"n_trajectories", "final_loss", "step_ms_mean", "cores", "blas_threads",
              "malloc_thresholds", "peak_rss_mb"},
    "generate": {"model_evals", "sample_steps", "workers", "cores", "blas_threads",
                 "malloc_thresholds", "peak_rss_mb", "workers_peak_rss_mb"},
}


def successful_run(command, tmp_path, city, ckpt) -> tuple[list, Path]:
    """argv of a successful run of command and its primary output."""
    assert command in RUNS, f"give the subcommand {command} a successful run in RUNS"
    argv = RUNS[command](tmp_path, city, ckpt)
    return argv, argv[argv.index("--out") + 1]


class TestManifest:
    """main writes one manifest per successful run, environment block included."""

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_manifest_environment_block(self, city, ckpt, tmp_path, command):
        argv, out = successful_run(command, tmp_path, city, ckpt)
        assert run(command, *argv) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["command"] == command
        common = {"settings", "inputs", "outputs", "wall_time_s"}
        assert common | ENVIRONMENT | EARLIER_KEYS.get(command, set()) <= manifest.keys()
        assert manifest["outputs"][0] == str(out)
        assert manifest["cores"] >= 1
        assert manifest["peak_rss_mb"] > 0
        assert manifest["blas_threads"] is None or manifest["blas_threads"] >= 1
        # pinned at import under glibc (see trajdiff.tensor), null elsewhere
        assert manifest["malloc_thresholds"] in (
            None, {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20})
        assert manifest["malloc_thresholds"] == tz.malloc_thresholds()
        assert manifest["numpy"] == np.__version__
        assert manifest["blas"] is None or set(manifest["blas"]) == {"name", "version"}
        assert command != "train" or manifest["step_ms_mean"] > 0

    @pytest.mark.parametrize("error, code", [(UsageError, 1), (DataError, 2),
                                             (NumericError, 3)])
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_failed_run_writes_no_manifest(self, city, ckpt, tmp_path, monkeypatch, command,
                                           error, code):
        # the subcommand does all its work, outputs included, and then fails
        parser = cli.build_parser()
        sub = subparsers(parser)[command]
        work = sub.get_default("fn")

        def failing(args):
            work(args)
            raise error("failed at the end")

        sub.set_defaults(fn=failing)
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        argv, out = successful_run(command, tmp_path, city, ckpt)
        assert run(command, *argv) == code
        assert out.exists()
        assert not Path(f"{out}.manifest.json").exists()


class TestExitCodes:
    def test_unknown_flag_usage_error(self):
        assert run("synth", "--wat", 1) == 1

    def test_unexpected_exception_exit_4_with_traceback(self, tmp_path, monkeypatch, capsys):
        def broken(**kwargs):
            raise RuntimeError("synthesis broke")

        monkeypatch.setattr(cli, "synth_city", broken)
        assert run("synth", "--out", tmp_path / "c.jsonl", "--n", 2) == 4
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "Traceback" in err and "RuntimeError: synthesis broke" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            run("--version")
        assert e.value.code == 0


class TestNestedJson:
    """JSON nested past the decoder's limit ends typed at every JSON boundary."""

    @pytest.mark.parametrize("command", ["train", "eval", "plot", "generate"])
    def test_dataset_line_data_error(self, ckpt, city, tmp_path, capsys, command):
        data = tmp_path / "deep.jsonl"
        data.write_text("\n".join(city.read_text().splitlines()[:2] + [DEEP_JSON]) + "\n")
        argv = {"train": ["--data", data, "--out", tmp_path / "x.ckpt"],
                "eval": ["--gen", data, "--real", city, "--out", tmp_path / "r.json"],
                "plot": ["--data", data, "--out", tmp_path / "x.svg"],
                "generate": ["--ckpt", ckpt, "--out", tmp_path / "x.jsonl", "--n", 1,
                             "--cond-file", data]}[command]
        assert run(command, *argv) == 2
        err = capsys.readouterr().err
        assert f"data error: {data}: line 3: " in err and "Traceback" not in err

    def test_config_data_error(self, tmp_path, capsys):
        assert run_config(tmp_path, "train", DEEP_JSON) == 2
        err = capsys.readouterr().err
        assert "cannot read config" in err and "Traceback" not in err

    def test_city_spec_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(DEEP_JSON)
        assert run("synth", "--out", tmp_path / "c.jsonl", "--n", 2, "--city-spec", spec) == 1
        err = capsys.readouterr().err
        assert "bad city spec" in err and "Traceback" not in err

    def test_checkpoint_header_data_error(self, ckpt, tmp_path, capsys):
        blob = ckpt.read_bytes()
        head_end = 9 + int.from_bytes(blob[5:9], "little")
        head = DEEP_JSON.encode("utf-8")
        bad = tmp_path / "deep.ckpt"
        bad.write_bytes(blob[:5] + len(head).to_bytes(4, "little") + head + blob[head_end:])
        assert run("generate", "--ckpt", bad, "--out", tmp_path / "x.jsonl", "--n", 1,
                   "--uncond") == 2
        err = capsys.readouterr().err
        assert "corrupt checkpoint header" in err and "Traceback" not in err


# each command's input path names a missing file, so a run ends at the config
# checks (usage or data error) or at that file (data error) before any work
MISSING_INPUT = {
    "synth": lambda d: ["--out", d / "c.jsonl", "--city-spec", d / "nope.json"],
    "train": lambda d: ["--data", d / "nope.jsonl", "--out", d / "x.ckpt"],
    "generate": lambda d: ["--ckpt", d / "nope.ckpt", "--out", d / "x.jsonl", "--uncond"],
    "eval": lambda d: ["--gen", d / "nope.jsonl", "--real", d / "nope.jsonl",
                       "--out", d / "r.json"],
}
TABLES = {"synth": cli.SYNTH_SETTINGS, "train": cli.TRAIN_SETTINGS,
          "generate": cli.GENERATE_SETTINGS, "eval": cli.EVAL_SETTINGS}
# the integers beyond the float range are finite as ints but not as floats
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(),
                    st.text(max_size=8), st.integers(2**1024, 10**400),
                    st.integers(-10**400, -2**1024))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3))


def run_config(tmp_path, command, text, *extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    return run(command, *MISSING_INPUT[command](tmp_path), "--config", cfg, *extra)


# a usage error at each place that quotes the offending value, with a value
# that is long as text (each call returns the exit code)
LONG_VALUES = {
    "setting string": lambda d, ckpt: run_config(d, "synth", json.dumps({"seed": "x" * 100_000})),
    "setting nested list": lambda d, ckpt: run_config(
        d, "synth", '{"n": ' + "[" * 900 + "]" * 900 + "}"),
    "grid": lambda d, ckpt: run_config(d, "eval", json.dumps({"grid": "9" * 100_000})),
    "bbox": lambda d, ckpt: run("eval", *MISSING_INPUT["eval"](d), "--bbox", "1," * 50_000),
    "unknown keys": lambda d, ckpt: run_config(
        d, "train", json.dumps({f"key{i}": 0 for i in range(20_000)})),
    "steps above T": lambda d, ckpt: run_config(
        d, "generate", json.dumps({"steps": 10**4000}), "--ckpt", ckpt, "--n", 1),
    "city spec error": lambda d, ckpt: run(
        "synth", "--out", d / "c.jsonl", "--city-spec",
        write(d / "spec.json", json.dumps({"k" * 100_000: 1}))),
}
# argparse's own errors at a flag: its usage line, then the message
LONG_FLAGS = {
    "int flag": lambda d: run("synth", "--out", d / "c.jsonl", "--n", "9" * 100_000),
    "float flag": lambda d: run("train", *MISSING_INPUT["train"](d), "--lr", "1" * 100_000 + "x"),
    "choice flag": lambda d: run("eval", *MISSING_INPUT["eval"](d), "--metric", "m" * 100_000),
}


def write(path, text):
    path.write_text(text)
    return path


class TestConfigLoader:
    @pytest.mark.parametrize("command", sorted(MISSING_INPUT))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_config_exits_typed(self, tmp_path, capsys, monkeypatch, command, data):
        monkeypatch.delenv("TRAJDIFF_THREADS", raising=False)
        keys = st.sampled_from(sorted(TABLES[command]) + ["bogus", "", "config"])
        doc = data.draw(st.one_of(st.dictionaries(keys, VALUES, max_size=4), VALUES))
        code = run_config(tmp_path, command, json.dumps(doc))
        err = capsys.readouterr().err
        assert code in (1, 2), err
        assert err.startswith("usage error" if code == 1 else "data error")
        assert "Traceback" not in err

    @pytest.mark.parametrize("site", sorted(LONG_VALUES))
    def test_long_value_quoted_short(self, ckpt, tmp_path, capsys, site):
        assert LONG_VALUES[site](tmp_path, ckpt) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and "characters)" in err
        assert len(err.encode()) < 1024 and "Traceback" not in err

    @pytest.mark.parametrize("site", sorted(LONG_FLAGS))
    def test_long_flag_value_cut_short(self, tmp_path, capsys, site):
        assert LONG_FLAGS[site](tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: trajdiff ") and "\nusage error: argument --" in err
        assert "characters)" in err
        assert len(err.encode()) < 1024 and "Traceback" not in err

    def test_bad_metric_usage_error_before_reading(self, tmp_path, capsys):
        assert run_config(tmp_path, "eval", '{"metric": "manhattan"}') == 1
        assert "--metric must be one of" in capsys.readouterr().err

    def test_bad_thread_cap_usage_error_before_checkpoint(self, tmp_path, capsys, monkeypatch):
        for cap in ("abc", "0", "-3"):
            monkeypatch.setenv("TRAJDIFF_THREADS", cap)
            assert run_config(tmp_path, "generate", "{}", "--n", 1) == 1
            assert "TRAJDIFF_THREADS" in capsys.readouterr().err

    def test_undecodable_config_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"steps": "\xff"}')
        assert run("train", *MISSING_INPUT["train"](tmp_path), "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "cannot read config" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", ["5", "null", "[1]", '"steps"'])
    def test_non_object_config_data_error(self, tmp_path, capsys, text):
        assert run_config(tmp_path, "train", text) == 2
        err = capsys.readouterr().err
        assert "not a JSON object" in err and "Traceback" not in err
