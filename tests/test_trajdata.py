import json
import logging
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajdiff.errors import DataError, UsageError
from trajdiff.rng import stream
from trajdiff.trajdata import (CitySpec, GridSpec, NormStats, RawTrajectory,
                               denormalize, departure_slot, extract_condition_batch,
                               haversine_km, load_dataset, make_batch, normalize,
                               path_length, perturb_gaussian, perturb_random,
                               raw_motion_attributes, resample, save_dataset,
                               synth_city)


def make_traj(points, t0=0.0, interval=5.0, tid="t0"):
    return RawTrajectory(id=tid, points=np.asarray(points, float), t0=t0, interval=interval)


def jsonl_line(tid, pts, t0=0.0):
    return json.dumps({"id": tid, "points": [[float(a), float(b)] for a, b in pts], "t0": t0})


class TestLoadDataset:
    def test_empty_file_warns_and_returns_empty(self, tmp_path, caplog):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with caplog.at_level(logging.WARNING):
            res = load_dataset(p)
        assert len(res) == 0
        assert any("no usable trajectories" in r.message for r in caplog.records)

    def test_short_trajectory_dropped_and_counted(self, tmp_path):
        pts119 = [(0.001 * i, 0.001 * i) for i in range(119)]
        pts120 = [(0.001 * i, 0.001 * i) for i in range(120)]
        p = tmp_path / "d.jsonl"
        p.write_text(jsonl_line("short", pts119) + "\n" + jsonl_line("ok", pts120) + "\n")
        res = load_dataset(p)
        assert len(res) == 1
        assert res.dropped_short == 1
        assert res.trajectories[0].id == "ok"

    def test_skip_bad_keeps_valid_lines_only(self, tmp_path):
        pts = [(0.001 * i, 0.0) for i in range(130)]
        lines = [jsonl_line("a", pts), "{not json", jsonl_line("b", pts),
                 json.dumps({"id": "c"}), jsonl_line("d", pts)]
        p = tmp_path / "mixed.jsonl"
        p.write_text("\n".join(lines) + "\n")
        res = load_dataset(p, skip_bad=True)
        # line-by-line oracle: exactly the parseable, complete records survive
        assert [t.id for t in res] == ["a", "b", "d"]
        assert res.skipped_bad == 2

    def test_malformed_line_aborts_with_line_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(jsonl_line("a", [(0.001 * i, 0.0) for i in range(130)]) + "\nnonsense\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(p)

    @pytest.mark.parametrize("field,value", [
        ("points", [[float("nan"), 34.2], [108.9, 34.2]]),
        ("points", [[None, 34.2], [108.9, 34.2]]),
        ("t0", float("inf")),
        ("t0", None),
        ("interval", []),
        ("interval", float("nan")),
    ])
    def test_bad_field_rejected_with_line_number(self, tmp_path, field, value):
        rec = {"id": "x", "points": [[108.9, 34.2], [108.91, 34.21]], "t0": 0.0, field: value}
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps({"meta": {}}) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(p, min_points=2)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["id", "points", "t0", "interval"]),
           st.recursive(st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=5),
                        lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                        max_leaves=12))
    def test_mutated_field_loads_or_raises_data_error(self, tmp_path_factory, field, value):
        rec = {"id": "x", "points": [[108.9, 34.2], [108.91, 34.21]], "t0": 0.0, "interval": 5.0,
               field: value}
        p = tmp_path_factory.mktemp("fuzz") / "m.jsonl"
        p.write_text(json.dumps(rec) + "\n")
        try:
            res = load_dataset(p, min_points=2)
        except DataError:
            return
        for t in res:
            assert np.isfinite(t.points).all() and math.isfinite(t.t0)

    def test_roundtrip_with_meta_header(self, tmp_path):
        trajs = synth_city(seed=3, n_trajectories=4)
        p = tmp_path / "rt.jsonl"
        save_dataset(p, trajs, meta={"seed": 3})
        res = load_dataset(p)
        assert res.meta == {"seed": 3}
        assert [t.id for t in res] == [t.id for t in trajs]
        for a, b in zip(res, trajs):
            np.testing.assert_allclose(a.points, b.points, atol=5e-17)
            assert a.t0 == b.t0 and a.interval == b.interval


class TestResample:
    def test_identity_when_already_uniform(self):
        pts = np.stack([np.linspace(0, 1, 9), np.linspace(2, 5, 9)], axis=1)
        out = resample(pts, 9)
        assert np.abs(out - pts).max() < 1e-9

    def test_two_point_segment_five_even_points(self):
        out = resample(np.array([[0.0, 0.0], [1.0, 2.0]]), 5)
        expect = np.stack([np.linspace(0, 1, 5), np.linspace(0, 2, 5)], axis=1)
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_matches_piecewise_linear_oracle(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(7, 2))
        out = resample(pts, 200)
        # independent oracle: explicit segment walk at each fractional index
        pos = np.linspace(0.0, 6.0, 200)
        for j, p in enumerate(pos):
            i0 = min(int(math.floor(p)), 5)
            frac = p - i0
            expect = pts[i0] * (1 - frac) + pts[i0 + 1] * frac
            assert np.abs(out[j] - expect).max() < 1e-9

    def test_endpoints_exact(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(13, 2))
        out = resample(pts, 50)
        np.testing.assert_array_equal(out[0], pts[0])
        np.testing.assert_array_equal(out[-1], pts[-1])

    def test_too_few_points_rejected(self):
        with pytest.raises(DataError):
            resample(np.zeros((1, 2)), 10)
        with pytest.raises(UsageError):
            resample(np.zeros((3, 2)), 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 60), st.integers(0, 2 ** 31 - 1))
    def test_idempotent(self, n, L, seed):
        pts = np.random.default_rng(seed).normal(size=(n, 2))
        once = resample(pts, L)
        twice = resample(once, L)
        assert np.abs(twice - once).max() < 1e-9


class TestNormalize:
    STATS = NormStats(lng_min=10.0, lng_max=10.5, lat_min=40.0, lat_max=40.5)

    def test_corners_map_to_unit_corners(self):
        corners = np.array([[10.0, 40.0], [10.5, 40.5], [10.0, 40.5], [10.5, 40.0]])
        out = normalize(corners, self.STATS)
        np.testing.assert_allclose(out, [[-1, -1], [1, 1], [-1, 1], [1, -1]], atol=1e-12)

    def test_center_maps_to_origin(self):
        out = normalize(np.array([[10.25, 40.25]]), self.STATS)
        np.testing.assert_allclose(out, [[0.0, 0.0]], atol=1e-12)

    def test_roundtrip_on_random_points(self):
        rng = np.random.default_rng(3)
        pts = np.stack([rng.uniform(10.0, 10.5, 1000), rng.uniform(40.0, 40.5, 1000)], axis=1)
        back = denormalize(normalize(pts, self.STATS), self.STATS)
        assert np.abs(back - pts).max() < 1e-6

    def test_degenerate_stats_rejected(self):
        with pytest.raises(DataError):
            NormStats(lng_min=1.0, lng_max=1.0, lat_min=0.0, lat_max=1.0)

    def test_make_batch_shape_and_channels(self):
        trajs = [make_traj([(10.0, 40.0), (10.5, 40.5)]), make_traj([(10.2, 40.1), (10.3, 40.2)])]
        batch = make_batch(trajs, 8, self.STATS)
        assert batch.data.shape == (2, 2, 8)
        assert batch.data.dtype == np.float32
        # channel 0 carries longitude
        np.testing.assert_allclose(batch.data[0, 0, 0], -1.0, atol=1e-6)


class TestAttributes:
    GRID = GridSpec(0.0, 0.16, 0.0, 0.16)

    def test_departure_slot_boundaries(self):
        assert departure_slot(299.0) == 0          # 00:04:59
        assert departure_slot(86399.0) == 287      # 23:59:59
        assert departure_slot(0.0) == 0
        assert departure_slot(86400.0 + 299.0) == 0  # next day wraps

    def test_zero_distance_for_repeated_point(self):
        t = make_traj([(0.05, 0.05), (0.05, 0.05)])
        attrs = raw_motion_attributes(t)
        assert attrs[0] == 0.0 and attrs[1] == 0.0

    def test_haversine_against_spherical_law_of_cosines(self):
        # 0.01 degrees of longitude on the equator
        a = np.array([0.0, 0.0])
        b = np.array([0.01, 0.0])
        got = float(haversine_km(a, b))
        lam = math.radians(0.01)
        oracle = 6371.0088 * math.acos(min(1.0, math.sin(0) * math.sin(0)
                                           + math.cos(0) * math.cos(0) * math.cos(lam)))
        assert abs(got - oracle) / oracle < 1e-3

    def test_condition_vector_fields(self):
        t = make_traj([(0.005, 0.005)] + [(0.05 + 0.001 * i, 0.05) for i in range(100)]
                      + [(0.155, 0.155)], t0=3600.0)
        cb = extract_condition_batch([t], self.GRID)
        assert cb.origin[0] == 0
        assert cb.dest[0] == 255
        assert cb.slot[0] == 12
        assert not cb.is_null[0]

    def test_zscoring_with_stats(self):
        trajs = synth_city(seed=5, n_trajectories=30)
        stats = NormStats.fit(trajs)
        grid = stats.grid()
        vals = extract_condition_batch(trajs, grid, stats).numeric
        assert np.abs(vals.mean(axis=0)).max() < 0.2
        assert np.abs(vals[:, :2].std(axis=0) - 1.0).max() < 0.2

    @pytest.mark.parametrize("with_norm", [False, True])
    def test_columns_match_per_trajectory_reference(self, with_norm):
        trajs = synth_city(seed=6, n_trajectories=40)
        trajs.append(make_traj([(108.95, 34.2), (108.96, 34.21)], t0=-1.0, interval=None))
        stats = NormStats.fit(trajs)
        grid = stats.grid()
        norm = stats if with_norm else None
        numeric, slot, origin, dest = [], [], [], []
        for t in trajs:
            attrs = raw_motion_attributes(t)
            if norm is not None:
                attrs = (attrs - norm.attr_mean) / norm.attr_std
            numeric.append(attrs.astype(np.float32))
            slot.append(int((t.t0 % 86400) // 300))
            cells, _ = grid.cell_indices(t.points[[0, -1]])
            origin.append(int(cells[0]))
            dest.append(int(cells[1]))
        cb = extract_condition_batch(trajs, grid, norm)
        assert cb.numeric.tobytes() == np.stack(numeric).tobytes()
        assert cb.slot.tobytes() == np.array(slot, np.int64).tobytes()
        assert cb.origin.tobytes() == np.array(origin, np.int64).tobytes()
        assert cb.dest.tobytes() == np.array(dest, np.int64).tobytes()
        assert not cb.is_null.any()

    def test_empty_list_gives_empty_batch(self):
        cb = extract_condition_batch([], self.GRID)
        assert len(cb) == 0 and cb.numeric.shape == (0, 4)

    def test_missing_departure_time_rejected(self):
        with pytest.raises(DataError, match="departure"):
            departure_slot(None)

    def test_euclidean_variant_available(self):
        t = make_traj([(0.0, 0.0), (0.03, 0.04)])
        assert abs(path_length(t.points, "euclidean") - 0.05) < 1e-12
        with pytest.raises(UsageError):
            path_length(t.points, "manhattan")


class TestPerturbers:
    BASE = make_traj([(0.01 * i, 0.005 * i) for i in range(150)], tid="base")

    def test_zero_magnitude_is_identity(self):
        rp = perturb_random(self.BASE, 0.0, stream(1))
        gp = perturb_gaussian(self.BASE, 0.0, stream(1))
        np.testing.assert_array_equal(rp.points, self.BASE.points)
        np.testing.assert_array_equal(gp.points, self.BASE.points)

    def test_random_perturbation_bounded(self):
        out = perturb_random(self.BASE, 0.01, stream(2))
        assert np.abs(out.points - self.BASE.points).max() <= 0.01

    def test_gaussian_std_matches_sigma(self):
        # Monte-Carlo statistics oracle over 1e5 coordinates
        big = make_traj([(0.0, 0.0)] * 50_000, tid="big")
        out = perturb_gaussian(big, 0.01, stream(3))
        delta = out.points - big.points
        assert abs(delta.std() / 0.01 - 1.0) < 0.02

    def test_identity_and_count_preserved(self):
        out = perturb_gaussian(self.BASE, 0.005, stream(4))
        assert out.id == self.BASE.id
        assert out.points.shape == self.BASE.points.shape
        assert out.t0 == self.BASE.t0


class TestSynthCity:
    def test_same_seed_byte_identical_files(self, tmp_path):
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(pa, synth_city(seed=7, n_trajectories=20), meta={"seed": 7})
        save_dataset(pb, synth_city(seed=7, n_trajectories=20), meta={"seed": 7})
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = synth_city(seed=1, n_trajectories=5)
        b = synth_city(seed=2, n_trajectories=5)
        assert any(not np.array_equal(x.points, y.points) for x, y in zip(a, b))

    def test_points_inside_bounding_box_and_long_enough(self):
        spec = CitySpec()
        for t in synth_city(seed=9, n_trajectories=40):
            assert t.points.shape[0] >= 120
            assert t.points[:, 0].min() >= spec.lng_min and t.points[:, 0].max() <= spec.lng_max
            assert t.points[:, 1].min() >= spec.lat_min and t.points[:, 1].max() <= spec.lat_max

    def test_density_concentrates_on_street_cells(self):
        from trajdiff.metrics import grid_density

        spec = CitySpec()
        trajs = synth_city(seed=11, n_trajectories=300)
        grid = GridSpec(spec.lng_min, spec.lng_max, spec.lat_min, spec.lat_max)
        probs = grid_density(trajs, grid).probs.reshape(16, 16)
        street = {2, 7, 12}
        mask = np.zeros((16, 16), dtype=bool)
        mask[list(street), :] = True
        mask[:, list(street)] = True
        on = probs[mask].sum()
        off = probs[~mask].sum()
        assert on > 10 * max(off, 1e-12)

    def test_spec_dict_roundtrip(self):
        spec = CitySpec(street_popularity=(1.0, 1.0, 5.0), jitter_sigma=0.001, max_points=150)
        assert CitySpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_infeasible_spec_rejected(self):
        with pytest.raises(UsageError):
            CitySpec(lng_min=1.0, lng_max=1.0)
        with pytest.raises(UsageError):
            CitySpec(street_fractions=(0.5,))
        with pytest.raises(UsageError, match="non-negative"):
            synth_city(seed=0, n_trajectories=-1)


def test_data_layer_does_not_load_the_model():
    code = ("import sys, trajdiff.trajdata, trajdiff.metrics; "
            "print(sorted(m for m in ('trajdiff.unet', 'trajdiff.diffusion') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out.strip() == "[]"
