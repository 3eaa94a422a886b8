import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajdiff import metrics
from trajdiff.cli import _bbox
from trajdiff.errors import DataError, UsageError
from trajdiff.rng import stream
from trajdiff.trajdata import (CHUNK_TRAJECTORIES, GRID_SIDE, NUM_GRID_CELLS, SECONDS_PER_DAY,
                               CitySpec, GridSpec, LoadResult, NormStats, RawTrajectory,
                               batch_to_points, box_problem, dataset_grid, denormalize,
                               departure_slot, extent, extract_condition_batch, haversine_km,
                               load_dataset, make_batch, motion_attributes, normalize,
                               path_lengths, perturb_gaussian, perturb_random, resample,
                               save_dataset, synth_city)


def make_traj(points, t0=0.0, interval=5.0, tid="t0"):
    return RawTrajectory(id=tid, points=np.asarray(points, float), t0=t0, interval=interval)


# ---------------------------------------------------------------------------
# per-trajectory references: the chunked whole-set passes must give their bytes
# ---------------------------------------------------------------------------

SPEC4 = CitySpec(street_fractions=(0.1, 0.3, 0.5, 0.9), street_popularity=(1.0, 2.0, 3.0, 4.0),
                 jitter_sigma=0.0002)


def ref_path_length(points, distance_metric="haversine"):
    pts = np.asarray(points, dtype=np.float64)
    if distance_metric == "haversine":
        return float(np.sum(haversine_km(pts[:-1], pts[1:])))
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def ref_motion_attributes(traj):
    n = traj.points.shape[0]
    dist = ref_path_length(traj.points)
    travel_time = float(traj.interval) * (n - 1) if traj.interval is not None else 0.0
    return np.array([dist, dist / (n - 1), travel_time, float(n)], dtype=np.float64)


def ref_fit(trajs):
    all_pts = np.concatenate([t.points for t in trajs])
    attrs = np.stack([ref_motion_attributes(t) for t in trajs])
    std = attrs.std(axis=0)
    std[std < 1e-12] = 1.0
    return NormStats(lng_min=float(all_pts[:, 0].min()), lng_max=float(all_pts[:, 0].max()),
                     lat_min=float(all_pts[:, 1].min()), lat_max=float(all_pts[:, 1].max()),
                     attr_mean=attrs.mean(axis=0), attr_std=std)


def ref_extent(point_arrays):
    allp = np.concatenate([np.asarray(p, dtype=np.float64) for p in point_arrays])
    lo, hi = allp.min(axis=0), allp.max(axis=0)
    hi = np.where(hi > lo, hi, lo + 1e-9)
    return float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1])


def ref_make_batch(trajs, length, norm):
    rows = np.empty((len(trajs), 2, length), dtype=np.float32)
    for i, t in enumerate(trajs):
        rows[i] = normalize(resample(t.points, length), norm).T
    return rows


def ref_condition_columns(trajs, grid, norm):
    """(numeric, slot, origin, dest) of extract_condition_batch, one trajectory at a time."""
    numeric, slot, origin, dest = [], [], [], []
    for t in trajs:
        attrs = (ref_motion_attributes(t) - norm.attr_mean) / norm.attr_std
        numeric.append(attrs.astype(np.float32))
        slot.append(int((t.t0 % 86400) // 300))
        cells, _ = grid.cell_indices(t.points[[0, -1]])
        origin.append(int(cells[0]))
        dest.append(int(cells[1]))
    return (np.stack(numeric) if trajs else np.zeros((0, 4), np.float32),
            np.array(slot, np.int64), np.array(origin, np.int64), np.array(dest, np.int64))


def ref_lattice_route(rng, spec):
    k = len(spec.street_fractions)
    pop = np.asarray(spec.street_popularity, dtype=np.float64)
    pop = pop / pop.sum()
    while True:
        ox, oy, dx, dy = (int(rng.choice(k, p=pop)) for _ in range(4))
        if (ox, oy) != (dx, dy):
            break
    xi, yi = ox, oy
    verts = [(xi, yi)]
    while (xi, yi) != (dx, dy):
        if xi != dx and (yi == dy or rng.random() < 0.5):
            xi += 1 if dx > xi else -1
        else:
            yi += 1 if dy > yi else -1
        verts.append((xi, yi))
    return np.array([(spec.street_lngs[i], spec.street_lats[j]) for i, j in verts])


def ref_synth_city(seed, n_trajectories, spec=None):
    spec = spec if spec is not None else CitySpec()
    rng = stream(seed)
    out = []
    for i in range(n_trajectories):
        route = ref_lattice_route(rng, spec)
        pts = resample(route, int(rng.integers(spec.min_points, spec.max_points + 1)))
        pts += rng.normal(0.0, spec.jitter_sigma, size=pts.shape)
        np.clip(pts[:, 0], spec.lng_min, spec.lng_max, out=pts[:, 0])
        np.clip(pts[:, 1], spec.lat_min, spec.lat_max, out=pts[:, 1])
        t0 = float(rng.integers(0, SECONDS_PER_DAY))
        out.append(RawTrajectory(id=f"synth-{i:05d}", points=pts, t0=t0,
                                 interval=spec.point_interval_s))
    return out


def jsonl_line(tid, pts, t0=0.0):
    return json.dumps({"id": tid, "points": [[float(a), float(b)] for a, b in pts], "t0": t0})


class TestLoadDataset:
    def test_empty_file_is_data_error(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(DataError, match="empty.jsonl: no usable trajectory"):
            load_dataset(p)

    def test_all_short_is_data_error_naming_the_count(self, tmp_path):
        p = tmp_path / "short.jsonl"
        p.write_text(json.dumps({"meta": {}}) + "\n"
                     + jsonl_line("a", [(0.001 * i, 0.0) for i in range(5)]) + "\n")
        with pytest.raises(DataError, match="1 dropped as shorter than min_points=6"):
            load_dataset(p, min_points=6)

    def test_short_trajectory_dropped_and_counted(self, tmp_path):
        pts119 = [(0.001 * i, 0.001 * i) for i in range(119)]
        pts120 = [(0.001 * i, 0.001 * i) for i in range(120)]
        p = tmp_path / "d.jsonl"
        p.write_text(jsonl_line("short", pts119) + "\n" + jsonl_line("ok", pts120) + "\n")
        res = load_dataset(p)
        assert len(res) == 1
        assert res.dropped_short == 1
        assert res.trajectories[0].id == "ok"

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


BOUNDS = st.one_of(st.floats(), st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan,
                                                  0.0, 1.0]))
QUADS = st.tuples(BOUNDS, BOUNDS, BOUNDS, BOUNDS)
BOXES = st.one_of(QUADS, QUADS.map(lambda b: (b[0], b[0], b[2], b[3])),
                  QUADS.map(lambda b: (b[0], b[1], b[2], b[2])))


class TestBoxRule:
    @settings(max_examples=300, deadline=None)
    @given(BOXES)
    def test_every_box_check_follows_the_one_rule(self, box):
        why = box_problem(*box)
        flag = ",".join(map(repr, box))
        for make, error in ((GridSpec, DataError), (NormStats, DataError),
                            (lambda *b: _bbox(flag), UsageError)):
            if why is None:
                make(*box)
            else:
                with pytest.raises(error, match=re.escape(why)):
                    make(*box)
        if why is not None:
            with pytest.raises(UsageError, match=re.escape(why)):
                CitySpec(*box)

    @pytest.mark.parametrize("box, why", [
        ((-1e308, 1e308, 34.18, 34.34), "extent must be finite"),
        ((108.9, 109.1, 34.18, math.inf), "must be finite"),
        ((108.9, 108.9, 34.18, 34.34), "needs each max above its min"),
        ((108.9, 10**400, 34.18, 34.34), "must be finite"),
        ((-10**308, 10**308, 34.18, 34.34), "extent must be finite"),
    ])
    def test_reason(self, box, why):
        assert box_problem(*box).startswith(why)


class TestDatasetGrid:
    TRAJS = [make_traj([[108.95, 34.20], [109.00, 34.30]]), make_traj([[108.97, 34.25]] * 2)]
    CITY = {"lng_min": 108.9, "lng_max": 109.06, "lat_min": 34.18, "lat_max": 34.34}

    def test_header_city_box(self):
        grid = dataset_grid("d.jsonl", LoadResult(self.TRAJS, meta={"city": self.CITY}), 3, 5)
        assert grid == GridSpec(108.9, 109.06, 34.18, 34.34, 3, 5)

    def test_header_bounds_pass_through_unconverted(self):
        # an int bound stays an int, so a checkpoint's grid bytes are the header's
        city = {**self.CITY, "lng_min": 108}
        grid = dataset_grid("d.jsonl", LoadResult(self.TRAJS, meta={"city": city}))
        assert type(grid.lng_min) is int

    @pytest.mark.parametrize("meta", [None, {}, {"seed": 3}, 5, [1, 2], "city"])
    def test_no_header_city_frames_by_extent(self, meta):
        grid = dataset_grid("d.jsonl", LoadResult(self.TRAJS, meta=meta), 2, 2)
        assert grid == GridSpec(*extent([t.points for t in self.TRAJS]), 2, 2)

    @pytest.mark.parametrize("city, message", [
        ({"lng_min": 108.9}, "KeyError('lng_max')"), (5, "TypeError"),
        ({"lng_min": 109.1, "lng_max": 108.9, "lat_min": 34.18, "lat_max": 34.34},
         "needs each max above its min")])
    def test_malformed_header_city_names_the_path(self, city, message):
        with pytest.raises(DataError, match=re.escape("d.jsonl: header city: ")) as e:
            dataset_grid("d.jsonl", LoadResult(self.TRAJS, meta={"city": city}))
        assert message in str(e.value)

    def test_default_shape_is_the_one_grid_side(self):
        grid = dataset_grid("d.jsonl", LoadResult(self.TRAJS))
        assert (grid.rows, grid.cols) == (GRID_SIDE, GRID_SIDE)
        assert grid.n_cells == NUM_GRID_CELLS


class TestCellIndices:
    GRID = GridSpec(108.90, 109.06, 34.18, 34.34)  # the default city's 16 x 16 box
    INSIDE = (108.955, 34.205)  # column 5, row 2

    @pytest.mark.parametrize("value", [1e308, 1e17, 109.5, -1e308, -1e17, 108.0])
    def test_far_off_longitude_clamps_to_its_edge(self, value):
        cells, clamped = self.GRID.cell_indices([(value, self.INSIDE[1]), self.INSIDE])
        edge_col = 15 if value > 109.06 else 0
        assert cells.tolist() == [2 * 16 + edge_col, 2 * 16 + 5]
        assert clamped == 1

    @pytest.mark.parametrize("value", [1e308, 1e17, 35.0, -1e308, -1e17, 34.0])
    def test_far_off_latitude_clamps_to_its_edge(self, value):
        cells, clamped = self.GRID.cell_indices([(self.INSIDE[0], value), self.INSIDE])
        edge_row = 15 if value > 34.34 else 0
        assert cells.tolist() == [edge_row * 16 + 5, 2 * 16 + 5]
        assert clamped == 1

    def test_box_edges_stay_in_their_cells(self):
        cells, clamped = self.GRID.cell_indices([(108.90, 34.18), (109.06, 34.34)])
        assert cells.tolist() == [0, 255] and clamped == 0


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

    def test_batch_to_points_matches_per_row_denormalize(self):
        batch = stream(4).uniform(-1.2, 1.2, size=(5, 2, 8)).astype(np.float32)
        pts = batch_to_points(batch, self.STATS)
        assert len(pts) == 5
        for row, p in zip(batch, pts):
            assert p.shape == (8, 2) and p.flags.c_contiguous
            assert p.tobytes() == denormalize(row.T, self.STATS).tobytes()

    def test_make_batch_shape_and_channels(self):
        trajs = [make_traj([(10.0, 40.0), (10.5, 40.5)]), make_traj([(10.2, 40.1), (10.3, 40.2)])]
        batch = make_batch(trajs, 8, self.STATS)
        assert batch.data.shape == (2, 2, 8)
        assert batch.data.dtype == np.float32
        # channel 0 carries longitude
        np.testing.assert_allclose(batch.data[0, 0, 0], -1.0, atol=1e-6)


class TestAttributes:
    GRID = GridSpec(0.0, 0.16, 0.0, 0.16)
    NORM = NormStats(0.0, 0.16, 0.0, 0.16)  # default statistics: the identity z-score

    def test_departure_slot_boundaries(self):
        # 00:04:59, 23:59:59, midnight, and 00:04:59 of the next day
        t0 = np.array([299.0, 86399.0, 0.0, 86400.0 + 299.0])
        assert departure_slot(t0).tolist() == [0, 287, 0, 0]

    def test_zero_distance_for_repeated_point(self):
        t = make_traj([(0.05, 0.05), (0.05, 0.05)])
        attrs = motion_attributes([t])[0]
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
        cb = extract_condition_batch([t], self.GRID, self.NORM)
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

    def test_columns_match_per_trajectory_reference(self):
        trajs = synth_city(seed=6, n_trajectories=40)
        trajs.append(make_traj([(108.95, 34.2), (108.96, 34.21)], t0=-1.0, interval=None))
        norm = NormStats.fit(trajs)
        grid = norm.grid()
        numeric, slot, origin, dest = ref_condition_columns(trajs, grid, norm)
        cb = extract_condition_batch(trajs, grid, norm)
        assert cb.numeric.tobytes() == numeric.tobytes()
        assert cb.slot.tobytes() == slot.tobytes()
        assert cb.origin.tobytes() == origin.tobytes()
        assert cb.dest.tobytes() == dest.tobytes()
        assert not cb.is_null.any()

    def test_empty_list_gives_empty_batch(self):
        cb = extract_condition_batch([], self.GRID, self.NORM)
        assert len(cb) == 0 and cb.numeric.shape == (0, 4)

    def test_euclidean_variant_available(self):
        t = make_traj([(0.0, 0.0), (0.03, 0.04)])
        assert abs(path_lengths([t.points], "euclidean")[0] - 0.05) < 1e-12
        with pytest.raises(UsageError):
            path_lengths([t.points], "manhattan")


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

    @pytest.mark.parametrize("seed, spec, sha256", [
        (0, CitySpec(), "6223c44c628a9a7a9cb39b576ba6298ebeece6f0d924da55d3e4ade5607d57fb"),
        (1_000_004, CitySpec(),
         "d5fc175165da3d99a36f44982e60c51887d00ded6eabcb038ed586118e8c3adf"),
        (7, SPEC4, "caa6d7c66a89fb834bac3052f6f2466f6b34f5ad1b597c8831b0a58bfe08b038"),
    ])
    def test_file_bytes_pinned(self, tmp_path, seed, spec, sha256):
        path = tmp_path / "city.jsonl"
        save_dataset(path, synth_city(seed, 200, spec))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

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


C = CHUNK_TRAJECTORIES
SET_SIZES = (0, 1, C - 1, C, C + 1, 2000)


@pytest.fixture(scope="module")
def ragged_sets():
    """Sets whose sizes straddle the chunk size, each holding a 2-point
    trajectory, a repeated-point one and one without an interval, the last
    two on each side of a chunk boundary."""
    base = synth_city(1, 2000)
    sets = {}
    for n in SET_SIZES:
        trajs = list(base[:n])
        for k, t in ((0, make_traj([(108.95, 34.2), (108.96, 34.21)], t0=-1.0, tid="two")),
                     (C - 1, make_traj([(108.97, 34.25)] * 3, interval=None, tid="repeated")),
                     (C, make_traj(base[C].points, t0=base[C].t0, interval=None, tid="no-dt"))):
            if k < n:
                trajs[k] = t
        sets[n] = trajs
    return sets


def assert_same_stats(got, want):
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    assert got.attr_mean.tobytes() == want.attr_mean.tobytes()
    assert got.attr_std.tobytes() == want.attr_std.tobytes()


def assert_same_conditions(trajs, grid, norm):
    cb = extract_condition_batch(trajs, grid, norm)
    for got, want in zip((cb.numeric, cb.slot, cb.origin, cb.dest),
                         ref_condition_columns(trajs, grid, norm)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestChunkedPasses:
    """The whole-set passes give the per-trajectory references' bytes."""

    NORM = NormStats(108.90, 109.06, 34.18, 34.34, attr_mean=(5.0, 0.05, 700.0, 160.0),
                     attr_std=(2.0, 0.01, 200.0, 25.0))

    @pytest.mark.parametrize("n", SET_SIZES)
    def test_fit_matches_reference(self, ragged_sets, n):
        if n == 0:
            with pytest.raises(DataError, match="empty dataset"):
                NormStats.fit([])
            return
        assert_same_stats(NormStats.fit(ragged_sets[n]), ref_fit(ragged_sets[n]))

    @pytest.mark.parametrize("n", SET_SIZES)
    def test_make_batch_matches_reference(self, ragged_sets, n):
        got = make_batch(ragged_sets[n], 64, self.NORM).data
        assert got.tobytes() == ref_make_batch(ragged_sets[n], 64, self.NORM).tobytes()
        assert got.shape == (n, 2, 64)

    @pytest.mark.parametrize("n", SET_SIZES)
    def test_conditions_match_reference(self, ragged_sets, n):
        trajs = ragged_sets[n]
        want = np.stack([ref_motion_attributes(t) for t in trajs]) if n else np.zeros((0, 4))
        assert motion_attributes(trajs).tobytes() == want.tobytes()
        assert_same_conditions(trajs, self.NORM.grid(), self.NORM)

    @pytest.mark.parametrize("metric", ["haversine", "euclidean"])
    @pytest.mark.parametrize("n", SET_SIZES)
    def test_travel_lengths_match_reference(self, ragged_sets, n, metric):
        got = metrics.travel_lengths(ragged_sets[n], metric)
        want = np.array([ref_path_length(t.points, metric) for t in ragged_sets[n]])
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", SET_SIZES)
    def test_extent_matches_concatenated_box(self, ragged_sets, n):
        arrays = [t.points for t in ragged_sets[n]]
        if n == 0:
            with pytest.raises(DataError, match="empty point set"):
                extent(arrays)
            return
        assert np.array(extent(arrays)).tobytes() == np.array(ref_extent(arrays)).tobytes()

    @pytest.mark.parametrize("flat", ["lng", "lat", "both"])
    def test_extent_pads_a_zero_extent_axis(self, ragged_sets, flat):
        arrays = [t.points.copy() for t in ragged_sets[C + 1]]
        for p in arrays:
            if flat in ("lng", "both"):
                p[:, 0] = 108.95
            if flat in ("lat", "both"):
                p[:, 1] = 34.25
        got = extent(arrays)
        assert np.array(got).tobytes() == np.array(ref_extent(arrays)).tobytes()
        assert (got[1] - got[0] < 1e-8) == (flat != "lat")
        assert (got[3] - got[2] < 1e-8) == (flat != "lng")

    def test_extent_skips_chunks_without_points(self):
        arrays = [np.zeros((0, 2))] * C + [[[1.0, 2.0], [3.0, -4.0]], np.zeros((0, 2))]
        assert extent(arrays) == ref_extent(arrays) == (1.0, 3.0, -4.0, 2.0)
        with pytest.raises(DataError, match="empty point set"):
            extent([np.zeros((0, 2))] * (C + 1))

    @pytest.mark.parametrize("metric", ["haversine", "euclidean"])
    def test_short_point_arrays_match_reference(self, metric):
        # an empty or one-point array first in its chunk, and after a full one
        arrays = [np.zeros((0, 2)), [[1.0, 2.0]], [[1.0, 2.0], [1.3, 2.4]], np.zeros((0, 2)),
                  [[1.0, 2.0]], [[5.0, 5.0]] * 3]
        want = np.array([ref_path_length(p, metric) for p in arrays])
        assert path_lengths(arrays, metric).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed, spec", [(0, None), (1, None), (1_000_004, None), (3, SPEC4)])
    def test_synth_city_matches_reference(self, seed, spec):
        for got, want in zip(synth_city(seed, 300, spec), ref_synth_city(seed, 300, spec),
                             strict=True):
            assert got.points.tobytes() == want.points.tobytes()
            assert (got.id, got.t0, got.interval) == (want.id, want.t0, want.interval)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=2 * C + 3),
           st.integers(0, 2 ** 32 - 1), st.floats(1e-4, 0.1))
    def test_drawn_ragged_sets_match_reference(self, sizes, seed, step):
        # coordinates on a coarse lattice, so consecutive points repeat now and then
        rng = np.random.default_rng(seed)
        trajs = [make_traj(108.9 + step * rng.integers(0, 4, size=(k + 1, 2)),
                           t0=float(rng.integers(-10**6, 10**6)),
                           interval=None if rng.random() < 0.3 else float(rng.random() * 10),
                           tid=str(i))
                 for i, k in enumerate(sizes)]
        lngs = np.concatenate([t.points[:, 0] for t in trajs])
        lats = np.concatenate([t.points[:, 1] for t in trajs])
        if lngs.max() > lngs.min() and lats.max() > lats.min():
            norm = NormStats.fit(trajs)
            assert_same_stats(norm, ref_fit(trajs))
        else:
            norm = self.NORM
        assert make_batch(trajs, 9, norm).data.tobytes() == ref_make_batch(trajs, 9, norm).tobytes()
        assert_same_conditions(trajs, norm.grid(), norm)
        for metric in ("haversine", "euclidean"):
            want = np.array([ref_path_length(t.points, metric) for t in trajs])
            assert metrics.travel_lengths(trajs, metric).tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 25),
           st.lists(st.floats(0.01, 0.99), min_size=2, max_size=6, unique=True),
           st.data())
    def test_drawn_cities_match_reference(self, seed, n, fractions, data):
        k = len(fractions)
        spec = CitySpec(street_fractions=tuple(fractions),
                        street_popularity=tuple(data.draw(st.lists(
                            st.floats(0.01, 100.0), min_size=k, max_size=k))),
                        jitter_sigma=data.draw(st.floats(0.0, 0.01)),
                        min_points=data.draw(st.integers(2, 20)), max_points=40)
        for got, want in zip(synth_city(seed, n, spec), ref_synth_city(seed, n, spec),
                             strict=True):
            assert got.points.tobytes() == want.points.tobytes()
            assert (got.id, got.t0, got.interval) == (want.id, want.t0, want.interval)

    @pytest.mark.parametrize("call", ["fit", "make_batch", "extract_condition_batch",
                                      "travel_lengths", "grid_density", "top_cells", "extent"])
    def test_whole_set_pass_peak_under_4_mb(self, call):
        # 2000 trajectories hold about 4.9 MB of points: a pass whose temporaries
        # grow with the set, not with one chunk, goes past the budget
        trajs = synth_city(1, 2000)
        norm = NormStats.fit(trajs)
        run = {"fit": lambda: NormStats.fit(trajs),
               "make_batch": lambda: make_batch(trajs, 64, norm),
               "extract_condition_batch": lambda: extract_condition_batch(trajs, norm.grid(), norm),
               "travel_lengths": lambda: metrics.travel_lengths(trajs),
               "grid_density": lambda: metrics.grid_density(trajs, norm.grid()),
               "top_cells": lambda: metrics.top_cells(trajs, norm.grid(), 10),
               "extent": lambda: extent([t.points for t in trajs])}[call]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, f"{call} peaked at {peak / 1e6:.2f} MB"


def test_data_layer_does_not_load_the_model():
    code = ("import sys, trajdiff.trajdata, trajdiff.metrics; "
            "print(sorted(m for m in ('trajdiff.unet', 'trajdiff.diffusion') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out.strip() == "[]"
