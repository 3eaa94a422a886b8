import math
import re

import jsonschema
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPORT_SCHEMA
from trajdiff.metrics import (LN2, Distribution, density_error,
                              evaluate, grid_density, jsd, length_error,
                              pattern_score, top_cells, trip_error)
from trajdiff.rng import stream
from trajdiff.trajdata import (CHUNK_TRAJECTORIES, CitySpec, GridSpec, perturb_gaussian,
                               synth_city)

GRID = GridSpec(0.0, 1.0, 0.0, 1.0)


def dist(*probs):
    return Distribution(np.array(probs, dtype=np.float64))


def point_cloud_traj(points):
    return np.asarray(points, dtype=np.float64)


class TestJsd:
    def test_zero_on_identical(self):
        p = dist(0.2, 0.3, 0.5)
        assert jsd(p, p) == 0.0

    def test_ln2_on_disjoint_support(self):
        assert abs(jsd(dist(1.0, 0.0), dist(0.0, 1.0)) - LN2) < 1e-15

    def test_matches_high_precision_oracle(self):
        # direct KL summation at 50 digits
        with mpmath.workdps(50):
            half = mpmath.mpf(1) / 2
            m0, m1 = (half + 1) / 2, (half + 0) / 2
            expect = float(half * (half * mpmath.log(half / m0) + half * mpmath.log(half / m1))
                           + half * (1 * mpmath.log(1 / m0)))
        got = jsd(dist(0.5, 0.5), dist(1.0, 0.0))
        assert abs(got - expect) < 1e-12

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.random(16)
            b = rng.random(16)
            p, g = dist(*(a / a.sum())), dist(*(b / b.sum()))
            assert jsd(p, g) == jsd(g, p)

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError, match="support"):
            jsd(dist(1.0), dist(0.5, 0.5))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 64))
    def test_range_property(self, seed, k):
        rng = np.random.default_rng(seed)
        a = rng.random(k) * (rng.random(k) < 0.7)
        b = rng.random(k) * (rng.random(k) < 0.7)
        if a.sum() == 0 or b.sum() == 0:
            return
        v = jsd(dist(*(a / a.sum())), dist(*(b / b.sum())))
        assert 0.0 <= v <= LN2 + 1e-12

    def test_distribution_invariants(self):
        with pytest.raises(ValueError):
            dist(0.5, 0.6)
        with pytest.raises(ValueError):
            dist(-0.1, 1.1)
        with pytest.raises(ValueError, match="finite"):
            dist(float("nan"), 1.0)
        p = dist(0.5, 0.5)
        p.probs[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            jsd(p, dist(0.5, 0.5))


class TestGridDensity:
    def test_single_cell_one_hot(self):
        trajs = [point_cloud_traj([[0.03, 0.03]] * 5), point_cloud_traj([[0.02, 0.04]] * 3)]
        d = grid_density(trajs, GRID)
        assert d.probs[0] == 1.0
        assert d.probs.sum() == 1.0

    def test_uniform_points_near_uniform_density(self):
        rng = np.random.default_rng(1)
        n = 200_000
        trajs = [point_cloud_traj(np.stack([rng.random(n), rng.random(n)], axis=1))]
        d = grid_density(trajs, GRID).probs
        p = 1 / 256
        sigma = math.sqrt(p * (1 - p) / n)
        assert np.abs(d - p).max() < 3 * sigma + 1e-12

    def test_total_mass_one(self):
        rng = np.random.default_rng(2)
        trajs = [point_cloud_traj(rng.random((50, 2))) for _ in range(10)]
        assert abs(grid_density(trajs, GRID).probs.sum() - 1.0) < 1e-9

    def test_outside_points_clamped_and_reported(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            d = grid_density([point_cloud_traj([[5.0, 5.0], [-1.0, 0.5]])], GRID)
        assert abs(d.probs.sum() - 1.0) < 1e-12
        assert any("clamped" in r.message for r in caplog.records)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            grid_density([], GRID)

    def test_matches_per_trajectory_counts(self):
        # chunked cell counting counts exactly what per-trajectory lookups
        # count, on set sizes around the chunk, mixed lengths and out-of-box
        # points included
        rng = np.random.default_rng(4)
        c = CHUNK_TRAJECTORIES
        for n in (1, c - 1, c, c + 1, 2000):
            trajs = [point_cloud_traj(rng.uniform(-0.2, 1.2, (int(k), 2)))
                     for k in rng.integers(1, 60, size=n)]
            counts = np.zeros(GRID.n_cells)
            for t in trajs:
                counts += np.bincount(GRID.cell_indices(t)[0], minlength=GRID.n_cells)
            want = (counts / counts.sum()).tobytes()
            assert grid_density(trajs, GRID).probs.tobytes() == want, n
            order = np.lexsort((np.arange(counts.size), -counts))
            assert top_cells(trajs, GRID, 10) == set(order[:10].tolist()), n


def city_sets(seed, n):
    trajs = synth_city(seed=seed, n_trajectories=n)
    spec = CitySpec()
    grid = GridSpec(spec.lng_min, spec.lng_max, spec.lat_min, spec.lat_max)
    return trajs, grid


class TestDensityError:
    def test_self_comparison_zero(self):
        trajs, grid = city_sets(3, 50)
        assert density_error(trajs, trajs, grid) == 0.0

    def test_gaussian_perturbation_increases_error(self):
        trajs, grid = city_sets(4, 80)
        rng = stream(5)
        perturbed = [perturb_gaussian(t, 0.01, rng) for t in trajs]
        assert density_error(perturbed, trajs, grid) > 0.0

    def test_uniform_noise_scores_poorly(self):
        trajs, grid = city_sets(6, 80)
        rng = stream(7)
        noise = [point_cloud_traj(np.stack([
            rng.uniform(grid.lng_min, grid.lng_max, 150),
            rng.uniform(grid.lat_min, grid.lat_max, 150)], axis=1)) for _ in range(80)]
        assert density_error(noise, trajs, grid) > 0.2

    def test_perturbation_monotone_in_sigma(self):
        # statistical: majority vote over five seeds
        trajs, grid = city_sets(8, 60)
        sigmas = [0.0, 0.005, 0.01, 0.02]
        wins = 0
        for seed in range(5):
            rng = stream(100 + seed)
            errs = []
            for s in sigmas:
                pert = [perturb_gaussian(t, s, rng) for t in trajs]
                errs.append(density_error(pert, trajs, grid))
            if all(b >= a for a, b in zip(errs, errs[1:])):
                wins += 1
        assert wins >= 3


class TestTripError:
    def test_identical_sets_zero(self):
        trajs, grid = city_sets(9, 40)
        assert trip_error(trajs, trajs, grid) == 0.0

    def test_corner_origins_match_closed_form(self):
        trajs, grid = city_sets(10, 64)
        corner = grid.lng_min + 1e-6, grid.lat_min + 1e-6
        moved = [np.vstack([[corner], t.points[1:]]) for t in trajs]
        got = trip_error(moved, trajs, grid)

        # closed form: origin term is the JSD between the real origin cell
        # histogram and a one-hot at the corner; destinations are untouched
        real_o = grid_density([np.stack([t.points[0] for t in trajs])], grid).probs
        onehot = np.zeros_like(real_o)
        onehot[0] = 1.0
        expect_origin = jsd(Distribution(onehot), Distribution(real_o))
        assert abs(got - 0.5 * expect_origin) < 1e-12

    def test_range(self):
        trajs, grid = city_sets(11, 30)
        other = synth_city(seed=12, n_trajectories=30)
        v = trip_error(other, trajs, grid)
        assert 0.0 <= v <= LN2

    def test_matches_per_endpoint_counts(self, caplog):
        # the per-endpoint cell histograms trip_error used to build, one
        # bincount per side and endpoint; some endpoints lie outside the grid
        def ref_endpoint_density(trajs, which):
            idx, _ = GRID.cell_indices(np.stack([t[which] for t in trajs]))
            counts = np.bincount(idx, minlength=GRID.n_cells).astype(np.float64)
            return Distribution(counts / counts.sum())

        rng = np.random.default_rng(5)
        c = CHUNK_TRAJECTORIES
        for n in (1, c - 1, c, c + 1, 2000):
            gen, real = ([point_cloud_traj(rng.uniform(-0.1, 1.1, (int(k), 2)))
                          for k in rng.integers(2, 9, size=n)] for _ in range(2))
            want = 0.5 * sum(jsd(ref_endpoint_density(gen, w), ref_endpoint_density(real, w))
                             for w in (0, -1))
            caplog.clear()
            with caplog.at_level("WARNING"):
                got = trip_error(gen, real, GRID)
            assert got.hex() == want.hex(), n
            assert caplog.records or n == 1
            for r in caplog.records:
                assert re.fullmatch(r"\d+ points fell outside the grid and were clamped "
                                    r"to boundary cells", r.getMessage())


class TestLengthError:
    def test_identical_sets_zero(self):
        trajs, _ = city_sets(13, 30)
        assert length_error(trajs, trajs) == 0.0

    def test_scaling_lengths_increases_error(self):
        trajs, _ = city_sets(14, 60)
        doubled = []
        for t in trajs:
            c = t.points.mean(axis=0)
            doubled.append(point_cloud_traj(c + 2.0 * (t.points - c)))
        assert length_error(doubled, trajs) > 0.0

    def test_hand_built_histogram_oracle(self):
        # four trajectories per set, two bins, hand-computed JSD
        def straight(km_east):
            deg = km_east / 111.19492664455873  # one degree of longitude on the equator
            return point_cloud_traj([[0.0, 0.0], [deg, 0.0]])

        gen = [straight(1.0), straight(1.0), straight(1.0), straight(9.0)]
        real = [straight(1.0), straight(9.0), straight(9.0), straight(9.0)]
        got = length_error(gen, real, bins=2)
        p = np.array([0.75, 0.25])
        g = np.array([0.25, 0.75])
        m = (p + g) / 2
        expect = 0.5 * np.sum(p * np.log(p / m)) + 0.5 * np.sum(g * np.log(g / m))
        assert abs(got - expect) < 1e-12

    def test_degenerate_single_length_warns_zero(self, caplog):
        import logging

        same = [point_cloud_traj([[0.0, 0.0], [0.01, 0.0]]) for _ in range(4)]
        with caplog.at_level(logging.WARNING):
            assert length_error(same, list(same)) == 0.0
        assert any("identical" in r.message for r in caplog.records)


class TestPatternScore:
    def test_identical_sets_score_one(self):
        trajs, grid = city_sets(15, 60)
        assert pattern_score(trajs, trajs, grid, n=10) == 1.0

    def test_disjoint_top_sets_score_zero(self):
        a = [point_cloud_traj([[0.01, 0.01]] * 10)]
        b = [point_cloud_traj([[0.99, 0.99]] * 10)]
        assert pattern_score(a, b, GRID, n=1) == 0.0

    def test_half_overlap_scores_half(self):
        # equal-size top sets: F1 reduces to |intersection| / n
        a = [point_cloud_traj([[0.01, 0.01]] * 4 + [[0.99, 0.01]] * 3)]
        b = [point_cloud_traj([[0.01, 0.01]] * 4 + [[0.01, 0.99]] * 3)]
        assert pattern_score(a, b, GRID, n=2) == 0.5

    def test_tie_break_deterministic(self):
        pts = [point_cloud_traj([[0.01, 0.01], [0.99, 0.99]])]
        cells = top_cells(pts, GRID, 1)
        assert cells == {0}  # (row 0, col 0) wins the tie lexicographically

    def test_invalid_n_rejected(self):
        trajs, grid = city_sets(16, 10)
        with pytest.raises(ValueError):
            pattern_score(trajs, trajs, grid, n=0)
        with pytest.raises(ValueError, match="nonempty"):
            pattern_score([point_cloud_traj([[0.01, 0.01]] * 3)], trajs, GRID, n=5)


class TestEvaluate:
    def test_self_comparison_is_perfect(self):
        trajs, grid = city_sets(17, 40)
        rep = evaluate(trajs, trajs, grid)
        assert rep.density_error == 0.0
        assert rep.trip_error == 0.0
        assert rep.length_error == 0.0
        assert rep.pattern_score == 1.0

    def test_report_validates_against_schema(self):
        trajs, grid = city_sets(18, 40)
        other = synth_city(seed=19, n_trajectories=40)
        rep = evaluate(other, trajs, grid, top_n=8, length_bins=20)
        jsonschema.validate(rep.to_dict(), REPORT_SCHEMA)
        assert rep.n_gen == 40 and rep.n_real == 40

    def test_empty_sets_rejected(self):
        trajs, grid = city_sets(20, 5)
        with pytest.raises(ValueError):
            evaluate([], trajs, grid)
