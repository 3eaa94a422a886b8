from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajdiff.schedule import (MAX_T, NoiseSchedule, linear_beta_schedule, mu_from_eps,
                               predict_x0_from_eps, q_sample)


def alpha_bar_at(sched: NoiseSchedule, t: int) -> float:
    """alpha_bar at 1-based step t; t = 0 returns 1 (the x0 endpoint)."""
    if not 0 <= t <= sched.T:
        raise ValueError(f"step index out of range [0, {sched.T}]: {t}")
    return 1.0 if t == 0 else float(sched.alpha_bar[t - 1])


@dataclass(frozen=True)
class PosteriorStats:
    """Mean and per-step variance of the reverse conditional."""

    mean: np.ndarray
    variance: float


def posterior_mean(x0: np.ndarray, xt: np.ndarray, t: int, sched: NoiseSchedule) -> PosteriorStats:
    """Oracle for the reverse conditional q(x_{t-1} | x_t, x_0): its mean from
    the closed form in x_0 and x_t, and its variance beta_tilde."""
    if not 1 <= t <= sched.T:
        raise ValueError(f"step index out of range [1, {sched.T}]: {t}")
    ab_t, ab_prev = alpha_bar_at(sched, t), alpha_bar_at(sched, t - 1)
    beta_t, alpha_t = sched.beta[t - 1], sched.alpha[t - 1]
    c0 = np.sqrt(ab_prev) * beta_t / (1.0 - ab_t)
    ct = np.sqrt(alpha_t) * (1.0 - ab_prev) / (1.0 - ab_t)
    return PosteriorStats(mean=c0 * np.asarray(x0) + ct * np.asarray(xt),
                          variance=sched.beta_tilde[t - 1])


@pytest.fixture(scope="module")
def sched500():
    return linear_beta_schedule(500, 1e-4, 0.05)


class TestLinearSchedule:
    def test_endpoints_and_monotonicity(self, sched500):
        assert sched500.beta[0] == 1e-4
        assert sched500.beta[-1] == 0.05
        assert np.all(np.diff(sched500.beta) > 0)
        assert np.all(np.diff(sched500.alpha_bar) < 0)
        assert sched500.alpha_bar[-1] < sched500.alpha_bar[0]

    def test_single_step_relaxed_equality(self):
        s = linear_beta_schedule(1, 0.3, 0.3)
        np.testing.assert_array_equal(s.beta, [0.3])
        np.testing.assert_allclose(s.alpha_bar, [0.7])
        np.testing.assert_array_equal(s.beta_tilde, [0.3])

    def test_alpha_bar_matches_high_precision_product(self, sched500):
        # independent oracle: 50-digit running product of (1 - beta_t)
        with mpmath.workdps(50):
            acc = mpmath.mpf(1)
            for b in sched500.beta:
                acc *= 1 - mpmath.mpf(float(b))
            expect = float(acc)
        rel = abs(sched500.alpha_bar[-1] - expect) / expect
        assert rel < 1e-10

    def test_beta_tilde_matches_direct_formula(self):
        s = linear_beta_schedule(4, 0.1, 0.4)
        # symbolic evaluation at t=2 in float64
        a1, a2 = 1 - 0.1, 1 - 0.2
        expect = (1 - a1) / (1 - a1 * a2) * 0.2
        assert abs(s.beta_tilde[1] - expect) < 1e-12

    def test_beta_tilde_1_equals_beta_1_exactly(self, sched500):
        assert sched500.beta_tilde[0] == sched500.beta[0]

    @pytest.mark.parametrize("args", [(0, 1e-4, 0.05), (10, 0.0, 0.05), (10, 1e-4, 1.0), (10, 0.05, 1e-4),
                                      (2, 1e-20, 2e-20), (1, 1e-20, 1e-20)])
    def test_invalid_arguments_rejected(self, args):
        # the last two: 1 - beta rounds to 1, so alpha_bar cannot fall
        with pytest.raises(ValueError):
            linear_beta_schedule(*args)

    @pytest.mark.parametrize("T", [MAX_T + 1, 10**12])
    def test_step_count_above_cap_rejected_before_allocating(self, T):
        with pytest.raises(ValueError, match=f"at most {MAX_T} steps"):
            linear_beta_schedule(T, 1e-4, 0.05)

    def test_arrays_are_frozen(self, sched500):
        with pytest.raises(ValueError):
            sched500.beta[0] = 0.5


class TestQSample:
    def test_zero_noise_scales_x0(self, sched500):
        x0 = np.random.default_rng(0).normal(size=(2, 2, 8))
        t = 100
        out = q_sample(x0, t, np.zeros_like(x0), sched500)
        np.testing.assert_allclose(out, np.sqrt(sched500.alpha_bar[t - 1]) * x0, rtol=1e-12)

    def test_zero_signal_scales_noise(self, sched500):
        eps = np.random.default_rng(1).normal(size=(2, 2, 8))
        t = 250
        out = q_sample(np.zeros_like(eps), t, eps, sched500)
        np.testing.assert_allclose(out, np.sqrt(1 - sched500.alpha_bar[t - 1]) * eps, rtol=1e-12)

    def test_monte_carlo_moments(self, sched500):
        # statistics oracle: over many standard-normal draws the sample mean
        # approaches sqrt(abar)*x0 and the sample std approaches sqrt(1-abar)
        rng = np.random.default_rng(7)
        t = 200
        x0 = np.array([0.4, -0.7])
        n = 10_000
        eps = rng.standard_normal((n, 2))
        xt = q_sample(np.broadcast_to(x0, (n, 2)).copy(), t, eps, sched500)
        ab = sched500.alpha_bar[t - 1]
        sigma = np.sqrt(1 - ab)
        mean_tol = 4 * sigma / np.sqrt(n)
        assert np.abs(xt.mean(axis=0) - np.sqrt(ab) * x0).max() < mean_tol
        assert np.abs(xt.std(axis=0) / sigma - 1).max() < 0.02

    def test_out_of_range_t_rejected(self, sched500):
        x = np.zeros((1, 2, 4))
        with pytest.raises(ValueError):
            q_sample(x, 0, x, sched500)
        with pytest.raises(ValueError):
            q_sample(x, 501, x, sched500)

    def test_shape_mismatch_rejected(self, sched500):
        with pytest.raises(ValueError):
            q_sample(np.zeros((1, 2, 4)), 5, np.zeros((1, 2, 5)), sched500)

    def test_vectorized_steps_match_scalar(self, sched500):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(3, 2, 4))
        eps = rng.normal(size=(3, 2, 4))
        ts = np.array([1, 250, 500])
        batch = q_sample(x0, ts, eps, sched500)
        for i, t in enumerate(ts):
            single = q_sample(x0[i:i + 1], int(t), eps[i:i + 1], sched500)
            np.testing.assert_array_equal(batch[i], single[0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 500), st.floats(-2, 2), st.floats(-2, 2))
    def test_superposition(self, t, a, b):
        s = linear_beta_schedule(500, 1e-4, 0.05)
        rng = np.random.default_rng(11)
        x1, x2 = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        e1, e2 = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        lhs = q_sample(a * x1 + b * x2, t, a * e1 + b * e2, s)
        rhs = a * q_sample(x1, t, e1, s) + b * q_sample(x2, t, e2, s)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestPosterior:
    def test_zero_inputs_zero_mean(self, sched500):
        z = np.zeros((1, 2, 4))
        stats = posterior_mean(z, z, 17, sched500)
        assert np.all(stats.mean == 0)
        assert stats.variance >= 0

    def test_coefficients_match_symbolic_evaluation(self):
        s = linear_beta_schedule(3, 0.1, 0.3)
        # direct 64-bit formula at t=2
        b2 = s.beta[1]
        a2 = 1 - b2
        ab1, ab2 = s.alpha_bar[0], s.alpha_bar[1]
        c0 = np.sqrt(ab1) * b2 / (1 - ab2)
        ct = np.sqrt(a2) * (1 - ab1) / (1 - ab2)
        x0 = np.array([[1.0]])
        xt = np.array([[1.0]])
        got = posterior_mean(x0, xt, 2, s).mean[0, 0]
        assert abs(got - (c0 + ct)) < 1e-12

    def test_variance_at_t1_is_beta1(self, sched500):
        stats = posterior_mean(np.zeros((1, 1)), np.zeros((1, 1)), 1, sched500)
        assert stats.variance == sched500.beta[0]

    def test_out_of_range_rejected(self, sched500):
        with pytest.raises(ValueError):
            posterior_mean(np.zeros((1, 1)), np.zeros((1, 1)), 0, sched500)


class TestPredictX0:
    def test_roundtrip_inverts_q_sample(self, sched500):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(2, 2, 16))
        eps = rng.normal(size=(2, 2, 16))
        for t in (1, 100, 499, 500):
            xt = q_sample(x0, t, eps, sched500)
            rec = predict_x0_from_eps(xt, t, eps, sched500)
            assert np.abs(rec - x0).max() < 1e-5

    def test_zero_noise_rescales(self, sched500):
        rng = np.random.default_rng(6)
        xt = rng.normal(size=(1, 2, 8))
        t = 321
        rec = predict_x0_from_eps(xt, t, np.zeros_like(xt), sched500)
        np.testing.assert_allclose(rec, xt / np.sqrt(sched500.alpha_bar[t - 1]), rtol=1e-12)

    def test_mu_equivalence_backbone(self, sched500):
        # mu via predict_x0 + posterior_mean must match the direct formula
        rng = np.random.default_rng(8)
        for t in (2, 50, 250, 500):
            xt = rng.normal(size=(2, 2, 8))
            eps = rng.normal(size=(2, 2, 8))
            via_x0 = posterior_mean(predict_x0_from_eps(xt, t, eps, sched500), xt, t, sched500).mean
            direct = mu_from_eps(xt, t, eps, sched500)
            assert np.abs(via_x0 - direct).max() < 1e-5

    def test_alpha_bar_at_zero_is_one(self, sched500):
        assert alpha_bar_at(sched500, 0) == 1.0
        assert alpha_bar_at(sched500, 500) == sched500.alpha_bar[-1]
