import multiprocessing
import time

import numpy as np
import pytest

from trajdiff import diffusion
from trajdiff import tensor as tz
from trajdiff.diffusion import (CLIP_X0, Adam, SamplerConfig, TrainConfig, ddim_step,
                                ddim_transition, ddpm_step, guided_eps, sample,
                                skip_subsequence, train, training_loss)
from trajdiff.errors import NumericError
from trajdiff.rng import stream
from trajdiff.schedule import linear_beta_schedule, mu_from_eps, predict_x0_from_eps, q_sample
from trajdiff.tensor import Tensor
from trajdiff.trajdata import NUM_DEPARTURE_SLOTS, NUM_GRID_CELLS, ConditionBatch, ConditionVector
from trajdiff.unet import TrajUNet, TrajUNetConfig


class StubModel:
    """Callable denoiser stub with the same surface the samplers expect."""

    class _Cfg:
        def __init__(self, length, in_channels):
            self.length = length
            self.in_channels = in_channels

    def __init__(self, fn, length=8, channels=2):
        self.fn = fn
        self.config = self._Cfg(length, channels)
        self.params = {}
        self.calls = 0

    def __call__(self, x_t, t, cond):
        self.calls += x_t.shape[0]
        return Tensor(self.fn(np.asarray(x_t, np.float32), t, cond))


def null_batch(n: int) -> ConditionBatch:
    """n conditions that are all null, as training's dropout marks them."""
    return ConditionBatch.from_vectors([ConditionVector(is_null=True)] * n)


def ancestral_step(model, x_t, t, cond, omega, sched, z):
    """The ancestral posterior step, the oracle of the DDIM chain at eta = 1.

    Guided eps, re-derived from the implied x0 clamped to +-CLIP_X0, gives the
    posterior mean mu_from_eps; sqrt(beta_tilde_t) * z is added when t > 1.
    Computed in float64.
    """
    x_t = x_t.astype(np.float64)
    eps_hat = guided_eps(model, x_t, np.full(x_t.shape[0], t), cond, omega).astype(np.float64)
    x0_hat = np.clip(predict_x0_from_eps(x_t, t, eps_hat, sched), -CLIP_X0, CLIP_X0)
    ab = sched.alpha_bar[t - 1]
    eps_hat = (x_t - np.sqrt(ab) * x0_hat) / np.sqrt(1.0 - ab)
    mean = mu_from_eps(x_t, t, eps_hat, sched)
    if t == 1:
        return mean.astype(np.float32)
    return (mean + np.sqrt(sched.beta_tilde[t - 1]) * z).astype(np.float32)


@pytest.fixture(scope="module")
def sched():
    return linear_beta_schedule(100, 1e-4, 0.05)


class TestSkipSubsequence:
    def test_uniform_stride_ends_at_total(self):
        tau = skip_subsequence(500, 100)
        assert tau[-1] == 500
        assert len(tau) == 100
        assert np.all(np.diff(tau) == 5)

    def test_identity_when_s_equals_t(self):
        np.testing.assert_array_equal(skip_subsequence(7, 7), np.arange(1, 8))

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            skip_subsequence(10, 0)
        with pytest.raises(ValueError):
            skip_subsequence(10, 11)

    @pytest.mark.parametrize("T", [1, 4, 5, 20, 100, 500])
    def test_default_sample_steps_is_a_fifth_of_t(self, T):
        # the one default: generate passes an unset --steps through to it
        cfg = SamplerConfig(total_steps=T)
        assert cfg.sample_steps == max(1, T // 5)
        np.testing.assert_array_equal(cfg.tau, skip_subsequence(T, max(1, T // 5)))


class TestTrainingLoss:
    def test_oracle_denoiser_gives_zero_loss(self, sched):
        rng = stream(1)
        x0 = rng.normal(size=(4, 2, 8)).astype(np.float32)

        def oracle(x_t, t, cond):
            ab = sched.alpha_bar[np.asarray(t) - 1][:, None, None]
            return (x_t - np.sqrt(ab) * x0) / np.sqrt(1 - ab)

        loss = training_loss(StubModel(oracle), x0, None, sched, stream(2))
        assert loss.item() < 1e-9

    def test_zero_model_loss_matches_noise_energy(self, sched):
        # E ||eps||^2 = 2 L per trajectory; Monte-Carlo mean within 5%
        L = 8
        x0 = np.zeros((2000, 2, L), dtype=np.float32)
        zero = StubModel(lambda x_t, t, cond: np.zeros_like(x_t))
        loss = training_loss(zero, x0, None, sched, stream(3))
        assert abs(loss.item() - 2 * L) / (2 * L) < 0.05

    def test_loss_is_non_negative(self, sched):
        rng = stream(4)
        x0 = rng.normal(size=(8, 2, 8)).astype(np.float32)
        noisy = StubModel(lambda x_t, t, cond: np.tanh(x_t))
        assert training_loss(noisy, x0, None, sched, stream(5)).item() >= 0

    def test_empty_batch_rejected(self, sched):
        with pytest.raises(ValueError, match="empty"):
            training_loss(StubModel(lambda x, t, c: x), np.zeros((0, 2, 8), np.float32),
                          None, sched, stream(6))


TINY = TrajUNetConfig(length=16, base_channels=4, channel_multipliers=(1, 2),
                      resnet_blocks_per_level=1, groups=2)


class TestTrain:
    def test_zero_steps_leaves_params_unchanged(self, sched):
        model = TrajUNet(TINY, rng=stream(7))
        before = {k: p.data.copy() for k, p in model.params.items()}
        hist = train(model, stream(8).normal(size=(4, 2, 16)).astype(np.float32), None,
                     TrainConfig(steps=0, batch_size=2, seed=0), sched)
        assert hist.size == 0
        for k, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_memorizes_single_trajectory(self, sched):
        model = TrajUNet(TINY, rng=stream(9))
        x0 = stream(10).normal(size=(1, 2, 16)).astype(np.float32) * 0.5
        hist = train(model, x0, None, TrainConfig(steps=500, batch_size=8, seed=1,
                                                  learning_rate=2e-3, cond_dropout_prob=0.0), sched)
        assert hist[-50:].mean() < hist[0]

    def test_same_seed_bitwise_identical_history(self, sched):
        def run():
            model = TrajUNet(TINY, rng=stream(11))
            x0 = stream(12).normal(size=(6, 2, 16)).astype(np.float32)
            return train(model, x0, None, TrainConfig(steps=5, batch_size=4, seed=3), sched)

        np.testing.assert_array_equal(run(), run())

    def test_no_conditions_trains_as_an_all_null_batch(self, sched):
        # cond_data=None skips the condition encoder; an all-null batch without
        # dropout (whose draws would move the rng) runs it and multiplies it by
        # zero. Losses and every parameter agree byte for byte: the encoder's
        # zero gradients leave Adam's moments, and so its weights, at rest.
        x0 = stream(14).normal(size=(6, 2, 16)).astype(np.float32)
        runs = []
        for cond, dropout in ((None, 0.1), (null_batch(6), 0.0)):
            model = TrajUNet(TINY, rng=stream(13))
            hist = train(model, x0, cond, TrainConfig(steps=5, batch_size=4, seed=3,
                                                      cond_dropout_prob=dropout), sched)
            runs.append((hist, model.params))
        (hist_none, p_none), (hist_null, p_null) = runs
        assert hist_none.tobytes() == hist_null.tobytes()
        for name in p_null:
            assert p_none[name].data.tobytes() == p_null[name].data.tobytes(), name

    @pytest.mark.parametrize("k", [1, 3])
    def test_op_failure_names_the_step(self, sched, monkeypatch, k):
        # a NaN written into the stem conv's weights after k optimizer steps
        # makes step k's forward fail at that conv
        model = TrajUNet(TINY, rng=stream(15))
        adam_step = diffusion.Adam.step

        def step_then_poison(opt):
            adam_step(opt)
            if opt.t == k:
                model.params["stem.w"].data[0, 0, 0] = np.nan

        monkeypatch.setattr(diffusion.Adam, "step", step_then_poison)
        x0 = stream(16).normal(size=(6, 2, 16)).astype(np.float32)
        with pytest.raises(NumericError, match=rf"^step {k}: conv1d produced non-finite values$"):
            train(model, x0, None, TrainConfig(steps=k + 5, batch_size=4, seed=0), sched)

    def test_loss_overflow_is_the_mse_check(self, sched):
        # float32 outputs of 1e20 are finite, but their mean square is not:
        # the mse op's own check stops the step before any backward
        model = TrajUNet(TINY, rng=stream(17))
        model.params["out.conv.b"].data[:] = 1e20
        x0 = stream(18).normal(size=(4, 2, 16)).astype(np.float32)
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match=r"^step 0: mse produced non-finite values$"):
            train(model, x0, None, TrainConfig(steps=2, batch_size=4, seed=0), sched)

    def test_divergence_aborts(self, sched):
        huge = StubModel(lambda x_t, t, cond: np.full_like(x_t, 2e20), length=16)
        x0 = np.zeros((4, 2, 16), np.float32)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            train(huge, x0, None, TrainConfig(steps=1, batch_size=4, seed=0), sched)


class TestConfigChecks:
    # each value would otherwise construct and only fail, or silently yield
    # non-finite output, once training or sampling runs
    def test_nan_eta_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            SamplerConfig(eta=float("nan"))

    def test_infinite_guidance_rejected(self):
        with pytest.raises(ValueError, match="guidance"):
            SamplerConfig(sample_steps=1, guidance_scale=float("inf"))

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), pytest.param(10**400, id="10**400")])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("field", ["eta", "guidance_scale"])
    @pytest.mark.parametrize("value", [10**400, -10**400], ids=["10**400", "-10**400"])
    def test_int_beyond_float_range_rejected(self, field, value):
        # an int too large for a float is not finite, and not an OverflowError
        with pytest.raises(ValueError, match="finite eta"):
            SamplerConfig(sample_steps=1, **{field: value})


class TestGuidedEps:
    @staticmethod
    def _cond_model():
        # conditional and unconditional branches produce distinct fields
        def fn(x_t, t, cond):
            if cond is None or np.all(cond.is_null):
                return np.full_like(x_t, 2.0)
            return np.ones_like(x_t)

        return StubModel(fn)

    def test_omega_zero_is_exactly_conditional(self):
        model = self._cond_model()
        x = np.zeros((3, 2, 8), np.float32)
        cond = ConditionBatch.from_vectors([ConditionVector()] * 3)
        out = guided_eps(model, x, np.ones(3, int), cond, 0.0)
        np.testing.assert_array_equal(out, np.ones_like(x))
        assert model.calls == 3  # single pass

    def test_no_conditions_is_one_unconditional_pass(self):
        model = self._cond_model()
        x = np.zeros((3, 2, 8), np.float32)
        out = guided_eps(model, x, np.ones(3, int), None, 3.0)
        np.testing.assert_array_equal(out, np.full_like(x, 2.0))
        assert model.calls == 3  # single pass

    def test_equal_branches_collapse(self):
        model = StubModel(lambda x_t, t, cond: np.full_like(x_t, 1.5))
        x = np.zeros((2, 2, 8), np.float32)
        for omega in (0.0, 1.0, 3.0, 10.0):
            out = guided_eps(model, x, np.ones(2, int), null_batch(2), omega)
            np.testing.assert_allclose(out, 1.5, atol=1e-6)

    def test_affine_in_omega(self):
        model = self._cond_model()
        x = np.zeros((2, 2, 8), np.float32)
        cond = ConditionBatch.from_vectors([ConditionVector()] * 2)
        t = np.ones(2, int)
        g0 = guided_eps(model, x, t, cond, 0.0)
        g1 = guided_eps(model, x, t, cond, 1.0)
        g3 = guided_eps(model, x, t, cond, 3.0)
        np.testing.assert_allclose(g0 + 3.0 * (g1 - g0), g3, atol=1e-6)


class TestDdpmStep:
    def test_terminal_step_is_deterministic(self, sched):
        model = StubModel(lambda x_t, t, cond: np.zeros_like(x_t))
        x = stream(13).normal(size=(2, 2, 8)).astype(np.float32)
        a = ddpm_step(model, x, 1, None, 0.0, sched, stream(14).standard_normal(x.shape))
        b = ddpm_step(model, x, 1, None, 0.0, sched, stream(15).standard_normal(x.shape))
        np.testing.assert_array_equal(a, b)

    def test_shape_preserved(self, sched):
        model = StubModel(lambda x_t, t, cond: np.zeros_like(x_t))
        x = stream(16).normal(size=(3, 2, 8)).astype(np.float32)
        z = stream(17).standard_normal(x.shape)
        assert ddpm_step(model, x, 50, None, 0.0, sched, z).shape == x.shape

    def test_out_of_range_step_rejected(self, sched):
        model = StubModel(lambda x_t, t, cond: np.zeros_like(x_t))
        with pytest.raises(ValueError):
            ddpm_step(model, np.zeros((1, 2, 8), np.float32), 0, None, 0.0, sched,
                      stream(18).standard_normal((1, 2, 8)))
        assert model.calls == 0

    def test_oracle_rollout_contracts_toward_x0(self, sched):
        # a perfect denoiser with zeroed transition noise walks back to x0
        rng = stream(19)
        x0 = rng.normal(size=(1, 2, 8)).astype(np.float32) * 0.5
        eps = rng.normal(size=(1, 2, 8)).astype(np.float32)

        def oracle(x_t, t, cond):
            ab = sched.alpha_bar[np.asarray(t) - 1][:, None, None]
            return (x_t - np.sqrt(ab) * x0) / np.sqrt(1 - ab)

        model = StubModel(oracle)
        x = q_sample(x0, sched.T, eps, sched)
        dists = []
        zeros = np.zeros_like(x)
        for t in range(sched.T, 0, -1):
            x = ddpm_step(model, x, t, None, 0.0, sched, zeros)
            dists.append(float(np.linalg.norm(x - x0)))
        tail = dists[-sched.T // 10:]
        assert all(b <= a + 1e-7 for a, b in zip(tail, tail[1:]))
        assert tail[-1] < dists[0]

    def test_is_ddim_step_at_eta1(self, sched):
        # guided, with a model large enough that the x0 clamp acts
        model = StubModel(lambda x_t, t, cond: (0.2 if cond is None else -2.0) * x_t)
        cond = null_batch(3)
        x = 3.0 * stream(26).normal(size=(3, 2, 8)).astype(np.float32)
        z = stream(27).standard_normal(x.shape).astype(np.float32)
        for t in (1, 2, 50, sched.T):
            a = ddpm_step(model, x, t, cond, 2.0, sched, z)
            b = ddim_step(model, x, t, t - 1, cond, 2.0, 1.0, sched, z)
            assert a.dtype == b.dtype == np.float32
            assert a.tobytes() == b.tobytes()


class TestDdimStep:
    def test_eta_zero_is_deterministic(self, sched):
        model = StubModel(lambda x_t, t, cond: 0.1 * x_t)
        x = stream(20).normal(size=(2, 2, 8)).astype(np.float32)
        a = ddim_step(model, x, 50, 45, None, 0.0, 0.0, sched, stream(21).standard_normal(x.shape))
        b = ddim_step(model, x, 50, 45, None, 0.0, 0.0, sched, stream(22).standard_normal(x.shape))
        np.testing.assert_array_equal(a, b)

    def test_adjacent_step_eta1_matches_ddpm_posterior(self, sched):
        # formula-level equivalence of mean and variance
        rng = stream(23)
        for t in (2, 10, 60, 100):
            x_t = rng.normal(size=(1, 2, 8))
            eps_hat = rng.normal(size=(1, 2, 8))
            mean, var = ddim_transition(x_t, t, t - 1, eps_hat, 1.0, sched)
            np.testing.assert_allclose(mean, mu_from_eps(x_t, t, eps_hat, sched), atol=1e-5)
            assert abs(var - sched.beta_tilde[t - 1]) < 1e-12

    def test_full_chain_eta1_tracks_ddpm(self, sched):
        # paired rollout under one fixed noise stream
        model = StubModel(lambda x_t, t, cond: 0.2 * x_t)
        rng = stream(24)
        x_init = rng.normal(size=(1, 2, 8)).astype(np.float32)
        zs = [rng.normal(size=(1, 2, 8)).astype(np.float32) for _ in range(sched.T)]

        x_a = x_init.copy()
        for t in range(sched.T, 0, -1):
            x_a = ancestral_step(model, x_a, t, None, 0.0, sched, zs[sched.T - t])
        x_b = x_init.copy()
        for t in range(sched.T, 0, -1):
            z = zs[sched.T - t] if t > 1 else np.zeros_like(x_b)
            x_b = ddim_step(model, x_b, t, t - 1, None, 0.0, 1.0, sched, z)
        np.testing.assert_allclose(x_a, x_b, atol=1e-4)

    def test_infeasible_eta_tau_rejected(self):
        big = linear_beta_schedule(500, 1e-4, 0.05)
        x = np.zeros((1, 2, 8))
        eps = np.zeros((1, 2, 8))
        with pytest.raises(NumericError, match="infeasible"):
            ddim_transition(x, 500, 1, eps, 1.0, big)

    def test_step_ordering_validated(self, sched):
        with pytest.raises(ValueError):
            ddim_transition(np.zeros((1, 2, 8)), 10, 10, np.zeros((1, 2, 8)), 0.0, sched)


class TestSample:
    @staticmethod
    def _model(length=16):
        cfg = TrajUNetConfig(length=length, base_channels=4,
                             channel_multipliers=(1, 2), resnet_blocks_per_level=1, groups=2)
        return TrajUNet(cfg, rng=stream(25))

    def test_output_shape(self, sched):
        model = self._model()
        cfg = SamplerConfig(total_steps=100, sample_steps=10, eta=0.0, guidance_scale=0.0, seed=0)
        out, stats = sample(model, None, cfg, sched, n=5)
        assert out.shape == (5, 2, 16)
        assert stats["n"] == 5

    def test_model_eval_counting_contract(self, sched):
        counting = StubModel(lambda x_t, t, cond: np.zeros_like(x_t), length=16)
        counting.config = self._model().config
        cfg = SamplerConfig(total_steps=100, sample_steps=10, eta=0.0, guidance_scale=0.0, seed=1)
        _, stats = sample(counting, None, cfg, sched, n=4)
        assert counting.calls == 4 * 10
        assert stats["model_evals"] == 4 * 10

        counting.calls = 0
        cond = ConditionBatch.from_vectors([ConditionVector()] * 4)
        cfg = SamplerConfig(total_steps=100, sample_steps=10, eta=0.0, guidance_scale=3.0, seed=1)
        _, stats = sample(counting, cond, cfg, sched, n=4)
        assert counting.calls == 4 * 2 * 10
        assert stats["model_evals"] == 4 * 2 * 10

    def test_unconditional_guidance_is_one_pass(self, sched):
        # without conditions both guidance branches are the same null pass
        counting = StubModel(lambda x_t, t, cond: np.zeros_like(x_t), length=16)
        counting.config = self._model().config
        cfg = SamplerConfig(total_steps=100, sample_steps=10, eta=0.0, guidance_scale=3.0, seed=1)
        _, stats = sample(counting, None, cfg, sched, n=4)
        assert counting.calls == 4 * 10
        assert stats["model_evals"] == 4 * 10

    def test_deterministic_across_runs_and_worker_counts(self, sched):
        model = self._model()
        cfg = SamplerConfig(total_steps=100, sample_steps=5, eta=0.0, guidance_scale=0.0, seed=7)
        a, _ = sample(model, None, cfg, sched, n=24, workers=1, micro_batch=8)
        b, _ = sample(model, None, cfg, sched, n=24, workers=4, micro_batch=8)
        c, _ = sample(model, None, cfg, sched, n=24, workers=1, micro_batch=8)
        assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_eta_nonzero_still_worker_invariant(self, sched):
        model = self._model()
        rng = stream(31)
        cond = ConditionBatch(numeric=rng.standard_normal((12, 4)).astype(np.float32),
                              slot=rng.integers(0, NUM_DEPARTURE_SLOTS, 12),
                              origin=rng.integers(0, NUM_GRID_CELLS, 12),
                              dest=rng.integers(0, NUM_GRID_CELLS, 12),
                              is_null=np.zeros(12, bool))
        cases = [  # (conditions, sampler config, pooled worker count)
            (None, SamplerConfig(total_steps=100, sample_steps=100, eta=1.0,
                                 guidance_scale=0.0, seed=9), 3),
            (cond, SamplerConfig(total_steps=100, sample_steps=10, eta=0.0,
                                 guidance_scale=3.0, seed=9), 2),
        ]
        for c, cfg, workers in cases:
            a, _ = sample(model, c, cfg, sched, n=12, workers=1, micro_batch=4)
            b, _ = sample(model, c, cfg, sched, n=12, workers=workers, micro_batch=4)
            assert a.tobytes() == b.tobytes()

    def test_full_chain_eta1_matches_ddpm_rollout(self, sched):
        # at S = T and eta = 1 the sampler's DDIM loop is the ancestral chain,
        # drawing the same per-trajectory noise in the same order
        model = self._model()
        cfg = SamplerConfig(total_steps=100, sample_steps=100, eta=1.0, guidance_scale=0.0, seed=4)
        out, _ = sample(model, None, cfg, sched, n=3)
        gens = [stream(4, i) for i in range(3)]

        def draw():
            return np.stack([g.standard_normal((2, 16)) for g in gens]).astype(np.float32)

        x = draw()
        for t in range(sched.T, 0, -1):
            x = ancestral_step(model, x, t, None, 0.0, sched, draw() if t > 1 else None)
        np.testing.assert_allclose(out, x, atol=1e-5)

    def test_schedule_mismatch_rejected(self, sched):
        model = self._model()
        cfg = SamplerConfig(total_steps=50, sample_steps=5)
        with pytest.raises(ValueError, match="disagree"):
            sample(model, None, cfg, sched, n=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_infeasible_eta_rejected_before_any_model_pass(self, sched, tmp_path, workers):
        # at S=20 and eta=2 the step from t=10 to t=5 has no real update; the
        # stub marks a file, so a call in a pool worker would show too
        called = tmp_path / "called"

        def marking(x_t, t, cond):
            called.touch()
            return np.zeros_like(x_t)

        model = StubModel(marking, length=16)
        cfg = SamplerConfig(total_steps=100, sample_steps=20, eta=2.0, guidance_scale=0.0)
        with pytest.raises(NumericError, match=r"infeasible \(eta, tau\) combination at t=10"):
            sample(model, None, cfg, sched, n=8, workers=workers, micro_batch=4)
        assert not called.exists()
        assert multiprocessing.active_children() == []

    def test_micro_batch_below_one_rejected(self, sched):
        model = self._model()
        cfg = SamplerConfig(total_steps=100, sample_steps=5)
        with pytest.raises(ValueError, match="micro-batch"):
            sample(model, None, cfg, sched, n=4, micro_batch=0)


class FakeBlas:
    """Stand-in for OpenBLAS's thread-count functions that records every set."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, n):
        self.sets.append(n)
        self.count = n


class TestBlasThreads:
    """Each worker of a pool of two or more runs BLAS at one thread, in its own
    process; the caller's count is never set. One worker leaves BLAS alone."""

    CFG = SamplerConfig(total_steps=100, sample_steps=3, eta=1.0, guidance_scale=0.0, seed=2)

    @pytest.fixture
    def seen(self, monkeypatch):
        """Make each micro-batch's output the BLAS count its worker saw (NaN for
        None): a worker process's own side effects never reach the caller."""
        def observing(model, cond_batch, cfg, sched, lo, hi):
            count = tz.blas_threads()
            return np.full((hi - lo, 2, 16), np.nan if count is None else count, np.float32)

        monkeypatch.setattr(diffusion, "_sample_micro_batch", observing)

        def counts(out, micro_batch=4):
            return [None if np.isnan(v) else int(v) for v in out[::micro_batch, 0, 0]]
        return counts

    @pytest.fixture
    def fake(self, monkeypatch):
        blas = FakeBlas(2)
        monkeypatch.setattr(tz, "_openblas", lambda: (blas.get, blas.set))
        return blas

    @staticmethod
    def _model():
        return StubModel(lambda x_t, t, cond: np.zeros_like(x_t), length=16)

    def test_pool_workers_see_one_thread_caller_untouched(self, sched, seen, fake):
        out, stats = sample(self._model(), None, self.CFG, sched, n=12, workers=2, micro_batch=4)
        assert seen(out) == [1, 1, 1]
        assert fake.sets == []
        assert fake.count == 2
        assert (stats["workers"], stats["blas_threads"]) == (2, 1)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers, micro_batch", [(1, 4), (4, 12)])
    def test_single_worker_never_changes_blas(self, sched, seen, fake, workers, micro_batch):
        # (4, 12): four workers asked for, but one micro-batch makes a pool of one
        out, stats = sample(self._model(), None, self.CFG, sched, n=12, workers=workers,
                            micro_batch=micro_batch)
        assert fake.sets == []
        assert set(seen(out, micro_batch)) == {2}
        assert (stats["workers"], stats["blas_threads"]) == (1, 2)

    def test_worker_error_reaches_caller(self, sched, fake, monkeypatch):
        def failing(*args, **kwargs):
            assert tz.blas_threads() == 1
            raise NumericError("conv1d produced non-finite values")

        monkeypatch.setattr(diffusion, "_sample_micro_batch", failing)
        with pytest.raises(NumericError, match="conv1d produced non-finite values"):
            sample(self._model(), None, self.CFG, sched, n=12, workers=2, micro_batch=4)
        assert fake.count == 2
        assert fake.sets == []
        assert multiprocessing.active_children() == []

    def test_failure_cancels_micro_batches_not_started(self, sched, monkeypatch, tmp_path):
        started = tmp_path / "started"

        def slow_or_failing(model, cond_batch, cfg, sched, lo, hi):
            with open(started, "a", encoding="utf-8") as fh:
                fh.write(f"{lo}\n")
            if lo == 0:
                raise NumericError("micro-batch 0 failed")
            time.sleep(0.2)
            return np.zeros((hi - lo, 2, 16), np.float32)

        monkeypatch.setattr(diffusion, "_sample_micro_batch", slow_or_failing)
        with pytest.raises(NumericError, match="micro-batch 0 failed"):
            sample(self._model(), None, self.CFG, sched, n=40, workers=2, micro_batch=1)
        assert multiprocessing.active_children() == []
        # all 40 would take 4 s of sleeping; only those already handed to a
        # worker when micro-batch 0 failed may run
        assert len(started.read_text().split()) < 20

    def test_no_controllable_blas_changes_nothing(self, sched, seen, monkeypatch):
        monkeypatch.setattr(tz, "_openblas", lambda: None)
        out, stats = sample(self._model(), None, self.CFG, sched, n=12, workers=2, micro_batch=4)
        assert seen(out) == [None, None, None]
        assert (stats["workers"], stats["blas_threads"]) == (2, None)

    def test_loaded_openblas(self, sched, seen):
        if tz.blas_threads() is None:
            pytest.skip("no controllable OpenBLAS in this process")
        caller = tz.blas_threads()
        out, _ = sample(self._model(), None, self.CFG, sched, n=12, workers=2, micro_batch=4)
        assert seen(out) == [1, 1, 1]
        assert tz.blas_threads() == caller


class TestAdam:
    def test_quadratic_convergence(self):
        w = Tensor(np.array([5.0, -3.0], np.float32), requires_grad=True)
        opt = Adam({"w": w}, lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            tz.reset_tape()
            loss = tz.sum_all(tz.mul(w, w))
            tz.backward(loss)
            opt.step()
        assert np.abs(w.data).max() < 1e-2

    def test_untouched_params_stay_put(self):
        w = Tensor(np.array([1.0], np.float32), requires_grad=True)
        frozen = Tensor(np.array([2.0], np.float32), requires_grad=True)
        opt = Adam({"w": w, "frozen": frozen}, lr=0.1)
        opt.zero_grad()
        tz.reset_tape()
        tz.backward(tz.sum_all(tz.mul(w, w)))
        opt.step()
        assert frozen.data[0] == 2.0
        assert w.data[0] != 1.0
