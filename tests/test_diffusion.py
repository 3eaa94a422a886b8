import numpy as np
import pytest

from trajdiff import tensor as tz
from trajdiff.diffusion import (CLIP_X0, Adam, SamplerConfig, TrainConfig, ddim_step,
                                ddim_transition, ddpm_step, guided_eps, sample,
                                skip_subsequence, train, training_loss)
from trajdiff.errors import NumericError
from trajdiff.rng import stream
from trajdiff.schedule import linear_beta_schedule, mu_from_eps, q_sample
from trajdiff.tensor import Tensor
from trajdiff.trajdata import ConditionBatch
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

    def test_divergence_aborts(self, sched):
        huge = StubModel(lambda x_t, t, cond: np.full_like(x_t, 2e20), length=16)
        x0 = np.zeros((4, 2, 16), np.float32)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            train(huge, x0, None, TrainConfig(steps=1, batch_size=4, seed=0), sched)


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
        cond = ConditionBatch.null(3)
        cond.is_null[:] = False
        out = guided_eps(model, x, np.ones(3, int), cond, 0.0)
        np.testing.assert_array_equal(out, np.ones_like(x))
        assert model.calls == 3  # single pass

    def test_equal_branches_collapse(self):
        model = StubModel(lambda x_t, t, cond: np.full_like(x_t, 1.5))
        x = np.zeros((2, 2, 8), np.float32)
        for omega in (0.0, 1.0, 3.0, 10.0):
            out = guided_eps(model, x, np.ones(2, int), ConditionBatch.null(2), omega)
            np.testing.assert_allclose(out, 1.5, atol=1e-6)

    def test_affine_in_omega(self):
        model = self._cond_model()
        x = np.zeros((2, 2, 8), np.float32)
        cond = ConditionBatch.null(2)
        cond.is_null[:] = False
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
            x_a = ddpm_step(model, x_a, t, None, 0.0, sched, zs[sched.T - t])
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
        cfg = SamplerConfig(total_steps=100, sample_steps=10, eta=0.0, guidance_scale=3.0, seed=1)
        _, stats = sample(counting, None, cfg, sched, n=4)
        assert counting.calls == 4 * 2 * 10
        assert stats["model_evals"] == 4 * 2 * 10

    def test_deterministic_across_runs_and_worker_counts(self, sched):
        model = self._model()
        cfg = SamplerConfig(total_steps=100, sample_steps=5, eta=0.0, guidance_scale=0.0, seed=7)
        a, _ = sample(model, None, cfg, sched, n=24, workers=1, micro_batch=8)
        b, _ = sample(model, None, cfg, sched, n=24, workers=4, micro_batch=8)
        c, _ = sample(model, None, cfg, sched, n=24, workers=1, micro_batch=8)
        assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_eta_nonzero_still_worker_invariant(self, sched):
        model = self._model()
        cfg = SamplerConfig(total_steps=100, sample_steps=100, eta=1.0, guidance_scale=0.0, seed=9)
        a, _ = sample(model, None, cfg, sched, n=12, workers=1, micro_batch=4)
        b, _ = sample(model, None, cfg, sched, n=12, workers=3, micro_batch=4)
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
            x = ddpm_step(model, x, t, None, 0.0, sched, draw() if t > 1 else None, clip_x0=CLIP_X0)
        np.testing.assert_allclose(out, x, atol=1e-5)

    def test_schedule_mismatch_rejected(self, sched):
        model = self._model()
        cfg = SamplerConfig(total_steps=50, sample_steps=5)
        with pytest.raises(ValueError, match="disagree"):
            sample(model, None, cfg, sched, n=1)


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
