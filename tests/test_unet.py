import contextlib
import math

import numpy as np
import pytest

from conftest import numeric_grad
from trajdiff import tensor as tz
from trajdiff import unet
from trajdiff.errors import NumericError
from trajdiff.rng import stream
from trajdiff.tensor import Tensor
from trajdiff.trajdata import ConditionBatch, ConditionVector
from trajdiff.unet import (TrajUNet, TrajUNetConfig, attention, attention_weights,
                           resnet_block, sinusoidal_time_embedding, time_mlp, wide_deep_embed)

# groups=2 keeps multiple channels per normalization group, so the
# embedding injection is not cancelled by the following group norm
TINY = TrajUNetConfig(length=16, base_channels=4, channel_multipliers=(1, 2),
                      resnet_blocks_per_level=1, groups=2)


def null_batch(n: int) -> ConditionBatch:
    """n conditions that are all null, as training's dropout marks them."""
    return ConditionBatch.from_vectors([ConditionVector(is_null=True)] * n)


def dense_model(config: TrajUNetConfig, seed: int) -> TrajUNet:
    """A model with every parameter drawn from N(0, 0.2^2): none is
    zero-initialized, so the output depends on every path, the condition
    encoder's included."""
    n = sum(math.prod(shape) for _, shape, _ in unet.param_specs(config))
    return TrajUNet(config, flat=stream(seed).normal(0.0, 0.2, size=n).astype(np.float32))


class TestSinusoidalEmbedding:
    def test_t0_halves(self):
        e = sinusoidal_time_embedding(np.array([0]), 128)[0]
        assert np.all(e[:64] == 0.0)
        assert np.all(e[64:] == 1.0)

    def test_adjacent_steps_differ(self):
        e1, e2 = sinusoidal_time_embedding(np.array([1, 2]), 128)
        assert np.linalg.norm(e1 - e2) > 0

    def test_pairwise_distinct_over_500_steps(self):
        # exhaustive scan: no two step embeddings closer than 1e-6
        emb = sinusoidal_time_embedding(np.arange(1, 501), 128)
        min_gap = np.inf
        for i in range(500):
            d = np.linalg.norm(emb[i + 1:] - emb[i], axis=1)
            if d.size:
                min_gap = min(min_gap, d.min())
        assert min_gap > 1e-6

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            sinusoidal_time_embedding(np.array([1]), 127)

    def test_batch_matches_scalar(self):
        # each row is the encoding of its step alone
        batch = sinusoidal_time_embedding(np.array([3, 9]), 64)
        np.testing.assert_array_equal(batch[0], sinusoidal_time_embedding(np.array([3]), 64)[0])
        np.testing.assert_array_equal(batch[1], sinusoidal_time_embedding(np.array([9]), 64)[0])


class TestTimeMlp:
    def test_zero_weights_zero_output(self):
        params = {
            "time_mlp.fc1.W": Tensor(np.zeros((128, 128), np.float32)),
            "time_mlp.fc1.b": Tensor(np.zeros(128, np.float32)),
            "time_mlp.fc2.W": Tensor(np.zeros((128, 128), np.float32)),
            "time_mlp.fc2.b": Tensor(np.zeros(128, np.float32)),
        }
        out = time_mlp(Tensor(sinusoidal_time_embedding(np.array([5]), 128)), params)
        assert out.shape == (1, 128)
        assert np.all(out.data == 0)

    def test_gradcheck(self):
        rng = stream(2)
        params = TrajUNet(TINY, rng=rng).params
        emb = Tensor(sinusoidal_time_embedding(np.array([3, 40]), 128))
        proj = Tensor(rng.normal(size=(2, 128)).astype(np.float32))

        def make_loss():
            return tz.sum_all(tz.mul(time_mlp(emb, params), proj))

        tz.reset_tape()
        tz.backward(make_loss())
        for name in ("time_mlp.fc1.W", "time_mlp.fc2.b"):
            t = params[name]
            num = numeric_grad(make_loss, t)
            scale = max(np.abs(num).max(), 1e-6)
            assert np.abs(t.grad - num).max() / scale < 1e-3
            t.grad = None


class TestWideDeepEmbed:
    def test_null_condition_embeds_to_exact_zero(self):
        params = TrajUNet(TINY, rng=stream(3)).params
        out1 = wide_deep_embed(null_batch(4), params)
        out2 = wide_deep_embed(null_batch(4), params)
        assert np.all(out1.data == 0)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_departure_slot_changes_embedding(self):
        params = TrajUNet(TINY, rng=stream(4)).params
        a = ConditionVector(numeric=np.ones(4), departure_slot=10, origin_cell=5, dest_cell=9)
        b = ConditionVector(numeric=np.ones(4), departure_slot=11, origin_cell=5, dest_cell=9)
        out = wide_deep_embed(ConditionBatch.from_vectors([a, b]), params)
        assert np.abs(out.data[0] - out.data[1]).max() > 0

    def test_wide_path_is_plain_affine_map(self):
        # silence the deep path, then the output is numeric @ W + b
        params = TrajUNet(TINY, rng=stream(5)).params
        params["cond.deep.fc2.W"] = Tensor(np.zeros((128, 128), np.float32))
        params["cond.deep.fc2.b"] = Tensor(np.zeros(128, np.float32))
        numeric = np.array([[0.5, -1.0, 0.0, 2.0], [1.5, 0.25, -0.75, 0.0]], np.float32)
        cond = ConditionBatch(numeric=numeric, slot=np.zeros(2, int), origin=np.zeros(2, int),
                              dest=np.zeros(2, int), is_null=np.zeros(2, bool))
        out = wide_deep_embed(cond, params)
        expect = numeric @ params["cond.wide.W"].data + params["cond.wide.b"].data
        np.testing.assert_allclose(out.data, expect, atol=1e-6)

    def test_invalid_slot_rejected(self):
        with pytest.raises(ValueError, match="slot"):
            ConditionVector(departure_slot=288)


class TestResnetBlock:
    def test_all_zero_params_identity(self):
        c = 4
        params = {
            "blk.gn1.gamma": Tensor(np.zeros(c, np.float32)),
            "blk.gn1.beta": Tensor(np.zeros(c, np.float32)),
            "blk.conv1.w": Tensor(np.zeros((c, c, 3), np.float32)),
            "blk.conv1.b": Tensor(np.zeros(c, np.float32)),
            "blk.emb.W": Tensor(np.zeros((128, c), np.float32)),
            "blk.emb.b": Tensor(np.zeros(c, np.float32)),
            "blk.gn2.gamma": Tensor(np.zeros(c, np.float32)),
            "blk.gn2.beta": Tensor(np.zeros(c, np.float32)),
            "blk.conv2.w": Tensor(np.zeros((c, c, 3), np.float32)),
            "blk.conv2.b": Tensor(np.zeros(c, np.float32)),
        }
        x = np.random.default_rng(0).normal(size=(2, c, 8)).astype(np.float32)
        emb = Tensor(np.random.default_rng(1).normal(size=(2, 128)).astype(np.float32))
        out = resnet_block(Tensor(x.transpose(0, 2, 1)), emb, params, "blk", groups=4)
        np.testing.assert_array_equal(out.data.transpose(0, 2, 1), x)

    def test_length_preserved_and_channels_change(self):
        params = TrajUNet(TINY, rng=stream(6)).params
        x = np.random.default_rng(2).normal(size=(2, 4, 16)).astype(np.float32)
        emb = Tensor(np.zeros((2, 128), np.float32))
        out = resnet_block(Tensor(x.transpose(0, 2, 1)), emb, params, "down1.block0", groups=8)
        assert out.shape == (2, 16, 8)

    def test_gradcheck_through_block(self):
        params = TrajUNet(TINY, rng=stream(7)).params
        rng = np.random.default_rng(3)
        # contiguous, so numeric_grad perturbs the tensor's own storage
        x = Tensor(np.ascontiguousarray(rng.normal(size=(1, 4, 8)).astype(np.float32).transpose(0, 2, 1)),
                   requires_grad=True)
        emb = Tensor(rng.normal(size=(1, 128)).astype(np.float32), requires_grad=True)
        proj = Tensor(rng.normal(size=(1, 4, 8)).astype(np.float32).transpose(0, 2, 1))

        def make_loss():
            return tz.sum_all(tz.mul(resnet_block(x, emb, params, "down0.block0", groups=2), proj))

        tz.reset_tape()
        tz.backward(make_loss())
        # h sits above the float32 roundoff floor of the 12-op graph
        for t in (x, emb, params["down0.block0.conv1.w"], params["down0.block0.gn1.gamma"]):
            num = numeric_grad(make_loss, t, h=1e-2)
            scale = max(np.abs(num).max(), 1e-6)
            assert np.abs(t.grad - num).max() / scale < 1e-3, "resnet block gradient mismatch"
            t.grad = None


def attention_oracle(x, wq, wk, wv):
    """O(L^2) reference attention with residual add."""
    B, C, L = x.shape
    out = np.zeros_like(x, dtype=np.float64)
    for b in range(B):
        q = wq[:, :, 0] @ x[b]
        k = wk[:, :, 0] @ x[b]
        v = wv[:, :, 0] @ x[b]
        for i in range(L):
            scores = np.array([q[:, i] @ k[:, j] for j in range(L)]) / np.sqrt(C)
            w = np.exp(scores - scores.max())
            w /= w.sum()
            out[b, :, i] = x[b, :, i] + sum(w[j] * v[:, j] for j in range(L))
    return out


class TestAttention:
    def test_zero_value_projection_passes_input(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 3, 6)).astype(np.float32).transpose(0, 2, 1))
        wq = Tensor(rng.normal(size=(3, 3, 1)).astype(np.float32))
        wk = Tensor(rng.normal(size=(3, 3, 1)).astype(np.float32))
        wv = Tensor(np.zeros((3, 3, 1), np.float32))
        out = attention(x, wq, wk, wv)
        np.testing.assert_array_equal(out.data, x.data)

    def test_weights_are_row_stochastic(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 4, 8)).astype(np.float32).transpose(0, 2, 1))
        wq = Tensor(rng.normal(size=(4, 4, 1)).astype(np.float32))
        wk = Tensor(rng.normal(size=(4, 4, 1)).astype(np.float32))
        w = attention_weights(x, wq, wk).data
        assert w.shape == (2, 8, 8)
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 2, 4)).astype(np.float32)
        wq = rng.normal(size=(2, 2, 1)).astype(np.float32)
        wk = rng.normal(size=(2, 2, 1)).astype(np.float32)
        wv = rng.normal(size=(2, 2, 1)).astype(np.float32)
        got = attention(Tensor(x.transpose(0, 2, 1)), Tensor(wq), Tensor(wk), Tensor(wv)).data
        got = got.transpose(0, 2, 1)
        expect = attention_oracle(x, wq, wk, wv)
        assert np.abs(got - expect).max() < 1e-5


class TestFlatStore:
    @pytest.mark.parametrize("make", [
        lambda n: np.zeros(n - 1, np.float32),
        lambda n: np.zeros(n + 1, np.float32),
        lambda n: np.zeros(n, np.float64),
        lambda n: np.zeros((1, n), np.float32),
    ], ids=["short", "long", "float64", "2-D"])
    def test_wrong_flat_is_a_value_error(self, make):
        n = TrajUNet(TINY, rng=stream(1)).flat.size
        with pytest.raises(ValueError, match="flat parameters must be float32"):
            TrajUNet(TINY, flat=make(n))

    def test_needs_flat_or_rng(self):
        with pytest.raises(ValueError, match="need either"):
            TrajUNet(TINY)

    def test_flat_is_wrapped_not_copied(self):
        flat = dense_model(TINY, 2).flat
        model = TrajUNet(TINY, flat=flat)
        assert model.flat is flat
        assert all(np.shares_memory(p.data, flat) for p in model.params.values())


class TestForward:
    def test_output_shape_matches_input(self):
        cfg = TrajUNetConfig(length=64, base_channels=8)
        model = TrajUNet(cfg, rng=stream(8))
        x = np.random.default_rng(7).normal(size=(2, 2, 64)).astype(np.float32)
        out = model(x, np.array([5, 90]), None)
        assert out.shape == (2, 2, 64)

    def test_batch_permutation_equivariance(self):
        model = dense_model(TINY, 9)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 2, 16)).astype(np.float32)
        t = np.array([1, 20, 40, 60])
        conds = [ConditionVector(numeric=rng.normal(size=4).astype(np.float32),
                                 departure_slot=i * 3, origin_cell=i, dest_cell=255 - i)
                 for i in range(4)]
        cond = ConditionBatch.from_vectors(conds)
        perm = np.array([2, 0, 3, 1])
        with tz.no_grad():
            out = model(x, t, cond).data
            out_p = model(x[perm], t[perm], cond.take(perm)).data
        assert np.abs(out).min() > 0  # every output element is live
        np.testing.assert_array_equal(out_p, out[perm])

    def test_null_condition_matches_none(self):
        model = dense_model(TINY, 10)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 2, 16)).astype(np.float32)
        t = np.array([2, 9, 15])
        # a batch flagged null but carrying junk attribute values
        junk = ConditionBatch(numeric=rng.normal(size=(3, 4)).astype(np.float32),
                              slot=np.array([7, 8, 9]), origin=np.array([1, 2, 3]),
                              dest=np.array([4, 5, 6]), is_null=np.ones(3, bool))
        with tz.no_grad():
            np.testing.assert_array_equal(model(x, t, junk).data, model(x, t, None).data)

    @pytest.mark.parametrize("config", [TINY, TrajUNetConfig()], ids=["tiny", "desk"])
    def test_no_condition_is_bitwise_an_all_null_batch(self, config):
        # an all-null batch embeds to exact zero, so adding nothing is the same model
        model = dense_model(config, 20)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, 2, config.length)).astype(np.float32)
        t = np.array([1, 50, 100])
        cond = ConditionBatch.from_vectors(
            [ConditionVector(numeric=rng.normal(size=4), departure_slot=5 * i, origin_cell=i,
                             dest_cell=40 + i) for i in range(3)])
        with tz.no_grad():
            out_none = model(x, t, None).data
            np.testing.assert_array_equal(out_none, model(x, t, null_batch(3)).data)
            # the condition path does reach the output of this model
            assert np.abs(out_none - model(x, t, cond).data).max() > 0

    def test_no_condition_skips_the_encoder(self, monkeypatch):
        calls = []

        def counting(cond, params):
            calls.append(len(cond))
            return wide_deep_embed(cond, params)

        monkeypatch.setattr(unet, "wide_deep_embed", counting)
        model = TrajUNet(TINY, rng=stream(22))
        x = np.zeros((2, 2, 16), np.float32)
        t = np.array([1, 2])
        model(x, t, None)
        assert calls == []
        model(x, t, null_batch(2))
        assert calls == [2]

    def test_no_grad_pass_checks_its_output_once(self, monkeypatch):
        # each op's finite check is deferred, in grad mode as under no_grad;
        # the two ops that can hide a non-finite input check it, and the
        # output is checked once
        calls = []
        finite = tz._finite

        def counting(arr, op):
            calls.append(op)
            return finite(arr, op)

        monkeypatch.setattr(tz, "_finite", counting)
        model = dense_model(TINY, 12)
        x = np.random.default_rng(12).normal(size=(2, 2, 16)).astype(np.float32)
        for grad_mode in (False, True):
            calls.clear()
            with contextlib.nullcontext() if grad_mode else tz.no_grad():
                out = model(x, np.array([3, 70]), null_batch(2))
            assert out.requires_grad == grad_mode
            assert calls == ["maxpool1d_k2 input", "softmax_lastdim input", "model output"]
        tz.reset_tape()

    def test_failed_grad_mode_pass_leaves_no_trace_after_reset(self):
        # a caught failure leaves the failed pass's records on the tape;
        # once reset_tape drops them, a clean pass gives a fresh model's
        # gradients, byte for byte
        x = np.random.default_rng(14).normal(size=(2, 2, 16)).astype(np.float32)
        t, proj = np.array([3, 70]), Tensor(np.random.default_rng(15).normal(
            size=(2, 2, 16)).astype(np.float32))

        def grads(model):
            tz.reset_tape()
            tz.backward(tz.sum_all(tz.mul(model(x, t, null_batch(2)), proj)))
            return {name: p.grad.tobytes() for name, p in model.params.items()}

        model = dense_model(TINY, 14)
        w = model.params["stem.w"].data
        kept, w.flat[0] = w.flat[0], np.nan
        with pytest.raises(NumericError, match="^conv1d produced non-finite values$"):
            model(x, t, null_batch(2))
        assert tz._tape  # the failed pass's records, until the reset
        w.flat[0] = kept
        assert grads(model) == grads(dense_model(TINY, 14))

    @pytest.mark.parametrize("name, value, op", [("stem.w", np.nan, "conv1d"),
                                                 ("time_mlp.fc1.b", np.inf, "linear"),
                                                 ("mid.res1.conv2.b", np.inf, "conv1d")])
    def test_no_grad_failure_names_the_grad_mode_op(self, name, value, op):
        model = dense_model(TINY, 13)
        model.params[name].data.flat[0] = value
        x = np.random.default_rng(13).normal(size=(2, 2, 16)).astype(np.float32)
        for grad_mode in (True, False):
            with pytest.raises(NumericError, match=f"^{op} produced non-finite values$"):
                if grad_mode:
                    model(x, np.array([3, 70]), None)
                else:
                    with tz.no_grad():
                        model(x, np.array([3, 70]), None)
            tz.reset_tape()

    def test_wrong_length_rejected(self):
        model = TrajUNet(TINY, rng=stream(11))
        with pytest.raises(ValueError, match="expected input"):
            model(np.zeros((1, 2, 24), np.float32), np.array([1]), None)

    def test_condition_count_mismatch_rejected(self):
        model = TrajUNet(TINY, rng=stream(12))
        with pytest.raises(ValueError, match="mismatch"):
            model(np.zeros((2, 2, 16), np.float32), np.array([1, 2]), null_batch(3))

    def test_indivisible_length_config_rejected(self):
        with pytest.raises(ValueError, match="length"):
            TrajUNetConfig(length=20, channel_multipliers=(1, 2, 2, 4))

    @pytest.mark.parametrize("length", [unet.MAX_LENGTH + 8, 2**40])
    def test_length_above_cap_rejected(self, length):
        with pytest.raises(ValueError, match="exceeds the cap"):
            TrajUNetConfig(length=length)

    @pytest.mark.parametrize("base", [unet.MAX_BASE_CHANNELS + 1, 10**12])
    def test_base_channels_above_cap_rejected(self, base):
        with pytest.raises(ValueError, match=f"base_channels {base} exceeds the cap"):
            TrajUNetConfig(base_channels=base)

    def test_full_model_gradcheck_subsampled(self):
        model = TrajUNet(TINY, rng=stream(13))
        rng = np.random.default_rng(10)
        # several convs ship zero-initialized; randomize them so gradients
        # reach every parameter
        for name, p in model.params.items():
            if name.endswith(".w") and not p.data.any():
                model.params[name] = Tensor(
                    rng.normal(0, 0.2, size=p.data.shape).astype(np.float32), requires_grad=True)
        x = rng.normal(size=(1, 2, 16)).astype(np.float32)
        t = np.array([7])
        cond = ConditionBatch.from_vectors([
            ConditionVector(numeric=rng.normal(size=4).astype(np.float32),
                            departure_slot=42, origin_cell=17, dest_cell=200)])
        proj = Tensor(rng.normal(size=(1, 2, 16)).astype(np.float32))

        def make_loss():
            return tz.sum_all(tz.mul(model(x, t, cond), proj))

        tz.reset_tape()
        tz.backward(make_loss())
        h = 1e-2  # above the float32 roundoff floor of the full graph
        pairs = []
        for name, p in model.params.items():
            if p.grad is None:
                continue
            flat = p.data.reshape(-1)
            gflat = p.grad.reshape(-1)
            idx = rng.choice(flat.size, size=min(2, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                with tz.no_grad():
                    flat[i] = orig + h
                    lp = make_loss().item()
                    flat[i] = orig - h
                    lm = make_loss().item()
                flat[i] = orig
                pairs.append((float(gflat[i]), (lp - lm) / (2 * h)))
        assert len(pairs) > 50
        ana = np.array([a for a, _ in pairs])
        num = np.array([n for _, n in pairs])
        rel = np.abs(ana - num).max() / max(np.abs(num).max(), 1e-6)
        assert rel < 5e-3, f"full-model gradient field mismatch: rel {rel:.2e}"


# ---------------------------------------------------------------------------
# channels-last model against a [B, C, L] reference built from public ops
# ---------------------------------------------------------------------------

def reference_forward(model: TrajUNet, x_t: np.ndarray, t: np.ndarray, cond) -> Tensor:
    """TrajUNet.forward written in [B, C, L] with the layout-preserving public
    ops (conv1d, group_norm then silu, maxpool1d_k2, ...), as the model ran
    before it went channels-last."""
    cfg, p = model.config, model.params
    emb = tz.add(time_mlp(Tensor(sinusoidal_time_embedding(t, cfg.time_embed_dim)), p),
                 wide_deep_embed(cond, p))

    def gn_silu(h, prefix):
        groups = math.gcd(cfg.groups, h.shape[1])
        return tz.silu(tz.group_norm(h, groups, p[f"{prefix}.gamma"], p[f"{prefix}.beta"]))

    def block(h, prefix):
        c_out = p[f"{prefix}.conv1.w"].shape[0]
        r = tz.conv1d(gn_silu(h, f"{prefix}.gn1"), p[f"{prefix}.conv1.w"], p[f"{prefix}.conv1.b"])
        inj = tz.linear(emb, p[f"{prefix}.emb.W"], p[f"{prefix}.emb.b"])
        r = tz.add(r, tz.reshape(inj, (inj.shape[0], c_out, 1)))
        r = tz.conv1d(gn_silu(r, f"{prefix}.gn2"), p[f"{prefix}.conv2.w"], p[f"{prefix}.conv2.b"])
        if h.shape[1] != c_out:
            h = tz.conv1d(h, p[f"{prefix}.skip.w"], p[f"{prefix}.skip.b"])
        return tz.add(r, h)

    def attn(h, prefix):
        q, k, v = (tz.conv1d(h, p[f"{prefix}.w{n}"]) for n in "qkv")
        scores = tz.mul(tz.bmm(tz.transpose_last2(q), k), 1.0 / math.sqrt(h.shape[1]))
        return tz.add(h, tz.bmm(v, tz.transpose_last2(tz.softmax_lastdim(scores))))

    h = tz.conv1d(Tensor(x_t), p["stem.w"], p["stem.b"])
    skips = []
    for i in range(cfg.levels):
        for j in range(cfg.resnet_blocks_per_level):
            h = block(h, f"down{i}.block{j}")
        skips.append(h)
        if i < cfg.levels - 1:
            h = tz.maxpool1d_k2(h)
    h = block(h, "mid.res1")
    h = attn(h, "mid.attn")
    h = block(h, "mid.res2")
    for i in reversed(range(cfg.levels)):
        h = tz.concat_channels([h, skips[i]])
        for j in range(cfg.resnet_blocks_per_level):
            h = block(h, f"up{i}.block{j}")
        if i > 0:
            h = tz.upsample_nearest_2x(h)
    return tz.conv1d(gn_silu(h, "out.gn"), p["out.conv.w"], p["out.conv.b"])


# float32 roundoff through the full graph: the fused GroupNorm-SiLU and the
# channels-last GEMMs sum in another order than the reference
EQUIVALENCE_REL_TOL = 1e-4


@pytest.mark.parametrize("cfg,batch", [(TINY, 3), (TrajUNetConfig(length=64, base_channels=16), 4)],
                         ids=["tiny", "desk"])
def test_channels_last_model_matches_reference(cfg, batch):
    rng = np.random.default_rng(11)
    model = TrajUNet(cfg, rng=stream(14))
    # randomize the zero-initialized convs so every parameter gets a gradient
    for name, p in model.params.items():
        if name.endswith(".w") and not p.data.any():
            model.params[name] = Tensor(rng.normal(0, 0.2, size=p.data.shape).astype(np.float32),
                                        requires_grad=True)
    x = rng.normal(size=(batch, 2, cfg.length)).astype(np.float32)
    t = rng.integers(1, 100, size=batch)
    cond = ConditionBatch.from_vectors([
        ConditionVector(numeric=rng.normal(size=4).astype(np.float32), departure_slot=5 * i,
                        origin_cell=i, dest_cell=200 - i) for i in range(batch)])
    proj = Tensor(rng.normal(size=x.shape).astype(np.float32))

    def run(forward):
        for p in model.params.values():
            p.grad = None
        tz.reset_tape()
        out = forward(model, x, t, cond)
        tz.backward(tz.sum_all(tz.mul(out, proj)))
        return out.data, {k: p.grad for k, p in model.params.items()}

    out, grads = run(TrajUNet.forward)
    ref_out, ref_grads = run(reference_forward)
    assert out.shape == ref_out.shape == x.shape

    def rel(a, b):
        return float(np.abs(a - b).max()) / max(float(np.abs(b).max()), 1e-6)

    assert rel(out, ref_out) < EQUIVALENCE_REL_TOL
    assert all(g is not None for g in ref_grads.values())
    worst = max((rel(grads[k], ref_grads[k]), k) for k in ref_grads)
    assert worst[0] < EQUIVALENCE_REL_TOL, f"gradient of {worst[1]} differs by {worst[0]:.2e}"
