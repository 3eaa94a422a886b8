import resource
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import assert_grads_match, numeric_grad
from trajdiff import diffusion, schedule, unet
from trajdiff import tensor as tz
from trajdiff.errors import NumericError
from trajdiff.rng import stream
from trajdiff.tensor import Tensor


def rand(shape, seed=0, scale=1.0):
    return (np.random.default_rng(seed).normal(size=shape) * scale).astype(np.float32)


def conv1d_oracle(x, w, b):
    """Direct sliding-window summation, zero padding, stride 1."""
    B, Cin, L = x.shape
    Cout, _, K = w.shape
    pad = K // 2
    y = np.zeros((B, Cout, L), dtype=np.float64)
    for bi in range(B):
        for o in range(Cout):
            for l in range(L):
                acc = 0.0
                for c in range(Cin):
                    for k in range(K):
                        src = l + k - pad
                        if 0 <= src < L:
                            acc += float(w[o, c, k]) * float(x[bi, c, src])
                y[bi, o, l] = acc + float(b[o])
    return y


class TestConv1d:
    def test_zero_kernel_annihilates(self):
        x = Tensor(rand((2, 3, 8)))
        w = Tensor(np.zeros((4, 3, 3), np.float32))
        b = Tensor(np.zeros(4, np.float32))
        assert np.all(tz.conv1d(x, w, b).data == 0)

    def test_delta_kernel_is_identity(self):
        x = Tensor(rand((1, 1, 9)))
        w = Tensor(np.array([[[0.0, 1.0, 0.0]]], np.float32))
        y = tz.conv1d(x, w, Tensor(np.zeros(1, np.float32)))
        np.testing.assert_array_equal(y.data, x.data)

    @pytest.mark.parametrize("shape,cout,k", [((1, 2, 8), 3, 3), ((2, 4, 6), 2, 3), ((2, 3, 5), 4, 1)])
    def test_matches_sliding_window_oracle(self, shape, cout, k):
        x = rand(shape, seed=1)
        w = rand((cout, shape[1], k), seed=2)
        b = rand((cout,), seed=3)
        y = tz.conv1d(Tensor(x), Tensor(w), Tensor(b))
        expect = conv1d_oracle(x, w, b)
        err = np.abs(y.data - expect).max() / max(1.0, np.abs(expect).max())
        assert err < 1e-6

    @pytest.mark.parametrize("shape,k", [((2, 3, 8), 3), ((1, 2, 5), 1), ((2, 2, 2), 7), ((1, 1, 1), 3)])
    def test_window_matrix_matches_padded_sliding_view(self, shape, k):
        # the padded sliding-window matrix times the flattened kernel is the
        # convolution the shifted GEMMs must reproduce, kernels wider than the
        # input included
        x = rand(shape, seed=4)
        B, C, L = shape
        w = rand((3, C, k), seed=5)
        xp = np.pad(x, ((0, 0), (0, 0), (k // 2, k // 2)))
        win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)
        cols = win.transpose(0, 2, 1, 3).reshape(B * L, C * k).astype(np.float64)
        expect = (cols @ w.reshape(3, C * k).T.astype(np.float64)).reshape(B, L, 3)
        got = tz.conv1d_cl(Tensor(x.transpose(0, 2, 1)), Tensor(w)).data
        assert got.flags["C_CONTIGUOUS"] and got.shape == (B, L, 3)
        assert np.abs(got - expect).max() <= 1e-6 * max(1.0, np.abs(expect).max())

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("shape", [(2, 3, 8), (3, 2, 4), (2, 2, 2), (1, 3, 1)])
    def test_channels_last_matches_sliding_window_oracle(self, shape, k):
        # (2, 2) and (1) lengths put kernel taps entirely outside the input
        x = rand(shape, seed=6)
        w = rand((4, shape[1], k), seed=7)
        b = rand((4,), seed=8)
        y = tz.conv1d_cl(Tensor(x.transpose(0, 2, 1)), Tensor(w), Tensor(b)).data
        expect = conv1d_oracle(x, w, b).transpose(0, 2, 1)
        err = np.abs(y - expect).max() / max(1.0, np.abs(expect).max())
        assert err < 1e-6

    def test_output_length_preserved(self):
        y = tz.conv1d(Tensor(rand((2, 3, 16))), Tensor(rand((5, 3, 3))))
        assert y.shape == (2, 5, 16)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            tz.conv1d(Tensor(rand((1, 2, 8))), Tensor(rand((3, 4, 3))))

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="zero-length"):
            tz.conv1d(Tensor(np.zeros((1, 2, 0), np.float32)), Tensor(rand((3, 2, 3))))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            tz.conv1d(Tensor(rand((1, 2, 8))), Tensor(rand((3, 2, 2))))

    def test_row_bias_adds_per_batch_element(self):
        x, w, b = rand((3, 8, 2), seed=40), rand((4, 2, 3), seed=41), rand((3, 4), seed=42)
        y = tz.conv1d_cl(Tensor(x), Tensor(w), Tensor(b)).data
        plain = tz.conv1d_cl(Tensor(x), Tensor(w)).data
        np.testing.assert_array_equal(y, plain + b[:, None, :])

    def test_row_bias_batch_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bias must have shape"):
            tz.conv1d_cl(Tensor(rand((3, 8, 2))), Tensor(rand((4, 2, 3))), Tensor(rand((4, 4))))


class TestGroupNorm:
    def test_constant_input_maps_to_zero(self):
        x = Tensor(np.full((2, 4, 6), 3.7, np.float32))
        y = tz.group_norm(x, 2, Tensor(np.ones(4, np.float32)), Tensor(np.zeros(4, np.float32)))
        assert np.abs(y.data).max() < 1e-4

    def test_zero_gamma_gives_beta(self):
        x = Tensor(rand((2, 4, 6)))
        y = tz.group_norm(x, 2, Tensor(np.zeros(4, np.float32)), Tensor(np.full(4, 2.5, np.float32)))
        np.testing.assert_allclose(y.data, 2.5, rtol=0, atol=1e-7)

    def test_per_group_statistics(self):
        # direct statistics oracle over each (batch, group) slice
        x = rand((2, 8, 16), seed=5)
        y = tz.group_norm(Tensor(x), 4, Tensor(np.ones(8, np.float32)), Tensor(np.zeros(8, np.float32))).data
        yg = y.reshape(2, 4, 2 * 16)
        means = yg.mean(axis=2, dtype=np.float64)
        vars_ = yg.var(axis=2, dtype=np.float64)
        assert np.abs(means).max() < 1e-5
        assert np.abs(vars_ - 1.0).max() < 1e-4

    def test_indivisible_groups_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            tz.group_norm(Tensor(rand((1, 6, 4))), 4, Tensor(np.ones(6, np.float32)), Tensor(np.zeros(6, np.float32)))


def group_norm_silu_oracle(x, groups, gamma, beta, eps=1e-5):
    """float64 silu(group_norm(x)) of a [B, C, L] array, group by group."""
    B, C, L = x.shape
    xg = x.astype(np.float64).reshape(B, groups, -1)
    xhat = ((xg - xg.mean(axis=2, keepdims=True))
            / np.sqrt(xg.var(axis=2, keepdims=True) + eps)).reshape(B, C, L)
    z = xhat * gamma[None, :, None] + beta[None, :, None]
    return z / (1.0 + np.exp(-z))


class TestGroupNormSilu:
    @pytest.mark.parametrize("shape,groups", [((2, 8, 16), 4), ((3, 6, 5), 3), ((1, 4, 1), 2)])
    def test_matches_silu_of_group_norm(self, shape, groups):
        C = shape[1]
        x = rand(shape, seed=30, scale=3.0) + 2.0
        gamma, beta = rand((C,), seed=31) + 1.0, rand((C,), seed=32)
        g, b = Tensor(gamma), Tensor(beta)
        fused = tz.group_norm_silu_cl(Tensor(x.transpose(0, 2, 1)), groups, g, b).data.transpose(0, 2, 1)
        chained = tz.silu(tz.group_norm(Tensor(x), groups, g, b)).data
        expect = group_norm_silu_oracle(x, groups, gamma, beta)
        # float32 roundoff of O(1) activations
        tol = 4e-6 * max(1.0, np.abs(expect).max())
        assert np.abs(fused - expect).max() < tol
        assert np.abs(fused - chained).max() < tol

    @pytest.mark.parametrize("shape,groups,offset,spread", [
        ((2, 8, 16), 4, 1e3, 1.0),      # mean about 1e3 times the spread
        ((3, 6, 5), 3, -2e3, 2.0),
        ((2, 48, 64), 8, 1.0, 1e-3),
        ((2, 48, 64), 8, 0.0, 3.0),     # the largest desk shape, C=48 at L=64
    ])
    def test_float32_sums_keep_statistics_accurate(self, shape, groups, offset, spread):
        # the per-(b, c) sums over the length run in float32; a group whose
        # mean dwarfs its spread must still normalize to float32 roundoff
        C = shape[1]
        x = rand(shape, seed=33, scale=spread) + np.float32(offset)
        gamma, beta = rand((C,), seed=34) + 1.0, rand((C,), seed=35)
        fused = tz.group_norm_silu_cl(Tensor(x.transpose(0, 2, 1)), groups, Tensor(gamma),
                                      Tensor(beta)).data.transpose(0, 2, 1)
        expect = group_norm_silu_oracle(x, groups, gamma, beta)
        assert np.abs(fused - expect).max() < 4e-6 * max(1.0, np.abs(expect).max())

    def test_constant_group_matches_oracle(self):
        # batch 1, group 0 is one constant over its channels and length, so
        # it normalizes to 0 and maps to silu(beta)
        C = 8
        x = rand((2, C, 12), seed=36)
        x[1, :4] = 5.25
        gamma, beta = rand((C,), seed=37) + 1.0, rand((C,), seed=38)
        fused = tz.group_norm_silu_cl(Tensor(x.transpose(0, 2, 1)), 2, Tensor(gamma),
                                      Tensor(beta)).data.transpose(0, 2, 1)
        expect = group_norm_silu_oracle(x, 2, gamma, beta)
        assert np.abs(fused - expect).max() < 4e-6 * max(1.0, np.abs(expect).max())

    def test_channels_last_shape_checks(self):
        ones, zeros = Tensor(np.ones(4, np.float32)), Tensor(np.zeros(4, np.float32))
        with pytest.raises(ValueError, match="divisible"):
            tz.group_norm_silu_cl(Tensor(rand((1, 5, 4))), 3, ones, zeros)
        with pytest.raises(ValueError, match=r"\[B, L, C\]"):
            tz.group_norm_silu_cl(Tensor(rand((5, 4))), 2, ones, zeros)


class TestLayoutWrappers:
    """Each [B, C, L] entry point runs the channels-last kernel on the
    transposed input, so its output is the kernel's, transposed, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.sampled_from([1, 2, 4]), st.integers(1, 4), st.integers(1, 6),
           st.sampled_from([1, 3, 5]), st.integers(0, 2**16))
    def test_wrappers_equal_kernels_on_transposed_input(self, b, groups, cg, half_l, k, seed):
        C, L = groups * cg, 2 * half_l
        x = rand((b, C, L), seed=seed, scale=2.0)
        xt = Tensor(x.transpose(0, 2, 1))
        w, bias = Tensor(rand((3, C, k), seed=seed + 1)), Tensor(rand((3,), seed=seed + 2))
        gamma, beta = Tensor(rand((C,), seed=seed + 3) + 1.0), Tensor(rand((C,), seed=seed + 4))
        pairs = [
            (tz.conv1d(Tensor(x), w, bias), tz.conv1d_cl(xt, w, bias)),
            (tz.group_norm(Tensor(x), groups, gamma, beta),
             tz._group_norm_cl(xt, groups, gamma, beta, False, "group_norm")),
            (tz.maxpool1d_k2(Tensor(x)), tz.maxpool1d_k2(xt, axis=1)),
            (tz.upsample_nearest_2x(Tensor(x)), tz.upsample_nearest_2x(xt, axis=1)),
            (tz.concat_channels([Tensor(x), Tensor(x[:, :1])]),
             tz.concat_channels([xt, Tensor(x[:, :1].transpose(0, 2, 1))], axis=2)),
        ]
        for wrapped, kernel in pairs:
            assert wrapped.data.tobytes() == np.ascontiguousarray(kernel.data.transpose(0, 2, 1)).tobytes()


class TestLayerKit:
    def test_softmax_constant_row_is_uniform(self):
        y = tz.softmax_lastdim(Tensor(np.full((3, 5), 1.23, np.float32))).data
        np.testing.assert_allclose(y, 0.2, atol=1e-7)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(arrays(np.float32, (4, 7), elements=st.floats(-30, 30, width=32)))
    def test_softmax_rows_are_distributions(self, x):
        y = tz.softmax_lastdim(Tensor(x)).data
        assert np.all(y >= 0)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-5)

    def test_maxpool_example(self):
        y = tz.maxpool1d_k2(Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]], np.float32)))
        np.testing.assert_array_equal(y.data, [[[2.0, 4.0]]])

    def test_maxpool_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            tz.maxpool1d_k2(Tensor(rand((1, 1, 5))))

    def test_upsample_inverts_pool_shape(self):
        x = Tensor(rand((2, 3, 12)))
        y = tz.upsample_nearest_2x(tz.maxpool1d_k2(x))
        assert y.shape == x.shape

    def test_silu_values(self):
        x = np.array([-50.0, 0.0, 50.0], np.float32)
        y = tz.silu(Tensor(x)).data
        np.testing.assert_allclose(y, [0.0, 0.0, 50.0], atol=1e-4)

    def test_concat_channels(self):
        a, b = Tensor(rand((2, 3, 4))), Tensor(rand((2, 5, 4), seed=1))
        y = tz.concat_channels([a, b])
        assert y.shape == (2, 8, 4)
        np.testing.assert_array_equal(y.data[:, :3], a.data)

    def test_mse_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mse"):
            tz.mse(Tensor(rand((2, 3))), Tensor(rand((3, 2))))

    def test_add_broadcasting(self):
        a = Tensor(rand((2, 3, 4)))
        b = Tensor(rand((2, 3, 1), seed=1))
        np.testing.assert_allclose(tz.add(a, b).data, a.data + b.data)

    def test_embedding_lookup_and_range(self):
        table = Tensor(rand((10, 4)))
        y = tz.embedding(table, np.array([0, 9, 3]))
        np.testing.assert_array_equal(y.data, table.data[[0, 9, 3]])
        with pytest.raises(ValueError, match="out of range"):
            tz.embedding(table, np.array([10]))


class TestBackward:
    def test_linear_form_gradient_is_exact(self):
        x = rand((3, 4), seed=7)
        w = Tensor(rand((3, 4), seed=8), requires_grad=True)
        loss = tz.sum_all(tz.mul(w, Tensor(x)))
        tz.backward(loss)
        np.testing.assert_array_equal(w.grad, x)

    def test_mse_with_itself_has_zero_gradient(self):
        x = Tensor(rand((4, 4)), requires_grad=True)
        loss = tz.mse(x, x)
        tz.backward(loss)
        assert np.all(x.grad == 0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(rand((3,)), requires_grad=True)
        y = tz.mul(x, 2.0)
        with pytest.raises(ValueError, match="scalar"):
            tz.backward(y)

    def test_empty_tape_rejected(self):
        with pytest.raises(RuntimeError, match="empty tape"):
            tz.backward(Tensor(np.float32(1.0)))

    def test_second_backward_without_forward_rejected(self):
        w = Tensor(rand((3,)), requires_grad=True)
        loss = tz.sum_all(tz.mul(w, w))
        tz.backward(loss)
        with pytest.raises(RuntimeError, match="empty tape"):
            tz.backward(loss)

    def test_gradient_accumulates_across_reuse(self):
        w = Tensor(np.array([2.0], np.float32), requires_grad=True)
        loss = tz.sum_all(tz.add(tz.mul(w, 3.0), tz.mul(w, 5.0)))
        tz.backward(loss)
        np.testing.assert_allclose(w.grad, [8.0])

    def test_float_scale_matches_constant_tensor(self):
        # a float scale records only the tensor operand and gives the bytes
        # of the same scale as a 0-d float32 constant, forward and backward
        x = rand((3, 4), seed=9)
        results = []
        for scale in (0.3, Tensor(np.float32(0.3))):
            tz.reset_tape()
            w = Tensor(x, requires_grad=True)
            y = tz.mul(w, scale)
            _, inputs, _ = tz._tape[-1]
            assert len(inputs) == (1 if isinstance(scale, float) else 2)
            tz.backward(tz.sum_all(tz.mul(y, y)))
            results.append((y.data.tobytes(), w.grad.tobytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("op, shapes", [
        (tz.conv1d_cl, ((2, 8, 3), (4, 3, 3), (4,))),
        (tz.linear, ((2, 5, 3), (3, 4), (4,)))])
    def test_untracked_x_gets_no_input_gradient(self, op, shapes):
        # an x that was not tracked gets None from backward_fn, not a product
        # that the driver drops; the weights' gradients keep their bytes
        results = []
        for tracked in (True, False):
            tz.reset_tape()
            x, w, b = (Tensor(rand(s, seed=i), requires_grad=i > 0 or tracked)
                       for i, s in enumerate(shapes))
            y = op(x, w, b)
            gx = tz._tape[-1][2](np.ones_like(y.data))[0]
            assert (gx is None) == (not tracked)
            tz.backward(tz.sum_all(tz.mul(y, y)))
            results.append((w.grad.tobytes(), b.grad.tobytes()))
        assert results[0] == results[1]


class TestAccumulation:
    """backward() is the one place that writes an op input's .grad: it sums
    reused inputs and broadcast operands and never writes a gradient array in
    place, so inputs may share one array."""

    def test_shared_gradient_survives_a_later_contribution(self):
        # add hands one gradient array to a and b; b's second contribution,
        # from the mul recorded before the add and so walked after it, must
        # leave a's gradient as it was
        a = Tensor(rand((2, 3), seed=1), requires_grad=True)
        b = Tensor(rand((2, 3), seed=2), requires_grad=True)
        r = rand((2, 3), seed=3)
        u = tz.mul(b, 2.0)
        y = tz.add(a, b)
        tz.backward(tz.sum_all(tz.mul(tz.add(y, u), Tensor(r))))
        np.testing.assert_array_equal(a.grad, r)
        np.testing.assert_allclose(b.grad, 3.0 * r, rtol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["add", "sub", "mul", "cat"]), st.integers(0, 63),
                              st.integers(0, 63), st.sampled_from(["pool", "one", "chan", "sum"]),
                              st.booleans()),
                    min_size=1, max_size=6),
           st.integers(0, 2**16))
    def test_random_graph_matches_finite_differences(self, program, seed):
        # [2, 3] leaves used any number of times, [1] and [C] leaves as
        # broadcast operands on either side, sum_all as a scalar operand,
        # concat_channels + reshape mid-graph and in the loss, which also
        # repeats the first leaf inside one concat. Every step records a
        # sum_all that only the "sum" operand uses, so the walk also meets
        # records whose output gets no gradient. The oracle differentiates
        # the same program replayed in float64 numpy, so gradients that
        # nearly cancel stay above its noise.
        leaves = [Tensor(rand((2, 3), seed=seed + i, scale=0.5), requires_grad=True) for i in range(3)]
        one = Tensor(rand((1,), seed=seed + 3, scale=0.5), requires_grad=True)
        chan = Tensor(rand((3,), seed=seed + 4, scale=0.5), requires_grad=True)
        f64 = SimpleNamespace(add=np.add, sub=np.subtract, mul=np.multiply, reshape=np.reshape,
                              sum_all=np.sum, concat_channels=lambda ts: np.concatenate(ts, axis=1))

        def replay(ops, leaf):
            pool, cats = [leaf(t) for t in leaves], []
            for op, i, j, kind, swap in program:
                u = pool[i % len(pool)]
                v = {"pool": pool[j % len(pool)], "one": leaf(one), "chan": leaf(chan),
                     "sum": ops.sum_all(pool[j % len(pool)])}[kind]
                if op == "cat":
                    cats.append(ops.reshape(ops.concat_channels([u, v if kind == "pool" else u]), (1, -1)))
                    continue
                pool.append(getattr(ops, op)(*((v, u) if swap else (u, v))))
            flat = [ops.reshape(t, (1, -1)) for t in pool] + cats + [ops.reshape(pool[0], (1, -1))]
            out = ops.concat_channels(flat)
            r = rand(out.shape, seed=seed + 5)
            return ops.sum_all(ops.mul(out, r if ops is f64 else Tensor(r)))

        tz.backward(replay(tz, lambda x: x))
        for t in leaves + [one, chan]:
            if t.grad is None:
                continue
            num = numeric_grad(lambda: replay(f64, lambda x: x.data.astype(np.float64)), t)
            scale = max(float(np.abs(num).max()), 1e-6)
            assert float(np.abs(t.grad - num).max()) / scale < 1e-3


def _saved_arrays(backward_fn) -> list:
    """The arrays a backward closure holds."""
    cells = [c.cell_contents for c in backward_fn.__closure__ or ()]
    return [v for v in cells if isinstance(v, np.ndarray)]


class TestTapeMemory:
    """The tape keeps only what backward reads, and backward frees it as it
    walks: op outputs live only as long as their caller holds them, and each
    record's saved arrays die once the walk has passed it."""

    @staticmethod
    def leaves():
        return (Tensor(rand((2, 8, 4), seed=1), requires_grad=True),
                Tensor(rand((4, 4, 3), seed=2), requires_grad=True),
                Tensor(rand((4,), seed=3) + 1.0, requires_grad=True),
                Tensor(rand((4,), seed=4), requires_grad=True))

    @staticmethod
    def forward(x, w, gamma, beta):
        h = tz.conv1d_cl(x, w)
        h = tz.group_norm_silu_cl(h, 2, gamma, beta)
        h = tz.softmax_lastdim(tz.silu(tz.maxpool1d_k2(h, axis=1)))
        return tz.sum_all(tz.mul(h, Tensor(rand(h.shape, seed=5))))

    def test_op_output_dies_while_its_record_is_on_the_tape(self):
        x, w, gamma, beta = self.leaves()
        h = tz.conv1d_cl(x, w)
        ref = weakref.ref(h)
        y = tz.group_norm_silu_cl(h, 2, gamma, beta)
        del h
        assert len(tz._tape) == 2
        assert ref() is None
        tz.backward(tz.sum_all(y))
        assert x.grad is not None and w.grad is not None

    def test_saved_arrays_die_as_the_walk_passes_them(self):
        leaves = self.leaves()
        loss = self.forward(*leaves)
        held = {id(t.data) for t in leaves}
        refs = [[weakref.ref(a) for a in _saved_arrays(fn) if id(a) not in held]
                for _, _, fn in tz._tape]
        assert sum(map(len, refs)) >= 10
        # the first record is walked last: by then every later record is gone
        alive = []

        def checked(fn):
            def first(g):
                alive.extend(r for later in refs[1:] for r in later if r() is not None)
                return fn(g)
            return first

        slot, inputs, fn = tz._tape[0]
        tz._tape[0] = (slot, inputs, checked(fn))
        del slot, inputs, fn
        tz.backward(loss)
        assert alive == []
        assert all(r() is None for record in refs for r in record)
        assert all(t.grad is not None for t in leaves)

    def test_only_leaves_get_grad(self):
        x = Tensor(rand((3, 4)), requires_grad=True)
        c = Tensor(rand((3, 4), seed=1))
        h = tz.silu(tz.mul(x, c))
        loss = tz.sum_all(tz.mul(h, h))
        tz.backward(loss)
        assert x.grad is not None
        assert h.grad is None and loss.grad is None and c.grad is None
        assert h.requires_grad and loss.requires_grad

    @pytest.mark.skipif(tz.malloc_thresholds() is None,
                        reason="malloc thresholds are pinned only under glibc")
    def test_training_steps_reuse_their_memory(self, monkeypatch):
        # desk-size steps (base 16, L 64, B 64) free their activations during
        # backward; with glibc's default thresholds each step handed about
        # 12 000 pages back to the kernel and faulted them in again, pinned
        # it faults a few dozen at most
        faults = []
        adam_step = diffusion.Adam.step

        def step_and_count(opt):
            adam_step(opt)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

        monkeypatch.setattr(diffusion.Adam, "step", step_and_count)
        model = unet.TrajUNet(unet.TrajUNetConfig(length=64, base_channels=16), rng=stream(0))
        x0 = stream(1).normal(size=(256, 2, 64)).astype(np.float32)
        diffusion.train(model, x0, None, diffusion.TrainConfig(steps=13, batch_size=64),
                        schedule.linear_beta_schedule(100, 1e-4, 0.15))
        per_step = (faults[-1] - faults[2]) / (len(faults) - 3)
        assert per_step < 256, f"{per_step:.0f} minor faults per training step"


def _proj_loss(out, seed=99):
    r = Tensor(rand(out.shape, seed=seed))
    return tz.sum_all(tz.mul(out, r))


GRAD_CASES = {
    "conv1d": lambda p: _proj_loss(tz.conv1d(p["x322_8"], p["w4"], p["b4"])),
    "conv1d_k1": lambda p: _proj_loss(tz.conv1d(p["x322_8"], p["wk1"], p["b4"])),
    "group_norm": lambda p: _proj_loss(tz.group_norm(p["x322_8"], 2, p["gamma"], p["beta"])),
    "silu": lambda p: _proj_loss(tz.silu(p["x322_8"])),
    "linear": lambda p: _proj_loss(tz.linear(p["xmat"], p["W"], p["bl"])),
    "softmax": lambda p: _proj_loss(tz.softmax_lastdim(p["xmat"])),
    "maxpool": lambda p: _proj_loss(tz.maxpool1d_k2(p["x322_8"])),
    "upsample": lambda p: _proj_loss(tz.upsample_nearest_2x(p["x322_8"])),
    "add_broadcast": lambda p: _proj_loss(tz.add(p["x322_8"], p["bias_c"])),
    "mul_broadcast": lambda p: _proj_loss(tz.mul(p["x322_8"], p["bias_c"])),
    "sub": lambda p: _proj_loss(tz.sub(p["xmat"], p["ymat"])),
    "bmm": lambda p: _proj_loss(tz.bmm(p["ba"], p["bb"])),
    "transpose": lambda p: _proj_loss(tz.transpose_last2(p["ba"])),
    "concat": lambda p: _proj_loss(tz.concat_channels([p["x322_8"], p["x322_8b"]])),
    "embedding": lambda p: _proj_loss(tz.embedding(p["table"], np.array([0, 2, 2, 1]))),
    "mse": lambda p: tz.mse(p["xmat"], p["ymat"]),
    "reshape": lambda p: _proj_loss(tz.reshape(p["xmat"], (2, 2, 3))),
    "conv1d_cl": lambda p: _proj_loss(tz.conv1d_cl(p["xcl"], p["w4"], p["b4"])),
    "conv1d_cl_row_bias": lambda p: _proj_loss(tz.conv1d_cl(p["xcl"], p["w4"], p["b34"])),
    "conv1d_cl_k5": lambda p: _proj_loss(tz.conv1d_cl(p["xcl_short"], p["w5"], p["b4"])),
    "conv1d_cl_k7_wider_than_input": lambda p: _proj_loss(tz.conv1d_cl(p["xcl_short"], p["w7"])),
    "group_norm_silu_cl": lambda p: _proj_loss(tz.group_norm_silu_cl(p["xcl4"], 2, p["gamma4"], p["beta4"])),
    "maxpool_cl": lambda p: _proj_loss(tz.maxpool1d_k2(p["xcl"], axis=1)),
    "upsample_cl": lambda p: _proj_loss(tz.upsample_nearest_2x(p["xcl"], axis=1)),
    "concat_cl": lambda p: _proj_loss(tz.concat_channels([p["xcl"], p["xcl_b"]], axis=2)),
}


@pytest.fixture
def grad_params():
    mk = lambda shape, seed: Tensor(rand(shape, seed=seed), requires_grad=True)
    return {
        "x322_8": mk((3, 2, 8), 10),
        "x322_8b": mk((3, 2, 8), 11),
        "w4": mk((4, 2, 3), 12),
        "wk1": mk((4, 2, 1), 13),
        "b4": mk((4,), 14),
        "b34": mk((3, 4), 33),
        "gamma": Tensor(rand((2,), 15, scale=0.5) + 1.0, requires_grad=True),
        "beta": mk((2,), 16),
        "xmat": mk((4, 3), 17),
        "ymat": mk((4, 3), 18),
        "W": mk((3, 5), 19),
        "bl": mk((5,), 20),
        "bias_c": mk((3, 2, 1), 21),
        "ba": mk((2, 3, 4), 22),
        "bb": mk((2, 4, 5), 23),
        "table": mk((3, 4), 24),
        "xcl": mk((3, 8, 2), 25),
        "xcl_b": mk((3, 8, 3), 32),
        "xcl_short": mk((2, 3, 2), 26),
        "w5": mk((4, 2, 5), 27),
        "w7": mk((3, 2, 7), 28),
        "xcl4": mk((2, 6, 4), 29),
        "gamma4": Tensor(rand((4,), 30, scale=0.5) + 1.0, requires_grad=True),
        "beta4": mk((4,), 31),
    }


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_gradcheck_primitive(name, grad_params):
    make_loss = lambda: GRAD_CASES[name](grad_params)
    tensors = [t for t in grad_params.values() if isinstance(t, Tensor)]
    tz.reset_tape()
    loss = make_loss()
    tz.backward(loss)
    touched = [t for t in tensors if t.grad is not None]
    assert touched, "loss did not reach any parameter"
    assert_grads_match(make_loss, touched)


class TestInvariants:
    def test_forward_determinism_bitwise(self):
        def run():
            x = Tensor(rand((2, 4, 8), seed=42), requires_grad=True)
            w = Tensor(rand((4, 4, 3), seed=43), requires_grad=True)
            h = tz.conv1d(x, w)
            h = tz.group_norm(h, 2, Tensor(np.ones(4, np.float32)), Tensor(np.zeros(4, np.float32)))
            return tz.silu(h).data.tobytes()

        assert run() == run()

    def test_nonfinite_output_is_surfaced(self):
        big = Tensor(np.full((4,), 3e38, np.float32))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            tz.add(big, big)

    def test_finite_output_near_the_float32_limit_passes(self):
        # its float32 sum overflows, but every element is finite
        out = tz.add(Tensor(np.array([3e38, 3e38], np.float32)), Tensor(np.zeros(2, np.float32)))
        assert out.data.tolist() == np.array([3e38, 3e38], np.float32).tolist()

    def test_opposite_infinities_are_a_numeric_error(self):
        # their sum is nan; the check raises NumericError and no numpy warning
        a = Tensor(np.array([3e38, -3e38], np.float32))
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match="^add produced non-finite values$"):
            tz.add(a, a)

    def test_direct_op_under_no_grad_still_checks(self):
        # only a model evaluation defers the checks; a direct call never does
        big = Tensor(np.full((4,), 3e38, np.float32))
        with tz.no_grad(), np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="^add produced non-finite values$"):
                tz.add(big, big)

    def test_deferred_scope_checks_the_ops_that_hide_nonfinite_inputs(self):
        big = Tensor(np.full((4,), 3e38, np.float32))
        x = Tensor(np.zeros((1, 4, 2), np.float32))
        x.data[0, 2, 1] = np.nan  # first of its pair along the length axis
        scores = Tensor(np.zeros((1, 2, 3), np.float32))
        scores.data[0, 1, 2] = -np.inf
        # unchecked, both come out finite
        assert np.isfinite(tz.maxpool1d_k2(x, axis=1).data).all()
        assert np.isfinite(tz.softmax_lastdim(scores).data).all()
        with tz.no_grad(), tz._deferred_checks():
            assert np.isinf(tz.add(big, big).data).all()  # deferred: no check, no warning
            with pytest.raises(NumericError, match="^maxpool1d_k2 input produced non-finite"):
                tz.maxpool1d_k2(x, axis=1)
            with pytest.raises(NumericError, match="^softmax_lastdim input produced non-finite"):
                tz.softmax_lastdim(scores)
        with np.errstate(over="ignore"), pytest.raises(NumericError):  # the scope has ended
            tz.add(big, big)

    def test_nonfinite_init_rejected(self):
        with pytest.raises(NumericError):
            Tensor(np.array([1.0, np.nan], np.float32))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6))
    def test_pool_then_upsample_preserves_even_lengths(self, b, half_l):
        x = Tensor(rand((b, 2, 2 * half_l)))
        assert tz.upsample_nearest_2x(tz.maxpool1d_k2(x)).shape == x.shape
