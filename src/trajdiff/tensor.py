"""Dense float32 tensors with reverse-mode autodiff and the 1D layer kit.

Storage is float32, row-major numpy; scalar reductions (sum_all, mse) and
softmax accumulate in float64 so finite-difference gradient checks stay
meaningful. Normalization statistics start from float32 BLAS sums over the
length, one per (batch, channel), and are float64 from there on.
Every forward op verifies its output is finite and raises NumericError
otherwise: NaN/Inf never propagates silently. One model evaluation under
no_grad may defer these checks (the private _deferred_checks scope, which
TrajUNet.forward alone enters): its ops skip them and run with numpy's
floating-point warnings off, and the caller checks the final output once,
replaying the evaluation with every check on when it is not finite, so the
error still names the op. Inside the scope two ops, whose finite output can
hide a non-finite input, check their input: softmax_lastdim (-inf becomes
0) and maxpool1d_k2 (a NaN or -inf first of a pair is dropped).

Ops take Tensors and read their .data; nothing is coerced. mul alone also
takes a Python float as its second operand: a constant scale, multiplied in
as float32 and not recorded as an input.

The 1D kernels are channels-last, [B, L, C], with one op per layer:
conv1d_cl runs one GEMM per kernel tap over the B*L rows and adds each
shifted product into the output, forward and backward, with no window matrix;
group_norm_silu_cl is group norm, affine and SiLU in one op: float32 BLAS
sums per (batch, channel), float64 per-group statistics from those, a
centring correction that keeps them accurate when a group's mean dwarfs its
spread, a three-pass SiLU, and a backward that forms dx in one pass.
conv1d_cl also takes a bias per (batch, channel), which is how the UNet
injects its embedding.
maxpool1d_k2, upsample_nearest_2x and concat_channels take the axis they
work along. The [B, C, L] entry points conv1d and group_norm transpose in and
out of the same kernels; the weights stay [Cout, Cin, K] in either layout.

Tracking uses one module-level tape (a Wengert list). When grad mode is on and
some input requires grad, an op appends one record (slot, inputs, backward_fn).
The slot is the output's gradient slot: its shape and, during backward, the
gradient summed into it so far. The output Tensor points at its slot, never
the other way round, so the tape keeps no op output alive. Each input is
recorded as its slot (a tracked op output), as the Tensor itself (a
requires_grad leaf) or as None. backward_fn(g) maps the output's gradient to
one gradient per input, in the output's broadcast shape, touches no tensor
and holds only the arrays it reads: sum_all and maxpool1d_k2 keep no more of
their input than its shape. An input recorded as None gets no gradient, so
conv1d_cl and linear return None for an x that was not tracked when the op
was recorded, and skip its product (the UNet's noisy input, time embedding
and numeric conditions). backward() is the one place that writes
gradients: it pops the records in exact reverse execution order, skips those
whose slot got no gradient, casts each input's gradient to float32, sums it
down to the input's shape, stores the first one as it is and adds later ones
out of place. Gradient arrays are never written in place, so one array may be
the gradient of several inputs (add hands the same g to both). Each popped
record is dropped with its slot's gradient, so saved activations and
activation gradients are freed as the walk passes them, and only leaves end
up with a .grad. The walk empties the tape, so a second backward without a
new forward pass raises. There is one tape per process: sampling and
training workers are forked processes, and no code runs tensor ops on a
second thread.

This module also owns the numeric runtime: blas_threads reads OpenBLAS's
thread count and set_blas_threads sets it for the whole process. A sampling
or training call on several processes sets one thread before it forks, so
the workers inherit it, and restores the caller's count when it ends. Under glibc, importing the module pins
malloc's mmap threshold at 32 MiB and its trim threshold at 64 MiB, the
largest values glibc's own dynamic adjustment reaches on 64-bit. Freeing
during the walk would otherwise hand the step's large buffers back to the
kernel (glibc unmaps blocks above the mmap threshold when they are freed, and
trims the heap top above the trim threshold) only to fault them in again on
the next step; pinned, a training step reuses the heap the previous one grew.
malloc_thresholds reports the pinned values; off glibc nothing is pinned.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math

import numpy as np

from .errors import NumericError

GROUP_NORM_EPS = 1e-5  # added to each group's variance before the inverse square root

_tape: list = []  # (slot, inputs, backward_fn) records in execution order
_grad_enabled = True
_checks_deferred = False  # inside _deferred_checks: ops leave the finite check to the caller


class no_grad:
    """Context manager that disables tape recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev


@contextlib.contextmanager
def _deferred_checks():
    """Scope of one model evaluation under no_grad whose caller checks the
    output once: _make skips its finite check and numpy's floating-point
    warnings are off, so a non-finite value flows on to the output instead
    of raising where it appears. softmax_lastdim and maxpool1d_k2 check
    their input instead."""
    global _checks_deferred
    prev, _checks_deferred = _checks_deferred, True
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _checks_deferred = prev


def reset_tape() -> None:
    """Drop any recorded ops (start of a fresh training step)."""
    _tape.clear()


class _Slot:
    """A tracked op output's place on the tape: its shape and, during
    backward, the gradient summed into it so far."""

    __slots__ = ("grad", "shape")

    def __init__(self, shape: tuple[int, ...]):
        self.grad: np.ndarray | None = None
        self.shape = shape


class Tensor:
    """n-dimensional float32 array with an optional gradient buffer.

    grad is dLoss/dtensor after backward for a leaf, a tensor made with
    requires_grad=True that backward reached; it stays None on op outputs,
    whose gradients live in their tape slots only while the walk needs them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_f64", "_slot", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor initialized with non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._f64: float | None = None
        self._slot: _Slot | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        # scalar reductions keep their float64 accumulation for callers that
        # need it (finite-difference oracles); storage stays float32
        if self._f64 is not None:
            return self._f64
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced non-finite values")
    return arr


def _make(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn, op: str,
          check: bool = True) -> Tensor:
    """Wrap an op result; record (slot, inputs, backward_fn) when tracking.

    backward_fn(g) returns one gradient per input. check=False is for pure
    data-movement ops that cannot create non-finite values from finite inputs.
    Inside _deferred_checks no op checks here.
    """
    if check and not _checks_deferred:
        _finite(out_data, op)
    out = Tensor.__new__(Tensor)
    out.data = out_data.astype(np.float32, copy=False)
    out.grad = None
    out.requires_grad = False
    out._f64 = None
    out._slot = None
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._slot = _Slot(out.data.shape)
        targets = tuple(t._slot if t._slot is not None else (t if t.requires_grad else None)
                        for t in inputs)
        _tape.append((out._slot, targets, backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient in an op's broadcast output shape down to an input's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data + b.data, (a, b), lambda g: (g, g), "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def mul(a: Tensor, b: Tensor | float) -> Tensor:
    """a * b; b is a Tensor or a Python float, a constant scale."""
    ad = a.data
    if not isinstance(b, Tensor):
        s = np.float32(b)
        return _make(ad * s, (a,), lambda g: (g * s,), "mul")
    bd = b.data
    return _make(ad * bd, (a, b), lambda g: (g * bd, g * ad), "mul")


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = x.data.shape
    return _make(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),), "reshape", check=False)


def transpose_last2(x: Tensor) -> Tensor:
    y = np.ascontiguousarray(x.data.swapaxes(-1, -2))
    return _make(y, (x,), lambda g: (g.swapaxes(-1, -2),), "transpose_last2", check=False)


def concat_channels(tensors: list[Tensor], axis: int = 1) -> Tensor:
    """Concatenate along the channel axis: 1 for [B, C, ...], 2 (or -1) for [B, L, C]."""
    if not tensors:
        raise ValueError("concat_channels needs at least one tensor")
    y = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return _make(y, tuple(tensors), lambda g: np.split(g, splits, axis=axis), "concat_channels",
                 check=False)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements as a scalar tensor (float64 accumulation)."""
    acc = float(np.sum(x.data, dtype=np.float64))
    y = np.asarray(acc, dtype=np.float32)
    shape = x.data.shape
    out = _make(y, (x,), lambda g: (np.broadcast_to(g, shape),), "sum_all")
    out._f64 = acc
    return out


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error over all elements, as a scalar tensor."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"mse shape mismatch: {a.data.shape} vs {b.data.shape}")
    diff = a.data.astype(np.float64) - b.data.astype(np.float64)
    n = diff.size
    acc = float(np.sum(diff * diff) / n)
    y = np.asarray(acc, dtype=np.float32)

    def backward(g):
        gd = (g * (2.0 / n)) * diff.astype(np.float32)
        return gd, -gd

    out = _make(y, (a, b), backward, "mse")
    out._f64 = acc
    return out


# ---------------------------------------------------------------------------
# nonlinearity / normalization
# ---------------------------------------------------------------------------

def silu(x: Tensor) -> Tensor:
    xd = x.data
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-xd))
    return _make(xd * s, (x,), lambda g: (g * (s * (1.0 + xd * (1.0 - s))),), "silu")


def softmax_lastdim(x: Tensor) -> Tensor:
    if _checks_deferred:  # a -inf score would come out as a finite 0
        _finite(x.data, "softmax_lastdim input")
    z = x.data.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y64 = e / e.sum(axis=-1, keepdims=True)
    y = y64.astype(np.float32)

    def backward(g):
        gy = g * y
        return (gy - y * gy.sum(axis=-1, keepdims=True),)

    return _make(y, (x,), backward, "softmax_lastdim")


def _group_norm_cl(x: Tensor, groups: int, gamma: Tensor, beta: Tensor,
                   silu_out: bool, op: str) -> Tensor:
    """Group norm over a channels-last [B, L, C] tensor, then affine, then
    optionally SiLU, as one op.

    The per-(b, c) sums over the length are float32 BLAS products (ones @ v,
    on C-contiguous arrays, so the summation order does not depend on the
    caller's layout); everything after them is float64. One [C, C] float64
    matmul averages each channel's group and repeats it back. The mean comes
    from the sums of x; xc = x - mean32 is then centred up to the float32
    error of that mean, d, which the sums of xc measure exactly enough to fold
    back in: x_hat = inv * (xc - d), with the variance from the sums of
    xc * xc less d * d. Normalization and affine fold into z = a * xc + b per
    (b, c). SiLU takes three passes as h * (1 + tanh h) with h = z / 2, the
    halving folded into a and b (silu(z) = z * sigmoid(z), sigmoid(z) =
    (1 + tanh(z / 2)) / 2). The backward forms the per-(b, c) sums of dz and
    dz * xc once, the same way, and writes dx = a' * dz + b' * xc + c' with
    per-(b, c) coefficients.
    """
    if x.data.ndim != 3:
        raise ValueError(f"{op} expects [B, L, C], got {x.data.shape}")
    B, L, C = x.data.shape
    if C % groups != 0:
        raise ValueError(f"channels {C} not divisible by groups {groups}")
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise ValueError("gamma/beta must have shape [C]")
    cg = C // groups
    group_of = np.arange(C) // cg
    # [B, C] per-channel sums @ avg -> each channel's group mean; an empty
    # length (L = 0) gives an empty output
    avg = (group_of[:, None] == group_of[None, :]) / float(max(L * cg, 1))
    ones = np.ones(L, dtype=np.float32)

    def mean_of(v):  # float32 [B, L, C] -> float64 [B, C] group means
        return (ones @ v).astype(np.float64) @ avg

    xd = np.ascontiguousarray(x.data)
    mean32 = mean_of(xd).astype(np.float32)
    xc = xd - mean32[:, None, :]
    d = mean_of(xc)
    z = xc * xc
    var = mean_of(z) - d * d
    inv = 1.0 / np.sqrt(np.maximum(var, 0.0) + GROUP_NORM_EPS)
    gam = gamma.data.astype(np.float64)
    half = 0.5 if silu_out else 1.0
    scale = (half * inv * gam).astype(np.float32)[:, None, :]
    np.multiply(xc, scale, out=z)  # z's buffer is free once var is known
    z += (half * (beta.data - d * inv * gam)).astype(np.float32)[:, None, :]
    if silu_out:
        u = np.tanh(z)  # z holds h = z / 2; u = 1 + tanh(h) = 2 sigmoid(2h)
        u += 1.0
        y = np.multiply(z, u, out=z)
    else:
        y = z

    def backward(g):
        if silu_out:
            dz = 2.0 - u  # 2 silu'(z) = u + y * (2 - u)
            dz *= y
            dz += u
            dz *= g
        else:
            dz = g
        # dz carries the factor 1 / half, which a and the sums take back out
        t = dz * xc
        sum_dz = half * (ones @ dz).astype(np.float64)
        sum_dzxh = inv * (half * (ones @ t) - d * sum_dz)
        m1 = (gam * sum_dz) @ avg
        m2 = (gam * sum_dzxh) @ avg
        # dx = inv * (gamma * dz - m1 - x_hat * m2), x_hat = inv * (xc - d)
        gx = dz * scale
        gx -= np.multiply(xc, (inv * inv * m2).astype(np.float32)[:, None, :], out=t)
        gx += (inv * (inv * d * m2 - m1)).astype(np.float32)[:, None, :]
        return gx, sum_dzxh.sum(axis=0), sum_dz.sum(axis=0)

    return _make(y, (x, gamma, beta), backward, op)


def group_norm_silu_cl(x: Tensor, groups: int, gamma: Tensor, beta: Tensor) -> Tensor:
    """silu(group_norm(x)) for a channels-last [B, L, C] tensor, as one op."""
    return _group_norm_cl(x, groups, gamma, beta, True, "group_norm_silu_cl")


def group_norm(x: Tensor, groups: int, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize per (batch, group) slice of a [B, C, L] tensor, then affine."""
    if x.data.ndim != 3:
        raise ValueError(f"group_norm expects [B, C, L], got {x.data.shape}")
    y = _group_norm_cl(transpose_last2(x), groups, gamma, beta, False, "group_norm")
    return transpose_last2(y)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x[..., In] @ W[In, Out] + b[Out]."""
    if x.data.shape[-1] != W.data.shape[0]:
        raise ValueError(f"linear shape mismatch: {x.data.shape} @ {W.data.shape}")
    xd, Wd = x.data, W.data
    y = xd @ Wd + b.data
    x_tracked = x.requires_grad

    def backward(g):
        gf = g.reshape(-1, g.shape[-1])
        return (g @ Wd.T if x_tracked else None,
                xd.reshape(-1, xd.shape[-1]).T @ np.ascontiguousarray(gf),
                gf.sum(axis=0, dtype=np.float64))

    return _make(y, (x, W, b), backward, "linear")


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul: [B, M, K] @ [B, K, N]."""
    if a.data.ndim != 3 or b.data.ndim != 3 or a.data.shape[2] != b.data.shape[1] or a.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"bmm shape mismatch: {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data
    return _make(ad @ bd, (a, b), lambda g: (g @ bd.swapaxes(1, 2), ad.swapaxes(1, 2) @ g), "bmm")


def embedding(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup: table[V, D] indexed by an integer array."""
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("embedding indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ValueError(f"embedding index out of range [0, {table.data.shape[0]})")
    y = table.data[idx]
    shape = table.data.shape

    def backward(g):
        acc = np.zeros(shape, dtype=np.float32)
        np.add.at(acc, idx, g)
        return (acc,)

    return _make(y, (table,), backward, "embedding")


# ---------------------------------------------------------------------------
# 1D conv / pooling / upsampling
# ---------------------------------------------------------------------------

def _conv_taps(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Same-padding stride-1 convolution of channels-last arrays:
    x [B, L, Cin], w [Cout, Cin, K] -> [B, L, Cout].

    One GEMM per tap over all B*L rows of x. Each tap's product is added into
    the output shifted by the tap's offset, as one add over the flattened
    rows; the product rows that would land in a neighbouring batch element
    are zeroed first. No window matrix is built.
    """
    B, L, Cin = x.shape
    Cout, _, K = w.shape
    pad = K // 2
    xf = x.reshape(B * L, Cin)
    y = xf @ w[:, :, pad].T
    for k in range(K):
        s = k - pad
        if s == 0 or abs(s) >= L:
            continue
        p = (xf @ w[:, :, k].T).reshape(B, L, Cout)
        if s > 0:
            p[:, :s] = 0.0
            y[:-s] += p.reshape(B * L, Cout)[s:]
        else:
            p[:, L + s:] = 0.0
            y[-s:] += p.reshape(B * L, Cout)[:s]
    return y.reshape(B, L, Cout)


def _conv_weight_grad(x: np.ndarray, g: np.ndarray, K: int) -> np.ndarray:
    """dL/dw [Cout, Cin, K] of _conv_taps from its input x and output grad g.

    One GEMM per tap pairs the flattened rows of g with the rows of x shifted
    by the tap's offset; the few pairs that cross into a neighbouring batch
    element are then taken back out with one small GEMM.
    """
    B, L, Cin = x.shape
    Cout = g.shape[2]
    pad = K // 2
    xf, gf = x.reshape(B * L, Cin), g.reshape(B * L, Cout)
    gw = np.zeros((Cout, Cin, K), dtype=np.float32)
    for k in range(K):
        s = k - pad
        if abs(s) >= L:
            continue
        if s >= 0:
            tap = gf[:B * L - s].T @ xf[s:]
            if s:
                tap -= g[:-1, L - s:].reshape(-1, Cout).T @ x[1:, :s].reshape(-1, Cin)
        else:
            tap = gf[-s:].T @ xf[:s]
            tap -= g[1:, :-s].reshape(-1, Cout).T @ x[:-1, L + s:].reshape(-1, Cin)
        gw[:, :, k] = tap
    return gw


def conv1d_cl(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Shape-preserving 1D convolution of a channels-last tensor: stride 1,
    zero padding (k-1)/2, odd k.

    x: [B, L, Cin], w: [Cout, Cin, K], b: [Cout] or, one bias row per batch
    element, [B, Cout]; returns [B, L, Cout]. The input gradient is the same
    shifted-GEMM convolution of the output gradient with the
    channel-transposed, length-flipped kernel.
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ValueError(f"conv1d expects x[B,L,Cin], w[Cout,Cin,K], got {x.data.shape}, {w.data.shape}")
    B, L, Cin = x.data.shape
    Cout, CinW, K = w.data.shape
    if Cin != CinW:
        raise ValueError(f"conv1d channel mismatch: x has {Cin}, w expects {CinW}")
    if L == 0:
        raise ValueError("conv1d on zero-length input")
    if K % 2 == 0:
        raise ValueError("conv1d kernel size must be odd")

    xd, wd = x.data, w.data
    y = _conv_taps(xd, wd)
    if b is not None:
        if b.data.shape not in ((Cout,), (B, Cout)):
            raise ValueError(f"conv1d bias must have shape [{Cout}] or [{B}, {Cout}]")
        y += b.data.reshape(-1, 1, Cout)
    bias_ndim = None if b is None else b.data.ndim
    x_tracked = x.requires_grad

    def backward(g):
        gx = _conv_taps(g, wd.transpose(1, 0, 2)[:, :, ::-1]) if x_tracked else None
        grads = (gx, _conv_weight_grad(xd, g, K))
        if bias_ndim is None:
            return grads
        if bias_ndim == 1:
            return grads + (np.ones(B * L, dtype=np.float32) @ g.reshape(B * L, Cout),)
        return grads + (np.ones(L, dtype=np.float32) @ g,)

    inputs = (x, w) if b is None else (x, w, b)
    return _make(y, inputs, backward, "conv1d")


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """conv1d_cl for a [B, Cin, L] tensor; returns [B, Cout, L]."""
    if x.data.ndim != 3:
        raise ValueError(f"conv1d expects x[B,Cin,L], got {x.data.shape}")
    return transpose_last2(conv1d_cl(transpose_last2(x), w, b))


def _pairs(shape: tuple[int, ...], axis: int, op: str) -> tuple[tuple[int, ...], int]:
    """Shape that splits an even-length axis into (length / 2, 2), and the
    index of the new size-2 axis."""
    axis %= len(shape)
    L = shape[axis]
    if L == 0 or L % 2 != 0:
        raise ValueError(f"{op} needs a positive even length, got {L}")
    return shape[:axis] + (L // 2, 2) + shape[axis + 1:], axis + 1


def maxpool1d_k2(x: Tensor, axis: int = -1) -> Tensor:
    """Non-overlapping max pooling with window 2; halves the length axis
    (the last for [B, C, L], axis 1 for [B, L, C])."""
    in_shape = x.data.shape
    shape, pair_axis = _pairs(in_shape, axis, "maxpool1d_k2")
    if _checks_deferred:  # a NaN or -inf first of a pair would be dropped
        _finite(x.data, "maxpool1d_k2 input")
    first, second = np.moveaxis(x.data.reshape(shape), pair_axis, 0)
    take_first = first >= second  # ties go to the first of the pair
    y = np.where(take_first, first, second)

    def backward(g):
        gp = np.zeros(shape, dtype=np.float32)
        g_first, g_second = np.moveaxis(gp, pair_axis, 0)
        np.copyto(g_first, g, where=take_first)
        np.copyto(g_second, g, where=~take_first)
        return (gp.reshape(in_shape),)

    return _make(y, (x,), backward, "maxpool1d_k2", check=False)


def upsample_nearest_2x(x: Tensor, axis: int = -1) -> Tensor:
    """Nearest-neighbor upsampling along the length axis (2x): the last for
    [B, C, L], axis 1 for [B, L, C]."""
    y = np.repeat(x.data, 2, axis=axis)

    def backward(g):
        shape, pair_axis = _pairs(g.shape, axis, "upsample_nearest_2x")
        return (g.reshape(shape).sum(axis=pair_axis),)

    return _make(y, (x,), backward, "upsample_nearest_2x", check=False)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the recorded tape.

    Consumes the tape, record by record: each record and its slot's gradient
    are dropped once walked, and calling again without a new tracked forward
    pass raises. Every requires_grad leaf the pass reaches ends up with
    dLoss/dleaf summed into .grad. This is the only code that writes
    gradients, and it never writes a gradient array in place.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if not _tape:
        raise RuntimeError("backward on an empty tape (no tracked forward pass)")
    if loss._slot is None:
        raise RuntimeError("backward from a loss that no tracked op produced")
    loss._slot.grad = np.ones_like(loss.data)
    while _tape:
        slot, inputs, backward_fn = _tape.pop()
        g, slot.grad = slot.grad, None
        if g is None:
            continue
        for t, gi in zip(inputs, backward_fn(g), strict=True):
            if t is not None:
                gi = _unbroadcast(np.asarray(gi, dtype=np.float32), t.shape)
                t.grad = gi if t.grad is None else t.grad + gi


# ---------------------------------------------------------------------------
# BLAS threads and malloc thresholds
# ---------------------------------------------------------------------------

# (get, set) thread-count symbols, in the order they are tried: the
# scipy-openblas build that numpy wheels bundle, then plain 64-bit and
# 32-bit-integer OpenBLAS builds
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or None.

    The library is found by its path in /proc/self/maps, so this works only
    on Linux; elsewhere, or with another BLAS, it returns None.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # address, perms, offset, device, inode, then the mapped file's path
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return None
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def blas_threads() -> int | None:
    """OpenBLAS's current thread count, or None where it cannot be controlled."""
    lib = _openblas()
    return None if lib is None else int(lib[0]())


def set_blas_threads(n: int) -> None:
    """Set OpenBLAS's thread count for this whole process; does nothing where
    OpenBLAS cannot be controlled."""
    lib = _openblas()
    if lib is not None:
        lib[1](n)


# glibc's mallopt parameter numbers, and the values pinned at import: the
# largest mmap threshold glibc's dynamic adjustment reaches on 64-bit
# (DEFAULT_MMAP_THRESHOLD_MAX) and twice that as the trim threshold, the
# pairing that adjustment keeps
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_THRESHOLDS = {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20}


def _pin_malloc_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds; False off glibc."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    if getattr(libc, "gnu_get_libc_version", None) is None:
        return False
    libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return bool(libc.mallopt(_M_MMAP_THRESHOLD, _MALLOC_THRESHOLDS["mmap_threshold"])
                and libc.mallopt(_M_TRIM_THRESHOLD, _MALLOC_THRESHOLDS["trim_threshold"]))


_malloc_pinned = _pin_malloc_thresholds()


def malloc_thresholds() -> dict | None:
    """glibc malloc's mmap and trim thresholds in bytes as pinned at import,
    or None where nothing was pinned (not glibc)."""
    return dict(_MALLOC_THRESHOLDS) if _malloc_pinned else None
