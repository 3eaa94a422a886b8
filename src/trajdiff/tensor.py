"""Dense float32 tensors with reverse-mode autodiff and the 1D layer kit.

Storage is float32, row-major numpy; reductions and normalization statistics
accumulate in float64 so finite-difference gradient checks stay meaningful.
Every forward op verifies its output is finite and raises NumericError
otherwise: NaN/Inf never propagates silently.

The 1D kernels are channels-last, [B, L, C], with one op per layer:
conv1d_cl runs one GEMM per kernel tap over the B*L rows and adds each
shifted product into the output, forward and backward, with no window matrix;
group_norm_silu_cl is group norm, affine and SiLU in one op whose per-group
statistics accumulate in float64 and whose backward forms dx in one pass.
maxpool1d_k2, upsample_nearest_2x and concat_channels take the axis they
work along. The [B, C, L] entry points conv1d and group_norm transpose in and
out of the same kernels; the weights stay [Cout, Cin, K] in either layout.

Tracking uses a thread-local tape (a Wengert list). When grad mode is on and
some input requires grad, an op appends one record (out, inputs, backward_fn);
backward_fn(g) maps the output's gradient to one gradient per input, in the
output's broadcast shape, and touches no tensor. backward() is the one place
that writes an input's .grad: it walks the records in exact reverse execution
order, skips records whose output got no gradient and inputs that do not
require grad, casts each gradient to float32, sums it down to the input's
shape, stores the first one as it is and adds later ones out of place.
Gradient arrays are never written in place, so one array may be the gradient
of several tensors (add hands the same g to both inputs). The whole tape
lives until the walk ends and is then cleared, so a second backward without
a new forward pass raises; dropping each record as it runs lowers the peak
memory but frees and re-maps large buffers on every step, which costs more
than it saves. Independent threads own independent tapes.

This module also owns the numeric runtime's threads: single_threaded_blas
runs a block with OpenBLAS at one thread and restores the caller's count
after it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading

import numpy as np

from .errors import NumericError

_STATE = threading.local()


def _state():
    if not hasattr(_STATE, "tape"):
        _STATE.tape = []
        _STATE.grad_enabled = True
    return _STATE


class no_grad:
    """Context manager that disables tape recording on this thread."""

    def __enter__(self):
        st = _state()
        self._prev = st.grad_enabled
        st.grad_enabled = False

    def __exit__(self, *exc):
        _state().grad_enabled = self._prev


def reset_tape() -> None:
    """Drop any recorded ops (start of a fresh training step)."""
    _state().tape = []


class Tensor:
    """n-dimensional float32 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_f64")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor initialized with non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._f64: float | None = None

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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))


def _finite(arr: np.ndarray, op: str) -> np.ndarray:
    # the sum stays finite iff every element is finite (activation-scale
    # values cannot overflow the accumulator), so one reduction suffices
    if not np.isfinite(arr.sum()):
        raise NumericError(f"{op} produced non-finite values")
    return arr


def _make(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn, op: str,
          check: bool = True) -> Tensor:
    """Wrap an op result; record (out, inputs, backward_fn) when tracking.

    backward_fn(g) returns one gradient per input. check=False is for pure
    data-movement ops that cannot create non-finite values from finite inputs.
    """
    if check:
        _finite(out_data, op)
    out = Tensor.__new__(Tensor)
    out.data = out_data.astype(np.float32, copy=False)
    out.grad = None
    out.requires_grad = False
    out._f64 = None
    st = _state()
    if st.grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        st.tape.append((out, inputs, backward_fn))
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

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(a.data + b.data, (a, b), lambda g: (g, g), "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data), "mul")


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    old = x.data.shape
    return _make(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),), "reshape", check=False)


def transpose_last2(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    y = np.ascontiguousarray(x.data.swapaxes(-1, -2))
    return _make(y, (x,), lambda g: (g.swapaxes(-1, -2),), "transpose_last2", check=False)


def concat_channels(tensors, axis: int = 1) -> Tensor:
    """Concatenate along the channel axis: 1 for [B, C, ...], 2 (or -1) for [B, L, C]."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat_channels needs at least one tensor")
    y = np.concatenate([t.data for t in ts], axis=axis)
    splits = np.cumsum([t.data.shape[axis] for t in ts])[:-1]
    return _make(y, tuple(ts), lambda g: np.split(g, splits, axis=axis), "concat_channels",
                 check=False)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements as a scalar tensor (float64 accumulation)."""
    x = _as_tensor(x)
    acc = float(np.sum(x.data, dtype=np.float64))
    y = np.asarray(acc, dtype=np.float32)
    out = _make(y, (x,), lambda g: (np.broadcast_to(g, x.data.shape),), "sum_all")
    out._f64 = acc
    return out


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error over all elements, as a scalar tensor."""
    a, b = _as_tensor(a), _as_tensor(b)
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
    x = _as_tensor(x)
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.data))
    y = x.data * s
    return _make(y, (x,), lambda g: (g * (s * (1.0 + x.data * (1.0 - s))),), "silu")


def softmax_lastdim(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    z = x.data.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y64 = e / e.sum(axis=-1, keepdims=True)
    y = y64.astype(np.float32)

    def backward(g):
        gy = g * y
        return (gy - y * gy.sum(axis=-1, keepdims=True),)

    return _make(y, (x,), backward, "softmax_lastdim")


def _group_norm_cl(x: Tensor, groups: int, gamma: Tensor, beta: Tensor, eps: float,
                   silu_out: bool, op: str) -> Tensor:
    """Group norm over a channels-last [B, L, C] tensor, then affine, then
    optionally SiLU, as one op.

    The statistics accumulate in float64, per-(b, c) sums over the length
    and then per group, without a float64 copy of x: first the mean, then
    the variance of xc = x - mean. With x_hat = inv * xc, normalization and
    affine fold into z = a * xc + beta. The backward forms the per-(b, c)
    sums of dz and dz * xc once (BLAS over the length, float64 after) and
    writes dx = a * dz + b * xc + c, with inv folded into the per-(b, c)
    coefficients.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if eps <= 0:
        raise ValueError("group_norm eps must be positive")
    if x.data.ndim != 3:
        raise ValueError(f"{op} expects [B, L, C], got {x.data.shape}")
    B, L, C = x.data.shape
    if C % groups != 0:
        raise ValueError(f"channels {C} not divisible by groups {groups}")
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise ValueError("gamma/beta must have shape [C]")
    n = L * (C // groups)

    def per_group(v):  # [B, C] per-channel sums -> each channel's group sum
        return np.repeat(v.reshape(B, groups, -1).sum(axis=2), C // groups, axis=1)

    xd = x.data
    mean = per_group(np.einsum("blc->bc", xd, dtype=np.float64)) / n
    mean32 = mean.astype(np.float32)
    xc = xd - mean32[:, None, :]
    # two-pass variance: xc is centred up to the rounding of mean32
    shift = mean - mean32
    var = per_group(np.einsum("blc->bc", xc * xc, dtype=np.float64)) / n - shift * shift
    inv = 1.0 / np.sqrt(np.maximum(var, 0.0) + eps)
    gam = gamma.data.astype(np.float64)
    scale = (inv * gam).astype(np.float32)[:, None, :]
    z = xc * scale
    z += beta.data
    if silu_out:
        s = z * 0.5  # sigmoid(z) = (1 + tanh(z / 2)) / 2
        np.tanh(s, out=s)
        s *= 0.5
        s += 0.5
        y = z * s
    else:
        y = z

    def backward(g):
        if silu_out:
            dz = 1.0 - s  # silu'(z) = s + y * (1 - s)
            dz *= y
            dz += s
            dz *= g
        else:
            dz = g
        ones = np.ones(L, dtype=np.float32)
        sum_dz = (ones @ dz).astype(np.float64)
        sum_dzxh = inv * (ones @ (dz * xc))
        m1 = per_group(gam * sum_dz) / n
        m2 = per_group(gam * sum_dzxh) / n
        # dx = inv * (gamma * dz - m1 - x_hat * m2), x_hat = inv * xc
        gx = dz * scale
        gx -= xc * (inv * inv * m2).astype(np.float32)[:, None, :]
        gx -= (inv * m1).astype(np.float32)[:, None, :]
        return gx, sum_dzxh.sum(axis=0), sum_dz.sum(axis=0)

    return _make(y, (x, gamma, beta), backward, op)


def group_norm_silu_cl(x: Tensor, groups: int, gamma: Tensor, beta: Tensor,
                       eps: float = 1e-5) -> Tensor:
    """silu(group_norm(x)) for a channels-last [B, L, C] tensor, as one op."""
    return _group_norm_cl(x, groups, gamma, beta, eps, True, "group_norm_silu_cl")


def group_norm(x: Tensor, groups: int, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize per (batch, group) slice of a [B, C, L] tensor, then affine."""
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise ValueError(f"group_norm expects [B, C, L], got {x.data.shape}")
    y = _group_norm_cl(transpose_last2(x), groups, gamma, beta, eps, False, "group_norm")
    return transpose_last2(y)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def linear(x: Tensor, W: Tensor, b: Tensor | None = None) -> Tensor:
    """x[..., In] @ W[In, Out] (+ b[Out])."""
    x, W = _as_tensor(x), _as_tensor(W)
    if x.data.shape[-1] != W.data.shape[0]:
        raise ValueError(f"linear shape mismatch: {x.data.shape} @ {W.data.shape}")
    y = x.data @ W.data
    if b is not None:
        b = _as_tensor(b)
        y = y + b.data

    def backward(g):
        gf = g.reshape(-1, g.shape[-1])
        grads = (g @ W.data.T, x.data.reshape(-1, x.data.shape[-1]).T @ np.ascontiguousarray(gf))
        return grads if b is None else grads + (gf.sum(axis=0, dtype=np.float64),)

    inputs = (x, W) if b is None else (x, W, b)
    return _make(y, inputs, backward, "linear")


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul: [B, M, K] @ [B, K, N]."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 3 or b.data.ndim != 3 or a.data.shape[2] != b.data.shape[1] or a.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"bmm shape mismatch: {a.data.shape} @ {b.data.shape}")
    y = a.data @ b.data
    return _make(y, (a, b), lambda g: (g @ b.data.swapaxes(1, 2), a.data.swapaxes(1, 2) @ g), "bmm")


def embedding(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup: table[V, D] indexed by an integer array."""
    table = _as_tensor(table)
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("embedding indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ValueError(f"embedding index out of range [0, {table.data.shape[0]})")
    y = table.data[idx]

    def backward(g):
        acc = np.zeros_like(table.data)
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

    x: [B, L, Cin], w: [Cout, Cin, K], b: [Cout]; returns [B, L, Cout]. The
    input gradient is the same shifted-GEMM convolution of the output
    gradient with the channel-transposed, length-flipped kernel.
    """
    x, w = _as_tensor(x), _as_tensor(w)
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

    y = _conv_taps(x.data, w.data)
    if b is not None:
        b = _as_tensor(b)
        if b.data.shape != (Cout,):
            raise ValueError(f"conv1d bias must have shape [{Cout}]")
        y += b.data

    def backward(g):
        gx = _conv_taps(g, w.data.transpose(1, 0, 2)[:, :, ::-1])
        grads = (gx, _conv_weight_grad(x.data, g, K))
        if b is None:
            return grads
        return grads + (np.ones(B * L, dtype=np.float32) @ g.reshape(B * L, Cout),)

    inputs = (x, w) if b is None else (x, w, b)
    return _make(y, inputs, backward, "conv1d")


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """conv1d_cl for a [B, Cin, L] tensor; returns [B, Cout, L]."""
    x = _as_tensor(x)
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
    x = _as_tensor(x)
    shape, pair_axis = _pairs(x.data.shape, axis, "maxpool1d_k2")
    first, second = np.moveaxis(x.data.reshape(shape), pair_axis, 0)
    take_first = first >= second  # ties go to the first of the pair
    y = np.where(take_first, first, second)

    def backward(g):
        gp = np.zeros(shape, dtype=np.float32)
        g_first, g_second = np.moveaxis(gp, pair_axis, 0)
        np.copyto(g_first, g, where=take_first)
        np.copyto(g_second, g, where=~take_first)
        return (gp.reshape(x.data.shape),)

    return _make(y, (x,), backward, "maxpool1d_k2", check=False)


def upsample_nearest_2x(x: Tensor, axis: int = -1) -> Tensor:
    """Nearest-neighbor upsampling along the length axis (2x): the last for
    [B, C, L], axis 1 for [B, L, C]."""
    x = _as_tensor(x)
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

    Consumes the tape: calling again without a new tracked forward pass
    raises. Every requires_grad tensor touched by the pass ends up with
    dLoss/dtensor summed into .grad. This is the only code that writes an op
    input's .grad, and it never writes a gradient array in place.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    st = _state()
    if not st.tape:
        raise RuntimeError("backward on an empty tape (no tracked forward pass)")
    loss.grad = np.ones_like(loss.data)
    for out, inputs, backward_fn in reversed(st.tape):
        if out.grad is None:
            continue
        for t, g in zip(inputs, backward_fn(out.grad), strict=True):
            if t.requires_grad:
                g = _unbroadcast(np.asarray(g, dtype=np.float32), t.data.shape)
                t.grad = g if t.grad is None else t.grad + g
    st.tape = []


# ---------------------------------------------------------------------------
# BLAS threads
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


# The thread count is process-wide, so overlapping single_threaded_blas blocks
# (pools on two threads) share one saved count: the first to enter saves it,
# the last to leave restores it.
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_saved = 0


@contextlib.contextmanager
def single_threaded_blas():
    """Run the block with OpenBLAS at one thread, then restore the caller's count.

    The count comes back whether the block returns or raises. Yields the count
    in force inside the block, or None (changing nothing) when no OpenBLAS can
    be controlled. The setting is process-wide: other threads that call BLAS
    meanwhile run single-threaded too.
    """
    global _blas_holders, _blas_saved
    lib = _openblas()
    if lib is None:
        yield None
        return
    get, set_ = lib
    with _blas_lock:
        if _blas_holders == 0:
            _blas_saved = get()
            set_(1)
        _blas_holders += 1
    try:
        yield int(get())
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                set_(_blas_saved)
