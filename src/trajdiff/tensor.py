"""Dense float32 tensors with reverse-mode autodiff and the 1D layer kit.

Storage is float32, row-major numpy; reductions and normalization statistics
accumulate in float64 so finite-difference gradient checks stay meaningful.
Every forward op verifies its output is finite and raises NumericError
otherwise: NaN/Inf never propagates silently.

Tracking uses a thread-local tape (a Wengert list). Ops append a backward
closure when grad mode is on and some input requires grad; backward() walks
the tape in exact reverse execution order and then consumes it, so a second
backward without a new forward pass raises. Independent threads own
independent tapes.
"""

from __future__ import annotations

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

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        # scalar reductions keep their float64 accumulation for callers that
        # need it (finite-difference oracles); storage stays float32
        if self._f64 is not None:
            return self._f64
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

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


def _accum(t: Tensor, g: np.ndarray, own: bool = False) -> None:
    """Add g into t.grad; own=True promises g is freshly allocated."""
    g = np.asarray(g, dtype=np.float32)
    if t.grad is None:
        if g.shape != t.data.shape:
            t.grad = np.broadcast_to(g, t.data.shape).astype(np.float32)
        else:
            t.grad = g if own else g.copy()
    else:
        t.grad += g


def _make(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn, op: str,
          check: bool = True) -> Tensor:
    """Wrap an op result; record the backward closure when tracking.

    check=False is for pure data-movement ops that cannot create
    non-finite values from finite inputs.
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

        def node():
            if out.grad is None:
                return
            backward_fn(out.grad)

        st.tape.append(node)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
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
    y = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make(y, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    y = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(y, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    y = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape), own=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape), own=True)

    return _make(y, (a, b), backward, "mul")


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    old = x.data.shape
    y = x.data.reshape(shape)

    def backward(g):
        if x.requires_grad:
            _accum(x, g.reshape(old))

    return _make(y, (x,), backward, "reshape", check=False)


def transpose_last2(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    y = np.ascontiguousarray(x.data.swapaxes(-1, -2))

    def backward(g):
        if x.requires_grad:
            _accum(x, g.swapaxes(-1, -2))

    return _make(y, (x,), backward, "transpose_last2", check=False)


def concat_channels(tensors) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat_channels needs at least one tensor")
    y = np.concatenate([t.data for t in ts], axis=1)
    splits = np.cumsum([t.data.shape[1] for t in ts])[:-1]

    def backward(g):
        parts = np.split(g, splits, axis=1)
        for t, p in zip(ts, parts):
            if t.requires_grad:
                _accum(t, p)

    return _make(y, tuple(ts), backward, "concat_channels", check=False)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements as a scalar tensor (float64 accumulation)."""
    x = _as_tensor(x)
    acc = float(np.sum(x.data, dtype=np.float64))
    y = np.asarray(acc, dtype=np.float32)

    def backward(g):
        if x.requires_grad:
            _accum(x, np.broadcast_to(g, x.data.shape))

    out = _make(y, (x,), backward, "sum_all")
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
        scale = 2.0 / n
        gd = (g * scale) * diff.astype(np.float32)
        if a.requires_grad:
            _accum(a, gd, own=True)
        if b.requires_grad:
            _accum(b, -gd, own=True)

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

    def backward(g):
        if x.requires_grad:
            _accum(x, g * (s * (1.0 + x.data * (1.0 - s))), own=True)

    return _make(y, (x,), backward, "silu")


def softmax_lastdim(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    z = x.data.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y64 = e / e.sum(axis=-1, keepdims=True)
    y = y64.astype(np.float32)

    def backward(g):
        if x.requires_grad:
            gy = g * y
            _accum(x, gy - y * gy.sum(axis=-1, keepdims=True), own=True)

    return _make(y, (x,), backward, "softmax_lastdim")


def group_norm(x: Tensor, groups: int, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize per (batch, group) slice of a [B, C, L] tensor, then affine."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if eps <= 0:
        raise ValueError("group_norm eps must be positive")
    if x.data.ndim != 3:
        raise ValueError(f"group_norm expects [B, C, L], got {x.data.shape}")
    B, C, L = x.data.shape
    if C % groups != 0:
        raise ValueError(f"channels {C} not divisible by groups {groups}")
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise ValueError("gamma/beta must have shape [C]")

    # statistics accumulate in float64; elementwise math stays float32
    xg = x.data.reshape(B, groups, (C // groups) * L)
    mean = xg.mean(axis=2, dtype=np.float64)
    var = np.square(xg, dtype=np.float64).mean(axis=2, dtype=np.float64) - mean * mean
    inv = 1.0 / np.sqrt(np.maximum(var, 0.0) + eps)
    mean32 = mean.astype(np.float32)[:, :, None]
    inv32 = inv.astype(np.float32)[:, :, None]
    xhat = ((xg - mean32) * inv32).reshape(B, C, L)
    y = xhat * gamma.data[None, :, None] + beta.data[None, :, None]

    def backward(g):
        if gamma.requires_grad:
            _accum(gamma, (g * xhat).sum(axis=(0, 2), dtype=np.float64), own=True)
        if beta.requires_grad:
            _accum(beta, g.sum(axis=(0, 2), dtype=np.float64), own=True)
        if x.requires_grad:
            gh = (g * gamma.data[None, :, None]).reshape(B, groups, (C // groups) * L)
            xh = xhat.reshape(B, groups, (C // groups) * L)
            m1 = gh.mean(axis=2, dtype=np.float64).astype(np.float32)[:, :, None]
            m2 = (gh * xh).mean(axis=2, dtype=np.float64).astype(np.float32)[:, :, None]
            gx = inv32 * (gh - m1 - xh * m2)
            _accum(x, gx.reshape(B, C, L), own=True)

    return _make(y, (x, gamma, beta), backward, "group_norm")


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
        if x.requires_grad:
            _accum(x, g @ W.data.T, own=True)
        if W.requires_grad:
            xf = x.data.reshape(-1, x.data.shape[-1])
            gf = np.ascontiguousarray(g.reshape(-1, g.shape[-1]))
            _accum(W, xf.T @ gf, own=True)
        if b is not None and b.requires_grad:
            _accum(b, g.reshape(-1, g.shape[-1]).sum(axis=0, dtype=np.float64), own=True)

    inputs = (x, W) if b is None else (x, W, b)
    return _make(y, inputs, backward, "linear")


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul: [B, M, K] @ [B, K, N]."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 3 or b.data.ndim != 3 or a.data.shape[2] != b.data.shape[1] or a.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"bmm shape mismatch: {a.data.shape} @ {b.data.shape}")
    y = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ b.data.swapaxes(1, 2), own=True)
        if b.requires_grad:
            _accum(b, a.data.swapaxes(1, 2) @ g, own=True)

    return _make(y, (a, b), backward, "bmm")


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
        if table.requires_grad:
            acc = np.zeros_like(table.data)
            np.add.at(acc, idx, g)
            _accum(table, acc, own=True)

    return _make(y, (table,), backward, "embedding")


# ---------------------------------------------------------------------------
# 1D conv / pooling / upsampling
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, K: int, pad: int) -> np.ndarray:
    """[B, C, L] -> [B*L, C*K] window matrix (zero padded, stride 1).

    Filled with one shifted slice copy per tap: several times faster than
    copying a sliding-window view with a length-K inner axis.
    """
    B, C, L = x.shape
    xt = x.transpose(0, 2, 1)  # [B, L, C]
    cols = np.zeros((B, L, C, K), dtype=x.dtype)
    for k in range(K):
        s = k - pad
        lo, hi = max(0, -s), min(L, L - s)
        if lo < hi:
            cols[:, lo:hi, :, k] = xt[:, lo + s:hi + s, :]
    return cols.reshape(B * L, C * K)


def _conv_raw(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Core same-padding convolution; returns (y [B,Cout,L], im2col matrix)."""
    B, Cin, L = x.shape
    Cout, _, K = w.shape
    cols = _im2col(x, K, K // 2)
    y = (cols @ w.reshape(Cout, Cin * K).T).reshape(B, L, Cout)
    return np.ascontiguousarray(y.transpose(0, 2, 1)), cols


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Shape-preserving 1D convolution: stride 1, zero padding (k-1)/2, odd k.

    x: [B, Cin, L], w: [Cout, Cin, K], b: [Cout]. Runs as im2col plus one
    matmul; the input gradient is the convolution of the output gradient
    with the channel-transposed, length-flipped kernel.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ValueError(f"conv1d expects x[B,Cin,L], w[Cout,Cin,K], got {x.data.shape}, {w.data.shape}")
    B, Cin, L = x.data.shape
    Cout, CinW, K = w.data.shape
    if Cin != CinW:
        raise ValueError(f"conv1d channel mismatch: x has {Cin}, w expects {CinW}")
    if L == 0:
        raise ValueError("conv1d on zero-length input")
    if K % 2 == 0:
        raise ValueError("conv1d kernel size must be odd")

    y, cols = _conv_raw(x.data, w.data)
    if b is not None:
        b = _as_tensor(b)
        if b.data.shape != (Cout,):
            raise ValueError(f"conv1d bias must have shape [{Cout}]")
        y += b.data[None, :, None]

    def backward(g):
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=(0, 2), dtype=np.float64), own=True)
        if w.requires_grad:
            gf = g.transpose(0, 2, 1).reshape(B * L, Cout)
            _accum(w, (gf.T @ cols).reshape(Cout, Cin, K), own=True)
        if x.requires_grad:
            wt = np.ascontiguousarray(w.data.transpose(1, 0, 2)[:, :, ::-1])
            _accum(x, _conv_raw(np.ascontiguousarray(g), wt)[0], own=True)

    inputs = (x, w) if b is None else (x, w, b)
    return _make(y, inputs, backward, "conv1d")


def maxpool1d_k2(x: Tensor) -> Tensor:
    """Non-overlapping max pooling with window 2; halves the length axis."""
    x = _as_tensor(x)
    L = x.data.shape[-1]
    if L == 0 or L % 2 != 0:
        raise ValueError(f"maxpool1d_k2 needs a positive even length, got {L}")
    pairs = x.data.reshape(x.data.shape[:-1] + (L // 2, 2))
    arg = pairs.argmax(axis=-1)
    y = np.take_along_axis(pairs, arg[..., None], axis=-1)[..., 0]

    def backward(g):
        if x.requires_grad:
            gp = np.zeros_like(pairs)
            np.put_along_axis(gp, arg[..., None], g[..., None], axis=-1)
            _accum(x, gp.reshape(x.data.shape), own=True)

    return _make(y, (x,), backward, "maxpool1d_k2", check=False)


def upsample_nearest_2x(x: Tensor) -> Tensor:
    """Nearest-neighbor upsampling along the length axis (2x)."""
    x = _as_tensor(x)
    y = np.repeat(x.data, 2, axis=-1)

    def backward(g):
        if x.requires_grad:
            _accum(x, g.reshape(g.shape[:-1] + (g.shape[-1] // 2, 2)).sum(axis=-1), own=True)

    return _make(y, (x,), backward, "upsample_nearest_2x", check=False)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the recorded tape.

    Consumes the tape: calling again without a new tracked forward pass
    raises. Every requires_grad tensor touched by the pass ends up with
    dLoss/dtensor accumulated into .grad.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    st = _state()
    if not st.tape:
        raise RuntimeError("backward on an empty tape (no tracked forward pass)")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(st.tape):
        node()
    st.tape = []
