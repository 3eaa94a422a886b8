"""1D UNet denoiser: residual conv blocks, bottleneck attention, sinusoidal
step embedding, and a wide & deep encoder for trip conditions.

Parameters live in one float32 vector per model, ``model.flat``; each one is
a Tensor over its view of that vector, laid out by ``param_layout``, and
``model.params`` maps the names to them in layout order. The names, shapes
and layout are the checkpoint contract. All forward math runs through the
autodiff layer kit in ``trajdiff.tensor``. The model takes and returns
[B, C, L] tensors; inside, from the stem to the output conv, activations are
channels-last [B, L, C].
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as tz
from .errors import NumericError
from .tensor import Tensor
from .trajdata import NUM_DEPARTURE_SLOTS, NUM_GRID_CELLS, NUM_NUMERIC_ATTRS, ConditionBatch
# re-exported: tests/test_acceptance.py imports both condition types from this module
from .trajdata import ConditionVector  # noqa: F401


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# Most points per modelled trajectory: 20x the paper's length of 200, and a
# cap on the [B, 2, length] arrays that training and sampling allocate.
MAX_LENGTH = 4096
# Most base channels: 4x the paper's 64. The parameter count grows with its
# square; at the default multipliers 256 gives 65.0M float32 parameters (248 MiB).
MAX_BASE_CHANNELS = 256


@dataclass(frozen=True)
class TrajUNetConfig:
    length: int = 64
    in_channels: int = 2
    base_channels: int = 16
    channel_multipliers: tuple[int, ...] = (1, 2, 2, 4)
    resnet_blocks_per_level: int = 2
    time_embed_dim: int = 128
    cond_embed_dim: int = 128
    groups: int = 8

    def __post_init__(self):
        levels = len(self.channel_multipliers)
        if levels < 1:
            raise ValueError("need at least one sampling level")
        if min(self.in_channels, self.base_channels, *self.channel_multipliers,
               self.time_embed_dim) < 1:
            raise ValueError("channel counts and the embedding dimension must be positive")
        if self.length > MAX_LENGTH:
            raise ValueError(f"length {self.length} exceeds the cap of {MAX_LENGTH}")
        if self.base_channels > MAX_BASE_CHANNELS:
            raise ValueError(f"base_channels {self.base_channels} exceeds the cap of "
                             f"{MAX_BASE_CHANNELS}")
        down = 2 ** (levels - 1)
        if self.length % down != 0 or self.length < 2 * down:
            raise ValueError(f"length {self.length} incompatible with {levels} levels "
                             f"(must be a multiple of {down})")
        if self.time_embed_dim % 2 != 0:
            raise ValueError("time embedding dimension must be even")
        if self.cond_embed_dim != self.time_embed_dim:
            raise ValueError("condition and time embeddings must share one dimension")

    @property
    def levels(self) -> int:
        return len(self.channel_multipliers)

    @property
    def channels(self) -> tuple[int, ...]:
        return tuple(self.base_channels * m for m in self.channel_multipliers)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrajUNetConfig":
        d = dict(d)
        d["channel_multipliers"] = tuple(d["channel_multipliers"])
        return cls(**d)


def _gn_groups(groups: int, channels: int) -> int:
    return math.gcd(groups, channels)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def sinusoidal_time_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Deterministic step encoding of a [B] array of steps: sin(t / 10000^(2i/dim))
    then cos of the same, as [B, dim]."""
    if dim % 2 != 0:
        raise ValueError("embedding dimension must be even")
    i = np.arange(dim // 2, dtype=np.float64)
    freq = np.power(10000.0, -2.0 * i / dim)
    ang = np.asarray(t, dtype=np.float64)[:, None] * freq[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1).astype(np.float32)


def time_mlp(emb: Tensor, params: dict) -> Tensor:
    """Two-layer SiLU MLP over the step encoding (the time_mlp.* parameters)."""
    h = tz.linear(emb, params["time_mlp.fc1.W"], params["time_mlp.fc1.b"])
    h = tz.silu(h)
    return tz.linear(h, params["time_mlp.fc2.W"], params["time_mlp.fc2.b"])


def wide_deep_embed(cond: ConditionBatch, params: dict) -> Tensor:
    """Wide linear path over numerics plus deep embedding-table path over
    categoricals (the cond.* parameters). A null row, which training's
    condition dropout marks, embeds to exact zero."""
    wide = tz.linear(Tensor(cond.numeric), params["cond.wide.W"], params["cond.wide.b"])
    e_slot = tz.embedding(params["cond.deep.slot"], cond.slot)
    e_org = tz.embedding(params["cond.deep.origin"], cond.origin)
    e_dst = tz.embedding(params["cond.deep.dest"], cond.dest)
    deep = tz.concat_channels([e_slot, e_org, e_dst])
    deep = tz.linear(deep, params["cond.deep.fc1.W"], params["cond.deep.fc1.b"])
    deep = tz.silu(deep)
    deep = tz.linear(deep, params["cond.deep.fc2.W"], params["cond.deep.fc2.b"])
    out = tz.add(wide, deep)
    keep = (~cond.is_null).astype(np.float32)[:, None]
    return tz.mul(out, Tensor(keep))


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def resnet_block(x: Tensor, emb: Tensor, params: dict, prefix: str, groups: int) -> Tensor:
    """GN -> SiLU -> conv1 with the projected embedding as a per-(b, c) bias,
    GN -> SiLU -> conv2, skip.

    x is channels-last [B, L, C]. Channel change happens in the first conv;
    the skip is identity when the channel count is preserved, else a
    kernel-1 conv.
    """
    c_in = x.shape[2]
    c_out = params[f"{prefix}.conv1.w"].shape[0]
    h = tz.group_norm_silu_cl(x, _gn_groups(groups, c_in), params[f"{prefix}.gn1.gamma"],
                              params[f"{prefix}.gn1.beta"])
    inj = tz.linear(emb, params[f"{prefix}.emb.W"], params[f"{prefix}.emb.b"])
    h = tz.conv1d_cl(h, params[f"{prefix}.conv1.w"], tz.add(inj, params[f"{prefix}.conv1.b"]))
    h = tz.group_norm_silu_cl(h, _gn_groups(groups, c_out), params[f"{prefix}.gn2.gamma"],
                              params[f"{prefix}.gn2.beta"])
    h = tz.conv1d_cl(h, params[f"{prefix}.conv2.w"], params[f"{prefix}.conv2.b"])
    if c_in != c_out:
        x = tz.conv1d_cl(x, params[f"{prefix}.skip.w"], params[f"{prefix}.skip.b"])
    return tz.add(h, x)


def attention_weights(x: Tensor, wq: Tensor, wk: Tensor) -> Tensor:
    """Row-stochastic attention matrix [B, L, L] over the length axis of a
    channels-last [B, L, C] tensor."""
    d = x.shape[2]
    q = tz.conv1d_cl(x, wq)
    k = tz.conv1d_cl(x, wk)
    scores = tz.bmm(q, tz.transpose_last2(k))
    scores = tz.mul(scores, 1.0 / math.sqrt(d))
    return tz.softmax_lastdim(scores)


def attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """Single-head residual attention over positions of a channels-last
    [B, L, C] tensor: x + softmax(QK'/sqrt(d)) V."""
    a = attention_weights(x, wq, wk)
    v = tz.conv1d_cl(x, wv)
    return tz.add(x, tz.bmm(a, v))


def middle_attention(x: Tensor, emb: Tensor, params: dict, prefix: str, groups: int) -> Tensor:
    """Bottleneck on a channels-last tensor: Resnet block, residual attention, Resnet block."""
    h = resnet_block(x, emb, params, f"{prefix}.res1", groups)
    h = attention(h, params[f"{prefix}.attn.wq"], params[f"{prefix}.attn.wk"], params[f"{prefix}.attn.wv"])
    return resnet_block(h, emb, params, f"{prefix}.res2", groups)


# ---------------------------------------------------------------------------
# parameter construction
# ---------------------------------------------------------------------------

def param_specs(config: TrajUNetConfig) -> Iterator[tuple[str, tuple[int, ...], str]]:
    """Yield (name, shape, init) for every parameter, in the order TrajUNet
    draws them. Names and shapes are the checkpoint contract; listing them
    allocates no weights.

    init is "ones" or "zeros", "conv" or "linear" (He normal over the
    fan-in of a [Cout, Cin, K] kernel or an [In, Out] matrix), or "table"
    (normal, std 0.3).
    """
    emb_dim = config.time_embed_dim

    def resnet(prefix: str, c_in: int, c_out: int):
        yield f"{prefix}.gn1.gamma", (c_in,), "ones"
        yield f"{prefix}.gn1.beta", (c_in,), "zeros"
        yield f"{prefix}.conv1.w", (c_out, c_in, 3), "conv"
        yield f"{prefix}.conv1.b", (c_out,), "zeros"
        yield f"{prefix}.emb.W", (emb_dim, c_out), "linear"
        yield f"{prefix}.emb.b", (c_out,), "zeros"
        yield f"{prefix}.gn2.gamma", (c_out,), "ones"
        yield f"{prefix}.gn2.beta", (c_out,), "zeros"
        # zero-init: the block starts as skip + embedding injection only
        yield f"{prefix}.conv2.w", (c_out, c_out, 3), "zeros"
        yield f"{prefix}.conv2.b", (c_out,), "zeros"
        if c_in != c_out:
            yield f"{prefix}.skip.w", (c_out, c_in, 1), "conv"
            yield f"{prefix}.skip.b", (c_out,), "zeros"

    for fc in ("fc1", "fc2"):
        yield f"time_mlp.{fc}.W", (emb_dim, emb_dim), "linear"
        yield f"time_mlp.{fc}.b", (emb_dim,), "zeros"

    yield "cond.wide.W", (NUM_NUMERIC_ATTRS, emb_dim), "linear"
    yield "cond.wide.b", (emb_dim,), "zeros"
    # table rows start at unit-ish scale so the categorical (spatial) signal
    # is not drowned out by the wide numeric path early in training
    for name, vocab in (("slot", NUM_DEPARTURE_SLOTS), ("origin", NUM_GRID_CELLS), ("dest", NUM_GRID_CELLS)):
        yield f"cond.deep.{name}", (vocab, emb_dim), "table"
    yield "cond.deep.fc1.W", (3 * emb_dim, emb_dim), "linear"
    yield "cond.deep.fc1.b", (emb_dim,), "zeros"
    yield "cond.deep.fc2.W", (emb_dim, emb_dim), "linear"
    yield "cond.deep.fc2.b", (emb_dim,), "zeros"

    chans = config.channels
    yield "stem.w", (chans[0], config.in_channels, 3), "conv"
    yield "stem.b", (chans[0],), "zeros"

    c = chans[0]
    for i, ci in enumerate(chans):
        for j in range(config.resnet_blocks_per_level):
            yield from resnet(f"down{i}.block{j}", c, ci)
            c = ci

    for w in ("wq", "wk", "wv"):
        yield f"mid.attn.{w}", (c, c, 1), "conv"
    yield from resnet("mid.res1", c, c)
    yield from resnet("mid.res2", c, c)

    for i in reversed(range(config.levels)):
        ci = chans[i]
        for j in range(config.resnet_blocks_per_level):
            c_in = c + ci if j == 0 else ci
            yield from resnet(f"up{i}.block{j}", c_in, ci)
        c = ci

    yield "out.gn.gamma", (c,), "ones"
    yield "out.gn.beta", (c,), "zeros"
    # zero-init the output conv so the untrained model predicts zero noise
    yield "out.conv.w", (config.in_channels, c, 3), "zeros"
    yield "out.conv.b", (config.in_channels,), "zeros"


def param_layout(specs) -> list[dict]:
    """The parameter table of (name, shape, init) specs: one entry each, in
    order, packed from offset 0 with no gaps. Offsets and sizes are in bytes
    of float32, as the checkpoint header stores them."""
    table, offset = [], 0
    for name, shape, _ in specs:
        table.append({"name": name, "nbytes": 4 * math.prod(shape), "offset": offset,
                      "shape": list(shape)})
        offset += table[-1]["nbytes"]
    return table


def param_view(flat: np.ndarray, entry: dict) -> np.ndarray:
    """The view of a flat parameter vector that a param_layout entry names."""
    lo = entry["offset"] // 4
    return flat[lo:lo + entry["nbytes"] // 4].reshape(entry["shape"])


def _draw(rng: np.random.Generator, out: np.ndarray, init: str) -> None:
    """Fill out, one parameter's view, by its init rule (see param_specs)."""
    if init in ("ones", "zeros"):
        out.fill(1.0 if init == "ones" else 0.0)
        return
    if init == "conv":
        std = math.sqrt(2.0 / (out.shape[1] * out.shape[2]))
    elif init == "linear":
        std = math.sqrt(2.0 / out.shape[0])
    else:
        std = 0.3
    # row by row: the same numbers as one draw, through a small float64 buffer
    for row in out.reshape(len(out), -1):
        row[...] = rng.normal(0.0, std, size=row.size)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class TrajUNet:
    """Noise predictor over [B, 2, L] trajectory tensors.

    flat, a float32 vector of the layout's size, is wrapped as given;
    without it, rng draws each parameter of param_specs into its own view
    of a new vector, in spec order.
    """

    def __init__(self, config: TrajUNetConfig, flat: np.ndarray | None = None,
                 rng: np.random.Generator | None = None):
        self.config = config
        specs = list(param_specs(config))
        layout = param_layout(specs)
        size = sum(e["nbytes"] for e in layout) // 4
        draw = flat is None
        if draw:
            if rng is None:
                raise ValueError("need either a flat parameter vector or an rng to draw it")
            flat = np.empty(size, np.float32)
        elif flat.dtype != np.float32 or flat.shape != (size,):
            raise ValueError(f"flat parameters must be float32 of shape ({size},), "
                             f"got {flat.dtype} of shape {flat.shape}")
        self.flat = flat
        self.params = {}
        for (name, _, init), e in zip(specs, layout):
            view = param_view(flat, e)
            if draw:
                _draw(rng, view, init)
            self.params[name] = Tensor(view, requires_grad=True)

    def forward(self, x_t: np.ndarray, t: np.ndarray, cond: ConditionBatch | None) -> Tensor:
        """Predicted noise [B, C, L] for x_t at steps t. cond=None is the
        unconditional pass: the condition encoder is skipped and nothing is
        added to the step embedding, which is what a batch of null rows adds.

        The ops' finite checks are deferred (tensor._deferred_checks), in
        grad mode as under no_grad, and the output is checked once; if it is
        not finite, the pass runs again with every check on, so the
        NumericError names the first op whose output is not finite.
        """
        try:
            with tz._deferred_checks():
                out = self._forward(x_t, t, cond)
                tz._finite(out.data, "model output")
            return out
        except NumericError:
            return self._forward(x_t, t, cond)

    def _forward(self, x_t: np.ndarray, t: np.ndarray, cond: ConditionBatch | None) -> Tensor:
        cfg = self.config
        x_t = np.asarray(x_t, dtype=np.float32)
        if x_t.ndim != 3 or x_t.shape[1] != cfg.in_channels or x_t.shape[2] != cfg.length:
            raise ValueError(f"expected input [B, {cfg.in_channels}, {cfg.length}], got {x_t.shape}")
        B = x_t.shape[0]
        t = np.atleast_1d(np.asarray(t))
        if t.shape != (B,):
            raise ValueError(f"need one step index per batch element, got {t.shape}")
        if cond is not None and len(cond) != B:
            raise ValueError(f"batch/condition count mismatch: {B} vs {len(cond)}")

        p = self.params
        emb = time_mlp(Tensor(sinusoidal_time_embedding(t, cfg.time_embed_dim)), p)
        if cond is not None:
            emb = tz.add(emb, wide_deep_embed(cond, p))

        # channels-last [B, L, C] from the stem to the output conv
        h = tz.conv1d_cl(Tensor(x_t.transpose(0, 2, 1)), p["stem.w"], p["stem.b"])
        skips = []
        for i in range(cfg.levels):
            for j in range(cfg.resnet_blocks_per_level):
                h = resnet_block(h, emb, p, f"down{i}.block{j}", cfg.groups)
            skips.append(h)
            if i < cfg.levels - 1:
                h = tz.maxpool1d_k2(h, axis=1)

        h = middle_attention(h, emb, p, "mid", cfg.groups)

        for i in reversed(range(cfg.levels)):
            h = tz.concat_channels([h, skips[i]], axis=2)
            for j in range(cfg.resnet_blocks_per_level):
                h = resnet_block(h, emb, p, f"up{i}.block{j}", cfg.groups)
            if i > 0:
                h = tz.upsample_nearest_2x(h, axis=1)

        h = tz.group_norm_silu_cl(h, _gn_groups(cfg.groups, h.shape[2]), p["out.gn.gamma"],
                                  p["out.gn.beta"])
        return tz.transpose_last2(tz.conv1d_cl(h, p["out.conv.w"], p["out.conv.b"]))

    __call__ = forward
