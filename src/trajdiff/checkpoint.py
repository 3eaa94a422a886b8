"""Binary model checkpoints.

Layout: 5-byte magic ``TDCK1``, uint32 little-endian header length, a UTF-8
JSON header (schema version, model config, schedule parameters, normalization
stats, grid spec, training step count, seed, and the parameter table), then
the payload: each parameter's little-endian float32 bytes in table order.

One rule, ``_layout``, makes the parameter table from the config: one entry
(name, shape, offset, nbytes) per ``unet.param_specs`` entry, in spec order,
each offset where the previous entry ends. The writer writes that table and
the loader accepts only that table, so the config alone fixes every byte
offset. Reloading reproduces parameters bit-exactly.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

from .errors import DataError
from .schedule import NoiseSchedule, linear_beta_schedule
from .tensor import Tensor
from .trajdata import NUM_GRID_CELLS, GridSpec, NormStats
from .unet import TrajUNet, TrajUNetConfig, param_specs

MAGIC = b"TDCK1"
SCHEMA_VERSION = 1


def _layout(specs) -> list[dict]:
    """The parameter table of (name, shape, init) specs: one entry each, in
    order, packed from offset 0 with no gaps."""
    table, offset = [], 0
    for name, shape, _ in specs:
        table.append({"name": name, "nbytes": 4 * math.prod(shape), "offset": offset,
                      "shape": list(shape)})
        offset += table[-1]["nbytes"]
    return table


def save_checkpoint(path, model: TrajUNet, sched: NoiseSchedule, norm: NormStats,
                    grid: GridSpec, train_steps: int, seed: int) -> None:
    """Write the model under the table its config implies; ValueError unless
    model.params holds exactly the names and shapes of param_specs."""
    table = _layout(param_specs(model.config))
    want = {e["name"]: e["shape"] for e in table}
    have = {k: list(p.data.shape) for k, p in model.params.items()}
    if have != want:
        bad = sorted(k for k in want.keys() | have.keys() if have.get(k) != want.get(k))
        raise ValueError(f"parameters {bad[:5]} do not match param_specs of the model config")
    header = {
        "schema_version": SCHEMA_VERSION,
        "config": model.config.to_dict(),
        "schedule": {"T": sched.T, "beta_start": sched.beta_start, "beta_end": sched.beta_end},
        "norm": norm.to_dict(),
        "grid": grid.to_dict(),
        "train_steps": int(train_steps),
        "seed": int(seed),
        "params": table,
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + len(head).to_bytes(4, "little") + head)
        for e in table:
            fh.write(np.ascontiguousarray(model.params[e["name"]].data, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[TrajUNet, NoiseSchedule, NormStats, GridSpec, dict]:
    """Read a checkpoint; any malformed, inconsistent or truncated content
    raises DataError before any weight is allocated. The parameter table
    must equal, as JSON values, the one _layout makes from the stored config,
    and the payload must be exactly as long as that table says."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 or blob[:len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    head_end = 9 + int.from_bytes(blob[5:9], "little")
    if head_end > len(blob):
        raise DataError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[9:head_end].decode("utf-8"))
    except (RecursionError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: corrupt checkpoint header: {e}") from e
    if not isinstance(header, dict):
        raise DataError(f"{path}: corrupt checkpoint header: not a JSON object")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise DataError(f"{path}: unsupported checkpoint schema version "
                        f"{header.get('schema_version')!r} (expected {SCHEMA_VERSION})")

    table = header.get("params")
    if not isinstance(table, list):
        raise DataError(f"{path}: checkpoint header lacks a parameter table")
    try:
        config = TrajUNetConfig.from_dict(header["config"])
        s = header["schedule"]
        sched = linear_beta_schedule(s["T"], s["beta_start"], s["beta_end"])
        norm = NormStats.from_dict(header["norm"])
        grid = GridSpec.from_dict(header["grid"])
        # one spec past the table's length shows the table is short, so a
        # huge block count in the config cannot make this walk long
        layout = _layout(itertools.islice(param_specs(config), len(table) + 1))
    except (DataError, KeyError, OverflowError, TypeError, ValueError) as e:
        raise DataError(f"{path}: invalid checkpoint header: {e!r}") from e
    if not (type(grid.rows) is type(grid.cols) is int and grid.n_cells <= NUM_GRID_CELLS):
        raise DataError(f"{path}: grid must have at most {NUM_GRID_CELLS} integer cells")
    if not type(header.get("train_steps")) is type(header.get("seed")) is int:
        raise DataError(f"{path}: checkpoint header lacks an integer train_steps or seed")

    # compared as JSON text, so 0.0 or true never stand in for 0 or 1
    dump = functools.partial(json.dumps, sort_keys=True)
    for i, (h, w) in enumerate(itertools.zip_longest(map(dump, table), map(dump, layout))):
        if h != w:
            why = ("checkpoint lacks parameters" if h is None else "unexpected parameter"
                   if w is None else "wrong parameter")
            raise DataError(f"{path}: {why} at table entry {i}: file has "
                            f"{(h or 'nothing')[:200]}, expected {w or 'nothing'}")
    size, got = sum(e["nbytes"] for e in layout), len(blob) - head_end
    if got != size:
        raise DataError(f"{path}: {'truncated' if got < size else 'overlong'} payload of "
                        f"{got} bytes, expected {size}")

    flat = np.frombuffer(blob, dtype="<f4", offset=head_end).copy()
    finite = np.isfinite(flat)
    if not finite.all():
        at = 4 * int(finite.argmin())
        name = next(e["name"] for e in layout if at < e["offset"] + e["nbytes"])
        raise DataError(f"{path}: parameter {name!r} has non-finite weights")
    params = {e["name"]: Tensor(flat[e["offset"] // 4:(e["offset"] + e["nbytes"]) // 4]
                                .reshape(e["shape"]), requires_grad=True) for e in layout}
    return TrajUNet(config, params=params), sched, norm, grid, header
