"""Binary model checkpoints.

Layout: 5-byte magic ``TDCK1``, uint32 little-endian header length, a UTF-8
JSON header (schema version, model config, schedule parameters, normalization
stats, grid spec, training step count, seed, and a parameter table with name,
shape, offset and byte size), then the payload of concatenated little-endian
float32 arrays. Reloading reproduces parameters bit-exactly.
"""

from __future__ import annotations

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


def save_checkpoint(path, model: TrajUNet, sched: NoiseSchedule, norm: NormStats,
                    grid: GridSpec, train_steps: int, seed: int) -> None:
    entries = []
    blobs = []
    offset = 0
    for name, p in model.params.items():
        raw = np.ascontiguousarray(p.data, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(p.data.shape),
                        "offset": offset, "nbytes": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    header = {
        "schema_version": SCHEMA_VERSION,
        "config": model.config.to_dict(),
        "schedule": {"T": sched.T, "beta_start": sched.beta_start, "beta_end": sched.beta_end},
        "norm": norm.to_dict(),
        "grid": grid.to_dict(),
        "train_steps": int(train_steps),
        "seed": int(seed),
        "params": entries,
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(head).to_bytes(4, "little"))
        fh.write(head)
        for b in blobs:
            fh.write(b)


def load_checkpoint(path) -> tuple[TrajUNet, NoiseSchedule, NormStats, GridSpec, dict]:
    """Read a checkpoint; any malformed, inconsistent or truncated content
    raises DataError. The parameter table must name exactly the parameters
    that param_specs lists for the stored config, with the same shapes, and
    is checked before any weight is allocated."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 or blob[:len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    head_len = int.from_bytes(blob[5:9], "little")
    head_end = 9 + head_len
    if head_end > len(blob):
        raise DataError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[9:head_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
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
        shapes = {k: shape for k, shape, _ in itertools.islice(param_specs(config), len(table) + 1)}
    except (DataError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: invalid checkpoint header: {e!r}") from e
    if not (type(grid.rows) is type(grid.cols) is int and grid.n_cells <= NUM_GRID_CELLS):
        raise DataError(f"{path}: grid must have at most {NUM_GRID_CELLS} integer cells")
    if not type(header.get("train_steps")) is type(header.get("seed")) is int:
        raise DataError(f"{path}: checkpoint header lacks an integer train_steps or seed")

    payload = blob[head_end:]
    params: dict[str, Tensor] = {}
    for e in table:
        name = e.get("name") if isinstance(e, dict) else None
        if not isinstance(name, str) or name not in shapes or name in params:
            raise DataError(f"{path}: unexpected or repeated parameter entry {str(e)[:80]}")
        shape = shapes[name]
        if e.get("shape") != list(shape):
            raise DataError(f"{path}: parameter {name!r} has shape {e.get('shape')}, "
                            f"expected {list(shape)}")
        lo, nbytes = e.get("offset"), e.get("nbytes")
        if not (type(lo) is type(nbytes) is int and lo >= 0 and nbytes == 4 * math.prod(shape)):
            raise DataError(f"{path}: parameter {name!r} has a bad offset or byte size")
        if lo + nbytes > len(payload):
            raise DataError(f"{path}: truncated payload for parameter {name!r}")
        arr = np.frombuffer(payload[lo:lo + nbytes], dtype="<f4").reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: parameter {name!r} has non-finite weights")
        params[name] = Tensor(arr, requires_grad=True)
    missing = shapes.keys() - params.keys()
    if missing:
        raise DataError(f"{path}: checkpoint lacks parameters {sorted(missing)}")

    model = TrajUNet(config, params=params)
    return model, sched, norm, grid, header
