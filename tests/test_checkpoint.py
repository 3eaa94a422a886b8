import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajdiff.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from trajdiff.errors import DataError
from trajdiff.rng import stream
from trajdiff.schedule import linear_beta_schedule
from trajdiff.trajdata import GridSpec, NormStats
from trajdiff.unet import TrajUNet, TrajUNetConfig


@pytest.fixture
def saved(tmp_path):
    cfg = TrajUNetConfig(length=16, base_channels=4, channel_multipliers=(1, 2),
                         resnet_blocks_per_level=1, groups=2)
    model = TrajUNet(cfg, rng=stream(1))
    sched = linear_beta_schedule(20, 1e-4, 0.05)
    norm = NormStats(lng_min=0.0, lng_max=0.16, lat_min=0.0, lat_max=0.16)
    grid = norm.grid()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, sched, norm, grid, train_steps=7, seed=1)
    return path, model, sched, norm, grid


class TestRoundtrip:
    def test_parameters_bit_exact(self, saved):
        path, model, *_ = saved
        loaded, *_ = load_checkpoint(path)
        assert set(loaded.params) == set(model.params)
        for k, p in model.params.items():
            assert loaded.params[k].data.tobytes() == p.data.tobytes()
            assert loaded.params[k].requires_grad

    def test_save_load_save_byte_identical(self, saved, tmp_path):
        path, *_ = saved
        loaded, sched, norm, grid, header = load_checkpoint(path)
        path2 = tmp_path / "m2.ckpt"
        save_checkpoint(path2, loaded, sched, norm, grid,
                        train_steps=header["train_steps"], seed=header["seed"])
        assert path.read_bytes() == path2.read_bytes()

    def test_header_restores_companions(self, saved):
        path, model, sched, norm, grid = saved
        loaded, s2, n2, g2, header = load_checkpoint(path)
        assert loaded.config == model.config
        assert s2.T == sched.T
        np.testing.assert_array_equal(s2.beta, sched.beta)
        assert n2.to_dict() == norm.to_dict()
        assert g2 == grid
        assert header["train_steps"] == 7
        assert header["seed"] == 1


class TestRejection:
    def test_corrupt_magic(self, saved, tmp_path):
        path, *_ = saved
        blob = bytearray(path.read_bytes())
        blob[:5] = b"WRONG"
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(bad)

    def test_truncated_payload(self, saved, tmp_path):
        path, *_ = saved
        blob = path.read_bytes()
        bad = tmp_path / "trunc.ckpt"
        bad.write_bytes(blob[:-100])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(bad)

    def test_truncated_header(self, saved, tmp_path):
        path, *_ = saved
        blob = path.read_bytes()
        bad = tmp_path / "tr2.ckpt"
        bad.write_bytes(blob[:20])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(bad)

    def test_wrong_schema_version(self, saved, tmp_path):
        path, *_ = saved
        blob = path.read_bytes()
        head_len = int.from_bytes(blob[5:9], "little")
        head = blob[9:9 + head_len].replace(b'"schema_version": 1', b'"schema_version": 9')
        assert len(head) == head_len
        bad = tmp_path / "ver.ckpt"
        bad.write_bytes(MAGIC + len(head).to_bytes(4, "little") + head + blob[9 + head_len:])
        with pytest.raises(DataError, match="schema version"):
            load_checkpoint(bad)

    def test_not_a_file_with_magic(self, tmp_path):
        bad = tmp_path / "junk.ckpt"
        bad.write_bytes(b"xy")
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(bad)


def _rewrite_header(path, out, edit):
    """Copy a checkpoint with its JSON header passed through edit(header)."""
    blob = path.read_bytes()
    head_len = int.from_bytes(blob[5:9], "little")
    header = json.loads(blob[9:9 + head_len])
    edit(header)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    out.write_bytes(MAGIC + len(head).to_bytes(4, "little") + head + blob[9 + head_len:])
    return out


def _entry(header, name):
    return next(e for e in header["params"] if e["name"] == name)


# one header edit per case, keyed by a fragment of the expected error message
HEADER_EDITS = {
    "lacks parameters": lambda h: h["params"].pop(),
    "shape": lambda h: _entry(h, "stem.w").update(shape=[4, 2, 5]),
    "byte size": lambda h: _entry(h, "stem.b").update(nbytes=12),
    "offset": lambda h: _entry(h, "stem.b").update(offset=-4),
    "truncated": lambda h: _entry(h, "stem.b").update(offset=10**9),
    "repeated": lambda h: h["params"].append(dict(h["params"][0])),
    "unexpected": lambda h: h["params"].append({"name": "extra.w", "shape": [1],
                                                "offset": 0, "nbytes": 4}),
    "lng_min": lambda h: h["norm"].pop("lng_min"),
    "4 entries": lambda h: h["norm"].update(attr_mean=[0.0, 0.0]),
    "at least one step": lambda h: h["schedule"].update(T=0),
    "length": lambda h: h["config"].update(length=15),
    "bogus": lambda h: h["config"].update(bogus=1),
    "cells": lambda h: h["grid"].update(rows=32),
    "seed": lambda h: h.pop("seed"),
    "parameter table": lambda h: h.update(params={}),
    "grid bounding box must be finite": lambda h: h["grid"].update(lng_max=float("inf")),
    "normalization bounding box must be finite": lambda h: h["norm"].update(lat_min=float("nan")),
}


class TestHeaderContract:
    @pytest.mark.parametrize("match", HEADER_EDITS)
    def test_inconsistent_header_is_data_error(self, saved, tmp_path, match):
        path, *_ = saved
        bad = _rewrite_header(path, tmp_path / "bad.ckpt", HEADER_EDITS[match])
        with pytest.raises(DataError, match=match):
            load_checkpoint(bad)

    @pytest.mark.parametrize("config", [
        {"base_channels": 128, "channel_multipliers": [1, 2, 2, 4], "resnet_blocks_per_level": 2},
        {"resnet_blocks_per_level": 10**4},
    ], ids=["wide", "deep"])
    def test_oversized_config_rejected_before_allocating(self, saved, tmp_path, config):
        # the stored table no longer fits the header's config; the loader must
        # say so without building that config's model (a 128-channel desk
        # UNet is about 68 MB) or walking its every parameter name
        path, *_ = saved
        bad = _rewrite_header(path, tmp_path / "big.ckpt", lambda h: h["config"].update(config))
        blob = bad.read_bytes()
        bad.write_bytes(blob[:9 + int.from_bytes(blob[5:9], "little") + 1024])
        tracemalloc.start()
        try:
            with pytest.raises(DataError):
                load_checkpoint(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_non_finite_weight_is_data_error(self, saved, tmp_path):
        path, *_ = saved
        blob = bytearray(path.read_bytes())
        head_end = 9 + int.from_bytes(blob[5:9], "little")
        blob[head_end:head_end + 4] = np.float32(np.nan).tobytes()
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="non-finite"):
            load_checkpoint(bad)


@pytest.fixture(scope="module")
def tiny_blob(tmp_path_factory):
    cfg = TrajUNetConfig(length=16, base_channels=4, channel_multipliers=(1, 2),
                         resnet_blocks_per_level=1, groups=2)
    path = tmp_path_factory.mktemp("fuzz") / "tiny.ckpt"
    save_checkpoint(path, TrajUNet(cfg, rng=stream(2)), linear_beta_schedule(20, 1e-4, 0.05),
                    NormStats(lng_min=0.0, lng_max=0.16, lat_min=0.0, lat_max=0.16),
                    GridSpec(0.0, 0.16, 0.0, 0.16), train_steps=3, seed=2)
    blob = path.read_bytes()
    return blob, 9 + int.from_bytes(blob[5:9], "little"), path.parent


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_flipped_or_truncated_loads_or_raises_data_error(tiny_blob, data):
    blob, head_end, workdir = tiny_blob
    mutated = bytearray(blob)
    kind = data.draw(st.sampled_from(["flip_header", "flip_any", "truncate"]))
    if kind == "truncate":
        mutated = mutated[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        hi = head_end if kind == "flip_header" else len(blob)
        pos = data.draw(st.integers(0, hi - 1))
        mutated[pos] ^= data.draw(st.integers(1, 255))
    path = workdir / "mutated.ckpt"
    path.write_bytes(bytes(mutated))
    try:
        load_checkpoint(path)
    except DataError:
        pass
