"""The benchmark's tracer (perfbench/tracing.py) wraps trajdiff functions by
name. Deleting or renaming any of them breaks the benchmark's per-layer
metrics, so it must fail here too."""

from pathlib import Path

from trajdiff import diffusion, metrics, trajdata, unet
from trajdiff import tensor as tz

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _sampled_names():
    return (tz.conv1d, tz.mse, diffusion.ddpm_step, metrics.pattern_score,
            trajdata.GridSpec.cell_indices, unet.TrajUNet.forward)


def test_every_traced_name_exists_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = _sampled_names()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert all(a is not b for a, b in zip(_sampled_names(), originals))
    finally:
        tracer.uninstall()
    assert _sampled_names() == originals
