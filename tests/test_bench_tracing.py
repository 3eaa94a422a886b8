"""The benchmark's tracer (perfbench/tracing.py) wraps trajdiff functions by
name, and its size functions read some of their arguments by position.
Deleting, renaming or re-ordering any of them breaks the benchmark's
per-layer metrics, so it must fail here too."""

import subprocess
import sys
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


def test_benchmark_selftest_passes():
    # runs every workload at tiny size, untraced and traced (about 20 s on 2 cores)
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=PERFBENCH.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
