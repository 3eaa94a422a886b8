import numpy as np
import pytest

from trajdiff import tensor as tz
from trajdiff.metrics import LN2

# JSON schema of a MetricReport (`trajdiff eval` output); needs jsonschema to check
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["density_error", "trip_error", "length_error", "pattern_score",
                 "grid", "top_n", "length_bins", "n_gen", "n_real", "version"],
    "properties": {
        "density_error": {"type": "number", "minimum": 0, "maximum": LN2 + 1e-12},
        "trip_error": {"type": "number", "minimum": 0, "maximum": LN2 + 1e-12},
        "length_error": {"type": "number", "minimum": 0, "maximum": LN2 + 1e-12},
        "pattern_score": {"type": "number", "minimum": 0, "maximum": 1},
        "grid": {
            "type": "object",
            "required": ["lng_min", "lng_max", "lat_min", "lat_max", "rows", "cols"],
        },
        "top_n": {"type": "integer", "minimum": 1},
        "length_bins": {"type": "integer", "minimum": 1},
        "distance_metric": {"enum": ["haversine", "euclidean"]},
        "n_gen": {"type": "integer", "minimum": 0},
        "n_real": {"type": "integer", "minimum": 0},
        "version": {"type": "string"},
    },
}


def numeric_grad(make_loss, t: tz.Tensor, h: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar-loss builder wrt one tensor."""
    g = np.zeros(t.data.shape, dtype=np.float64)
    flat = t.data.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        with tz.no_grad():
            flat[i] = orig + h
            lp = make_loss().item()
            flat[i] = orig - h
            lm = make_loss().item()
        flat[i] = orig
        gf[i] = (lp - lm) / (2.0 * h)
    return g.astype(np.float32)


def assert_grads_match(make_loss, tensors, tol: float = 1e-3, h: float = 1e-3):
    """Backprop make_loss() once, then check each tensor against finite differences.

    The error metric is max |analytic - numeric| normalized by the largest
    numeric gradient magnitude.
    """
    for t in tensors:
        t.grad = None
    tz.reset_tape()
    loss = make_loss()
    tz.backward(loss)
    for t in tensors:
        assert t.grad is not None, "missing gradient"
        num = numeric_grad(make_loss, t, h=h)
        scale = max(float(np.abs(num).max()), 1e-6)
        rel = float(np.abs(t.grad - num).max()) / scale
        assert rel < tol, f"gradient mismatch: rel error {rel:.2e} >= {tol}"
        t.grad = None


@pytest.fixture(autouse=True)
def _fresh_tape():
    tz.reset_tape()
    yield
    tz.reset_tape()
