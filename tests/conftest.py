import numpy as np
import pytest

from trajdiff import tensor as tz


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
