"""Distribution-similarity suite: Jensen-Shannon divergence over grid
densities, trip endpoints and travel-length histograms, plus the top-n
visited-cell F1 score.

All statistics run in float64 over immutable inputs. Cells or bins that are
empty in both distributions drop out of the support; a cell empty in exactly
one side contributes via 0 * log 0 := 0, keeping the ln 2 bound exact.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .trajdata import GridSpec, path_length

log = logging.getLogger(__name__)


@dataclass
class Distribution:
    """Probability vector over a finite support."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if not np.all(np.isfinite(self.probs)):
            raise ValueError("probabilities must be finite")
        if np.any(self.probs < 0):
            raise ValueError("probabilities must be non-negative")
        total = self.probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total}")


def _points_of(traj) -> np.ndarray:
    return np.asarray(getattr(traj, "points", traj), dtype=np.float64)


def jsd(p: Distribution, g: Distribution) -> float:
    """Jensen-Shannon divergence (natural log): 1/2 KL(P||M) + 1/2 KL(G||M)
    with M the even mixture. Symmetric, zero iff P == G, at most ln 2."""
    if p.probs.shape != g.probs.shape:
        raise ValueError(f"support mismatch: {p.probs.shape} vs {g.probs.shape}")
    pv, gv = p.probs, g.probs
    if not (np.isfinite(pv).all() and np.isfinite(gv).all()):
        raise ValueError("distributions must be finite")
    m = 0.5 * (pv + gv)

    def kl(a):
        mask = a > 0
        return float(np.sum(a[mask] * np.log(a[mask] / m[mask])))

    return max(0.0, 0.5 * kl(pv) + 0.5 * kl(gv))


def _cell_counts(trajs, grid: GridSpec) -> tuple[np.ndarray, int]:
    """Visits per cell over every point of a set, and the clamped-point count."""
    pts = [_points_of(t).reshape(-1, 2) for t in trajs]
    idx, clamped = grid.cell_indices(np.concatenate(pts) if pts else np.zeros((0, 2)))
    return np.bincount(idx, minlength=grid.n_cells).astype(np.float64), clamped


def grid_density(trajs, grid: GridSpec) -> Distribution:
    """Distribution of all trajectory points over the grid cells."""
    trajs = list(trajs)
    if not trajs:
        raise ValueError("cannot compute a density over an empty trajectory set")
    counts, clamped = _cell_counts(trajs, grid)
    if clamped:
        log.warning("%d points fell outside the grid and were clamped to boundary cells", clamped)
    return Distribution(counts / counts.sum())


def _endpoint_density(trajs, grid: GridSpec, which: int) -> Distribution:
    pts = np.stack([_points_of(t)[which] for t in trajs])
    idx, clamped = grid.cell_indices(pts)
    if clamped:
        log.warning("%d trip endpoints fell outside the grid", clamped)
    counts = np.bincount(idx, minlength=grid.n_cells).astype(np.float64)
    return Distribution(counts / counts.sum())


def density_error(gen, real, grid: GridSpec) -> float:
    """JSD between the full point densities of the two sets."""
    return jsd(grid_density(list(gen), grid), grid_density(list(real), grid))


def trip_error(gen, real, grid: GridSpec) -> float:
    """Mean of the origin-cell and destination-cell distribution JSDs."""
    gen, real = list(gen), list(real)
    if not gen or not real:
        raise ValueError("trip error needs non-empty trajectory sets")
    o = jsd(_endpoint_density(gen, grid, 0), _endpoint_density(real, grid, 0))
    d = jsd(_endpoint_density(gen, grid, -1), _endpoint_density(real, grid, -1))
    return 0.5 * (o + d)


def travel_lengths(trajs, distance_metric: str = "haversine") -> np.ndarray:
    return np.array([path_length(_points_of(t), distance_metric) for t in trajs])


def length_error(gen, real, bins: int = 50, distance_metric: str = "haversine") -> float:
    """JSD between per-trajectory travel-length histograms over shared
    uniform bins spanning the pooled range."""
    lg = travel_lengths(list(gen), distance_metric)
    lr = travel_lengths(list(real), distance_metric)
    if lg.size == 0 or lr.size == 0:
        raise ValueError("length error needs non-empty trajectory sets")
    lo = min(lg.min(), lr.min())
    hi = max(lg.max(), lr.max())
    if hi <= lo:
        log.warning("all travel lengths identical; length error degenerates to 0")
        return 0.0
    edges = np.linspace(lo, hi, bins + 1)
    hg, _ = np.histogram(lg, bins=edges)
    hr, _ = np.histogram(lr, bins=edges)
    return jsd(Distribution(hg / hg.sum()), Distribution(hr / hr.sum()))


def top_cells(trajs, grid: GridSpec, n: int) -> set[int]:
    """The n most visited cells; ties break by (row, col) order."""
    counts, _ = _cell_counts(list(trajs), grid)
    nonempty = int(np.sum(counts > 0))
    if n < 1:
        raise ValueError("top-n must be at least 1")
    if n > nonempty:
        raise ValueError(f"top-n {n} exceeds the {nonempty} nonempty cells")
    order = np.lexsort((np.arange(counts.size), -counts))
    return set(int(i) for i in order[:n])


def pattern_score(gen, real, grid: GridSpec, n: int = 10) -> float:
    """F1 overlap of the top-n visited cell sets."""
    p_gen = top_cells(gen, grid, n)
    p_real = top_cells(real, grid, n)
    inter = len(p_gen & p_real)
    if inter == 0:
        return 0.0
    precision = inter / len(p_gen)
    recall = inter / len(p_real)
    return 2.0 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

LN2 = math.log(2.0)

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


@dataclass
class MetricReport:
    density_error: float
    trip_error: float
    length_error: float
    pattern_score: float
    grid: GridSpec
    top_n: int
    length_bins: int
    distance_metric: str
    n_gen: int
    n_real: int
    version: str

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def evaluate(gen, real, grid: GridSpec, top_n: int = 10, length_bins: int = 50,
             distance_metric: str = "haversine") -> MetricReport:
    """Run the full similarity suite of one generated set against a reference set."""
    gen, real = list(gen), list(real)
    if not gen or not real:
        raise ValueError("evaluation needs non-empty trajectory sets")
    report = MetricReport(
        density_error=density_error(gen, real, grid),
        trip_error=trip_error(gen, real, grid),
        length_error=length_error(gen, real, length_bins, distance_metric),
        pattern_score=pattern_score(gen, real, grid, top_n),
        grid=grid, top_n=top_n, length_bins=length_bins,
        distance_metric=distance_metric, n_gen=len(gen), n_real=len(real),
        version=__version__,
    )
    for name in ("density_error", "trip_error", "length_error"):
        v = getattr(report, name)
        if not 0.0 <= v <= LN2 + 1e-12:
            raise ValueError(f"{name} {v} escaped [0, ln 2]")
    return report
