"""Trajectory ingestion, resampling, normalization, trip conditions,
baseline perturbers, and the synthetic-city generator.

Dataset files are JSON lines (UTF-8): one object per line with fields
``id``, ``points`` (list of [lng, lat] in degrees) and ``t0`` (departure,
epoch seconds), plus optional ``interval`` (seconds between points). The
first line may be a ``{"meta": ...}`` header, which the loader skips.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError, UsageError
from .rng import stream

log = logging.getLogger(__name__)

EARTH_RADIUS_KM = 6371.0088
SECONDS_PER_DAY = 86400
SLOT_SECONDS = 300
MIN_TRAJECTORY_POINTS = 120
MAX_CITY_POINTS = 100_000  # CitySpec.max_points cap: 500x the desk count

NUM_DEPARTURE_SLOTS = SECONDS_PER_DAY // SLOT_SECONDS  # 288 five-minute slots
GRID_SIDE = 16  # rows and columns of the evaluation and condition grid (the paper's 16 x 16)
NUM_GRID_CELLS = GRID_SIDE * GRID_SIDE  # the endpoint cells' embedding vocabulary
NUM_NUMERIC_ATTRS = 4  # travel km, avg move km, travel time s, raw point count
# trajectories per step of a whole-set pass: bounds the pass's temporaries to
# about one chunk's points, whatever the set size
CHUNK_TRAJECTORIES = 128


@dataclass
class RawTrajectory:
    id: str
    points: np.ndarray  # [n, 2] as (lng, lat) degrees
    t0: float
    interval: float | None = None

    def __post_init__(self):
        try:
            self.points = np.asarray(self.points, dtype=np.float64)
            self.t0 = float(self.t0)
            self.interval = float(self.interval) if self.interval is not None else None
        except (TypeError, ValueError, OverflowError) as e:
            raise DataError(f"trajectory {self.id!r}: {e}") from e
        if self.points.ndim != 2 or self.points.shape[1] != 2 or self.points.shape[0] < 2:
            raise DataError(f"trajectory {self.id!r} needs at least two (lng, lat) points")
        if not (np.isfinite(self.points).all() and math.isfinite(self.t0)
                and (self.interval is None or math.isfinite(self.interval))):
            raise DataError(f"trajectory {self.id!r} has a non-finite point, t0 or interval")


def is_finite(v) -> bool:
    """math.isfinite, where an int beyond the float range is not finite: the
    one finite-number rule for settings, spec fields and bounds."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def box_problem(lng_min, lng_max, lat_min, lat_max) -> str | None:
    """Why these bounds are no usable lng/lat box, naming them, or None for a
    box with finite bounds, each max above its min and a finite extent."""
    if not all(map(is_finite, (lng_min, lng_max, lat_min, lat_max))):
        why = "must be finite"
    elif not (lng_max > lng_min and lat_max > lat_min):
        why = "needs each max above its min"
    elif not (is_finite(lng_max - lng_min) and is_finite(lat_max - lat_min)):
        why = "extent must be finite"
    else:
        return None
    return f"{why}, got lng [{lng_min}, {lng_max}], lat [{lat_min}, {lat_max}]"


def _box(point_arrays) -> tuple[float, float, float, float]:
    """(lng_min, lng_max, lat_min, lat_max) over every point of a set, one
    chunk at a time; DataError for a set without points."""
    # per chunk, 1-D reductions of the transposed points: min(axis=0) over
    # [n, 2] points takes about six times as long
    boxes = []
    for chunk in _chunks(list(point_arrays)):
        lng, lat = _chunk_points(chunk).T
        if lng.size:
            boxes.append((lng.min(), lng.max(), lat.min(), lat.max()))
    if not boxes:
        raise DataError("cannot take the bounding box of an empty point set")
    lo, hi = np.min(boxes, axis=0), np.max(boxes, axis=0)
    return float(lo[0]), float(hi[1]), float(lo[2]), float(hi[3])


def extent(point_arrays) -> tuple[float, float, float, float]:
    """(lng_min, lng_max, lat_min, lat_max) of all points; a zero-extent axis
    is padded by 1e-9 so point-like sets still frame a grid."""
    lng_min, lng_max, lat_min, lat_max = _box(point_arrays)
    return (lng_min, lng_max if lng_max > lng_min else lng_min + 1e-9,
            lat_min, lat_max if lat_max > lat_min else lat_min + 1e-9)


@dataclass(frozen=True)
class GridSpec:
    lng_min: float
    lng_max: float
    lat_min: float
    lat_max: float
    rows: int = GRID_SIDE
    cols: int = GRID_SIDE

    def __post_init__(self):
        if why := box_problem(self.lng_min, self.lng_max, self.lat_min, self.lat_max):
            raise DataError(f"grid bounding box {why}")
        if self.rows < 1 or self.cols < 1:
            raise DataError("grid needs at least one row and column")

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    def cell_indices(self, points: np.ndarray) -> tuple[np.ndarray, int]:
        """Row-major cell index per point; out-of-box points clamp to the
        boundary cell. Returns (indices, clamped_count)."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        lo = np.array([self.lng_min, self.lat_min], float)
        hi = np.array([self.lng_max, self.lat_max], float)
        outside = ((pts < lo) | (pts > hi)).any(axis=1)
        # clamped in float, before the cast: a far-off point's offset may pass
        # the int64 range, or overflow to inf
        with np.errstate(over="ignore"):
            f = (pts - lo) / (hi - lo) * (self.cols, self.rows)
        np.clip(f, 0, (self.cols - 1, self.rows - 1), out=f)
        col, row = np.floor(f, out=f).astype(np.int64).T
        return row * self.cols + col, int(outside.sum())

    def cell_counts(self, point_arrays) -> tuple[np.ndarray, int]:
        """Points per cell (float64) over every [n, 2] array of a set, one
        chunk of arrays at a time, and how many of them were clamped."""
        counts, clamped = np.zeros(self.n_cells, dtype=np.int64), 0
        for chunk in _chunks(list(point_arrays)):
            idx, outside = self.cell_indices(_chunk_points(chunk))
            counts += np.bincount(idx, minlength=self.n_cells)
            clamped += outside
        return counts.astype(np.float64), clamped

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        return cls(**d)


@dataclass
class NormStats:
    """Coordinate bounding box plus z-score statistics for motion attributes."""

    lng_min: float
    lng_max: float
    lat_min: float
    lat_max: float
    attr_mean: np.ndarray = field(default_factory=lambda: np.zeros(4))
    attr_std: np.ndarray = field(default_factory=lambda: np.ones(4))

    def __post_init__(self):
        if why := box_problem(self.lng_min, self.lng_max, self.lat_min, self.lat_max):
            raise DataError(f"normalization bounding box {why}")
        self.attr_mean = np.asarray(self.attr_mean, dtype=np.float64)
        self.attr_std = np.asarray(self.attr_std, dtype=np.float64)
        if not self.attr_mean.shape == self.attr_std.shape == (NUM_NUMERIC_ATTRS,):
            raise DataError(f"attribute statistics need {NUM_NUMERIC_ATTRS} entries each")
        if not (np.isfinite(self.attr_mean).all() and np.isfinite(self.attr_std).all()):
            raise DataError("attribute statistics must be finite")
        if np.any(self.attr_std <= 0):
            raise DataError("attribute stds must be positive")

    @classmethod
    def fit(cls, trajs: list[RawTrajectory]) -> "NormStats":
        if not trajs:
            raise DataError("cannot fit normalization statistics on an empty dataset")
        attrs = motion_attributes(trajs)
        std = attrs.std(axis=0)
        std[std < 1e-12] = 1.0
        return cls(*_box([t.points for t in trajs]), attr_mean=attrs.mean(axis=0), attr_std=std)

    def grid(self) -> GridSpec:
        return GridSpec(self.lng_min, self.lng_max, self.lat_min, self.lat_max)

    def to_dict(self) -> dict:
        return {"lng_min": self.lng_min, "lng_max": self.lng_max,
                "lat_min": self.lat_min, "lat_max": self.lat_max,
                "attr_mean": self.attr_mean.tolist(), "attr_std": self.attr_std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(lng_min=d["lng_min"], lng_max=d["lng_max"],
                   lat_min=d["lat_min"], lat_max=d["lat_max"],
                   attr_mean=np.array(d["attr_mean"]), attr_std=np.array(d["attr_std"]))


@dataclass
class TrajectoryBatch:
    """Fixed-length trajectories in normalized [-1, 1] coordinates.

    data[b, 0] is longitude, data[b, 1] latitude.
    """

    data: np.ndarray  # [B, 2, L] float32

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 3 or self.data.shape[1] != 2:
            raise DataError(f"trajectory batch must be [B, 2, L], got {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise DataError("trajectory batch contains non-finite values")


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def haversine_km(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Great-circle distance between (lng, lat) degree pairs, in km."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lng1, lat1 = np.radians(a[..., 0]), np.radians(a[..., 1])
    lng2, lat2 = np.radians(b[..., 0]), np.radians(b[..., 1])
    s = np.sin((lat2 - lat1) / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin((lng2 - lng1) / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(s))


def _chunks(items: list):
    """Consecutive slices of at most CHUNK_TRAJECTORIES items."""
    for start in range(0, len(items), CHUNK_TRAJECTORIES):
        yield items[start:start + CHUNK_TRAJECTORIES]


def _chunk_points(arrays) -> np.ndarray:
    """The [n, 2] float64 points of a chunk's arrays, in order."""
    return np.concatenate([np.asarray(p, dtype=np.float64).reshape(-1, 2) for p in arrays])


def path_lengths(point_arrays, distance_metric: str = "haversine") -> np.ndarray:
    """Total travel distance over consecutive points of each [n, 2] array (km,
    or degrees for the planar variant).

    Segment distances run over each chunk's concatenated points; each array
    then sums its own contiguous slice (numpy's pairwise sum), so the result
    is bit for bit the sum over that array alone.
    """
    if distance_metric not in ("haversine", "euclidean"):
        raise UsageError(f"unknown distance metric {distance_metric!r}")
    arrays = [np.asarray(p, dtype=np.float64) for p in point_arrays]
    out = np.empty(len(arrays), dtype=np.float64)
    i = 0
    for chunk in _chunks(arrays):
        pts = np.concatenate(chunk)
        if distance_metric == "haversine":
            seg = haversine_km(pts[:-1], pts[1:])
        else:
            seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        # segment j joins points j and j + 1; the one joining two arrays is skipped
        start = 0
        for p in chunk:
            stop = start + len(p)
            out[i] = seg[start:max(start, stop - 1)].sum()
            start, i = stop, i + 1
    return out


# ---------------------------------------------------------------------------
# resampling / normalization
# ---------------------------------------------------------------------------

def resample(points: np.ndarray, length: int) -> np.ndarray:
    """Linear interpolation to a fixed point count, uniform in point index.

    Endpoints are preserved exactly.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise DataError("resampling needs at least two points")
    if length < 2:
        raise UsageError("target length must be at least 2")
    n = pts.shape[0]
    pos = np.linspace(0.0, n - 1.0, length)
    idx = np.arange(n, dtype=np.float64)
    out = np.empty((length, 2), dtype=np.float64)
    out[:, 0] = np.interp(pos, idx, pts[:, 0])
    out[:, 1] = np.interp(pos, idx, pts[:, 1])
    return out


def normalize(points: np.ndarray, norm: NormStats) -> np.ndarray:
    """Affine map of the bounding box onto [-1, 1] x [-1, 1]."""
    out = np.array(points, dtype=np.float64)
    out -= (norm.lng_min, norm.lat_min)
    out *= 2.0
    out /= (norm.lng_max - norm.lng_min, norm.lat_max - norm.lat_min)
    out -= 1.0
    return out


def denormalize(points: np.ndarray, norm: NormStats) -> np.ndarray:
    out = np.array(points, dtype=np.float64)
    out += 1.0
    out /= 2.0
    out *= (norm.lng_max - norm.lng_min, norm.lat_max - norm.lat_min)
    out += (norm.lng_min, norm.lat_min)
    return out


def make_batch(trajs: list[RawTrajectory], length: int, norm: NormStats) -> TrajectoryBatch:
    """Resample + normalize a trajectory list into model coordinates."""
    rows = np.empty((len(trajs), 2, length), dtype=np.float32)
    start = 0
    for chunk in _chunks(trajs):
        pts = np.stack([resample(t.points, length) for t in chunk])
        rows[start:start + len(chunk)] = normalize(pts, norm).transpose(0, 2, 1)
        start += len(chunk)
    return TrajectoryBatch(data=rows)


def batch_to_points(batch_data: np.ndarray, norm: NormStats) -> list[np.ndarray]:
    """Invert make_batch: [B, 2, L] normalized -> list of [L, 2] degree arrays."""
    pts = np.asarray(batch_data).transpose(0, 2, 1).astype(np.float64, order="C")
    return list(denormalize(pts, norm))


# ---------------------------------------------------------------------------
# trip conditions
# ---------------------------------------------------------------------------

@dataclass
class ConditionVector:
    """Motion attributes of one trip: z-scored numerics plus categoricals.

    A null condition carries no information: its embedding is exactly the
    zero vector. Training's condition dropout marks rows null; the
    unconditional model pass takes no conditions at all.
    """

    numeric: np.ndarray = field(default_factory=lambda: np.zeros(NUM_NUMERIC_ATTRS, dtype=np.float32))
    departure_slot: int = 0
    origin_cell: int = 0
    dest_cell: int = 0
    is_null: bool = False

    def __post_init__(self):
        self.numeric = np.asarray(self.numeric, dtype=np.float32)
        if self.numeric.shape != (NUM_NUMERIC_ATTRS,):
            raise ValueError(f"numeric attributes must have shape ({NUM_NUMERIC_ATTRS},)")
        if not 0 <= self.departure_slot < NUM_DEPARTURE_SLOTS:
            raise ValueError(f"departure slot {self.departure_slot} outside [0, {NUM_DEPARTURE_SLOTS})")
        if not 0 <= self.origin_cell < NUM_GRID_CELLS:
            raise ValueError(f"origin cell {self.origin_cell} outside [0, {NUM_GRID_CELLS})")
        if not 0 <= self.dest_cell < NUM_GRID_CELLS:
            raise ValueError(f"destination cell {self.dest_cell} outside [0, {NUM_GRID_CELLS})")


class ConditionBatch:
    """Column-wise batch of trip conditions (the fields of ConditionVector)."""

    def __init__(self, numeric: np.ndarray, slot: np.ndarray, origin: np.ndarray,
                 dest: np.ndarray, is_null: np.ndarray):
        self.numeric = np.asarray(numeric, dtype=np.float32)
        self.slot = np.asarray(slot, dtype=np.int64)
        self.origin = np.asarray(origin, dtype=np.int64)
        self.dest = np.asarray(dest, dtype=np.int64)
        self.is_null = np.asarray(is_null, dtype=bool)
        n = len(self.is_null)
        if not (self.numeric.shape == (n, NUM_NUMERIC_ATTRS) and self.slot.shape == (n,)
                and self.origin.shape == (n,) and self.dest.shape == (n,)):
            raise ValueError("inconsistent condition batch columns")

    def __len__(self) -> int:
        return len(self.is_null)

    @classmethod
    def from_vectors(cls, conds) -> "ConditionBatch":
        conds = list(conds)
        return cls(
            numeric=np.stack([c.numeric for c in conds]) if conds else np.zeros((0, NUM_NUMERIC_ATTRS), np.float32),
            slot=np.array([c.departure_slot for c in conds], dtype=np.int64),
            origin=np.array([c.origin_cell for c in conds], dtype=np.int64),
            dest=np.array([c.dest_cell for c in conds], dtype=np.int64),
            is_null=np.array([c.is_null for c in conds], dtype=bool),
        )

    def take(self, idx: np.ndarray) -> "ConditionBatch":
        return ConditionBatch(self.numeric[idx], self.slot[idx], self.origin[idx],
                              self.dest[idx], self.is_null[idx])

    def with_dropout(self, rng: np.random.Generator, p: float) -> "ConditionBatch":
        """Mark each condition null with probability p; its other columns stay as they are."""
        drop = rng.random(len(self)) < p
        return ConditionBatch(self.numeric, self.slot, self.origin, self.dest, self.is_null | drop)


def motion_attributes(trajs: list[RawTrajectory]) -> np.ndarray:
    """[N, 4] rows of [travel distance km, average move distance km, travel
    time s (0 without an interval), raw point count]."""
    attrs = np.empty((len(trajs), NUM_NUMERIC_ATTRS), dtype=np.float64)
    n = np.array([t.points.shape[0] for t in trajs], dtype=np.float64)
    interval = np.array([0.0 if t.interval is None else t.interval for t in trajs],
                        dtype=np.float64)
    attrs[:, 0] = path_lengths([t.points for t in trajs])
    attrs[:, 1] = attrs[:, 0] / (n - 1)
    attrs[:, 2] = interval * (n - 1)
    attrs[:, 3] = n
    return attrs


def departure_slot(t0: np.ndarray) -> np.ndarray:
    """Five-minute slot of the day for each of an array of departure times (epoch s)."""
    return (np.asarray(t0, dtype=np.float64) % SECONDS_PER_DAY // SLOT_SECONDS).astype(np.int64)


def extract_condition_batch(trajs: list[RawTrajectory], grid: GridSpec,
                            norm: NormStats) -> ConditionBatch:
    """Trip conditions of a trajectory list: motion attributes z-scored with
    norm's statistics, endpoint cells on grid, and departure slots."""
    n = len(trajs)
    attrs = (motion_attributes(trajs) - norm.attr_mean) / norm.attr_std
    ends = np.array([t.points[[0, -1]] for t in trajs], dtype=np.float64).reshape(-1, 2)
    cells = grid.cell_indices(ends)[0].reshape(n, 2)
    return ConditionBatch(numeric=attrs.astype(np.float32),
                          slot=departure_slot(np.array([t.t0 for t in trajs], dtype=np.float64)),
                          origin=cells[:, 0], dest=cells[:, 1], is_null=np.zeros(n, dtype=bool))


# ---------------------------------------------------------------------------
# baseline perturbers
# ---------------------------------------------------------------------------

def perturb_random(traj: RawTrajectory, radius: float, rng: np.random.Generator) -> RawTrajectory:
    """Uniform per-point noise in [-radius, radius] degrees on both axes."""
    if radius < 0:
        raise UsageError("perturbation radius must be non-negative")
    noise = rng.uniform(-radius, radius, size=traj.points.shape) if radius > 0 else 0.0
    return RawTrajectory(id=traj.id, points=traj.points + noise, t0=traj.t0, interval=traj.interval)


def perturb_gaussian(traj: RawTrajectory, sigma: float, rng: np.random.Generator) -> RawTrajectory:
    """I.i.d. zero-mean Gaussian per-point noise with std sigma degrees."""
    if sigma < 0:
        raise UsageError("perturbation sigma must be non-negative")
    noise = rng.normal(0.0, sigma, size=traj.points.shape) if sigma > 0 else 0.0
    return RawTrajectory(id=traj.id, points=traj.points + noise, t0=traj.t0, interval=traj.interval)


# ---------------------------------------------------------------------------
# dataset I/O
# ---------------------------------------------------------------------------

@dataclass
class LoadResult:
    trajectories: list[RawTrajectory]
    dropped_short: int = 0
    skipped_bad: int = 0  # always 0: a malformed line aborts the load
    meta: dict | None = None

    def __iter__(self):
        return iter(self.trajectories)

    def __len__(self):
        return len(self.trajectories)


def _parse_line(obj: dict) -> RawTrajectory:
    """Field types and values are checked by RawTrajectory, which raises DataError."""
    if not isinstance(obj, dict) or not {"id", "points", "t0"} <= obj.keys():
        raise ValueError("expected an object with id, points and t0")
    return RawTrajectory(id=str(obj["id"]), points=obj["points"], t0=obj["t0"],
                         interval=obj.get("interval"))


def load_dataset(path, min_points: int = MIN_TRAJECTORY_POINTS) -> LoadResult:
    """Read a JSONL dataset; trajectories shorter than min_points are dropped.

    A malformed line aborts with a line-numbered DataError, and so does a
    file with no trajectory of at least min_points points, so every
    LoadResult holds at least one trajectory.
    """
    result = LoadResult(trajectories=[])
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if lineno == 1 and isinstance(obj, dict) and "meta" in obj:
                    result.meta = obj["meta"]
                    continue
                traj = _parse_line(obj)
            except (ValueError, DataError, RecursionError) as e:
                raise DataError(f"{path}: line {lineno}: {e}") from e
            if traj.points.shape[0] < min_points:
                result.dropped_short += 1
                continue
            result.trajectories.append(traj)
    if not result.trajectories:
        raise DataError(f"{path}: no usable trajectory ({result.dropped_short} dropped "
                        f"as shorter than min_points={min_points})")
    if result.dropped_short:
        log.info("dropped %d trajectories shorter than %d points",
                 result.dropped_short, min_points)
    return result


def dataset_grid(path, result: LoadResult, rows: int = GRID_SIDE, cols: int = GRID_SIDE) -> GridSpec:
    """The grid a dataset is conditioned and scored on: its header city's box
    (the bounds as the header holds them) when result.meta is a dict with a
    city, else the extent of its points. A malformed header city is a
    DataError that names path."""
    if not (isinstance(result.meta, dict) and "city" in result.meta):
        return GridSpec(*extent([t.points for t in result.trajectories]), rows, cols)
    try:
        c = result.meta["city"]
        return GridSpec(c["lng_min"], c["lng_max"], c["lat_min"], c["lat_max"], rows, cols)
    except (KeyError, TypeError, DataError) as e:
        raise DataError(f"{path}: header city: {e!r}") from e


def save_dataset(path, trajs, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for t in trajs:
            rec = {"id": t.id, "points": t.points.tolist(), "t0": float(t.t0)}
            if t.interval is not None:
                rec["interval"] = float(t.interval)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# synthetic city
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CitySpec:
    """Street-lattice city: equally spaced streets at the given fractional
    positions of the bounding box, on both axes.

    street_popularity weights trip endpoints toward busy streets (a downtown),
    which gives the visited-cell frequency ranking a stable hierarchy.
    """

    lng_min: float = 108.90
    lng_max: float = 109.06
    lat_min: float = 34.18
    lat_max: float = 34.34
    # fractions sit on cell centers of the GRID_SIDE x GRID_SIDE evaluation grid
    street_fractions: tuple[float, ...] = (2.5 / GRID_SIDE, 7.5 / GRID_SIDE, 12.5 / GRID_SIDE)
    street_popularity: tuple[float, ...] = (0.6, 2.6, 0.8)
    jitter_sigma: float = 0.002
    point_interval_s: float = 5.0
    min_points: int = MIN_TRAJECTORY_POINTS
    max_points: int = 200

    def __post_init__(self):
        if why := box_problem(self.lng_min, self.lng_max, self.lat_min, self.lat_max):
            raise UsageError(f"city bounding box {why}")
        if not all(map(is_finite, (self.jitter_sigma, self.point_interval_s,
                                 sum(self.street_popularity)))):
            raise UsageError("city jitter, interval and total popularity must be finite")
        if len(self.street_fractions) < 2:
            raise UsageError("city needs at least a 2 x 2 street lattice")
        if any(not 0.0 < f < 1.0 for f in self.street_fractions):
            raise UsageError("street fractions must lie strictly inside the box")
        if len(self.street_popularity) != len(self.street_fractions):
            raise UsageError("need one popularity weight per street")
        if any(w <= 0 for w in self.street_popularity):
            raise UsageError("street popularity weights must be positive")
        if not (type(self.min_points) is type(self.max_points) is int
                and 2 <= self.min_points <= self.max_points <= MAX_CITY_POINTS):
            raise UsageError(f"point counts need 2 <= min_points <= max_points <= {MAX_CITY_POINTS}")
        if not (self.jitter_sigma >= 0 and self.point_interval_s > 0):
            raise UsageError("jitter must be non-negative and the point interval positive")
        if not self.jitter_sigma < min(self.lng_max - self.lng_min, self.lat_max - self.lat_min):
            raise UsageError("jitter must be below the shorter side of the bounding box")

    @property
    def street_lngs(self) -> np.ndarray:
        f = np.asarray(self.street_fractions)
        return self.lng_min + f * (self.lng_max - self.lng_min)

    @property
    def street_lats(self) -> np.ndarray:
        f = np.asarray(self.street_fractions)
        return self.lat_min + f * (self.lat_max - self.lat_min)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CitySpec":
        d = dict(d)
        for key in ("street_fractions", "street_popularity"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


def _lattice_route(rng: np.random.Generator, cdf: np.ndarray, lngs: np.ndarray,
                   lats: np.ndarray) -> np.ndarray:
    """Monotone staircase along streets between two distinct intersections,
    with endpoints drawn from the street-popularity distribution.

    cdf is the popularity's cumulative distribution, ending at exactly 1: an
    endpoint index is cdf.searchsorted(u, side="right") of one uniform u,
    which is Generator.choice(k, p=popularity) from the same draw.
    """
    while True:
        ox, oy, dx, dy = (int(i) for i in cdf.searchsorted(rng.random(4), side="right"))
        if (ox, oy) != (dx, dy):
            break
    xi, yi = ox, oy
    verts = [(xi, yi)]
    while (xi, yi) != (dx, dy):
        move_x = xi != dx and (yi == dy or rng.random() < 0.5)
        if move_x:
            xi += 1 if dx > xi else -1
        else:
            yi += 1 if dy > yi else -1
        verts.append((xi, yi))
    return np.array([(lngs[i], lats[j]) for i, j in verts], dtype=np.float64)


def synth_city(seed: int, n_trajectories: int, spec: CitySpec | None = None) -> list[RawTrajectory]:
    """Deterministic lattice-city dataset: staircase street routes with
    Gaussian jitter, fixed-interval timestamps, >= min_points points each."""
    spec = spec if spec is not None else CitySpec()
    if n_trajectories < 0:
        raise UsageError("trajectory count must be non-negative")
    rng = stream(seed)
    pop = np.asarray(spec.street_popularity, dtype=np.float64)
    cdf = np.cumsum(pop / pop.sum())
    cdf /= cdf[-1]
    lngs, lats = spec.street_lngs, spec.street_lats
    lo, hi = (spec.lng_min, spec.lat_min), (spec.lng_max, spec.lat_max)
    out = []
    for i in range(n_trajectories):
        route = _lattice_route(rng, cdf, lngs, lats)
        n_pts = int(rng.integers(spec.min_points, spec.max_points + 1))
        pts = resample(route, n_pts)
        pts += rng.normal(0.0, spec.jitter_sigma, size=pts.shape)
        np.clip(pts, lo, hi, out=pts)
        t0 = float(rng.integers(0, SECONDS_PER_DAY))
        out.append(RawTrajectory(id=f"synth-{i:05d}", points=pts, t0=t0,
                                 interval=spec.point_interval_s))
    return out
