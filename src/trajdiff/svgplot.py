"""Dependency-free SVG rendering: trajectory polylines and grid heatmaps."""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .metrics import grid_density
from .trajdata import GridSpec, extent


def _svg(size: int, body: list[str]) -> str:
    """A white size x size canvas holding the body's elements."""
    return "\n".join([f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
                      f'viewBox="0 0 {size} {size}">',
                      f'<rect width="{size}" height="{size}" fill="white"/>', *body, "</svg>"])


def plot_lines(point_arrays, size: int = 800, stroke: str = "#1f6feb") -> str:
    """One polyline per trajectory, mapped into a square viewport (north up)."""
    point_arrays = list(point_arrays)
    if not point_arrays:
        raise DataError("nothing to plot: empty trajectory set")
    lng_min, lng_max, lat_min, lat_max = extent(point_arrays)
    parts = []
    for pts in point_arrays:
        pts = np.asarray(pts, dtype=np.float64)
        x = (pts[:, 0] - lng_min) / (lng_max - lng_min) * size
        y = (1.0 - (pts[:, 1] - lat_min) / (lat_max - lat_min)) * size
        coords = " ".join(f"{xi:.2f},{yi:.2f}" for xi, yi in zip(x, y))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
                     f'stroke-width="1" stroke-opacity="0.35"/>')
    return _svg(size, parts)


def plot_heatmap(point_arrays, grid: GridSpec, size: int = 800) -> str:
    """Grid cells with opacity proportional to point density (1/255 steps);
    empty cells are omitted."""
    point_arrays = list(point_arrays)
    if not point_arrays:
        raise DataError("nothing to plot: empty trajectory set")
    probs = grid_density(point_arrays, grid).probs.reshape(grid.rows, grid.cols)
    peak = probs.max()
    cell_w = size / grid.cols
    cell_h = size / grid.rows
    parts = []
    for r in range(grid.rows):
        for c in range(grid.cols):
            p = probs[r, c]
            if p == 0.0:
                continue
            opacity = round(255.0 * p / peak) / 255.0
            x = c * cell_w
            y = (grid.rows - 1 - r) * cell_h  # row 0 sits at the south edge
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" '
                         f'height="{cell_h:.2f}" fill="#d73027" fill-opacity="{opacity:.6f}"/>')
    return _svg(size, parts)
