"""Geographic density maps of anycast replicas (paper Fig. 10 / Fig. 5).

The paper publishes browsable maps: a world density map of all replicas
and per-deployment marker maps (e.g. Microsoft as seen from PlanetLab vs
RIPE).  We render the same views as ASCII grids — suitable for terminals,
logs, and tests — via an equirectangular binning of replica locations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..geo.cities import City
from ..geo.coords import GeoPoint
from .analysis import AnalysisResult

#: Density glyphs, lightest to heaviest.
GLYPHS = " .:+*#@"


@dataclass
class GeoGrid:
    """An equirectangular lat/lon accumulation grid.

    Rows run north to south (+90 to −90), columns west to east (−180 to
    +180).  ``rows x cols`` defaults to a terminal-friendly 24x72.
    """

    rows: int = 24
    cols: int = 72
    counts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have positive dimensions")
        self.counts = np.zeros((self.rows, self.cols), dtype=np.int64)

    def cell_of(self, point: GeoPoint) -> Tuple[int, int]:
        """Grid cell containing a point."""
        row = int((90.0 - point.lat) / 180.0 * self.rows)
        col = int((point.lon + 180.0) / 360.0 * self.cols)
        return (min(row, self.rows - 1), min(col, self.cols - 1))

    def add(self, point: GeoPoint, weight: int = 1) -> None:
        if weight < 0:
            raise ValueError("weight must be non-negative")
        row, col = self.cell_of(point)
        self.counts[row, col] += weight

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def render(self, markers: Optional[Dict[Tuple[int, int], str]] = None) -> str:
        """Render the grid as ASCII art.

        Density maps to :data:`GLYPHS` on a logarithmic scale (replica
        density is heavy-tailed: a linear scale would show only the top
        cell).  ``markers`` optionally overrides specific cells with a
        custom character (used for per-deployment site maps).
        """
        markers = markers or {}
        peak = self.counts.max()
        lines = []
        for r in range(self.rows):
            chars = []
            for c in range(self.cols):
                if (r, c) in markers:
                    chars.append(markers[(r, c)])
                    continue
                count = self.counts[r, c]
                if count == 0 or peak == 0:
                    chars.append(GLYPHS[0])
                else:
                    level = np.log1p(count) / np.log1p(peak)
                    idx = min(int(level * (len(GLYPHS) - 1) + 0.9999), len(GLYPHS) - 1)
                    chars.append(GLYPHS[idx])
            lines.append("".join(chars))
        return "\n".join(lines)


def replica_density_map(
    analysis: AnalysisResult,
    rows: int = 24,
    cols: int = 72,
) -> GeoGrid:
    """World density of all geolocated replicas (the Fig. 10 map)."""
    grid = GeoGrid(rows=rows, cols=cols)
    for result in analysis.results.values():
        for replica in result.replicas:
            grid.add(replica.city.location)
    return grid


def deployment_map(
    observed_cities: Sequence[City],
    truth_cities: Optional[Sequence[City]] = None,
    rows: int = 24,
    cols: int = 72,
) -> str:
    """Per-deployment marker map (the Fig. 5 view).

    Observed replica sites render as ``O``; ground-truth-only sites (known
    but not observed, e.g. RIPE-only replicas in the paper's Microsoft
    example) render as ``x``.
    """
    grid = GeoGrid(rows=rows, cols=cols)
    markers: Dict[Tuple[int, int], str] = {}
    for city in truth_cities or []:
        markers[grid.cell_of(city.location)] = "x"
    for city in observed_cities:
        markers[grid.cell_of(city.location)] = "O"
    return grid.render(markers=markers)
