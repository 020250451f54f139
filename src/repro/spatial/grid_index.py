"""A uniform grid index over 2-D points for fast circular range queries.

Both the offline RECON algorithm (valid customers of each vendor) and the
online O-AFA algorithm (valid vendors of each arriving customer) reduce
to "find all points within radius r of a query point".  A uniform grid
with cell size close to the typical radius answers those queries in time
proportional to the number of candidates, which for the paper's parameter
ranges (radii of 0.01-0.05 in the unit square) is a small constant.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.spatial.geometry import Point


class GridIndex:
    """Uniform grid over points identified by integer ids.

    Args:
        cell_size: Side length of each grid cell.  A good choice is the
            largest query radius that will be used.

    Raises:
        ValueError: If ``cell_size`` is not positive.
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._cell_size = cell_size
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        self._points: Dict[int, Point] = {}

    @classmethod
    def build(cls, points: Sequence[Tuple[int, Point]], cell_size: float) -> "GridIndex":
        """Construct an index from ``(id, point)`` pairs."""
        index = cls(cell_size)
        for item_id, point in points:
            index.insert(item_id, point)
        return index

    @property
    def cell_size(self) -> float:
        """Side length of each grid cell."""
        return self._cell_size

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._points

    def _cell_of(self, point: Point) -> Tuple[int, int]:
        return (
            int(math.floor(point[0] / self._cell_size)),
            int(math.floor(point[1] / self._cell_size)),
        )

    def cell_of(self, point: Point) -> Tuple[int, int]:
        """The ``(cx, cy)`` cell coordinates containing ``point``.

        A point exactly on a cell boundary belongs to the higher cell
        (floor division), so every point is in exactly one cell.
        """
        return self._cell_of(point)

    def cells(self) -> List[Tuple[int, int]]:
        """Occupied cell coordinates in ``(cx, cy)`` lexicographic order.

        Only cells currently holding at least one point are listed, so
        the result is independent of how sparse the space is.
        """
        return sorted(self._cells)

    def points_in_cell(self, cell: Tuple[int, int]) -> List[int]:
        """Ids stored in one cell, in insertion order (empty if none)."""
        return list(self._cells.get(tuple(cell), ()))

    def insert(self, item_id: int, point: Point) -> None:
        """Insert a point; an existing id is moved to the new location."""
        if item_id in self._points:
            self.remove(item_id)
        self._points[item_id] = point
        self._cells.setdefault(self._cell_of(point), []).append(item_id)

    def remove(self, item_id: int) -> None:
        """Remove a point by id.

        Raises:
            KeyError: If the id is not present.
        """
        point = self._points.pop(item_id)
        cell = self._cells[self._cell_of(point)]
        cell.remove(item_id)
        if not cell:
            del self._cells[self._cell_of(point)]

    def location(self, item_id: int) -> Point:
        """The stored location of an id."""
        return self._points[item_id]

    def query_radius(self, center: Point, radius: float) -> List[int]:
        """Ids of all points within ``radius`` of ``center`` (inclusive)."""
        if radius < 0:
            return []
        results: List[int] = []
        r2 = radius * radius
        cx_lo = int(math.floor((center[0] - radius) / self._cell_size))
        cx_hi = int(math.floor((center[0] + radius) / self._cell_size))
        cy_lo = int(math.floor((center[1] - radius) / self._cell_size))
        cy_hi = int(math.floor((center[1] + radius) / self._cell_size))
        # squared_distance(point, center) <= r2, inlined: this loop is
        # every scalar range query's (and every shard plan build's) cost.
        px, py = center[0], center[1]
        points = self._points
        cells = self._cells
        for cx in range(cx_lo, cx_hi + 1):
            for cy in range(cy_lo, cy_hi + 1):
                for item_id in cells.get((cx, cy), ()):
                    point = points[item_id]
                    dx = point[0] - px
                    dy = point[1] - py
                    if dx * dx + dy * dy <= r2:
                        results.append(item_id)
        return results

    def items(self) -> Iterable[Tuple[int, Point]]:
        """Iterate over ``(id, point)`` pairs."""
        return self._points.items()
