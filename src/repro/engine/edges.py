"""The candidate-edge table: every range-valid customer-vendor pair.

All algorithms in the repo score the same candidate set -- the pairs
satisfying constraint 1 of Definition 5.  :func:`build_candidate_edges`
runs the spatial-index range query once per vendor (exactly the scalar
enumeration order of ``MUAAProblem.valid_pairs``) and materialises the
result as one :class:`CandidateEdges` table of parallel columns:
customer row, vendor row, Euclidean distance.

The table is **vendor-major**: edges of vendor ``j`` occupy the
contiguous range ``vendor_starts[j]:vendor_starts[j + 1]``, so RECON's
per-vendor knapsacks and the per-vendor calibration slice it for free.
Because the build order matches the scalar enumeration, vectorized and
scalar solvers visit candidates in the same order and tie-breaking
behaviour is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.engine.arrays import ProblemArrays


@dataclass(frozen=True)
class CandidateEdges:
    """Parallel columns describing every valid candidate pair.

    Attributes:
        customer_idx: ``(E,)`` customer row positions (into
            :class:`~repro.engine.arrays.ProblemArrays` columns).
        vendor_idx: ``(E,)`` vendor row positions.
        distance: ``(E,)`` Euclidean distances :math:`d(u_i, v_j)`
            (unclamped; kernels apply the model's clamp).
        vendor_starts: ``(n + 1,)`` offsets; vendor row ``j`` owns the
            edge range ``vendor_starts[j]:vendor_starts[j + 1]``.
    """

    customer_idx: np.ndarray
    vendor_idx: np.ndarray
    distance: np.ndarray
    vendor_starts: np.ndarray

    def __len__(self) -> int:
        return len(self.customer_idx)

    def vendor_slice(self, vendor_row: int) -> slice:
        """The contiguous edge range of one vendor row."""
        return slice(
            int(self.vendor_starts[vendor_row]),
            int(self.vendor_starts[vendor_row + 1]),
        )

    def iter_pairs(self, arrays: ProblemArrays) -> Iterator[Tuple[int, int]]:
        """Yield ``(customer_id, vendor_id)`` pairs in table order."""
        customer_ids = arrays.customer_ids
        vendor_ids = arrays.vendor_ids
        for ci, vj in zip(self.customer_idx, self.vendor_idx):
            yield int(customer_ids[ci]), int(vendor_ids[vj])


def build_candidate_edges(problem, arrays: ProblemArrays) -> CandidateEdges:
    """Materialise the candidate-edge table of a problem.

    Holds exactly the pairs of ``problem.valid_pairs()``, in the same
    order.  Without a custom validator the enumeration is computed in
    a handful of array passes (see :func:`_grid_order_enumeration`);
    otherwise the scalar ``problem.valid_customer_ids`` query runs per
    vendor.
    """
    if problem.pair_validator is None:
        customer_idx, vendor_idx, starts = _grid_order_enumeration(
            problem, arrays
        )
    else:
        customer_rows: List[int] = []
        vendor_rows: List[int] = []
        starts = np.zeros(arrays.n_vendors + 1, dtype=np.int64)
        customer_index = arrays.customer_index
        for vendor_row, vendor in enumerate(problem.vendors):
            valid_ids = problem.valid_customer_ids(vendor)
            customer_rows.extend(customer_index[cid] for cid in valid_ids)
            vendor_rows.extend([vendor_row] * len(valid_ids))
            starts[vendor_row + 1] = len(customer_rows)
        customer_idx = np.array(customer_rows, dtype=arrays.index_dtype)
        vendor_idx = np.array(vendor_rows, dtype=arrays.index_dtype)

    deltas = (
        arrays.customer_xy[customer_idx] - arrays.vendor_xy[vendor_idx]
    )
    dist = np.hypot(deltas[:, 0], deltas[:, 1])
    return CandidateEdges(
        customer_idx=customer_idx,
        vendor_idx=vendor_idx,
        distance=dist,
        vendor_starts=starts,
    )


def vendor_segment(
    problem, arrays: ProblemArrays, vendor
) -> Tuple[np.ndarray, np.ndarray]:
    """One vendor's candidate customer rows and distances, in the exact
    per-vendor order of :func:`build_candidate_edges`.

    The scalar grid query visits cells lexicographically and points in
    insertion (row) order -- the same per-vendor order the vectorized
    enumeration produces -- and the distances use the same
    ``np.hypot`` expression, so a segment built here can be spliced
    into an existing table and stay bit-identical to a cold rebuild.
    """
    valid_ids = problem.valid_customer_ids(vendor)
    customer_index = arrays.customer_index
    rows = np.array(
        [customer_index[cid] for cid in valid_ids], dtype=arrays.index_dtype
    )
    vendor_xy = np.asarray(vendor.location, dtype=arrays.customer_xy.dtype)
    if len(rows):
        deltas = arrays.customer_xy[rows] - vendor_xy[None, :]
        dist = np.hypot(deltas[:, 0], deltas[:, 1])
    else:
        dist = np.zeros(0, dtype=arrays.float_dtype)
    return rows, dist


def insert_vendor_segment(
    edges: CandidateEdges,
    vendor_row: int,
    customer_rows: np.ndarray,
    dist: np.ndarray,
) -> CandidateEdges:
    """A new table with a new vendor row (and its edge segment) spliced
    in at ``vendor_row``; later vendor rows shift up by one.

    All columns are freshly allocated -- the input table may wrap
    read-only shared-memory views.
    """
    start = int(edges.vendor_starts[vendor_row])
    seg_len = len(customer_rows)
    old_vidx = edges.vendor_idx
    starts = edges.vendor_starts
    return CandidateEdges(
        customer_idx=np.concatenate([
            edges.customer_idx[:start],
            np.asarray(customer_rows, dtype=edges.customer_idx.dtype),
            edges.customer_idx[start:],
        ]),
        # Vendor-major: positions < start hold rows < vendor_row,
        # positions >= start hold rows >= vendor_row (renumbered +1).
        vendor_idx=np.concatenate([
            old_vidx[:start],
            np.full(seg_len, vendor_row, dtype=old_vidx.dtype),
            old_vidx[start:] + 1,
        ]),
        distance=np.concatenate([
            edges.distance[:start],
            np.asarray(dist, dtype=edges.distance.dtype),
            edges.distance[start:],
        ]),
        vendor_starts=np.concatenate([
            starts[: vendor_row + 1],
            starts[vendor_row:] + seg_len,
        ]),
    )


def remove_vendor_segment(
    edges: CandidateEdges, vendor_row: int
) -> CandidateEdges:
    """A new table with vendor row ``vendor_row`` (and its segment)
    spliced out; later vendor rows shift down by one."""
    start = int(edges.vendor_starts[vendor_row])
    stop = int(edges.vendor_starts[vendor_row + 1])
    seg_len = stop - start
    old_vidx = edges.vendor_idx
    starts = edges.vendor_starts
    return CandidateEdges(
        customer_idx=np.concatenate([
            edges.customer_idx[:start], edges.customer_idx[stop:]
        ]),
        vendor_idx=np.concatenate([
            old_vidx[:start], old_vidx[stop:] - 1
        ]),
        distance=np.concatenate([
            edges.distance[:start], edges.distance[stop:]
        ]),
        vendor_starts=np.concatenate([
            starts[:vendor_row], starts[vendor_row + 1:] - seg_len
        ]),
    )


def clear_vendor_segment(
    edges: CandidateEdges, vendor_row: int
) -> CandidateEdges:
    """A new table with vendor row ``vendor_row``'s segment emptied but
    the row kept (deactivation: the vendor stays in the catalogue)."""
    start = int(edges.vendor_starts[vendor_row])
    stop = int(edges.vendor_starts[vendor_row + 1])
    seg_len = stop - start
    starts = edges.vendor_starts
    return CandidateEdges(
        customer_idx=np.concatenate([
            edges.customer_idx[:start], edges.customer_idx[stop:]
        ]),
        vendor_idx=np.concatenate([
            edges.vendor_idx[:start], edges.vendor_idx[stop:]
        ]),
        distance=np.concatenate([
            edges.distance[:start], edges.distance[stop:]
        ]),
        vendor_starts=np.concatenate([
            starts[: vendor_row + 1], starts[vendor_row + 1:] - seg_len
        ]),
    )


def fill_vendor_segment(
    edges: CandidateEdges,
    vendor_row: int,
    customer_rows: np.ndarray,
    dist: np.ndarray,
) -> CandidateEdges:
    """A new table with an (empty) existing vendor row's segment filled
    back in -- the inverse of :func:`clear_vendor_segment`."""
    start = int(edges.vendor_starts[vendor_row])
    seg_len = len(customer_rows)
    old_vidx = edges.vendor_idx
    starts = edges.vendor_starts
    return CandidateEdges(
        customer_idx=np.concatenate([
            edges.customer_idx[:start],
            np.asarray(customer_rows, dtype=edges.customer_idx.dtype),
            edges.customer_idx[start:],
        ]),
        vendor_idx=np.concatenate([
            old_vidx[:start],
            np.full(seg_len, vendor_row, dtype=old_vidx.dtype),
            old_vidx[start:],
        ]),
        distance=np.concatenate([
            edges.distance[:start],
            np.asarray(dist, dtype=edges.distance.dtype),
            edges.distance[start:],
        ]),
        vendor_starts=np.concatenate([
            starts[: vendor_row + 1], starts[vendor_row + 1:] + seg_len
        ]),
    )


#: Largest ``m * n`` the dense (one boolean per customer-vendor pair)
#: enumeration may allocate; bigger instances take the cell-blocked
#: path, which visits only each vendor's grid neighbourhood.
_DENSE_ELEMENT_LIMIT = 4_000_000


def _grid_order_enumeration(
    problem, arrays: ProblemArrays
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vendor-major candidate enumeration in exact grid-query order.

    ``GridIndex.query_radius`` visits cells in ``(cx, cy)``
    lexicographic order and, within a cell, points in insertion order
    (the customer row order) -- so sorting customer rows by
    ``(cell_x, cell_y, row)`` reproduces the scalar per-vendor
    enumeration exactly.  Membership uses the same IEEE expression as
    ``squared_distance(...) <= r * r``, so the pair set is bit-for-bit
    the scalar one.

    Small instances evaluate the predicate densely (one boolean per
    pair); past :data:`_DENSE_ELEMENT_LIMIT` the cell-blocked variant
    gathers each vendor's grid neighbourhood first and applies the
    *same* elementwise predicate to that subset, emitting a
    bit-identical table in O(edges) memory instead of O(m * n).
    """
    getter = getattr(problem, "grid_cell_size", None)
    cell = getter() if getter is not None else problem.customer_index.cell_size
    xy = arrays.customer_xy
    cx = np.floor(xy[:, 0] / cell)
    cy = np.floor(xy[:, 1] / cell)
    # Stable lexicographic sort: primary cx, secondary cy, ties keep
    # row (= insertion) order.
    order = np.lexsort((cy, cx))
    index_dtype = arrays.index_dtype

    if arrays.n_customers * arrays.n_vendors > _DENSE_ELEMENT_LIMIT:
        return _blocked_enumeration(arrays, order, cx, cy, cell, index_dtype)

    dx = xy[order, 0][:, None] - arrays.vendor_xy[None, :, 0]
    dy = xy[order, 1][:, None] - arrays.vendor_xy[None, :, 1]
    radius = arrays.radius
    within = dx * dx + dy * dy <= (radius * radius)[None, :]

    vendor_idx, sorted_pos = np.nonzero(within.T)
    customer_idx = order[sorted_pos]
    starts = np.zeros(arrays.n_vendors + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(vendor_idx, minlength=arrays.n_vendors), out=starts[1:]
    )
    return (
        customer_idx.astype(index_dtype, copy=False),
        vendor_idx.astype(index_dtype, copy=False),
        starts,
    )


def _concat_ranges(seg_lo: np.ndarray, seg_hi: np.ndarray) -> np.ndarray:
    """Concatenate ``[lo, hi)`` integer ranges without a Python loop."""
    lengths = seg_hi - seg_lo
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    out = np.repeat(seg_lo - offsets, lengths)
    out += np.arange(total, dtype=np.int64)
    return out


def _blocked_enumeration(
    arrays: ProblemArrays,
    order: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    cell: float,
    index_dtype,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid-order enumeration without the dense ``(m, n)`` predicate.

    The lex-sorted rows are grouped into grid-cell runs; each vendor
    gathers the runs of its (radius-padded) cell rectangle -- ascending
    in the ``(cx, cy, row)`` sort, so candidate order is exactly the
    dense path's -- and keeps the rows passing the identical
    ``dx*dx + dy*dy <= r*r`` predicate.  The rectangle carries one cell
    of slack per side, so every row the dense predicate would accept is
    among the candidates regardless of boundary rounding.
    """
    m = arrays.n_customers
    n = arrays.n_vendors
    sx = np.ascontiguousarray(arrays.customer_xy[order, 0])
    sy = np.ascontiguousarray(arrays.customer_xy[order, 1])
    kx = cx[order].astype(np.int64)
    ky = cy[order].astype(np.int64)
    kx0 = int(kx.min()) if m else 0
    ky0 = int(ky.min()) if m else 0
    span_x = (int(kx.max()) - kx0 + 1) if m else 1
    span_y = (int(ky.max()) - ky0 + 1) if m else 1
    keys = (kx - kx0) * span_y + (ky - ky0)
    boundaries = np.flatnonzero(np.diff(keys)) + 1
    cell_starts = np.concatenate(([0], boundaries))
    cell_stops = np.concatenate((boundaries, [m]))
    cell_keys = keys[cell_starts] if m else np.zeros(0, dtype=np.int64)

    vx64 = arrays.vendor_xy[:, 0].astype(np.float64)
    vy64 = arrays.vendor_xy[:, 1].astype(np.float64)
    vr64 = arrays.radius.astype(np.float64)
    cell_f = float(cell)
    x_lo = np.floor((vx64 - vr64) / cell_f).astype(np.int64) - 1 - kx0
    x_hi = np.floor((vx64 + vr64) / cell_f).astype(np.int64) + 1 - kx0
    y_lo = np.floor((vy64 - vr64) / cell_f).astype(np.int64) - 1 - ky0
    y_hi = np.floor((vy64 + vr64) / cell_f).astype(np.int64) + 1 - ky0
    np.clip(x_lo, 0, span_x - 1, out=x_lo)
    np.clip(x_hi, 0, span_x - 1, out=x_hi)
    np.clip(y_lo, 0, span_y - 1, out=y_lo)
    np.clip(y_hi, 0, span_y - 1, out=y_hi)

    vx = arrays.vendor_xy[:, 0]
    vy = arrays.vendor_xy[:, 1]
    rr = arrays.radius * arrays.radius
    counts = np.zeros(n, dtype=np.int64)
    rows_parts: List[np.ndarray] = []
    for v in range(n):
        kxs = np.arange(int(x_lo[v]), int(x_hi[v]) + 1, dtype=np.int64)
        lo_keys = kxs * span_y + int(y_lo[v])
        hi_keys = kxs * span_y + int(y_hi[v])
        a = np.searchsorted(cell_keys, lo_keys, side="left")
        b = np.searchsorted(cell_keys, hi_keys, side="right")
        ok = a < b
        if not ok.any():
            continue
        cand = _concat_ranges(cell_starts[a[ok]], cell_stops[b[ok] - 1])
        dx = sx[cand] - vx[v]
        dy = sy[cand] - vy[v]
        sel = cand[dx * dx + dy * dy <= rr[v]]
        if sel.size:
            counts[v] = sel.size
            rows_parts.append(order[sel].astype(index_dtype, copy=False))
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    if rows_parts:
        customer_idx = np.concatenate(rows_parts)
    else:
        customer_idx = np.zeros(0, dtype=index_dtype)
    vendor_idx = np.repeat(np.arange(n, dtype=index_dtype), counts)
    return customer_idx, vendor_idx, starts
