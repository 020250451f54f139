"""Greedy LP-relaxation MCKP over a vendor-major edge table.

RECON's single-vendor problems (Eq. 8) are one MCKP per vendor whose
classes are the vendor's candidate customers and whose items are the ad
types.  With a compute engine, every vendor's classes are one
contiguous slice of the ``(E, K)`` utility matrix, so the work of
:func:`~repro.mckp.lp_relaxation.solve_greedy` -- the item filter,
dominance and LP-dominance filtering, the Sinha-Zoltners increments and
their efficiency sort -- runs as array passes over a block of vendors
instead of one :class:`~repro.mckp.items.MCKPItem` per (customer, ad
type).  Only the budget sweep runs per vendor.

:func:`greedy_choices` reproduces ``solve_greedy`` on the vendor's
item instance exactly: the same comparisons with the same tolerances in
the same order, so every float it compares is bitwise the one the item
path compares, and the choices come back in the item path's
``solution.chosen`` order.  :func:`solve_vendor_rows` is the entry
point for every backend; those without a columnar kernel build the
items from the same columns.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import (
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

import numpy as np

from repro.mckp.items import MCKPInstance, MCKPItem
from repro.mckp.solvers import solve as solve_mckp

#: Affordability tolerance of RECON's item filter (``cost <= budget +
#: _ITEM_EPS``), matching ``MUAAProblem.best_instance_for_pair``.
_ITEM_EPS = 1e-9

#: Comparison tolerance of ``repro.mckp.dominance`` and
#: ``repro.mckp.lp_relaxation``.
_EPS = 1e-12

#: Edge count of one vendor block: bounds the kernel's temporary
#: arrays (a vendor with more edges forms a block of its own).
BLOCK_EDGES = 8192

#: One vendor's choices as ``(edge position, ad-type index)`` pairs
#: (:func:`greedy_choices`) or ``(customer_id, type_id)`` pairs
#: (:func:`solve_vendor_rows`).
VendorChoices = List[Tuple[int, int]]

#: A context manager per vendor row (the caller's ``recon.vendor`` span).
VendorSpan = Callable[[int], ContextManager]


class VendorTable(NamedTuple):
    """The columns the per-vendor solves read (shipped to RECON's
    workers as they are).

    Attributes:
        utilities: ``(E, K)`` utilities, vendor-major, ad types in
            catalogue order.
        edge_customer: ``(E,)`` customer row of each edge.
        vendor_starts: ``(n + 1,)`` edge offsets of the vendor rows.
        customer_ids: ``(m,)`` customer id of each customer row.
        customer_rank: ``(m,)`` rank of each row's ``str(customer_id)``
            (:func:`customer_rank`), the item path's tie-break between
            equally efficient increments.
        budget: ``(n,)`` vendor budgets.
        type_cost: ``(K,)`` ad-type prices.
        type_ids: ``(K,)`` ad-type ids.
    """

    utilities: np.ndarray
    edge_customer: np.ndarray
    vendor_starts: np.ndarray
    customer_ids: np.ndarray
    customer_rank: np.ndarray
    budget: np.ndarray
    type_cost: np.ndarray
    type_ids: np.ndarray


def customer_rank(customer_ids: np.ndarray) -> np.ndarray:
    """Rank of ``str(customer_id)`` for every customer row.

    NumPy orders unicode strings by code point, as Python does, so the
    ranks order rows exactly as ``sorted(..., key=str)`` would.
    """
    order = np.argsort(np.asarray(customer_ids).astype(str), kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank


def vendor_blocks(
    vendor_starts: np.ndarray, lo: int, hi: int, max_edges: int = BLOCK_EDGES
) -> Iterator[Tuple[int, int]]:
    """Split vendor rows ``[lo, hi)`` into consecutive ``[a, b)`` blocks
    of at most ``max_edges`` edges (one vendor per block at least)."""
    while lo < hi:
        limit = vendor_starts[lo] + max_edges
        stop = int(np.searchsorted(vendor_starts, limit, side="right")) - 1
        stop = min(max(stop, lo + 1), hi)
        yield lo, stop
        lo = stop


def _vendor_items(
    utilities: np.ndarray,
    customer_ids: Sequence[int],
    type_cost: Sequence[float],
    type_ids: Sequence[int],
    budget: float,
) -> List[MCKPItem]:
    """One vendor's MCKP items from its ``(edges, K)`` utility slice:
    every positive-utility ad type affordable within ``budget``, in
    edge order and, per edge, catalogue order."""
    items: List[MCKPItem] = []
    for customer_id, row in zip(customer_ids, utilities.tolist()):
        for k, utility in enumerate(row):
            cost = type_cost[k]
            if utility > 0 and cost <= budget + _ITEM_EPS:
                items.append(
                    MCKPItem(
                        class_id=customer_id,
                        item_id=type_ids[k],
                        cost=cost,
                        profit=utility,
                    )
                )
    return items


def solve_vendor_rows(
    table: VendorTable,
    lo: int,
    hi: int,
    method: str = "greedy-lp",
    vendor_span: VendorSpan = lambda row: nullcontext(),
) -> Iterator[Tuple[int, VendorChoices]]:
    """Solve the single-vendor MCKPs of vendor rows ``[lo, hi)`` with
    the named backend (:data:`repro.mckp.solvers.SOLVER_NAMES`).

    Yields ``(vendor_row, [(customer_id, type_id), ...])`` in row
    order, each vendor's choices in ``solution.chosen`` order.
    ``"greedy-lp"`` runs :func:`greedy_choices`; the other backends
    solve one :class:`~repro.mckp.items.MCKPInstance` per vendor.
    """
    customer_ids = table.customer_ids
    type_ids = table.type_ids.tolist()
    if method == "greedy-lp":
        edge_customer = table.edge_customer
        for row, choices in greedy_choices(table, lo, hi, vendor_span):
            yield row, [
                (int(customer_ids[edge_customer[edge]]), type_ids[k])
                for edge, k in choices
            ]
        return
    starts = table.vendor_starts
    type_cost = table.type_cost.tolist()
    for row in range(lo, hi):
        with vendor_span(row):
            budget = float(table.budget[row])
            edges = slice(int(starts[row]), int(starts[row + 1]))
            items = _vendor_items(
                table.utilities[edges],
                customer_ids[table.edge_customer[edges]].tolist(),
                type_cost,
                type_ids,
                budget,
            )
            choices: VendorChoices = []
            if items:
                solution = solve_mckp(
                    MCKPInstance.from_items(items, budget=budget),
                    method=method,
                )
                choices = [
                    (customer_id, item.item_id)
                    for customer_id, item in solution.chosen.items()
                ]
        yield row, choices


def greedy_choices(
    table: VendorTable,
    lo: int,
    hi: int,
    vendor_span: VendorSpan = lambda row: nullcontext(),
) -> Iterator[Tuple[int, VendorChoices]]:
    """Solve the single-vendor MCKPs of vendor rows ``[lo, hi)``.

    The columnar ``"greedy-lp"`` kernel.  Yields ``(vendor_row,
    [(edge, type_index), ...])`` in row order.  The rows are solved
    in blocks of at most :data:`BLOCK_EDGES` edges; each vendor's sweep
    runs inside ``vendor_span(vendor_row)``.
    """
    blocks = vendor_blocks(table.vendor_starts, lo, hi, BLOCK_EDGES)
    for block_lo, block_hi in blocks:
        block = _Block(table, block_lo, block_hi)
        for row in range(block_lo, block_hi):
            with vendor_span(row):
                choices = block.sweep(row)
            yield row, choices


class _Block:
    """The vectorized part of the item path for a block of vendors:
    item filter, dominance, LP-dominance hull, increments and their
    efficiency order, plus each edge's best single item."""

    def __init__(self, table: VendorTable, lo: int, hi: int) -> None:
        starts = table.vendor_starts
        first = int(starts[lo])
        self._lo = lo
        self._first = first
        self._starts = starts
        self._budget = table.budget
        n = int(starts[hi]) - first
        vendor = np.repeat(
            np.arange(lo, hi), np.diff(np.asarray(starts[lo:hi + 1]))
        )
        util = np.asarray(table.utilities[first:first + n], dtype=np.float64)
        budget = np.asarray(table.budget, dtype=np.float64)[vendor]
        cost = np.asarray(table.type_cost, dtype=np.float64)
        # The items of each class: positive utility, affordable alone.
        masked = np.where(
            (util > 0) & (cost[None, :] <= (budget + _ITEM_EPS)[:, None]),
            util,
            -np.inf,
        )

        # Dominance + LP-dominance, one cost level at a time.  Items are
        # visited by (cost, -profit, catalogue order), so a level's first
        # item is its first maximum; only it can survive dominance.  The
        # survivors then enter a per-edge upper-hull stack seeded with
        # the origin (classes are optional).
        levels = sorted(set(cost.tolist()))
        rows = np.arange(n)
        hull_cost = np.zeros((n, len(levels) + 1))
        hull_profit = np.zeros((n, len(levels) + 1))
        hull_type = np.zeros((n, len(levels) + 1), dtype=np.int64)
        depth = np.ones(n, dtype=np.int64)
        best = np.full(n, -1.0)
        for level_cost in levels:
            cols = np.flatnonzero(cost == level_cost)
            candidates = masked[:, cols]
            pick = candidates.argmax(axis=1)
            profit = candidates[rows, pick]
            alive = profit > best + _EPS
            best = np.where(alive, profit, best)
            alive &= profit > _EPS
            popping = alive & (depth >= 2)
            while popping.any():
                idx = np.flatnonzero(popping)
                top = depth[idx]
                c1 = hull_cost[idx, top - 2]
                p1 = hull_profit[idx, top - 2]
                c2 = hull_cost[idx, top - 1]
                p2 = hull_profit[idx, top - 1]
                lhs = (p2 - p1) * (level_cost - c1)
                rhs = (profit[idx] - p1) * (c2 - c1)
                pop = lhs <= rhs + _EPS
                depth[idx[pop]] -= 1
                popping[idx[~pop]] = False
                popping &= depth >= 2
            idx = np.flatnonzero(alive)
            top = depth[idx]
            hull_cost[idx, top] = level_cost
            hull_profit[idx, top] = profit[idx]
            hull_type[idx, top] = cols[pick[idx]]
            depth[idx] += 1

        # Increments up each chain, sorted per vendor by efficiency
        # (ties: str(customer id), then level).
        edge, level = np.nonzero(
            np.arange(len(levels))[None, :] < (depth - 1)[:, None]
        )
        delta_cost = hull_cost[edge, level + 1] - hull_cost[edge, level]
        delta_profit = (
            hull_profit[edge, level + 1] - hull_profit[edge, level]
        )
        efficiency = delta_profit / delta_cost
        rank = table.customer_rank[table.edge_customer[first + edge]]
        order = np.lexsort((level, rank, -efficiency, vendor[edge]))
        self._bounds = np.searchsorted(
            vendor[edge][order], np.arange(lo, hi + 1)
        ).tolist()
        self._delta_cost = delta_cost[order]
        self._edge = edge[order].tolist()
        self._type = hull_type[edge, level + 1][order].tolist()
        self._profit = hull_profit[edge, level + 1][order].tolist()

        # Best single item per edge (first maximum, catalogue order)
        # under the solver's own tolerance.
        single = np.where(
            cost[None, :] <= (budget + _EPS)[:, None], masked, -np.inf
        )
        self._single_type = single.argmax(axis=1)
        self._single_profit = single[rows, self._single_type]

    def sweep(self, row: int) -> VendorChoices:
        """The greedy sweep of one vendor, with the best-single-item
        safeguard; choices in first-taken order."""
        a = self._bounds[row - self._lo]
        b = self._bounds[row - self._lo + 1]
        budget = float(self._budget[row])
        chosen: Dict[int, Tuple[int, float]] = {}
        if b > a:
            delta = self._delta_cost[a:b]
            remaining = np.subtract.accumulate(
                np.concatenate(([budget], delta))
            )[:-1]
            stops = (remaining <= _EPS) | (delta > remaining + _EPS)
            taken = int(stops.argmax()) if stops.any() else b - a
            for t in range(a, a + taken):
                # A class keeps its first-taken position and its
                # last-taken item, as the item path's dict does.
                chosen[self._edge[t]] = (self._type[t], self._profit[t])
        total = 0.0
        for _, profit in chosen.values():
            total += profit
        seg_lo = int(self._starts[row]) - self._first
        seg_hi = int(self._starts[row + 1]) - self._first
        if seg_hi > seg_lo:
            edge = seg_lo + int(self._single_profit[seg_lo:seg_hi].argmax())
            if self._single_profit[edge] > total:
                return [(self._first + edge, int(self._single_type[edge]))]
        return [(self._first + edge, k) for edge, (k, _) in chosen.items()]
