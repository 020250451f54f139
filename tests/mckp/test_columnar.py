"""The columnar greedy LP kernel against the item path it replaces.

For every vendor of a random vendor-major table, the kernel's choices
must equal ``solve_greedy`` on that vendor's ``MCKPItem`` instance --
the same (customer, ad type) pairs in the same ``solution.chosen``
order.  The tables are drawn to hit the item path's edge cases: equal
costs and dominated types, profits near the ``1e-12`` tolerance, budgets
below the cheapest type, vendors with no edges, single customers and
ties broken by ``str(customer_id)``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mckp import columnar
from repro.mckp.columnar import (
    VendorTable,
    customer_rank,
    solve_vendor_rows,
    vendor_blocks,
)
from repro.mckp.items import MCKPInstance, MCKPItem
from repro.mckp.lp_relaxation import solve_greedy

#: Pair bases: a few shared values (equal efficiencies across classes),
#: values at and around the 1e-12 tolerance, and zero.
_BASES = st.one_of(
    st.sampled_from([0.0, 1e-12, 2e-12, 5e-13, 1e-11, 0.5, 1.0, 2.0]),
    st.floats(min_value=1e-3, max_value=5.0),
)

#: Ad-type costs from a small set, so catalogues repeat costs.
_COSTS = st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0])

#: Per-type profit offsets around the 1e-12 dominance tolerance.
_OFFSETS = st.sampled_from([0.0, 5e-13, 1e-12, 2e-12, 1e-6])


@st.composite
def catalogues(draw):
    """``(costs, effectiveness)``: either the paper's concave pattern
    (doubling costs, sublinear effectiveness: multi-level hulls) or
    types drawn from small sets (equal costs, dominated types)."""
    n_types = draw(st.integers(1, 4))
    if draw(st.booleans()):
        costs = [2.0 ** k for k in range(n_types)]
        effectiveness = [min(1.0, 0.1 * c ** 0.85) for c in costs]
        return costs, effectiveness
    costs = [draw(_COSTS) for _ in range(n_types)]
    effectiveness = [
        draw(st.sampled_from([0.1, 0.2, 0.4, 0.6, 1.0]))
        for _ in range(n_types)
    ]
    return costs, effectiveness


@st.composite
def tables(draw):
    costs, effectiveness = draw(catalogues())
    n_types = len(costs)
    n_customers = draw(st.integers(1, 12))
    customer_ids = np.array(
        draw(
            st.lists(
                st.integers(0, 120),
                min_size=n_customers,
                max_size=n_customers,
                unique=True,
            )
        ),
        dtype=np.int64,
    )
    n_vendors = draw(st.integers(1, 4))
    rows, utilities, starts, budgets = [], [], [0], []
    for _ in range(n_vendors):
        members = draw(
            st.lists(
                st.integers(0, n_customers - 1),
                max_size=n_customers,
                unique=True,
            )
        )
        for row in members:
            base = draw(_BASES)
            if draw(st.integers(0, 3)):
                # Utility = base x effectiveness; a per-edge jitter of
                # one type makes it dominated on some edges.
                scale = [1.0] * n_types
                scale[draw(st.integers(0, n_types - 1))] = draw(
                    st.sampled_from([1.0, 0.5, 1.5])
                )
                row_utility = [
                    base * e * j for e, j in zip(effectiveness, scale)
                ]
            else:
                # Near-equal profits across types.
                row_utility = [base + draw(_OFFSETS) for _ in costs]
            utilities.append(row_utility)
            rows.append(row)
        starts.append(len(rows))
        budgets.append(
            draw(st.sampled_from([0.25, 0.5, 1.0, 3.0, 4.5, 7.0, 12.0, 30.0]))
        )
    return VendorTable(
        utilities=np.array(utilities, dtype=np.float64).reshape(
            len(rows), n_types
        ),
        edge_customer=np.array(rows, dtype=np.intp),
        vendor_starts=np.array(starts, dtype=np.int64),
        customer_ids=customer_ids,
        customer_rank=customer_rank(customer_ids),
        budget=np.array(budgets, dtype=np.float64),
        type_cost=np.array(costs, dtype=np.float64),
        type_ids=np.arange(10, 10 + n_types, dtype=np.int64),
    )


def _item_path(table: VendorTable, row: int):
    """``solve_greedy`` on the vendor's items, built the way RECON
    built them before the kernel existed."""
    lo = int(table.vendor_starts[row])
    hi = int(table.vendor_starts[row + 1])
    budget = float(table.budget[row])
    items = []
    for edge in range(lo, hi):
        customer_id = int(table.customer_ids[table.edge_customer[edge]])
        for k, cost in enumerate(table.type_cost.tolist()):
            utility = float(table.utilities[edge, k])
            if utility > 0 and cost <= budget + 1e-9:
                items.append(
                    MCKPItem(
                        class_id=customer_id,
                        item_id=int(table.type_ids[k]),
                        cost=cost,
                        profit=utility,
                    )
                )
    if not items:
        return []
    solution = solve_greedy(MCKPInstance.from_items(items, budget=budget))
    return [
        (customer_id, item.item_id)
        for customer_id, item in solution.chosen.items()
    ]


def _kernel(table: VendorTable, lo: int = 0, hi=None):
    if hi is None:
        hi = len(table.budget)
    return dict(solve_vendor_rows(table, lo, hi))


@settings(max_examples=300, deadline=None)
@given(tables())
def test_kernel_matches_item_path(table):
    solved = _kernel(table)
    assert list(solved) == list(range(len(table.budget)))
    for row, choices in solved.items():
        assert choices == _item_path(table, row)


@settings(max_examples=60, deadline=None)
@given(tables(), st.integers(1, 5))
def test_blocks_and_spans_do_not_change_choices(table, block_edges):
    whole = _kernel(table)
    original = columnar.BLOCK_EDGES
    columnar.BLOCK_EDGES = block_edges
    try:
        n = len(table.budget)
        for split in range(n + 1):
            parts = _kernel(table, 0, split)
            parts.update(_kernel(table, split, n))
            assert parts == whole
    finally:
        columnar.BLOCK_EDGES = original


def _single_vendor(utilities, budget, customer_ids=(7,), costs=(1.0, 2.0)):
    utilities = np.asarray(utilities, dtype=np.float64).reshape(
        -1, len(costs)
    )
    ids = np.asarray(customer_ids, dtype=np.int64)
    return VendorTable(
        utilities=utilities,
        edge_customer=np.arange(len(utilities), dtype=np.intp),
        vendor_starts=np.array([0, len(utilities)], dtype=np.int64),
        customer_ids=ids,
        customer_rank=customer_rank(ids),
        budget=np.array([budget]),
        type_cost=np.asarray(costs, dtype=np.float64),
        type_ids=np.arange(len(costs), dtype=np.int64),
    )


class TestCases:
    def test_vendor_without_edges_chooses_nothing(self):
        table = _single_vendor(np.zeros((0, 2)), budget=5.0, customer_ids=())
        assert _kernel(table) == {0: []}

    def test_budget_below_cheapest_type_chooses_nothing(self):
        table = _single_vendor([[3.0, 5.0]], budget=0.5)
        assert _kernel(table) == {0: []} == {0: _item_path(table, 0)}

    def test_single_customer_takes_the_hull_top(self):
        table = _single_vendor([[1.0, 5.0]], budget=2.0)
        assert _kernel(table)[0] == [(7, 1)] == _item_path(table, 0)

    def test_equal_costs_keep_the_first_best_type(self):
        table = _single_vendor(
            [[2.0, 2.0, 1.0]], budget=3.0, costs=(1.0, 1.0, 1.0)
        )
        assert _kernel(table)[0] == [(7, 0)] == _item_path(table, 0)

    def test_efficiency_ties_break_on_the_customer_id_string(self):
        # Customers 10 and 9 tie on efficiency; "10" < "9" wins the
        # only affordable slot.
        table = _single_vendor(
            [[1.0, 0.0], [1.0, 0.0]], budget=1.0, customer_ids=(9, 10),
            costs=(1.0, 2.0),
        )
        assert _kernel(table)[0] == [(10, 0)] == _item_path(table, 0)

    def test_collinear_type_is_dropped_from_the_hull(self):
        # (1, 1) lies on the segment from the origin to (2, 2): the
        # hull keeps only (2, 2), so customer 1 takes one increment
        # of cost 2 and customer 2 cannot afford the next.
        table = _single_vendor(
            [[1.0, 2.0], [1.0, 2.0]], budget=3.0, customer_ids=(1, 2)
        )
        assert _kernel(table)[0] == [(1, 1)] == _item_path(table, 0)

    def test_profit_within_tolerance_is_dominated(self):
        table = _single_vendor(
            [[1.0, 1.0 + 5e-13], [1.0, 1.0 + 5e-13]], budget=4.0,
            customer_ids=(1, 2),
        )
        assert _kernel(table)[0] == [(1, 0), (2, 0)] == _item_path(table, 0)

    def test_sweep_stops_once_the_budget_is_spent(self):
        # After customer 1's item the remaining budget is 0: the
        # customer-2 increment of cost 1e-12 still "fits" the
        # tolerance, but the sweep has already stopped.
        table = _single_vendor(
            [[0.0, 3.0], [2e-12, 0.0]], budget=1.0, customer_ids=(1, 2),
            costs=(1e-12, 1.0),
        )
        assert _kernel(table)[0] == [(1, 1)] == _item_path(table, 0)

    def test_item_and_single_item_tolerances_differ(self):
        # Customer 1's cost-3 type is an item (3 <= budget + 1e-9) and
        # drops its cost-1 type from the hull, but it is no single-item
        # candidate (3 > budget + 1e-12), so the safeguard picks the
        # best affordable single item.
        table = _single_vendor(
            [[1.0, 5.0], [0.9, 0.0]], budget=3.0 - 5e-10,
            customer_ids=(1, 2), costs=(1.0, 3.0),
        )
        assert _kernel(table)[0] == [(1, 0)] == _item_path(table, 0)

    def test_a_class_keeps_its_last_taken_level(self):
        table = _single_vendor(
            [[0.4, 0.6], [0.4, 0.6]], budget=4.0, customer_ids=(1, 2)
        )
        assert _kernel(table)[0] == [(1, 1), (2, 1)] == _item_path(table, 0)

    def test_best_single_item_safeguard(self):
        # Greedy takes the efficient crumb and cannot afford the big
        # item; the single big item is worth more.
        table = _single_vendor(
            [[2.0, 0.0], [0.0, 15.0]], budget=10.0, customer_ids=(1, 2),
            costs=(1.0, 10.0),
        )
        assert _kernel(table)[0] == [(2, 1)] == _item_path(table, 0)


def test_vendor_blocks_bound_edges():
    starts = np.array([0, 2, 2, 9, 10, 11], dtype=np.int64)
    blocks = list(vendor_blocks(starts, 0, 5, max_edges=3))
    assert blocks == [(0, 2), (2, 3), (3, 5)]
    for lo, hi in blocks:
        assert hi - lo == 1 or starts[hi] - starts[lo] <= 3


def test_customer_rank_orders_like_str():
    ids = np.array([9, 10, 100, 2, 21], dtype=np.int64)
    rank = customer_rank(ids)
    assert [int(i) for i in ids[np.argsort(rank)]] == sorted(
        ids.tolist(), key=str
    )


@pytest.mark.parametrize("method", ["fptas", "dp", "bb", "lp-simplex"])
def test_other_backends_use_the_items(method):
    from repro.mckp.solvers import solve

    table = _single_vendor(
        [[1.0, 3.0], [2.0, 2.5], [0.5, 4.0]], budget=3.0,
        customer_ids=(4, 5, 6),
    )
    items = [
        MCKPItem(class_id=cid, item_id=k, cost=cost, profit=float(u))
        for cid, row in zip((4, 5, 6), table.utilities)
        for k, (cost, u) in enumerate(zip((1.0, 2.0), row))
    ]
    expected = solve(MCKPInstance.from_items(items, budget=3.0), method)
    assert dict(solve_vendor_rows(table, 0, 1, method))[0] == [
        (cid, item.item_id) for cid, item in expected.chosen.items()
    ]
