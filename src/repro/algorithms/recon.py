"""The reconciliation approach, RECON (Section III, Algorithm 1).

Per vendor, the single-vendor problem (Eq. 8) -- an optional-class
multiple-choice knapsack over the vendor's valid customers -- is solved
with a pluggable MCKP backend (greedy LP-relaxation by default, matching
the paper's use of an LP solver with :math:`(1-\\varepsilon)`
guarantees).  The per-vendor solutions are unioned, which may leave some
customers over their ad limit; the reconciliation loop then visits the
violated customers in random order, repeatedly deletes their
lowest-utility instance, and lets the freed vendor greedily re-spend the
refund on other valid customers with spare capacity.  Theorem III.1
bounds the result at :math:`(1 - \\varepsilon)\\,\\theta` of optimal.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.algorithms.base import OfflineAlgorithm
from repro.core.assignment import AdInstance, Assignment
from repro.core.entities import Vendor
from repro.core.problem import MUAAProblem
from repro.mckp.columnar import (
    VendorTable,
    customer_rank,
    solve_vendor_rows,
)
from repro.mckp.items import MCKPInstance, MCKPItem
from repro.mckp.solvers import solve as solve_mckp
from repro.obs.recorder import recorder
from repro.parallel import ParallelConfig, parallel_map, resolve
from repro.parallel import recon_workers
from repro.parallel.shm import HAVE_SHARED_MEMORY, ship_columns

_EPS = 1e-9

#: One vendor's candidate edges: the customer id and the ``pair_bases``
#: value of each edge, in the engine's edge order.
EdgeSlice = Tuple[np.ndarray, np.ndarray]


class Reconciliation(OfflineAlgorithm):
    """Algorithm 1: per-vendor MCKP + capacity-violation reconciliation.

    Args:
        mckp_method: Backend for the single-vendor problems; one of
            :data:`repro.mckp.solvers.SOLVER_NAMES`.
        seed: RNG seed for the random order in which violated customers
            are reconciled (line 7 of Algorithm 1 picks randomly).
            The RNG state is derived from this seed alone -- never from
            worker scheduling -- so a fixed seed produces identical
            assignments at every ``jobs`` value.
        violation_order: Order in which violated customers are
            reconciled -- ``"random"`` (the paper's choice),
            ``"most-violated"`` (largest capacity excess first), or
            ``"least-excess"`` (smallest excess first).  Exposed for
            the reconciliation-order ablation; the guarantee of
            Theorem III.1 holds for any order.
        jobs: Worker processes for the per-vendor MCKP solves (the
            independent subproblems of Eq. 8).  ``1`` (default) keeps
            the serial path; vendor batches are chunked across workers
            and merged in vendor order, so assignments are
            byte-identical to serial at any value.
        parallel: Full fan-out configuration; overrides ``jobs``.
        shards: Solve through a spatial shard plan with this many
            shards: each shard's per-vendor MCKPs run against that
            shard's engine only (whole shards go to worker processes
            when ``jobs > 1``), the shard is released, and the usual
            reconciliation then restores the global capacity
            constraint on replicated customers.  ``1`` (default) keeps
            the original unsharded path byte-for-byte.
        shard_plan: Explicit :class:`~repro.sharding.ShardPlan`,
            overriding ``shards``.

    Raises:
        ValueError: On an unknown violation order.
    """

    name = "RECON"

    #: Accepted reconciliation orders.
    VIOLATION_ORDERS = ("random", "most-violated", "least-excess")

    def __init__(
        self,
        mckp_method: str = "greedy-lp",
        seed: Optional[int] = None,
        violation_order: str = "random",
        jobs: int = 1,
        parallel: Optional[ParallelConfig] = None,
        shards: int = 1,
        shard_plan=None,
    ) -> None:
        if violation_order not in self.VIOLATION_ORDERS:
            raise ValueError(
                f"unknown violation order {violation_order!r}; choose "
                f"from {self.VIOLATION_ORDERS}"
            )
        self._mckp_method = mckp_method
        self._seed = seed
        self._violation_order = violation_order
        self._parallel = resolve(parallel, jobs)
        self._shards = shards
        self._shard_plan = shard_plan
        #: Diagnostics of the last run (violations found, ads replaced).
        self.last_stats: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Single-vendor problems (lines 2-5)
    # ------------------------------------------------------------------
    def _solve_single_vendor(
        self, problem: MUAAProblem, vendor: Vendor
    ) -> List[AdInstance]:
        """Solve :math:`\\mathbb{M}_j` on the scalar utility path (no
        compute engine) and return its chosen instances."""
        with recorder().span("recon.vendor", vendor_id=vendor.vendor_id):
            items: List[MCKPItem] = []
            for customer_id in problem.valid_customer_ids(vendor):
                for inst in problem.pair_instances(
                    customer_id, vendor.vendor_id
                ):
                    if inst.utility > 0 and inst.cost <= vendor.budget + _EPS:
                        items.append(
                            MCKPItem(
                                class_id=customer_id,
                                item_id=inst.type_id,
                                cost=inst.cost,
                                profit=inst.utility,
                            )
                        )
            if not items:
                return []
            mckp = MCKPInstance.from_items(items, budget=vendor.budget)
            solution = solve_mckp(mckp, method=self._mckp_method)
        return [
            problem.make_instance(customer_id, vendor.vendor_id, item.item_id)
            for customer_id, item in solution.chosen.items()
        ]

    def _vendor_solutions(
        self, problem: MUAAProblem, fan_out: bool = True
    ) -> Iterator[List[AdInstance]]:
        """Per-vendor MCKP solutions, in vendor catalogue order.

        With a compute engine every vendor is solved on the engine's
        columns (:func:`repro.mckp.columnar.solve_vendor_rows`): in
        this process, or with ``jobs > 1`` and ``fan_out`` in worker
        processes against the same columns in shared memory, merged
        back in vendor order; the two are byte-identical.  The pool
        declining (one job, no shared memory, worker crash) falls back
        to this process.  Without an engine each vendor's items are
        built from the scalar utility model.
        """
        engine = problem.acquire_engine()
        if engine is None:
            for vendor in problem.vendors:
                yield self._solve_single_vendor(problem, vendor)
            return
        table = _vendor_table(problem, engine)
        vendor_ids = engine.arrays.vendor_ids.tolist()
        rows = self._parallel_vendor_rows(table) if fan_out else None
        if rows is None:
            rec = recorder()
            rows = solve_vendor_rows(
                table,
                0,
                len(vendor_ids),
                self._mckp_method,
                lambda row: rec.span(
                    "recon.vendor", vendor_id=vendor_ids[row]
                ),
            )
        for row, choices in rows:
            vendor_id = vendor_ids[row]
            yield [
                problem.make_instance(customer_id, vendor_id, type_id)
                for customer_id, type_id in choices
            ]

    def _parallel_vendor_rows(self, table: VendorTable):
        """Fan the per-vendor solves across workers: ``(vendor_row,
        choices)`` in row order, or ``None`` when the pool declines."""
        n_vendors = len(table.budget)
        if not HAVE_SHARED_MEMORY or not self._parallel.active(n_vendors):
            return None
        with ship_columns(table._asdict()) as shipment:
            chunked = parallel_map(
                recon_workers.solve_vendor_span,
                self._parallel.spans(n_vendors),
                self._parallel,
                initializer=recon_workers.init_worker,
                initargs=(shipment.handle, self._mckp_method),
            )
        if chunked is None:
            return None
        return [solved for chunk in chunked for solved in chunk]

    def _solve_shard(
        self, plan, shard: int
    ) -> Tuple[List[List[AdInstance]], Dict[int, EdgeSlice]]:
        """One shard's per-vendor solutions, in its vendor order, and
        the edge slice of every vendor that chose an instance.

        Only such a vendor can be refunded, and its slice is what its
        refund queue is built from once the shard's engine is gone
        (the view is released before returning, so peak memory is one
        shard's engine).
        """
        view = plan.problem_for(shard)
        with recorder().span(
            "recon.shard_mckp", shard=shard, n_vendors=len(view.vendors)
        ):
            solutions = list(self._vendor_solutions(view, fan_out=False))
        slices: Dict[int, EdgeSlice] = {}
        if view.engine is not None and not view.moved_customer_ids:
            for instances in solutions:
                if instances:
                    vendor_id = instances[0].vendor_id
                    slices[vendor_id] = _edge_slice(view.engine, vendor_id)
        plan.release(shard)
        return solutions, slices

    def _shard_solutions(self, plan):
        """:meth:`_solve_shard` for every shard, in shard order.

        With ``jobs > 1`` whole shards go to worker processes (each
        builds its own view's engine), so the per-shard engine builds
        run side by side; the pool declining falls back to solving the
        shards one after another in this process.
        """
        n_shards = plan.n_shards
        solved = None
        if self._parallel.active(n_shards):
            solved = parallel_map(
                recon_workers.solve_shard,
                range(n_shards),
                self._parallel,
                initializer=recon_workers.init_shard_worker,
                initargs=(plan, self._mckp_method),
            )
            plan.release_all()
        if solved is None:
            solved = (self._solve_shard(plan, s) for s in range(n_shards))
        return solved

    # ------------------------------------------------------------------
    # Reconciliation (lines 6-11)
    # ------------------------------------------------------------------
    def _resolve_plan(self, problem: MUAAProblem):
        """The active shard plan, or ``None`` for the unsharded path."""
        if self._shard_plan is None and self._shards <= 1:
            return None
        from repro.sharding import resolve_plan

        return resolve_plan(problem, self._shards, self._shard_plan)

    @staticmethod
    def _merge(
        instances: List[AdInstance],
        by_customer: Dict[int, List[AdInstance]],
        spend: Dict[int, float],
        assigned_pairs: Set[Tuple[int, int]],
    ) -> None:
        """Union one vendor's solution into the mutable global view."""
        for inst in instances:
            by_customer.setdefault(inst.customer_id, []).append(inst)
            spend[inst.vendor_id] += inst.cost
            assigned_pairs.add(inst.pair)

    def solve(self, problem: MUAAProblem) -> Assignment:
        rec = recorder()

        # Mutable global view: per-customer instance lists, per-vendor
        # spend.  Capacity may be violated here by design.
        by_customer: Dict[int, List[AdInstance]] = {}
        spend: Dict[int, float] = {v.vendor_id: 0.0 for v in problem.vendors}
        assigned_pairs: Set[Tuple[int, int]] = set()

        plan = self._resolve_plan(problem)
        edge_slices: Optional[Dict[int, EdgeSlice]] = None
        if plan is not None:
            # Sharded collection: each shard's engine lives only while
            # its vendors are solved (release before the next build),
            # so peak memory is the largest shard's edge table.  Every
            # vendor's candidate set is fully inside its shard (cell
            # size >= max radius + customer replication), making the
            # per-vendor solutions identical to the unsharded ones.
            edge_slices = {}
            for solutions, slices in self._shard_solutions(plan):
                for instances in solutions:
                    self._merge(
                        instances, by_customer, spend, assigned_pairs
                    )
                edge_slices.update(slices)
        else:
            with rec.span(
                "recon.vendor_mckp", n_vendors=len(problem.vendors)
            ):
                for instances in self._vendor_solutions(problem):
                    self._merge(
                        instances, by_customer, spend, assigned_pairs
                    )

        assignment, stats = reconcile_capacity(
            problem,
            by_customer,
            spend,
            assigned_pairs,
            seed=self._seed,
            violation_order=self._violation_order,
            edge_slices=edge_slices,
        )
        self.last_stats = stats
        return assignment


def _vendor_table(problem: MUAAProblem, engine) -> VendorTable:
    """The engine columns RECON's per-vendor solves read.

    Budgets and ad-type prices come from the entities, so every dtype
    policy, in this process and in workers, compares the same
    full-width values.
    """
    arrays = engine.arrays
    edges = engine.edges
    return VendorTable(
        utilities=engine.utilities(),
        edge_customer=edges.customer_idx,
        vendor_starts=edges.vendor_starts,
        customer_ids=arrays.customer_ids,
        customer_rank=customer_rank(arrays.customer_ids),
        budget=np.array([v.budget for v in problem.vendors], dtype=np.float64),
        type_cost=np.array(
            [t.cost for t in problem.ad_types], dtype=np.float64
        ),
        type_ids=arrays.type_ids,
    )


def _edge_slice(engine, vendor_id: int) -> EdgeSlice:
    """A vendor's :data:`EdgeSlice`, copied out of the engine."""
    span = engine.vendor_edge_slice(vendor_id)
    return (
        engine.arrays.customer_ids[engine.edges.customer_idx[span]],
        engine.pair_bases[span].copy(),
    )


def _refund_queue(
    problem: MUAAProblem,
    vendor_id: int,
    edge_slice: Optional[EdgeSlice] = None,
) -> List[AdInstance]:
    """Line 11's candidates: every positive-utility instance of the
    vendor, by decreasing efficiency (ties keep customer, then
    catalogue order).

    They come from the vendor's edge slice -- ``edge_slice`` (kept from
    a released shard engine) or the problem's engine -- with utilities
    ``float(base) * effectiveness`` as ``MUAAProblem.pair_instances``
    computes them.  Without either, or once a customer has moved (its
    rows are stale), they come from the scalar model.
    """
    engine = problem.engine
    if problem.moved_customer_ids or (edge_slice is None and engine is None):
        vendor = problem.vendors_by_id[vendor_id]
        queue = [
            inst
            for cid in problem.valid_customer_ids(vendor)
            for inst in problem.pair_instances(cid, vendor_id)
            if inst.utility > 0
        ]
        queue.sort(key=lambda inst: -inst.efficiency)
        return queue
    if edge_slice is None:
        edge_slice = _edge_slice(engine, vendor_id)
    customer_ids, bases = edge_slice
    ad_types = problem.ad_types
    utility = (
        bases.astype(np.float64)[:, None]
        * np.array([t.effectiveness for t in ad_types])[None, :]
    )
    edge, k = np.nonzero(utility > 0)
    utility = utility[edge, k]
    order = np.argsort(
        -(utility / np.array([t.cost for t in ad_types])[k]), kind="stable"
    )
    customer_ids = customer_ids.tolist()
    return [
        AdInstance(
            customer_id=customer_ids[e],
            vendor_id=vendor_id,
            type_id=ad_types[t].type_id,
            utility=u,
            cost=ad_types[t].cost,
        )
        for e, t, u in zip(
            edge[order].tolist(), k[order].tolist(), utility[order].tolist()
        )
    ]


def reconcile_capacity(
    problem: MUAAProblem,
    by_customer: Dict[int, List[AdInstance]],
    spend: Dict[int, float],
    assigned_pairs: Set[Tuple[int, int]],
    seed: Optional[int] = None,
    violation_order: str = "random",
    edge_slices: Optional[Dict[int, EdgeSlice]] = None,
) -> Tuple[Assignment, Dict[str, float]]:
    """Lines 6-11 of Algorithm 1 as a reusable pass.

    Takes the unioned per-vendor solutions (which may violate customer
    capacities -- by per-vendor construction in the unsharded solver,
    or additionally via replicated customers in the sharded solvers)
    and restores feasibility: violated customers are visited in the
    configured order, their lowest-utility instances dropped, and each
    refunded vendor greedily re-spends its freed budget.

    The mutable inputs (``by_customer``, ``spend``, ``assigned_pairs``)
    are consumed and modified in place.  ``edge_slices`` holds the
    candidate edges of vendors whose engine is gone (a sharded solve
    releases each shard's view); other vendors' refund queues come from
    ``problem``.

    Returns:
        The feasible assignment and the run's violation statistics.
    """
    rec = recorder()
    rng = np.random.default_rng(seed)

    # Canonical (sorted) base order: the reconciliation order must
    # be a function of the seed and the instance alone, never of
    # dict insertion order or worker scheduling -- ``seed=`` then
    # gives identical output at any ``jobs`` value.
    violated = sorted(
        cid
        for cid, instances in by_customer.items()
        if len(instances) > problem.capacities[cid]
    )
    if violation_order == "random":
        rng.shuffle(violated)
    else:
        reverse = violation_order == "most-violated"
        violated.sort(
            key=lambda cid: len(by_customer[cid]) - problem.capacities[cid],
            reverse=reverse,
        )
    n_violations = len(violated)
    n_replacements = 0

    # Per-vendor candidate queues for the greedy re-assignment,
    # built lazily the first time a vendor frees budget.
    vendor_candidates: Dict[int, List[AdInstance]] = {}
    vendor_cursor: Dict[int, int] = {}

    def candidates_for(vendor_id: int) -> List[AdInstance]:
        queue = vendor_candidates.get(vendor_id)
        if queue is None:
            queue = _refund_queue(
                problem, vendor_id, (edge_slices or {}).get(vendor_id)
            )
            vendor_candidates[vendor_id] = queue
            vendor_cursor[vendor_id] = 0
        return queue

    def redistribute(vendor_id: int) -> None:
        """Line 11: greedily re-spend the vendor's freed budget."""
        nonlocal n_replacements
        budget = problem.budgets[vendor_id]
        queue = candidates_for(vendor_id)
        cursor = vendor_cursor[vendor_id]
        while cursor < len(queue):
            inst = queue[cursor]
            cid = inst.customer_id
            if (
                inst.pair not in assigned_pairs
                and spend[vendor_id] + inst.cost <= budget + _EPS
                and len(by_customer.get(cid, ()))
                < problem.capacities[cid]
            ):
                by_customer.setdefault(cid, []).append(inst)
                spend[vendor_id] += inst.cost
                assigned_pairs.add(inst.pair)
                n_replacements += 1
                cursor += 1
                continue
            if spend[vendor_id] + problem.min_cost > budget + _EPS:
                break  # no ad type is affordable any more
            cursor += 1
        vendor_cursor[vendor_id] = cursor

    with rec.span("recon.reconcile", n_violated=n_violations):
        for cid in violated:
            instances = by_customer[cid]
            capacity = problem.capacities[cid]
            # Line 8: sort the customer's instances by utility.
            instances.sort(key=lambda inst: -inst.utility)
            while len(instances) > capacity:
                # Line 10: drop the lowest-utility instance.
                dropped = instances.pop()
                spend[dropped.vendor_id] -= dropped.cost
                assigned_pairs.discard(dropped.pair)
                # Line 11: the vendor re-spends its refund elsewhere.
                redistribute(dropped.vendor_id)

    rec.count("recon.violated_customers", n_violations)
    rec.count("recon.replacement_ads", n_replacements)
    stats = {
        "violated_customers": float(n_violations),
        "replacement_ads": float(n_replacements),
    }

    assignment = problem.new_assignment()
    for instances in by_customer.values():
        for inst in instances:
            assignment.add(inst, strict=True)
    return assignment, stats
