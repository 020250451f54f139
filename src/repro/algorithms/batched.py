"""Micro-batched online assignment: a hybrid between O-AFA and RECON.

O-AFA commits to each customer instantly; RECON needs the whole day in
advance.  In many deployments a small decision delay is acceptable: the
broker buffers k arriving customers (or a time window) and solves a
*small offline MUAA* over the batch against the remaining budgets.
This trades latency for utility and is a natural extension of the
paper's online setting (its Section II notes customers stay available
for a few seconds).

The batch subproblem reuses RECON on a restricted problem whose vendor
budgets equal the *remaining* budgets at batch time.
"""

from __future__ import annotations

from typing import List, Optional

from repro.algorithms.base import OnlineAlgorithm
from repro.algorithms.recon import Reconciliation
from repro.core.assignment import AdInstance, Assignment
from repro.core.entities import Customer, Vendor
from repro.core.problem import MUAAProblem


class BatchedReconciliation(OnlineAlgorithm):
    """Buffer ``batch_size`` customers, solve a mini-MUAA per batch.

    The simulator contract is one decision per arriving customer, so
    the algorithm returns ``[]`` while buffering and flushes the whole
    batch's ads on the customer that fills it.  Customers buffered when
    the stream ends are decided by :meth:`flush_pending`, which the
    simulator calls after the last arrival.

    Args:
        batch_size: Customers per batch (1 degenerates to greedy
            per-customer decisions).
        mckp_method: Backend for the per-vendor subproblems.
        seed: Seed for RECON's reconciliation order.
    """

    name = "BATCH-RECON"

    def __init__(
        self,
        batch_size: int = 32,
        mckp_method: str = "greedy-lp",
        seed: Optional[int] = 0,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._batch_size = batch_size
        self._mckp_method = mckp_method
        self._seed = seed
        self._buffer: List[Customer] = []

    def reset(self, problem: MUAAProblem) -> None:
        self._buffer = []

    def _solve_batch(
        self, problem: MUAAProblem, assignment: Assignment
    ) -> List[AdInstance]:
        """Solve a mini-MUAA over the buffered customers."""
        batch = self._buffer
        self._buffer = []
        if not batch:
            return []
        # Restrict to vendors with usable remaining budget.
        vendors = []
        for vendor in problem.vendors:
            remaining = assignment.remaining_budget(vendor.vendor_id)
            if remaining >= problem.min_cost:
                vendors.append(
                    Vendor(
                        vendor_id=vendor.vendor_id,
                        location=vendor.location,
                        radius=vendor.radius,
                        budget=remaining,
                        tags=vendor.tags,
                    )
                )
        if not vendors:
            return []
        sub = MUAAProblem(
            customers=batch,
            vendors=vendors,
            ad_types=problem.ad_types,
            utility_model=problem.utility_model,
        )
        recon = Reconciliation(mckp_method=self._mckp_method, seed=self._seed)
        solved = recon.solve(sub)
        return solved.instances()

    def process_customer(
        self,
        problem: MUAAProblem,
        customer: Customer,
        assignment: Assignment,
    ) -> List[AdInstance]:
        self._buffer.append(customer)
        if len(self._buffer) >= self._batch_size:
            return self._solve_batch(problem, assignment)
        return []

    def flush_pending(
        self, problem: MUAAProblem, assignment: Assignment
    ) -> List[AdInstance]:
        """Decide any customers still buffered (end of stream)."""
        return self._solve_batch(problem, assignment)

