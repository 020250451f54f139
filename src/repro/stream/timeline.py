"""The arrival timeline shared by the stream, broker, cluster and serve
loops.

Section IV's online model has one step: a customer arrives, is decided
against the budgets spent so far, and the decision is committed.  The
four serving loops differ only in how they decide; :class:`Timeline`
owns the rest -- the per-tick world update, the one commit rule and the
end-of-run rollback (see "Arrival timeline" in ``docs/incremental.md``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.assignment import AdInstance, Assignment
from repro.core.entities import Customer
from repro.obs.recorder import recorder

#: Outcomes of :meth:`Timeline.commit`.
COMMITTED, DUPLICATE, REJECTED = "committed", "duplicate", "rejected"


class Timeline:
    """Arrivals, commits and rollback of one serving run.

    Counters are emitted as ``<path>.budget_commits``,
    ``.rejected_instances``, ``.duplicates_suppressed``,
    ``.vendors_deactivated``, ``.churn_events`` and ``.customer_moves``.

    Args:
        problem: The global problem; commits are checked against it and
            exhaustion is noted on it.
        path: Metric prefix of the serving loop (``"stream"``,
            ``"broker"``, ``"cluster"``, ``"serve"``).
        plan: Optional :class:`~repro.sharding.ShardPlan` that churn and
            moves go through (the identity plan too, so its log
            advances).
        churn: Optional :class:`~repro.churn.ChurnSchedule`.
        moves: Optional :class:`~repro.scenario.trajectory.MoveSchedule`.
        note_exhaustion: Auto-deactivate a vendor after a commit leaves
            it unable to afford the cheapest ad.

    Attributes:
        arrived: Ids of the customers that have arrived.
        churned: ``(event, deltas)`` of each churn event the last
            :meth:`arrive` applied (``deltas`` is ``None`` without a
            plan).
        budget_commits, rejected_instances, duplicates_suppressed,
        vendors_deactivated: Commit-outcome counts of the run.
    """

    def __init__(
        self,
        problem,
        path: str,
        plan=None,
        churn=None,
        moves=None,
        note_exhaustion: bool = True,
    ) -> None:
        self.problem = problem
        self.path = path
        self.plan = plan
        self.churn = churn
        self.moves = moves
        self.note_exhaustion = note_exhaustion
        self.arrived: set = set()
        self.churned: List[Tuple[object, Optional[list]]] = []
        self.budget_commits = 0
        self.rejected_instances = 0
        self.duplicates_suppressed = 0
        self.vendors_deactivated = 0
        self._base_skips = problem.churn.skips

    def __enter__(self) -> "Timeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def exhausted_skips(self) -> int:
        """Candidate-scan skips of deactivated vendors since creation."""
        return self.problem.churn.skips - self._base_skips

    def arrive(
        self, customer: Customer, tick: Optional[int] = None
    ) -> Customer:
        """Mark ``customer`` arrived, first applying the churn and then
        the moves due at ``tick`` (when given); returns the entity as
        it stands after the moves."""
        if self.churned:
            self.churned = []
        if tick is not None:
            if self.churn is not None:
                for event in self.churn.at(tick):
                    self.churned.append((event, self.apply_churn(event, tick)))
            if self.moves is not None:
                for move in self.moves.at(tick):
                    self._move(move, tick)
                customer = self.problem.customers_by_id.get(
                    customer.customer_id, customer
                )
        self.arrived.add(customer.customer_id)
        return customer

    def apply_churn(self, event, tick: int = -1):
        """Apply one churn event; returns the plan's per-shard deltas
        (``None`` without a plan)."""
        deltas = None
        if self.plan is not None:
            deltas = self.plan.apply_churn(event)
        else:
            self.problem.apply_churn(event)
        rec = recorder()
        rec.count(f"{self.path}.churn_events")
        rec.event(
            f"{self.path}.churn",
            kind=event.kind,
            tick=tick,
            epoch=self.problem.churn.epoch,
        )
        return deltas

    def _move(self, move, tick: int) -> None:
        target = self.plan if self.plan is not None else self.problem
        if target.move_customer(move.customer_id, move.location):
            rec = recorder()
            rec.count(f"{self.path}.customer_moves")
            rec.event(
                f"{self.path}.move",
                customer=move.customer_id,
                tick=tick,
                epoch=self.problem.location_epoch,
            )

    def commit(self, assignment: Assignment, instance: AdInstance) -> str:
        """Commit one decided instance.

        Rejected when its customer has not arrived or a different
        instance holds the pair; a suppressed duplicate when the
        identical instance does; otherwise added without raising and,
        if the add succeeds, followed by ``note_if_exhausted``.
        """
        rec = recorder()
        path = self.path
        if instance.customer_id in self.arrived:
            existing = assignment.instance_for_pair(
                instance.customer_id, instance.vendor_id
            )
            if existing is None:
                if assignment.add(instance, strict=False):
                    self.budget_commits += 1
                    rec.count(f"{path}.budget_commits")
                    if self.note_exhaustion and self.problem.note_if_exhausted(
                        assignment, instance.vendor_id
                    ):
                        self.vendors_deactivated += 1
                        rec.count(f"{path}.vendors_deactivated")
                    return COMMITTED
            elif existing == instance:
                self.duplicates_suppressed += 1
                rec.count(f"{path}.duplicates_suppressed")
                return DUPLICATE
        self.rejected_instances += 1
        rec.count(f"{path}.rejected_instances")
        return REJECTED

    def close(self) -> None:
        """Roll back the run-local state: auto-deactivations (the
        assignment dies with the run) and moves (the next run sees
        first-seen locations)."""
        self.problem.reset_auto_deactivations()
        if self.moves is not None:
            target = self.plan if self.plan is not None else self.problem
            target.reset_moves()
