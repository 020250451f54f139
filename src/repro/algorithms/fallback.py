"""Graceful-degradation fallback chain for online serving.

A production broker never answers "crash": when the primary decision
path cannot run -- its utility service times out, its spatial index's
circuit breaker is open -- it degrades to a cheaper policy and keeps
serving.  :class:`FallbackChain` encodes that as an ordered list of
online algorithms: the first tier that decides without raising a
resilience error wins, and every decision records which tier produced
it so degraded traffic is measurable.

The canonical chain (used by
:class:`~repro.resilience.broker.ResilientBroker`) is

    O-AFA  ->  static-threshold O-AFA  ->  nearest-vendor baseline

mirroring how the quality of the decision (adaptive, utility-aware,
utility-oblivious) degrades with the health of the dependencies each
tier needs.
"""

from __future__ import annotations

import logging
from typing import List, Optional, Sequence

from repro.algorithms.base import OnlineAlgorithm
from repro.core.assignment import AdInstance, Assignment
from repro.core.entities import Customer
from repro.core.problem import MUAAProblem
from repro.exceptions import ResilienceError

logger = logging.getLogger(__name__)


class FallbackTier:
    """One tier of a fallback chain.

    Args:
        algorithm: The online algorithm of this tier.
        problem: Optional problem override.  Tiers normally see the
            problem the simulator passes in (possibly a guarded /
            fault-injected view); a tier meant to survive dependency
            outages -- e.g. a last-resort baseline that only needs
            local data -- is given the pristine problem here instead.
    """

    def __init__(
        self,
        algorithm: OnlineAlgorithm,
        problem: Optional[MUAAProblem] = None,
    ) -> None:
        self.algorithm = algorithm
        self.problem = problem

    @property
    def name(self) -> str:
        """The tier's display name (its algorithm's name)."""
        return self.algorithm.name


class FallbackChain(OnlineAlgorithm):
    """Try each tier in order; first tier to decide cleanly wins.

    Only resilience errors (:class:`~repro.exceptions.ResilienceError`:
    transient faults that exhausted their retries, open breakers, blown
    deadlines) trigger fallback -- programming errors still propagate.
    If *every* tier fails the last error propagates; callers that must
    never crash (the broker) catch it and drop the decision.

    Attributes:
        last_tier_used: Index of the tier that served the most recent
            decision (``None`` before any decision).
        decisions_by_tier: Per-tier decision counts since ``reset``.
        degraded_decisions: Decisions served by any tier but the first.
    """

    name = "FALLBACK"

    def __init__(self, tiers: Sequence[FallbackTier]) -> None:
        if not tiers:
            raise ValueError("a fallback chain needs at least one tier")
        self.tiers: List[FallbackTier] = list(tiers)
        self.name = " > ".join(tier.name for tier in self.tiers)
        self.last_tier_used: Optional[int] = None
        self.decisions_by_tier: List[int] = [0] * len(self.tiers)
        self.degraded_decisions = 0

    def reset(self, problem: MUAAProblem) -> None:
        self.last_tier_used = None
        self.decisions_by_tier = [0] * len(self.tiers)
        self.degraded_decisions = 0
        for tier in self.tiers:
            tier.algorithm.reset(tier.problem or problem)

    def process_customer(
        self,
        problem: MUAAProblem,
        customer: Customer,
        assignment: Assignment,
    ) -> List[AdInstance]:
        last_error: Optional[ResilienceError] = None
        for index, tier in enumerate(self.tiers):
            try:
                picked = tier.algorithm.process_customer(
                    tier.problem or problem, customer, assignment
                )
            except ResilienceError as exc:
                last_error = exc
                logger.info(
                    "tier %d (%s) failed for customer %d: %s; falling back",
                    index,
                    tier.name,
                    customer.customer_id,
                    exc,
                )
                continue
            self.last_tier_used = index
            self.decisions_by_tier[index] += 1
            if index > 0:
                self.degraded_decisions += 1
            return picked
        assert last_error is not None
        raise last_error

    def flush_pending(
        self, problem: MUAAProblem, assignment: Assignment
    ) -> List[AdInstance]:
        """The primary tier's buffered decisions (only the primary
        buffers customers across calls in the chains this repo
        builds)."""
        primary = self.tiers[0]
        return primary.algorithm.flush_pending(
            primary.problem or problem, assignment
        )
