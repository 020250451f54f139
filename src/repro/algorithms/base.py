"""Algorithm interfaces and result types.

Offline algorithms see the whole problem at once and return a complete
assignment.  Online algorithms are driven by the streaming simulator:
they are shown one arriving customer at a time together with the current
vendor budget state, and must commit to that customer's ads immediately
(Section IV).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.assignment import AdInstance, Assignment
from repro.core.entities import Customer
from repro.core.problem import MUAAProblem


@dataclass
class SolveResult:
    """Outcome of running an algorithm on one problem instance.

    Attributes:
        algorithm: Name of the algorithm (e.g. ``"RECON"``).
        assignment: The produced ad assignment instance set.
        wall_time: Total wall-clock seconds spent solving.
        per_customer_seconds: For online algorithms, the mean decision
            latency per arriving customer (the paper's "CPU time"
            measure); for offline algorithms, ``wall_time / m``.
        extras: Algorithm-specific diagnostics (iterations, violations
            reconciled, threshold statistics, ...).
    """

    algorithm: str
    assignment: Assignment
    wall_time: float
    per_customer_seconds: float
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def total_utility(self) -> float:
        """Overall utility of the produced assignment."""
        return self.assignment.total_utility


class OfflineAlgorithm(ABC):
    """An algorithm that sees the full MUAA instance up front."""

    #: Display name used in experiment tables.
    name: str = "OFFLINE"

    @abstractmethod
    def solve(self, problem: MUAAProblem) -> Assignment:
        """Produce a feasible assignment for the whole instance."""

    def run(self, problem: MUAAProblem) -> SolveResult:
        """Solve with timing, producing a :class:`SolveResult`."""
        start = time.perf_counter()
        assignment = self.solve(problem)
        elapsed = time.perf_counter() - start
        m = max(1, len(problem.customers))
        return SolveResult(
            algorithm=self.name,
            assignment=assignment,
            wall_time=elapsed,
            per_customer_seconds=elapsed / m,
        )


class OnlineAlgorithm(ABC):
    """An algorithm driven customer-by-customer by the simulator.

    Implementations must be stateless across customers except through
    :meth:`reset`-initialised internal state; the simulator guarantees
    that vendor budget bookkeeping in ``assignment`` reflects all
    previously committed ads.
    """

    #: Display name used in experiment tables.
    name: str = "ONLINE"

    def reset(self, problem: MUAAProblem) -> None:
        """Called once before a stream starts; default is stateless."""

    @abstractmethod
    def process_customer(
        self,
        problem: MUAAProblem,
        customer: Customer,
        assignment: Assignment,
    ) -> List[AdInstance]:
        """Decide the ads pushed to one arriving customer.

        Args:
            problem: The static part of the instance (vendors, types,
                utility model).  The full customer list is visible on
                the object but MUST NOT be used -- only the arriving
                customer is known in the online model.
            customer: The arriving customer.
            assignment: Current committed state (budgets already spent).

        Returns:
            The instances to commit for this customer.  Each must be
            individually feasible; the simulator enforces them in order.
        """

    def flush_pending(
        self, problem: MUAAProblem, assignment: Assignment
    ) -> List[AdInstance]:
        """Decide whatever is still buffered when the stream ends (the
        simulator commits it before the run closes); nothing by default.
        """
        return []
