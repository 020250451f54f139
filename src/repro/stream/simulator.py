"""Streaming simulator for the online MUAA setting (Section IV).

Customers arrive one at a time; the online algorithm must decide that
customer's ads immediately, seeing only the static vendor state and the
budgets consumed so far.  The simulator owns the committed assignment
(so budgets are authoritative), measures per-customer decision latency,
and can wrap any online algorithm as an offline one for the shared
experiment harness.

All timing flows through an injectable clock (any zero-argument
callable returning monotonic seconds, e.g.
:class:`repro.resilience.clock.SimulatedClock`); the default remains
wall-clock ``time.perf_counter``, but with a simulated clock the
decision-deadline drop path is fully deterministic and testable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import OfflineAlgorithm, OnlineAlgorithm, SolveResult
from repro.core.assignment import Assignment
from repro.core.entities import Customer
from repro.core.problem import MUAAProblem
from repro.obs.recorder import recorder
from repro.stream.arrivals import by_arrival_time
from repro.stream.timeline import Timeline


@dataclass
class ResilienceStats:
    """Operational counters of one resilient (fault-injected) stream.

    Produced by :class:`repro.resilience.broker.ResilientBroker`; plain
    data so the stream layer stays independent of the resilience
    machinery.

    Attributes:
        retries: Dependency-call retries performed (backoff waits).
        timeouts: Per-call timeout failures observed.
        faults_injected: ``"dependency:kind"`` -> injected fault count.
        breaker_transitions: ``(dependency, time, from, to)`` breaker
            state changes, in order.
        breaker_counts: Dependency name -> transitions *into* each
            breaker state (``"open"`` / ``"half_open"`` / ``"closed"``),
            e.g. ``{"utility": {"open": 2, "half_open": 2,
            "closed": 1}}``.  The per-dependency rollup of
            ``breaker_transitions``, so shard/dependency breaker
            behaviour is directly assertable.
        degraded_decisions: Decisions served by a fallback tier rather
            than the primary algorithm.
        decisions_by_tier: Tier name -> decisions served by that tier.
        decisions_abandoned: Customers for whom every tier failed (the
            broker served no ads but did not crash).
        duplicates_suppressed: Delivery re-attempts recognised as
            already-committed (a lost ack would otherwise have
            double-charged the vendor).
        deliveries_failed: Decided instances whose commit failed every
            attempt (the ad was decided but never delivered).
        arrivals_dropped: Customers lost upstream of the broker.
        arrivals_reordered: Customers delivered out of arrival order.
        exhausted_skips: Candidate-scan skips of vendors whose budget
            was exhausted (the work saved by
            ``deactivate_exhausted``-style filtering).
        vendors_deactivated: Vendors auto-deactivated after their
            remaining budget dropped below the cheapest ad price.
        churn_epoch: The churn epoch at the end of the run (0 when no
            churn was applied).
        clean_latencies: Decision latencies of fault-free decisions.
        degraded_latencies: Decision latencies of decisions that hit at
            least one fault, retry, or fallback (the fault-conditioned
            tail).
    """

    retries: int = 0
    timeouts: int = 0
    faults_injected: Dict[str, int] = field(default_factory=dict)
    breaker_transitions: List[Tuple[str, float, str, str]] = field(
        default_factory=list
    )
    breaker_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    degraded_decisions: int = 0
    decisions_by_tier: Dict[str, int] = field(default_factory=dict)
    decisions_abandoned: int = 0
    duplicates_suppressed: int = 0
    deliveries_failed: int = 0
    arrivals_dropped: int = 0
    arrivals_reordered: int = 0
    exhausted_skips: int = 0
    vendors_deactivated: int = 0
    churn_epoch: int = 0
    clean_latencies: List[float] = field(default_factory=list)
    degraded_latencies: List[float] = field(default_factory=list)

    @property
    def breaker_opens(self) -> int:
        """Number of transitions into the open state."""
        return sum(
            1 for _, _, _, to_state in self.breaker_transitions
            if to_state == "open"
        )

    @property
    def total_faults(self) -> int:
        """Total injected faults across dependencies and kinds."""
        return sum(self.faults_injected.values())

    @staticmethod
    def count_transitions(
        transitions: Sequence[Tuple[str, float, str, str]],
    ) -> Dict[str, Dict[str, int]]:
        """Roll ``(dep, time, from, to)`` records up into per-dependency
        counts of transitions into each state."""
        counts: Dict[str, Dict[str, int]] = {}
        for name, _, _, to_state in transitions:
            per = counts.setdefault(name, {})
            per[to_state] = per.get(to_state, 0) + 1
        return counts

    def as_extras(self) -> Dict[str, float]:
        """Flat float counters for :class:`SolveResult` ``extras``."""
        extras = {
            "retries": float(self.retries),
            "timeouts": float(self.timeouts),
            "faults_injected": float(self.total_faults),
            "breaker_transitions": float(len(self.breaker_transitions)),
            "breaker_opens": float(self.breaker_opens),
            "degraded_decisions": float(self.degraded_decisions),
            "decisions_abandoned": float(self.decisions_abandoned),
            "duplicates_suppressed": float(self.duplicates_suppressed),
            "deliveries_failed": float(self.deliveries_failed),
            "arrivals_dropped": float(self.arrivals_dropped),
            "arrivals_reordered": float(self.arrivals_reordered),
            "exhausted_skips": float(self.exhausted_skips),
            "vendors_deactivated": float(self.vendors_deactivated),
            "churn_epoch": float(self.churn_epoch),
        }
        for dep in sorted(self.breaker_counts):
            for state, count in sorted(self.breaker_counts[dep].items()):
                extras[f"breaker_{state}.{dep}"] = float(count)
        return extras


@dataclass
class StreamResult:
    """Outcome of simulating one customer stream.

    Attributes:
        assignment: All committed ad instances.
        latencies: Per-customer decision seconds (on the driving
            clock), in arrival order.
        rejected_instances: Instances the algorithm returned but the
            simulator refused (infeasible against committed state);
            a correct algorithm keeps this at zero.
        customers_lost: Customers whose decision exceeded the configured
            deadline (they went inactive before the broker answered).
        resilience: Fault/retry/breaker counters when the stream was
            driven by the resilient broker; ``None`` for plain runs.
        churn_epoch: Churn epoch at the end of the stream (0 when no
            churn schedule was supplied).
        exhausted_skips: Candidate-scan skips of deactivated vendors.
        vendors_deactivated: Vendors auto-deactivated mid-stream after
            exhausting their budget.
    """

    assignment: Assignment
    latencies: List[float] = field(default_factory=list)
    rejected_instances: int = 0
    customers_lost: int = 0
    resilience: Optional[ResilienceStats] = None
    churn_epoch: int = 0
    exhausted_skips: int = 0
    vendors_deactivated: int = 0

    @property
    def total_utility(self) -> float:
        """Overall utility of the committed assignment."""
        return self.assignment.total_utility

    @property
    def mean_latency(self) -> float:
        """Mean per-customer decision time in seconds."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)


class OnlineSimulator:
    """Drives an online algorithm over an arrival sequence.

    Args:
        problem: The MUAA instance; its customer list is only used when
            no explicit arrival sequence is supplied (then arrival-time
            order is used).
        clock: Zero-argument callable returning monotonic seconds,
            used for latency measurement and deadline enforcement.
            Defaults to wall-clock ``time.perf_counter``; inject a
            :class:`repro.resilience.clock.SimulatedClock` for
            deterministic deadline tests.
    """

    def __init__(
        self,
        problem: MUAAProblem,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._problem = problem
        self._clock: Callable[[], float] = clock or time.perf_counter

    def run(
        self,
        algorithm: OnlineAlgorithm,
        arrivals: Optional[Sequence[Customer]] = None,
        measure_latency: bool = True,
        decision_deadline: Optional[float] = None,
        warm_engine: bool = False,
        shard_plan=None,
        churn=None,
        churn_cold_rebuild: bool = False,
        moves=None,
    ) -> StreamResult:
        """Simulate the stream and return the committed assignment.

        Each instance returned by the algorithm is validated against the
        committed state before being applied; infeasible ones are
        counted and dropped rather than corrupting budgets.  After the
        last arrival, :meth:`OnlineAlgorithm.flush_pending` decides
        anything the algorithm still buffers, through the same commit
        rule.

        Args:
            algorithm: The online algorithm under test.
            arrivals: Arrival order (arrival-time order by default).
            measure_latency: Record per-customer decision seconds.
            decision_deadline: When set, a customer whose decision took
                longer than this many seconds is *lost* -- their ads are
                dropped (counted in ``customers_lost``).  Models
                Section II-E's observation that customers switch to the
                inactive status within seconds, so slow brokers lose
                the impression.  Implies latency measurement.
            warm_engine: Batch-score every candidate edge through the
                compute engine *before* the stream starts (a broker
                precomputing the day's candidate table).  Per-customer
                lookups then ride the columnar table; latencies exclude
                the precompute by design.  Without this, lookups stay
                on the scalar path unless something else already built
                the engine (e.g. calibrating on this same instance).
            shard_plan: Optional :class:`~repro.sharding.ShardPlan`.
                Each arriving customer is routed by location to one
                shard and decided against that shard's problem view
                only, so per-decision work (and any warm engine) covers
                one shard's columns.  A customer replicated across
                shards sees just its routed shard's vendors -- the
                locality/quality trade-off documented in
                ``docs/sharding.md``.  Commits still land on the global
                assignment, so budgets stay authoritative.
            churn: Optional :class:`~repro.churn.ChurnSchedule`;
                events at arrival index ``t`` are applied before
                customer ``t`` is decided (see
                :class:`~repro.stream.timeline.Timeline`).  The final
                epoch lands in ``StreamResult.churn_epoch``.
            churn_cold_rebuild: With ``churn``, rebuild from scratch
                after every tick that applied events instead of
                splicing deltas (shard views released / engine dropped,
                then re-warmed when ``warm_engine`` was requested).
                The parity reference the delta path is tested against.
            moves: Optional :class:`~repro.scenario.trajectory.
                MoveSchedule`; moves at arrival index ``t`` are applied
                after that tick's churn and before customer ``t`` is
                decided, which is then routed at its new location.
        """
        problem = self._problem
        plan = shard_plan
        if plan is not None and plan.is_identity:
            plan = None  # identity plan == the global problem itself
        if warm_engine:
            if plan is not None:
                # Warm shard views instead of the global table; the
                # views stay resident for per-decision lookups.
                for shard in range(plan.n_shards):
                    plan.problem_for(shard).warm_utilities()
            else:
                problem.warm_utilities()
        if arrivals is None:
            arrivals = by_arrival_time(problem.customers)
        assignment = problem.new_assignment()
        result = StreamResult(assignment=assignment)
        algorithm.reset(problem)

        rec = recorder()
        timed = measure_latency or decision_deadline is not None
        with Timeline(
            problem, "stream", plan=shard_plan, churn=churn, moves=moves
        ) as timeline:
            for tick, customer in enumerate(arrivals):
                customer = timeline.arrive(customer, tick)
                if churn_cold_rebuild and timeline.churned:
                    self._cold_rebuild(plan, warm_engine)
                target = problem
                span_attrs = {"customer": customer.customer_id}
                if churn is not None:
                    span_attrs["epoch"] = problem.churn.epoch
                if plan is not None:
                    shard = plan.route(customer)
                    if shard is not None:
                        target = plan.problem_for(shard)
                        span_attrs["shard"] = shard
                        rec.count("stream.shard_decisions")
                if timed:
                    start = self._clock()
                with rec.span("stream.decision", **span_attrs):
                    picked = algorithm.process_customer(
                        target, customer, assignment
                    )
                if timed:
                    elapsed = self._clock() - start
                    rec.observe("stream.decision_seconds", elapsed)
                    if measure_latency:
                        result.latencies.append(elapsed)
                    if (
                        decision_deadline is not None
                        and elapsed > decision_deadline
                    ):
                        result.customers_lost += 1
                        rec.count("stream.deadline_drops")
                        continue  # customer went inactive; ads dropped
                for instance in picked:
                    timeline.commit(assignment, instance)
            for instance in algorithm.flush_pending(problem, assignment):
                timeline.commit(assignment, instance)
        result.rejected_instances = timeline.rejected_instances
        result.vendors_deactivated = timeline.vendors_deactivated
        result.churn_epoch = problem.churn.epoch
        result.exhausted_skips = timeline.exhausted_skips
        if result.exhausted_skips:
            rec.gauge("stream.exhausted_skips", result.exhausted_skips)
        return result

    def _cold_rebuild(self, plan, warm_engine: bool) -> None:
        """Parity reference for churn: tear every incremental structure
        down and rebuild from scratch (``plan`` is the routing plan,
        ``None`` when decisions run unsharded)."""
        if plan is not None:
            plan.release_all()
            if warm_engine:
                for shard in range(plan.n_shards):
                    plan.problem_for(shard).warm_utilities()
        else:
            self._problem.drop_engine()
            if warm_engine:
                self._problem.warm_utilities()


class OnlineAsOffline(OfflineAlgorithm):
    """Adapter: run an online algorithm through the offline interface.

    The shared experiment runner treats every algorithm as offline; this
    adapter streams the customers in arrival-time order and reports the
    simulator's mean per-customer latency (the paper's "CPU time" for
    online algorithms).  Stream-level diagnostics -- rejected
    instances, lost customers, and any resilience counters -- are
    propagated into :attr:`SolveResult.extras`.

    Args:
        algorithm: The online algorithm to adapt.
        clock: Optional clock forwarded to the simulator.
        decision_deadline: Optional decision deadline forwarded to the
            simulator.
        warm_engine: Forwarded to :meth:`OnlineSimulator.run` -- batch
            precompute of the candidate table before the stream.
        shard_plan: Forwarded to :meth:`OnlineSimulator.run` -- route
            each arrival to its spatial shard's problem view.
        moves: Forwarded to :meth:`OnlineSimulator.run` -- a trajectory
            scenario's mid-stream customer relocation schedule.
    """

    def __init__(
        self,
        algorithm: OnlineAlgorithm,
        clock: Optional[Callable[[], float]] = None,
        decision_deadline: Optional[float] = None,
        warm_engine: bool = False,
        shard_plan=None,
        moves=None,
    ) -> None:
        self._algorithm = algorithm
        self._clock = clock
        self._deadline = decision_deadline
        self._warm_engine = warm_engine
        self._shard_plan = shard_plan
        self._moves = moves
        self.name = algorithm.name
        self.last_stream_result: Optional[StreamResult] = None

    def solve(self, problem: MUAAProblem) -> Assignment:
        result = OnlineSimulator(problem, clock=self._clock).run(
            self._algorithm,
            decision_deadline=self._deadline,
            warm_engine=self._warm_engine,
            shard_plan=self._shard_plan,
            moves=self._moves,
        )
        self.last_stream_result = result
        return result.assignment

    def run(self, problem: MUAAProblem) -> SolveResult:
        start = time.perf_counter()
        assignment = self.solve(problem)
        elapsed = time.perf_counter() - start
        stream = self.last_stream_result
        per_customer = stream.mean_latency if stream is not None else 0.0
        extras: Dict[str, float] = {}
        if stream is not None:
            extras["rejected_instances"] = float(stream.rejected_instances)
            extras["customers_lost"] = float(stream.customers_lost)
            if stream.resilience is not None:
                extras.update(stream.resilience.as_extras())
        return SolveResult(
            algorithm=self.name,
            assignment=assignment,
            wall_time=elapsed,
            per_customer_seconds=per_customer,
            extras=extras,
        )
