"""The resilient online broker: O-AFA serving that survives its
dependencies.

:class:`ResilientBroker` is the hardened counterpart of
:class:`~repro.stream.simulator.OnlineSimulator`.  It drives the same
customer-at-a-time protocol, but every dependency of the decision path
is wrapped:

* the **utility model** and **spatial index** calls go through a
  :class:`~repro.resilience.policy.DependencyGuard` (retry with
  deterministic-jitter backoff, per-call timeout, circuit breaker) on
  top of seeded fault injection;
* decisions flow through a graceful-degradation
  :class:`~repro.algorithms.fallback.FallbackChain`
  (O-AFA -> static-threshold O-AFA -> nearest-vendor), so an open
  breaker degrades quality instead of availability;
* the **commit path** is idempotent: a delivery re-attempt caused by a
  lost acknowledgement is recognised and suppressed, so a vendor's
  budget is never charged twice for one ad.

The broker never raises out of :meth:`ResilientBroker.run`: when every
tier fails for a customer, that decision is abandoned (counted) and the
stream continues.  All counters land in
:class:`~repro.stream.simulator.ResilienceStats` on the returned
:class:`~repro.stream.simulator.StreamResult`.
"""

from __future__ import annotations

import logging
import random
from typing import Dict, List, Optional, Sequence

from repro.algorithms.base import OnlineAlgorithm
from repro.algorithms.calibration import calibrate_from_problem
from repro.algorithms.fallback import FallbackChain, FallbackTier
from repro.algorithms.nearest import NearestVendor
from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.algorithms.online_static import OnlineStaticThreshold
from repro.core.assignment import AdInstance, Assignment
from repro.core.entities import AdType, Customer, Vendor
from repro.core.problem import MUAAProblem
from repro.exceptions import ResilienceError, TransientError
from repro.obs.recorder import recorder
from repro.resilience.clock import SimulatedClock
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultyUtilityModel,
    perturb_arrivals,
)
from repro.resilience.policy import (
    CircuitBreaker,
    DependencyGuard,
    RetryPolicy,
)
from repro.stream.arrivals import by_arrival_time
from repro.stream.simulator import ResilienceStats, StreamResult
from repro.stream.timeline import COMMITTED, Timeline
from repro.utility.model import DelegatingUtilityModel, UtilityModel

logger = logging.getLogger(__name__)

#: Commit outcome of :meth:`ResilientBroker._commit` when every delivery
#: attempt failed (the others are :class:`Timeline` outcomes).
_FAILED = "failed"


class GuardedUtilityModel(DelegatingUtilityModel):
    """A utility model whose every evaluation runs under a guard.

    The inner model is typically a
    :class:`~repro.resilience.faults.FaultyUtilityModel`; the guard
    supplies retry/backoff, timeout, and circuit breaking, so transient
    utility-service faults are absorbed here and only persistent
    outages surface to the fallback chain.
    """

    def __init__(self, inner: UtilityModel, guard: DependencyGuard) -> None:
        super().__init__(inner)
        self._guard = guard

    def pair_base(self, customer: Customer, vendor: Vendor) -> float:
        return self._guard.call(lambda: self.inner.pair_base(customer, vendor))

    def utility(
        self, customer: Customer, vendor: Vendor, ad_type: AdType
    ) -> float:
        if self.inner.type_sensitive:
            return self._guard.call(
                lambda: self.inner.utility(customer, vendor, ad_type)
            )
        return self.pair_base(customer, vendor) * ad_type.effectiveness


class GuardedProblem(MUAAProblem):
    """A problem view whose remote-ish dependencies are guarded.

    Shares the base problem's entities and budgets but substitutes a
    guarded utility model and routes vendor-side range queries (the
    online algorithms' spatial dependency) through fault injection and
    a dependency guard.  Values are never altered, so anything decided
    against this view validates against the pristine problem.
    """

    def __init__(
        self,
        base: MUAAProblem,
        utility_model: UtilityModel,
        injector: FaultInjector,
        spatial_guard: Optional[DependencyGuard] = None,
    ) -> None:
        # The engine would batch-evaluate utilities outside the guard;
        # fault injection must see every evaluation, so force the
        # scalar path (the guarded model type is rejected by the engine
        # anyway -- this makes the intent explicit).
        super().__init__(
            customers=base.customers,
            vendors=base.vendors,
            ad_types=base.ad_types,
            utility_model=utility_model,
            pair_validator=base._pair_validator,
            use_engine=False,
            churn=base.churn,
        )
        self._injector = injector
        self._spatial_guard = spatial_guard

    def valid_vendor_ids(self, customer: Customer) -> List[int]:
        def attempt() -> List[int]:
            self._injector.before_call("spatial")
            return MUAAProblem.valid_vendor_ids(self, customer)

        if self._spatial_guard is None:
            return attempt()
        return self._spatial_guard.call(attempt)


class ResilientBroker:
    """Fault-tolerant online serving over one MUAA instance.

    Args:
        problem: The pristine MUAA instance (ground truth for budgets,
            utilities, and validation).
        plan: Seeded fault plan; ``None`` injects nothing (the broker
            then behaves like the plain simulator plus bookkeeping).
        primary: Primary decision algorithm; defaults to O-AFA with
            thresholds calibrated from the pristine instance.
        chain: Full custom fallback chain, overriding ``primary`` and
            the default tiers.  The default chain is
            primary -> static-threshold O-AFA -> nearest-vendor, with
            the last tier reading the pristine problem directly (it is
            the dependency-free local mode).
        clock: Clock driving backoff, breakers, timeouts, and latency
            accounting.  Defaults to a fresh
            :class:`~repro.resilience.clock.SimulatedClock` -- the
            broker is first a chaos harness, and a simulated clock
            makes every run deterministic.  Pass
            :class:`~repro.resilience.clock.SystemClock` for wall-clock
            serving.
        retry: Retry/backoff policy shared by all guards.
        breaker_failure_threshold: Consecutive failures tripping a
            dependency's breaker.
        breaker_recovery_timeout: Open-state cool-down (seconds on the
            injected clock).
        call_timeout: Optional per-dependency-call budget in seconds.
        decision_deadline: Optional per-customer decision deadline;
            like the simulator's, late decisions lose the customer.
        shard_plan: Optional :class:`~repro.sharding.ShardPlan`.  Each
            arriving customer is routed by location to one shard and
            decided against a guarded view of that shard only, so a
            decision touches one shard's columns.  Commits, validation,
            and the dependency-free nearest-vendor tier stay on the
            pristine global problem.
    """

    def __init__(
        self,
        problem: MUAAProblem,
        plan: Optional[FaultPlan] = None,
        primary: Optional[OnlineAlgorithm] = None,
        chain: Optional[Sequence[FallbackTier]] = None,
        clock=None,
        retry: Optional[RetryPolicy] = None,
        breaker_failure_threshold: int = 5,
        breaker_recovery_timeout: float = 5.0,
        call_timeout: Optional[float] = None,
        decision_deadline: Optional[float] = None,
        shard_plan=None,
    ) -> None:
        self._problem = problem
        self._plan = plan if plan is not None else FaultPlan()
        self._primary = primary
        self._chain_spec = list(chain) if chain is not None else None
        self._clock = clock if clock is not None else SimulatedClock()
        self._retry = retry or RetryPolicy()
        self._breaker_failure_threshold = breaker_failure_threshold
        self._breaker_recovery_timeout = breaker_recovery_timeout
        self._call_timeout = call_timeout
        self._decision_deadline = decision_deadline
        self._shard_plan = shard_plan

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _default_primary(self) -> OnlineAlgorithm:
        try:
            bounds = calibrate_from_problem(self._problem, seed=self._plan.seed)
        except ValueError:
            logger.warning(
                "calibration found no positive efficiencies; "
                "using a static-threshold primary"
            )
            return OnlineStaticThreshold(0.0)
        return OnlineAdaptiveFactorAware(
            gamma_min=bounds.gamma_min, g=bounds.g
        )

    def _build_chain(self) -> FallbackChain:
        if self._chain_spec is not None:
            return FallbackChain(self._chain_spec)
        primary = self._primary or self._default_primary()
        return FallbackChain(
            [
                FallbackTier(primary),
                FallbackTier(OnlineStaticThreshold(0.0)),
                # Last resort: utility-oblivious local mode on the
                # pristine problem -- it needs no remote dependency, so
                # it stays available whatever the fault plan does.
                FallbackTier(NearestVendor(), problem=self._problem),
            ]
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def run(
        self,
        arrivals: Optional[Sequence[Customer]] = None,
        churn=None,
    ) -> StreamResult:
        """Serve one full stream under the configured fault plan.

        Never raises for any seeded fault plan: per-customer failures
        degrade or abandon that decision and the stream continues.

        Args:
            arrivals: Arrival order (arrival-time order by default).
            churn: Optional :class:`~repro.churn.ChurnSchedule`,
                applied by :class:`~repro.stream.timeline.Timeline`
                before each customer is decided.  Guarded views are
                scalar and cheap, so churn simply rebuilds them.

        Returns:
            A :class:`StreamResult` whose ``resilience`` field carries
            the full fault/retry/breaker accounting.
        """
        problem, plan, clock = self._problem, self._plan, self._clock
        stats = ResilienceStats()
        injector = FaultInjector(plan, clock)
        jitter_rng = random.Random(f"{plan.seed}:jitter")
        breakers = {
            name: CircuitBreaker(
                name,
                clock,
                failure_threshold=self._breaker_failure_threshold,
                recovery_timeout=self._breaker_recovery_timeout,
            )
            for name in ("utility", "spatial")
        }
        utility_guard = DependencyGuard(
            "utility",
            clock,
            retry=self._retry,
            breaker=breakers["utility"],
            timeout=self._call_timeout,
            rng=jitter_rng,
        )
        spatial_guard = DependencyGuard(
            "spatial",
            clock,
            retry=self._retry,
            breaker=breakers["spatial"],
            timeout=self._call_timeout,
            rng=jitter_rng,
        )
        guarded_model = GuardedUtilityModel(
            FaultyUtilityModel(problem.utility_model, injector), utility_guard
        )
        guarded_problem = GuardedProblem(
            problem, guarded_model, injector, spatial_guard
        )
        chain = self._build_chain()
        chain.reset(guarded_problem)

        shard_plan = self._shard_plan
        if shard_plan is not None and shard_plan.is_identity:
            shard_plan = None  # identity plan == the global problem
        # Guarded views of the shards a decision actually touches,
        # built lazily; all share the one guarded model/injector so the
        # fault accounting stays global.
        shard_guarded: Dict[int, GuardedProblem] = {}

        if arrivals is None:
            arrivals = by_arrival_time(problem.customers)
        arrivals, dropped, reordered = perturb_arrivals(arrivals, plan)
        stats.arrivals_dropped = dropped
        stats.arrivals_reordered = reordered

        assignment = problem.new_assignment()
        result = StreamResult(assignment=assignment, resilience=stats)
        rec = recorder()
        guards = (utility_guard, spatial_guard)
        # Auto-deactivation of exhausted vendors is part of churn-aware
        # serving: on plain runs the fallback ladder must see the same
        # candidate sets (and make the same guarded calls) as the seed
        # broker.
        with Timeline(
            problem,
            "broker",
            plan=self._shard_plan,
            churn=churn,
            note_exhaustion=churn is not None,
        ) as timeline:
            for tick, customer in enumerate(arrivals):
                customer = timeline.arrive(customer, tick)
                if timeline.churned:
                    # Guarded views copy the entity catalogue, so a
                    # structural change rebuilds them (scalar views,
                    # no engine -- cheap by construction).
                    guarded_problem = GuardedProblem(
                        problem, guarded_model, injector, spatial_guard
                    )
                    shard_guarded.clear()
                faults_before = injector.total_faults
                retries_before = sum(g.retries for g in guards)
                target = guarded_problem
                span_attrs = {"customer": customer.customer_id}
                if churn is not None:
                    span_attrs["epoch"] = problem.churn.epoch
                if shard_plan is not None:
                    shard = shard_plan.route(customer)
                    if shard is not None:
                        target = shard_guarded.get(shard)
                        if target is None:
                            target = GuardedProblem(
                                shard_plan.problem_for(shard),
                                guarded_model,
                                injector,
                                spatial_guard,
                            )
                            shard_guarded[shard] = target
                        span_attrs["shard"] = shard
                        rec.count("broker.shard_decisions")
                start = clock()
                tier: Optional[int] = None
                with rec.span("broker.decision", **span_attrs):
                    try:
                        picked = chain.process_customer(
                            target, customer, assignment
                        )
                        tier = chain.last_tier_used
                    except ResilienceError as exc:
                        stats.decisions_abandoned += 1
                        picked = []
                        rec.count("broker.decisions_abandoned")
                        logger.warning(
                            "every tier failed for customer %d (%s); "
                            "decision abandoned",
                            customer.customer_id,
                            exc,
                        )
                elapsed = clock() - start
                result.latencies.append(elapsed)
                rec.observe("broker.decision_seconds", elapsed)
                if tier is not None and tier > 0:
                    rec.count("broker.degraded_decisions")
                degraded = (
                    tier is None
                    or tier > 0
                    or injector.total_faults > faults_before
                    or sum(g.retries for g in guards) > retries_before
                )
                (stats.degraded_latencies if degraded
                 else stats.clean_latencies).append(elapsed)
                if (
                    self._decision_deadline is not None
                    and elapsed > self._decision_deadline
                ):
                    result.customers_lost += 1
                    rec.count("broker.deadline_drops")
                    logger.info(
                        "customer %d lost: decision took %.4fs "
                        "(deadline %.4fs)",
                        customer.customer_id,
                        elapsed,
                        self._decision_deadline,
                    )
                    continue
                for instance in picked:
                    if self._commit(
                        timeline, instance, assignment, injector, stats,
                        jitter_rng,
                    ) == _FAILED:
                        stats.deliveries_failed += 1
            # Customers a buffering primary still holds are decided
            # after the last arrival, as in the stream.
            try:
                flushed = chain.flush_pending(guarded_problem, assignment)
            except ResilienceError as exc:
                flushed = []
                stats.decisions_abandoned += 1
                rec.count("broker.decisions_abandoned")
                logger.warning("end-of-stream flush abandoned (%s)", exc)
            for instance in flushed:
                if self._commit(
                    timeline, instance, assignment, injector, stats,
                    jitter_rng,
                ) == _FAILED:
                    stats.deliveries_failed += 1

        result.rejected_instances = timeline.rejected_instances
        stats.duplicates_suppressed = timeline.duplicates_suppressed
        stats.vendors_deactivated = timeline.vendors_deactivated
        stats.churn_epoch = problem.churn.epoch
        stats.exhausted_skips = timeline.exhausted_skips
        result.churn_epoch = stats.churn_epoch
        result.exhausted_skips = stats.exhausted_skips
        result.vendors_deactivated = stats.vendors_deactivated
        if stats.exhausted_skips:
            rec.gauge("broker.exhausted_skips", stats.exhausted_skips)
        stats.retries += sum(g.retries for g in guards)
        stats.timeouts = sum(g.timeouts for g in guards)
        stats.faults_injected = {
            f"{dep}:{kind}": count
            for (dep, kind), count in sorted(injector.counts.items())
        }
        transitions = [
            (name, when, from_state.value, to_state.value)
            for name, breaker in breakers.items()
            for when, from_state, to_state in breaker.transitions
        ]
        transitions.sort(key=lambda item: item[1])
        stats.breaker_transitions = transitions
        stats.breaker_counts = ResilienceStats.count_transitions(transitions)
        stats.degraded_decisions = (
            chain.degraded_decisions + stats.decisions_abandoned
        )
        stats.decisions_by_tier = {
            chain.tiers[i].name: count
            for i, count in enumerate(chain.decisions_by_tier)
            if count
        }
        logger.info(
            "stream served: %d ads, %d degraded decisions, %d retries, "
            "%d breaker transitions, %d duplicates suppressed",
            len(assignment),
            stats.degraded_decisions,
            stats.retries,
            len(stats.breaker_transitions),
            stats.duplicates_suppressed,
        )
        return result

    # ------------------------------------------------------------------
    # Idempotent commit path
    # ------------------------------------------------------------------
    def _commit(
        self,
        timeline: Timeline,
        instance: AdInstance,
        assignment: Assignment,
        injector: FaultInjector,
        stats: ResilienceStats,
        rng: random.Random,
    ) -> str:
        """Commit one delivery with retries and duplicate suppression.

        The commit itself is :meth:`Timeline.commit`, local and atomic;
        what the fault plan can break is the *round trip* -- a transient
        before the commit, or a lost acknowledgement after it.  The
        retry loop is idempotent: a re-attempt that finds the identical
        instance already committed is a suppressed duplicate, never a
        second budget charge.  An instance for a customer who has not
        arrived never enters the round trip.
        """
        if instance.customer_id not in timeline.arrived:
            return timeline.commit(assignment, instance)
        for attempt in range(self._retry.max_attempts):
            try:
                injector.before_call("commit")
            except TransientError:
                if attempt + 1 >= self._retry.max_attempts:
                    logger.warning(
                        "delivery of %s failed after %d attempts",
                        instance,
                        attempt + 1,
                    )
                    return _FAILED
                stats.retries += 1
                self._clock.sleep(self._retry.backoff(attempt, rng))
                continue
            outcome = timeline.commit(assignment, instance)
            if outcome == COMMITTED and injector.ack_lost():
                # Committed, but the broker does not know -- re-attempt
                # as a real at-least-once delivery pipeline would.
                stats.retries += 1
                continue
            return outcome
        # Attempts exhausted with the ack still lost: the ad *was*
        # delivered exactly once; only our confirmation is missing.
        return COMMITTED
