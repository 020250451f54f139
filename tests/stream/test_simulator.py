"""Tests for the online streaming simulator."""

from __future__ import annotations

from typing import List

import pytest

from repro.algorithms.base import OnlineAlgorithm
from repro.algorithms.batched import BatchedReconciliation
from repro.algorithms.nearest import NearestVendor
from repro.core.assignment import AdInstance
from repro.core.validation import validate_assignment
from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.stream.arrivals import by_arrival_time
from repro.stream.simulator import OnlineAsOffline, OnlineSimulator
from tests.conftest import random_tabular_problem


class GreedyPerCustomer(OnlineAlgorithm):
    """Test helper: take the best-efficiency instance per customer."""

    name = "TEST-GREEDY"

    def process_customer(self, problem, customer, assignment):
        picked: List[AdInstance] = []
        for vendor_id in problem.valid_vendor_ids(customer):
            remaining = assignment.remaining_budget(vendor_id)
            best = problem.best_instance_for_pair(
                customer.customer_id, vendor_id, max_cost=remaining
            )
            if best is not None:
                picked.append(best)
        picked.sort(key=lambda inst: -inst.efficiency)
        return picked[: customer.capacity]


class MisbehavingAlgorithm(OnlineAlgorithm):
    """Test helper: returns infeasible and foreign instances."""

    name = "BAD"

    def process_customer(self, problem, customer, assignment):
        wrong_customer = AdInstance(
            customer_id=customer.customer_id + 10_000,
            vendor_id=problem.vendors[0].vendor_id,
            type_id=problem.ad_types[0].type_id,
            utility=1.0,
            cost=1.0,
        )
        over_budget = AdInstance(
            customer_id=customer.customer_id,
            vendor_id=problem.vendors[0].vendor_id,
            type_id=problem.ad_types[0].type_id,
            utility=1.0,
            cost=1e9,
        )
        return [wrong_customer, over_budget]


@pytest.fixture
def problem():
    return random_tabular_problem(seed=4, n_customers=12, n_vendors=4)


class TestOnlineSimulator:
    def test_commits_feasible_instances(self, problem):
        result = OnlineSimulator(problem).run(GreedyPerCustomer())
        assert len(result.assignment) > 0
        assert validate_assignment(problem, result.assignment).ok
        assert result.rejected_instances == 0

    def test_latencies_recorded_per_customer(self, problem):
        result = OnlineSimulator(problem).run(GreedyPerCustomer())
        assert len(result.latencies) == len(problem.customers)
        assert result.mean_latency >= 0.0

    def test_latency_measurement_can_be_disabled(self, problem):
        result = OnlineSimulator(problem).run(
            GreedyPerCustomer(), measure_latency=False
        )
        assert result.latencies == []
        assert result.mean_latency == 0.0

    def test_misbehaving_algorithm_is_contained(self, problem):
        result = OnlineSimulator(problem).run(MisbehavingAlgorithm())
        assert len(result.assignment) == 0
        assert result.rejected_instances == 2 * len(problem.customers)

    def test_explicit_arrival_sequence(self, problem):
        reversed_customers = list(reversed(problem.customers))
        result = OnlineSimulator(problem).run(
            GreedyPerCustomer(), arrivals=reversed_customers
        )
        assert validate_assignment(problem, result.assignment).ok

    def test_default_order_is_arrival_time(self, problem):
        seen = []

        class Recorder(OnlineAlgorithm):
            name = "REC"

            def process_customer(self, problem, customer, assignment):
                seen.append(customer.arrival_time)
                return []

        OnlineSimulator(problem).run(Recorder())
        assert seen == sorted(seen)


class TestOnlineAsOffline:
    def test_adapter_matches_simulator(self, problem):
        direct = OnlineSimulator(problem).run(GreedyPerCustomer())
        adapted = OnlineAsOffline(GreedyPerCustomer()).solve(problem)
        assert adapted.total_utility == pytest.approx(
            direct.total_utility
        )

    def test_adapter_reports_per_customer_latency(self, problem):
        adapter = OnlineAsOffline(NearestVendor())
        result = adapter.run(problem)
        assert result.algorithm == "NEAREST"
        assert result.per_customer_seconds > 0
        assert result.extras["rejected_instances"] == 0.0

    def test_adapter_propagates_customers_lost(self, problem):
        from repro.resilience.clock import SimulatedClock

        clock = SimulatedClock()

        class Slow(OnlineAlgorithm):
            name = "SLOW"

            def process_customer(self, problem, customer, assignment):
                clock.advance(1.0)
                return []

        adapter = OnlineAsOffline(
            Slow(), clock=clock, decision_deadline=0.5
        )
        result = adapter.run(problem)
        assert result.extras["customers_lost"] == float(
            len(problem.customers)
        )

    def test_adapter_propagates_resilience_counters(self, problem):
        from repro.resilience.broker import ResilientBroker
        from repro.resilience.faults import FaultPlan

        plan = FaultPlan.uniform(seed=2, transient_rate=0.2)
        broker = ResilientBroker(problem, plan=plan)

        class BrokerAsOffline(OnlineAsOffline):
            def solve(self, problem):
                result = broker.run()
                self.last_stream_result = result
                return result.assignment

        solve_result = BrokerAsOffline(NearestVendor()).run(problem)
        extras = solve_result.extras
        assert extras["retries"] > 0
        for key in (
            "customers_lost",
            "degraded_decisions",
            "breaker_transitions",
            "duplicates_suppressed",
            "faults_injected",
        ):
            assert key in extras

    def test_plain_adapter_run_has_no_resilience_extras(self, problem):
        extras = OnlineAsOffline(NearestVendor()).run(problem).extras
        assert "retries" not in extras
        assert extras["customers_lost"] == 0.0


class TestBufferedTail:
    """An algorithm that buffers arrivals has its last partial batch
    decided and committed through the timeline before the run closes."""

    # Budgets large enough that vendors can still pay when the last
    # partial batch is decided, so the tail commits instances.
    MARKET = WorkloadConfig(
        n_customers=300,
        n_vendors=40,
        seed=1,
        radius_range=ParameterRange(0.1, 0.2),
        budget_range=ParameterRange(50.0, 100.0),
    )

    @staticmethod
    def _by_hand(problem, batch_size):
        """Every arrival, then the end-of-stream flush, added directly;
        returns the instances and how many the flush added."""
        algorithm = BatchedReconciliation(batch_size=batch_size)
        algorithm.reset(problem)
        assignment = problem.new_assignment()
        for customer in by_arrival_time(problem.customers):
            for instance in algorithm.process_customer(
                problem, customer, assignment
            ):
                assignment.add(instance, strict=False)
        tail = algorithm.flush_pending(problem, assignment)
        for instance in tail:
            assignment.add(instance, strict=False)
        return assignment.instances(), len(tail)

    def test_adapter_commits_the_tail_and_counts_it(self):
        from repro.obs.recorder import observed

        problem = synthetic_problem(self.MARKET)
        expected, tail = self._by_hand(problem, 64)
        assert tail > 0
        algorithm = BatchedReconciliation(batch_size=64)
        with observed() as rec:
            assignment = OnlineAsOffline(algorithm).solve(problem)
        assert assignment.instances() == expected
        assert algorithm.flush_pending(problem, assignment) == []
        counters = rec.metrics.snapshot()["counters"]
        assert counters["stream.budget_commits"] == len(assignment)
        assert validate_assignment(problem, assignment).ok

    def test_broker_and_replay_commit_the_tail(self):
        """The broker and the serve path flush the buffer too: all
        three loops commit the simulator's instances."""
        from repro.resilience.broker import ResilientBroker
        from repro.serve import ReplayDriver, build_schedule

        def triples(assignment):
            return sorted(
                (i.customer_id, i.vendor_id, i.type_id) for i in assignment
            )

        problem = synthetic_problem(self.MARKET)
        streamed = OnlineSimulator(problem).run(
            BatchedReconciliation(batch_size=64)
        ).assignment
        assert len(streamed) == 201

        problem = synthetic_problem(self.MARKET)
        brokered = ResilientBroker(
            problem, primary=BatchedReconciliation(batch_size=64)
        ).run().assignment
        # The broker scores through its guarded scalar model: the same
        # decisions, utilities equal to rounding.
        assert triples(brokered) == triples(streamed)

        problem = synthetic_problem(self.MARKET)
        driver = ReplayDriver(problem, BatchedReconciliation(batch_size=64))
        driver.run(build_schedule(problem.customers, rate=1000.0, seed=1))
        served = driver.scorer.assignment
        assert sorted(served, key=lambda i: i.pair) == sorted(
            streamed, key=lambda i: i.pair
        )
        assert driver.stats.commits == len(served)
        assert validate_assignment(problem, served).ok
