"""The shared arrival timeline: commit outcomes, rollback, and the
rejection counters of all four serving loops."""

from __future__ import annotations

import pytest

from repro.algorithms.base import OnlineAlgorithm
from repro.algorithms.nearest import NearestVendor
from repro.churn import KIND_DEACTIVATE, ChurnEvent, ChurnSchedule
from repro.cluster import router as cluster_router
from repro.cluster import worker as cluster_worker
from repro.cluster.episode import ClusterConfig, run_episode
from repro.core.assignment import AdInstance
from repro.obs.recorder import observed
from repro.resilience.broker import ResilientBroker
from repro.serve import ReplayDriver, ServeConfig, build_schedule
from repro.stream.arrivals import by_arrival_time
from repro.stream.simulator import OnlineSimulator
from repro.stream.timeline import COMMITTED, DUPLICATE, REJECTED, Timeline
from tests.churn.conftest import make_problem


def _instance(problem, customer_id, vendor_id, utility=1.0, cost=None):
    ad_type = problem.ad_types[0]
    return AdInstance(
        customer_id=customer_id,
        vendor_id=vendor_id,
        type_id=ad_type.type_id,
        utility=utility,
        cost=ad_type.cost if cost is None else cost,
    )


class FutureInstances(OnlineAlgorithm):
    """NEAREST, plus one instance for the last customer to arrive --
    who, for every earlier decision, has not arrived yet."""

    name = "FUTURE"

    def __init__(self, future_id: int, vendor_id: int) -> None:
        self._inner = NearestVendor()
        self._future_id = future_id
        self._vendor_id = vendor_id

    def reset(self, problem) -> None:
        self._inner.reset(problem)

    def process_customer(self, problem, customer, assignment):
        picked = list(
            self._inner.process_customer(problem, customer, assignment)
        )
        if customer.customer_id != self._future_id:
            picked.append(
                _instance(problem, self._future_id, self._vendor_id)
            )
        return picked


def _stub(problem):
    last = by_arrival_time(problem.customers)[-1]
    return FutureInstances(last.customer_id, problem.vendors[0].vendor_id)


def _stream(problem, monkeypatch):
    return OnlineSimulator(problem).run(
        _stub(problem), measure_latency=False
    ).rejected_instances


def _broker(problem, monkeypatch):
    return ResilientBroker(problem, primary=_stub(problem)).run(
    ).rejected_instances


def _cluster(problem, monkeypatch):
    stub = _stub(problem)

    def primary(gamma_min, g):
        return stub

    # Workers and the router's replica tier build their primary from
    # the calibrated thresholds; hand them the stub instead.
    monkeypatch.setattr(cluster_worker, "OnlineAdaptiveFactorAware", primary)
    monkeypatch.setattr(cluster_router, "OnlineAdaptiveFactorAware", primary)
    result = run_episode(problem, ClusterConfig(shards=2))
    return result.stats.rejected_instances


def _serve(problem, monkeypatch):
    schedule = build_schedule(problem.customers, rate=500.0, seed=3)
    driver = ReplayDriver(
        problem, _stub(problem), ServeConfig(max_batch=1, queue_depth=1000)
    )
    return driver.run(schedule).stats.rejected_instances


PATHS = {
    "stream": _stream,
    "broker": _broker,
    "cluster": _cluster,
    "serve": _serve,
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_rejection_counter_matches_result(path, monkeypatch):
    problem = make_problem(n_customers=80, n_vendors=16)
    with observed() as rec:
        rejected = PATHS[path](problem, monkeypatch)
    counters = rec.metrics.snapshot()["counters"]
    # Every decision but the last returns one not-yet-arrived instance.
    assert rejected >= len(problem.customers) - 1
    assert counters.get(f"{path}.rejected_instances", 0.0) == float(rejected)


class TestCommitRule:
    def test_outcomes(self):
        problem = make_problem(n_customers=20, n_vendors=6)
        customer = problem.customers[0]
        vendor_id = problem.vendors[0].vendor_id
        timeline = Timeline(problem, "test")
        assignment = problem.new_assignment()
        first = _instance(problem, customer.customer_id, vendor_id)
        assert timeline.commit(assignment, first) == REJECTED  # not arrived
        timeline.arrive(customer)
        assert timeline.commit(assignment, first) == COMMITTED
        assert timeline.commit(assignment, first) == DUPLICATE
        other = _instance(
            problem, customer.customer_id, vendor_id, utility=2.0
        )
        assert timeline.commit(assignment, other) == REJECTED  # pair held
        assert (
            timeline.budget_commits,
            timeline.duplicates_suppressed,
            timeline.rejected_instances,
        ) == (1, 1, 2)
        assert len(assignment) == 1

    def test_close_rolls_back_auto_deactivations(self):
        problem = make_problem(n_customers=20, n_vendors=6)
        vendor = problem.vendors[0]
        customer = problem.customers[0]
        assignment = problem.new_assignment()
        with Timeline(problem, "test") as timeline:
            timeline.arrive(customer)
            # One instance spending the whole budget exhausts the vendor.
            drain = _instance(
                problem, customer.customer_id, vendor.vendor_id,
                cost=vendor.budget,
            )
            assert timeline.commit(assignment, drain) == COMMITTED
            assert vendor.vendor_id in problem.churn.auto
            assert timeline.vendors_deactivated == 1
        assert not problem.churn.auto
        assert vendor.vendor_id not in problem.churn.inactive

    def test_arrive_applies_churn_then_returns_customer(self):
        problem = make_problem(n_customers=20, n_vendors=6)
        victim = problem.vendors[1].vendor_id
        schedule = ChurnSchedule(
            [ChurnEvent(kind=KIND_DEACTIVATE, tick=3, vendor_id=victim)]
        )
        timeline = Timeline(problem, "test", churn=schedule)
        customer = problem.customers[0]
        assert timeline.arrive(customer, 2) is customer
        assert timeline.churned == []
        timeline.arrive(customer, 3)
        assert [event.vendor_id for event, _ in timeline.churned] == [victim]
        assert problem.churn.epoch == 1
        assert victim in problem.churn.inactive
        timeline.arrive(customer, 4)
        assert timeline.churned == []
