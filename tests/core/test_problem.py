"""Unit tests for MUAAProblem."""

from __future__ import annotations

import pytest

from repro.core.entities import AdType, Customer, Vendor
from repro.core.problem import MUAAProblem
from repro.exceptions import InvalidProblemError
from repro.utility.model import TabularUtilityModel
from tests.conftest import random_tabular_problem


def tiny_problem(radius=1.0):
    customers = [
        Customer(customer_id=0, location=(0.0, 0.0), capacity=2,
                 view_probability=0.5),
        Customer(customer_id=1, location=(0.5, 0.0), capacity=1,
                 view_probability=0.4),
    ]
    vendors = [
        Vendor(vendor_id=0, location=(0.1, 0.0), radius=radius, budget=4.0),
        Vendor(vendor_id=1, location=(0.9, 0.0), radius=radius, budget=4.0),
    ]
    ad_types = [
        AdType(type_id=0, name="a", cost=1.0, effectiveness=0.2),
        AdType(type_id=1, name="b", cost=2.0, effectiveness=0.5),
    ]
    model = TabularUtilityModel(
        preferences={(i, j): 0.5 for i in range(2) for j in range(2)}
    )
    return MUAAProblem(customers, vendors, ad_types, model)


class TestConstruction:
    def test_duplicate_customer_ids_rejected(self):
        c = Customer(customer_id=0, location=(0, 0), capacity=1,
                     view_probability=0.5)
        v = Vendor(vendor_id=0, location=(0, 0), radius=1, budget=1)
        t = AdType(type_id=0, name="x", cost=1, effectiveness=0.5)
        with pytest.raises(InvalidProblemError):
            MUAAProblem([c, c], [v], [t], TabularUtilityModel({}))

    def test_empty_ad_types_rejected(self):
        with pytest.raises(InvalidProblemError):
            MUAAProblem([], [], [], TabularUtilityModel({}))

    def test_min_cost_and_max_radius(self):
        p = tiny_problem(radius=0.3)
        assert p.min_cost == 1.0
        assert p.max_radius == 0.3


class TestRangeQueries:
    def test_valid_customers_respects_radius(self):
        p = tiny_problem(radius=0.2)
        # vendor 0 at (0.1, 0): covers both customers at distance 0.1 / 0.4
        ids = p.valid_customer_ids(p.vendors[0])
        assert ids == [0]
        # larger radius covers both
        p2 = tiny_problem(radius=0.5)
        assert sorted(p2.valid_customer_ids(p2.vendors[0])) == [0, 1]

    def test_valid_vendors_respects_radius(self):
        p = tiny_problem(radius=0.2)
        assert p.valid_vendor_ids(p.customers[0]) == [0]

    def test_valid_pairs_is_consistent(self):
        p = tiny_problem(radius=0.5)
        pairs = set(p.valid_pairs())
        for customer in p.customers:
            for vendor in p.vendors:
                expected = p.is_valid_pair(customer, vendor)
                observed = (customer.customer_id, vendor.vendor_id) in pairs
                assert expected == observed

    def test_pair_validator_overrides_geometry(self):
        customers = [
            Customer(customer_id=0, location=(0, 0), capacity=1,
                     view_probability=0.5)
        ]
        vendors = [
            Vendor(vendor_id=0, location=(0, 0), radius=10.0, budget=1.0)
        ]
        t = AdType(type_id=0, name="x", cost=1, effectiveness=0.5)
        p = MUAAProblem(
            customers, vendors, [t], TabularUtilityModel({(0, 0): 1.0}),
            pair_validator=lambda c, v: False,
        )
        assert p.valid_customer_ids(vendors[0]) == []
        assert p.valid_vendor_ids(customers[0]) == []
        assert not p.is_valid_pair(customers[0], vendors[0])


class TestUtilityAccess:
    def test_utility_matches_model(self):
        p = tiny_problem()
        c, v, t = p.customers[0], p.vendors[0], p.ad_types[1]
        expected = p.utility_model.utility(c, v, t)
        assert p.utility(0, 0, 1) == pytest.approx(expected)

    def test_efficiency_is_utility_over_cost(self):
        p = tiny_problem()
        assert p.efficiency(0, 0, 1) == pytest.approx(
            p.utility(0, 0, 1) / 2.0
        )

    def test_pair_instances_cover_all_types(self):
        p = tiny_problem()
        instances = p.pair_instances(0, 0)
        assert [inst.type_id for inst in instances] == [0, 1]
        for inst in instances:
            assert inst.utility == pytest.approx(
                p.utility(0, 0, inst.type_id)
            )

    def test_best_instance_by_efficiency_and_utility(self):
        p = tiny_problem()
        # type 0: eff 0.2/1, type 1: 0.5/2 = 0.25 -> type 1 best by both.
        best_eff = p.best_instance_for_pair(0, 0, by="efficiency")
        best_util = p.best_instance_for_pair(0, 0, by="utility")
        assert best_eff.type_id == 1
        assert best_util.type_id == 1

    def test_best_instance_respects_max_cost(self):
        p = tiny_problem()
        best = p.best_instance_for_pair(0, 0, max_cost=1.0)
        assert best.type_id == 0
        assert p.best_instance_for_pair(0, 0, max_cost=0.5) is None

    def test_best_instance_unknown_criterion(self):
        p = tiny_problem()
        with pytest.raises(ValueError):
            p.best_instance_for_pair(0, 0, by="nonsense")


class TestTheta:
    def test_theta_on_known_instance(self):
        # radius 0.5: customer 0 sees only vendor 0 -> a=2, n_c=max(1,2)=2
        # customer 1 sees both vendors -> a=1, n_c=2 -> 1/2; theta=1/2.
        p = tiny_problem(radius=0.5)
        assert p.theta() == pytest.approx(0.5)

    def test_theta_at_most_one(self):
        p = random_tabular_problem(seed=5)
        assert 0 < p.theta() <= 1.0
