"""ShardPlan invariants: partition, replication, routing, metadata."""

from __future__ import annotations

import pytest

from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.exceptions import InvalidProblemError
from repro.sharding import ShardPlan, resolve_plan

from tests.conftest import paper_example_problem


def _problem(seed=3, n_customers=300, n_vendors=30):
    return synthetic_problem(
        WorkloadConfig(
            n_customers=n_customers,
            n_vendors=n_vendors,
            radius_range=ParameterRange(0.03, 0.06),
            seed=seed,
        )
    )


class TestPartition:
    def test_every_vendor_in_exactly_one_shard(self):
        problem = _problem()
        plan = ShardPlan.build(problem, shards=4)
        assert plan.n_shards > 1
        seen = []
        for shard in range(plan.n_shards):
            seen.extend(plan.vendor_ids(shard))
        assert sorted(seen) == sorted(v.vendor_id for v in problem.vendors)
        assert len(seen) == len(set(seen))
        for shard in range(plan.n_shards):
            for vid in plan.vendor_ids(shard):
                assert plan.shard_of_vendor[vid] == shard

    def test_cell_size_floored_at_max_radius(self):
        problem = _problem()
        plan = ShardPlan.build(problem, shards=16)
        assert plan.cell_size >= problem.max_radius
        tiny = ShardPlan.build(problem, shards=4, cell_size=1e-9)
        assert tiny.cell_size >= problem.max_radius

    def test_invalid_cell_size_rejected(self):
        problem = _problem()
        for bad in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(InvalidProblemError):
                ShardPlan.build(problem, shards=4, cell_size=bad)

    def test_shard_view_has_full_candidate_set_per_vendor(self):
        """The locality invariant: a vendor's valid customers inside its
        shard view are exactly its valid customers in the full problem,
        so per-vendor subproblems are shard-local-exact."""
        problem = _problem()
        plan = ShardPlan.build(problem, shards=4)
        for shard in range(plan.n_shards):
            view = plan.problem_for(shard)
            for vid in plan.vendor_ids(shard):
                full = problem.valid_customer_ids(problem.vendors_by_id[vid])
                local = view.valid_customer_ids(view.vendors_by_id[vid])
                # Enumeration order may differ (the view's grid has its
                # own cell layout); the *set* must match exactly.
                assert set(local) == set(full), f"vendor {vid} differs"
                assert len(local) == len(full)

    def test_replication_consistent_with_memberships(self):
        problem = _problem()
        plan = ShardPlan.build(problem, shards=4)
        replicated = 0
        for customer in problem.customers:
            shards = plan.shards_of_customer(customer.customer_id)
            for shard in shards:
                assert customer.customer_id in plan.customer_ids(shard)
            if len(shards) > 1:
                replicated += 1
        assert plan.replicated_customers == replicated

    def test_honors_pair_validator(self):
        problem = paper_example_problem()
        plan = ShardPlan.build(problem, shards=2)
        for shard in range(plan.n_shards):
            view = plan.problem_for(shard)
            for vid in plan.vendor_ids(shard):
                assert view.valid_customer_ids(
                    view.vendors_by_id[vid]
                ) == problem.valid_customer_ids(problem.vendors_by_id[vid])

    def test_explicit_groups_validated(self):
        problem = _problem(n_customers=50, n_vendors=6)
        ids = [v.vendor_id for v in problem.vendors]
        with pytest.raises(InvalidProblemError):
            ShardPlan(problem, 1.0, [])  # no shards
        with pytest.raises(InvalidProblemError):
            ShardPlan(problem, 1.0, [ids, [ids[0]]])  # duplicate
        with pytest.raises(InvalidProblemError):
            ShardPlan(problem, 1.0, [ids[:-1], [9999]])  # unknown
        with pytest.raises(InvalidProblemError):
            ShardPlan(problem, 1.0, [ids[:-1]])  # incomplete cover


class TestIdentity:
    def test_identity_aliases_problem(self):
        problem = _problem(n_customers=50, n_vendors=6)
        plan = ShardPlan.identity(problem)
        assert plan.is_identity
        assert plan.n_shards == 1
        assert plan.problem_for(0) is problem
        assert plan.replicated_customers == 0
        assert plan.route(problem.customers[0]) == 0
        plan.release(0)  # must be a no-op
        assert plan.problem_for(0) is problem

    def test_build_with_one_shard_is_identity(self):
        problem = _problem(n_customers=50, n_vendors=6)
        assert ShardPlan.build(problem, shards=1).is_identity
        assert ShardPlan.build(problem, shards=0).is_identity

    def test_resolve_plan_identity_is_none(self):
        problem = _problem(n_customers=50, n_vendors=6)
        assert resolve_plan(problem, 1) is None
        assert resolve_plan(problem, shard_plan=ShardPlan.identity(problem)) \
            is None
        plan = ShardPlan.build(problem, shards=3)
        assert resolve_plan(problem, 1, plan) is plan

    def test_resolve_plan_rejects_foreign_problem(self):
        problem = _problem(n_customers=50, n_vendors=6)
        other = _problem(seed=4, n_customers=50, n_vendors=6)
        plan = ShardPlan.build(problem, shards=3)
        with pytest.raises(InvalidProblemError):
            resolve_plan(other, shard_plan=plan)


class TestViewsAndRouting:
    def test_views_cached_and_released(self):
        problem = _problem()
        plan = ShardPlan.build(problem, shards=4)
        view = plan.problem_for(0)
        assert plan.problem_for(0) is view
        assert plan.resident_shards == [0]
        plan.release(0)
        assert plan.resident_shards == []
        assert plan.problem_for(0) is not view
        plan.problem_for(1)
        plan.release_all()
        assert plan.resident_shards == []

    def test_views_share_catalogue_and_global_ids(self):
        problem = _problem()
        plan = ShardPlan.build(problem, shards=4)
        view = plan.problem_for(0)
        assert view.ad_types == problem.ad_types
        assert view.utility_model is problem.utility_model
        for vid in plan.vendor_ids(0):
            assert view.vendors_by_id[vid] is problem.vendors_by_id[vid]

    def test_route_prefers_member_shards(self):
        problem = _problem()
        plan = ShardPlan.build(problem, shards=4)
        for customer in problem.customers:
            shard = plan.route(customer)
            members = plan.shards_of_customer(customer.customer_id)
            if members:
                assert shard in members
            else:
                assert shard is None or 0 <= shard < plan.n_shards

    def test_shard_sizes_and_edge_counts_align(self):
        problem = _problem()
        plan = ShardPlan.build(problem, shards=4)
        sizes = plan.shard_sizes()
        edges = plan.edge_counts()
        assert len(sizes) == len(edges) == plan.n_shards
        total = sum(
            len(problem.valid_customer_ids(v)) for v in problem.vendors
        )
        assert sum(edges) == total

    def test_card_mentions_every_shard(self):
        plan = ShardPlan.build(_problem(), shards=4)
        card = plan.card()
        assert "shards:" in card and "replicated:" in card
        for shard in range(plan.n_shards):
            assert f"shard {shard}:" in card


class TestMovedViews:
    """Shard views read the full problem's move state, so views that
    missed the move itself still gate the mover and restore it."""

    @staticmethod
    def _member(problem, plan):
        """A customer with a member shard, and that shard."""
        for customer in problem.customers:
            members = plan.shards_of_customer(customer.customer_id)
            if members:
                return customer, members[0]
        raise AssertionError("no customer has a member shard")

    def test_view_built_after_a_move_is_reset(self):
        problem = _problem()
        plan = ShardPlan.build(problem, shards=4)
        customer, shard = self._member(problem, plan)
        cid = customer.customer_id
        original = tuple(customer.location)
        moved = (original[0] + 0.01, original[1])
        assert plan.move_customer(cid, moved)
        view = plan.problem_for(shard)  # built after the move
        assert view.customers_by_id[cid].location == moved
        plan.reset_moves()
        assert view.customers_by_id[cid].location == original
        assert not view.has_moved(cid)

    def test_views_that_missed_the_move_gate_the_mover(self):
        problem = _problem()
        plan = ShardPlan.build(problem, shards=4)
        customer, shard = self._member(problem, plan)
        cid = customer.customer_id
        location = customer.location
        assert plan.move_customer(cid, (location[0] + 0.01, location[1]))
        assert plan.problem_for(shard).has_moved(cid)
        assert all(
            plan.problem_for(s).has_moved(cid)
            for s in plan.shards_of_customer(cid)
        )

    def test_view_admitting_a_mover_is_reset(self):
        problem = _problem()
        plan = ShardPlan.build(problem, shards=4)
        for shard in range(plan.n_shards):
            plan.problem_for(shard)
        cid = problem.customers[0].customer_id
        original = tuple(problem.customers_by_id[cid].location)
        before = set(plan.shards_of_customer(cid))
        # Onto a vendor of a shard the customer is not a member of.
        target = next(
            vid
            for shard in range(plan.n_shards) if shard not in before
            for vid in plan.vendor_ids(shard)
        )
        assert plan.move_customer(
            cid, problem.vendors_by_id[target].location
        )
        admitted = set(plan.shards_of_customer(cid)) - before
        assert plan.shard_of_vendor[target] in admitted
        plan.reset_moves()
        for shard in admitted:
            view = plan.problem_for(shard)
            assert view.customers_by_id[cid].location == original
            assert not view.has_moved(cid)

    def test_engine_scored_during_a_move_is_not_reused(self):
        """A view engine warmed while a member was moved holds rows at
        the moved location; after the reset the view must decide that
        customer exactly like a view that never saw the move."""
        problem = _problem()
        plan = ShardPlan.build(problem, shards=4)
        customer, shard = self._member(problem, plan)
        cid = customer.customer_id
        original = tuple(customer.location)
        assert plan.move_customer(cid, (original[0] + 0.01, original[1]))
        plan.problem_for(shard).warm_utilities()
        plan.reset_moves()
        view = plan.problem_for(shard)
        fresh = ShardPlan.build(_problem(), shards=4).problem_for(shard)
        restored = view.customers_by_id[cid]
        vendors = fresh.valid_vendor_ids(fresh.customers_by_id[cid])
        assert vendors
        assert view.valid_vendor_ids(restored) == vendors
        for vid in vendors:
            assert view.best_instance_for_pair(cid, vid) == (
                fresh.best_instance_for_pair(cid, vid)
            )


class TestMetadata:
    def test_round_trip(self):
        problem = _problem()
        plan = ShardPlan.build(problem, shards=4)
        doc = plan.to_metadata()
        clone = ShardPlan.from_metadata(problem, doc)
        assert clone.n_shards == plan.n_shards
        assert clone.cell_size == plan.cell_size
        for shard in range(plan.n_shards):
            assert clone.vendor_ids(shard) == plan.vendor_ids(shard)
            assert clone.customer_ids(shard) == plan.customer_ids(shard)
        assert clone.replicated_customers == plan.replicated_customers
        assert clone.edge_counts() == plan.edge_counts()

    def test_round_trip_survives_json(self):
        import json

        problem = _problem(n_customers=80, n_vendors=10)
        plan = ShardPlan.build(problem, shards=3)
        doc = json.loads(json.dumps(plan.to_metadata()))
        clone = ShardPlan.from_metadata(problem, doc)
        assert clone.to_metadata() == plan.to_metadata()

    def test_bad_documents_rejected(self):
        problem = _problem(n_customers=50, n_vendors=6)
        good = ShardPlan.build(problem, shards=2).to_metadata()
        with pytest.raises(InvalidProblemError):
            ShardPlan.from_metadata(problem, {**good, "schema_version": 99})
        with pytest.raises(InvalidProblemError):
            ShardPlan.from_metadata(
                problem, {"schema_version": 1, "cell_size": 1.0}
            )
        with pytest.raises(InvalidProblemError):
            ShardPlan.from_metadata(
                problem,
                {**good, "shard_vendors": [[9999]]},
            )
