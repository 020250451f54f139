"""Trajectory customers: move schedules, engine re-resolution, and the
run-local rollback that keeps panel members comparable."""

from __future__ import annotations

import pytest

from repro.datagen.checkins import simulate_checkins
from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.datagen.trajectories import trajectory_from_checkins
from repro.experiments.runner import run_panel
from repro.scenario import (
    CustomerMove,
    MoveSchedule,
    TrajectoryScenario,
    seeded_customer_moves,
)
from repro.sharding import ShardPlan

CONFIG = WorkloadConfig(
    n_customers=100,
    n_vendors=20,
    seed=9,
    radius_range=ParameterRange(0.05, 0.1),
)

STREAMING = ("NEAREST", "ONLINE")


def _problem():
    return synthetic_problem(CONFIG)


class TestMoveSchedule:
    def test_add_and_at(self):
        schedule = MoveSchedule()
        assert not schedule
        schedule.add(CustomerMove(customer_id=1, location=(0.5, 0.5), tick=3))
        schedule.add(CustomerMove(customer_id=2, location=(0.1, 0.2), tick=3))
        assert len(schedule) == 2
        assert [m.customer_id for m in schedule.at(3)] == [1, 2]
        assert schedule.at(4) == ()

    def test_seeded_moves_deterministic(self):
        problem = _problem()
        a = seeded_customer_moves(problem, 20, seed=5, n_ticks=100)
        b = seeded_customer_moves(_problem(), 20, seed=5, n_ticks=100)
        assert [(m.customer_id, m.location, m.tick) for m in a.moves] == [
            (m.customer_id, m.location, m.tick) for m in b.moves
        ]
        c = seeded_customer_moves(_problem(), 20, seed=6, n_ticks=100)
        assert [(m.customer_id, m.location) for m in a.moves] != [
            (m.customer_id, m.location) for m in c.moves
        ]

    def test_moves_stay_in_unit_square(self):
        schedule = seeded_customer_moves(
            _problem(), 200, seed=5, n_ticks=100, step=0.5
        )
        for move in schedule.moves:
            assert 0.0 <= move.location[0] <= 1.0
            assert 0.0 <= move.location[1] <= 1.0


class TestMoveCustomer:
    def test_move_bumps_epoch_and_gates_engine(self):
        problem = _problem()
        problem.warm_utilities()
        cid = problem.customers[0].customer_id
        assert problem.move_customer(cid, (0.9, 0.9))
        assert problem.location_epoch == 1
        assert cid in problem.moved_customer_ids
        assert problem.customers_by_id[cid].location == (0.9, 0.9)

    def test_candidates_re_resolve_after_move(self):
        problem = _problem()
        problem.warm_utilities()
        customer = problem.customers[0]
        # Park the customer far outside every vendor's radius ...
        assert problem.move_customer(customer.customer_id, (5.0, 5.0))
        moved = problem.customers_by_id[customer.customer_id]
        assert problem.valid_vendor_ids(moved) == []
        # ... then bring them back: candidates come back too.
        problem.reset_moves()
        restored = problem.customers_by_id[customer.customer_id]
        assert restored.location == tuple(customer.location)
        assert problem.location_epoch == 1  # epoch is monotonic

    def test_scalar_model_rescores_a_moved_pair(self):
        """The scalar model caches per-pair work by ids; a move must
        still change the pair's Eq. 4 base, which divides by distance."""
        problem = _problem()
        model = problem.utility_model
        customer, vendor = next(
            (c, v)
            for c in problem.customers
            for v in problem.vendors
            if model.pair_base(c, v) > 0  # cached at the first location
        )
        halfway = tuple(
            (a + b) / 2 for a, b in zip(customer.location, vendor.location)
        )
        assert problem.move_customer(customer.customer_id, halfway)
        moved = problem.customers_by_id[customer.customer_id]
        fresh = _problem().utility_model
        assert fresh.pair_base(moved, vendor) != fresh.pair_base(
            customer, vendor
        )
        assert model.pair_base(moved, vendor) == fresh.pair_base(
            moved, vendor
        )

    def test_reset_moves_restores_first_seen_location(self):
        problem = _problem()
        cid = problem.customers[0].customer_id
        original = tuple(problem.customers_by_id[cid].location)
        problem.move_customer(cid, (0.2, 0.3))
        problem.move_customer(cid, (0.4, 0.5))
        assert problem.reset_moves() == 1
        assert problem.customers_by_id[cid].location == original
        assert not problem.moved_customer_ids


class TestTrajectoryPanel:
    @pytest.mark.parametrize("shards", [1, 4], ids=["unsharded", "4-shard"])
    def test_repeatable_and_rolls_back(self, shards):
        problem = _problem()
        run = TrajectoryScenario(move_fraction=0.5).realize(problem, 9)
        assert run.moves is not None and len(run.moves) > 0
        first = run_panel(
            run.problem, algorithms=STREAMING, seed=9, shards=shards,
            moves=run.moves,
        )
        assert not run.problem.moved_customer_ids
        second = run_panel(
            run.problem, algorithms=STREAMING, seed=9, shards=shards,
            moves=run.moves,
        )
        for name in STREAMING:
            assert first[name].total_utility == second[name].total_utility

    def test_moves_change_streaming_outcomes(self):
        problem = _problem()
        static = run_panel(problem, algorithms=STREAMING, seed=9)
        run = TrajectoryScenario(move_fraction=1.0).realize(problem, 9)
        moved = run_panel(
            run.problem, algorithms=STREAMING, seed=9, moves=run.moves
        )
        assert any(
            static[name].total_utility != moved[name].total_utility
            for name in STREAMING
        )


class TestShardPlanMoves:
    def test_move_reroutes_additively_and_resets(self):
        problem = _problem()
        plan = ShardPlan.build(problem, 4)
        cid = problem.customers[0].customer_id
        original = tuple(problem.customers_by_id[cid].location)
        before = set(plan.shards_of_customer(cid))
        assert plan.move_customer(cid, (0.95, 0.95))
        after = set(plan.shards_of_customer(cid))
        # Membership only ever grows mid-run (stale replicas are
        # harmless; removal happens at reset).
        assert before <= after
        plan.reset_moves()
        assert problem.customers_by_id[cid].location == original
        assert set(plan.shards_of_customer(cid)) == before


class TestTrajectoryDatagen:
    def test_checkin_feed_round_trip(self):
        feed = simulate_checkins(
            n_users=60, n_venues=120, n_checkins=3_000, seed=11
        )
        problem, schedule = trajectory_from_checkins(
            feed, max_users=40, max_moves=100, seed=11
        )
        assert len(problem.customers) <= 40
        assert len(schedule) <= 100
        ids = {c.customer_id for c in problem.customers}
        for move in schedule.moves:
            assert move.customer_id in ids
            assert 0.0 <= move.location[0] <= 1.0
            assert 0.0 <= move.location[1] <= 1.0
