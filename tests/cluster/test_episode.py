"""Zero-fault cluster episodes: parity, feasibility, merged timelines."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, run_episode
from repro.core.validation import validate_assignment
from repro.obs.recorder import observed
from repro.parallel.shm import HAVE_SHARED_MEMORY

from tests.cluster.conftest import make_problem, triples


class TestZeroFaultParity:
    def test_decisions_match_sharded_simulator(self, baseline_result):
        # The acceptance gate: an inline cluster with no faults decides
        # byte-identically to the in-process sharded simulator.
        result = run_episode(
            make_problem(), ClusterConfig(shards=4, transport="inline")
        )
        assert triples(result.assignment) == triples(
            baseline_result.assignment
        )
        assert (
            abs(result.total_utility - baseline_result.total_utility)
            <= 1e-9
        )

    @pytest.mark.skipif(
        not HAVE_SHARED_MEMORY, reason="platform lacks shared memory"
    )
    def test_shm_engines_preserve_parity(self, baseline_result):
        # Same gate with engines reconstructed from shipped columns.
        result = run_episode(
            make_problem(),
            ClusterConfig(shards=4, transport="inline", use_shm=True),
        )
        assert triples(result.assignment) == triples(
            baseline_result.assignment
        )

    def test_all_decisions_took_the_shard_path(self):
        result = run_episode(
            make_problem(), ClusterConfig(shards=4, transport="inline")
        )
        paths = result.stats.decisions_by_path
        degraded = {
            path: count
            for path, count in paths.items()
            if path not in ("shard", "local")
        }
        assert degraded == {}
        assert result.stats.restarts == 0
        assert result.stats.breaker_transitions == []
        assert result.stats.heartbeats_missed == 0


class TestFeasibility:
    def test_assignment_satisfies_all_constraints(self):
        problem = make_problem()
        result = run_episode(
            problem, ClusterConfig(shards=4, transport="inline")
        )
        report = validate_assignment(problem, result.assignment)
        assert report.ok, report.violations

    def test_single_shard_cluster_runs(self):
        problem = make_problem(n_customers=40, n_vendors=8)
        result = run_episode(
            problem, ClusterConfig(shards=1, transport="inline")
        )
        assert result.stats.decisions == 40


class TestReusableProblem:
    def test_second_episode_on_same_problem_matches(self):
        # The router commits through the arrival timeline, which notes
        # exhausted vendors and rolls the notes back when the episode
        # ends -- so the problem serves a second episode unchanged.
        problem = make_problem()
        config = ClusterConfig(shards=4, transport="inline")
        with observed() as rec:
            first = run_episode(problem, config)
        counters = rec.metrics.snapshot()["counters"]
        assert counters["cluster.vendors_deactivated"] > 0
        assert counters["cluster.budget_commits"] == len(first.assignment)
        assert not problem.churn.auto
        second = run_episode(problem, config)
        assert not problem.churn.auto
        assert triples(second.assignment) == triples(first.assignment)
        assert second.total_utility == first.total_utility


class TestObservability:
    def test_worker_lanes_merge_into_one_timeline(self):
        with observed() as rec:
            result = run_episode(
                make_problem(n_customers=80, n_vendors=16),
                ClusterConfig(shards=3, transport="inline"),
            )
        lanes = {span.lane for span in rec.all_spans}
        # Every shard's spans land in its own lane on the merged
        # timeline, alongside the router's main lane.
        assert "main" in lanes
        assert {"shard-0", "shard-1", "shard-2"} <= lanes
        shard_decisions = [
            span
            for span in rec.all_spans
            if span.name == "cluster.shard_decision"
        ]
        assert len(shard_decisions) == result.stats.decisions_by_path.get(
            "shard", 0
        )

    def test_no_recorder_no_snapshots(self):
        # Outside an observed() scope replies carry no snapshots and
        # the episode still runs.
        result = run_episode(
            make_problem(n_customers=40, n_vendors=8),
            ClusterConfig(shards=2, transport="inline"),
        )
        assert result.stats.decisions == 40


class TestResultCard:
    def test_card_mentions_shards_and_paths(self):
        result = run_episode(
            make_problem(n_customers=40, n_vendors=8),
            ClusterConfig(shards=2, transport="inline"),
        )
        card = result.card()
        assert "2 shard(s)" in card
        assert "inline transport" in card
        assert "router p99" in card

    def test_extras_flatten(self):
        result = run_episode(
            make_problem(n_customers=40, n_vendors=8),
            ClusterConfig(shards=2, transport="inline"),
        )
        extras = result.stats.as_extras()
        assert extras["cluster_restarts"] == 0.0
        assert "cluster_path.shard" in extras

    def test_invalid_transport_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(transport="carrier-pigeon")
