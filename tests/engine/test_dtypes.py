"""Dtype policies: float64 parity reference and the compact float32 path.

``test_no_silent_upcast_*`` doubles as the dtype lint CI runs: any
kernel change that silently widens a compact column back to float64
fails here before it reaches a benchmark.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.greedy import GreedyEfficiency
from repro.datagen.config import WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.engine import FLOAT32, FLOAT64, DtypePolicy, resolve_policy

CONFIG = WorkloadConfig(n_customers=300, n_vendors=40, seed=5)


def _engine(dtype=None):
    problem = synthetic_problem(CONFIG, dtype=dtype)
    engine = problem.acquire_engine()
    engine.num_edges
    engine.pair_bases
    return problem, engine


class TestResolvePolicy:
    def test_none_is_the_reference(self):
        assert resolve_policy(None) is FLOAT64

    def test_names_resolve(self):
        assert resolve_policy("float64") is FLOAT64
        assert resolve_policy("float32") is FLOAT32

    def test_policy_instances_pass_through(self):
        assert resolve_policy(FLOAT32) is FLOAT32

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown dtype policy"):
            resolve_policy("float16")

    def test_reference_policy_has_zero_tolerance(self):
        assert FLOAT64.utility_rtol == 0.0
        assert FLOAT32.utility_rtol > 0.0


class TestFloat64Reference:
    def test_default_is_bitwise_the_explicit_reference(self):
        """``dtype=None`` and ``dtype="float64"`` are the same path."""
        _, default = _engine(None)
        _, explicit = _engine("float64")
        assert default.dtype_policy is FLOAT64
        assert explicit.dtype_policy is FLOAT64
        for attr in ("customer_idx", "vendor_idx", "distance",
                     "vendor_starts"):
            assert np.array_equal(
                getattr(default.edges, attr), getattr(explicit.edges, attr)
            )
        assert np.array_equal(
            np.asarray(default.pair_bases), np.asarray(explicit.pair_bases)
        )
        assert np.array_equal(default.utilities(), explicit.utilities())

    def test_reference_dtypes_are_the_historical_ones(self):
        _, engine = _engine("float64")
        arrays = engine.arrays
        assert arrays.customer_xy.dtype == np.float64
        assert arrays.budget.dtype == np.float64
        assert arrays.customer_ids.dtype == np.int64
        assert engine.edges.customer_idx.dtype == np.intp
        assert engine.edges.distance.dtype == np.float64
        assert np.asarray(engine.pair_bases).dtype == np.float64


class TestFloat32Compact:
    def test_columns_are_half_width(self):
        _, engine = _engine("float32")
        arrays = engine.arrays
        assert arrays.customer_xy.dtype == np.float32
        assert arrays.budget.dtype == np.float32
        assert arrays.customer_ids.dtype == np.int32
        assert engine.edges.customer_idx.dtype == np.int32
        assert engine.edges.distance.dtype == np.float32
        # vendor_starts stays int64 under every policy (overflow-safe
        # segment arithmetic).
        assert engine.edges.vendor_starts.dtype == np.int64

    def test_no_silent_upcast_in_kernels(self):
        """The dtype lint: bases, utilities and efficiencies must come
        out at the policy's float width, not quietly promoted."""
        for dtype, policy in (("float64", FLOAT64), ("float32", FLOAT32)):
            _, engine = _engine(dtype)
            assert np.asarray(engine.pair_bases).dtype == policy.float_dtype
            assert engine.utilities().dtype == policy.float_dtype
            assert engine.efficiencies().dtype == policy.float_dtype

    def test_edge_table_bytes_roughly_halve(self):
        _, wide = _engine("float64")
        _, compact = _engine("float32")
        assert compact.num_edges == wide.num_edges

        def edge_bytes(engine):
            edges = engine.edges
            return (
                edges.customer_idx.nbytes
                + edges.vendor_idx.nbytes
                + edges.distance.nbytes
                + np.asarray(engine.pair_bases).nbytes
            )

        assert edge_bytes(compact) / edge_bytes(wide) <= 0.6

    def test_utility_within_documented_tolerance(self):
        p64, _ = _engine("float64")
        p32, _ = _engine("float32")
        u64 = GreedyEfficiency().solve(p64).total_utility
        u32 = GreedyEfficiency().solve(p32).total_utility
        assert abs(u32 - u64) / abs(u64) <= FLOAT32.utility_rtol

    def test_policy_survives_shard_views(self):
        from repro.sharding import ShardPlan

        problem = synthetic_problem(CONFIG, dtype="float32")
        plan = ShardPlan.build(problem, 3)
        for shard in range(plan.n_shards):
            view = plan.problem_for(shard)
            assert view.dtype_policy is FLOAT32
            engine = view.acquire_engine()
            assert engine.dtype_policy is FLOAT32
            plan.release(shard)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_cold_point_lookup_reads_one_cell(dtype):
    """Before ``warm()``, ``best_for_pair`` reads one utility without
    building the E x K row table (demand paging), bitwise equal to the
    warmed table's entry at every affordability level."""
    _, engine = _engine(dtype)
    pairs = list(engine.edge_index)[:200]
    costs = [None, 0.5, 1.0, 2.0, 4.0]
    cold = [
        engine.best_for_pair(cid, vid, max_cost=cost)
        for cid, vid in pairs for cost in costs
    ]
    assert engine._util_rows is None
    engine.warm()
    assert engine._util_rows is not None
    assert [
        engine.best_for_pair(cid, vid, max_cost=cost)
        for cid, vid in pairs for cost in costs
    ] == cold


class TestBlockedEnumerationParity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_blocked_matches_dense_bitwise(self, monkeypatch, dtype):
        """Forcing the O(edges)-memory blocked path must reproduce the
        dense enumeration bit for bit, at either float width."""
        import repro.engine.edges as edges_mod

        _, dense = _engine(dtype)
        monkeypatch.setattr(edges_mod, "_DENSE_ELEMENT_LIMIT", 1)
        _, blocked = _engine(dtype)
        for attr in ("customer_idx", "vendor_idx", "distance",
                     "vendor_starts"):
            a = getattr(blocked.edges, attr)
            b = getattr(dense.edges, attr)
            assert a.dtype == b.dtype, attr
            assert np.array_equal(a, b), attr
        assert np.array_equal(
            np.asarray(blocked.pair_bases), np.asarray(dense.pair_bases)
        )


def test_policy_is_hashable_and_frozen():
    assert isinstance(hash(FLOAT32), int)
    with pytest.raises(Exception):
        FLOAT32.name = "other"
    assert isinstance(FLOAT32, DtypePolicy)
