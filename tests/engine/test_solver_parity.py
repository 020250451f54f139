"""Every refactored solver must produce identical results on both paths.

The acceptance bar of the engine PR: GREEDY and O-AFA produce identical
assignments whether candidates are scored by the columnar engine or the
scalar reference model; RECON, LP rounding and the calibration helpers
agree likewise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.calibration import (
    calibrate_per_vendor,
    observed_efficiencies,
)
from repro.algorithms.greedy import GreedyEfficiency
from repro.algorithms.lp_rounding import LPRounding
from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.algorithms.online_static import OnlineStaticThreshold
from repro.algorithms.recon import Reconciliation
from repro.core.problem import MUAAProblem
from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.stream.simulator import OnlineSimulator

from tests.conftest import random_tabular_problem


def _variants(problem: MUAAProblem):
    """The same instance, once engine-enabled and once scalar-only."""
    engine = MUAAProblem(
        customers=problem.customers,
        vendors=problem.vendors,
        ad_types=problem.ad_types,
        utility_model=problem.utility_model,
        pair_validator=problem._pair_validator,
        use_engine=True,
    )
    scalar = MUAAProblem(
        customers=problem.customers,
        vendors=problem.vendors,
        ad_types=problem.ad_types,
        utility_model=problem.utility_model,
        pair_validator=problem._pair_validator,
        use_engine=False,
    )
    return engine, scalar


def _triples(assignment):
    return sorted(
        (inst.customer_id, inst.vendor_id, inst.type_id)
        for inst in assignment
    )


@pytest.fixture(scope="module")
def synthetic():
    return synthetic_problem(
        WorkloadConfig(
            n_customers=150,
            n_vendors=20,
            seed=23,
            radius_range=ParameterRange(0.1, 0.25),
        )
    )


@pytest.fixture(scope="module")
def tabular():
    return random_tabular_problem(seed=17)


@pytest.mark.parametrize("fixture", ["synthetic", "tabular"])
def test_greedy_assignments_identical(fixture, request):
    engine, scalar = _variants(request.getfixturevalue(fixture))
    solver = GreedyEfficiency()
    a_engine = solver.solve(engine)
    a_scalar = solver.solve(scalar)
    assert engine.engine is not None  # the fast path actually ran
    assert _triples(a_engine) == _triples(a_scalar)
    assert a_engine.total_utility == pytest.approx(
        a_scalar.total_utility, rel=1e-9
    )


def test_greedy_rescan_still_matches(synthetic):
    engine, scalar = _variants(synthetic)
    fast = GreedyEfficiency().solve(engine)
    rescan = GreedyEfficiency(rescan=True).solve(scalar)
    assert _triples(fast) == _triples(rescan)


@pytest.mark.parametrize("fixture", ["synthetic", "tabular"])
def test_online_afa_assignments_identical(fixture, request):
    engine, scalar = _variants(request.getfixturevalue(fixture))
    algorithm = OnlineAdaptiveFactorAware.calibrated(scalar, seed=5)
    streamed_engine = OnlineSimulator(engine).run(algorithm, warm_engine=True)
    streamed_scalar = OnlineSimulator(scalar).run(algorithm)
    assert engine.engine is not None
    assert _triples(streamed_engine.assignment) == _triples(
        streamed_scalar.assignment
    )


def test_online_static_calibrated_threshold(synthetic):
    engine, scalar = _variants(synthetic)
    from_engine = OnlineStaticThreshold.calibrated(engine, seed=5)
    from_scalar = OnlineStaticThreshold.calibrated(scalar, seed=5)
    assert from_engine.threshold_function.value == pytest.approx(
        from_scalar.threshold_function.value, rel=1e-9
    )


def test_recon_assignments_identical(synthetic):
    engine, scalar = _variants(synthetic)
    a_engine = Reconciliation(seed=3).solve(engine)
    a_scalar = Reconciliation(seed=3).solve(scalar)
    assert engine.engine is not None
    assert _triples(a_engine) == _triples(a_scalar)


def test_lp_rounding_assignments_identical(tabular):
    engine, scalar = _variants(tabular)
    solver_engine = LPRounding()
    solver_scalar = LPRounding()
    a_engine = solver_engine.solve(engine)
    a_scalar = solver_scalar.solve(scalar)
    assert engine.engine is not None
    assert _triples(a_engine) == _triples(a_scalar)
    assert solver_engine.last_lp_value == pytest.approx(
        solver_scalar.last_lp_value, rel=1e-9
    )


def test_observed_efficiencies_same_multiset(synthetic):
    engine, scalar = _variants(synthetic)
    got = np.sort(observed_efficiencies(engine, sample_customers=60, seed=2))
    want = np.sort(observed_efficiencies(scalar, sample_customers=60, seed=2))
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_per_vendor_calibration_identical(synthetic):
    engine, scalar = _variants(synthetic)
    got = calibrate_per_vendor(engine, sample_customers=60, seed=2)
    want = calibrate_per_vendor(scalar, sample_customers=60, seed=2)
    assert set(got) == set(want)
    for vendor_id, bounds in want.items():
        assert got[vendor_id].gamma_min == pytest.approx(
            bounds.gamma_min, rel=1e-9
        )
        assert got[vendor_id].g == pytest.approx(bounds.g, rel=1e-9)


# ----------------------------------------------------------------------
# RANDOM's edge loop and RECON's columnar kernel against the paths they
# replace: the same instances in the same order, bit for bit.
# ----------------------------------------------------------------------
def _crowded(dtype, budget=(10.0, 30.0)):
    """A market where capacities and budgets bind (RECON reconciles,
    RANDOM falls back to cheaper types)."""
    return synthetic_problem(
        WorkloadConfig(
            n_customers=160,
            n_vendors=24,
            seed=23,
            radius_range=ParameterRange(0.15, 0.3),
            budget_range=ParameterRange(*budget),
            capacity_range=ParameterRange(1, 2),
        ),
        dtype=dtype,
    )


def _exact(assignment):
    return assignment.instances(), assignment.total_utility


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("saturate", [True, False])
def test_random_edge_loop_matches_pair_loop(dtype, saturate):
    from repro.algorithms.random_baseline import RandomAssignment

    problem = _crowded(dtype, budget=(3.0, 9.0))
    problem.warm_utilities()
    solver = RandomAssignment(seed=5, saturate=saturate)
    columnar = solver.solve(problem)
    assert problem.engine.edges_built  # the edge loop ran
    assert _exact(columnar) == _exact(solver._solve_pairs(problem))
    assert len(columnar) > 0


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("order", Reconciliation.VIOLATION_ORDERS)
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("shards", [1, 4])
def test_recon_kernel_matches_item_path(dtype, order, jobs, shards):
    from repro.parallel import HAVE_SHARED_MEMORY, ParallelConfig

    if jobs > 1 and not HAVE_SHARED_MEMORY:
        pytest.skip("platform lacks multiprocessing.shared_memory")
    # A real pool even on 1-CPU boxes (deliberate oversubscription).
    parallel = ParallelConfig(jobs=jobs, clamp_jobs=False)
    kernel = Reconciliation(
        seed=3, violation_order=order, parallel=parallel, shards=shards
    )
    # "lp-simplex" rounds with solve_greedy on the vendor's MCKPItems:
    # the item path the kernel replaces.
    items = Reconciliation(
        mckp_method="lp-simplex", seed=3, violation_order=order,
        shards=shards,
    )
    got = kernel.solve(_crowded(dtype))
    want = items.solve(_crowded(dtype))
    assert _exact(got) == _exact(want)
    assert kernel.last_stats == items.last_stats
    assert kernel.last_stats["violated_customers"] > 0


# ----------------------------------------------------------------------
# RECON's refund queues (line 11) and the sharded solve built on them.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_refund_queue_matches_pair_instance_queue(dtype):
    """The edge-slice queue equals the one built from
    ``valid_customer_ids`` + ``pair_instances``: the same AdInstances
    in the same order, for every vendor."""
    from repro.algorithms.recon import _refund_queue

    problem = _crowded(dtype)
    problem.warm_utilities()
    assert problem.engine is not None
    for vendor in problem.vendors:
        want = [
            inst
            for cid in problem.valid_customer_ids(vendor)
            for inst in problem.pair_instances(cid, vendor.vendor_id)
            if inst.utility > 0
        ]
        want.sort(key=lambda inst: -inst.efficiency)
        assert _refund_queue(problem, vendor.vendor_id) == want


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_shard_edge_slices_give_the_unsharded_refund_queues(dtype):
    from repro.algorithms.recon import _refund_queue
    from repro.sharding import ShardPlan

    problem = _crowded(dtype)
    plan = ShardPlan.build(problem, shards=4)
    assert plan.n_shards > 1
    solver = Reconciliation(seed=3)
    slices = {}
    for shard in range(plan.n_shards):
        slices.update(solver._solve_shard(plan, shard)[1])
        assert plan.resident_shards == []
    assert slices
    problem.warm_utilities()
    for vendor_id, edge_slice in slices.items():
        assert _refund_queue(problem, vendor_id, edge_slice) == (
            _refund_queue(problem, vendor_id)
        )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("order", Reconciliation.VIOLATION_ORDERS)
@pytest.mark.parametrize("jobs", [1, 2])
def test_sharded_recon_commits_the_unsharded_instances(dtype, order, jobs):
    """Every vendor's candidates lie inside its shard and its refund
    queue comes from the shard engine's edge slice, so the sharded
    solve commits exactly the unsharded instances (merged in shard
    order instead of catalogue order)."""
    from repro.parallel import HAVE_SHARED_MEMORY, ParallelConfig

    if jobs > 1 and not HAVE_SHARED_MEMORY:
        pytest.skip("platform lacks multiprocessing.shared_memory")
    parallel = ParallelConfig(jobs=jobs, clamp_jobs=False)
    unsharded = Reconciliation(seed=3, violation_order=order)
    sharded = Reconciliation(
        seed=3, violation_order=order, parallel=parallel, shards=4
    )
    want = unsharded.solve(_crowded(dtype))
    got = sharded.solve(_crowded(dtype))

    def pair(inst):
        return inst.pair

    assert sorted(got.instances(), key=pair) == sorted(
        want.instances(), key=pair
    )
    assert sharded.last_stats == unsharded.last_stats
    assert unsharded.last_stats["replacement_ads"] > 0
