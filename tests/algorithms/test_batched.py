"""Tests for the micro-batched online algorithm."""

from __future__ import annotations

import pytest

from repro.algorithms.batched import BatchedReconciliation
from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.algorithms.recon import Reconciliation
from repro.core.validation import validate_assignment
from repro.datagen.tabular import random_tabular_problem
from repro.stream.simulator import OnlineAsOffline, OnlineSimulator


@pytest.fixture
def problem():
    return random_tabular_problem(
        seed=5, n_customers=25, n_vendors=5, budget=(5.0, 10.0)
    )


def test_batch_size_validation():
    with pytest.raises(ValueError):
        BatchedReconciliation(batch_size=0)


def _run(problem, algorithm):
    return OnlineSimulator(problem).run(algorithm)


def test_output_feasible(problem):
    result = _run(problem, BatchedReconciliation(batch_size=8))
    assert validate_assignment(problem, result.assignment).ok
    assert result.rejected_instances == 0


def test_tail_batch_is_flushed(problem):
    # 25 customers with batch 8 leaves one customer buffered; the
    # simulator must flush it before the run closes.
    algorithm = BatchedReconciliation(batch_size=8)
    result = _run(problem, algorithm)
    assert algorithm.flush_pending(problem, result.assignment) == []
    # The offline adapter drives the same simulator, tail included.
    adapted = OnlineAsOffline(BatchedReconciliation(batch_size=8))
    assert adapted.solve(problem).instances() == (
        result.assignment.instances()
    )


def test_batch_one_still_works(problem):
    result = _run(problem, BatchedReconciliation(batch_size=1))
    assert validate_assignment(problem, result.assignment).ok
    assert len(result.assignment) > 0


def test_whole_stream_as_one_batch_matches_recon(problem):
    """With the batch spanning the full stream, the algorithm is RECON."""
    result = _run(
        problem,
        BatchedReconciliation(batch_size=len(problem.customers), seed=0),
    )
    offline = Reconciliation(seed=0).solve(problem)
    assert result.total_utility == pytest.approx(
        offline.total_utility, rel=1e-6
    )


def test_larger_batches_do_not_hurt_much(problem):
    """Batching trades latency for utility: the full-stream batch
    should be at least as good as tiny batches (up to noise)."""
    small = _run(problem, BatchedReconciliation(batch_size=2, seed=0))
    full = _run(
        problem,
        BatchedReconciliation(batch_size=len(problem.customers), seed=0),
    )
    assert full.total_utility >= small.total_utility * 0.8


def test_batched_vs_oafa(problem):
    """A batch of 8 usually beats instant per-customer O-AFA decisions."""
    from repro.algorithms.calibration import calibrate_from_problem

    bounds = calibrate_from_problem(problem)
    oafa = OnlineSimulator(problem).run(
        OnlineAdaptiveFactorAware(gamma_min=bounds.gamma_min, g=bounds.g)
    )
    batched = _run(problem, BatchedReconciliation(batch_size=8))
    assert batched.total_utility >= oafa.total_utility * 0.7
