"""Latency/utility trade-off of micro-batched assignment (S24).

Sweeps the batch size from 1 (instant decisions) to the whole stream
(offline RECON) on the default synthetic workload, against O-AFA as the
instant-decision reference.
"""

from __future__ import annotations

import pytest

from repro.algorithms.batched import BatchedReconciliation
from repro.algorithms.calibration import calibrate_from_problem
from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.core.validation import validate_assignment
from repro.stream.simulator import OnlineSimulator

BATCH_SIZES = (1, 8, 64, 512)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batched(benchmark, default_synth_problem, batch_size):
    problem = default_synth_problem
    result = benchmark.pedantic(
        OnlineSimulator(problem).run,
        args=(BatchedReconciliation(batch_size=batch_size, seed=0),),
        rounds=1,
        iterations=1,
    )
    assert validate_assignment(problem, result.assignment).ok
    benchmark.extra_info["total_utility"] = result.total_utility
    print(f"[batched] batch={batch_size:4d} "
          f"utility={result.total_utility:.3f} ads={len(result.assignment)}")


def test_oafa_reference(benchmark, default_synth_problem):
    problem = default_synth_problem
    bounds = calibrate_from_problem(problem, seed=0)
    result = benchmark.pedantic(
        lambda: OnlineSimulator(problem).run(
            OnlineAdaptiveFactorAware(
                gamma_min=bounds.gamma_min, g=bounds.g
            )
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["total_utility"] = result.total_utility
    print(f"[batched] O-AFA    utility={result.total_utility:.3f} "
          f"ads={len(result.assignment)}")
