"""Extended panel: every algorithm in the library on one instance.

Beyond the paper's panel, this compares the extension algorithms --
LP-ROUND (full-LP rounding), BATCH-RECON (micro-batched hybrid), and
the literal GREEDY re-scan -- against RECON/GREEDY/O-AFA and the
combined upper bound, on a medium tabular instance where everything
(including the LP) is tractable.
"""

from __future__ import annotations

import pytest

from repro.algorithms.batched import BatchedReconciliation
from repro.algorithms.bounds import combined_bound
from repro.algorithms.calibration import calibrate_from_problem
from repro.algorithms.greedy import GreedyEfficiency
from repro.algorithms.lp_rounding import LPRounding
from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.algorithms.recon import Reconciliation
from repro.core.validation import validate_assignment
from repro.datagen.tabular import random_tabular_problem
from repro.stream.simulator import OnlineSimulator


@pytest.fixture(scope="module")
def medium_problem():
    return random_tabular_problem(
        seed=17, n_customers=150, n_vendors=8, budget=(5.0, 10.0),
        coverage=0.3,
    )


def _run(name, problem):
    if name == "GREEDY":
        return GreedyEfficiency().solve(problem)
    if name == "GREEDY-RESCAN":
        return GreedyEfficiency(rescan=True).solve(problem)
    if name == "RECON":
        return Reconciliation(seed=0).solve(problem)
    if name == "LP-ROUND":
        return LPRounding().solve(problem)
    if name == "BATCH-RECON":
        return OnlineSimulator(problem).run(
            BatchedReconciliation(batch_size=16, seed=0)
        ).assignment
    if name == "ONLINE":
        bounds = calibrate_from_problem(problem, seed=0)
        return OnlineSimulator(problem).run(
            OnlineAdaptiveFactorAware(
                gamma_min=bounds.gamma_min, g=bounds.g
            )
        ).assignment
    raise ValueError(name)


ALGORITHMS = (
    "GREEDY",
    "GREEDY-RESCAN",
    "RECON",
    "LP-ROUND",
    "BATCH-RECON",
    "ONLINE",
)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_extended_panel(benchmark, medium_problem, name):
    problem = medium_problem
    assignment = benchmark.pedantic(
        _run, args=(name, problem), rounds=1, iterations=1
    )
    assert validate_assignment(problem, assignment).ok
    bound = combined_bound(problem)
    gap = assignment.total_utility / bound
    benchmark.extra_info["total_utility"] = assignment.total_utility
    benchmark.extra_info["certified_gap"] = gap
    print(f"[extended] {name:13s} utility={assignment.total_utility:9.3f} "
          f"certified>={gap:6.1%}")
