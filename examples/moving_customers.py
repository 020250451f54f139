#!/usr/bin/env python3
"""Moving customers: O-AFA over a stream whose customers relocate.

Section II defines MUAA over the customer set *at a timestamp*; real
customers move (AdCell, arXiv:1112.5396).  The trajectory scenario
draws seeded random-walk moves keyed by arrival tick, and the online
simulator applies each one through ``MUAAProblem.move_customer`` just
before that customer is decided, so candidate ranges follow the walk.
This example streams the same day at growing move rates and compares
the served utility with the static stream.

Run:
    python examples/moving_customers.py
"""

from __future__ import annotations

from repro import (
    OnlineAdaptiveFactorAware,
    WorkloadConfig,
    calibrate_from_problem,
    synthetic_problem,
)
from repro.datagen.config import ParameterRange
from repro.scenario import TrajectoryScenario
from repro.stream import OnlineSimulator


def main() -> None:
    problem = synthetic_problem(
        WorkloadConfig(
            n_customers=2_000,
            n_vendors=100,
            radius_range=ParameterRange(0.03, 0.06),
            budget_range=ParameterRange(8.0, 15.0),
            seed=5,
        )
    )
    bounds = calibrate_from_problem(problem, seed=0)
    simulator = OnlineSimulator(problem)

    def stream(moves=None):
        algorithm = OnlineAdaptiveFactorAware(
            gamma_min=bounds.gamma_min, g=bounds.g
        )
        return simulator.run(algorithm, measure_latency=False, moves=moves)

    static = stream()
    print("O-AFA over 2,000 arrivals, customers walking mid-stream:")
    print("  move rate  moves   ads   utility  vs static")
    print(f"  {'static':>9} {0:6d} {len(static.assignment):5d} "
          f"{static.total_utility:9.2f}")
    for fraction in (0.1, 0.25, 0.5, 1.0):
        run = TrajectoryScenario(move_fraction=fraction).realize(problem, seed=5)
        result = stream(run.moves)
        ratio = result.total_utility / static.total_utility
        print(f"  {fraction:9.2f} {len(run.moves):6d} "
              f"{len(result.assignment):5d} {result.total_utility:9.2f}"
              f"  {ratio:8.3f}")


if __name__ == "__main__":
    main()
