"""The three benchmark workloads.

Each workload makes its inputs from the seed, then runs iterations.  An
iteration is one cold set-up (datagen until the first decision can be
made) followed by one pass of the workload's work; it returns the
measured values of that iteration and the output checks that failed.
Timings are read on the iteration's :class:`pace.PacedClock` (CPU time
at a reference core speed) around calls into each layer's public
functions; the stream's per-decision latencies and the serve replay's
batch costs are read on the same clock.  The spans of :mod:`tracing`
are recorded only when a traced run installed a recorder.
"""

from __future__ import annotations

import math
import re
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

import repro.store as store
import repro.store.artifact as artifact
from repro.algorithms import (
    GreedyEfficiency,
    NearestVendor,
    OnlineAdaptiveFactorAware,
    RandomAssignment,
    Reconciliation,
    calibrate_from_problem,
    estimate_gamma_bounds,
    observed_efficiencies,
)
from repro.churn import KIND_RETIRE, seeded_vendor_churn
from repro.core.validation import validate_assignment
from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.engine.pruning import vendor_lp_bound_columnar
from repro.engine.sharded import ShardedEngine
from repro.scenario.trajectory import TrajectoryScenario
from repro.serve import ReplayDriver, ServeConfig, build_schedule
from repro.serve.request import SERVED
from repro.sharding import ShardPlan
from repro.stream.simulator import OnlineAsOffline, OnlineSimulator

from tracing import span

#: Measured values and failed checks of one iteration.
Iteration = Tuple[Dict[str, float], List[str]]


def _market(params: dict, seed: int):
    config = WorkloadConfig(
        n_customers=params["customers"],
        n_vendors=params["vendors"],
        radius_range=ParameterRange(*params["radius"]),
        budget_range=ParameterRange(*params["budget"]),
        seed=seed,
    )
    with span("datagen.synthetic_problem"):
        return synthetic_problem(config)


def _build_engine(problem):
    with span("engine.build") as out:
        engine = problem.acquire_engine()
        out["edges"] = len(engine.edges)
        engine.pair_bases
    return engine


def _validate(problem, assignment):
    with span("core.validate_assignment"):
        return validate_assignment(problem, assignment)


def _utility(assignment) -> float:
    """Committed utility, summed exactly so that it does not depend on
    the order the instances were committed in (batched serving commits
    in a different order than the sequential stream)."""
    return math.fsum(i.utility for i in assignment)


def _lp_bound(engines) -> float:
    """Summed per-vendor LP upper bound on the utility of the market
    (each vendor lives in exactly one engine).  Normalising by it keeps
    the quality metric comparable across seeds."""
    return sum(
        vendor_lp_bound_columnar(e.arrays, e.edges, e.pair_bases)
        for e in engines
    )


def _stream_stats(result, arrivals: int) -> dict:
    """What a traced run records about one ``OnlineSimulator.run``."""
    latencies = np.asarray(result.latencies)
    served = len({i.customer_id for i in result.assignment})
    return {
        "decisions": len(latencies),
        "decision_p50_us": float(np.quantile(latencies, 0.5)) * 1e6,
        "decision_p99_us": float(np.quantile(latencies, 0.99)) * 1e6,
        "commits": len(result.assignment),
        "rejected": result.rejected_instances,
        "served_share": served / arrivals,
        "deactivated": result.vendors_deactivated,
    }


# ----------------------------------------------------------------------
# offline-plan: the paper's Section V panel on a cold 20K x 1000 build
# ----------------------------------------------------------------------
OFFLINE = {
    "customers": 20_000,
    "vendors": 1000,
    "radius": (0.03, 0.06),
    "budget": (5.0, 10.0),
    "solvers": ["RANDOM", "NEAREST", "GREEDY", "RECON"],
    "markets": 6,
}


def _solvers(seed: int):
    return [
        ("RANDOM", RandomAssignment(seed=seed)),
        ("NEAREST", OnlineAsOffline(NearestVendor())),
        ("GREEDY", GreedyEfficiency()),
        ("RECON", Reconciliation(seed=seed)),
    ]


def offline_plan(seed: int, workdir: Path, clock) -> Iteration:
    start = clock()
    problem = _market(OFFLINE, seed)
    _build_engine(problem)
    problem.warm_utilities()
    values = {"setup_s": clock() - start}

    failures: List[str] = []
    plans = {}
    for name, solver in _solvers(seed):
        with span(f"algorithms.{name}.run") as out:
            began = clock()
            result = solver.run(problem)
            values[f"{name.lower()}_s"] = clock() - began
            out["instances"] = len(result.assignment)
        plans[name] = result
    for name, result in plans.items():
        report = _validate(problem, result.assignment)
        if not report.ok:
            failures.append(
                f"{name}: {len(report.violations)} violations, first "
                f"{report.violations[0]!r}"
            )
    solve = [values[f"{name.lower()}_s"] for name in OFFLINE["solvers"]]
    values["offline_s"] = sum(solve)
    values["customers_per_s"] = OFFLINE["customers"] / values["offline_s"]
    values["plan_ms"] = float(np.median(solve)) * 1e3
    values["recon_ms"] = values["recon_s"] * 1e3
    values["utility"] = _utility(plans["RECON"].assignment)
    values["utility_share"] = values["utility"] / _lp_bound([problem.engine])
    values["attempted"] = len(plans)
    values["failed"] = 0
    values["failed_share"] = 0.0
    values["success_share"] = 1.0
    return values, failures


# ----------------------------------------------------------------------
# stream-live: O-AFA closed loop with churn and customer moves
# ----------------------------------------------------------------------
STREAM = {
    "customers": 20_000,
    "vendors": 1000,
    "radius": (0.05, 0.1),
    "budget": (10.0, 20.0),
    "churn_events": 20,
    "move_fraction": 0.01,
    "markets": 6,
}

#: The violations a location move can cause: the checker judges a
#: moved customer's pair at the customer's original location.
_MOVED = re.compile(
    r"pair \((\d+), \d+\): (?:customer outside vendor radius"
    r"|recorded utility .* != model utility .*)$"
)
#: The violation a retirement causes: a retired vendor is gone from the
#: market the checker reads, so ads committed to it before it retired
#: read as committed to an unknown vendor.
_RETIRED = re.compile(r"unknown vendor (\d+)$")


def _explained(violation: str, moved: set, retired: set) -> bool:
    """Whether a violation is one a location move causes for a moved
    customer, or one a retirement causes for a retired vendor -- the two
    ways a churned, moving stream legitimately differs from the static
    market the checker validates against.  Any other kind of violation
    (duplicate pair, cost, capacity, budget) is never explained."""
    pair = _MOVED.match(violation)
    if pair is not None:
        return int(pair.group(1)) in moved
    vendor = _RETIRED.match(violation)
    if vendor is not None:
        return int(vendor.group(1)) in retired
    return False


def stream_live(seed: int, workdir: Path, clock) -> Iteration:
    path = workdir / "stream-engine.cols"
    start = clock()
    problem = _market(STREAM, seed)
    engine = _build_engine(problem)
    artifact.save_engine(engine, path)
    problem.drop_engine()
    problem.adopt_engine(store.load_engine(path, problem))
    problem.warm_utilities()
    with span("algorithms.calibrate"):
        bounds = calibrate_from_problem(problem, seed=seed)
    values = {"setup_s": clock() - start}

    bound = _lp_bound([problem.engine])
    arrivals = len(problem.customers)
    churn = seeded_vendor_churn(
        problem, STREAM["churn_events"], seed, arrivals
    )
    moves = TrajectoryScenario(STREAM["move_fraction"]).realize(
        problem, seed
    ).moves
    algorithm = OnlineAdaptiveFactorAware(
        gamma_min=bounds.gamma_min, g=bounds.g
    )
    with span("stream.OnlineSimulator.run") as out:
        began = clock()
        result = OnlineSimulator(problem, clock=clock).run(
            algorithm, churn=churn, moves=moves
        )
        elapsed = clock() - began
        out.update(_stream_stats(result, arrivals))
    latencies = np.asarray(result.latencies)
    values.update(
        arrivals_per_s=arrivals / elapsed,
        decision_p50_ms=float(np.quantile(latencies, 0.5)) * 1e3,
        decision_p99_ms=float(np.quantile(latencies, 0.99)) * 1e3,
        utility=_utility(result.assignment),
        utility_share=_utility(result.assignment) / bound,
        attempted=len(result.assignment) + result.rejected_instances,
        failed=result.rejected_instances,
    )
    values["failed_share"] = values["failed"] / values["attempted"]
    values["success_share"] = 1.0 - values["failed_share"]

    moved = {m.customer_id for m in moves.moves}
    retired = {e.vendor_id for e in churn.events if e.kind == KIND_RETIRE}
    report = _validate(problem, result.assignment)
    unexplained = [
        v for v in report.violations if not _explained(v, moved, retired)
    ]
    failures = [
        f"stream: {len(unexplained)} violations involve neither a moved "
        f"customer nor a retired vendor, first {unexplained[0]!r}"
    ] if unexplained else []
    path.unlink()
    return values, failures


# ----------------------------------------------------------------------
# serve-burst: bursty open loop through ReplayDriver on a sharded store
# ----------------------------------------------------------------------
SERVE = {
    "customers": 50_000,
    "vendors": 1000,
    "radius": (0.05, 0.1),
    "budget": (10.0, 20.0),
    "shards": 4,
    "prune": "exact",
    "max_batch": 64,
    "arrival_process": "bursty",
    "nominal_rps": 2000.0,
    "ladder_rps": [4000.0, 8000.0, 16000.0],
    "ladder_arrivals": 10_000,
    "overload_rps": 40_000.0,
    "p99_limit_ms": 25.0,
    "calibration_sample": 500,
    "markets": 3,
}


def _replay(problem, plan, sharded, bounds, schedule, point: str, clock):
    algorithm = OnlineAdaptiveFactorAware(
        gamma_min=bounds.gamma_min, g=bounds.g
    )
    driver = ReplayDriver(
        problem,
        algorithm,
        ServeConfig(max_batch=SERVE["max_batch"]),
        shard_plan=plan,
        sharded_engine=sharded,
        cost_clock=clock,
    )
    with span("serve.ReplayDriver.run", point=point) as out:
        result = driver.run(schedule)
        stats = result.stats
        out.update(
            shed=stats.shed, expired=stats.expired,
            rate_limited=stats.rate_limited, served=stats.served,
        )
    return driver, result


def _decisions(assignment) -> list:
    """The full float identity of a decision set."""
    return sorted(
        (i.customer_id, i.vendor_id, i.type_id, i.utility, i.cost)
        for i in assignment
    )


def _p99_ms(result) -> float:
    return float(np.quantile(result.stats.latencies, 0.99)) * 1e3


def _refused(result) -> int:
    stats = result.stats
    return stats.shed + stats.expired + stats.rate_limited


def serve_burst(seed: int, workdir: Path, clock) -> Iteration:
    directory = workdir / "serve-store"
    start = clock()
    problem = _market(SERVE, seed)
    with span("sharding.ShardPlan.build") as out:
        plan = ShardPlan.build(problem, SERVE["shards"])
        counts = plan.edge_counts()
        out["edge_skew"] = max(counts) / (sum(counts) / len(counts))
    with span("store.save_sharded"):
        store.save_sharded(plan, directory, prune=SERVE["prune"])
    sharded = ShardedEngine.create(plan)
    sharded.attach_store(directory)
    with span("engine.ShardedEngine.warm_all") as out:
        sharded.warm_all()
        out["shards_paged"] = len(sharded.loads_by_shard)
    with span("algorithms.calibrate"):
        sample: List[float] = []
        for shard in range(plan.n_shards):
            sample += observed_efficiencies(
                plan.problem_for(shard), SERVE["calibration_sample"], seed
            )
        bounds = estimate_gamma_bounds(sample)
    values = {"setup_s": clock() - start}

    bound = _lp_bound(sharded.engine(s) for s in range(plan.n_shards))
    process = SERVE["arrival_process"]
    nominal = build_schedule(
        problem.customers, SERVE["nominal_rps"], process, seed
    )
    driver, result = _replay(
        problem, plan, sharded, bounds, nominal, "nominal", clock
    )
    latencies = np.asarray(result.stats.latencies)
    values.update(
        serve_p50_ms=float(np.quantile(latencies, 0.5)) * 1e3,
        serve_p99_ms=_p99_ms(result),
        utility=_utility(driver.scorer.assignment),
        # A refused request is an answer the serving layer chose, not a
        # failed operation: whether a collection pause lands in a batch
        # depends on timing, so the count differs between runs of the
        # same code.  Refusals lower success_share instead.  A request
        # fails when its decision breaks the parity check below, which
        # fails the run.
        attempted=result.stats.submitted,
        failed=0,
        refused=_refused(result),
        failed_share=_refused(result) / result.stats.submitted,
    )
    values["success_share"] = 1.0 - values["failed_share"]
    values["utility_share"] = values["utility"] / bound

    failures: List[str] = []
    report = _validate(problem, driver.scorer.assignment)
    if not report.ok:
        failures.append(
            f"serve: {len(report.violations)} violations, first "
            f"{report.violations[0]!r}"
        )
    if _refused(result):
        print(
            f"warning: serve-burst seed {seed}: {_refused(result)} of "
            f"{result.stats.submitted} requests refused at the nominal "
            f"{SERVE['nominal_rps']:g} req/s (shed {result.stats.shed}, "
            f"expired {result.stats.expired}, rate-limited "
            f"{result.stats.rate_limited}); the parity check covers the "
            f"served ones",
            file=sys.stderr,
        )
    # Batched scoring promises the sequential stream's decisions over
    # the requests it scored, at any batch split: refused requests are
    # never scored, so the stream replays only the served ones.
    served = []
    for arrival, decision in zip(nominal, result.decisions):
        if decision.customer_id != arrival.customer.customer_id:
            failures.append("serve: decisions are not in schedule order")
            break
        if decision.status == SERVED:
            served.append(arrival.customer)
    algorithm = OnlineAdaptiveFactorAware(
        gamma_min=bounds.gamma_min, g=bounds.g
    )
    with span("stream.OnlineSimulator.run", point="parity") as out:
        sequential = OnlineSimulator(problem).run(
            algorithm, arrivals=served, shard_plan=plan
        )
        out.update(_stream_stats(sequential, len(served)))
    expected = _utility(sequential.assignment)
    if (_decisions(driver.scorer.assignment)
            != _decisions(sequential.assignment)
            or values["utility"] != expected):
        failures.append(
            f"serve: the nominal-rate decisions (utility "
            f"{values['utility']!r}) differ from the sequential sharded "
            f"stream's over the same served arrivals (utility "
            f"{expected!r})"
        )

    # The nominal rate is the ladder's first rung; the higher rungs
    # replay a prefix of the same arrivals.  Every rung runs, so that
    # an iteration does the same work whatever the rungs below did.
    prefix = [a.customer for a in nominal[: SERVE["ladder_arrivals"]]]
    passed = [not _refused(result)
              and _p99_ms(result) <= SERVE["p99_limit_ms"]]
    for rate in SERVE["ladder_rps"]:
        schedule = build_schedule(prefix, rate, process, seed)
        _, point = _replay(
            problem, plan, sharded, bounds, schedule, f"ladder-{rate:g}",
            clock,
        )
        passed.append(not _refused(point)
                      and _p99_ms(point) <= SERVE["p99_limit_ms"])
    rates = [SERVE["nominal_rps"]] + SERVE["ladder_rps"]
    max_rps = 0.0
    for rate, ok in zip(rates, passed):
        if not ok:
            break
        max_rps = rate
    values["serve_max_rps"] = max_rps

    overload = build_schedule(
        problem.customers, SERVE["overload_rps"], process, seed
    )
    _, flood = _replay(
        problem, plan, sharded, bounds, overload, "overload", clock
    )
    values["serve_capacity_rps"] = flood.achieved_rps
    shutil.rmtree(directory)
    return values, failures


@dataclass(frozen=True)
class Workload:
    """One workload: its iteration, its parameters, what its run report
    prints and what each ``BENCHMARK.json`` end-to-end metric measures
    on it.

    Attributes:
        iterate: ``(seed, workdir, clock) -> (values, failed checks)``,
            timed on ``clock``, a running :class:`pace.PacedClock`.
        params: The workload parameters (stamped into results);
            ``markets`` is how many markets a run takes turns over,
            about as many iterations as fit in a 30-second run.
        report: ``(name, unit, better, samples per iteration)`` of each
            end-to-end metric the run report prints by its own name;
            the value is the iteration's value of that name.
        end_to_end: ``BENCHMARK.json`` metric -> (iteration value name,
            what the metric measures on this workload).  This is the one
            place the mapping is kept; the run report prints it.
    """

    iterate: Callable[[int, Path, object], Iteration]
    params: dict
    report: Tuple[Tuple[str, str, str, str], ...]
    end_to_end: Dict[str, Tuple[str, str]]


_QUALITY = (
    ("utility", "utility", "higher", ""),
    ("utility_share", "share", "higher", ""),
    ("failed_share", "share", "lower", ""),
    ("success_share", "share", "higher", ""),
)

#: ``peak_rss_mb`` is the process high-water mark on every workload.
WORKLOADS = {
    "offline-plan": Workload(
        offline_plan, OFFLINE,
        (("setup_s", "s", "lower", ""),
         ("offline_s", "s", "lower", ""),
         ("recon_s", "s", "lower", "")) + _QUALITY,
        {"setup_s": ("setup_s", "datagen + engine build + warm"),
         "utility_share": (
             "utility_share", "RECON's utility / summed vendor LP bound"),
         "success_share": ("success_share", "valid plans / plans"),
         "rate_per_s": (
             "customers_per_s",
             "customers / offline_s (RANDOM + NEAREST + GREEDY + RECON)"),
         "latency_ms": (
             "plan_ms", "median of the four solvers' plan times"),
         "tail_ms": ("recon_ms", "recon_s, the slowest plan")},
    ),
    "stream-live": Workload(
        stream_live, STREAM,
        (("setup_s", "s", "lower", ""),
         ("arrivals_per_s", "1/s", "higher", ""),
         ("decision_p50_ms", "ms", "lower", "20000 decisions"),
         ("decision_p99_ms", "ms", "lower", "20000 decisions")) + _QUALITY,
        {"setup_s": (
            "setup_s",
            "datagen + build + save_engine + mmap load_engine + "
            "warm_utilities + calibration"),
         "utility_share": (
             "utility_share", "O-AFA's utility / summed vendor LP bound"),
         "success_share": (
             "success_share",
             "committed / proposed instances (1 - failed_share)"),
         "rate_per_s": (
             "arrivals_per_s",
             "arrivals / wall time of OnlineSimulator.run"),
         "latency_ms": ("decision_p50_ms", "decision p50"),
         "tail_ms": ("decision_p99_ms", "decision p99")},
    ),
    "serve-burst": Workload(
        serve_burst, SERVE,
        (("setup_s", "s", "lower", ""),
         ("serve_p50_ms", "ms", "lower", "50000 requests"),
         ("serve_p99_ms", "ms", "lower", "50000 requests"),
         ("serve_max_rps", "1/s", "higher", ""),
         ("serve_capacity_rps", "1/s", "higher", "")) + _QUALITY,
        {"setup_s": (
            "setup_s",
            "datagen + ShardPlan.build + save_sharded + attach_store + "
            "warm_all + calibration"),
         "utility_share": (
             "utility_share",
             "nominal-rate utility / summed vendor LP bound"),
         "success_share": (
             "success_share",
             "served / submitted requests at the nominal rate "
             "(1 - failed_share)"),
         "rate_per_s": (
             "serve_capacity_rps",
             "served per virtual second at the overload rate"),
         "latency_ms": ("serve_p50_ms", "request p50 at the nominal rate"),
         "tail_ms": ("serve_p99_ms", "request p99 at the nominal rate")},
    ),
}
