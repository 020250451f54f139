"""The cluster episode driver: boot, stream, recover, report.

:func:`run_episode` is the one entry point: it partitions the problem
with a :class:`~repro.sharding.ShardPlan`, calibrates the O-AFA
threshold once on the global instance (workers and the router's replica
tier share the exact parameters, so decisions are comparable across
paths), pre-scores each shard's engine and ships its columns over
shared memory, boots one worker per shard, and then drives the arrival
stream tick by tick: chaos events fire first, due restarts are tended
(with replay), heartbeats probe on their interval, and the customer is
routed and decided.

Under zero faults the produced assignment is *decision-identical* to
the in-process sharded :class:`~repro.stream.simulator.OnlineSimulator`
run with the same plan and threshold -- the parity gate in
``benchmarks/bench_cluster.py`` holds this to 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.calibration import calibrate_from_problem
from repro.cluster.chaos import ChaosController, ChaosPlan
from repro.cluster.control import ControlPlane
from repro.cluster.router import DEFAULT_LADDER, ClusterRouter, ClusterStats
from repro.cluster.transport import InlineShardHost, ProcessShardHost
from repro.cluster.worker import engine_columns
from repro.core.assignment import Assignment
from repro.core.entities import Customer
from repro.obs.recorder import recorder
from repro.parallel.shm import HAVE_SHARED_MEMORY, ship_columns
from repro.sharding import ShardPlan
from repro.stream.arrivals import by_arrival_time

#: Supported transports.
TRANSPORTS = ("inline", "process")


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of one cluster episode.

    Attributes:
        shards: Shard count when no explicit plan is supplied.
        transport: ``"process"`` forks one worker per shard;
            ``"inline"`` runs the identical servers in-process
            (deterministic -- what tests and gates use).
        use_shm: Ship pre-scored engine columns through shared memory.
            Default: on for the process transport when the platform has
            shared memory, off inline (workers then score locally).
        heartbeat_interval: Control-plane probe period in ticks.
        suspect_after: Consecutive heartbeat misses before SUSPECT.
        down_after: Misses before DOWN (schedules a restart).
        restart_delay: Ticks from DOWN to the restart attempt.
        max_restarts: Restart attempts before giving a shard up.
        breaker_recovery: Breaker open -> half-open cool-down (ticks).
        retry_attempts: Router retries after a corrupted reply.
        ladder: Degradation tiers, best first.
        calibration_seed: Seed for threshold calibration sampling.
        sample_customers: Calibration sample size.
        request_timeout: Per-request reply deadline (process transport).
        artifact_dir: Optional :mod:`repro.store` directory
          (``plan.json`` + ``shard-NNNN.cols``).  Shards whose artifact
          file exists boot from it (mapped read-only) instead of
          scoring locally or shipping shm columns.
    """

    shards: int = 4
    transport: str = "inline"
    use_shm: Optional[bool] = None
    heartbeat_interval: int = 8
    suspect_after: int = 1
    down_after: int = 2
    restart_delay: int = 2
    max_restarts: int = 3
    breaker_recovery: float = 4.0
    retry_attempts: int = 2
    ladder: Tuple[str, ...] = DEFAULT_LADDER
    calibration_seed: int = 0
    sample_customers: Optional[int] = 500
    request_timeout: float = 30.0
    artifact_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, "
                f"got {self.transport!r}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")

    def resolved_use_shm(self) -> bool:
        if self.use_shm is not None:
            return self.use_shm and HAVE_SHARED_MEMORY
        return self.transport == "process" and HAVE_SHARED_MEMORY


@dataclass
class ClusterResult:
    """Outcome of one cluster episode."""

    assignment: Assignment
    stats: ClusterStats
    n_shards: int
    transport: str
    gamma_min: float
    g: float

    @property
    def total_utility(self) -> float:
        return self.assignment.total_utility

    @property
    def p99_decision_seconds(self) -> float:
        """p99 of the full per-arrival router path (RPC included)."""
        latencies = self.stats.router_latencies
        if not latencies:
            return 0.0
        return float(np.quantile(np.array(latencies), 0.99))

    def card(self) -> str:
        """A printable episode summary."""
        stats = self.stats
        paths = ", ".join(
            f"{path}={stats.decisions_by_path[path]}"
            for path in sorted(stats.decisions_by_path)
        )
        health = ", ".join(
            f"{shard}:{state}"
            for shard, state in sorted(stats.shard_health.items())
        )
        lines = [
            f"cluster: {self.n_shards} shard(s), "
            f"{self.transport} transport",
            f"decisions: {stats.decisions} ({paths})",
            f"utility: {self.total_utility:.4f} over "
            f"{len(self.assignment)} instances",
            f"faults: {sum(stats.faults_injected.values())} injected, "
            f"{stats.corrupt_replies} corrupted replies, "
            f"{stats.retries} retries",
            f"recovery: {stats.restarts} restart(s), "
            f"{stats.replayed_instances} instances replayed, "
            f"{stats.heartbeats_missed}/{stats.heartbeats} "
            f"heartbeats missed",
            f"breakers: {stats.breaker_opens} open transition(s)",
            f"health: {health}",
            f"router p99: {self.p99_decision_seconds * 1e3:.3f}ms",
        ]
        if stats.churn_events or stats.churn_epoch:
            lines.insert(
                5,
                f"churn: {stats.churn_events} event(s), "
                f"epoch {stats.churn_epoch}",
            )
        return "\n".join(lines)


def run_episode(
    problem,
    config: Optional[ClusterConfig] = None,
    chaos: Optional[ChaosPlan] = None,
    arrivals: Optional[Sequence[Customer]] = None,
    shard_plan: Optional[ShardPlan] = None,
    churn=None,
) -> ClusterResult:
    """Serve one arrival stream through the process-per-shard cluster.

    Args:
        problem: The MUAA instance.
        config: Episode knobs (defaults: 4 shards, inline transport).
        chaos: Optional seeded fault plan; ``None`` runs fault-free.
        arrivals: Arrival order (arrival-time order by default).
        shard_plan: Pre-built plan to reuse (wins over
            ``config.shards``).
        churn: Optional :class:`~repro.churn.ChurnSchedule`.  Events at
            arrival index ``t`` are applied through the plan and their
            per-shard deltas shipped to the workers *before* customer
            ``t`` is decided; the final epoch lands in the episode
            stats.
    """
    config = config or ClusterConfig()
    plan = shard_plan or ShardPlan.build(problem, config.shards)
    rec = recorder()
    bounds = calibrate_from_problem(
        problem,
        sample_customers=config.sample_customers,
        seed=config.calibration_seed,
    )
    gamma_min, g = bounds.gamma_min, bounds.g
    use_shm = config.resolved_use_shm()
    host_cls = (
        ProcessShardHost
        if config.transport == "process"
        else InlineShardHost
    )
    hosts: Dict[int, object] = {}
    shipments = []
    with rec.span(
        "cluster.boot",
        shards=plan.n_shards,
        transport=config.transport,
        shm=use_shm,
    ):
        for shard in range(plan.n_shards):
            view = plan.problem_for(shard)
            handle = None
            artifact_path = None
            if config.artifact_dir is not None:
                from repro.store import shard_artifact_name

                candidate = (
                    Path(config.artifact_dir) / shard_artifact_name(shard)
                )
                if candidate.exists():
                    artifact_path = str(candidate)
            if use_shm and artifact_path is None:
                engine = view.acquire_engine()
                if engine is not None:
                    engine.warm()
                    shipment = ship_columns(engine_columns(engine))
                    shipments.append(shipment)
                    handle = shipment.handle
            kwargs = {"obs": rec.enabled}
            if config.transport == "process":
                kwargs["timeout"] = config.request_timeout
            hosts[shard] = host_cls(
                shard,
                view,
                handle,
                gamma_min,
                g,
                artifact_path=artifact_path,
                **kwargs,
            )
    control = ControlPlane(
        hosts,
        heartbeat_interval=config.heartbeat_interval,
        suspect_after=config.suspect_after,
        down_after=config.down_after,
        restart_delay=config.restart_delay,
        max_restarts=config.max_restarts,
        breaker_recovery=config.breaker_recovery,
        epoch_of=lambda: plan.epoch,
    )
    chaosctl = ChaosController(chaos or ChaosPlan.none())
    router = ClusterRouter(
        problem,
        plan,
        hosts,
        control,
        chaosctl,
        gamma_min,
        g,
        retry_attempts=config.retry_attempts,
        ladder=config.ladder,
    )
    if arrivals is None:
        arrivals = by_arrival_time(problem.customers)
    router.timeline.churn = churn
    try:
        with router.timeline:
            for tick, customer in enumerate(arrivals):
                control.begin_tick(tick)
                for event in chaosctl.activate(tick):
                    hosts[event.shard].kill()
                    chaosctl.note("kill")
                    rec.event(
                        "cluster.chaos_kill", shard=event.shard, tick=tick
                    )
                control.tend(tick, chaosctl, router.replay)
                if control.heartbeat_due(tick):
                    control.heartbeat_round(tick, chaosctl)
                router.decide(customer, tick)
    finally:
        for host in hosts.values():
            host.close()
        for shipment in shipments:
            shipment.close()
    stats = router.finalize()
    return ClusterResult(
        assignment=router.assignment,
        stats=stats,
        n_shards=plan.n_shards,
        transport=config.transport,
        gamma_min=gamma_min,
        g=g,
    )
