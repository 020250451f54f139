"""Micro-batching and batched decision scoring.

:class:`MicroBatcher` decides *when* to flush the request queue (batch
full, or the oldest queued request has waited ``max_wait`` seconds) and
:class:`BatchScorer` decides *what* each flushed batch gets: it routes
the batch's customers to their shards, answers every candidate lookup
of a shard group in **one engine kernel call**
(:meth:`~repro.engine.engine.ComputeEngine.batch_best` over the
batch's gathered edge positions), and then resolves intra-batch budget
contention sequentially in arrival order against the shared committed
assignment through the shared commit rule of
:class:`~repro.stream.timeline.Timeline`.

Exactness
---------

The scorer's decisions are *identical* to running the sequential
O-AFA loop (:class:`~repro.stream.simulator.OnlineSimulator`) over the
same arrivals in the same order:

* The vectorized phase snapshots per-vendor spend at flush time and
  evaluates every (request, candidate-vendor) pair against that
  snapshot.  Affordability, best-type selection, and threshold
  acceptance read the same precomputed matrices (and the same
  tolerances) as the scalar ``best_for_pair`` path, so any pair whose
  vendor state is untouched since the snapshot gets bit-for-bit the
  sequential decision.
* The sequential resolution phase walks requests in arrival order and
  re-scores exactly the candidates whose vendor was *dirtied* by an
  earlier in-batch commit (spend changed or vendor auto-deactivated)
  through the scalar lookup at the current state -- which is precisely
  what the sequential loop would have seen.
* Vendors are partitioned across shards, so shard groups touch
  disjoint budgets and their relative order cannot change any
  decision.

Requests whose customers route to different shards therefore batch
safely together, and a batch of size 1 is byte-identical to the
synchronous simulator (the parity suite pins this down).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.core.assignment import AdInstance, Assignment
from repro.engine.engine import MISS
from repro.obs.recorder import recorder
from repro.serve.request import AdRequest, ServeStats
from repro.stream.timeline import COMMITTED, Timeline

#: Threshold-acceptance tolerance, identical to the O-AFA loop.
_EPS = 1e-9

#: Batch-size histogram bounds (requests per flush, power-of-two-ish).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Flat-candidate marker for pairs outside the engine's edge table
#: (always resolved through the scalar fallback path).
_NO_EDGE = -1


class MicroBatcher:
    """Flush policy of the serving loop.

    Args:
        max_batch: Flush as soon as this many requests are queued.
        max_wait: Flush when the oldest queued request has waited this
            many seconds (clock units), even if the batch is not full.

    Raises:
        ValueError: On a non-positive ``max_batch`` or negative
            ``max_wait``.
    """

    def __init__(self, max_batch: int, max_wait: float) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.max_batch = max_batch
        self.max_wait = max_wait

    def due(self, queue, now: float) -> bool:
        """Whether the queue should flush at clock reading ``now``."""
        if len(queue) >= self.max_batch:
            return True
        oldest = queue.oldest_arrival()
        return oldest is not None and now >= oldest + self.max_wait

    def next_flush(self, queue) -> Optional[float]:
        """Clock reading of the next timer-driven flush, or ``None``
        when the queue is empty.  (A size-driven flush can always
        arrive earlier.)"""
        oldest = queue.oldest_arrival()
        if oldest is None:
            return None
        return oldest + self.max_wait


class BatchScorer:
    """Scores micro-batches with sequential-equivalent decisions.

    Args:
        problem: The full MUAA problem (budgets are authoritative
            here; commits always land on the global assignment).
        algorithm: The online algorithm.  The vectorized batch path
            requires an :class:`OnlineAdaptiveFactorAware` (its
            candidate/threshold structure is what the kernel
            reproduces); any other algorithm is scored sequentially
            per request, which is exact by construction.
        shard_plan: Optional :class:`~repro.sharding.ShardPlan`; each
            request is routed to one shard and decided against that
            shard's view only, exactly like the synchronous stream.
        sharded_engine: Optional
            :class:`~repro.engine.sharded.ShardedEngine` supplying
            per-shard engines -- with an attached artifact store,
            shards are demand-paged from ``mmap`` the first time a
            batch routes to them.
        assignment: The committed assignment; a fresh one by default.
        warm: Warm each (shard) engine's batch structures on first
            use, so per-batch latency excludes one-time builds.
    """

    def __init__(
        self,
        problem,
        algorithm,
        shard_plan=None,
        sharded_engine=None,
        assignment: Optional[Assignment] = None,
        warm: bool = True,
    ) -> None:
        self._problem = problem
        self._algorithm = algorithm
        plan = shard_plan
        if plan is not None and plan.is_identity:
            plan = None  # identity plan == the global problem itself
        self._plan = plan
        self._sharded = sharded_engine
        self.assignment = (
            assignment if assignment is not None else problem.new_assignment()
        )
        self._warm = warm
        self._warmed: set = set()
        self.stats = ServeStats()
        #: Arrivals, the commit rule and the end-of-run rollback; a
        #: replay driver sets its move schedule here.
        self.timeline = Timeline(problem, "serve", plan=shard_plan)

    # -- engine acquisition --------------------------------------------
    def _engine_for(self, shard: Optional[int], target):
        """The compute engine serving one shard group (or ``None``)."""
        if self._sharded is not None and shard is not None:
            engine = self._sharded.engine(shard)
        else:
            engine = target.acquire_engine()
        if engine is not None and self._warm and shard not in self._warmed:
            with recorder().span("serve.warm", shard=shard):
                engine.warm()
            self._warmed.add(shard)
        return engine

    def _target_for(self, shard: Optional[int]):
        if shard is None or self._plan is None:
            return self._problem
        return self._plan.problem_for(shard)

    # -- scoring -------------------------------------------------------
    def score(
        self, requests: Sequence[AdRequest]
    ) -> Dict[int, Tuple[Tuple[AdInstance, ...], Optional[int]]]:
        """Decide and commit one micro-batch.

        Returns:
            ``request_id -> (committed instances, shard)`` for every
            request in the batch.
        """
        results: Dict[int, Tuple[Tuple[AdInstance, ...], Optional[int]]] = {}
        if not requests:
            return results
        rec = recorder()
        for request in requests:
            # A queued request's customer has arrived, whichever path
            # submitted it.
            self.timeline.arrive(request.customer)
        self.stats.batches += 1
        self.stats.batch_sizes.append(len(requests))
        rec.observe(
            "serve.batch_size", float(len(requests)),
            buckets=BATCH_SIZE_BUCKETS,
        )
        if self._plan is None:
            with rec.span("serve.batch", size=len(requests)):
                self._score_group(None, self._problem, list(requests), results)
            return results
        # Route each request; vendors are partitioned across shards, so
        # group-at-a-time processing touches disjoint budgets and keeps
        # sequential-equivalence (see module docstring).
        groups: Dict[Optional[int], List[AdRequest]] = {}
        order: List[Optional[int]] = []
        for request in requests:
            shard = self._plan.route(request.customer)
            if shard not in groups:
                groups[shard] = []
                order.append(shard)
            groups[shard].append(request)
        with rec.span("serve.batch", size=len(requests), shards=len(order)):
            for shard in order:
                self._score_group(
                    shard, self._target_for(shard), groups[shard], results
                )
        return results

    def _score_group(
        self,
        shard: Optional[int],
        target,
        group: List[AdRequest],
        results: Dict[int, Tuple[Tuple[AdInstance, ...], Optional[int]]],
    ) -> None:
        engine = self._engine_for(shard, target)
        algorithm = self._algorithm
        if engine is None or not isinstance(
            algorithm, OnlineAdaptiveFactorAware
        ):
            # Reference path: exact by construction (scalar-only models,
            # or algorithms the kernel does not model).
            for request in group:
                picked = algorithm.process_customer(
                    target, request.customer, self.assignment
                )
                self._commit(request, picked, shard, results, set())
            return

        budgets = target.budgets
        spend = self.assignment.spend_for_vendor
        threshold = algorithm.threshold_function

        # Phase A -- snapshot gather.  Enumerate every (request,
        # candidate vendor) pair against the spend snapshot at flush
        # time, collect edge positions, and answer all best-type
        # lookups in ONE kernel call.
        flat_positions: List[int] = []
        flat_remaining: List[float] = []
        # Per request: [(vendor_id, flat index | _NO_EDGE, spent, budget)]
        per_request: List[List[Tuple[int, int, float, float]]] = []
        for request in group:
            cid = request.customer.customer_id
            # A moved customer's edge rows are stale: re-score scalar.
            moved = target.has_moved(cid)
            entries: List[Tuple[int, int, float, float]] = []
            for vid in target.valid_vendor_ids(request.customer):
                budget = budgets[vid]
                if budget <= 0:
                    continue
                spent = spend(vid)
                pos = None if moved else engine.edge_position(cid, vid)
                if pos is None:
                    entries.append((vid, _NO_EDGE, spent, budget))
                else:
                    entries.append(
                        (vid, len(flat_positions), spent, budget)
                    )
                    flat_positions.append(pos)
                    flat_remaining.append(budget - spent)
            per_request.append(entries)

        if flat_positions:
            with recorder().span(
                "serve.kernel", shard=shard, lookups=len(flat_positions)
            ):
                best_k, best_util, affordable = engine.batch_best(
                    flat_positions, flat_remaining
                )
            best_k = best_k.tolist()
            best_util = best_util.tolist()
            affordable = affordable.tolist()
        else:
            best_k, best_util, affordable = [], [], []

        # Phase B -- sequential contention resolution in arrival order.
        # A candidate is "dirty" once an earlier in-batch commit changed
        # its vendor's spend (or deactivated it); dirty candidates are
        # re-scored at the current state, clean ones keep their exact
        # snapshot answer.
        ad_types = target.ad_types
        inactive = target.churn.inactive
        touched: set = set()
        for request, entries in zip(group, per_request):
            cid = request.customer.customer_id
            potential: List[AdInstance] = []
            for vid, flat, snap_spent, budget in entries:
                if vid in inactive:
                    # The sequential loop's candidate scan would have
                    # skipped (and counted) this vendor.
                    target.churn.skips += 1
                    continue
                if flat == _NO_EDGE or vid in touched:
                    best = self._scalar_best(engine, target, cid, vid, budget)
                    if best is None:
                        continue
                    best_inst, delta = best
                    phi = threshold.threshold(delta, vid)
                    if best_inst.efficiency >= phi - _EPS:
                        potential.append(best_inst)
                    continue
                if not affordable[flat]:
                    continue
                utility = best_util[flat]
                if utility <= 0:
                    continue
                ad_type = ad_types[best_k[flat]]
                phi = threshold.threshold(snap_spent / budget, vid)
                if utility / ad_type.cost >= phi - _EPS:
                    potential.append(
                        AdInstance(
                            customer_id=cid,
                            vendor_id=vid,
                            type_id=ad_type.type_id,
                            utility=utility,
                            cost=ad_type.cost,
                        )
                    )
            if len(potential) > request.customer.capacity:
                potential.sort(key=lambda inst: -inst.efficiency)
                potential = potential[: request.customer.capacity]
            self._commit(request, potential, shard, results, touched)

    def _scalar_best(self, engine, target, cid: int, vid: int, budget: float):
        """Exact scalar re-score of one dirty candidate at the current
        committed state; returns ``(instance, used_budget_ratio)`` or
        ``None``.  Mirrors the O-AFA loop body line for line."""
        spent = self.assignment.spend_for_vendor(vid)
        remaining = budget - spent
        best = (
            MISS if target.has_moved(cid)
            else engine.best_for_pair(cid, vid, max_cost=remaining)
        )
        if best is MISS:
            best = target.best_instance_for_pair(
                cid, vid, by="efficiency", max_cost=remaining
            )
        if best is None or best.utility <= 0:
            return None
        return best, spent / budget

    # -- committing ----------------------------------------------------
    def _commit(
        self,
        request: AdRequest,
        picked: Sequence[AdInstance],
        shard: Optional[int],
        results: Dict[int, Tuple[Tuple[AdInstance, ...], Optional[int]]],
        touched: set,
    ) -> None:
        """Commit one request's decided instances through the
        timeline's commit rule (``note_if_exhausted`` runs on the
        *global* problem: budget exhaustion is a global fact)."""
        stats = self.stats
        timeline = self.timeline
        committed: List[AdInstance] = []
        for instance in picked:
            if timeline.commit(self.assignment, instance) == COMMITTED:
                committed.append(instance)
                touched.add(instance.vendor_id)
                stats.utility += instance.utility
        self._sync_counters()
        stats.served += 1
        results[request.request_id] = (tuple(committed), shard)

    def _sync_counters(self) -> None:
        """Copy the timeline's commit counters into :attr:`stats`."""
        stats = self.stats
        timeline = self.timeline
        stats.commits = timeline.budget_commits
        stats.rejected_instances = timeline.rejected_instances
        stats.duplicates_suppressed = timeline.duplicates_suppressed
        stats.vendors_deactivated = timeline.vendors_deactivated

    def finish(self) -> None:
        """End of episode: commit what a buffering algorithm still
        holds (:meth:`OnlineAlgorithm.flush_pending`, as the stream
        does after its last arrival), then :meth:`Timeline.close` rolls
        back automatic deactivations and moves so the problem object
        stays reusable."""
        try:
            for instance in self._algorithm.flush_pending(
                self._problem, self.assignment
            ):
                if (
                    self.timeline.commit(self.assignment, instance)
                    == COMMITTED
                ):
                    self.stats.utility += instance.utility
            self._sync_counters()
        finally:
            self.timeline.close()
