"""The RANDOM baseline of Section V-A.

Randomly assigns vendors' ads to valid customers under the budget (and
capacity) constraints: candidate pairs are visited in random order and
each is given a uniformly random ad type, kept only if still feasible.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.base import OfflineAlgorithm
from repro.core.assignment import AdInstance, Assignment
from repro.core.problem import MUAAProblem

#: Budget tolerance of ``Assignment.can_add``.
_EPS = 1e-9

#: Edges visited per chunk of the columnar loop: bounds the Python
#: lists it unpacks from the permuted edge columns.
_CHUNK = 8192


class RandomAssignment(OfflineAlgorithm):
    """Uniformly random feasible assignment.

    With a built compute engine the candidate pairs are the engine's
    edge rows and the loop runs on row-indexed counters; otherwise (and
    as the reference the columnar loop is tested against) it walks
    ``problem.valid_pairs()`` through ``Assignment``.  Both draw the
    same permutation and ad types from the seed and commit the same
    instances in the same order.

    Args:
        seed: RNG seed; runs are reproducible for a fixed seed.
        saturate: When true (default), keep sampling until no candidate
            remains feasible, matching the paper's description of
            spending budgets on random valid customers; when false, each
            pair is considered exactly once.
    """

    name = "RANDOM"

    def __init__(self, seed: Optional[int] = None, saturate: bool = True) -> None:
        self._seed = seed
        self._saturate = saturate

    def solve(self, problem: MUAAProblem) -> Assignment:
        engine = problem.engine
        if (
            engine is not None
            and engine.edges_built
            and not problem.moved_customer_ids
        ):
            return self._solve_edges(problem, engine)
        return self._solve_pairs(problem)

    def _solve_pairs(self, problem: MUAAProblem) -> Assignment:
        """The pair loop: ``make_instance`` + ``Assignment.add`` per pair."""
        rng = np.random.default_rng(self._seed)
        assignment = problem.new_assignment()
        pairs: List[tuple] = list(problem.valid_pairs())
        if not pairs:
            return assignment
        order = rng.permutation(len(pairs))
        type_ids = [t.type_id for t in problem.ad_types]
        type_draws = rng.integers(len(type_ids), size=len(pairs))

        for index in order:
            customer_id, vendor_id = pairs[index]
            type_id = type_ids[int(type_draws[index])]
            instance = problem.make_instance(customer_id, vendor_id, type_id)
            if not assignment.add(instance, strict=False) and self._saturate:
                # The random type may simply be unaffordable; try the
                # cheapest affordable type before giving up on the pair
                # (cheap pre-checks avoid re-evaluating hopeless pairs).
                if (
                    assignment.ads_for_customer(customer_id)
                    >= problem.capacities[customer_id]
                ):
                    continue
                remaining = assignment.remaining_budget(vendor_id)
                if remaining + 1e-9 < problem.min_cost:
                    continue
                fallback = problem.best_instance_for_pair(
                    customer_id, vendor_id, by="utility", max_cost=remaining
                )
                if fallback is not None:
                    assignment.add(fallback, strict=False)
        return assignment

    def _solve_edges(self, problem: MUAAProblem, engine) -> Assignment:
        """The pair loop over the engine's edge rows.

        Per-customer ad counts and per-vendor spend live in row-indexed
        lists and see the same checks and float additions as
        ``Assignment``; instances are built only for the commits.  A
        drawn type's utility is ``float(base) * effectiveness``, as
        ``make_instance`` computes it; the fallback's is the engine's
        utility-matrix cell, as ``best_for_pair`` reads it.
        """
        rng = np.random.default_rng(self._seed)
        assignment = problem.new_assignment()
        edges = engine.edges
        n_edges = len(edges)
        if not n_edges:
            return assignment
        ad_types = problem.ad_types
        order = rng.permutation(n_edges)
        type_draws = rng.integers(len(ad_types), size=n_edges)

        arrays = engine.arrays
        customer_ids = arrays.customer_ids.tolist()
        vendor_ids = arrays.vendor_ids.tolist()
        capacity = [problem.capacities.get(cid, 0) for cid in customer_ids]
        budget = [problem.budgets.get(vid, 0.0) for vid in vendor_ids]
        count = [0] * len(customer_ids)
        spend = [0.0] * len(vendor_ids)
        cost = [t.cost for t in ad_types]
        effectiveness = [t.effectiveness for t in ad_types]
        min_cost = problem.min_cost
        saturate = self._saturate
        bases = engine.pair_bases

        # (customer row, vendor row, type index, utility) per commit.
        commits: List[Tuple[int, int, int, float]] = []
        for lo in range(0, n_edges, _CHUNK):
            chunk = order[lo:lo + _CHUNK]
            for edge, c, v, k, base in zip(
                chunk.tolist(),
                edges.customer_idx[chunk].tolist(),
                edges.vendor_idx[chunk].tolist(),
                type_draws[chunk].tolist(),
                bases[chunk].tolist(),
            ):
                if count[c] >= capacity[c]:
                    continue
                if spend[v] + cost[k] <= budget[v] + _EPS:
                    utility = base * effectiveness[k]
                elif saturate:
                    remaining = budget[v] - spend[v]
                    if remaining + _EPS < min_cost:
                        continue
                    table = engine.best_type_table("utility", remaining)
                    if table is None:
                        continue
                    k = table[edge]
                    if spend[v] + cost[k] > budget[v] + _EPS:
                        continue
                    utility = float(engine.utilities()[edge, k])
                else:
                    continue
                count[c] += 1
                spend[v] += cost[k]
                commits.append((c, v, k, utility))

        for c, v, k, utility in commits:
            assignment.add(
                AdInstance(
                    customer_id=customer_ids[c],
                    vendor_id=vendor_ids[v],
                    type_id=ad_types[k].type_id,
                    utility=utility,
                    cost=cost[k],
                )
            )
        return assignment
