"""The MUAA problem instance (Definition 5).

:class:`MUAAProblem` bundles customers, vendors, the ad-type catalogue
and a utility model, and provides the derived quantities every
algorithm needs: valid-pair range queries (via the spatial grid index),
per-instance utilities and budget efficiencies, and fresh
constraint-tracking assignment sets.

Utility evaluation has two implementations behind one interface: the
scalar :class:`~repro.utility.model.UtilityModel` reference path, and
the columnar :class:`~repro.engine.ComputeEngine` that scores the whole
candidate-edge table in vectorized passes.  Batch entry points
(:meth:`MUAAProblem.warm_utilities`,
:meth:`MUAAProblem.candidate_instances`) build the engine on demand via
:meth:`MUAAProblem.acquire_engine`; point lookups
(:meth:`MUAAProblem.pair_instances`,
:meth:`MUAAProblem.best_instance_for_pair`) use it only once built, so
purely online access patterns keep their scalar latency profile.
"""

from __future__ import annotations

from dataclasses import replace as _entity_replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.churn import KIND_DEACTIVATE, KIND_INSERT, KIND_RETIRE, ChurnEvent, ChurnState
from repro.core.assignment import AdInstance, Assignment
from repro.core.entities import AdType, Customer, Vendor, distance
from repro.exceptions import InvalidProblemError
from repro.spatial.grid_index import GridIndex
from repro.spatial.queries import (
    build_customer_index,
    build_vendor_index,
    valid_customers,
    valid_vendors,
)
from repro.utility.model import UtilityModel


class MUAAProblem:
    """A maximum-utility ad assignment instance.

    Args:
        customers: The spatial customers :math:`U_\\varphi`.
        vendors: The spatial vendors :math:`V_\\varphi`.
        ad_types: The ad-type catalogue :math:`T`.
        utility_model: Evaluator for Eq. 4 utilities.
        pair_validator: Optional override of the range constraint: a
            predicate on ``(customer, vendor)`` replacing the geometric
            :math:`d(u_i, v_j) \\le r_j` check.  Used when validity is
            given by external data (e.g. the paper's worked example,
            whose distances come from a table rather than coordinates).
            When set, range queries fall back to exhaustive scans, so
            this is intended for small instances.
        use_engine: Allow the columnar compute engine for batch utility
            evaluation when the utility model has a vectorized kernel.
            Disable to force the scalar reference path everywhere
            (parity tests, fault-injection wrappers, baselines).
        parallel: Optional :class:`repro.parallel.ParallelConfig`.
            When set (and ``jobs > 1``), the compute engine scores
            large candidate-edge tables in chunked worker processes
            over shared memory; results are bitwise identical to the
            serial pass.  Serial (``None``) is the default.
        churn: Optional shared :class:`~repro.churn.ChurnState`.  Shard
            views pass their parent's state so a vendor deactivated
            anywhere (budget exhaustion is a global fact) is skipped by
            every view's candidate scans; omitted, the problem gets a
            private state.
        slot_map: Optional :class:`~repro.scenario.slots.SlotMap` when
            the vendor catalogue is slot-expanded (each base vendor
            split into per-slot vendors; see ``docs/scenarios.md``).
            Purely descriptive bookkeeping -- slot-vendors are ordinary
            vendors to every kernel and solver.
        dtype: Column-width policy for the compute engine -- ``None``
            or ``"float64"`` for the bitwise parity reference,
            ``"float32"`` for half-width columns (see
            ``docs/scale.md``), or a
            :class:`~repro.engine.dtypes.DtypePolicy`.

    Raises:
        InvalidProblemError: On duplicate ids or an empty catalogue.
    """

    def __init__(
        self,
        customers: Sequence[Customer],
        vendors: Sequence[Vendor],
        ad_types: Sequence[AdType],
        utility_model: UtilityModel,
        pair_validator: Optional[
            Callable[[Customer, Vendor], bool]
        ] = None,
        use_engine: bool = True,
        parallel=None,
        churn: Optional[ChurnState] = None,
        dtype=None,
        slot_map=None,
    ) -> None:
        if not ad_types:
            raise InvalidProblemError("a MUAA problem needs at least one ad type")
        self.customers: List[Customer] = list(customers)
        self.vendors: List[Vendor] = list(vendors)
        self.ad_types: List[AdType] = list(ad_types)
        self.utility_model = utility_model

        self.customers_by_id: Dict[int, Customer] = {
            c.customer_id: c for c in self.customers
        }
        #: Customer id -> position in :attr:`customers`, built by the
        #: first move (:meth:`_customer_row`).
        self._customer_rows: Optional[Dict[int, int]] = None
        self.vendors_by_id: Dict[int, Vendor] = {
            v.vendor_id: v for v in self.vendors
        }
        self.ad_types_by_id: Dict[int, AdType] = {
            t.type_id: t for t in self.ad_types
        }
        if len(self.customers_by_id) != len(self.customers):
            raise InvalidProblemError("duplicate customer ids")
        if len(self.vendors_by_id) != len(self.vendors):
            raise InvalidProblemError("duplicate vendor ids")
        if len(self.ad_types_by_id) != len(self.ad_types):
            raise InvalidProblemError("duplicate ad type ids")

        # Deferred import: validation.py imports this module for the
        # assignment checker, so the entity gate is bound at call time.
        from repro.core.validation import validate_problem_entities

        validate_problem_entities(self.customers, self.vendors)

        self.capacities: Dict[int, int] = {
            c.customer_id: c.capacity for c in self.customers
        }
        self.budgets: Dict[int, float] = {
            v.vendor_id: v.budget for v in self.vendors
        }
        self.max_radius: float = max((v.radius for v in self.vendors), default=0.0)
        #: Cheapest ad price; a vendor below this cannot afford any ad.
        self.min_cost: float = min(t.cost for t in self.ad_types)

        self._pair_validator = pair_validator
        self._customer_index = None
        self._vendor_index: Optional[GridIndex] = None
        self._use_engine = use_engine
        self._engine = None
        self._engine_miss = None
        self._engine_unsupported = False
        #: Fan-out configuration consulted by the compute engine for
        #: chunked kernel scoring (``None`` means strictly serial).
        self.parallel_config = parallel
        #: Churn bookkeeping (deactivated vendors, skip/epoch counters),
        #: shared with shard views of this problem.
        self.churn: ChurnState = churn if churn is not None else ChurnState()
        #: Slot-expansion bookkeeping (``None`` for single-slot problems).
        self.slot_map = slot_map
        #: Customers whose location changed after construction.  Their
        #: precomputed engine rows are stale, so point lookups fall back
        #: to the scalar spatial path for exactly these ids; empty (the
        #: static default) keeps every lookup on its original path.
        self._moved: Set[int] = set()
        #: First-seen locations of moved customers, for
        #: :meth:`reset_moves` (run-local trajectory rollback).
        self._original_locations: Dict[int, Tuple[float, float]] = {}
        #: Bumped once per applied customer move.  Streaming layers
        #: re-resolve a customer's candidate range when this advances
        #: (the trajectory-scenario analogue of the churn epoch).
        self.location_epoch: int = 0
        # Deferred import keeps repro.core free of a hard engine import
        # at module load; the policy is a tiny frozen descriptor.
        from repro.engine.dtypes import resolve_policy

        #: Column-width policy the compute engine builds with
        #: (``docs/scale.md``); ``float64`` is the parity reference.
        self.dtype_policy = resolve_policy(dtype)

    # ------------------------------------------------------------------
    # Columnar compute engine
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The built :class:`~repro.engine.ComputeEngine`, or ``None``.

        Point lookups consult this without triggering a build, so the
        engine only pays off after a batch entry point (or an explicit
        :meth:`acquire_engine`) has constructed it.
        """
        return self._engine

    def acquire_engine(self):
        """Build (once) and return the compute engine, or ``None``.

        Returns ``None`` when the engine is disabled for this problem
        or the utility model has no vectorized kernel; callers fall
        back to the scalar reference path.
        """
        if (
            self._engine is None
            and self._use_engine
            and not self._engine_unsupported
        ):
            from repro.engine import ComputeEngine
            from repro.engine.engine import MISS
            from repro.store.cache import active_cache

            cache = active_cache()
            engine = cache.fetch(self) if cache is not None else None
            if engine is None:
                engine = ComputeEngine.create(self)
                if engine is not None and cache is not None:
                    cache.store(self, engine)
            if engine is None:
                self._engine_unsupported = True
            else:
                self._engine = engine
                self._engine_miss = MISS
        return self._engine

    def adopt_engine(self, engine) -> None:
        """Install a pre-built compute engine for this problem.

        Shard worker processes reconstruct their engine from columns
        shipped over shared memory
        (:meth:`repro.engine.ComputeEngine.from_prescored`) instead of
        re-scoring locally; this hands the result to the problem so
        every point lookup rides it.  The engine must have been built
        against this problem's entities.
        """
        from repro.engine.engine import MISS

        self._engine = engine
        self._engine_miss = MISS
        self._engine_unsupported = False

    def drop_engine(self) -> None:
        """Discard the built compute engine (if any).

        The next batch entry point rebuilds from scratch -- the cold
        path churn's incremental splices are parity-tested against.
        """
        self._engine = None
        self._engine_miss = None
        self._engine_unsupported = False

    def has_moved(self, customer_id: int) -> bool:
        """Whether ``customer_id`` has moved in this run: the one gate
        of every engine lookup (here, in O-AFA and in the serve batch
        scorer), since its engine rows were scored at an old location.
        """
        return customer_id in self._moved

    def _engine_base(
        self, customer_id: int, vendor_id: int
    ) -> Optional[float]:
        """The pair base from the built engine, or ``None`` (engine not
        built, the customer has moved since the table was scored, or
        the pair is not a range-valid candidate)."""
        if self._engine is None or self.has_moved(customer_id):
            return None
        return self._engine.pair_base(customer_id, vendor_id)

    # ------------------------------------------------------------------
    # Spatial queries (constraint 1 of Definition 5)
    # ------------------------------------------------------------------
    @property
    def pair_validator(self):
        """The custom pair validator, or ``None`` for the range check."""
        return self._pair_validator

    @property
    def customer_index(self):
        """Spatial index over customer locations (built lazily)."""
        if self._customer_index is None:
            cell = self.max_radius if self.max_radius > 0 else 1.0
            self._customer_index = build_customer_index(self.customers, cell)
        return self._customer_index

    def grid_cell_size(self) -> float:
        """Cell size the grid customer index uses (or would use).

        Matches :attr:`customer_index` exactly -- including the
        degenerate-radius floor -- but without building the index, so
        the vectorized edge enumeration can size its grid for a
        million customers without a per-point insertion pass.
        """
        if self._customer_index is not None:
            return self._customer_index.cell_size
        cell = self.max_radius if self.max_radius > 0 else 1.0
        return max(cell, 1e-6)

    @property
    def vendor_index(self) -> GridIndex:
        """Grid index over vendor locations (built lazily)."""
        if self._vendor_index is None:
            self._vendor_index = build_vendor_index(self.vendors)
        return self._vendor_index

    def valid_customer_ids(self, vendor: Vendor) -> List[int]:
        """Customers inside ``vendor``'s advertising radius."""
        if self._pair_validator is not None:
            return [
                c.customer_id for c in self.customers
                if self._pair_validator(c, vendor)
            ]
        return valid_customers(vendor, self.customer_index)

    def valid_vendor_ids(self, customer: Customer) -> List[int]:
        """Vendors whose advertising area contains ``customer``.

        With a built compute engine this reads the precomputed
        candidate-edge adjacency (same set as the spatial query, in
        vendor catalogue order) instead of re-running the range query
        per call.  Vendors deactivated in the shared
        :class:`~repro.churn.ChurnState` (exhausted budgets, explicit
        ``deactivate`` events) are filtered out, and each skip is
        counted in ``churn.skips``.
        """
        if (
            self._engine is not None
            and self._engine.edges_built
            and not self.has_moved(customer.customer_id)
        ):
            vendors = self._engine.vendors_in_range(customer.customer_id)
            if vendors is not None:
                return self._filter_inactive(list(vendors))
        if self._pair_validator is not None:
            return self._filter_inactive([
                v.vendor_id for v in self.vendors
                if self._pair_validator(customer, v)
            ])
        return self._filter_inactive(valid_vendors(
            customer, self.vendors_by_id, self.vendor_index, self.max_radius
        ))

    def _filter_inactive(self, vendor_ids: List[int]) -> List[int]:
        """Drop deactivated vendors from a candidate scan, counting the
        skips (surfaced in ``ResilienceStats`` and obs)."""
        inactive = self.churn.inactive
        if not inactive:
            return vendor_ids
        active = [vid for vid in vendor_ids if vid not in inactive]
        skipped = len(vendor_ids) - len(active)
        if skipped:
            self.churn.skips += skipped
        return active

    def is_valid_pair(self, customer: Customer, vendor: Vendor) -> bool:
        """Range check :math:`d(u_i, v_j) \\le r_j` (or the custom
        validator when one was supplied)."""
        if self._pair_validator is not None:
            return self._pair_validator(customer, vendor)
        return distance(customer, vendor) <= vendor.radius

    # ------------------------------------------------------------------
    # Utilities and candidate enumeration
    # ------------------------------------------------------------------
    def utility(self, customer_id: int, vendor_id: int, type_id: int) -> float:
        """Utility :math:`\\lambda_{ijk}` by entity ids."""
        base = self._engine_base(customer_id, vendor_id)
        if base is not None:
            return base * self.ad_types_by_id[type_id].effectiveness
        return self.utility_model.utility(
            self.customers_by_id[customer_id],
            self.vendors_by_id[vendor_id],
            self.ad_types_by_id[type_id],
        )

    def efficiency(self, customer_id: int, vendor_id: int, type_id: int) -> float:
        """Budget efficiency :math:`\\gamma_{ijk}` by entity ids."""
        ad_type = self.ad_types_by_id[type_id]
        return self.utility(customer_id, vendor_id, type_id) / ad_type.cost

    def make_instance(
        self, customer_id: int, vendor_id: int, type_id: int
    ) -> AdInstance:
        """Build an :class:`AdInstance` with its evaluated utility/cost."""
        ad_type = self.ad_types_by_id[type_id]
        return AdInstance(
            customer_id=customer_id,
            vendor_id=vendor_id,
            type_id=type_id,
            utility=self.utility(customer_id, vendor_id, type_id),
            cost=ad_type.cost,
        )

    def pair_instances(self, customer_id: int, vendor_id: int) -> List[AdInstance]:
        """All ad-type choices for one valid pair, utility pre-evaluated."""
        base = self._engine_base(customer_id, vendor_id)
        if base is not None:
            return self._engine.pair_instances(customer_id, vendor_id, base)
        customer = self.customers_by_id[customer_id]
        vendor = self.vendors_by_id[vendor_id]
        if self.utility_model.type_sensitive:
            return [
                AdInstance(
                    customer_id=customer_id,
                    vendor_id=vendor_id,
                    type_id=t.type_id,
                    utility=self.utility_model.utility(customer, vendor, t),
                    cost=t.cost,
                )
                for t in self.ad_types
            ]
        base = self.utility_model.pair_base(customer, vendor)
        return [
            AdInstance(
                customer_id=customer_id,
                vendor_id=vendor_id,
                type_id=t.type_id,
                utility=base * t.effectiveness,
                cost=t.cost,
            )
            for t in self.ad_types
        ]

    def best_instance_for_pair(
        self,
        customer_id: int,
        vendor_id: int,
        by: str = "efficiency",
        max_cost: Optional[float] = None,
    ) -> Optional[AdInstance]:
        """The "best" ad type for a pair (line 4 of Algorithm 2).

        Args:
            customer_id: The customer.
            vendor_id: The vendor.
            by: ``"efficiency"`` ranks by :math:`\\gamma_{ijk}` (the
                O-AFA criterion); ``"utility"`` ranks by
                :math:`\\lambda_{ijk}`.
            max_cost: When given, only ad types affordable within this
                remaining budget are considered.

        Returns:
            The best instance, or ``None`` when no type is affordable.
        """
        if self._engine is not None and not self.has_moved(customer_id):
            hit = self._engine.best_for_pair(
                customer_id, vendor_id, by=by, max_cost=max_cost
            )
            if hit is not self._engine_miss:
                return hit
        choices = self.pair_instances(customer_id, vendor_id)
        if max_cost is not None:
            choices = [c for c in choices if c.cost <= max_cost + 1e-9]
        if not choices:
            return None
        if by == "efficiency":
            return max(choices, key=lambda inst: inst.efficiency)
        if by == "utility":
            return max(choices, key=lambda inst: inst.utility)
        raise ValueError(f"unknown ranking criterion {by!r}")

    def candidate_instances(self) -> Iterator[AdInstance]:
        """Every valid ad instance :math:`\\langle u_i, v_j, \\tau_k \\rangle`.

        Enumerates range-valid pairs through the vendor-side index, so
        the cost is proportional to the number of valid pairs rather
        than :math:`m \\cdot n`.  A batch entry point: builds the
        compute engine when the utility model supports it, scoring the
        whole candidate-edge table in vectorized passes.
        """
        engine = self.acquire_engine()
        if engine is not None:
            bases = engine.pair_bases
            arrays = engine.arrays
            for pos, (customer_id, vendor_id) in enumerate(
                engine.edges.iter_pairs(arrays)
            ):
                yield from engine.pair_instances(
                    customer_id, vendor_id, float(bases[pos])
                )
            return
        for vendor in self.vendors:
            for customer_id in self.valid_customer_ids(vendor):
                yield from self.pair_instances(customer_id, vendor.vendor_id)

    def valid_pairs(self) -> Iterator[Tuple[int, int]]:
        """Every range-valid ``(customer_id, vendor_id)`` pair.

        Reuses the engine's edge table when one has already been built
        (the table enumerates pairs in exactly this vendor-major order);
        otherwise runs the range queries directly.
        """
        engine = self._engine
        if engine is not None and engine.edges_built:
            yield from engine.edges.iter_pairs(engine.arrays)
            return
        for vendor in self.vendors:
            for customer_id in self.valid_customer_ids(vendor):
                yield (customer_id, vendor.vendor_id)

    def warm_utilities(self) -> int:
        """Evaluate (and cache) the pair base of every valid pair.

        Utility evaluation (Eqs. 4-5) is shared preprocessing for all
        algorithms; warming it up front makes algorithm timings compare
        assignment work rather than who touched a pair first.  A batch
        entry point: with a vectorized utility model this builds the
        compute engine and scores every candidate edge in one pass per
        time bucket.

        Returns:
            The number of valid pairs evaluated.
        """
        engine = self.acquire_engine()
        if engine is not None:
            return engine.warm()
        count = 0
        for customer_id, vendor_id in self.valid_pairs():
            self.utility_model.pair_base(
                self.customers_by_id[customer_id],
                self.vendors_by_id[vendor_id],
            )
            count += 1
        return count

    # ------------------------------------------------------------------
    # Assignments
    # ------------------------------------------------------------------
    def new_assignment(self) -> Assignment:
        """A fresh assignment tracking this problem's capacities/budgets."""
        return Assignment(capacities=self.capacities, budgets=self.budgets)

    # ------------------------------------------------------------------
    # Churn (live vendor joins/leaves; see docs/incremental.md)
    # ------------------------------------------------------------------
    def insert_vendor(
        self, vendor: Vendor, position: Optional[int] = None
    ) -> bool:
        """Add a joining vendor at catalogue ``position`` (default:
        end), threading the delta into a built compute engine.

        The customer spatial index is left untouched (its cell size is
        frozen at construction; range queries stay exact for any
        radius), so a cold engine rebuild on this same problem object
        reproduces the delta result bit for bit.  Idempotent.
        """
        if vendor.vendor_id in self.vendors_by_id:
            return False
        if position is None:
            position = len(self.vendors)
        self.vendors.insert(position, vendor)
        self.vendors_by_id[vendor.vendor_id] = vendor
        # ``budgets`` is shared by reference with live assignments, so
        # the join is immediately spendable mid-episode.
        self.budgets[vendor.vendor_id] = vendor.budget
        self.max_radius = max(self.max_radius, vendor.radius)
        self._vendor_index = None
        if self._engine is not None:
            self._engine.insert_vendor(vendor, row=position)
        return True

    def retire_vendor(self, vendor_id: int) -> bool:
        """Remove a leaving vendor from the catalogue and a built
        engine.  The ``budgets`` entry is kept -- live assignments still
        account spend against it.  Idempotent."""
        vendor = self.vendors_by_id.pop(vendor_id, None)
        if vendor is None:
            return False
        self.vendors.remove(vendor)
        self.churn.inactive.discard(vendor_id)
        self.churn.auto.discard(vendor_id)
        self._vendor_index = None
        if self._engine is not None:
            self._engine.retire_vendor(vendor_id)
        return True

    def admit_customers(self, customers: Sequence[Customer]) -> int:
        """Add new customers (shard views admit replicas during a cell
        migration).  The spatial index is invalidated for lazy rebuild;
        ``capacities`` is shared by reference with live assignments, so
        the admits are immediately servable.  Idempotent per id."""
        fresh = [
            c for c in customers if c.customer_id not in self.customers_by_id
        ]
        if not fresh:
            return 0
        for customer in fresh:
            if self._customer_rows is not None:
                self._customer_rows[customer.customer_id] = len(
                    self.customers
                )
            self.customers.append(customer)
            self.customers_by_id[customer.customer_id] = customer
            self.capacities[customer.customer_id] = customer.capacity
        self._customer_index = None
        if self._engine is not None:
            self._engine.admit_customers(fresh)
        return len(fresh)

    def move_customer(
        self, customer_id: int, new_location: Tuple[float, float]
    ) -> bool:
        """Relocate a customer mid-episode (trajectory scenarios).

        The frozen entity is replaced, the customer spatial index is
        invalidated for lazy rebuild, and the id joins the moved set so
        every engine-backed lookup for this customer falls back to the
        scalar spatial path -- the precomputed candidate rows were
        scored at the old location and are stale.  Each applied move
        bumps :attr:`location_epoch`, the signal streaming layers use
        to re-resolve the customer's candidate range.  Unknown ids and
        no-op moves return ``False``.
        """
        current = self.customers_by_id.get(customer_id)
        if current is None:
            return False
        location = (float(new_location[0]), float(new_location[1]))
        if location == tuple(current.location):
            return False
        moved = _entity_replace(current, location=location)
        self._original_locations.setdefault(
            customer_id, tuple(current.location)
        )
        self.customers[self._customer_row(customer_id)] = moved
        self.customers_by_id[customer_id] = moved
        self._customer_index = None
        self._moved.add(customer_id)
        self.location_epoch += 1
        return True

    def _customer_row(self, customer_id: int) -> int:
        """Position of a customer in :attr:`customers` (moves replace
        the entity there)."""
        if self._customer_rows is None:
            self._customer_rows = {
                c.customer_id: row for row, c in enumerate(self.customers)
            }
        return self._customer_rows[customer_id]

    @property
    def moved_customer_ids(self) -> frozenset:
        """Ids of customers relocated since construction (read-only)."""
        return frozenset(self._moved)

    def reset_moves(self) -> int:
        """Roll back every customer move, returning how many customers
        were restored.

        The trajectory analogue of :meth:`reset_auto_deactivations`:
        a move schedule is run-local (applied mid-stream against one
        assignment), so the stream restores first-seen locations at the
        end of the run to keep the problem object reusable -- the next
        panel member sees the same workload.  Clearing the moved set
        also puts the restored customers back on the engine path (their
        precomputed rows were scored at exactly these locations).
        """
        count = len(self._original_locations)
        if not count:
            return 0
        self._restore_locations(self._original_locations)
        self._original_locations.clear()
        self._moved.clear()
        return count

    def _restore_locations(
        self, originals: Dict[int, Tuple[float, float]]
    ) -> None:
        """Put held customers back at their ``originals`` locations,
        dropping an engine that scored one of them elsewhere."""
        engine = self._engine
        stale = False
        for customer_id, location in originals.items():
            current = self.customers_by_id.get(customer_id)
            if current is None:
                continue
            restored = _entity_replace(current, location=location)
            self.customers[self._customer_row(customer_id)] = restored
            self.customers_by_id[customer_id] = restored
            self._customer_index = None
            if engine is not None and not stale:
                stale = engine.scored_elsewhere(customer_id, location)
        if stale:
            self.drop_engine()

    def deactivate_vendors(
        self, vendor_ids: Sequence[int], auto: bool = False
    ) -> int:
        """Mark vendors inactive so candidate scans skip them.

        Explicit deactivations (``auto=False``, e.g. a ``deactivate``
        churn event) also splice the vendors' candidate segments out of
        a built engine.  Automatic ones (budget exhaustion detected
        mid-run) stay set-only -- cheap, and rolled back by
        :meth:`reset_auto_deactivations` so the problem object is
        reusable across runs.  Returns the number newly deactivated.
        """
        fresh = [
            vid for vid in vendor_ids
            if vid in self.vendors_by_id and vid not in self.churn.inactive
        ]
        for vid in fresh:
            self.churn.inactive.add(vid)
            if auto:
                self.churn.auto.add(vid)
        self.churn.deactivations += len(fresh)
        if fresh and not auto and self._engine is not None:
            self._engine.deactivate_exhausted(fresh)
        return len(fresh)

    def reactivate_vendors(self, vendor_ids: Sequence[int]) -> int:
        """Undo deactivations (segments are rebuilt bit-identically)."""
        count = 0
        for vid in vendor_ids:
            if vid in self.churn.inactive:
                self.churn.inactive.discard(vid)
                self.churn.auto.discard(vid)
                count += 1
                if self._engine is not None:
                    self._engine.restore_vendor(vid)
        return count

    def note_if_exhausted(self, assignment: Assignment, vendor_id: int) -> bool:
        """Auto-deactivate a vendor whose remaining budget can no
        longer afford the cheapest ad type.

        Called by the stream/broker loops after each commit.  Such a
        vendor always yields ``best=None`` on every later scan, so
        skipping it is provably decision-neutral -- the skip only saves
        the scoring work.  Returns whether the vendor was deactivated.
        """
        if (
            vendor_id in self.churn.inactive
            or vendor_id not in self.vendors_by_id
        ):
            return False
        try:
            remaining = assignment.remaining_budget(vendor_id)
        except KeyError:
            return False
        if remaining + 1e-9 >= self.min_cost:
            return False
        self.churn.inactive.add(vendor_id)
        self.churn.auto.add(vendor_id)
        self.churn.deactivations += 1
        return True

    def reset_auto_deactivations(self) -> int:
        """Roll back every automatic (budget-exhaustion) deactivation,
        returning how many were active.  Run at the end of a stream or
        broker episode so the problem object stays reusable."""
        auto = self.churn.auto
        count = len(auto)
        if count:
            self.churn.inactive.difference_update(auto)
            auto.clear()
        return count

    def apply_churn(self, event: ChurnEvent) -> int:
        """Apply one churn event directly to this (un-sharded) problem
        and bump the epoch.  ``migrate`` events are shard-level --
        route those through ``ShardPlan.apply_churn``."""
        if event.kind == KIND_INSERT:
            self.insert_vendor(event.vendor)
        elif event.kind == KIND_RETIRE:
            self.retire_vendor(event.vendor_id)
        elif event.kind == KIND_DEACTIVATE:
            self.deactivate_vendors([event.vendor_id])
        else:
            raise ValueError(
                f"{event.kind!r} events require a ShardPlan to apply"
            )
        self.churn.epoch += 1
        return self.churn.epoch

    def theta(self) -> float:
        """The bound factor :math:`\\theta = \\min_i a_i / n_i^c` of
        Theorems III.1/IV.1, where :math:`n_i^c` is the larger of the
        number of valid vendors of :math:`u_i` and the capacity
        :math:`a_i`."""
        theta = 1.0
        for customer in self.customers:
            n_valid = len(self.valid_vendor_ids(customer))
            n_c = max(n_valid, customer.capacity)
            if n_c > 0 and customer.capacity > 0:
                theta = min(theta, customer.capacity / n_c)
        return theta
