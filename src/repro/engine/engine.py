"""The columnar compute engine shared by every solver.

:class:`ComputeEngine` ties the pieces together: it owns the
:class:`~repro.engine.arrays.ProblemArrays` columns of one problem, the
:class:`~repro.engine.edges.CandidateEdges` table (built on demand from
the spatial index), and the vectorized Eq. 4/5 pair bases of every edge
(computed once, in one pass per time bucket).  On top of those it
offers the point lookups the online algorithms need -- pair base, best
ad type for a pair, per-pair instance lists -- at dictionary-lookup
cost, plus whole-table utility/efficiency matrices for the offline
solvers.

The scalar ``UtilityModel`` API remains the reference implementation;
the engine exists only for models with a vectorized kernel (see
:func:`repro.engine.kernels.pair_bases`) and reproduces their values to
float rounding.  Use :meth:`ComputeEngine.create` -- it returns ``None``
for unsupported models so callers can fall back to the scalar path.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.assignment import AdInstance
from repro.engine.arrays import ProblemArrays
from repro.engine.edges import (
    CandidateEdges,
    build_candidate_edges,
    clear_vendor_segment,
    fill_vendor_segment,
    insert_vendor_segment,
    remove_vendor_segment,
    vendor_segment,
)
from repro.engine.kernels import pair_bases as _kernel_pair_bases
from repro.obs.recorder import recorder
from repro.utility.model import TabularUtilityModel, TaxonomyUtilityModel

#: Cost-affordability tolerance, identical to the scalar
#: ``MUAAProblem.best_instance_for_pair`` filter.
_COST_EPS = 1e-9

#: Sentinel for "this pair is not a candidate edge" -- distinct from
#: ``None``, which means "no ad type is affordable".
MISS = object()


def supports_vectorization(model) -> bool:
    """Whether a utility model has a vectorized engine kernel.

    True exactly for the stock :class:`TaxonomyUtilityModel` and
    :class:`TabularUtilityModel` (not subclasses, not decorated models,
    not type-sensitive models) -- anything else keeps the scalar
    reference path.
    """
    return not model.type_sensitive and type(model) in (
        TaxonomyUtilityModel,
        TabularUtilityModel,
    )


def _shared_ints(ids: np.ndarray, rows: np.ndarray) -> List[int]:
    """``ids[rows].tolist()`` whose equal entries are one ``int`` object
    (one per id, not one per edge): the warmed lookup tables hold E of
    them."""
    objects = ids.tolist()
    return [objects[row] for row in rows.tolist()]


def _float_array(matrix: np.ndarray) -> array:
    """A matrix's values, row-major, as Python floats in one buffer
    (the same values ``matrix.tolist()`` holds)."""
    return array("d", matrix.astype(np.float64).ravel().tobytes())


class ComputeEngine:
    """Vectorized candidate-edge pipeline of one MUAA problem.

    Build via :meth:`create`; all heavy state (edge table, pair bases,
    lookup maps) is constructed lazily and cached, so an engine that is
    never used batch-wise costs only the columnar entity copy.
    """

    def __init__(self, problem, arrays: ProblemArrays) -> None:
        self._problem = problem
        self._arrays = arrays
        self._edges: Optional[CandidateEdges] = None
        self._bases: Optional[np.ndarray] = None
        # Two-level point index: (customer_id, vendor_id) -> offset
        # *within the vendor's segment*, plus vendor id -> absolute
        # segment start.  Deltas only touch the affected vendor's keys
        # plus the O(n) start map -- never the O(E) pair map.
        self._edge_pos: Optional[Dict[Tuple[int, int], int]] = None
        self._seg_start: Optional[Dict[int, int]] = None
        #: Vendors whose segments were spliced out by
        #: :meth:`deactivate_exhausted` (restorable).
        self._cleared: Set[int] = set()
        self._utilities: Optional[np.ndarray] = None
        # Point-lookup accelerators (plain Python containers; indexing
        # numpy scalars per online decision is measurably slower).  The
        # utility rows are one flat row-major ``array("d")`` (edge
        # ``pos``, type ``k`` at ``pos * K + k``): a list of lists would
        # add E*(K+1) small objects to every warmed engine.
        self._util_rows: Optional[array] = None
        self._n_types = len(arrays.type_cost)
        self._adjacency: Optional[Dict[int, List[int]]] = None
        # Affordability is a threshold on the K type costs, so the
        # affordable set is one of at most K+1 cost-sorted prefixes
        # ("levels"); level L covers the L cheapest types.
        by_cost = sorted((c, k) for k, c in enumerate(arrays.type_cost.tolist()))
        self._sorted_costs: List[float] = [c for c, _ in by_cost]
        self._level_cols: List[Tuple[int, ...]] = [
            tuple(sorted(k for _, k in by_cost[:level]))
            for level in range(len(by_cost) + 1)
        ]
        self._level_tables: Dict[str, List[Optional[List[int]]]] = {
            "efficiency": [None] * (len(by_cost) + 1),
            "utility": [None] * (len(by_cost) + 1),
        }
        #: :class:`~repro.engine.pruning.PruneCertificate` of the last
        #: :meth:`prune` call (or the one loaded from an artifact).
        self.certificate = None

    @classmethod
    def create(cls, problem) -> Optional["ComputeEngine"]:
        """An engine for ``problem``, or ``None`` when its utility model
        has no vectorized kernel."""
        if not supports_vectorization(problem.utility_model):
            return None
        arrays = ProblemArrays.from_problem(problem)
        if type(problem.utility_model) is TaxonomyUtilityModel and (
            arrays.interests is None or arrays.tags is None
        ):
            return None
        return cls(problem, arrays)

    @classmethod
    def from_prescored(
        cls,
        problem,
        edges: CandidateEdges,
        bases: np.ndarray,
    ) -> Optional["ComputeEngine"]:
        """An engine whose edge table and pair bases were computed
        elsewhere (typically shipped into a worker process over shared
        memory; the arrays may be read-only views into that block).

        The caller asserts that ``edges``/``bases`` were built for
        exactly this problem's entities; everything downstream (edge
        index, utility rows, level tables) derives from them locally.
        Returns ``None`` when the utility model has no vectorized
        kernel, mirroring :meth:`create`.
        """
        engine = cls.create(problem)
        if engine is None:
            return None
        engine._edges = edges
        engine._bases = np.asarray(bases)
        return engine

    # ------------------------------------------------------------------
    # Columnar state
    # ------------------------------------------------------------------
    @property
    def arrays(self) -> ProblemArrays:
        """The structure-of-arrays entity columns."""
        return self._arrays

    @property
    def dtype_policy(self):
        """The :class:`~repro.engine.dtypes.DtypePolicy` the columns
        were built with."""
        return self._arrays.policy

    @property
    def problem(self):
        """The problem this engine was built for."""
        return self._problem

    @property
    def edges_built(self) -> bool:
        """Whether the edge table has been materialised yet."""
        return self._edges is not None

    @property
    def edges(self) -> CandidateEdges:
        """The candidate-edge table (built on first access)."""
        if self._edges is None:
            rec = recorder()
            with rec.span("engine.build_edges"):
                self._edges = build_candidate_edges(
                    self._problem, self._arrays
                )
            rec.gauge("engine.candidate_edges", len(self._edges))
        return self._edges

    @property
    def num_edges(self) -> int:
        """Number of range-valid candidate pairs."""
        return len(self.edges)

    @property
    def pair_bases(self) -> np.ndarray:
        """``(E,)`` Eq. 4 pair bases, aligned with :attr:`edges`.

        With a :class:`~repro.parallel.ParallelConfig` on the problem
        (``problem.parallel_config``) and a table above the config's
        edge threshold, the table is scored in chunked worker processes
        over shared memory; the chunks concatenate to bitwise the same
        values as the serial one-pass kernel, which remains the
        fallback whenever the pool declines.
        """
        if self._bases is None:
            edges = self.edges  # build outside the scoring span
            with recorder().span("engine.pair_bases", n_edges=len(edges)):
                bases = None
                config = getattr(self._problem, "parallel_config", None)
                if config is not None:
                    from repro.parallel.kernels import chunked_pair_bases

                    bases = chunked_pair_bases(
                        self._problem.utility_model,
                        self._arrays,
                        edges,
                        config,
                    )
                if bases is None:
                    bases = _kernel_pair_bases(
                        self._problem.utility_model, self._arrays, edges
                    )
            if bases is None:  # pragma: no cover - guarded by create()
                raise RuntimeError(
                    "engine created for a model without a vectorized kernel"
                )
            self._bases = bases
        return self._bases

    def _point_index(
        self,
    ) -> Tuple[Dict[Tuple[int, int], int], Dict[int, int]]:
        """Build (once) the two-level point index.

        Returns the ``(customer_id, vendor_id) -> segment offset`` map
        and the ``vendor_id -> absolute segment start`` map.  Absolute
        edge positions are ``seg_start[vid] + offset``, so splicing one
        vendor's segment shifts only the O(n) start map, not the O(E)
        pair map.
        """
        if self._edge_pos is None:
            edges = self.edges
            cids = _shared_ints(
                self._arrays.customer_ids, edges.customer_idx
            )
            vendor_ids = self._arrays.vendor_ids.tolist()
            starts = edges.vendor_starts
            pos_map: Dict[Tuple[int, int], int] = {}
            seg_start: Dict[int, int] = {}
            for row, vid in enumerate(vendor_ids):
                lo = int(starts[row])
                hi = int(starts[row + 1])
                seg_start[vid] = lo
                for off in range(hi - lo):
                    pos_map[(cids[lo + off], vid)] = off
            self._edge_pos = pos_map
            self._seg_start = seg_start
        return self._edge_pos, self._seg_start

    def _recount_segments(self) -> None:
        """Refresh the O(n) vendor-id -> segment-start map after a
        splice changed the table layout."""
        starts = self.edges.vendor_starts
        self._seg_start = {
            vid: int(starts[row])
            for row, vid in enumerate(self._arrays.vendor_ids.tolist())
        }

    @property
    def edge_index(self) -> Dict[Tuple[int, int], int]:
        """``(customer_id, vendor_id)`` -> absolute edge position.

        Derived on demand from the two-level point index the hot path
        uses (per-segment offsets plus per-vendor starts); churn deltas
        keep that index O(segment) per splice instead of rebuilding an
        O(E) flat map.
        """
        edge_pos, seg_start = self._point_index()
        return {
            (cid, vid): seg_start[vid] + off
            for (cid, vid), off in edge_pos.items()
        }

    def utilities(self) -> np.ndarray:
        """``(E, K)`` utilities :math:`\\lambda_{ijk}` of every candidate
        instance (edge-major, ad types in catalogue order)."""
        if self._utilities is None:
            self._utilities = (
                self.pair_bases[:, None]
                * self._arrays.type_effectiveness[None, :]
            )
        return self._utilities

    def efficiencies(self) -> np.ndarray:
        """``(E, K)`` budget efficiencies :math:`\\gamma_{ijk}`."""
        return self.utilities() / self._arrays.type_cost[None, :]

    def warm(self) -> int:
        """Materialise every batch structure and point-lookup table.

        Called by ``MUAAProblem.warm_utilities`` so the one-time builds
        (edge table, pair bases, edge index, utility rows, best-type
        tables) happen during warm-up rather than inside an online
        decision loop.  Returns the number of candidate edges.
        """
        self._point_index()
        if self._util_rows is None:
            self._util_rows = _float_array(self.utilities())
        full = len(self._sorted_costs)
        for by in ("efficiency", "utility"):
            self._level_table(by, full)
        self._vendor_adjacency()
        return self.num_edges

    def _vendor_adjacency(self) -> Dict[int, List[int]]:
        """``customer_id`` -> vendor ids of its candidate edges.

        Derived from the edge table (so a custom pair validator is
        honoured), with vendors in catalogue (row) order -- the
        vendor-major table visits rows in ascending order, which churn
        splices preserve.  The scalar grid query returns the same *set*
        in grid-cell order; order is immaterial to the online solvers,
        which score every listed vendor independently before ranking.
        """
        if self._adjacency is None:
            edges = self.edges
            cids = _shared_ints(self._arrays.customer_ids, edges.customer_idx)
            vids = _shared_ints(self._arrays.vendor_ids, edges.vendor_idx)
            adjacency: Dict[int, List[int]] = {
                cid: [] for cid in self._arrays.customer_ids.tolist()
            }
            for cid, vid in zip(cids, vids):
                adjacency[cid].append(vid)
            self._adjacency = adjacency
        return self._adjacency

    def vendors_in_range(self, customer_id: int) -> Optional[List[int]]:
        """Vendor ids of one customer's candidate edges, or ``None``
        for a customer the problem does not know (callers fall back to
        the scalar spatial query)."""
        return self._vendor_adjacency().get(customer_id)

    def vendor_edge_slice(self, vendor_id: int) -> slice:
        """The contiguous edge range of one vendor (vendor-major table)."""
        return self.edges.vendor_slice(self._arrays.vendor_index[vendor_id])

    # ------------------------------------------------------------------
    # Point lookups (the online algorithms' hot path)
    # ------------------------------------------------------------------
    def pair_base(self, customer_id: int, vendor_id: int) -> Optional[float]:
        """The cached pair base, or ``None`` when the pair is not a
        range-valid candidate (callers fall back to the scalar model)."""
        edge_pos = self._edge_pos
        if edge_pos is None:
            edge_pos, _ = self._point_index()
        off = edge_pos.get((customer_id, vendor_id))
        if off is None:
            return None
        return float(self.pair_bases[self._seg_start[vendor_id] + off])

    def scored_elsewhere(
        self, customer_id: int, location: Tuple[float, float]
    ) -> bool:
        """Whether the columns hold ``customer_id`` at a location other
        than ``location`` (so its rows were scored there)."""
        row = self._arrays.customer_index.get(customer_id)
        if row is None:
            return False
        xy = self._arrays.customer_xy
        return not np.array_equal(
            xy[row], np.asarray(location, dtype=xy.dtype)
        )

    def pair_instances(
        self, customer_id: int, vendor_id: int, base: float
    ) -> List[AdInstance]:
        """All ad-type choices of one pair from its pair base."""
        return [
            AdInstance(
                customer_id=customer_id,
                vendor_id=vendor_id,
                type_id=ad_type.type_id,
                utility=base * ad_type.effectiveness,
                cost=ad_type.cost,
            )
            for ad_type in self._problem.ad_types
        ]

    def _level_table(self, by: str, level: int) -> List[int]:
        """Per-edge best ad-type index over affordability level ``level``
        (the ``level`` cheapest types), computed once per level.

        ``np.argmax`` returns the *first* maximum, which is exactly the
        scalar loop's strict-``>`` tie-breaking over catalogue order
        (each level's columns are kept in ascending catalogue order).
        """
        cached = self._level_tables[by][level]
        if cached is None:
            matrix = (
                self.efficiencies() if by == "efficiency" else self.utilities()
            )
            cols = self._level_cols[level]
            if len(cols) == matrix.shape[1]:
                cached = np.argmax(matrix, axis=1).tolist()
            else:
                sub = np.argmax(matrix[:, cols], axis=1)
                cached = np.asarray(cols)[sub].tolist()
            self._level_tables[by][level] = cached
        return cached

    def best_type_table(
        self, by: str, max_cost: Optional[float] = None
    ) -> Optional[List[int]]:
        """Per-edge best ad-type index among the types affordable within
        ``max_cost`` (every type when ``None``), or ``None`` when no
        type is affordable.

        The affordable set depends only on where ``max_cost`` falls
        among the K type costs, so a bisection picks the level and the
        level's argmax table gives the type.
        """
        if max_cost is None:
            level = len(self._sorted_costs)
        else:
            level = bisect_right(self._sorted_costs, max_cost + _COST_EPS)
            if level == 0:
                # Scalar path returns None on an empty affordable set
                # *before* validating ``by`` -- preserve that order.
                return None
        tables = self._level_tables.get(by)
        if tables is None:
            raise ValueError(f"unknown ranking criterion {by!r}")
        table = tables[level]
        if table is None:
            table = self._level_table(by, level)
        return table

    def best_for_pair(
        self,
        customer_id: int,
        vendor_id: int,
        by: str = "efficiency",
        max_cost: Optional[float] = None,
    ):
        """Point lookup for the online hot path.

        Returns :data:`MISS` when the pair is not a candidate edge
        (callers fall back to the scalar model), ``None`` when no ad
        type is affordable, and the best :class:`AdInstance` otherwise.
        The answer is always a precomputed table read
        (:meth:`best_type_table`).
        """
        edge_pos = self._edge_pos
        if edge_pos is None:
            edge_pos, _ = self._point_index()
        off = edge_pos.get((customer_id, vendor_id))
        if off is None:
            return MISS
        pos = self._seg_start[vendor_id] + off
        table = self.best_type_table(by, max_cost)
        if table is None:
            return None
        k = table[pos]
        # Read one cell: building the row table is warm()'s job.
        rows = self._util_rows
        utility = (
            rows[pos * self._n_types + k] if rows is not None
            else float(self.utilities()[pos, k])
        )
        ad_type = self._problem.ad_types[k]
        return AdInstance(
            customer_id=customer_id,
            vendor_id=vendor_id,
            type_id=ad_type.type_id,
            utility=utility,
            cost=ad_type.cost,
        )

    def edge_position(self, customer_id: int, vendor_id: int) -> Optional[int]:
        """Absolute edge-table position of one pair, or ``None`` when
        the pair is not a candidate edge.  The batch entry point for
        callers that gather many pairs at once (:meth:`batch_best`)."""
        edge_pos = self._edge_pos
        if edge_pos is None:
            edge_pos, _ = self._point_index()
        off = edge_pos.get((customer_id, vendor_id))
        if off is None:
            return None
        return self._seg_start[vendor_id] + off

    def batch_best(
        self,
        positions: Sequence[int],
        remaining: Sequence[float],
        by: str = "efficiency",
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`best_for_pair` over many edges at once.

        One gather over the precomputed utility/efficiency matrices
        answers a whole micro-batch of lookups in a single kernel call
        (the serving front-end's per-batch scoring path).

        Args:
            positions: Absolute edge positions (:meth:`edge_position`).
            remaining: Per-position remaining vendor budget.
            by: Ranking criterion, as in :meth:`best_for_pair`.

        Returns:
            ``(best_type, utility, affordable)`` arrays aligned with
            ``positions``: the best ad-type *index* (catalogue order),
            its utility, and whether any type was affordable at all
            (``best_type``/``utility`` are meaningless where
            ``affordable`` is false).  Selection is over the same
            matrices as the scalar level tables -- affordability is the
            same :data:`_COST_EPS`-tolerant cost threshold and
            ``argmax`` breaks ties toward the lowest catalogue index --
            so each row reproduces :meth:`best_for_pair` exactly.
        """
        if by == "efficiency":
            matrix = self.efficiencies()
        elif by == "utility":
            matrix = self.utilities()
        else:
            raise ValueError(f"unknown ranking criterion {by!r}")
        pos = np.asarray(positions, dtype=np.int64)
        rem = np.asarray(remaining, dtype=np.float64)
        affordable = (
            self._arrays.type_cost[None, :] <= rem[:, None] + _COST_EPS
        )
        scores = matrix[pos]
        masked = np.where(affordable, scores, -np.inf)
        best = np.argmax(masked, axis=1)
        utility = self.utilities()[pos, best]
        return best, utility, affordable.any(axis=1)

    # ------------------------------------------------------------------
    # Churn deltas (segment splices; see docs/incremental.md)
    # ------------------------------------------------------------------
    @property
    def cleared_vendors(self) -> Set[int]:
        """Vendors whose segments are currently spliced out."""
        return set(self._cleared)

    def _score_segment(
        self, row: int, seg_rows: np.ndarray, dist: np.ndarray
    ) -> np.ndarray:
        """Eq. 4/5 pair bases of one vendor's segment.

        The kernels reduce per edge with fixed-order ``einsum``
        accumulations, so scoring a segment alone is bitwise equal to
        the same rows of a cold full-table pass.
        """
        seg_edges = CandidateEdges(
            customer_idx=seg_rows,
            vendor_idx=np.full(
                len(seg_rows), row, dtype=self._arrays.index_dtype
            ),
            distance=dist,
            vendor_starts=np.array([0, len(seg_rows)], dtype=np.int64),
        )
        bases = _kernel_pair_bases(
            self._problem.utility_model, self._arrays, seg_edges
        )
        if bases is None:  # pragma: no cover - guarded by create()
            raise RuntimeError(
                "engine created for a model without a vectorized kernel"
            )
        return bases

    def _install_segment(
        self,
        row: int,
        start: int,
        seg_rows: np.ndarray,
        dist: np.ndarray,
        vendor_id: int,
    ) -> None:
        """Splice a freshly built segment's derived state in at
        ``start``: bases, utility matrix/rows, level tables, point
        index.  The edge table itself was already spliced."""
        if self._bases is not None and len(seg_rows):
            seg_bases = self._score_segment(row, seg_rows, dist)
            self._bases = np.concatenate([
                self._bases[:start], seg_bases, self._bases[start:]
            ])
            seg_util = (
                seg_bases[:, None]
                * self._arrays.type_effectiveness[None, :]
            )
            if self._utilities is not None:
                self._utilities = np.concatenate([
                    self._utilities[:start],
                    seg_util,
                    self._utilities[start:],
                ])
            if self._util_rows is not None:
                at = start * self._n_types
                self._util_rows[at:at] = _float_array(seg_util)
            self._insert_level_entries(
                start, seg_util, seg_util / self._arrays.type_cost[None, :]
            )
        if self._edge_pos is not None:
            cids = self._arrays.customer_ids[seg_rows].tolist()
            for off, cid in enumerate(cids):
                self._edge_pos[(cid, vendor_id)] = off
            self._recount_segments()

    def _insert_level_entries(
        self, start: int, seg_util: np.ndarray, seg_eff: np.ndarray
    ) -> None:
        """Splice per-edge best-type entries for a new segment into
        every already-built affordability-level table (same argmax code
        path as :meth:`_level_table`, so tie-breaking is identical)."""
        for by, matrix in (("efficiency", seg_eff), ("utility", seg_util)):
            for level, table in enumerate(self._level_tables[by]):
                cols = self._level_cols[level]
                if table is None or not cols:
                    continue
                if len(cols) == matrix.shape[1]:
                    entries = np.argmax(matrix, axis=1).tolist()
                else:
                    sub = np.argmax(matrix[:, cols], axis=1)
                    entries = np.asarray(cols)[sub].tolist()
                table[start:start] = entries

    def _remove_segment_caches(self, start: int, stop: int) -> None:
        """Splice one segment's rows out of every derived cache."""
        if start == stop:
            return
        if self._bases is not None:
            self._bases = np.concatenate([
                self._bases[:start], self._bases[stop:]
            ])
        if self._utilities is not None:
            self._utilities = np.concatenate([
                self._utilities[:start], self._utilities[stop:]
            ])
        if self._util_rows is not None:
            n_types = self._n_types
            del self._util_rows[start * n_types:stop * n_types]
        for by in ("efficiency", "utility"):
            for table in self._level_tables[by]:
                if table is not None:
                    del table[start:stop]

    def insert_vendor(self, vendor, row: Optional[int] = None) -> bool:
        """Splice a new vendor (and its candidate segment) into the
        engine at vendor row ``row`` (default: catalogue end).

        The segment is enumerated with the scalar grid query (the exact
        per-vendor order of a cold build) and scored with the same
        fixed-order kernel, so queries after the delta are bitwise the
        cold-rebuild answers.  Idempotent: a vendor already present is
        a no-op returning ``False``.
        """
        arrays = self._arrays
        if vendor.vendor_id in arrays.vendor_index:
            return False
        if row is None:
            row = arrays.n_vendors
        new_arrays = arrays.with_vendor_inserted(vendor, row)
        if self._edges is None:
            self._arrays = new_arrays
            return True
        with recorder().span(
            "engine.delta_insert", vendor=vendor.vendor_id
        ):
            seg_rows, dist = vendor_segment(self._problem, new_arrays, vendor)
            start = int(self._edges.vendor_starts[row])
            self._edges = insert_vendor_segment(
                self._edges, row, seg_rows, dist
            )
            self._arrays = new_arrays
            self._install_segment(row, start, seg_rows, dist, vendor.vendor_id)
            if self._adjacency is not None:
                vendor_index = new_arrays.vendor_index
                for cid in new_arrays.customer_ids[seg_rows].tolist():
                    listed = self._adjacency.setdefault(cid, [])
                    # Keep the per-customer vendor list in catalogue
                    # (row) order; scans from the right so catalogue
                    # appends stay O(1).
                    i = len(listed)
                    while i > 0 and vendor_index[listed[i - 1]] > row:
                        i -= 1
                    listed.insert(i, vendor.vendor_id)
        return True

    def retire_vendor(self, vendor_id: int) -> bool:
        """Splice a vendor's row and candidate segment out of the
        engine.  Idempotent: an unknown vendor is a no-op."""
        arrays = self._arrays
        row = arrays.vendor_index.get(vendor_id)
        if row is None:
            return False
        new_arrays = arrays.with_vendor_removed(row)
        if self._edges is None:
            self._arrays = new_arrays
            self._cleared.discard(vendor_id)
            return True
        with recorder().span("engine.delta_retire", vendor=vendor_id):
            start = int(self._edges.vendor_starts[row])
            stop = int(self._edges.vendor_starts[row + 1])
            cids = arrays.customer_ids[
                self._edges.customer_idx[start:stop]
            ].tolist()
            self._edges = remove_vendor_segment(self._edges, row)
            self._arrays = new_arrays
            self._remove_segment_caches(start, stop)
            if self._edge_pos is not None:
                for cid in cids:
                    self._edge_pos.pop((cid, vendor_id), None)
                self._seg_start.pop(vendor_id, None)
                self._recount_segments()
            if self._adjacency is not None:
                if vendor_id in self._cleared:
                    # A deactivated vendor's segment is empty but its
                    # adjacency entries were kept (for skip counting) --
                    # sweep every list.
                    for listed in self._adjacency.values():
                        try:
                            listed.remove(vendor_id)
                        except ValueError:
                            pass
                else:
                    for cid in cids:
                        listed = self._adjacency.get(cid)
                        if listed is not None:
                            try:
                                listed.remove(vendor_id)
                            except ValueError:
                                pass
            self._cleared.discard(vendor_id)
        return True

    def deactivate_exhausted(self, vendor_ids: Iterable[int]) -> int:
        """Splice the candidate segments of exhausted vendors out while
        keeping their rows (budget bookkeeping stays intact).

        A vendor whose remaining budget is below the cheapest ad price
        can never serve another ad, so emptying its segment is
        behaviour-preserving; the per-customer adjacency keeps listing
        it so ``MUAAProblem.valid_vendor_ids`` can count the skip.
        Idempotent per vendor; returns the number newly deactivated.
        """
        cleared = 0
        for vendor_id in vendor_ids:
            row = self._arrays.vendor_index.get(vendor_id)
            if (
                row is None
                or vendor_id in self._cleared
                or self._edges is None
            ):
                continue
            start = int(self._edges.vendor_starts[row])
            stop = int(self._edges.vendor_starts[row + 1])
            if stop > start:
                cids = self._arrays.customer_ids[
                    self._edges.customer_idx[start:stop]
                ].tolist()
                self._edges = clear_vendor_segment(self._edges, row)
                self._remove_segment_caches(start, stop)
                if self._edge_pos is not None:
                    for cid in cids:
                        self._edge_pos.pop((cid, vendor_id), None)
                    self._recount_segments()
            self._cleared.add(vendor_id)
            cleared += 1
        if cleared:
            recorder().count("engine.vendors_deactivated", cleared)
        return cleared

    def restore_vendor(self, vendor_id: int) -> bool:
        """Rebuild a deactivated vendor's segment in place -- the
        inverse of :meth:`deactivate_exhausted` (the rebuilt values are
        bitwise the originals)."""
        if vendor_id not in self._cleared:
            return False
        self._cleared.discard(vendor_id)
        row = self._arrays.vendor_index.get(vendor_id)
        if row is None or self._edges is None:
            return False
        vendor = self._problem.vendors_by_id.get(vendor_id)
        if vendor is None:
            # Engine-only insert: rebuild the entity from the columns.
            from repro.core.entities import Vendor

            arrays = self._arrays
            vendor = Vendor(
                vendor_id=vendor_id,
                location=tuple(arrays.vendor_xy[row].tolist()),
                radius=float(arrays.radius[row]),
                budget=float(arrays.budget[row]),
                tags=None if arrays.tags is None else arrays.tags[row],
            )
        seg_rows, dist = vendor_segment(self._problem, self._arrays, vendor)
        start = int(self._edges.vendor_starts[row])
        self._edges = fill_vendor_segment(self._edges, row, seg_rows, dist)
        self._install_segment(row, start, seg_rows, dist, vendor_id)
        return True

    # ------------------------------------------------------------------
    # Certified pruning and artifact persistence (docs/scale.md)
    # ------------------------------------------------------------------
    def prune(self, level: str = "exact"):
        """Drop candidate edges that provably never enter a solution.

        Delegates to :func:`repro.engine.pruning.prune_engine`; the
        returned :class:`~repro.engine.pruning.PruneCertificate` is
        also stored on :attr:`certificate` and travels with saved
        artifacts.  ``level="exact"`` is utility-neutral for every
        solver; ``level="lp"`` additionally drops edges below the
        vendor LP marginal (bound-preserving, heuristic trajectories
        may shift).
        """
        from repro.engine.pruning import prune_engine

        return prune_engine(self, level=level)

    def save(self, path, extra: Optional[dict] = None):
        """Persist the built edge table and pair bases to ``path`` in
        the mmap-able column format of :mod:`repro.store`."""
        from repro.store import save_engine

        return save_engine(self, path, extra=extra)

    @classmethod
    def load(cls, path, problem, mmap: bool = True) -> "ComputeEngine":
        """Attach a saved engine artifact to ``problem``.

        Columns are memory-mapped read-only by default, so the load is
        O(pages touched) instead of O(build); see
        :func:`repro.store.load_engine` for the validation performed.
        """
        from repro.store import load_engine

        return load_engine(path, problem, mmap=mmap)

    def admit_customers(self, customers: Sequence) -> int:
        """Append new customer rows (shard-view admits during a cell
        migration).  Existing edges keep their row references; the new
        customers gain edges only through subsequent vendor inserts."""
        fresh = [
            c for c in customers
            if c.customer_id not in self._arrays.customer_index
        ]
        if not fresh:
            return 0
        self._arrays = self._arrays.with_customers_appended(fresh)
        if self._adjacency is not None:
            for customer in fresh:
                self._adjacency.setdefault(customer.customer_id, [])
        return len(fresh)

