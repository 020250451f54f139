"""Worker-side code for RECON's parallel per-vendor MCKP solves.

The parent (:class:`repro.algorithms.recon.Reconciliation`) ships its
:class:`~repro.mckp.columnar.VendorTable` -- the ``(E, K)`` utility
matrix, the vendor-major edge table offsets, customer ids and ranks,
budgets and the ad-type catalogue columns -- through one shared-memory
block.  Each worker task is a contiguous ``[lo, hi)`` range of vendor
rows, solved by :func:`~repro.mckp.columnar.solve_vendor_rows`, the
same code the parent runs serially, so tie-breaking matches.

Workers return plain ``(vendor_row, [(customer_id, type_id), ...])``
tuples; the parent re-materialises :class:`AdInstance` objects through
``problem.make_instance`` so utilities come from the same engine floats
on both paths.

A sharded solve fans out whole shards instead: the pool initializer
hands each worker the :class:`~repro.sharding.ShardPlan` (inherited
under ``fork``), and each task builds one shard's view and engine and
returns what the parent's serial loop computes for that shard
(``Reconciliation._solve_shard``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.mckp.columnar import VendorChoices, VendorTable, solve_vendor_rows
from repro.obs.recorder import recorder
from repro.parallel.shm import AttachedColumns, ColumnHandle, attach_columns

#: Per-process worker state: (attached columns, mckp method).
_STATE: Optional[Tuple[AttachedColumns, str]] = None

#: Per-process shard-worker state: (shard plan, mckp method).
_SHARD_STATE: Optional[Tuple[object, str]] = None


def init_worker(handle: ColumnHandle, mckp_method: str) -> None:
    """Pool initializer: attach the shared columns once per worker."""
    global _STATE
    _STATE = (attach_columns(handle), mckp_method)


def solve_vendor_span(
    span: Tuple[int, int]
) -> List[Tuple[int, VendorChoices]]:
    """Solve the single-vendor MCKPs of vendor rows ``[lo, hi)``."""
    assert _STATE is not None, "worker initializer did not run"
    columns, method = _STATE
    rec = recorder()
    lo, hi = span
    return list(
        solve_vendor_rows(
            VendorTable(**columns),
            lo,
            hi,
            method,
            lambda row: rec.span("recon.vendor", vendor_row=row),
        )
    )


def init_shard_worker(plan, mckp_method: str) -> None:
    """Pool initializer of the sharded solve: keep the plan."""
    global _SHARD_STATE
    _SHARD_STATE = (plan, mckp_method)


def solve_shard(shard: int):
    """One shard's per-vendor solutions and refund edge slices."""
    from repro.algorithms.recon import Reconciliation

    assert _SHARD_STATE is not None, "worker initializer did not run"
    plan, method = _SHARD_STATE
    return Reconciliation(mckp_method=method)._solve_shard(plan, shard)
